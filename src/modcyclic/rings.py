"""Finite commutative rings and ideal arithmetic.

A ring is a canonical abelian group plus the products of all pairs of
canonical generators, held as rows of reduced canonical coordinates;
multiplication of arbitrary elements is the bilinear extension of that
table, computed by the `lincomb` and `bilinear` kernels of `intlinalg`.
A quotient ring A = R/I_A is never built: the ideal I_A is a `Subgroup`
of R, and every ideal of A is stored as its full preimage in R, a
`Subgroup` that contains I_A.  Replacing A by a further quotient is then
a single assignment of that subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import lshift, mod, sub

from .abelian import (
    CanonicalGroup,
    Element,
    Subgroup,
    _check_group,
    subgroup_meet,
    subgroup_span,
)
from .intlinalg import IntMatrix, bilinear, kernel_mod_lattice, lincomb, solve_congruence


class NoIdentityError(ValueError):
    """The multiplication table admits no identity element."""


@dataclass(frozen=True)
class Diagnostic:
    """One validator finding: which axiom failed, where, and how."""

    axiom: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} violated at {self.where}: {self.detail}"


class FiniteRing:
    """Finite commutative ring with identity (the identity may be zero).

    `mul_table[i][j]` is g_i * g_j as a tuple of reduced canonical
    coordinates.
    """

    __slots__ = ("group", "mul_table", "one")

    def __init__(self, group: CanonicalGroup, mul_table, one: Element):
        r = group.rank
        table = tuple(tuple(row) for row in mul_table)
        if len(table) != r or any(len(row) != r for row in table):
            raise ValueError(f"multiplication table must be {r}x{r}")
        self.group = group
        self.mul_table = table
        self.one = one

    @property
    def order(self) -> int:
        return self.group.order

    def gens(self) -> list:
        return self.group.gens()

    def zero(self) -> Element:
        return self.group.zero()

    def mul(self, a: Element, b: Element) -> Element:
        _check_group(self.group, a.group)
        _check_group(self.group, b.group)
        return self.group.element(bilinear(self.mul_table, a.coords, b.coords,
                                           self.group.rank))

    def images(self, x: Element) -> list:
        """g_i * x for every generator g_i, in order."""
        _check_group(self.group, x.group)
        r = self.group.rank
        return [self.group.element(lincomb(x.coords, row, r)) for row in self.mul_table]

    def __repr__(self) -> str:
        return f"FiniteRing(order={self.order})"


def find_identity(group: CanonicalGroup, mul_table) -> Element:
    """Solve e * g_i = g_i for all canonical generators g_i.

    Works on any bilinear table; raises NoIdentityError when the linear
    system has no solution (the table is not a unital ring table).
    """
    r = group.rank
    if r == 0:
        return group.zero()
    a_rows = [[c for vec in row for c in vec] for row in mul_table]
    lattice = IntMatrix.diagonal(list(group.invariant_factors) * r)
    target = []
    for j in range(r):
        target.extend(1 if t == j else 0 for t in range(r))
    x = solve_congruence(IntMatrix(r, r * r, a_rows), lattice, target)
    if x is None:
        raise NoIdentityError("no element acts as a multiplicative identity")
    return group.element(x)


# -- packed operator rows ----------------------------------------------------
#
# Associativity is checked through operator identities: with L_i the matrix
# of "multiply by generator i" (rows indexed by generators of the target),
# the law (g_i g_k) x = g_i (g_k x) for all generators is
# L_k L_i = sum_t T[i][k]_t L_t.  Each operator row is packed into one int,
# one fixed-width slot per column (Kronecker substitution), wide enough that
# no unreduced sum on either side carries into the next slot.  A row
# combination is then one big-integer operation, both sides are `lincomb`s
# of packed rows, and rows are compared as ints; only rows that differ as
# ints are unpacked and compared modulo the column orders.


def _rows_differ(lhs, rhs, w: int, factors) -> bool:
    """Do two lists of rows, packed w bits per column, differ modulo the
    column orders?"""
    mask, shifts = (1 << w) - 1, range(0, w * len(factors), w)

    def unpack(v):
        return [(v >> s) & mask for s in shifts]

    return any(any(map(mod, map(sub, unpack(a), unpack(b)), factors))
               for a, b in zip(lhs, rhs) if a != b)


def _assoc_diagnostics(ring: "FiniteRing", act_table, act_factors, label: str) -> list:
    """Operator-identity associativity check shared by ring and module
    validators; `act_table[i][j]` is generator i of the ring acting on
    generator j of the target, as canonical coordinates."""
    r = ring.group.rank
    n = len(act_factors)
    if not n:
        return []
    e_t = max(act_factors)
    # slot width: no unreduced sum on either side reaches 2^w
    w = (max(r * ring.group.exponent, n * e_t) * e_t).bit_length() + 1
    shifts = range(0, w * n, w)
    ops = [[sum(map(lshift, vec, shifts)) for vec in row] for row in act_table]
    op_cols = list(zip(*ops))  # op_cols[t][i]: g_i acting on generator t, packed
    failed = []
    for k in range(r):
        # row j of L_k L_i for every i at once: sum_t act_table[k][j]_t * ops[i][t]
        rhs = list(zip(*[lincomb(vec, op_cols, r) for vec in act_table[k]]))
        for i in range(r):
            lhs = tuple(lincomb(ring.mul_table[i][k], ops, n))
            if lhs != rhs[i] and _rows_differ(lhs, rhs[i], w, act_factors):
                failed.append((i, k))
    return [Diagnostic("associativity", f"{label}(g{i}, g{k}, *)",
                       "(g_i*g_k)*x differs from g_i*(g_k*x) on a generator")
            for i, k in sorted(failed)]


def ring_validate(ring: FiniteRing) -> list:
    """Check every ring axiom on the generator table.

    Returns the complete list of diagnostics (empty means valid); never
    stops at the first failure.
    """
    diags = []
    g = ring.group
    d = g.invariant_factors
    r = g.rank
    table = ring.mul_table
    for i in range(r):
        for j in range(r):
            # killed by d_i and by d_j exactly when killed by their gcd
            if any(map(mod, map(gcd(d[i], d[j]).__mul__, table[i][j]), d)):
                diags.append(Diagnostic(
                    "well-definedness", f"g{i}*g{j}",
                    f"product does not vanish under the generator orders "
                    f"({d[i]}, {d[j]})"))
    for i in range(r):
        for j in range(i + 1, r):
            if table[i][j] != table[j][i]:
                diags.append(Diagnostic(
                    "commutativity", f"g{i}*g{j}",
                    f"Element{table[i][j]} != Element{table[j][i]}"))
    diags.extend(_assoc_diagnostics(ring, table, d, "mul"))
    for i, gen in enumerate(g.gens()):
        if ring.mul(ring.one, gen) != gen:
            diags.append(Diagnostic(
                "identity", f"1*g{i}",
                f"identity candidate {ring.one!r} does not fix generator {i}"))
    return diags


def ideal_span(ring: FiniteRing, i_a: Subgroup, elems) -> Subgroup:
    """Ideal of A = R/I_A generated by the given R-elements, as its
    preimage in R."""
    gens = [g for s in elems for g in ring.images(s)]
    gens.extend(i_a.basis_elements())
    return subgroup_span(ring.group, gens)


def ideal_annihilator(ring: FiniteRing, i_a: Subgroup, x: Subgroup) -> Subgroup:
    """Ann_A(x) = {r : r*u in i_a for every u in x}.  A basis element u of
    x is kept only if it lies outside the ideal spanned by i_a and the ones
    kept before it; Ann_A(x) is then the kernel of the block map
    r -> (r*u_1, ..., r*u_s) modulo s diagonal copies of i_a, one HNF
    modulo e_R (s = 0 gives all of R)."""
    products, span = [], i_a  # per kept u, the products g*u over the generators g
    us = x.basis_elements()
    for idx, u in enumerate(us):
        if not span.contains(u):
            products.append(ring.images(u))
            if idx + 1 < len(us):  # `ideal_span(ring, span, [u])`; the last is never read
                span = subgroup_span(ring.group, products[-1] + span.basis_elements())
    r, s = ring.group.rank, len(products)
    rows = [[c for row in products for c in row[g].coords] for g in range(r)]
    copies = [(0,) * (r * t) + row + (0,) * (r * (s - 1 - t))
              for t in range(s) for row in i_a.basis.data]
    basis = kernel_mod_lattice(IntMatrix(r, r * s, rows), IntMatrix(r * s, r * s, copies),
                               IntMatrix.diagonal(ring.group.invariant_factors),
                               ring.group.exponent)
    return Subgroup(ring.group, basis)


def ideal_meet_is_zero(ring: FiniteRing, i_a: Subgroup, p: Subgroup, q: Subgroup):
    """Intersection of two ideals of A = R/I_A, and whether it is the zero
    ideal of A (i.e. the preimages meet exactly in i_a)."""
    _check_group(ring.group, i_a.ambient)
    meet = subgroup_meet(p, q)
    return meet, meet == i_a

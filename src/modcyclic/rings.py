"""Finite commutative rings and ideal arithmetic.

A ring is a canonical abelian group plus the products of all pairs of
canonical generators, held as rows of reduced canonical coordinates;
multiplication by an element is the linear extension of that table,
computed by the `lincomb` kernel of `intlinalg`.
A quotient ring A = R/I_A is never built: the ideal I_A is a `Subgroup`
of R, and every ideal of A is stored as its full preimage in R, a
`Subgroup` that contains I_A.  Replacing A by a further quotient is then
a single assignment of that subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from math import gcd
from operator import lshift, mod, mul, sub

from .abelian import (
    CanonicalGroup,
    Element,
    Subgroup,
    _check_group,
    hom_kernel,
    subgroup_join,
    subgroup_meet,
)
from .intlinalg import lincomb, solve_congruence
from .intstr import int_text, int_to_str


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
    coordinates; a parsed table holds one tuple per distinct product.
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

    def images(self, x: Element) -> list:
        """g_i * x for every generator g_i, in order: the products x * g_i
        of one `products` row.  Every parsed ring has passed the
        commutativity check, so x * g_i = g_i * x."""
        _check_group(self.group, x.group)
        g = self.group
        return [Element(g, p) for p in products(x.coords, self.mul_table, g.invariant_factors)]

    def __repr__(self) -> str:
        return f"FiniteRing(order={self.order})"


def find_identity(group: CanonicalGroup, mul_table) -> Element:
    """Solve e * g_j = g_j for all canonical generators g_j, as one system
    of r^2 congruences modulo the exponent.

    Works on any bilinear table; raises NoIdentityError when the system has
    no solution (the table is not a unital ring table).  The candidate is
    checked against every generator by the validators' identity check, and
    a failure raises RuntimeError: the solve, not the table, is then wrong.
    """
    r = group.rank
    a_rows = [[c for vec in row for c in vec] for row in mul_table]
    target = [1 if t == j else 0 for j in range(r) for t in range(r)]
    x = solve_congruence(a_rows, target, list(group.invariant_factors) * r, group.exponent)
    if x is None:
        raise NoIdentityError("no element acts as a multiplicative identity")
    one = group.element(x)
    failed = _identity_diagnostics(one, mul_table, group.invariant_factors, "g",
                                   lambda j: f"solved identity {one!r} does not fix generator {j}")
    if failed:
        raise RuntimeError(failed[0].detail)
    return one


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
    # Tables repeat their vectors, a commutative one at least in pairs, and
    # each quantity below depends on one table vector: it is computed once
    # per distinct vector.
    vectors = set(chain.from_iterable(act_table))
    packed = {vec: sum(map(lshift, vec, shifts)) for vec in vectors}
    ops = [list(map(packed.__getitem__, row)) for row in act_table]
    op_cols = list(zip(*ops))  # op_cols[t][i]: g_i acting on generator t, packed
    # rhs_of[v][i] = g_i * v and lhs_of[v][j] = v * x_j, packed
    rhs_of = {vec: lincomb(vec, op_cols, r) for vec in vectors}
    lhs_of = {vec: tuple(lincomb(vec, ops, n))
              for vec in set(chain.from_iterable(ring.mul_table))}
    failed = []
    for k, mul_col in enumerate(zip(*ring.mul_table)):
        # row i: g_i (g_k x_j) and (g_i g_k) x_j over every j, packed
        rhs = list(zip(*map(rhs_of.__getitem__, act_table[k])))
        lhs = list(map(lhs_of.__getitem__, mul_col))
        if lhs != rhs:
            failed.extend((i, k) for i in range(r)
                          if lhs[i] != rhs[i] and _rows_differ(lhs[i], rhs[i], w, act_factors))
    return [Diagnostic("associativity", f"{label}(g{i}, g{k}, *)",
                       "(g_i*g_k)*x differs from g_i*(g_k*x) on a generator")
            for i, k in sorted(failed)]


def _well_defined_diagnostics(table, row_orders, col_orders, col: str, what: str) -> list:
    """Entry (i, j) of a generator table, a vector in the coordinates of
    the column group, must vanish under gcd(d_i, d'_j), the orders of row
    generator g_i and column generator j: it is killed by d_i and by d'_j
    exactly when it is killed by their gcd.  One C-level pass per table
    row, with the gcds repeated per coordinate; entries are located only
    in a row that fails.  A row whose gcds all vanish modulo the
    coordinates' orders, as when every invariant factor is the same, is
    well defined whatever its entries and is not read.  Shared by the ring
    and module validators."""
    n = len(col_orders)
    moduli = col_orders * n
    multipliers = {}  # by d_i: gcd(d_i, d'_j) once per coordinate of entry j, or None
    diags = []
    for i, (di, row) in enumerate(zip(row_orders, table)):
        if di not in multipliers:
            mults = list(chain.from_iterable(
                map(repeat, map(gcd, repeat(di), col_orders), repeat(n))))
            multipliers[di] = mults if any(map(mod, mults, moduli)) else None
        mults = multipliers[di]
        if mults and any(map(mod, map(mul, chain.from_iterable(row), mults), moduli)):
            diags.extend(
                Diagnostic("well-definedness", f"g{i}*{col}{j}",
                           f"{what} does not vanish under the generator orders "
                           f"({int_to_str(di)}, {int_to_str(dj)})")
                for j, dj in enumerate(col_orders)
                if any(map(mod, map(gcd(di, dj).__mul__, row[j]), col_orders)))
    return diags


def products(coeffs, table, factors) -> list:
    """x*h_j, as reduced coordinates, for every column generator h_j of a
    generator table (`mul_table` or `action_table`, `factors` the orders
    of the h_j), x with coordinates `coeffs` over the row generators: one
    `lincomb` over the rows x does not skip, their vectors concatenated."""
    n = len(factors)
    flat = lincomb(list(filter(None, coeffs)),
                   [list(chain.from_iterable(row)) for row in compress(table, coeffs)], n * n)
    flat = tuple(map(mod, flat, factors * n))
    return [flat[j * n:(j + 1) * n] for j in range(n)]


def _identity_diagnostics(one: Element, table, factors, label: str, detail) -> list:
    """one * x_j = x_j for every generator x_j of the target of a generator
    table, from one row of products."""
    return [Diagnostic("identity", f"1*{label}{j}", detail(j))
            for j, got in enumerate(products(one.coords, table, factors))
            if got[j] != 1 or any(got[:j] + got[j + 1:])]


def ring_validate(ring: FiniteRing) -> list:
    """Check every ring axiom on the generator table.

    Returns the complete list of diagnostics (empty means valid); never
    stops at the first failure.
    """
    g = ring.group
    d = g.invariant_factors
    r = g.rank
    table = ring.mul_table
    diags = _well_defined_diagnostics(table, d, d, "g", "product")
    for i in range(r):
        for j in range(i + 1, r):
            if table[i][j] != table[j][i]:
                diags.append(Diagnostic(
                    "commutativity", f"g{i}*g{j}",
                    f"Element{int_text(table[i][j])} != Element{int_text(table[j][i])}"))
    diags.extend(_assoc_diagnostics(ring, table, d, "mul"))
    diags.extend(_identity_diagnostics(
        ring.one, table, d, "g",
        lambda i: f"identity candidate {ring.one!r} does not fix generator {i}"))
    return diags


def ideal_span(ring: FiniteRing, i_a: Subgroup, elems) -> Subgroup:
    """Ideal of A = R/I_A generated by the given R-elements, as its
    preimage in R."""
    return subgroup_join(i_a, [g for s in elems for g in ring.images(s)])


def ideal_annihilator(ring: FiniteRing, i_a: Subgroup, x: Subgroup) -> Subgroup:
    """Ann_A(x) = {r : r*u in i_a for every u in x}.  A basis element u of
    x is kept only if it lies outside the ideal spanned by i_a and the ones
    kept before it; Ann_A(x) is then the kernel of the block map
    r -> (r*u_1, ..., r*u_s) modulo s copies of i_a, one `hom_kernel`
    (s = 0 gives all of R)."""
    products, span = [], i_a  # per kept u, the products g*u over the generators g
    us = x.basis_elements()
    for idx, u in enumerate(us):
        if not span.contains(u):
            products.append(ring.images(u))
            if idx + 1 < len(us):  # `ideal_span(ring, span, [u])`; the last is never read
                span = subgroup_join(span, products[-1])
    return hom_kernel(ring.group, products, i_a)


def ideal_meet_is_zero(i_a: Subgroup, p: Subgroup, q: Subgroup):
    """Intersection of two ideals of A = R/I_A, and whether it is the zero
    ideal of A (i.e. the preimages meet exactly in i_a)."""
    _check_group(p.ambient, i_a.ambient)
    meet = subgroup_meet(p, q)
    return meet, meet == i_a

"""Finite commutative rings and ideal arithmetic.

A ring is a canonical abelian group plus the products of all pairs of
canonical generators; multiplication of arbitrary elements is the bilinear
extension of that table.  A quotient ring A = R/I_A is never built: the
ideal I_A is a `Subgroup` of R, and every ideal of A is stored as its full
preimage in R, a `Subgroup` that contains I_A.  Replacing A by a further
quotient is then a single assignment of that subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    CanonicalGroup,
    Element,
    Subgroup,
    _check_group,
    subgroup_meet,
    subgroup_span,
)
from .intlinalg import IntMatrix, kernel_mod_lattice, solve_congruence


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
    """Finite commutative ring with identity (the identity may be zero)."""

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
        r = self.group.rank
        acc = [0] * r
        for i, ai in enumerate(a.coords):
            if not ai:
                continue
            row = self.mul_table[i]
            for j, bj in enumerate(b.coords):
                if not bj:
                    continue
                c = ai * bj
                for t, x in enumerate(row[j].coords):
                    if x:
                        acc[t] += c * x
        return self.group.element(acc)

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
    a_rows = []
    for i in range(r):
        row = []
        for j in range(r):
            row.extend(mul_table[i][j].coords)
        a_rows.append(row)
    lattice = IntMatrix.diagonal(list(group.invariant_factors) * r)
    target = []
    for j in range(r):
        target.extend(1 if t == j else 0 for t in range(r))
    x = solve_congruence(IntMatrix(r, r * r, a_rows), lattice, target)
    if x is None:
        raise NoIdentityError("no element acts as a multiplicative identity")
    return group.element(x)


# -- sparse operator helpers -------------------------------------------------
#
# Associativity is checked through operator identities: with L_i the matrix
# of "multiply by generator i" (rows indexed by module generators), the law
# (g_i g_k) m = g_i (g_k m) for all generators is L_k L_i = sum_t T[i][k]_t L_t.
# Operator rows are kept as {column: value} dicts because the tables of
# interest are extremely sparse.


def _op_rows(table_row) -> list:
    return [{j: x for j, x in enumerate(el.coords) if x} for el in table_row]


def _reduce_row(row: dict, factors) -> dict:
    return {j: v % factors[j] for j, v in row.items() if v % factors[j]}


def _op_mul(p: list, q: list, factors) -> list:
    out = []
    for row in p:
        acc: dict = {}
        for t, c in row.items():
            for j, x in q[t].items():
                acc[j] = acc.get(j, 0) + c * x
        out.append(_reduce_row(acc, factors))
    return out


def _op_combo(coeffs, ops: list, nrows: int, factors) -> list:
    out = [dict() for _ in range(nrows)]
    for t, c in enumerate(coeffs):
        if not c:
            continue
        for i, row in enumerate(ops[t]):
            acc = out[i]
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return [_reduce_row(row, factors) for row in out]


def _assoc_diagnostics(ring: "FiniteRing", act_table, act_factors, label: str) -> list:
    """Operator-identity associativity check shared by ring and module
    validators; `act_table[i][j]` is generator i of the ring acting on
    generator j of the target."""
    diags = []
    r = ring.group.rank
    nrows = len(act_table[0]) if r and act_table else 0
    ops = [_op_rows(act_table[i]) for i in range(r)]
    for i in range(r):
        for k in range(r):
            lhs = _op_combo(ring.mul_table[i][k].coords, ops, nrows, act_factors)
            rhs = _op_mul(ops[k], ops[i], act_factors)
            if lhs != rhs:
                diags.append(Diagnostic(
                    "associativity", f"{label}(g{i}, g{k}, *)",
                    "(g_i*g_k)*x differs from g_i*(g_k*x) on a generator"))
    return diags


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
            if not (d[i] * table[i][j]).is_zero() or not (d[j] * table[i][j]).is_zero():
                diags.append(Diagnostic(
                    "well-definedness", f"g{i}*g{j}",
                    f"product does not vanish under the generator orders "
                    f"({d[i]}, {d[j]})"))
    for i in range(r):
        for j in range(i + 1, r):
            if table[i][j] != table[j][i]:
                diags.append(Diagnostic(
                    "commutativity", f"g{i}*g{j}",
                    f"{table[i][j]!r} != {table[j][i]!r}"))
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
    gens = []
    for s in elems:
        _check_group(ring.group, s.group)
        for g in ring.gens():
            gens.append(ring.mul(g, s))
    gens.extend(i_a.basis_elements())
    return subgroup_span(ring.group, gens)


def ideal_annihilator(ring: FiniteRing, i_a: Subgroup, x: Subgroup) -> Subgroup:
    """Ann_A(x) = {r : r*u in i_a for every u in x}.  A basis element u of
    x is kept only if it lies outside the ideal spanned by i_a and the ones
    kept before it; Ann_A(x) is then the kernel of the block map
    r -> (r*u_1, ..., r*u_s) modulo s diagonal copies of i_a, one HNF
    modulo e_R (s = 0 gives all of R)."""
    targets, span = [], i_a
    for u in x.basis_elements():
        if not span.contains(u):
            targets.append(u)
            span = ideal_span(ring, span, [u])
    r, s = ring.group.rank, len(targets)
    rows = [[c for u in targets for c in ring.mul(g, u).coords] for g in ring.gens()]
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

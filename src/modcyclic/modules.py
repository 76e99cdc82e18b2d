"""Finite modules over a finite commutative ring: scalar extension
M_A = M/(I_A M), element annihilators, and the span tests of the driver.

A submodule is passed around as a tuple of generating elements; the
driver's N keeps them in construction order, which fixes its choices.
M_A is carried by the lattice I_A*M, a `Subgroup` of M: membership in it
is a zero image in M_A, and its index is |M_A|.  The action is held as
rows of canonical coordinates, and every product r*m is the `lincomb`
kernel of `intlinalg`."""

from __future__ import annotations

from .abelian import (
    CanonicalGroup,
    Element,
    Subgroup,
    _check_group,
    hom_kernel,
    subgroup_join,
    subgroup_span,
)
from .intlinalg import lincomb
from .rings import (
    FiniteRing,
    _assoc_diagnostics,
    _identity_diagnostics,
    _well_defined_diagnostics,
    products,
)


class FiniteModule:
    """A finite R-module: abelian group plus the generator action table.

    `action_table[i][j]` is (ring generator i) * (module generator j), as a
    tuple of reduced canonical coordinates, one tuple per distinct product
    in a parsed table; arbitrary products are bilinear extensions.  Every
    vector of a parsed table is reduced modulo the module's invariant
    factors, so `images` of a generator and `products` of a ring
    generator return the table's own tuples.
    """

    __slots__ = ("ring", "group", "action_table")

    def __init__(self, ring: FiniteRing, group: CanonicalGroup, action_table):
        table = tuple(tuple(row) for row in action_table)
        if len(table) != ring.group.rank or any(len(row) != group.rank for row in table):
            raise ValueError(
                f"action table must be {ring.group.rank}x{group.rank}")
        self.ring = ring
        self.group = group
        self.action_table = table

    @property
    def order(self) -> int:
        return self.group.order

    def zero(self) -> Element:
        return self.group.zero()

    def act(self, r: Element, m: Element) -> Element:
        """r*m, the combination of the images g_i*m with r's coordinates."""
        _check_group(self.ring.group, r.group)
        return self.group.element(lincomb(r.coords, [x.coords for x in self.images(m)],
                                          self.group.rank))

    def images(self, m: Element) -> list:
        """g_i * m for every ring generator g_i, in order.  When m is the
        module generator m_k itself, these are column k of the table, its
        own tuples, which every parsed table holds reduced; otherwise one
        `lincomb` per row, reduced."""
        _check_group(self.group, m.group)
        g = self.group
        if list(filter(None, m.coords)) == [1]:
            k = m.coords.index(1)
            return [Element(g, row[k]) for row in self.action_table]
        return [g.element(lincomb(m.coords, row, g.rank)) for row in self.action_table]

    def __repr__(self) -> str:
        return f"FiniteModule(order={self.order})"


def module_validate(mod: FiniteModule) -> list:
    """Check the module axioms on generators; collects all diagnostics."""
    ring = mod.ring
    dm = mod.group.invariant_factors
    table = mod.action_table
    diags = _well_defined_diagnostics(table, ring.group.invariant_factors, dm, "m",
                                      "action product")
    diags.extend(_assoc_diagnostics(ring, table, dm, "act"))
    diags.extend(_identity_diagnostics(
        ring.one, table, dm, "m",
        lambda j: f"ring identity does not fix module generator {j}"))
    return diags


def ideal_products(module: FiniteModule, i: Subgroup) -> list:
    """One `products` row u*m_j over the generators m_j of M per basis
    element u of the ideal i: what `scalar_extension` and
    `ideal_times_submodule` read."""
    _check_group(module.ring.group, i.ambient)
    factors = module.group.invariant_factors
    return [products(u.coords, module.action_table, factors) for u in i.basis_elements()]


def ideal_times_submodule(rows, n, module: FiniteModule) -> tuple:
    """Generators of the submodule i*N, given the `ideal_products` rows of
    the ideal i and the generators n of N: of the products u*z, u over the
    basis elements of i and z over n, in that order, those outside the
    span of the ones kept before them.  They span a strict subgroup chain
    in M, so there are at most log2|M| of them.  Each u*z combines the
    products of u with the generators of M."""
    kept = []
    g = module.group
    span = subgroup_span(g, [])
    for row in rows:
        for z in n:
            _check_group(g, z.group)
            p = g.element(lincomb(z.coords, row, g.rank))
            if not span.contains(p):
                kept.append(p)
                span = subgroup_join(span, [p])
    # Products of an ideal with a submodule are already action closed:
    # g*(u*z) = (g*u)*z and g*u stays inside the ideal.
    return tuple(kept)


def scalar_extension(module: FiniteModule, rows) -> Subgroup:
    """Base change of M along R -> R/I_A, as the lattice I_A*M that
    M_A = M/(I_A M) is read from, given the `ideal_products` rows of I_A:
    one span of all products u*m, u in the basis of I_A, m a generator of
    M.  The quotient group is never built."""
    g = module.group
    return subgroup_span(g, [Element(g, p) for p in {p for row in rows for p in row}])


def ann_element(module: FiniteModule, images, iam: Subgroup) -> Subgroup:
    """Ann_A(1 (x) x) in A = R/I_A, with iam = I_A*M and images =
    module.images(x): the kernel of r -> r*x modulo iam."""
    return hom_kernel(module.ring.group, [images], iam)


def spans_extension(elems, iam: Subgroup) -> bool:
    """Do the images of `elems` generate M_A = M/iam, i.e. do they span M
    together with iam?"""
    return subgroup_join(iam, elems).index() == 1


def cyclic_span_is_all(module: FiniteModule, y: Element) -> bool:
    """Does R*y equal M?  R*y is the subgroup generated by the g_i*y."""
    span = subgroup_span(module.group, module.images(y))
    return span.order() == module.order


def submodule_plus_ideal_module_is_all(n, iam: Subgroup) -> bool:
    """span(n) + I_A M = M, the predicate `spans_extension` tests."""
    return spans_extension(n, iam)

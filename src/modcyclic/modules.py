"""Finite modules over a finite commutative ring: scalar extension
M_A = M/(I_A M), element annihilators, and the span tests of the driver.

A submodule is passed around as a tuple of generating elements; the
driver's N keeps them in construction order, which fixes its choices.
M_A is carried by the lattice I_A*M, a `Subgroup` of M: membership in it
is a zero image in M_A, and its index is |M_A|.  The action is held as
rows of canonical coordinates, and every product r*m is one of the
`lincomb` and `bilinear` kernels of `intlinalg`."""

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
from .intlinalg import bilinear, lincomb
from .rings import Diagnostic, FiniteRing, _assoc_diagnostics, _well_defined_diagnostics


class FiniteModule:
    """A finite R-module: abelian group plus the generator action table.

    `action_table[i][j]` is (ring generator i) * (module generator j), as a
    tuple of reduced canonical coordinates; arbitrary products are bilinear
    extensions.
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
        _check_group(self.ring.group, r.group)
        _check_group(self.group, m.group)
        return self.group.element(bilinear(self.action_table, r.coords, m.coords,
                                           self.group.rank))

    def images(self, m: Element) -> list:
        """g_i * m for every ring generator g_i, in order."""
        _check_group(self.group, m.group)
        n = self.group.rank
        return [self.group.element(lincomb(m.coords, row, n)) for row in self.action_table]

    def __repr__(self) -> str:
        return f"FiniteModule(order={self.order})"


def module_validate(ring: FiniteRing, mod: FiniteModule) -> list:
    """Check the module axioms on generators; collects all diagnostics."""
    dm = mod.group.invariant_factors
    table = mod.action_table
    diags = _well_defined_diagnostics(table, ring.group.invariant_factors, dm, "m",
                                      "action product")
    diags.extend(_assoc_diagnostics(ring, table, dm, "act"))
    for j, gen in enumerate(mod.group.gens()):
        if mod.act(ring.one, gen) != gen:
            diags.append(Diagnostic(
                "identity", f"1*m{j}",
                f"ring identity does not fix module generator {j}"))
    return diags


def ideal_times_submodule(i: Subgroup, n, module: FiniteModule) -> tuple:
    """Generators of the submodule i*N: of the products u*z, u over the basis
    elements of the ideal i and z over the generators n of N, in that order,
    those outside the span of the ones kept before them.  They span a strict
    subgroup chain in M, so there are at most log2|M| of them."""
    kept = []
    span = subgroup_span(module.group, [])
    for u in i.basis_elements():
        for z in n:
            p = module.act(u, z)
            if not span.contains(p):
                kept.append(p)
                span = subgroup_join(span, [p])
    # Products of an ideal with a submodule are already action closed:
    # g*(u*z) = (g*u)*z and g*u stays inside the ideal.
    return tuple(kept)


def scalar_extension(module: FiniteModule, i_a: Subgroup) -> Subgroup:
    """Base change of M along R -> R/I_A, as the lattice I_A*M that
    M_A = M/(I_A M) is read from: one span of all products u*m, u in the
    basis of I_A, m a generator of M.  The quotient group is never built."""
    gens = module.group.gens()
    return subgroup_span(module.group, {module.act(u, m) for u in i_a.basis_elements()
                                        for m in gens})


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

"""Finite abelian groups given by generators and relations.

A presentation is normalized once, via Smith normal form of its relation
matrix, into invariant-factor coordinates: the group becomes
Z/d_1 x ... x Z/d_r with d_1 | d_2 | ... and every d_i >= 2 (factors equal
to 1 are dropped; the trivial group has an empty coordinate vector).  All
subgroup and quotient arithmetic then happens on these coordinates through
integer lattices that always contain the relation lattice diag(d).
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import prod
from operator import mod

from .intlinalg import (
    DimensionError,
    IntMatrix,
    _reduce_exact,
    hnf,
    invert_unimodular,
    kernel_mod_lattice,
    snf,
    vec_mat,
)


class NotFiniteError(ValueError):
    """The presented group is infinite (relation matrix has rank < #gens)."""


class GroupMismatchError(ValueError):
    """Operands belong to different ambient groups."""


class NotHomomorphismError(ValueError):
    """A generator-image assignment does not define a homomorphism."""


class CanonicalGroup:
    """A finite abelian group in invariant-factor coordinates.

    `to_can` (k x r) and `from_can` (r x k) translate between user
    coordinates (length k, the presentation's generators) and canonical
    coordinates (length r, one per invariant factor).
    """

    __slots__ = ("invariant_factors", "num_user_gens", "to_can", "from_can")

    def __init__(self, invariant_factors, num_user_gens: int,
                 to_can: IntMatrix, from_can: IntMatrix):
        self.invariant_factors = tuple(int(d) for d in invariant_factors)
        self.num_user_gens = num_user_gens
        self.to_can = to_can
        self.from_can = from_can

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def reduce(self, coords) -> tuple:
        if len(coords) != self.rank:
            raise DimensionError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(map(mod, coords, self.invariant_factors))

    def element(self, coords) -> "Element":
        return Element(self, self.reduce(coords))

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def gens(self) -> list:
        r = self.rank
        return [Element(self, tuple(1 if j == i else 0 for j in range(r))) for i in range(r)]

    def from_user(self, vec) -> "Element":
        return self.element(vec_mat(list(vec), self.to_can))

    def to_user(self, el: "Element") -> list:
        """User coordinates, each reduced modulo the exponent e: e times
        any user vector is a relation, so they name the same element."""
        _check_group(self, el.group)
        e = self.exponent
        return [c % e for c in vec_mat(list(el.coords), self.from_can)]

    def elements(self):
        """All elements, canonical coordinates in lexicographic order."""
        for coords in _cartesian(*(range(d) for d in self.invariant_factors)):
            yield Element(self, coords)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CanonicalGroup)
                and self.invariant_factors == other.invariant_factors
                and self.num_user_gens == other.num_user_gens
                and self.to_can == other.to_can
                and self.from_can == other.from_can)

    def __hash__(self):
        return hash((self.invariant_factors, self.num_user_gens))

    def __repr__(self) -> str:
        if not self.invariant_factors:
            return "CanonicalGroup(trivial)"
        return "CanonicalGroup(" + " x ".join(f"C{d}" for d in self.invariant_factors) + ")"


def _same_group(g1: CanonicalGroup, g2: CanonicalGroup) -> bool:
    return g1 is g2 or g1 == g2


def _check_group(g1: CanonicalGroup, g2: CanonicalGroup):
    if not _same_group(g1, g2):
        raise GroupMismatchError(f"ambient groups differ: {g1!r} vs {g2!r}")


class Element:
    """A group element as a reduced canonical coordinate vector."""

    __slots__ = ("group", "coords")

    def __init__(self, group: CanonicalGroup, coords: tuple):
        self.group = group
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Element") -> "Element":
        _check_group(self.group, other.group)
        return self.group.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return self.group.element(tuple(-a for a in self.coords))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, n: int) -> "Element":
        return self.group.element(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Element) and _same_group(self.group, other.group)
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Element{self.coords}"


def canonicalize(relations: IntMatrix) -> CanonicalGroup:
    """Normalize the presentation Z^k / (row lattice of `relations`), with
    k = relations.cols; raises NotFiniteError on infinite groups.

    `from_can` is taken modulo the exponent e: e times any vector is a
    relation, so its rows still name the same elements.
    """
    k = relations.cols
    res = snf(relations)
    diag = res.d.diagonal_entries()
    if sum(1 for x in diag if x != 0) < k:
        raise NotFiniteError("not finite: relation matrix rank is below the generator count")
    kept = [i for i, di in enumerate(diag) if di > 1]
    factors = [diag[i] for i in kept]
    vinv = invert_unimodular(res.v, factors[-1] if factors else 1)
    return CanonicalGroup(factors, k, res.v.take_columns(kept), vinv.take_rows(kept))


class Subgroup:
    """A subgroup of a canonical group, carried by an integer lattice.

    `basis` is the full-rank HNF basis (modulo the exponent) of the
    subgroup's preimage in Z^r, which contains diag(d).  The HNF is unique,
    so two subgroups are equal exactly when their bases are.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: CanonicalGroup, basis: IntMatrix):
        self.ambient = ambient
        self.basis = basis

    def order(self) -> int:
        return self.ambient.order // self.index()

    def index(self) -> int:
        return prod(self.basis.diagonal_entries()) if self.ambient.rank else 1

    def contains(self, x: Element) -> bool:
        _check_group(self.ambient, x.group)
        return _reduce_exact(self.basis, x.coords) is not None

    def basis_elements(self) -> list:
        """Nonzero reductions of the basis rows; a deterministic generator
        list for the subgroup."""
        out = []
        for row in self.basis.data:
            el = self.ambient.element(row)
            if not el.is_zero():
                out.append(el)
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup) and _same_group(self.ambient, other.ambient)
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order()} of {self.ambient!r})"


def _lattice_to_subgroup(g: CanonicalGroup, rows) -> Subgroup:
    r = g.rank
    all_rows = [list(row) for row in rows]
    all_rows.extend([g.invariant_factors[i] if j == i else 0 for j in range(r)]
                    for i in range(r))
    h = hnf(IntMatrix(len(all_rows), r, all_rows), g.exponent).h
    nonzero = [row for row in h.data if any(row)]
    if len(nonzero) != r:
        raise RuntimeError("subgroup lattice lost full rank")
    return Subgroup(g, h)


def subgroup_span(g: CanonicalGroup, elems) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    elems = list(elems)
    for e in elems:
        _check_group(g, e.group)
    return _lattice_to_subgroup(g, [e.coords for e in elems])


def subgroup_meet(s1: Subgroup, s2: Subgroup) -> Subgroup:
    """Intersection, via the kernel of the stacked-basis map: the bottom
    half of the HNF of [b1 | b1 ; b2 | 0] is the HNF of the intersection."""
    _check_group(s1.ambient, s2.ambient)
    g = s1.ambient
    r = g.rank
    if r == 0:
        return _lattice_to_subgroup(g, [])
    rows = [row + row for row in s1.basis.data]
    rows.extend(row + (0,) * r for row in s2.basis.data)
    h = hnf(IntMatrix(2 * r, 2 * r, rows), g.exponent).h
    inter = [row[r:] for row in h.data if not any(row[:r]) and any(row[r:])]
    if len(inter) != r:
        raise RuntimeError("subgroup intersection lost full rank")
    return Subgroup(g, IntMatrix(r, r, inter))


def subgroup_join(s1: Subgroup, s2: Subgroup) -> Subgroup:
    """Span of the union."""
    _check_group(s1.ambient, s2.ambient)
    rows = list(s1.basis.data) + list(s2.basis.data)
    return _lattice_to_subgroup(s1.ambient, rows)


def quotient(g: CanonicalGroup, s: Subgroup) -> CanonicalGroup:
    """Quotient group g/s in its own invariant-factor coordinates.  The
    projection of x onto it is `q.from_user(x.coords)`, since g's canonical
    coordinates are the user coordinates of q's presentation.  Building q
    costs a `canonicalize`; a question about g/s that needs no coordinates
    of it (is x zero there, what is |g/s|) is `s.contains(x)` or
    `s.index()`."""
    _check_group(g, s.ambient)
    q = canonicalize(s.basis)
    # The projection is well defined: generator i of order d_i maps to an
    # element whose order divides d_i.
    for i, d in enumerate(g.invariant_factors):
        if any(q.reduce([d * x for x in q.to_can.data[i]])):
            raise RuntimeError(f"projection onto the quotient is not well defined "
                               f"at generator {i} of order {d}")
    if q.order * s.order() != g.order:
        raise RuntimeError("quotient order mismatch")
    return q


def hom_kernel(domain: CanonicalGroup, images, target: Subgroup) -> Subgroup:
    """Kernel of the homomorphism from `domain` to target.ambient/target
    that sends the i-th canonical generator to the class of images[i].

    The assignment must be well defined (d_i * images[i] lies in target),
    otherwise NotHomomorphismError is raised.  One HNF modulo the exponent
    of target.ambient of [images | I ; target.basis | 0 ; 0 | diag(d)]
    gives the kernel lattice together with the relations diag(d) of the
    domain, so its bottom rows are the subgroup's HNF basis.
    """
    images = list(images)
    if len(images) != domain.rank:
        raise DimensionError("one image per canonical generator is required")
    codomain = target.ambient
    for i, (d, im) in enumerate(zip(domain.invariant_factors, images)):
        if not target.contains(d * im):
            raise NotHomomorphismError(f"d_{i} * image_{i} is outside the target; the map "
                                       "is not well defined on the presented group")
    a = IntMatrix(domain.rank, codomain.rank, [im.coords for im in images])
    basis = kernel_mod_lattice(a, target.basis, IntMatrix.diagonal(domain.invariant_factors),
                               codomain.exponent)
    return Subgroup(domain, basis)

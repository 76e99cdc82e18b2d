"""Finite abelian groups given by generators and relations.

A presentation is normalized once, via Smith normal form of its relation
matrix, into invariant-factor coordinates: the group becomes
Z/d_1 x ... x Z/d_r with d_1 | d_2 | ... and every d_i >= 2 (factors equal
to 1 are dropped; the trivial group has an empty coordinate vector).  A
relation matrix already in that form, diag(d) with positive d_i and
d_1 | d_2 | ..., is its own Smith form with identity transforms, so it is
read as it is: its invariant factors are the d_i >= 2, and user and
canonical coordinates agree up to the dropped unit factors.  All
subgroup and quotient arithmetic then happens on these coordinates through
integer lattices, each the tuple of its basis rows, that always contain the
relation lattice diag(d).
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import prod
from operator import mod

from .intlinalg import (
    DimensionError,
    IntMatrix,
    diagonal,
    hnf,
    in_lattice,
    kernel_mod_lattice,
    lincomb,
    snf,
)
from .intstr import int_text, int_to_str


class NotFiniteError(ValueError):
    """The presented group is infinite (relation matrix has rank < #gens)."""


class GroupMismatchError(ValueError):
    """Operands belong to different ambient groups."""


class CanonicalGroup:
    """A finite abelian group in invariant-factor coordinates.

    `to_can` (k rows of length r) and `from_can` (r rows of length k)
    translate between user coordinates (length k = len(to_can)) and
    canonical coordinates (length r, one per invariant factor), both
    stored reduced as `canonicalize` builds them.
    `relations` is diag(d), the relation lattice of the canonical
    coordinates, built once with the group.
    """

    __slots__ = ("invariant_factors", "to_can", "from_can", "relations")

    def __init__(self, invariant_factors, to_can: tuple, from_can: tuple):
        self.invariant_factors = tuple(int(d) for d in invariant_factors)
        self.to_can = to_can
        self.from_can = from_can
        self.relations = diagonal(self.invariant_factors)

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
        vec = list(vec)
        if len(vec) != len(self.to_can):
            raise DimensionError(f"expected {len(self.to_can)} user coordinates, got {len(vec)}")
        return self.element(lincomb(vec, self.to_can, self.rank))

    def to_user(self, el: "Element") -> list:
        """User coordinates, each reduced modulo the exponent e: e times
        any user vector is a relation, so they name the same element."""
        _check_group(self, el.group)
        e = self.exponent
        return [c % e for c in lincomb(el.coords, self.from_can, len(self.to_can))]

    def elements(self):
        """All elements, canonical coordinates in lexicographic order."""
        for coords in _cartesian(*(range(d) for d in self.invariant_factors)):
            yield Element(self, coords)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CanonicalGroup)
                and self.invariant_factors == other.invariant_factors
                and self.to_can == other.to_can
                and self.from_can == other.from_can)

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        if not self.invariant_factors:
            return "CanonicalGroup(trivial)"
        return f"CanonicalGroup({' x '.join('C' + int_to_str(d) for d in self.invariant_factors)})"


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

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Element) and _same_group(self.group, other.group)
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Element{int_text(self.coords)}"


def _smith_diagonal(relations, k: int):
    """d when the rows `relations` already are diag(d_1, ..., d_k) with
    every d_i positive and d_1 | d_2 | ... | d_k, else None: exactly k rows
    of width k, row i zero except d_i at column i."""
    if len(relations) != k or any(len(row) != k for row in relations):
        return None
    d = [row[i] for i, row in enumerate(relations)]
    if (all(di > 0 for di in d) and all(row.count(0) == k - 1 for row in relations)
            and not any(map(mod, d[1:], d))):
        return d
    return None


def canonicalize(relations, k: int) -> CanonicalGroup:
    """Normalize the presentation Z^k / (lattice of the rows `relations`,
    each of length k); raises NotFiniteError on infinite groups.

    One Smith pass gives both coordinate changes, stored reduced: `to_can`
    is v's kept columns, column i modulo d_i, and `from_can` is v^-1's kept
    rows modulo the exponent e, since e times any vector is a relation.

    Relations that already are in Smith form, diag(d) with positive d_i
    and d_i | d_(i+1), skip the Smith pass, which would return d and
    v = v^-1 = I.  The reduced I is built directly: `from_can` is the unit
    rows of the kept i, and `to_can` its transpose, whose row i is the unit
    row of i's place among the kept factors, or zero for a unit factor.
    """
    message = "not finite: relation matrix rank is below the generator count"
    if len(relations) < k:  # before `snf` builds its k x k transform
        raise NotFiniteError(message)
    diag = _smith_diagonal(relations, k)
    if diag is not None:
        kept = [i for i, di in enumerate(diag) if di > 1]
        from_can = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) for i in kept)
        return CanonicalGroup([diag[i] for i in kept],
                              tuple(zip(*from_can)) if kept else ((),) * k, from_can)
    res = snf(IntMatrix(relations, k))
    diag = [res.d.data[i][i] for i in range(k)]
    if not all(diag):
        raise NotFiniteError(message)
    kept = [i for i, di in enumerate(diag) if di > 1]
    e = max(diag, default=1)
    return CanonicalGroup([diag[i] for i in kept],
                          tuple(tuple(row[i] % diag[i] for i in kept) for row in res.v.data),
                          tuple(tuple(x % e for x in res.vinv.data[i]) for i in kept))


class Subgroup:
    """A subgroup of a canonical group, carried by an integer lattice.

    `basis` is the full-rank HNF basis (modulo the exponent) of the
    subgroup's preimage in Z^r, which contains diag(d), as its r rows.  The
    HNF is unique, so two subgroups are equal exactly when their bases are.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: CanonicalGroup, basis: tuple):
        self.ambient = ambient
        self.basis = basis

    def order(self) -> int:
        return self.ambient.order // self.index()

    def index(self) -> int:
        return prod(row[i] for i, row in enumerate(self.basis))

    def contains(self, x: Element) -> bool:
        _check_group(self.ambient, x.group)
        return in_lattice(self.basis, x.coords)

    def basis_elements(self) -> list:
        """Nonzero reductions of the basis rows; a deterministic generator
        list for the subgroup."""
        return [el for el in map(self.ambient.element, self.basis) if not el.is_zero()]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup) and _same_group(self.ambient, other.ambient)
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order()} of {self.ambient!r})"


def subgroup_span(g: CanonicalGroup, elems) -> Subgroup:
    """Smallest subgroup containing the given elements: their join with the
    zero subgroup, whose basis diag(d) is its own HNF modulo e."""
    return subgroup_join(Subgroup(g, g.relations), elems)


def subgroup_join(s: Subgroup, elems) -> Subgroup:
    """Smallest subgroup containing s and the given elements.  The basis of
    s already spans diag(d), so it stands in for the relation rows."""
    elems = list(elems)
    if not elems:
        return s
    g = s.ambient
    for e in elems:
        _check_group(g, e.group)
    h = hnf(IntMatrix([e.coords for e in elems] + list(s.basis), g.rank), g.exponent).h
    if not all(map(any, h.data)):
        raise RuntimeError("subgroup lattice lost full rank")
    return Subgroup(g, h.data)


def subgroup_meet(s1: Subgroup, s2: Subgroup) -> Subgroup:
    """Intersection, via the kernel of the stacked-basis map: the bottom
    half of the HNF of [b1 | b1 ; b2 | 0] is the HNF of the intersection."""
    _check_group(s1.ambient, s2.ambient)
    g = s1.ambient
    r = g.rank
    rows = [row + row for row in s1.basis]
    rows.extend(row + (0,) * r for row in s2.basis)
    h = hnf(IntMatrix(rows, 2 * r), g.exponent).h
    inter = tuple(row[r:] for row in h.data if not any(row[:r]) and any(row[r:]))
    if len(inter) != r:
        raise RuntimeError("subgroup intersection lost full rank")
    return Subgroup(g, inter)


def quotient(g: CanonicalGroup, s: Subgroup) -> CanonicalGroup:
    """Quotient group g/s in its own invariant-factor coordinates.  The
    projection of x onto it is `q.from_user(x.coords)`, since g's canonical
    coordinates are the user coordinates of q's presentation.  Building q
    costs a `canonicalize`; a question about g/s that needs no coordinates
    of it (is x zero there, what is |g/s|) is `s.contains(x)` or
    `s.index()`."""
    _check_group(g, s.ambient)
    q = canonicalize(s.basis, g.rank)
    # The projection is well defined: generator i of order d_i maps to an
    # element whose order divides d_i.
    for i, d in enumerate(g.invariant_factors):
        if any(q.reduce([d * x for x in q.to_can[i]])):
            raise RuntimeError(f"projection onto the quotient is not well defined "
                               f"at generator {i} of order {d}")
    if q.order * s.order() != g.order:
        raise RuntimeError("quotient order mismatch")
    return q


def hom_kernel(domain: CanonicalGroup, blocks, target: Subgroup) -> Subgroup:
    """Kernel of the homomorphism from `domain` to (target.ambient/target)^s,
    s = len(blocks), that sends the i-th canonical generator to the classes
    of (blocks[0][i], ..., blocks[s-1][i]); s = 0 gives all of `domain`.

    Precondition, not checked here: the assignment is well defined in
    every block, d_i * blocks[t][i] lying in target.  The driver's blocks
    are products g_i * u of the ring generators with one element u, and
    d_i * (g_i * u) = 0 because every `parse_instance` runs `ring_validate`
    and `module_validate`, whose well-definedness check rejects any other
    generator table.  So each relation d_i * e_i of the domain lies in the
    kernel.  One `kernel_mod_lattice` modulo the exponent e of
    target.ambient, of [images | I ; s diagonal copies of target.basis | 0],
    where row i of images is the blocks' i-th images side by side, gives
    the subgroup's HNF basis: the codomain lattice is L(copies) + e*Z^(ns),
    and target.basis already holds e*Z^n.
    """
    blocks = [list(images) for images in blocks]
    codomain = target.ambient
    if any(len(images) != domain.rank for images in blocks):
        raise DimensionError("one image per canonical generator is required")
    n, s = codomain.rank, len(blocks)
    rows = [[c for images in blocks for c in images[i].coords] for i in range(domain.rank)]
    copies = [(0,) * (n * t) + row + (0,) * (n * (s - 1 - t))
              for t in range(s) for row in target.basis]
    basis = kernel_mod_lattice(rows, copies, codomain.exponent)
    return Subgroup(domain, basis)

import random
from math import gcd

import pytest

from modcyclic.abelian import (
    GroupMismatchError,
    NotFiniteError,
    NotHomomorphismError,
    canonicalize,
    hom_kernel,
    quotient,
    subgroup_join,
    subgroup_meet,
    subgroup_span,
)
from modcyclic.intlinalg import DimensionError, IntMatrix

from helpers import (
    additive_closure,
    additive_order,
    group_order_by_enumeration,
    random_finite_presentation,
    subgroup_coords,
)


def group_from_relations(rows, k):
    return canonicalize(IntMatrix.from_rows([list(r) for r in rows], cols=k))


def zn(n):
    return group_from_relations([[n]], 1)


def test_canonicalize_examples():
    g = group_from_relations([[2, 0], [0, 4]], 2)
    assert g.invariant_factors == (2, 4)

    g = group_from_relations([[2, 0], [0, 3]], 2)
    assert g.invariant_factors == (6,)

    with pytest.raises(NotFiniteError):
        canonicalize(IntMatrix(0, 1, []))


def test_canonicalize_trivial_group():
    g = group_from_relations([[1]], 1)
    assert g.invariant_factors == ()
    assert g.order == 1
    assert g.zero().is_zero()


def test_reduce_checks_the_length():
    g = group_from_relations([[2, 0], [0, 6]], 2)  # C2 x C6
    assert g.reduce([5, -1]) == (1, 5)
    for coords in ([5], [1, 2, 3]):
        with pytest.raises(DimensionError, match=f"expected 2 coordinates, got {len(coords)}"):
            g.reduce(coords)


def test_roundtrip_user_canonical():
    rng = random.Random(11)
    for _ in range(60):
        k, rows, order = random_finite_presentation(rng, max_order=400)
        g = group_from_relations(rows, k)
        assert g.order == order
        for _ in range(10):
            user = [rng.randint(-20, 20) for _ in range(k)]
            el = g.from_user(user)
            back = g.from_user(g.to_user(el))
            assert back == el


def test_element_arithmetic():
    g = group_from_relations([[2, 0], [0, 4]], 2)
    a = g.element((1, 3))
    b = g.element((1, 2))
    assert (a + b).coords == (0, 1)
    assert (a + (-a)).is_zero()
    assert (g.zero() + a) == a
    assert (3 * a).coords == (1, 1)
    assert additive_order(a) == 4

    h = zn(12)
    with pytest.raises(GroupMismatchError):
        _ = a + h.element((1,))


def test_subgroup_span_examples():
    g = zn(12)
    s = subgroup_span(g, [g.element((4,))])
    assert s.order() == 3
    assert subgroup_coords(s) == {(0,), (4,), (8,)}

    assert subgroup_span(g, []).order() == 1

    g2 = group_from_relations([[2, 0], [0, 2]], 2)
    assert subgroup_span(g2, g2.gens()).order() == 4


def test_subgroup_contains_examples():
    g = zn(12)
    s = subgroup_span(g, [g.element((4,))])
    assert s.contains(g.element((8,)))
    assert not s.contains(g.element((6,)))
    assert s.contains(g.zero())


def test_subgroup_contains_vs_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        k, rows, order = random_finite_presentation(rng, max_order=200)
        g = group_from_relations(rows, k)
        gens = [g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
                for _ in range(rng.randint(0, 3))]
        s = subgroup_span(g, gens)
        expect = additive_closure([e.coords for e in gens], g.invariant_factors)
        assert s.order() == len(expect)
        for x in g.elements():
            assert s.contains(x) == (x.coords in expect)


def test_meet_join_examples():
    g = zn(12)
    s1 = subgroup_span(g, [g.element((4,))])
    s2 = subgroup_span(g, [g.element((3,))])
    meet = subgroup_meet(s1, s2)
    assert meet.order() == 1

    assert subgroup_meet(s1, s1) == s1
    full = subgroup_span(g, g.gens())
    assert subgroup_meet(s1, full) == s1
    assert subgroup_join(s1, s2) == full


def test_meet_join_vs_enumeration():
    rng = random.Random(37)
    for _ in range(30):
        k, rows, _ = random_finite_presentation(rng, max_order=150)
        g = group_from_relations(rows, k)
        def rand_sub():
            gens = [g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
                    for _ in range(rng.randint(0, 2))]
            return subgroup_span(g, gens)
        s1, s2 = rand_sub(), rand_sub()
        c1, c2 = subgroup_coords(s1), subgroup_coords(s2)
        assert subgroup_coords(subgroup_meet(s1, s2)) == (c1 & c2)
        assert subgroup_coords(subgroup_join(s1, s2)) == additive_closure(
            list(c1 | c2), g.invariant_factors)


def test_quotient_examples():
    g = zn(12)
    s = subgroup_span(g, [g.element((4,))])
    q = quotient(g, s)
    assert q.order == 4
    assert q.invariant_factors == (4,)
    kernel = {x.coords for x in g.elements() if q.from_user(x.coords).is_zero()}
    assert kernel == subgroup_coords(s)

    q2 = quotient(g, subgroup_span(g, []))
    assert q2.order == 12
    q3 = quotient(g, subgroup_span(g, g.gens()))
    assert q3.order == 1


def test_quotient_order_property():
    rng = random.Random(41)
    for _ in range(40):
        k, rows, _ = random_finite_presentation(rng, max_order=300)
        g = group_from_relations(rows, k)
        gens = [g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
                for _ in range(rng.randint(0, 2))]
        s = subgroup_span(g, gens)
        q = quotient(g, s)
        assert q.order * s.order() == g.order

        def proj(x):
            return q.from_user(x.coords)

        # projection is a homomorphism onto q with kernel s
        for _ in range(5):
            a = g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
            b = g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
            assert proj(a + b) == proj(a) + proj(b)
            assert proj(a).is_zero() == s.contains(a)


def test_hom_kernel_examples():
    g = zn(12)
    zero = subgroup_span(g, [])
    ker = hom_kernel(g, [g.element((4,))], zero)
    assert subgroup_coords(ker) == {(0,), (3,), (6,), (9,)}

    ker = hom_kernel(g, [g.zero()], zero)
    assert ker.order() == 12

    ker = hom_kernel(g, [g.element((1,))], zero)
    assert ker.order() == 1

    # Z/12 -> Z/12 / <4> = Z/4, 1 -> 1: the kernel is <4>
    ker = hom_kernel(g, [g.element((1,))], subgroup_span(g, [g.element((4,))]))
    assert subgroup_coords(ker) == {(0,), (4,), (8,)}
    # Z/4 -> Z/8 / <4>, 1 -> 1 is well defined (4 lies in <4>) and injective
    z8 = zn(8)
    ker = hom_kernel(zn(4), [z8.element((1,))], subgroup_span(z8, [z8.element((4,))]))
    assert ker.order() == 1


def test_hom_kernel_rejects_ill_defined():
    g2 = zn(2)
    g3 = zn(3)
    with pytest.raises(NotHomomorphismError):
        hom_kernel(g2, [g3.element((1,))], subgroup_span(g3, []))
    # Z/2 -> Z/8 / <4>, 1 -> 1: 2*1 = 2 lies outside <4>
    z8 = zn(8)
    with pytest.raises(NotHomomorphismError):
        hom_kernel(g2, [z8.element((1,))], subgroup_span(z8, [z8.element((4,))]))


def test_hom_kernel_first_isomorphism():
    rng = random.Random(53)
    for _ in range(40):
        k, rows, _ = random_finite_presentation(rng, max_order=200)
        dom = group_from_relations(rows, k)
        k2, rows2, _ = random_finite_presentation(rng, max_order=200)
        cod = group_from_relations(rows2, k2)
        images = []
        for d in dom.invariant_factors:
            # a random element whose order divides d: a multiple of dc/gcd(dc, d)
            coords = tuple(rng.randrange(gcd(dc, d)) * (dc // gcd(dc, d))
                           for dc in cod.invariant_factors)
            images.append(cod.element(coords))
        ker = hom_kernel(dom, images, subgroup_span(cod, []))
        image = subgroup_span(cod, images)
        assert ker.order() * image.order() == dom.order


def test_hom_kernel_nonzero_target_vs_enumeration():
    rng = random.Random(59)
    for _ in range(40):
        k, rows, _ = random_finite_presentation(rng, max_order=120)
        dom = group_from_relations(rows, k)
        k2, rows2, _ = random_finite_presentation(rng, max_order=120)
        cod = group_from_relations(rows2, k2)

        def random_element():
            return cod.element(tuple(rng.randrange(d) for d in cod.invariant_factors))

        target = subgroup_span(cod, [random_element() for _ in range(rng.randint(1, 2))])
        images = []
        for d in dom.invariant_factors:
            # an element of order dividing d, plus a random element of the
            # target, so that d * image lies in the target
            coords = tuple(rng.randrange(gcd(dc, d)) * (dc // gcd(dc, d))
                           for dc in cod.invariant_factors)
            t = cod.zero()
            for b in target.basis_elements():
                t = t + rng.randrange(cod.exponent) * b
            images.append(cod.element(coords) + t)
        ker = hom_kernel(dom, images, target)
        expect = set()
        for x in dom.elements():
            image = cod.zero()
            for c, im in zip(x.coords, images):
                image = image + c * im
            if target.contains(image):
                expect.add(x.coords)
        assert subgroup_coords(ker) == expect


def test_canonicalize_order_vs_enumeration():
    rng = random.Random(61)
    for _ in range(30):
        k, rows, order = random_finite_presentation(rng, max_order=500)
        g = group_from_relations(rows, k)
        assert g.order == order
        assert g.order == group_order_by_enumeration(rows, k)


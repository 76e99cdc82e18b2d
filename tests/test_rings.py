import random

import pytest

from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod, parse_instance
from modcyclic.rings import (
    FiniteRing,
    NoIdentityError,
    find_identity,
    ideal_annihilator,
    ideal_meet_is_zero,
    ideal_span,
    ring_validate,
)

from helpers import is_mult_closed, subgroup_coords, unit_ideal, zero_ideal


def ring_of(doc):
    return parse_instance(doc).ring


def z12():
    return ring_of(gen_zmod(12, [12]))


def idem_ring():
    # Z/2 x Z/2 with the two idempotent generators
    return ring_of(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))


def small_rings():
    docs = [
        gen_zmod(12, [12]),
        gen_zmod(8, [8]),
        gen_trunc(2, 3),
        gen_trunc(3, 2),
        gen_prod(gen_zmod(2, [2]), gen_zmod(4, [4])),
        gen_randquot(4, 7),
        gen_randquot(3, 1),
    ]
    return [parse_instance(d).ring for d in docs]


def test_find_identity_examples():
    r = z12()
    assert r.one == r.group.element((1,))

    r = idem_ring()
    assert find_identity(r.group, r.mul_table) == r.group.element((1, 1))
    assert r.mul(r.one, r.group.element((1, 0))) == r.group.element((1, 0))

    zero_ring = ring_of(gen_zmod(1, [1]))
    assert zero_ring.order == 1
    assert zero_ring.one == zero_ring.group.zero()


def test_find_identity_missing():
    r = z12()
    # g*g = 2g admits no identity in Z/12
    bad_table = ((r.group.element((2,)).coords,),)
    with pytest.raises(NoIdentityError):
        find_identity(r.group, bad_table)


def test_ring_validate_ok():
    for ring in small_rings():
        assert ring_validate(ring) == []


def test_ring_validate_commutativity_violation():
    r = idem_ring()
    g = r.group
    table = [[g.element((1, 0)).coords, g.element((1, 0)).coords],
             [g.element((0, 0)).coords, g.element((0, 1)).coords]]
    broken = FiniteRing(g, table, r.one)
    axioms = {d.axiom for d in ring_validate(broken)}
    assert "commutativity" in axioms


def test_ring_validate_identity_violation():
    r = z12()
    broken = FiniteRing(r.group, r.mul_table, r.group.element((2,)))
    axioms = {d.axiom for d in ring_validate(broken)}
    assert axioms == {"identity"}


def test_mul_examples():
    r = z12()
    four, five = r.group.element((4,)), r.group.element((5,))
    assert r.mul(four, five) == r.group.element((8,))
    rng = random.Random(2)
    for ring in small_rings():
        for _ in range(10):
            a = ring.group.element(tuple(rng.randrange(d)
                                         for d in ring.group.invariant_factors))
            assert ring.mul(a, ring.one) == a
            assert ring.mul(a, ring.zero()).is_zero()


def test_mul_commutative_associative_randomized():
    rng = random.Random(6)
    for ring in small_rings():
        els = [ring.group.element(tuple(rng.randrange(d)
                                        for d in ring.group.invariant_factors))
               for _ in range(4)]
        for a in els:
            for b in els:
                assert ring.mul(a, b) == ring.mul(b, a)
                for c in els:
                    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


def test_ideal_span_examples():
    r = z12()
    z = zero_ideal(r)
    p = ideal_span(r, z, [r.group.element((4,))])
    assert subgroup_coords(p) == {(0,), (4,), (8,)}

    assert ideal_span(r, z, []).order() == 1
    assert ideal_span(r, z, [r.one]).order() == 12


def test_ideal_annihilator_examples():
    r = z12()
    z = zero_ideal(r)
    p = ideal_span(r, z, [r.group.element((4,))])
    ann = ideal_annihilator(r, z, p)
    assert subgroup_coords(ann) == {(0,), (3,), (6,), (9,)}

    assert ideal_annihilator(r, z, zero_ideal(r)).order() == 12
    assert ideal_annihilator(r, z, unit_ideal(r)).order() == 1


def test_ideal_annihilator_in_proper_quotient():
    # A = Z/12 / (6) = Z/6; Ann_A((2)) = (3) pulled back to Z/12
    r = z12()
    six = ideal_span(r, zero_ideal(r), [r.group.element((6,))])
    two = ideal_span(r, six, [r.group.element((2,))])
    ann = ideal_annihilator(r, six, two)
    assert subgroup_coords(ann) == {(0,), (3,), (6,), (9,)}
    assert ann.contains(r.group.element((6,)))


def test_ideal_annihilator_vs_enumeration():
    rng = random.Random(19)
    for ring in small_rings():
        if ring.order > 1000:
            continue
        elements = list(ring.group.elements())
        for _ in range(6):
            seeds = [elements[rng.randrange(len(elements))]
                     for _ in range(rng.randint(0, 2))]
            i_a = ideal_span(ring, zero_ideal(ring), seeds)
            x = ideal_span(ring, i_a, [elements[rng.randrange(len(elements))]
                                       for _ in range(rng.randint(1, 2))])
            ann = ideal_annihilator(ring, i_a, x)
            x_set = subgroup_coords(x)
            ia_set = subgroup_coords(i_a)
            expect = {r.coords for r in elements
                      if all(ring.mul(r, ring.group.element(u)).coords in ia_set
                             for u in x_set)}
            assert subgroup_coords(ann) == expect


def test_ideal_meet_is_zero_examples():
    r = z12()
    z = zero_ideal(r)
    p = ideal_span(r, z, [r.group.element((4,))])
    q = ideal_span(r, z, [r.group.element((3,))])
    meet, zero = ideal_meet_is_zero(r, z, p, q)
    assert zero and meet.order() == 1

    r4 = ring_of(gen_zmod(4, [4]))
    z4 = zero_ideal(r4)
    two = ideal_span(r4, z4, [r4.group.element((2,))])
    meet, zero = ideal_meet_is_zero(r4, z4, two, two)
    assert not zero and meet == two

    meet, zero = ideal_meet_is_zero(r, z, zero_ideal(r), q)
    assert zero


def test_preideals_are_multiplicatively_closed():
    rng = random.Random(29)
    for ring in small_rings():
        elements = list(ring.group.elements()) if ring.order <= 1000 else [ring.one]
        for _ in range(4):
            seeds = [elements[rng.randrange(len(elements))]
                     for _ in range(rng.randint(0, 2))]
            i_a = ideal_span(ring, zero_ideal(ring), seeds)
            assert is_mult_closed(ring, i_a)
            x = ideal_span(ring, i_a, seeds[:1])
            ann = ideal_annihilator(ring, i_a, x)
            assert is_mult_closed(ring, ann)
            assert all(ann.contains(u) for u in i_a.basis_elements())
            meet, _ = ideal_meet_is_zero(ring, i_a, x, ann)
            assert is_mult_closed(ring, meet)


def test_annihilator_splitting_orders():
    # when a and b = Ann(a) meet trivially, A splits as a x b, so the
    # ideal orders multiply to |A|; and b = 0 forces a = A
    rng = random.Random(43)
    for ring in small_rings():
        if ring.order > 1000:
            continue
        elements = list(ring.group.elements())
        for _ in range(8):
            i_a = ideal_span(ring, zero_ideal(ring),
                             [elements[rng.randrange(len(elements))]
                              for _ in range(rng.randint(0, 1))])
            order_A = ring.order // i_a.order()
            a = ideal_span(ring, i_a, [elements[rng.randrange(len(elements))]])
            b = ideal_annihilator(ring, i_a, a)
            meet, zero = ideal_meet_is_zero(ring, i_a, a, b)
            if not zero:
                continue
            na = a.order() // i_a.order()
            nb = b.order() // i_a.order()
            assert na * nb == order_A
            if nb == 1:
                assert na == order_A

import random

import pytest

from modcyclic import intlinalg
from modcyclic.abelian import canonicalize
from modcyclic.instances import (
    ValidationFailure,
    dumps,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    parse_instance,
)
from modcyclic.intlinalg import diagonal
from modcyclic.rings import (
    FiniteRing,
    NoIdentityError,
    find_identity,
    ideal_annihilator,
    ideal_meet_is_zero,
    ideal_span,
    ring_validate,
)

from helpers import is_mult_closed, ring_mul, subgroup_coords, unit_ideal, zero_ideal


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
    assert ring_mul(r, r.one, r.group.element((1, 0))) == r.group.element((1, 0))

    zero_ring = ring_of(gen_zmod(1, [1]))
    assert zero_ring.order == 1
    assert zero_ring.one == zero_ring.group.zero()


def test_find_identity_missing():
    r = z12()
    # g*g = 2g admits no identity in Z/12
    bad_table = ((r.group.element((2,)).coords,),)
    with pytest.raises(NoIdentityError):
        find_identity(r.group, bad_table)


def without_one(doc):
    """The document as JSON text, with `ring.one` left out."""
    del doc["ring"]["one"]
    return dumps(doc)


def field_chain(copies):
    """F_2 x ... x F_2: idempotent generators, so no one equation of the
    identity solve pins the identity down."""
    doc = gen_zmod(2, [2])
    for _ in range(copies - 1):
        doc = gen_prod(doc, gen_zmod(2, [2]))
    return doc


@pytest.mark.parametrize("make", [lambda: gen_trunc(2, 64), lambda: field_chain(12),
                                  lambda: gen_zmod(12, [4, 6])],
                         ids=["trunc-2-64", "F2^12", "Z12-on-Z4xZ6"])
def test_identity_solve_work_is_linear_in_the_rank(make, monkeypatch):
    # A bound on the work, not the time: no HNF is wider than 2r + 2
    # columns, where eliminating the r^2 equations as they stand takes
    # r^2 + r.  A file that states `one` needs no HNF at all: one Smith
    # pass gives both coordinate changes of each group.
    widths = []
    real = intlinalg.hnf

    def recording(m, *args, **kwargs):
        widths.append(m.cols)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "hnf", recording)
    expected = parse_instance(make()).ring
    assert widths == []
    ring = parse_instance(without_one(make())).ring
    r = ring.group.rank
    assert widths and max(widths) <= 2 * r + 2, (r, max(widths))
    assert ring.one.coords == expected.one.coords


def left_identity_doc(p, r, m):
    """(Z/p^m)^r with g_i * g_j = g_j and no `one`: every generator is a
    left identity, and for r > 1 the table is not commutative."""
    unit = [[1 if t == j else 0 for t in range(r)] for j in range(r)]
    return {"ring": {"num_gens": r, "relations": [[p ** m * x for x in row] for row in unit],
                     "mul": [unit] * r},
            "module": {"num_gens": 1, "relations": [[1]], "action": [[[0]]] * r}}


PAIR_01 = "commutativity violated at g0*g1: Element(0, 1) != Element(1, 0)"
TRIPLE = [
    "commutativity violated at g0*g1: Element(0, 1, 0) != Element(1, 0, 0)",
    "commutativity violated at g0*g2: Element(0, 0, 1) != Element(1, 0, 0)",
    "commutativity violated at g1*g2: Element(0, 0, 1) != Element(0, 1, 0)",
]


@pytest.mark.parametrize("case, diagnostics", [
    ((2, 2, 1), [PAIR_01]),
    ((3, 2, 2), [PAIR_01]),
    ((2, 3, 2), TRIPLE),
    ((5, 3, 1), TRIPLE),
])
def test_find_identity_on_a_noncommutative_table(case, diagnostics):
    # Only a non-commutative table can have several left identities; the
    # solve returns one of them, and validation reports the table.  The
    # ring is built without the parse, which rejects it: canonicalizing the
    # diagonal relations leaves the generators in place, so the document's
    # table is already in canonical coordinates.
    doc = left_identity_doc(*case)
    r = doc["ring"]["num_gens"]
    group = canonicalize(doc["ring"]["relations"], r)
    assert group.to_can == group.from_can == diagonal([1] * r)
    table = [[tuple(vec) for vec in row] for row in doc["ring"]["mul"]]
    one = find_identity(group, table)
    ring = FiniteRing(group, table, one)
    assert all(ring_mul(ring, one, g) == g for g in ring.group.gens())
    with pytest.raises(ValidationFailure) as exc:
        parse_instance(left_identity_doc(*case))
    assert [str(d) for d in exc.value.diagnostics] == diagnostics


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
    assert ring_mul(r, four, five) == r.group.element((8,))
    rng = random.Random(2)
    for ring in small_rings():
        for _ in range(10):
            a = ring.group.element(tuple(rng.randrange(d)
                                         for d in ring.group.invariant_factors))
            assert ring_mul(ring, a, ring.one) == a
            assert ring_mul(ring, a, ring.group.zero()).is_zero()


def test_mul_commutative_associative_randomized():
    rng = random.Random(6)
    for ring in small_rings():
        els = [ring.group.element(tuple(rng.randrange(d)
                                        for d in ring.group.invariant_factors))
               for _ in range(4)]
        for a in els:
            for b in els:
                assert ring_mul(ring, a, b) == ring_mul(ring, b, a)
                for c in els:
                    assert (ring_mul(ring, ring_mul(ring, a, b), c)
                            == ring_mul(ring, a, ring_mul(ring, b, c)))


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
                      if all(ring_mul(ring, r, ring.group.element(u)).coords in ia_set
                             for u in x_set)}
            assert subgroup_coords(ann) == expect


def test_ideal_meet_is_zero_examples():
    r = z12()
    z = zero_ideal(r)
    p = ideal_span(r, z, [r.group.element((4,))])
    q = ideal_span(r, z, [r.group.element((3,))])
    meet, zero = ideal_meet_is_zero(z, p, q)
    assert zero and meet.order() == 1

    r4 = ring_of(gen_zmod(4, [4]))
    z4 = zero_ideal(r4)
    two = ideal_span(r4, z4, [r4.group.element((2,))])
    meet, zero = ideal_meet_is_zero(z4, two, two)
    assert not zero and meet == two

    meet, zero = ideal_meet_is_zero(z, zero_ideal(r), q)
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
            meet, _ = ideal_meet_is_zero(i_a, x, ann)
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
            meet, zero = ideal_meet_is_zero(i_a, a, b)
            if not zero:
                continue
            na = a.order() // i_a.order()
            nb = b.order() // i_a.order()
            assert na * nb == order_A
            if nb == 1:
                assert na == order_A

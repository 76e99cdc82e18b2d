import random
import re
from contextlib import contextmanager
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcyclic import abelian
from modcyclic.abelian import (
    CanonicalGroup,
    GroupMismatchError,
    NotFiniteError,
    canonicalize,
    hom_kernel,
    quotient,
    subgroup_join,
    subgroup_meet,
    subgroup_span,
)
from modcyclic.instances import ValidationFailure, parse_instance
from modcyclic.intlinalg import DimensionError, IntMatrix, diagonal, hnf, snf

from helpers import (
    additive_closure,
    additive_order,
    group_order_by_enumeration,
    random_finite_presentation,
    scale,
    subgroup_coords,
)


def group_from_relations(rows, k):
    return canonicalize([list(r) for r in rows], k)


def zn(n):
    return group_from_relations([[n]], 1)


def test_canonicalize_examples():
    g = group_from_relations([[2, 0], [0, 4]], 2)
    assert g.invariant_factors == (2, 4)

    g = group_from_relations([[2, 0], [0, 3]], 2)
    assert g.invariant_factors == (6,)

    with pytest.raises(NotFiniteError):
        canonicalize([], 1)


def test_canonicalize_stores_both_transforms_reduced():
    # Column i of to_can lies in [0, d_i), from_can in [0, e), and
    # from_can @ to_can is the identity modulo d: a canonical generator
    # taken to user coordinates and back is itself.  The first case's
    # exact to_can is ((1, -2), (0, 1)).
    rng = random.Random(24)
    cases = [(2, [[2, 4], [6, 8]])] + [
        random_finite_presentation(rng, max_order=400)[:2] for _ in range(80)]
    for k, rows in cases:
        g = group_from_relations(rows, k)
        d, e = g.invariant_factors, g.exponent
        assert all(0 <= x < di for row in g.to_can for x, di in zip(row, d))
        assert all(0 <= x < e for row in g.from_can for x in row)
        for i, row in enumerate(g.from_can):
            back = [sum(x * to[j] for x, to in zip(row, g.to_can)) for j in range(g.rank)]
            assert [x % di for x, di in zip(back, d)] == [int(i == j) for j in range(g.rank)]


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


def test_from_user_checks_the_length():
    # three generators for C2 x C6: a user vector has three entries, not
    # one per invariant factor
    g = group_from_relations([[2, 0, 0], [0, 6, 0], [0, 0, 1]], 3)
    assert g.invariant_factors == (2, 6)
    assert g.from_user([1, 1, 5]) == g.element((1, 1))
    for vec in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(DimensionError, match=f"expected 3 user coordinates, got {len(vec)}"):
            g.from_user(vec)


def test_canonicalize_checks_the_row_widths():
    for rows in ([[2, 0], [0]], [[2, 0], [0, 4, 0]]):
        with pytest.raises(DimensionError):
            canonicalize(rows, 2)


NOT_FINITE = "not finite: relation matrix rank is below the generator count"
# Past Python's 4,300-digit limit for int to str; a chain that holds it
# multiplies it into its last factor.
HUGE = 10 ** 4400 + 1


@contextmanager
def counted_snf():
    """The list of the matrices `canonicalize` hands to `snf` meanwhile."""
    calls = []

    def counting(m):
        calls.append(m)
        return snf(m)

    with mock.patch.object(abelian, "snf", counting):
        yield calls


def canonical_by_snf(rows, k):
    """The group `canonicalize` builds from the exact Smith form, with no
    shortcut: v's kept columns, column i modulo d_i, and v^-1's kept rows
    modulo e."""
    res = snf(IntMatrix(rows, k))
    diag = [res.d.data[i][i] for i in range(k)]
    kept = [i for i, di in enumerate(diag) if di > 1]
    e = max(diag, default=1)
    return CanonicalGroup([diag[i] for i in kept],
                          tuple(tuple(row[i] % diag[i] for i in kept) for row in res.v.data),
                          tuple(tuple(x % e for x in res.vinv.data[i]) for i in kept))


@st.composite
def smith_chains(draw):
    """A divisibility chain d_1 | ... | d_k, k from 0 to 8, as its small
    factors and whether the last one is multiplied by HUGE (drawn as a
    flag, since hypothesis cannot print an int that long): leading 1s and
    equal factors are common."""
    k = draw(st.integers(0, 8))
    x = draw(st.sampled_from((1, 1, 2, 3, 4)))
    chain = []
    for _ in range(k):
        chain.append(x)
        x *= draw(st.sampled_from((1, 1, 2, 3, 5)))
    return chain, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=smith_chains())
def test_canonicalize_takes_a_smith_form_as_it_is(drawn):
    chain, huge = drawn
    if huge and chain:
        chain[-1] *= HUGE
    k = len(chain)
    rows = [list(row) for row in diagonal(chain)]
    # The premise: the exact Smith pass performs no operation on a Smith
    # form, so its d is the input and v = v^-1 = I.
    res = snf(IntMatrix(rows, k))
    identity = IntMatrix(diagonal([1] * k), k)
    assert (res.d, res.v, res.vinv) == (IntMatrix(rows, k), identity, identity)
    with counted_snf() as calls:
        g = canonicalize(rows, k)
    assert calls == []
    expected = canonical_by_snf(rows, k)
    assert g == expected
    assert g.relations == expected.relations
    assert g.invariant_factors == tuple(d for d in chain if d > 1)


def test_canonicalize_near_a_smith_form_takes_the_smith_pass():
    # Not a chain, a negative factor, an extra zero row, one entry off the
    # diagonal: each takes the one Smith pass and gives what it gives.
    for rows in ([[4, 0], [0, 2]], [[2, 0], [0, 3]], [[-2, 0], [0, 4]],
                 [[2, 0], [0, 4], [0, 0]], [[2, 0], [6, 4]]):
        with counted_snf() as calls:
            g = canonicalize(rows, 2)
        assert calls == [IntMatrix(rows, 2)], rows
        assert g == canonical_by_snf(rows, 2), rows


def test_canonicalize_near_a_smith_form_raises_as_before():
    # A zero on the diagonal reaches the Smith pass, which finds the rank
    # too low; too few rows are refused before it, and a row of the wrong
    # width by the matrix it would take.
    for rows in ([[2, 0], [0, 0]], [[0, 0], [0, 2]]):
        with counted_snf() as calls, pytest.raises(NotFiniteError) as exc:
            canonicalize(rows, 2)
        assert str(exc.value) == NOT_FINITE
        assert len(calls) == 1
    for rows, error in (([[2, 0]], NotFiniteError), ([[2, 0], [0]], DimensionError),
                        ([[2, 0], [0, 4, 0]], DimensionError)):
        with counted_snf() as calls, pytest.raises(error) as exc:
            canonicalize(rows, 2)
        assert calls == []
        if error is NotFiniteError:
            assert str(exc.value) == NOT_FINITE


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
    assert (g.zero() + a) == a
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


def test_empty_span_is_the_hnf_of_diag_d():
    # the zero subgroup's basis diag(d) is its own HNF modulo e, so a span
    # of nothing runs no HNF
    rng = random.Random(41)
    groups = [zn(1)] + [group_from_relations(rows, k) for k, rows, _ in
                        (random_finite_presentation(rng, max_order=500) for _ in range(40))]
    assert groups[0].rank == 0
    for g in groups:
        d = diagonal(g.invariant_factors)
        assert subgroup_span(g, []).basis == hnf(IntMatrix(d, g.rank), g.exponent).h.data == d


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
    assert subgroup_join(s1, s2.basis_elements()) == full
    assert subgroup_join(s1, []) == s1
    assert subgroup_join(subgroup_span(g, []), [g.element((3,))]) == s2
    with pytest.raises(GroupMismatchError):
        subgroup_join(s1, [zn(3).element((1,))])


def test_meet_join_vs_enumeration():
    rng = random.Random(37)
    for _ in range(30):
        k, rows, _ = random_finite_presentation(rng, max_order=150)
        g = group_from_relations(rows, k)
        def rand_gens():
            return [g.element(tuple(rng.randrange(d) for d in g.invariant_factors))
                    for _ in range(rng.randint(0, 2))]
        gens2 = rand_gens()
        s1, s2 = subgroup_span(g, rand_gens()), subgroup_span(g, gens2)
        c1, c2 = subgroup_coords(s1), subgroup_coords(s2)
        assert subgroup_coords(subgroup_meet(s1, s2)) == (c1 & c2)
        assert subgroup_coords(subgroup_join(s1, s2.basis_elements())) == additive_closure(
            list(c1 | c2), g.invariant_factors)
        assert subgroup_coords(subgroup_join(s1, gens2)) == additive_closure(
            list(c1) + [e.coords for e in gens2], g.invariant_factors)


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
    ker = hom_kernel(g, [[g.element((4,))]], zero)
    assert subgroup_coords(ker) == {(0,), (3,), (6,), (9,)}

    ker = hom_kernel(g, [[g.zero()]], zero)
    assert ker.order() == 12

    ker = hom_kernel(g, [[g.element((1,))]], zero)
    assert ker.order() == 1

    # Z/12 -> Z/12 / <4> = Z/4, 1 -> 1: the kernel is <4>
    ker = hom_kernel(g, [[g.element((1,))]], subgroup_span(g, [g.element((4,))]))
    assert subgroup_coords(ker) == {(0,), (4,), (8,)}
    # Z/4 -> Z/8 / <4>, 1 -> 1 is well defined (4 lies in <4>) and injective
    z8 = zn(8)
    ker = hom_kernel(zn(4), [[z8.element((1,))]], subgroup_span(z8, [z8.element((4,))]))
    assert ker.order() == 1
    # Z/6 -> Z/4, 1 -> 2: the domain's relation 6 is neither zero modulo
    # the exponent 4 nor a multiple of it, yet lies in the kernel
    ker = hom_kernel(zn(6), [[zn(4).element((2,))]], subgroup_span(zn(4), []))
    assert subgroup_coords(ker) == {(0,), (2,), (4,)}
    assert ker.basis == ((2,),)

    # no blocks: the map into a product of no copies kills everything
    g = group_from_relations([[2, 0], [0, 6]], 2)
    for target in (subgroup_span(zn(5), []), subgroup_span(g, g.gens()[:1])):
        assert hom_kernel(g, [], target) == subgroup_span(g, g.gens())
    assert hom_kernel(zn(1), [], subgroup_span(zn(4), [])).order() == 1


def over_z2(module_relations, action):
    """An instance over R = Z/2 whose action table g0*m_j is the map
    1 -> image of m_j that `hom_kernel` is handed for Ann_R(M)."""
    return {"format": "modcyclic-instance", "version": 1,
            "ring": {"num_gens": 1, "relations": [[2]], "mul": [[[1]]], "one": [1]},
            "module": {"num_gens": len(module_relations[0]),
                       "relations": module_relations, "action": action}}


def test_hom_kernel_rejects_ill_defined():
    # hom_kernel requires a well-defined map; the tables that would hand it
    # an ill-defined one are rejected once, by the parse: the diagnostics
    # located at a table entry g{i}*m{j}.
    def diagnostics(relations, action):
        try:
            parse_instance(over_z2(relations, action))
        except ValidationFailure as exc:
            return [(d.axiom, d.where) for d in exc.diagnostics
                    if d.axiom == "well-definedness" and re.fullmatch(r"g\d+\*m\d+", d.where)]
        return []

    ill = [("well-definedness", "g0*m0")]
    # Z/2 -> Z/3, 1 -> 1
    assert diagnostics([[3]], [[[1]]]) == ill
    # Z/2 -> Z/8 / <4>, 1 -> 1: 2*1 = 2 lies outside <4>
    assert diagnostics([[8], [4]], [[[1]]]) == ill
    # every block is checked: 1 -> 2 is well defined (2*2 = 4), 1 -> 1 is not
    sq = [[8, 0], [0, 8], [4, 0], [0, 4]]
    assert diagnostics(sq, [[[2, 0], [0, 2]]]) == []
    assert diagnostics(sq, [[[2, 0], [0, 1]]]) == [("well-definedness", "g0*m1")]
    assert diagnostics(sq, [[[1, 0], [0, 2]]]) == ill
    # the well-defined maps: Z/2 -> (Z/8 / <4>)^2, 1 -> (2, 2) is injective,
    # 1 -> (4, 4) is zero
    g2, z8 = zn(2), zn(8)
    target = subgroup_span(z8, [z8.element((4,))])
    good = [z8.element((2,))]
    assert hom_kernel(g2, [good, good], target).order() == 1
    assert hom_kernel(g2, [[z8.element((4,))]] * 2, target).order() == 2
    with pytest.raises(DimensionError):
        hom_kernel(g2, [good, good + good], target)


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
        ker = hom_kernel(dom, [images], subgroup_span(cod, []))
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
                t = t + scale(rng.randrange(cod.exponent), b)
            images.append(cod.element(coords) + t)
        ker = hom_kernel(dom, [images], target)
        expect = set()
        for x in dom.elements():
            image = cod.zero()
            for c, im in zip(x.coords, images):
                image = image + scale(c, im)
            if target.contains(image):
                expect.add(x.coords)
        assert subgroup_coords(ker) == expect


def test_block_hom_kernel_vs_enumeration_and_meet():
    rng = random.Random(67)
    for _ in range(40):
        k, rows, _ = random_finite_presentation(rng, max_order=120)
        dom = group_from_relations(rows, k)
        k2, rows2, _ = random_finite_presentation(rng, max_order=60)
        cod = group_from_relations(rows2, k2)

        def random_element():
            return cod.element(tuple(rng.randrange(d) for d in cod.invariant_factors))

        target = subgroup_span(cod, [random_element() for _ in range(rng.randint(0, 2))])
        blocks = []
        for _ in range(2):
            images = []
            for d in dom.invariant_factors:
                # an element of order dividing d plus an element of the target
                coords = tuple(rng.randrange(gcd(dc, d)) * (dc // gcd(dc, d))
                               for dc in cod.invariant_factors)
                t = cod.zero()
                for b in target.basis_elements():
                    t = t + scale(rng.randrange(cod.exponent), b)
                images.append(cod.element(coords) + t)
            blocks.append(images)
        ker = hom_kernel(dom, blocks, target)
        expect = set()
        for x in dom.elements():
            if all(target.contains(sum((scale(c, im) for c, im in zip(x.coords, images)),
                                       cod.zero()))
                   for images in blocks):
                expect.add(x.coords)
        assert subgroup_coords(ker) == expect
        assert ker == subgroup_meet(hom_kernel(dom, blocks[:1], target),
                                    hom_kernel(dom, blocks[1:], target))


def test_canonicalize_order_vs_enumeration():
    rng = random.Random(61)
    for _ in range(30):
        k, rows, order = random_finite_presentation(rng, max_order=500)
        g = group_from_relations(rows, k)
        assert g.order == order
        assert g.order == group_order_by_enumeration(rows, k)


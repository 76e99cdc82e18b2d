import random
from functools import cache
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcyclic import rings
from modcyclic.abelian import Element, GroupMismatchError, subgroup_span
from modcyclic.instances import (
    _is_identity,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    parse_instance,
)
from modcyclic.modules import (
    FiniteModule,
    ann_element,
    cyclic_span_is_all,
    ideal_products,
    ideal_times_submodule,
    module_validate,
    scalar_extension,
    spans_extension,
)
from modcyclic.rings import FiniteRing, _assoc_diagnostics, ideal_span, products, ring_validate

from helpers import (
    additive_closure,
    bilinear,
    is_action_closed,
    reference_images,
    reference_products,
    ring_mul,
    span_coords,
    subgroup_coords,
    submodule_span,
    unit_ideal,
    zero_ideal,
)


def parse(doc):
    p = parse_instance(doc)
    return p.ring, p.module


def ann_in_whole(ring, mod, x):
    """Ann_R(x), the element annihilator over A = R."""
    iam = scalar_extension(mod, ideal_products(mod, zero_ideal(ring)))
    return ann_element(mod, mod.images(x), iam)


def small_instances():
    docs = [
        gen_zmod(6, [2, 3]),
        gen_zmod(4, [2, 2]),
        gen_zmod(12, [4, 6]),
        gen_trunc(2, 3, [3, 2]),
        gen_trunc(3, 2, [2]),
        gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
        gen_randquot(4, 3),
        gen_randquot(2, 11, max_deg=3, summands=2),
    ]
    return [parse(d) for d in docs]


def test_act_examples():
    ring, mod = parse(gen_zmod(6, [6]))
    two, four = ring.group.element((2,)), mod.group.element((4,))
    assert mod.act(two, four) == mod.group.element((2,))
    rng = random.Random(4)
    for ring, mod in small_instances():
        for _ in range(8):
            m = mod.group.element(tuple(rng.randrange(d)
                                        for d in mod.group.invariant_factors))
            assert mod.act(ring.one, m) == m
            assert mod.act(ring.group.zero(), m).is_zero()


def test_act_matches_the_bilinear_reference():
    # `act` combines the images g_i*m with r's coordinates; the reference
    # sums r_i * m_j * (g_i*m_j) over the whole action table.
    rng = random.Random(9)
    for ring, mod in small_instances():
        for _ in range(8):
            r = ring.group.element(tuple(rng.randrange(d)
                                         for d in ring.group.invariant_factors))
            m = mod.group.element(tuple(rng.randrange(d)
                                        for d in mod.group.invariant_factors))
            assert mod.act(r, m) == mod.group.element(
                bilinear(mod.action_table, r.coords, m.coords, mod.group.rank))


def test_act_rejects_elements_of_other_groups():
    ring, mod = parse(gen_zmod(6, [6]))
    other_ring, other_mod = parse(gen_zmod(4, [2, 2]))
    with pytest.raises(GroupMismatchError):
        mod.act(other_ring.one, mod.group.gens()[0])
    with pytest.raises(GroupMismatchError):
        mod.act(ring.one, other_mod.group.gens()[0])


def test_images_match_mul_and_act():
    # `products` is the one helper for both generator tables: x*g_j on the
    # ring's against `ring_mul`, u*m_j on the module's against `act`, also
    # for elements with zero coordinates, whose table rows it skips.
    rng = random.Random(8)
    for ring, mod in small_instances():
        gens, mgens = ring.group.gens(), mod.group.gens()
        d, dm = ring.group.invariant_factors, mod.group.invariant_factors
        for _ in range(5):
            x = ring.group.element(tuple(rng.randrange(di) for di in d))
            m = mod.group.element(tuple(rng.randrange(di) for di in dm))
            ring_images, mod_images = ring.images(x), mod.images(m)
            assert len(ring_images) == len(mod_images) == len(gens)
            for i, g in enumerate(gens):
                assert ring_images[i] == ring_mul(ring, g, x)
                assert mod_images[i] == mod.act(g, m)
            sparse = ring.group.element(tuple(rng.randrange(di) * rng.randrange(2)
                                              for di in d))
            for u in (x, sparse, ring.group.zero()):
                assert products(u.coords, ring.mul_table, d) == [
                    ring_mul(ring, u, g).coords for g in gens]
                assert products(u.coords, mod.action_table, dm) == [
                    mod.act(u, mj).coords for mj in mgens]


# trunc on the identity branch, two randquot files whose module groups take
# the Smith pass, and a `gen_prod` of the two kinds
TABLE_DOCS = [gen_trunc(2, 6, [6, 3]), gen_trunc(3, 3, [2]), gen_randquot(4, 123),
              gen_randquot(4, 6), gen_prod(gen_trunc(2, 3, [3, 2]), gen_randquot(4, 123))]


@cache
def table_instances():
    parsed = [parse(doc) for doc in TABLE_DOCS]
    assert all(mod.group.rank for _, mod in parsed)
    assert sum(not _is_identity(mod.group.from_can, len(mod.group.to_can))
               for _, mod in parsed) == 3
    return parsed


def coefficient_vectors(group):
    """Unit vectors, with coefficient 1 or any other, and random vectors,
    some of whose entries lie outside [0, d_i)."""
    r, e = group.rank, group.exponent

    def unit(k, c):
        return tuple(c if i == k else 0 for i in range(r))

    return st.one_of(
        st.builds(unit, st.integers(0, r - 1), st.just(1)),
        st.builds(unit, st.integers(0, r - 1), st.integers(-e, 2 * e)),
        st.lists(st.integers(-e, 2 * e), min_size=r, max_size=r).map(tuple))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_products_and_images_match_the_lincomb_reference(data):
    # `products` over either table equals `lincomb` over its flat rows,
    # reduced, and `FiniteModule.images` one `lincomb` per row, reduced,
    # both when the shortcut for a generator applies and when it does not.
    ring, mod = data.draw(st.sampled_from(table_instances()))
    for table, group in ((ring.mul_table, ring.group), (mod.action_table, mod.group)):
        x = data.draw(coefficient_vectors(ring.group))
        factors = group.invariant_factors
        assert products(x, table, factors) == reference_products(x, table, factors)
    m = data.draw(coefficient_vectors(mod.group))
    assert [y.coords for y in mod.images(Element(mod.group, m))] == reference_images(
        m, mod.action_table, mod.group.invariant_factors)


def test_a_generator_gets_the_tables_own_tuples():
    # The products of a canonical generator with coefficient 1 are row k
    # of the ring's or the module's table, and the images of a module
    # generator column k of the action table: the same tuple objects.
    for ring, mod in table_instances():
        d, dm = ring.group.invariant_factors, mod.group.invariant_factors
        for k, g in enumerate(ring.group.gens()):
            for table, factors in ((ring.mul_table, d), (mod.action_table, dm)):
                got = products(g.coords, table, factors)
                assert len(got) == len(table[k])
                assert all(p is vec for p, vec in zip(got, table[k]))
            assert all(y.coords is vec for y, vec in zip(ring.images(g), ring.mul_table[k]))
        for k, m in enumerate(mod.group.gens()):
            got = mod.images(m)
            assert len(got) == ring.group.rank
            assert all(y.coords is row[k] for y, row in zip(got, mod.action_table))


@pytest.mark.parametrize("doc", [gen_trunc(2, 16), gen_randquot(4, 123)],
                         ids=["trunc", "randquot"])
def test_assoc_memo_is_one_lincomb_per_vector_object(doc, monkeypatch):
    # `_assoc_diagnostics` makes one `lincomb` per distinct vector object
    # of the acting table for g_i*v, then one per distinct vector object
    # of the multiplication table for v*x_j, and no other.  The first kind
    # all combine one list of packed columns, the second one list of
    # packed rows, which tells them apart.
    ring, mod = parse(doc)
    calls = []
    real = rings.lincomb

    def counting(coeffs, rows, n):
        calls.append((id(coeffs), id(rows)))
        return real(coeffs, rows, n)

    monkeypatch.setattr(rings, "lincomb", counting)
    mul_ids = [id(vec) for vec in chain.from_iterable(ring.mul_table)]
    for table, factors in ((ring.mul_table, ring.group.invariant_factors),
                           (mod.action_table, mod.group.invariant_factors)):
        calls.clear()
        assert _assoc_diagnostics(ring, table, factors, "t") == []
        act_ids = [id(vec) for vec in chain.from_iterable(table)]
        kinds = list(dict.fromkeys(rows for _, rows in calls))
        assert len(kinds) == 2
        rhs = [vec for vec, rows in calls if rows == kinds[0]]
        lhs = [vec for vec, rows in calls if rows == kinds[1]]
        assert calls == [(vec, kinds[0]) for vec in rhs] + [(vec, kinds[1]) for vec in lhs]
        assert sorted(rhs) == sorted(set(act_ids))
        assert sorted(lhs) == sorted(set(mul_ids))
        assert len(set(act_ids)) < len(act_ids)


def test_module_validate_ok():
    for ring, mod in small_instances():
        assert ring_validate(ring) == []
        assert module_validate(mod) == []


def test_module_validate_violations():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    g = mod.group
    # unitality broken: 1*m0 = 0
    bad = FiniteModule(ring, g, [[g.zero().coords, g.element((0, 1)).coords]])
    axioms = {d.axiom for d in module_validate(bad)}
    assert "identity" in axioms

    # associativity broken: g acts as the shear [[1,1],[0,1]], whose square
    # is the identity, but g*g = g should act as the shear again
    bad2 = FiniteModule(ring, g, [[g.element((1, 1)).coords, g.element((0, 1)).coords]])
    axioms2 = {d.axiom for d in module_validate(bad2)}
    assert "associativity" in axioms2


ASSOC_DOCS = [gen_trunc(2, 3, [3, 2]), gen_randquot(4, 6), gen_zmod(12, [4, 6]),
              gen_randquot(10 ** 25, 6, max_deg=3, summands=2),
              gen_prod(gen_zmod(2 ** 70, [2 ** 35]), gen_trunc(3, 2))]


def corrupt(table, group, rng):
    """A copy of a generator table with one seeded entry replaced by a
    seeded element of `group`."""
    table = [list(row) for row in table]
    row = table[rng.randrange(len(table))]
    row[rng.randrange(len(row))] = group.element(
        tuple(rng.randrange(d) for d in group.invariant_factors)).coords
    return table


def test_associativity_matches_the_elementwise_law():
    # The validators check associativity on packed operator rows.  Against
    # the law itself, (g_i*g_k)*x_j == g_i*(g_k*x_j) element by element, on
    # seeded one-entry corruptions of the ring and of the module tables.
    # The 10^25 and 2^70 moduli give slots wider than 64 bits.
    rng = random.Random(12)

    def failures(diags):
        return [d.where for d in diags if d.axiom == "associativity"]

    for ring, mod in (parse(doc) for doc in ASSOC_DOCS):
        gens, xs = ring.group.gens(), mod.group.gens()
        for _ in range(12):
            bad = FiniteRing(ring.group, corrupt(ring.mul_table, ring.group, rng), ring.one)
            expected = [f"mul(g{i}, g{k}, *)" for i, a in enumerate(gens)
                        for k, b in enumerate(gens)
                        if any(ring_mul(bad, ring_mul(bad, a, b), x)
                               != ring_mul(bad, a, ring_mul(bad, b, x))
                               for x in gens)]
            assert failures(ring_validate(bad)) == expected

            bad = FiniteModule(ring, mod.group, corrupt(mod.action_table, mod.group, rng))
            expected = [f"act(g{i}, g{k}, *)" for i, a in enumerate(gens)
                        for k, b in enumerate(gens)
                        if any(bad.act(ring_mul(ring, a, b), x) != bad.act(a, bad.act(b, x))
                               for x in xs)]
            assert failures(module_validate(bad)) == expected


def test_validators_do_not_rely_on_shared_vectors():
    # A parsed table holds one tuple per distinct vector.  The same tables
    # with every vector a distinct copy, valid and with one seeded entry
    # corrupted, must give the validators' diagnostics unchanged.  The copy
    # goes through a list: tuple() of a tuple is that tuple.
    rng = random.Random(31)

    def unshared(table):
        copy = [[tuple(list(vec)) for vec in row] for row in table]
        assert not {id(v) for row in copy for v in row} & {id(v) for row in table for v in row}
        assert len({id(v) for row in copy for v in row}) == sum(map(len, copy))
        return copy

    found = set()
    for ring, mod in (parse(doc) for doc in ASSOC_DOCS):
        tables = [(ring.mul_table, mod.action_table)] + [
            (corrupt(ring.mul_table, ring.group, rng), corrupt(mod.action_table, mod.group, rng))
            for _ in range(6)]
        for mul, act in tables:
            shared = FiniteRing(ring.group, mul, ring.one)
            copied = FiniteRing(ring.group, unshared(mul), ring.one)
            diags = ring_validate(shared)
            assert ring_validate(copied) == diags
            module_diags = module_validate(FiniteModule(shared, mod.group, act))
            assert module_validate(FiniteModule(copied, mod.group, unshared(act))) == module_diags
            found.update(d.axiom for d in diags + module_diags)
    assert found == {"well-definedness", "commutativity", "associativity", "identity"}


def test_ideal_times_submodule_examples():
    ring, mod = parse(gen_zmod(12, [12]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    n = mod.group.gens()
    prod = ideal_times_submodule(ideal_products(mod, two), n, mod)
    assert subgroup_coords(subgroup_span(mod.group, prod)) == {
        (0,), (2,), (4,), (6,), (8,), (10,)}

    zero_rows = ideal_products(mod, zero_ideal(ring))
    assert subgroup_span(mod.group, ideal_times_submodule(zero_rows, n, mod)).order() == 1

    # idempotent ring acting on itself: (e2) * R = {0, e2}
    ring2, mod2 = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    e2 = ring2.group.element((0, 1))
    ideal = ideal_span(ring2, zero_ideal(ring2), [e2])
    prod2 = ideal_times_submodule(ideal_products(mod2, ideal), mod2.group.gens(), mod2)
    assert subgroup_coords(subgroup_span(mod2.group, prod2)) == {(0, 0), (0, 1)}


def test_ideal_times_submodule_closure_and_containment():
    rng = random.Random(13)
    for ring, mod in small_instances():
        elements = list(ring.group.elements()) if ring.order <= 500 else [ring.one]
        for _ in range(4):
            i = ideal_span(ring, zero_ideal(ring),
                           [elements[rng.randrange(len(elements))]
                            for _ in range(rng.randint(0, 2))])
            gens = [mod.group.element(tuple(rng.randrange(d)
                                            for d in mod.group.invariant_factors))
                    for _ in range(rng.randint(0, 2))]
            n = submodule_span(mod, gens)
            assert is_action_closed(mod, n)
            prod = ideal_times_submodule(ideal_products(mod, i), n, mod)
            assert is_action_closed(mod, prod)
            # i*N sits inside N since N is action closed
            n_span = subgroup_span(mod.group, n)
            for el in prod:
                assert n_span.contains(el)


def test_scalar_extension_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    iam = scalar_extension(mod, ideal_products(mod, two))
    assert iam.index() == 4  # 2*M = 0, so M_A = M

    iam_unit = scalar_extension(mod, ideal_products(mod, unit_ideal(ring)))
    assert iam_unit.index() == 1

    iam_zero = scalar_extension(mod, ideal_products(mod, zero_ideal(ring)))
    assert iam_zero.index() == mod.order


def test_products_reject_elements_of_another_group():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    other_ring, other_mod = parse(gen_zmod(6, [2, 3]))
    with pytest.raises(GroupMismatchError):
        scalar_extension(mod, ideal_products(mod, unit_ideal(other_ring)))
    with pytest.raises(GroupMismatchError):
        ideal_times_submodule(ideal_products(mod, unit_ideal(other_ring)),
                              mod.group.gens(), mod)
    with pytest.raises(GroupMismatchError):
        ideal_times_submodule(ideal_products(mod, unit_ideal(ring)),
                              other_mod.group.gens(), mod)


def test_scalar_extension_order_divides():
    rng = random.Random(17)
    for ring, mod in small_instances():
        elements = list(ring.group.elements()) if ring.order <= 500 else [ring.one]
        for _ in range(4):
            i = ideal_span(ring, zero_ideal(ring),
                           [elements[rng.randrange(len(elements))]
                            for _ in range(rng.randint(0, 2))])
            iam = scalar_extension(mod, ideal_products(mod, i))
            assert mod.order % iam.index() == 0
            assert iam.index() * iam.order() == mod.order
            # the elements with zero image in M_A are exactly I_A*M, the
            # sums of products u*m with u in I_A
            if mod.order <= 200 and ring.order <= 500:
                products = [mod.act(u, m).coords for u in elements if i.contains(u)
                            for m in mod.group.gens()]
                kernel = additive_closure(products, mod.group.invariant_factors)
                assert kernel == subgroup_coords(iam)
                assert len(kernel) * iam.index() == mod.order


def test_ann_element_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    x = mod.group.element((1, 0))
    ann = ann_in_whole(ring, mod, x)
    assert subgroup_coords(ann) == {(0,), (2,)}

    assert ann_in_whole(ring, mod, mod.zero()).order() == ring.order

    ring6, mod6 = parse(gen_zmod(6, [6]))
    ann6 = ann_in_whole(ring6, mod6, mod6.group.element((1,)))
    assert ann6.order() == 1


def test_ann_element_vs_enumeration():
    rng = random.Random(23)
    for ring, mod in small_instances():
        if ring.order > 1000 or mod.order > 1000:
            continue
        ia_elements = list(ring.group.elements())
        for _ in range(5):
            i_a = ideal_span(ring, zero_ideal(ring),
                             [ia_elements[rng.randrange(len(ia_elements))]
                              for _ in range(rng.randint(0, 1))])
            x = mod.group.element(tuple(rng.randrange(d)
                                        for d in mod.group.invariant_factors))
            iam_sub = scalar_extension(mod, ideal_products(mod, i_a))
            ann = ann_element(mod, mod.images(x), iam_sub)
            iam = subgroup_coords(iam_sub)
            expect = {r.coords for r in ring.group.elements()
                      if mod.act(r, x).coords in iam}
            assert subgroup_coords(ann) == expect


def test_spans_extension_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    x = mod.group.element((1, 0))
    a = ann_in_whole(ring, mod, x)  # = (2), so A/a has order 2
    iam = scalar_extension(mod, ideal_products(mod, a))
    images = mod.images(x)
    assert iam.index() == 4
    assert not spans_extension(images, iam)

    iam_trivial = scalar_extension(mod, ideal_products(mod, unit_ideal(ring)))
    assert spans_extension([], iam_trivial)

    iam_zero = scalar_extension(mod, ideal_products(mod, zero_ideal(ring)))
    assert spans_extension(list(mod.group.gens()), iam_zero)


def test_spans_extension_vs_closure():
    rng = random.Random(31)
    for ring, mod in small_instances():
        if mod.order > 1000:
            continue
        elements = list(ring.group.elements())
        for _ in range(5):
            i_a = ideal_span(ring, zero_ideal(ring),
                             [elements[rng.randrange(len(elements))]
                              for _ in range(rng.randint(0, 1))])
            iam = scalar_extension(mod, ideal_products(mod, i_a))
            elems = [mod.group.element(tuple(rng.randrange(d)
                                             for d in mod.group.invariant_factors))
                     for _ in range(rng.randint(0, 3))]
            # the images of elems span M_A = M/iam exactly when elems and
            # iam together span M
            factors = mod.group.invariant_factors
            iam_gens = [e.coords for e in iam.basis_elements()]
            assert len(additive_closure(iam_gens, factors)) * iam.index() == mod.order
            closure = additive_closure([e.coords for e in elems] + iam_gens, factors)
            assert spans_extension(elems, iam) == (len(closure) == mod.order)


def test_cyclic_span_is_all_examples():
    ring, mod = parse(gen_zmod(6, [2, 3]))
    y = mod.group.from_user([1, 1])
    assert cyclic_span_is_all(mod, y)
    assert not cyclic_span_is_all(mod, mod.zero())
    assert span_coords(ring, mod, y) == {x.coords for x in mod.group.elements()}

    ring1, mod1 = parse(gen_zmod(4, []))
    assert mod1.order == 1
    assert cyclic_span_is_all(mod1, mod1.zero())

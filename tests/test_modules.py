import random

from modcyclic.abelian import subgroup_span
from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod, parse_instance
from modcyclic.modules import (
    FiniteModule,
    ann_element,
    cyclic_span_is_all,
    ideal_times_submodule,
    module_validate,
    scalar_extension,
    spans_extension,
)
from modcyclic.rings import FiniteRing, ideal_span, ring_validate

from helpers import (
    additive_closure,
    is_action_closed,
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
    return ann_element(mod, mod.images(x), scalar_extension(mod, zero_ideal(ring)))


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
            assert mod.act(ring.zero(), m).is_zero()


def test_images_match_mul_and_act():
    rng = random.Random(8)
    for ring, mod in small_instances():
        gens = ring.gens()
        for _ in range(5):
            x = ring.group.element(tuple(rng.randrange(d)
                                         for d in ring.group.invariant_factors))
            m = mod.group.element(tuple(rng.randrange(d)
                                        for d in mod.group.invariant_factors))
            ring_images, mod_images = ring.images(x), mod.images(m)
            assert len(ring_images) == len(mod_images) == len(gens)
            for i, g in enumerate(gens):
                assert ring_images[i] == ring.mul(g, x)
                assert mod_images[i] == mod.act(g, m)


def test_module_validate_ok():
    for ring, mod in small_instances():
        assert ring_validate(ring) == []
        assert module_validate(ring, mod) == []


def test_module_validate_violations():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    g = mod.group
    # unitality broken: 1*m0 = 0
    bad = FiniteModule(ring, g, [[g.zero().coords, g.element((0, 1)).coords]])
    axioms = {d.axiom for d in module_validate(ring, bad)}
    assert "identity" in axioms

    # associativity broken: g acts as the shear [[1,1],[0,1]], whose square
    # is the identity, but g*g = g should act as the shear again
    bad2 = FiniteModule(ring, g, [[g.element((1, 1)).coords, g.element((0, 1)).coords]])
    axioms2 = {d.axiom for d in module_validate(ring, bad2)}
    assert "associativity" in axioms2


def test_associativity_matches_the_elementwise_law():
    # The validators check associativity on packed operator rows.  Against
    # the law itself, (g_i*g_k)*x_j == g_i*(g_k*x_j) element by element, on
    # seeded one-entry corruptions of the ring and of the module tables.
    # The 10^25 and 2^70 moduli give slots wider than 64 bits.
    rng = random.Random(12)
    docs = [gen_trunc(2, 3, [3, 2]), gen_randquot(4, 6), gen_zmod(12, [4, 6]),
            gen_randquot(10 ** 25, 6, max_deg=3, summands=2),
            gen_prod(gen_zmod(2 ** 70, [2 ** 35]), gen_trunc(3, 2))]

    def corrupt(table, group):
        table = [list(row) for row in table]
        row = table[rng.randrange(len(table))]
        row[rng.randrange(len(row))] = group.element(
            tuple(rng.randrange(d) for d in group.invariant_factors)).coords
        return table

    def failures(diags):
        return [d.where for d in diags if d.axiom == "associativity"]

    for ring, mod in (parse(doc) for doc in docs):
        gens, xs = ring.gens(), mod.group.gens()
        for _ in range(12):
            bad = FiniteRing(ring.group, corrupt(ring.mul_table, ring.group), ring.one)
            expected = [f"mul(g{i}, g{k}, *)" for i, a in enumerate(gens)
                        for k, b in enumerate(gens)
                        if any(bad.mul(bad.mul(a, b), x) != bad.mul(a, bad.mul(b, x))
                               for x in gens)]
            assert failures(ring_validate(bad)) == expected

            bad = FiniteModule(ring, mod.group, corrupt(mod.action_table, mod.group))
            expected = [f"act(g{i}, g{k}, *)" for i, a in enumerate(gens)
                        for k, b in enumerate(gens)
                        if any(bad.act(ring.mul(a, b), x) != bad.act(a, bad.act(b, x))
                               for x in xs)]
            assert failures(module_validate(ring, bad)) == expected


def test_ideal_times_submodule_examples():
    ring, mod = parse(gen_zmod(12, [12]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    n = mod.group.gens()
    prod = ideal_times_submodule(two, n, mod)
    assert subgroup_coords(subgroup_span(mod.group, prod)) == {
        (0,), (2,), (4,), (6,), (8,), (10,)}

    assert subgroup_span(mod.group,
                         ideal_times_submodule(zero_ideal(ring), n, mod)).order() == 1

    # idempotent ring acting on itself: (e2) * R = {0, e2}
    ring2, mod2 = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    e2 = ring2.group.element((0, 1))
    ideal = ideal_span(ring2, zero_ideal(ring2), [e2])
    prod2 = ideal_times_submodule(ideal, mod2.group.gens(), mod2)
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
            prod = ideal_times_submodule(i, n, mod)
            assert is_action_closed(mod, prod)
            # i*N sits inside N since N is action closed
            n_span = subgroup_span(mod.group, n)
            for el in prod:
                assert n_span.contains(el)


def test_scalar_extension_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    iam = scalar_extension(mod, two)
    assert iam.index() == 4  # 2*M = 0, so M_A = M

    iam_unit = scalar_extension(mod, unit_ideal(ring))
    assert iam_unit.index() == 1

    iam_zero = scalar_extension(mod, zero_ideal(ring))
    assert iam_zero.index() == mod.order


def test_scalar_extension_order_divides():
    rng = random.Random(17)
    for ring, mod in small_instances():
        elements = list(ring.group.elements()) if ring.order <= 500 else [ring.one]
        for _ in range(4):
            i = ideal_span(ring, zero_ideal(ring),
                           [elements[rng.randrange(len(elements))]
                            for _ in range(rng.randint(0, 2))])
            iam = scalar_extension(mod, i)
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
            iam_sub = scalar_extension(mod, i_a)
            ann = ann_element(mod, mod.images(x), iam_sub)
            iam = subgroup_coords(iam_sub)
            expect = {r.coords for r in ring.group.elements()
                      if mod.act(r, x).coords in iam}
            assert subgroup_coords(ann) == expect


def test_spans_extension_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    x = mod.group.element((1, 0))
    a = ann_in_whole(ring, mod, x)  # = (2), so A/a has order 2
    iam = scalar_extension(mod, a)
    images = mod.images(x)
    assert iam.index() == 4
    assert not spans_extension(images, iam)

    iam_trivial = scalar_extension(mod, unit_ideal(ring))
    assert spans_extension([], iam_trivial)

    iam_zero = scalar_extension(mod, zero_ideal(ring))
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
            iam = scalar_extension(mod, i_a)
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
    assert cyclic_span_is_all(ring, mod, y)
    assert not cyclic_span_is_all(ring, mod, mod.zero())
    assert span_coords(ring, mod, y) == {x.coords for x in mod.group.elements()}

    ring1, mod1 = parse(gen_zmod(4, []))
    assert mod1.order == 1
    assert cyclic_span_is_all(ring1, mod1, mod1.zero())

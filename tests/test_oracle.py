import random
from itertools import product

from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod, parse_instance
from modcyclic.modules import cyclic_span_is_all
from modcyclic.oracle import CYCLIC, NOT_CYCLIC, TOO_LARGE, brute_force

from helpers import brute_cyclic, permute_module_gens


def parse(doc):
    p = parse_instance(doc)
    return p.ring, p.module


def test_oracle_examples():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    assert brute_force(ring, mod).kind == NOT_CYCLIC

    ring, mod = parse(gen_zmod(6, [2, 3]))
    verdict = brute_force(ring, mod)
    assert verdict.kind == CYCLIC
    assert cyclic_span_is_all(mod, verdict.generator)

    ring, mod = parse(gen_trunc(2, 5, [5, 5]))  # |M| = 2^10
    verdict = brute_force(ring, mod, bound=1000)
    assert verdict.kind == TOO_LARGE
    assert verdict.generator is None and not verdict.decided


def test_oracle_returns_lex_first_generator():
    ring, mod = parse(gen_zmod(6, [2, 3]))
    verdict = brute_force(ring, mod)
    first = None
    for coords in product(*(range(d) for d in mod.group.invariant_factors)):
        if cyclic_span_is_all(mod, mod.group.element(coords)):
            first = coords
            break
    assert verdict.generator.coords == first


def test_oracle_agrees_with_independent_enumeration():
    docs = [gen_zmod(8, [2, 8]), gen_trunc(2, 3), gen_trunc(3, 2, [2, 1]),
            gen_prod(gen_zmod(2, [2]), gen_zmod(3, [3])),
            gen_randquot(3, 5), gen_randquot(4, 9, max_deg=2)]
    for doc in docs:
        ring, mod = parse(doc)
        got = brute_force(ring, mod)
        expect_cyclic, expect_coords = brute_cyclic(ring, mod)
        assert (got.kind == CYCLIC) == expect_cyclic
        if expect_cyclic:
            assert got.generator.coords == expect_coords


def test_oracle_invariant_under_generator_permutation():
    rng = random.Random(13)
    docs = [gen_zmod(12, [2, 6, 3]), gen_trunc(2, 2, [2, 1, 1]),
            gen_randquot(2, 21, max_deg=2, summands=2)]
    for doc in docs:
        ring, mod = parse(doc)
        base = brute_force(ring, mod).kind
        m = doc["module"]["num_gens"]
        for _ in range(3):
            perm = list(range(m))
            rng.shuffle(perm)
            ring2, mod2 = parse(permute_module_gens(doc, perm))
            assert brute_force(ring2, mod2).kind == base

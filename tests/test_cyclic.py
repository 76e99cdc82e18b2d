import functools
import math
import random

import pytest

from modcyclic import abelian, cyclic, instances
from modcyclic.abelian import subgroup_span
from modcyclic.cyclic import (
    AlgState,
    InvariantViolationError,
    check_state_invariants,
    init,
    iteration_bound,
    pick_x,
    run,
    step,
)
from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod, parse_instance
from modcyclic.modules import FiniteModule, cyclic_span_is_all, scalar_extension
from modcyclic.rings import ideal_span

from helpers import brute_cyclic, submodule_span, zero_ideal


def parse(doc):
    p = parse_instance(doc)
    return p.ring, p.module


def trace_summary(result):
    return [(e.branch, e.order_A) for e in result.trace]


def test_transcript_z4_on_klein():
    # R = Z/4, M = Z/2 x Z/2: branch iv shrinks A from 4 to 2, then the
    # span test fails with |A/a| = 2 < |M_(A/a)| = 4
    ring, mod = parse(gen_zmod(4, [2, 2]))
    result = run(ring, mod)
    assert not result.cyclic
    assert result.iterations == 2
    assert trace_summary(result) == [("iv", 4), ("v-no", 2)]
    assert result.trace[0].chosen_x == (1, 0)
    assert result.trace[0].order_a == 2 and result.trace[0].order_b == 2
    assert result.trace[1].chosen_x == (1, 0)
    assert result.trace[1].order_a == 1 and result.trace[1].order_b == 2
    assert result.witness.quotient_ring_order == 2
    assert result.witness.extension_order == 4


def test_transcript_idempotent_pair():
    # R = M = Z/2 x Z/2: two v-yes branches accumulate y = e1 + e2 = 1
    ring, mod = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    result = run(ring, mod)
    assert result.cyclic
    assert result.iterations == 3
    assert trace_summary(result) == [("v-yes", 4), ("v-yes", 2), ("yes", 1)]
    assert result.trace[0].chosen_x == (1, 0)
    assert result.trace[1].chosen_x == (0, 1)
    assert result.generator == ring.one


def test_transcript_z6():
    ring, mod = parse(gen_zmod(6, [2, 3]))
    result = run(ring, mod)
    assert result.cyclic
    assert result.iterations == 2
    assert trace_summary(result) == [("v-yes", 6), ("yes", 1)]
    assert result.trace[0].chosen_x == (1,)
    assert cyclic_span_is_all(ring, mod, result.generator)
    assert mod.group.to_user(result.generator) == [1, 1]


def test_init_state():
    ring, mod = parse(gen_zmod(4, [2, 2]))
    state = init(ring, mod)
    assert state.i_a.order() == 1
    assert state.y.is_zero()
    assert subgroup_span(mod.group, state.n).order() == mod.order
    assert state.order_A == 4
    check_state_invariants(state)


def test_trivial_module_and_zero_ring():
    ring, mod = parse(gen_zmod(4, []))
    result = run(ring, mod)
    assert result.cyclic and result.iterations == 1
    assert result.generator.is_zero()

    ring0, mod0 = parse(gen_zmod(1, [1]))
    assert ring0.order == 1 and mod0.order == 1
    result0 = run(ring0, mod0)
    assert result0.cyclic and result0.iterations == 1


def test_pick_x_skips_generators_that_die():
    ring, mod = parse(gen_zmod(4, [4]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    n = submodule_span(mod, [mod.group.element((2,)), mod.group.element((1,))])
    state = AlgState(ring, mod, two, mod.zero(), n)
    assert state.iam.index() == 2
    assert pick_x(state) == mod.group.element((1,))


def test_pick_x_hard_error_on_corrupt_state():
    ring, mod = parse(gen_zmod(4, [4]))
    # N = 0 cannot cover M_A = M
    state = AlgState(ring, mod, zero_ideal(ring), mod.zero(), ())
    assert state.iam.index() == 4
    with pytest.raises(InvariantViolationError):
        pick_x(state)


def test_check_state_invariants_rejects_corruption():
    ring, mod = parse(gen_zmod(6, [2, 3]))
    good = init(ring, mod)
    check_state_invariants(good)
    # nonzero y has nonzero image in M_A at the start
    bad = AlgState(ring, mod, good.i_a, mod.group.element((1,)), good.n)
    with pytest.raises(InvariantViolationError):
        check_state_invariants(bad)
    # N too small to cover M_A
    bad2 = AlgState(ring, mod, good.i_a, mod.zero(), ())
    with pytest.raises(InvariantViolationError):
        check_state_invariants(bad2)
    # N spans M but lists the generator three times: 3 > log2 |M| = 2
    ring4, mod4 = parse(gen_zmod(4, [4]))
    bad3 = AlgState(ring4, mod4, zero_ideal(ring4), mod4.zero(), tuple(mod4.group.gens()) * 3)
    with pytest.raises(InvariantViolationError, match="log2"):
        check_state_invariants(bad3)


def test_n_stays_a_subgroup_chain():
    # Every kept generator of N enlarges the span of those before it, so
    # |N| <= floor(log2 |M|) in every state, also after a chain of products
    # where the distinct products u*z alone grow past that bound.
    doc = functools.reduce(gen_prod, [
        gen_trunc(2, 3), gen_zmod(9, [9]), gen_trunc(5, 2), gen_zmod(4, [4]),
        gen_trunc(3, 3), gen_randquot(12, 4, max_deg=5, summands=2)])
    ring, mod = parse(doc)
    bound = math.floor(math.log2(mod.order))
    state, sizes = init(ring, mod), []
    while isinstance(state, AlgState):
        sizes.append(len(state.n))
        assert len(state.n) <= bound, sizes
        state = step(state)
    assert len(sizes) == 5 and max(sizes) > mod.group.rank


def corpus(seed, count):
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.choice([2, 3, 4, 6, 8, 9, 12, 16, 24])
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            ds = [rng.choice(divisors) for _ in range(rng.randint(1, 3))]
            docs.append(gen_zmod(n, ds))
        elif kind == 1:
            p, e = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
            mdegs = [rng.randint(1, e) for _ in range(rng.randint(1, 2))]
            docs.append(gen_trunc(p, e, mdegs))
        elif kind == 2:
            def factor():
                n = rng.choice([2, 3, 4, 5])
                d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
                return gen_zmod(n, [d])
            docs.append(gen_prod(factor(), factor()))
        else:
            docs.append(gen_randquot(rng.choice([2, 3, 4, 5]), rng.randrange(10 ** 6),
                                     max_deg=2, summands=rng.randint(1, 2)))
    return docs


def test_agreement_with_brute_force():
    checked = 0
    for doc in corpus(101, 40):
        ring, mod = parse(doc)
        if mod.order > 2000:
            continue
        result = run(ring, mod)
        expect_cyclic, _ = brute_cyclic(ring, mod)
        assert result.cyclic == expect_cyclic, f"disagreement on {doc}"
        if result.cyclic:
            assert cyclic_span_is_all(ring, mod, result.generator)
        else:
            assert result.witness.quotient_ring_order < result.witness.extension_order
        checked += 1
    assert checked >= 30


def test_halving_and_iteration_bound():
    for doc in corpus(202, 40):
        ring, mod = parse(doc)
        result = run(ring, mod)
        orders = [e.order_A for e in result.trace]
        for prev, cur in zip(orders, orders[1:]):
            assert cur * 2 <= prev
        assert result.iterations <= iteration_bound(ring)
        assert result.iterations == len(result.trace)


def test_huge_modulus_end_to_end():
    n = 10 ** 30
    ring, mod = parse(gen_zmod(n, [n]))
    result = run(ring, mod)
    assert result.cyclic and result.iterations == 2
    assert mod.group.to_user(result.generator) == [1]
    assert result.iterations <= iteration_bound(ring)


def test_gen_prod_invalid_params():
    with pytest.raises(ValueError):
        gen_zmod(6, [4])  # 4 does not divide 6


def test_step_returns_fresh_states():
    ring, mod = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    s0 = init(ring, mod)
    s1 = step(s0)
    assert isinstance(s1, AlgState)
    assert s0.i_a.order() == 1  # original state untouched
    assert s1.iteration == 1 and len(s1.trace) == 1


def test_state_builds_its_extension_once(monkeypatch):
    # The invariant checks read the M_A each state built, so they add no
    # scalar extension to a run.
    calls = []

    def counting(module, i_a):
        calls.append(i_a)
        return scalar_extension(module, i_a)

    monkeypatch.setattr(cyclic, "scalar_extension", counting)
    docs = [gen_zmod(4, [2, 2]), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
            gen_trunc(2, 4, [4, 2])] + corpus(303, 12)
    for doc in docs:
        ring, mod = parse(doc)
        counts = []
        for check in (True, False):
            calls.clear()
            result = run(ring, mod, check_invariants=check)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert counts[0] >= result.iterations


def test_each_step_computes_the_images_of_x_once(monkeypatch):
    # g_i*x feeds both Ann(x) and the span test of a step; a run computes
    # them once per step that picks an x, plus once for the generator's
    # re-verification at a cyclic verdict.
    calls = []
    real = FiniteModule.images

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(FiniteModule, "images", counting)
    docs = [gen_zmod(4, [2, 2]), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
            gen_trunc(2, 4, [4, 2])] + corpus(303, 12)
    for doc in docs:
        ring, mod = parse(doc)
        for check in (True, False):
            calls.clear()
            result = run(ring, mod, check_invariants=check)
            picked = sum(1 for e in result.trace if e.chosen_x is not None)
            assert len(calls) == picked + result.cyclic


def test_m_a_queries_never_canonicalize(monkeypatch):
    # The driver works on lattices alone: M_A is read from I_A*M and
    # Ann(x) is one kernel against copies of I_A, so no quotient group is
    # built and canonicalize is reached only from parsing, never from
    # anything under run.
    guarded = ("scalar_extension", "ann_element", "spans_extension",
               "check_state_invariants", "ideal_annihilator")
    active, entered, reached = [], [], []
    real = abelian.canonicalize

    def counting(presentation):
        reached.append(tuple(active))
        return real(presentation)

    def guard(name, f):
        def wrapped(*args, **kwargs):
            entered.append(name)
            active.append(name)
            try:
                return f(*args, **kwargs)
            finally:
                active.pop()
        return wrapped

    monkeypatch.setattr(abelian, "canonicalize", counting)
    monkeypatch.setattr(instances, "canonicalize", counting)
    for name in guarded:
        monkeypatch.setattr(cyclic, name, guard(name, getattr(cyclic, name)))
    guarded_run = guard("run", cyclic.run)
    docs = [gen_zmod(4, [2, 2]), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
            gen_trunc(2, 4, [4, 2])] + corpus(303, 12)
    for doc in docs:
        ring, mod = parse(doc)
        guarded_run(ring, mod, check_invariants=True)
    assert set(entered) == set(guarded) | {"run"}
    assert reached.count(()) == 2 * len(docs)  # parsing reaches the wrapper
    assert [path for path in reached if path] == []

import functools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcyclic import abelian, cyclic, instances, intlinalg, modules
from modcyclic.abelian import subgroup_span
from modcyclic.cyclic import (
    AlgState,
    InvariantViolationError,
    TraceEntry,
    check_state_invariants,
    init,
    iteration_bound,
    pick_x,
    run,
    step,
)
from modcyclic.instances import gen_prod, gen_randquot, gen_trunc, gen_zmod, parse_instance
from modcyclic.intlinalg import diagonal, lincomb
from modcyclic.modules import FiniteModule, ann_element, cyclic_span_is_all, scalar_extension
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
    _, mod = parse(gen_zmod(4, [2, 2]))
    result = run(mod)
    assert not result.cyclic
    assert result.iterations == 2
    assert trace_summary(result) == [("iv", 4), ("v-no", 2)]
    assert result.trace[0].chosen_x == (1, 0)
    assert result.trace[0].order_a == 2 and result.trace[0].order_b == 2
    assert result.trace[1].chosen_x == (1, 0)
    assert result.trace[1].order_a == 1 and result.trace[1].order_b == 2
    assert result.witness.order_A_mod_a == 2
    assert result.witness.order_ext_mod_a == 4


def test_transcript_idempotent_pair():
    # R = M = Z/2 x Z/2: two v-yes branches accumulate y = e1 + e2 = 1
    ring, mod = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    result = run(mod)
    assert result.cyclic
    assert result.iterations == 3
    assert trace_summary(result) == [("v-yes", 4), ("v-yes", 2), ("yes", 1)]
    assert result.trace[0].chosen_x == (1, 0)
    assert result.trace[1].chosen_x == (0, 1)
    assert result.generator == ring.one


def test_transcript_z6():
    _, mod = parse(gen_zmod(6, [2, 3]))
    result = run(mod)
    assert result.cyclic
    assert result.iterations == 2
    assert trace_summary(result) == [("v-yes", 6), ("yes", 1)]
    assert result.trace[0].chosen_x == (1,)
    assert cyclic_span_is_all(mod, result.generator)
    assert mod.group.to_user(result.generator) == [1, 1]


def test_init_state():
    _, mod = parse(gen_zmod(4, [2, 2]))
    state = init(mod)
    assert state.i_a.order() == 1
    assert state.y.is_zero()
    assert subgroup_span(mod.group, state.n).order() == mod.order
    assert state.order_A == 4
    check_state_invariants(state)


def test_trivial_module_and_zero_ring():
    _, mod = parse(gen_zmod(4, []))
    result = run(mod)
    assert result.cyclic and result.iterations == 1
    assert result.generator.is_zero()

    ring0, mod0 = parse(gen_zmod(1, [1]))
    assert ring0.order == 1 and mod0.order == 1
    result0 = run(mod0)
    assert result0.cyclic and result0.iterations == 1


def test_pick_x_skips_generators_that_die():
    ring, mod = parse(gen_zmod(4, [4]))
    two = ideal_span(ring, zero_ideal(ring), [ring.group.element((2,))])
    n = submodule_span(mod, [mod.group.element((2,)), mod.group.element((1,))])
    state = AlgState(mod, two, mod.zero(), n)
    assert state.iam.index() == 2
    assert pick_x(state) == mod.group.element((1,))


def test_pick_x_hard_error_on_corrupt_state():
    ring, mod = parse(gen_zmod(4, [4]))
    # N = 0 cannot cover M_A = M
    state = AlgState(mod, zero_ideal(ring), mod.zero(), ())
    assert state.iam.index() == 4
    with pytest.raises(InvariantViolationError):
        pick_x(state)


def test_check_state_invariants_rejects_corruption():
    _, mod = parse(gen_zmod(6, [2, 3]))
    good = init(mod)
    check_state_invariants(good)
    # nonzero y has nonzero image in M_A at the start
    bad = AlgState(mod, good.i_a, mod.group.element((1,)), good.n)
    with pytest.raises(InvariantViolationError):
        check_state_invariants(bad)
    # N too small to cover M_A
    bad2 = AlgState(mod, good.i_a, mod.zero(), ())
    with pytest.raises(InvariantViolationError):
        check_state_invariants(bad2)
    # N spans M but lists the generator three times: 3 > log2 |M| = 2
    ring4, mod4 = parse(gen_zmod(4, [4]))
    bad3 = AlgState(mod4, zero_ideal(ring4), mod4.zero(), tuple(mod4.group.gens()) * 3)
    with pytest.raises(InvariantViolationError, match="log2"):
        check_state_invariants(bad3)


def test_invariant_error_prints_the_trace_past_the_digit_limit():
    # The entries print as the dataclass repr, their ints through int_text
    # and so in full past the interpreter's 4,300-digit limit.
    exc = InvariantViolationError("boom", [TraceEntry(4, "iv", (1, 0), 2, 2),
                                           TraceEntry(2, "v-no", (1,), 1, 2, 4)])
    assert str(exc) == (
        "boom\ntrace: [TraceEntry(order_A=4, branch='iv', chosen_x=(1, 0), order_a=2, "
        "order_b=2, order_ext_mod_a=None), TraceEntry(order_A=2, branch='v-no', "
        "chosen_x=(1,), order_a=1, order_b=2, order_ext_mod_a=4)]")
    exc = InvariantViolationError("boom", [TraceEntry(10 ** 5000, "yes")])
    assert str(exc) == ("boom\ntrace: [TraceEntry(order_A=1" + "0" * 5000 + ", branch='yes', "
                        "chosen_x=None, order_a=None, order_b=None, order_ext_mod_a=None)]")


def test_n_stays_a_subgroup_chain():
    # Every kept generator of N enlarges the span of those before it, so
    # |N| <= floor(log2 |M|) in every state, also after a chain of products
    # where the distinct products u*z alone grow past that bound.
    doc = functools.reduce(gen_prod, [
        gen_trunc(2, 3), gen_zmod(9, [9]), gen_trunc(5, 2), gen_zmod(4, [4]),
        gen_trunc(3, 3), gen_randquot(12, 4, max_deg=5, summands=2)])
    _, mod = parse(doc)
    bound = math.floor(math.log2(mod.order))
    state, sizes = init(mod), []
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
        result = run(mod)
        expect_cyclic, _ = brute_cyclic(ring, mod)
        assert result.cyclic == expect_cyclic, f"disagreement on {doc}"
        if result.cyclic:
            assert cyclic_span_is_all(mod, result.generator)
        else:
            assert result.witness.order_A_mod_a < result.witness.order_ext_mod_a
            assert result.witness is result.trace[-1] and result.witness.branch == "v-no"
        checked += 1
    assert checked >= 30


def test_halving_and_iteration_bound():
    for doc in corpus(202, 40):
        ring, mod = parse(doc)
        result = run(mod)
        orders = [e.order_A for e in result.trace]
        for prev, cur in zip(orders, orders[1:]):
            assert cur * 2 <= prev
        assert result.iterations <= iteration_bound(ring)
        assert result.iterations == len(result.trace)


@st.composite
def large_factors(draw):
    """A family instance whose ring has more than 1,000 elements, so that
    a product of two or more has more than 10^6, past the oracle's bound."""
    family = draw(st.sampled_from(("zmod", "trunc", "randquot")))
    if family == "zmod":
        p = draw(st.sampled_from((2, 3, 5)))
        e = draw(st.integers(10, 64))
        ds = draw(st.lists(st.integers(0, e).map(lambda k: p ** k), max_size=3))
        return gen_zmod(p ** e, ds)
    if family == "trunc":
        p, e = draw(st.sampled_from(((2, 10), (3, 7), (5, 5), (7, 4), (11, 3))))
        return gen_trunc(p, e, draw(st.lists(st.integers(1, e), min_size=1, max_size=3)))
    n = draw(st.sampled_from((1024, 3 ** 7, 2 ** 5 * 3 ** 3 * 5, 10 ** 9 + 7, 2 ** 64)))
    return gen_randquot(n, draw(st.integers(0, 10 ** 6)), max_deg=draw(st.integers(1, 3)),
                        summands=draw(st.integers(1, 2)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(factors=st.lists(large_factors(), min_size=2, max_size=3))
def test_product_is_cyclic_iff_both_factors_are(factors):
    # R1 x R2 (x R3) acting on M1 x M2 (x M3) is cyclic exactly when every
    # factor is: a relation that no oracle can check at these sizes
    _, prod = parse(functools.reduce(gen_prod, factors))
    assert prod.ring.order > 10 ** 6
    assert run(prod).cyclic == all(run(parse(f)[1]).cyclic for f in factors)


def unimodular_pair(rng, m):
    """A seeded unimodular m x m matrix U and its inverse W, as lists of
    rows, from elementary row operations on U: adding a multiple of one
    row to another, swapping two rows, negating one.  Each is undone on
    the right of W by the inverse column operation, so W @ U = I."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    w = [row[:] for row in u]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        op = rng.choice(("add", "swap", "negate"))
        if op == "add" and i != j:
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
            for row in w:
                row[j] -= q * row[i]
        elif op == "swap":
            u[i], u[j] = u[j], u[i]
            for row in w:
                row[i], row[j] = row[j], row[i]
        elif op == "negate":
            u[i] = [-a for a in u[i]]
            for row in w:
                row[i] = -row[i]
    return u, w


def move_module(doc, u, w, relations):
    """`doc` with its module presented on the generators
    m'_j = sum_t U[j][t] m_t, U given by its rows u, where an element with
    user vector x has x @ W: with the given relations, and each action
    entry g_i * m'_j as (sum_t U[j][t] T[i][t]) @ W."""
    m, n = doc["module"]["num_gens"], len(u)
    action = [[lincomb(lincomb(row_u, row, m), w, n) for row_u in u]
              for row in doc["module"]["action"]]
    return dict(doc, module={"num_gens": n, "relations": relations, "action": action})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(factors=st.lists(large_factors(), min_size=2, max_size=3), seed=st.integers(0, 2 ** 32))
def test_moving_user_coordinates_keeps_the_verdict(factors, seed):
    # A relation past the oracle on the translation between user and
    # canonical coordinates.  The module is first presented on its
    # canonical generators (U = from_can, W = to_can, relations diag(d)),
    # then moved by a seeded unimodular U: each relation rho becomes
    # rho @ W, the relations are shuffled and one is stated twice.  The
    # verdict stays, and y' @ U generates the module when y' generates the
    # moved one.  Moving the document's own relations instead makes the
    # exact Smith form of `canonicalize` swell without bound on some
    # draws, so the move starts from diag(d).
    doc = functools.reduce(gen_prod, factors)
    _, mod = parse(doc)
    assume(mod.order > 10 ** 6)
    g, r = mod.group, mod.group.rank
    canonical = move_module(doc, g.from_can, g.to_can, diagonal(g.invariant_factors))
    rng = random.Random(seed)
    u, w = unimodular_pair(rng, r)
    assert [lincomb(row, u, r) for row in w] == [list(row) for row in diagonal([1] * r)]
    relations = [lincomb(rho, w, r) for rho in canonical["module"]["relations"]]
    rng.shuffle(relations)
    relations.insert(rng.randrange(r + 1), rng.choice(relations))
    _, moved = parse(move_module(canonical, u, w, relations))
    assert moved.order == mod.order
    result = run(moved)
    assert result.cyclic == run(mod).cyclic
    if result.cyclic:
        y = lincomb(moved.group.to_user(result.generator), u, r)
        assert cyclic_span_is_all(mod, g.element(y))


def with_implied_relations(doc, rng):
    """`doc` with one more stated relation in the ring and in the module,
    the sum of two of its rows and 3 times a third, and the rows shuffled."""
    out = dict(doc)
    for key in ("ring", "module"):
        relations = [list(row) for row in doc[key]["relations"]]
        a, b, c = rng.choices(relations, k=3)
        relations.append([x + y + 3 * z for x, y, z in zip(a, b, c)])
        rng.shuffle(relations)
        out[key] = dict(doc[key], relations=relations)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_implied_relations_keep_the_verdict(seed):
    # Adding relations that the stated ones imply, and shuffling them,
    # presents the same ring and module on the same generators: the verdict
    # stays, and a generator of the new presentation, in user coordinates,
    # generates the original module.  The draws are corpus-sized, since the
    # exact Smith form of `canonicalize` swells without end on some
    # presentations of the size of the swell workload (ROADMAP item 9).
    rng = random.Random(seed)
    for doc in corpus(seed, 3):
        _, mod = parse(doc)
        _, implied = parse(with_implied_relations(doc, rng))
        assert implied.order == mod.order
        result = run(implied)
        assert result.cyclic == run(mod).cyclic
        if result.cyclic:
            y = implied.group.to_user(result.generator)
            assert cyclic_span_is_all(mod, mod.group.from_user(y))


def test_huge_modulus_end_to_end():
    n = 10 ** 30
    ring, mod = parse(gen_zmod(n, [n]))
    result = run(mod)
    assert result.cyclic and result.iterations == 2
    assert mod.group.to_user(result.generator) == [1]
    assert result.iterations <= iteration_bound(ring)


def test_gen_prod_invalid_params():
    with pytest.raises(ValueError):
        gen_zmod(6, [4])  # 4 does not divide 6


def test_step_returns_fresh_states():
    _, mod = parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    s0 = init(mod)
    s1 = step(s0)
    assert isinstance(s1, AlgState)
    assert s0.i_a.order() == 1  # original state untouched
    assert s1.iteration == 1 and len(s1.trace) == 1
    # Every branch, the two verdicts included, leaves the state it is given
    # as it was and hands on a trace list of its own.
    branches = []
    for doc in (gen_zmod(4, [2, 2]), gen_zmod(6, [2, 3]),
                gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])), gen_zmod(5, [])):
        state = init(parse(doc)[1])
        while isinstance(state, AlgState):
            before = (list(state.trace), state.i_a.basis, state.y, state.n)
            new = step(state)
            assert (list(state.trace), state.i_a.basis, state.y, state.n) == before
            assert new.trace is not state.trace
            assert new.trace[:-1] == before[0]
            branches.append(new.trace[-1].branch)
            state = new
    assert set(branches) == {"yes", "iv", "v-yes", "v-no"}


def product_rows(mod) -> int:
    """The products u*m_j a run needs, as rows of one u each: the basis
    elements of I_A in every state and of a at every step of branch v,
    counted by stepping the run."""
    rows, state = 0, init(mod)
    while isinstance(state, AlgState):
        rows += len(state.i_a.basis_elements())
        new = step(state)
        entry = new.trace[-1]
        if entry.branch in ("v-yes", "v-no"):
            x = mod.group.element(entry.chosen_x)
            rows += len(ann_element(mod, mod.images(x), state.iam).basis_elements())
        state = new
    return rows


def test_state_builds_its_extension_once(monkeypatch):
    # The invariant checks read the M_A each state built, so they add no
    # scalar extension to a run: one per state (the first, and one per
    # continue) and one for M_{A/a} at each step of branch v.  Their
    # products u*m_j are built once: a step of branch v hands a's to both
    # M_{A/a} and a*N.
    calls, tables = [], []
    real_products = modules.products

    def counting(module, rows):
        calls.append(rows)
        return scalar_extension(module, rows)

    def counting_products(coeffs, table, factors):
        tables.append(table)
        return real_products(coeffs, table, factors)

    monkeypatch.setattr(cyclic, "scalar_extension", counting)
    monkeypatch.setattr(modules, "products", counting_products)
    docs = [gen_zmod(4, [2, 2]), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
            gen_trunc(2, 4, [4, 2])] + corpus(303, 12)
    for doc in docs:
        _, mod = parse(doc)
        expected_rows = product_rows(mod)
        calls.clear()
        tables.clear()
        result = run(mod)
        branches = [e.branch for e in result.trace]
        continues = branches.count("iv") + branches.count("v-yes")
        v_steps = branches.count("v-yes") + branches.count("v-no")
        assert len(calls) == 1 + continues + v_steps
        assert sum(table is mod.action_table for table in tables) == expected_rows


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
        _, mod = parse(doc)
        calls.clear()
        result = run(mod)
        picked = sum(1 for e in result.trace if e.chosen_x is not None)
        assert len(calls) == picked + result.cyclic


def test_m_a_queries_never_canonicalize(monkeypatch):
    # The driver works on lattices alone: M_A is read from I_A*M and
    # Ann(x) is one kernel against copies of I_A, so no quotient group is
    # built and canonicalize is reached only from parsing, never from
    # anything under run.  The relation lattice diag(d) is built once with
    # each group, at parsing, and every span under run reads it.
    guarded = ("scalar_extension", "ann_element", "spans_extension",
               "check_state_invariants", "ideal_annihilator")
    active, entered, reached, diagonals = [], [], [], []
    real, real_diagonal = abelian.canonicalize, abelian.diagonal

    def counting(relations, k):
        reached.append(tuple(active))
        return real(relations, k)

    def counting_diagonal(entries):
        diagonals.append(tuple(active))
        return real_diagonal(entries)

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
    monkeypatch.setattr(abelian, "diagonal", counting_diagonal)
    for name in guarded:
        monkeypatch.setattr(cyclic, name, guard(name, getattr(cyclic, name)))
    guarded_run = guard("run", cyclic.run)
    docs = [gen_zmod(4, [2, 2]), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
            gen_trunc(2, 4, [4, 2])] + corpus(303, 12)
    for doc in docs:
        _, mod = parse(doc)
        guarded_run(mod)
    assert set(entered) == set(guarded) | {"run"}
    assert reached.count(()) == 2 * len(docs)  # parsing reaches the wrapper
    assert [path for path in reached if path] == []
    assert diagonals == [()] * (2 * len(docs))


@pytest.mark.parametrize("factor, count, iterations, bound", [
    (lambda: gen_trunc(2, 4), 4, 5, 32_768),
    (lambda: gen_trunc(2, 4), 8, 9, 507_904),
    (lambda: gen_zmod(2, [2]), 16, 17, 531_328),
], ids=["4-trunc-2-4", "8-trunc-2-4", "16-zmod-2"])
def test_driver_hnf_work_is_bounded(factor, count, iterations, bound, monkeypatch):
    # A bound on the work, not the time: rows x columns summed over every
    # HNF input of one run on a product of cyclic factors.  The bounds are
    # the counts the code makes today; a change may lower them, never
    # raise them.
    cells = []
    real = intlinalg.hnf

    def recording(m, *args, **kwargs):
        cells.append(len(m.data) * m.cols)
        return real(m, *args, **kwargs)

    _, mod = parse(functools.reduce(gen_prod, [factor() for _ in range(count)]))
    monkeypatch.setattr(abelian, "hnf", recording)
    monkeypatch.setattr(intlinalg, "hnf", recording)
    result = run(mod)
    assert result.cyclic and len(result.trace) == iterations
    assert sum(cells) <= bound, sum(cells)

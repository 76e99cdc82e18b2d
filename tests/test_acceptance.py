"""Acceptance suite: seven criteria, one test each, one PASS line printed
per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

import copy
import random
import time
from collections import Counter
from itertools import product

import pytest

from modcyclic.cli import main as cli_main
from modcyclic.cyclic import (
    CyclicityResult,
    check_state_invariants,
    init,
    iteration_bound,
    run,
    step,
)
from modcyclic.instances import (
    ValidationFailure,
    dumps,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    parse_instance,
)
from modcyclic.abelian import canonicalize
from modcyclic.modules import cyclic_span_is_all

from helpers import (
    check_hnf,
    check_snf,
    group_order_by_enumeration,
    random_finite_presentation,
    random_matrix,
)


# -- criterion 1/3/4 corpus ---------------------------------------------------

def build_corpus_docs():
    """>= 500 seeded instances across all four families, |R| <= 256 and
    |M| <= 4096."""
    rng = random.Random("acceptance-corpus")
    docs = []

    ns = [2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64, 96, 128, 192, 256]
    for _ in range(140):
        n = rng.choice(ns)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        ds, size = [], 1
        for _ in range(rng.randint(1, 4)):
            d = rng.choice(divisors)
            if size * d > 4096:
                break
            ds.append(d)
            size *= d
        docs.append(("zmod", gen_zmod(n, ds or [1])))

    pes = ([(2, e) for e in range(1, 9)] + [(3, e) for e in range(1, 6)]
           + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (13, 2)])
    for _ in range(120):
        p, e = rng.choice(pes)
        degs, size = [], 1
        for _ in range(rng.randint(1, 3)):
            t = rng.randint(1, e)
            if size * p ** t > 4096:
                break
            degs.append(t)
            size *= p ** t
        docs.append(("trunc", gen_trunc(p, e, degs or [1])))

    for _ in range(130):
        def small_factor():
            if rng.random() < 0.5:
                n = rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16])
                divisors = [d for d in range(1, n + 1) if n % d == 0]
                return gen_zmod(n, [rng.choice(divisors) for _ in range(rng.randint(1, 2))])
            p, e = rng.choice([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)])
            return gen_trunc(p, e, [rng.randint(1, e) for _ in range(rng.randint(1, 2))])
        docs.append(("prod", gen_prod(small_factor(), small_factor())))

    for _ in range(135):
        n = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16])
        maxdeg = 1
        while n ** (maxdeg + 1) <= 256 and maxdeg < 4:
            maxdeg += 1
        docs.append(("randquot", gen_randquot(n, rng.randrange(10 ** 6),
                                              max_deg=maxdeg,
                                              summands=rng.randint(1, 3))))
    return docs


@pytest.fixture(scope="module")
def corpus():
    """Parsed corpus (validators on), capped to the criterion sizes."""
    kept = []
    for label, doc in build_corpus_docs():
        parsed = parse_instance(doc)  # every generated instance must validate
        if parsed.ring.order <= 256 and parsed.module.order <= 4096:
            kept.append((label, doc, parsed.ring, parsed.module))
    assert len(kept) >= 500, f"corpus too small: {len(kept)}"
    return kept


def test_criterion_1_oracle_equivalence(corpus, tmp_path):
    t0 = time.monotonic()
    verdicts = Counter()
    for idx, (label, doc, _, module) in enumerate(corpus):
        path = tmp_path / f"inst{idx}.json"
        path.write_text(dumps(doc))
        rc = cli_main(["compare", str(path)])
        assert rc in (0, 1), f"{label} #{idx}: compare exit {rc}"
        verdicts[rc] += 1
        if rc == 0:
            result = run(module)
            assert result.cyclic
            assert cyclic_span_is_all(module, result.generator), \
                f"{label} #{idx}: generator fails span check"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"corpus compare took {elapsed:.1f}s"
    print(f"\n[acceptance] criterion 1 (oracle equivalence): PASS — "
          f"{len(corpus)} instances, 100% agreement "
          f"({verdicts[0]} cyclic / {verdicts[1]} not), {elapsed:.1f}s")


def test_criterion_2_hand_transcripts():
    # (a) R = Z/4, M = Z/2 x Z/2: branch iv then branch v-no, |A|: 4 -> 2
    ring, mod = _parse(gen_zmod(4, [2, 2]))
    res = run(mod)
    assert not res.cyclic
    assert [(e.branch, e.order_A) for e in res.trace] == [("iv", 4), ("v-no", 2)]
    assert [e.chosen_x for e in res.trace] == [(1, 0), (1, 0)]
    assert (res.witness.order_A_mod_a, res.witness.order_ext_mod_a) == (2, 4)

    # (b) R = Z/2 x Z/2, M = R: two v-yes branches, then yes with y = 1
    ring, mod = _parse(gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])))
    res = run(mod)
    assert res.cyclic
    assert [(e.branch, e.order_A) for e in res.trace] == \
        [("v-yes", 4), ("v-yes", 2), ("yes", 1)]
    assert [e.chosen_x for e in res.trace[:2]] == [(1, 0), (0, 1)]
    assert res.generator == ring.one

    # (c) R = Z/6, M = Z/2 x Z/3: cyclic in one v-yes branch
    ring, mod = _parse(gen_zmod(6, [2, 3]))
    res = run(mod)
    assert res.cyclic
    assert [(e.branch, e.order_A) for e in res.trace] == [("v-yes", 6), ("yes", 1)]
    assert res.trace[0].chosen_x == (1,)
    print("[acceptance] criterion 2 (hand transcripts): PASS — "
          "3 transcripts reproduced exactly")


def _parse(doc):
    p = parse_instance(doc)
    return p.ring, p.module


def test_criterion_3_halving_bound(corpus):
    steps = 0
    for label, doc, ring, module in corpus:
        result = run(module)
        orders = [e.order_A for e in result.trace]
        for prev, cur in zip(orders, orders[1:]):
            assert 2 * cur <= prev, f"{label}: |A| {prev} -> {cur} did not halve"
        assert result.iterations <= iteration_bound(ring), \
            f"{label}: {result.iterations} iterations for |R| = {ring.order}"
        steps += result.iterations
    print(f"[acceptance] criterion 3 (halving bound): PASS — "
          f"{steps} steps over {len(corpus)} runs, zero violations")


def test_criterion_4_state_invariants(corpus):
    states_checked = 0
    for label, doc, _, module in corpus:
        state = init(module)
        check_state_invariants(state)
        states_checked += 1
        while True:
            out = step(state)
            if isinstance(out, CyclicityResult):
                break
            check_state_invariants(out)
            states_checked += 1
            state = out
    print(f"[acceptance] criterion 4 (state invariants): PASS — "
          f"{states_checked} states checked, zero violations")


def test_criterion_5_large_representation(tmp_path, capsys):
    doc = gen_trunc(2, 64)
    big = tmp_path / "trunc64.json"
    big.write_text(dumps(doc))
    t0 = time.monotonic()
    rc = cli_main(["check", str(big)])
    t_cyclic = time.monotonic() - t0
    report = capsys.readouterr().out
    assert rc == 0
    assert t_cyclic < 10.0, f"cyclic check took {t_cyclic:.1f}s"

    # without ring.one the identity is solved for, and nothing else changes
    del doc["ring"]["one"]
    no_one = tmp_path / "trunc64_no_one.json"
    no_one.write_text(dumps(doc))
    t0 = time.monotonic()
    rc_no_one = cli_main(["check", str(no_one)])
    t_no_one = time.monotonic() - t0
    assert rc_no_one == rc
    assert capsys.readouterr().out == report
    assert t_no_one < 10.0, f"cyclic check without ring.one took {t_no_one:.1f}s"

    mixed = tmp_path / "trunc64_32.json"
    mixed.write_text(dumps(gen_trunc(2, 64, [64, 32])))
    t0 = time.monotonic()
    rc = cli_main(["check", str(mixed)])
    t_not = time.monotonic() - t0
    assert rc == 1
    assert "verdict: not cyclic" in capsys.readouterr().out
    assert t_not < 10.0, f"non-cyclic check took {t_not:.1f}s"

    # independent certificate: a cyclic module Ry has at most |R| elements
    parsed = parse_instance(gen_trunc(2, 64, [64, 32]))
    assert parsed.ring.order == 2 ** 64
    assert parsed.module.order == 2 ** 96 > parsed.ring.order
    with capsys.disabled():
        print(f"[acceptance] criterion 5 (large representation): PASS — "
              f"|R| = 2^64: cyclic in {t_cyclic:.1f}s ({t_no_one:.1f}s without ring.one), "
              f"not-cyclic in {t_not:.1f}s, |M| = 2^96 > |R| certifies the refusal")


def test_criterion_6_linear_algebra_substrate():
    rng = random.Random("acceptance-linalg")
    t0 = time.monotonic()
    for _ in range(1000):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        m = random_matrix(rng, rows, cols, -100, 100)
        check_snf(m)
        check_hnf(m)
    presentations = 0
    while presentations < 100:
        k, rel_rows, order = random_finite_presentation(rng, max_order=1000)
        group = canonicalize(rel_rows, k)
        assert group.order == order
        assert group.order == group_order_by_enumeration(rel_rows, k)
        presentations += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"substrate checks took {elapsed:.1f}s"
    print(f"[acceptance] criterion 6 (linear algebra substrate): PASS — "
          f"1000 matrices + 100 presentations, zero violations, {elapsed:.1f}s")


# -- criterion 7: validator sensitivity ---------------------------------------

def _diag_of(section):
    n = section["num_gens"]
    rel = section["relations"]
    assert len(rel) == n
    for i in range(n):
        for j in range(n):
            if i != j:
                assert rel[i][j] == 0
    diag = [rel[i][i] for i in range(n)]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0, "mutation bases must be in invariant-factor form"
    return diag


def _reduce(vec, diag):
    return tuple(v % d for v, d in zip(vec, diag))


def _bl_mul(table, x, y, diag):
    acc = [0] * len(diag)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for t, v in enumerate(table[i][j]):
                        acc[t] += xi * yj * v
    return _reduce(acc, diag)


def _ring_axioms_broken(ring_sec):
    """Independent user-level check of which ring axioms a document breaks
    (bases are in invariant-factor form, so user = canonical coordinates)."""
    diag = _diag_of(ring_sec)
    k = len(diag)
    table = ring_sec["mul"]
    units = [[1 if t == i else 0 for t in range(k)] for i in range(k)]
    broken = set()
    for i in range(k):
        for j in range(k):
            entry = table[i][j]
            if (any((diag[i] * v) % diag[t] for t, v in enumerate(entry))
                    or any((diag[j] * v) % diag[t] for t, v in enumerate(entry))):
                broken.add("well-definedness")
    for i in range(k):
        for j in range(k):
            if _reduce(table[i][j], diag) != _reduce(table[j][i], diag):
                broken.add("commutativity")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                lhs = _bl_mul(table, table[a][b], units[c], diag)
                rhs = _bl_mul(table, units[a], table[b][c], diag)
                if lhs != rhs:
                    broken.add("associativity")
    one = ring_sec.get("one")
    if one is not None:
        if any(_bl_mul(table, one, units[i], diag) != _reduce(units[i], diag)
               for i in range(k)):
            broken.add("identity")
    else:
        for cand in product(*(range(d) for d in diag)):
            if all(_bl_mul(table, list(cand), units[i], diag) == _reduce(units[i], diag)
                   for i in range(k)):
                break
        else:
            broken.add("identity")
    return broken


def _module_axioms_broken(ring_sec, mod_sec):
    dr = _diag_of(ring_sec)
    dm = _diag_of(mod_sec)
    mul = ring_sec["mul"]
    act = mod_sec["action"]
    broken = set()
    for i in range(len(dr)):
        for j in range(len(dm)):
            entry = act[i][j]
            if (any((dr[i] * v) % dm[t] for t, v in enumerate(entry))
                    or any((dm[j] * v) % dm[t] for t, v in enumerate(entry))):
                broken.add("well-definedness")
    for i in range(len(dr)):
        for kk in range(len(dr)):
            for j in range(len(dm)):
                lhs = [0] * len(dm)
                for t, c in enumerate(mul[i][kk]):
                    if c:
                        for s, v in enumerate(act[t][j]):
                            lhs[s] += c * v
                rhs = [0] * len(dm)
                for t, c in enumerate(act[kk][j]):
                    if c:
                        for s, v in enumerate(act[i][t]):
                            rhs[s] += c * v
                if _reduce(lhs, dm) != _reduce(rhs, dm):
                    broken.add("associativity")
    one = ring_sec.get("one")
    if one is not None:
        for j in range(len(dm)):
            img = [0] * len(dm)
            for t, c in enumerate(one):
                if c:
                    for s, v in enumerate(act[t][j]):
                        img[s] += c * v
            if _reduce(img, dm) != _reduce([1 if s == j else 0 for s in range(len(dm))], dm):
                broken.add("identity")
    return broken


def _multi_gen_bases():
    return [
        gen_trunc(2, 2), gen_trunc(2, 3), gen_trunc(3, 2),
        gen_prod(gen_zmod(2, [2]), gen_zmod(4, [4])),
        gen_randquot(5, 202, max_deg=2, summands=1),
        gen_randquot(3, 306, max_deg=2, summands=1),
        gen_trunc(2, 4), gen_trunc(5, 2),
        gen_randquot(4, 107, max_deg=2, summands=1),
    ]


def build_mutations():
    """Exactly 50 mutated documents, each independently verified to break
    the targeted axiom."""
    muts = []

    def deltas(diag):
        for c in range(1, max(diag)):
            for t in range(len(diag)):
                yield t, c

    for base in _multi_gen_bases():  # 9 commutativity breaks
        doc = copy.deepcopy(base)
        diag = _diag_of(doc["ring"])
        i, j = 0, 1
        for t, c in deltas(diag):
            cand = list(doc["ring"]["mul"][i][j])
            cand[t] += c
            if _reduce(cand, diag) != _reduce(doc["ring"]["mul"][j][i], diag):
                doc["ring"]["mul"][i][j] = cand
                break
        assert "commutativity" in _ring_axioms_broken(doc["ring"])
        muts.append(("commutativity", doc))

    for base in _multi_gen_bases():  # 9 associativity breaks (table kept symmetric)
        doc = copy.deepcopy(base)
        diag = _diag_of(doc["ring"])
        applied = False
        for i in range(len(diag)):
            for t, c in deltas(diag):
                cand = list(base["ring"]["mul"][i][i])
                cand[t] += c
                doc["ring"]["mul"][i][i] = cand
                if "associativity" in _ring_axioms_broken(doc["ring"]):
                    applied = True
                    break
                doc["ring"]["mul"][i][i] = list(base["ring"]["mul"][i][i])
            if applied:
                break
        assert applied
        muts.append(("associativity", doc))

    mixed_pairs = [(2, 4), (2, 8), (3, 9), (4, 8), (2, 16), (3, 27), (4, 16), (2, 32)]
    for lo, hi in mixed_pairs:  # 8 ring well-definedness breaks
        doc = gen_prod(gen_zmod(lo, [lo]), gen_zmod(hi, [hi]))
        # e_lo * e_hi := e_hi, whose additive order exceeds ord(e_lo)
        doc["ring"]["mul"][0][1] = [0, 1]
        doc["ring"]["mul"][1][0] = [0, 1]
        assert "well-definedness" in _ring_axioms_broken(doc["ring"])
        muts.append(("well-definedness", doc))

    module_bases = [(4, [2, 4]), (8, [2, 8]), (8, [4, 8]), (9, [3, 9]),
                    (12, [2, 12]), (16, [2, 16]), (27, [3, 27]), (12, [6, 12])]
    for n, ds in module_bases:  # 8 module well-definedness breaks
        doc = gen_zmod(n, ds)
        doc["module"]["action"][0][0] = [0, 1]  # g*m_low := m_high
        assert "well-definedness" in _module_axioms_broken(doc["ring"], doc["module"])
        muts.append(("well-definedness", doc))

    no_identity = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 2), (12, 8)]
    for n, c in no_identity:  # 8 missing-identity breaks: x*y = c*x*y, gcd(c, n) > 1
        doc = gen_zmod(n, [n])
        doc["ring"]["mul"] = [[[c]]]
        del doc["ring"]["one"]
        assert _ring_axioms_broken(doc["ring"]) == {"identity"}
        muts.append(("identity", doc))

    wrong_identity = [gen_zmod(6, [6]), gen_zmod(8, [4]), gen_trunc(2, 3),
                      gen_trunc(3, 2), gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2])),
                      gen_zmod(9, [3, 9]), gen_trunc(2, 2, [2, 1]), gen_zmod(12, [12])]
    for base in wrong_identity:  # 8 wrong supplied identity
        doc = copy.deepcopy(base)
        diag = _diag_of(doc["ring"])
        one = list(doc["ring"]["one"])
        for t, c in deltas(diag):
            cand = list(one)
            cand[t] += c
            doc["ring"]["one"] = cand
            if "identity" in _ring_axioms_broken(doc["ring"]):
                break
        assert "identity" in _ring_axioms_broken(doc["ring"])
        muts.append(("identity", doc))

    assert len(muts) == 50
    return muts


def test_criterion_7_validator_sensitivity(tmp_path):
    mutations = build_mutations()
    rejected = 0
    for idx, (target, doc) in enumerate(mutations):
        path = tmp_path / f"mut{idx}.json"
        path.write_text(dumps(doc))
        rc = cli_main(["validate", str(path)])
        assert rc == 2, f"mutation {idx} ({target}) was accepted"
        with pytest.raises(ValidationFailure) as exc:
            parse_instance(doc)
        axioms = {d.axiom for d in exc.value.diagnostics}
        assert target in axioms, \
            f"mutation {idx}: expected {target} named, got {axioms}"
        rejected += 1
    print(f"[acceptance] criterion 7 (validator sensitivity): PASS — "
          f"{rejected}/50 mutations rejected with the violated axiom named")

"""The benchmark's independent checker agrees with modcyclic's brute-force
oracle on small instances of all four families, and BENCHMARK.json lists
the metrics that bench/run.py prints."""

import json
import sys
from pathlib import Path

import pytest

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from modcyclic import instances  # noqa: E402
from modcyclic.instances import parse_instance  # noqa: E402
from modcyclic.oracle import CYCLIC, brute_force  # noqa: E402


def small_specs():
    specs = [
        {"family": "zmod", "n": 12, "d": [4, 3]},
        {"family": "zmod", "n": 12, "d": [2, 6]},
        {"family": "zmod", "n": 6, "d": [1]},
        {"family": "trunc", "p": 2, "e": 3, "mdeg": [3]},
        {"family": "trunc", "p": 3, "e": 2, "mdeg": [2, 1]},
        {"family": "prod", "left": {"family": "zmod", "n": 4, "d": [4]},
         "right": {"family": "trunc", "p": 2, "e": 2, "mdeg": [1, 1]}},
        {"family": "prod", "left": {"family": "zmod", "n": 6, "d": [2, 3]},
         "right": {"family": "trunc", "p": 3, "e": 2, "mdeg": [2]}},
    ]
    specs += [{"family": "randquot", "n": n, "seed": s, "max_deg": 2, "summands": k}
              for n, ks in ((4, (1, 2, 3)), (6, (1, 2)), (12, (1, 2)))
              for s in range(4) for k in ks]
    # a slice of every family from a corpus draw
    drawn = workloads.corpus(7)
    for fam in ("zmod", "trunc", "prod", "randquot"):
        specs += [s for s in drawn if s["family"] == fam][:12]
    return specs


def test_checker_agrees_with_brute_force():
    verdicts = set()
    for spec in small_specs():
        doc = workloads.build(spec, instances)
        parsed = parse_instance(doc)
        oracle = brute_force(parsed.ring, parsed.module, bound=25000)
        assert oracle.decided, spec
        cyclic = oracle.kind == CYCLIC
        assert checker.expected_cyclic(spec, doc) == cyclic, spec
        verdicts.add((spec["family"], cyclic))
        if cyclic:
            y = parsed.module.group.to_user(oracle.generator)
            assert checker.generator_spans(doc, y), spec
        if parsed.module.order > 1:
            zero = [0] * doc["module"]["num_gens"]
            assert not checker.generator_spans(doc, zero), spec
    assert len(verdicts) == 8  # both verdicts occur in every family


def test_check_report_rejects_a_wrong_answer():
    spec = {"family": "zmod", "n": 12, "d": [4, 3]}
    doc = workloads.build(spec, instances)
    good = json.dumps({"verdict": "cyclic", "generator": ["1", "1"]})
    assert checker.check_report(spec, doc, 0, good) == "cyclic"
    bad_generator = json.dumps({"verdict": "cyclic", "generator": ["2", "1"]})
    with pytest.raises(checker.CheckFailure):
        checker.check_report(spec, doc, 0, bad_generator)
    with pytest.raises(checker.CheckFailure):
        checker.check_report(spec, doc, 1, json.dumps({"verdict": "not_cyclic"}))


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "checks_per_s", "check_p50_ms", "check_tail_ms", "peak_rss_mb"}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)

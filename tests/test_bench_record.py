"""The schema of `tools/bench_record.py`'s per-workload entry and its exit
rule, from a canned last stdout line of `bench/run.py --trace 1` and a
canned result file; no benchmark process is started."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402

PER_LAYER = {"intlinalg.hnf.calls": {"value": 56, "unit": "count"}}
END_TO_END = {"setup_s": {"value": 0.5, "unit": "s"},
              "checks_per_s": {"value": 28.7, "unit": "1/s"},
              "check_p50_ms": {"value": 29.3, "unit": "ms"},
              "check_tail_ms": {"value": 42.7, "unit": "ms"},
              "peak_rss_mb": {"value": 36.7, "unit": "MB"}}


def entry(correct=True, failed=0):
    line = json.dumps({"correct": correct, "attempted": 110, "failed": failed,
                       "metrics": PER_LAYER})
    result = {"workload": "wide", "seed": "0", "end_to_end": END_TO_END,
              "per_layer": PER_LAYER, "correct": correct}
    return bench_record.workload_entry(line, result, (0.5, 0.25, 0.125), (1.0, 0.5, 0.25))


def test_entry_keeps_the_last_line_and_the_end_to_end_block():
    got = entry()
    assert got == {"correct": True, "attempted": 110, "failed": 0,
                   "end_to_end": END_TO_END, "per_layer": PER_LAYER,
                   "loadavg_before": [0.5, 0.25, 0.125], "loadavg_after": [1.0, 0.5, 0.25]}
    assert json.loads(json.dumps(got)) == got


def test_a_wrong_or_failed_run_fails_the_record():
    assert bench_record.problems({"corpus": entry(), "wide": entry()}) == []
    assert bench_record.problems({"corpus": entry(), "swell": entry(correct=False),
                                  "wide": entry(failed=2)}) == [
        "swell: correct False, failed 0", "wide: correct True, failed 2"]
    # only the value true counts as correct
    assert bench_record.problems({"wide": entry(correct=None)}) == [
        "wide: correct None, failed 0"]

"""Record one traced benchmark run per workload into one JSON file.

    python3 tools/bench_record.py --out BENCH_<pr>.json [--seed S] [--seconds T]

For each workload it runs `bench/run.py --workload W --seed S --seconds T
--trace 1` in a fresh process, with the repository root as the working
directory.  It keeps the last line of that run's standard output (correct,
attempted, failed and the per-layer metrics of the traced round) and the
`end_to_end` block of the run's result file, bench/out/result-W-S-trace1.json.
To the record it adds the commit, whether a tracked file differs from it,
the Python version, the CPU count, and the load average before and after
each run, so that a reader can discount a run made on a busy machine.

It exits 1 if any run is not correct or has a failed check, after writing
the record.  It reads bench/ and writes only --out; bench/run.py itself
writes its files under bench/out/.  The record's schema is in README.md,
"Benchmark records".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "swell", "wide")


def workload_entry(last_line: str, result: dict, load_before, load_after) -> dict:
    """One workload's entry: the run's last stdout line, the end-to-end
    metrics of its result file, and the load average around the run."""
    line = json.loads(last_line)
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "end_to_end": result["end_to_end"],
            "per_layer": line["metrics"], "loadavg_before": list(load_before),
            "loadavg_after": list(load_after)}


def problems(workloads: dict) -> list:
    """One line per workload whose run is not correct or failed a check."""
    return [f"{name}: correct {entry['correct']}, failed {entry['failed']}"
            for name, entry in workloads.items()
            if entry["correct"] is not True or entry["failed"] != 0]


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record_workload(name: str, seed: str, seconds: float) -> dict:
    load_before = os.getloadavg()
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", seed,
                          "--seconds", repr(seconds), "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    load_after = os.getloadavg()
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"{name}: bench/run.py exited {run.returncode}")
    result_path = ROOT / "bench" / "out" / f"result-{name}-{seed}-trace1.json"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return workload_entry(lines[-1], result, load_before, load_after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    status = git("status", "--porcelain", "--untracked-files=no")
    record = {"commit": git("rev-parse", "HEAD"),
              "dirty": None if status is None else bool(status),
              "python": sys.version, "cpu_count": os.cpu_count(),
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = record_workload(name, args.seed, args.seconds)
        record["workloads"][name] = entry
        e2e = entry["end_to_end"]
        print(f"{name}: correct {entry['correct']}, failed {entry['failed']}, "
              f"{e2e['checks_per_s']['value']:.4g} checks/s, "
              f"peak RSS {e2e['peak_rss_mb']['value']:.4g} MB", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = problems(record["workloads"])
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

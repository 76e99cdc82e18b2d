"""The check benchmark: time `modcyclic check <file> --format json` in-process.

    python3 bench/run.py --workload corpus|swell|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  One closed-loop caller (one process, one thread) checks one file at
a time, in whole rounds over the workload's files, until S seconds have
passed and the workload's minimum number of rounds is done.  Every report
is confirmed by checker.py, which does not use modcyclic.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run is followed by one traced round and
the metrics are the per-layer ones from it.  Instance files, a result file
and the trace's spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# check_tail_ms is the highest of these percentiles that has at least ten
# checks beyond it in a run of the workload's minimum number of rounds.
# A run makes at least 40 checks, and rounds repeat the same files, so for
# the corpus the ten checks beyond are ten different files.
PERCENTILES = (50, 75, 90, 95, 98, 99)
MIN_CHECKS = 40
# setup_s is the median time a fresh interpreter takes to start and import
# the program, plus the median time to generate and write the files.
IMPORT_REPEATS = 5
GENERATE_REPEATS = 5


def import_program():
    if not (SRC / "modcyclic" / "cli.py").is_file():
        sys.exit(f"error: no modcyclic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modcyclic.cli
    import modcyclic.instances
    return modcyclic.cli, modcyclic.instances


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the program."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import modcyclic.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def write_files(specs, instances, workdir: Path) -> list:
    """Generate and write one file per spec, holding one document at a time."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    paths = []
    for i, spec in enumerate(specs):
        path = workdir / f"{i:04d}.json"
        path.write_text(instances.dumps(workloads.build(spec, instances)), encoding="utf-8")
        paths.append(str(path))
    return paths


def check_once(cli, path: str):
    """One timed check; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", path, "--format", "json"])
    except Exception as exc:  # a traceback is a failed check, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code not in (0, 1) and error is None:
        error = f"exit {code}: {err.getvalue().strip()[:300]}"
    return elapsed, code, out.getvalue(), error


def tail_rank(n: int, pct: int) -> int:
    """Nearest-rank index of the pct-th percentile of n sorted samples."""
    return max(math.ceil(pct * n / 100) - 1, 0)


def tail_plan(files: int) -> tuple:
    """(minimum rounds, tail percentile) for a workload of this many files."""
    rounds = math.ceil(MIN_CHECKS / files)
    n = rounds * files
    return rounds, max(p for p in PERCENTILES if n - tail_rank(n, p) - 1 >= 10)


class Outcomes:
    """Every distinct (exit code, report) per file, confirmed once each."""

    def __init__(self, specs, paths):
        self.specs, self.paths = specs, paths
        self.seen = [set() for _ in paths]
        self.attempted = 0
        self.errors = []

    def add(self, index, code, text, error):
        self.attempted += 1
        if error is None:
            self.seen[index].add((code, text))
        else:
            self.errors.append(f"{Path(self.paths[index]).name}: {error}")

    def confirm(self) -> list:
        """Run the independent checker; returns the disagreements."""
        wrong = []
        for spec, path, reports in zip(self.specs, self.paths, self.seen):
            if not reports:
                continue
            doc = checker.read_document(path)
            for code, text in reports:
                try:
                    checker.check_report(spec, doc, code, text)
                except checker.CheckFailure as exc:
                    wrong.append(f"{Path(path).name}: {exc}")
        return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, instances = import_program()
    import_s = import_seconds()
    workdir = OUT / "work" / args.workload
    gen_s = []
    for _ in range(GENERATE_REPEATS):
        start = time.perf_counter()
        specs = workloads.WORKLOADS[args.workload](args.seed)
        paths = write_files(specs, instances, workdir)
        gen_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(gen_s)

    rounds_needed, pct = tail_plan(len(paths))
    outcomes = Outcomes(specs, paths)
    per_file = [[] for _ in paths]
    rounds = 0
    start = time.perf_counter()
    while rounds < rounds_needed or time.perf_counter() - start < args.seconds:
        for index, path in enumerate(paths):
            elapsed, code, text, error = check_once(cli, path)
            per_file[index].append(elapsed)
            outcomes.add(index, code, text, error)
        rounds += 1
    times = [t for ts in per_file for t in ts]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks_per_s = len(times) / sum(times)
    ordered = sorted(times)
    rank = tail_rank(len(ordered), pct)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "checks_per_s": {"value": checks_per_s, "unit": "1/s"},
        "check_p50_ms": {"value": statistics.median(ordered) * 1e3, "unit": "ms"},
        "check_tail_ms": {"value": ordered[rank] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print(f"{args.workload} seed {args.seed}: {len(paths)} files, {rounds} rounds, "
          f"{len(times)} checks; tail is p{pct} with {len(times) - rank - 1} checks "
          f"beyond it; set-up {import_s:.3f}s start and import + median of "
          f"{', '.join(f'{g:.3f}' for g in gen_s)}s generation")
    for name, m in end_to_end.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "files": len(paths), "rounds": rounds, "tail_percentile": pct,
              "end_to_end": end_to_end,
              "files_ms": [{"spec": spec, "median_ms": statistics.median(ts) * 1e3}
                           for spec, ts in zip(specs, per_file)]}
    metrics = end_to_end
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced = []
        try:
            for index, path in enumerate(paths):
                tracer.check_id = index
                elapsed, code, text, error = check_once(cli, path)
                traced.append(elapsed)
                outcomes.add(index, code, text, error)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        traced_cps = len(traced) / sum(traced)
        print(f"tracing overhead: {traced_cps:.4g} checks/s traced against "
              f"{checks_per_s:.4g} untraced (x{checks_per_s / traced_cps:.3f} time)")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write_spans(spans_path)
        result.update(per_layer=metrics, traced_checks_per_s=traced_cps,
                      spans=str(spans_path.relative_to(BENCH.parent)))

    wrong = outcomes.confirm()
    for line in outcomes.errors[:20] + wrong[:20]:
        print(f"  FAILED {line}")
    line = {"correct": not wrong, "attempted": outcomes.attempted,
            "failed": len(outcomes.errors), "metrics": metrics}
    result.update(line)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

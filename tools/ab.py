"""Time two source trees against each other in one process, in alternated
pairs of whole rounds over one benchmark workload.

    python3 tools/ab.py --base DIR --head DIR --workload corpus|swell|wide
                        [--rounds N] [--seed S]

Each tree's `src/modcyclic` is loaded under its own package name
(`modcyclic_base`, `modcyclic_head`); the package uses only relative
imports, so the two copies share nothing but the standard library.  The
workload's files are built once, by `bench/workloads.py` (imported, never
changed) with the base tree's generators, and written to a temporary
directory.  A round checks every file once with
`cli.main(["check", file, "--format", "json"])`, as `bench/run.py` does.
Rounds run in ABBA order: pair i runs base then head for even i, head then
base for odd i, so a drift in the machine's speed falls on both sides
alike.  Every (exit code, report) of every round must equal the base
tree's first round; the first difference exits 1.

It prints each tree's median round; the median, minimum and maximum of
the per-pair ratio base / head (above 1: head is faster); that ratio's
first and third quartiles; and in how many pairs head was faster, the
count the benchmark's rule for a claimed gain reads.  Pairs measured
in one process resolve changes that separate processes do not: one tree's
best round varies between processes by more than many changes gain.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "swell", "wide")


def load_tree(root: Path, name: str):
    """The `cli` and `instances` modules of `root`'s src/modcyclic, loaded
    as the package `name`."""
    pkg = root / "src" / "modcyclic"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.instances")


def one_round(cli, paths) -> tuple:
    """Seconds for one check of every file, and the (exit code, report)
    of each."""
    outcomes = []
    gc.collect()
    start = time.perf_counter()
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["check", path, "--format", "json"])
        outcomes.append((code, out.getvalue()))
    return time.perf_counter() - start, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--rounds", type=int, default=12, help="rounds per tree")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    trees = {"base": load_tree(args.base.resolve(), "modcyclic_base"),
             "head": load_tree(args.head.resolve(), "modcyclic_head")}
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    instances = trees["base"][1]
    times = {"base": [], "head": []}
    expected = None
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, spec in enumerate(workloads.WORKLOADS[args.workload](args.seed)):
            path = Path(tmp) / f"{i:04d}.json"
            path.write_text(instances.dumps(workloads.build(spec, instances)), encoding="utf-8")
            paths.append(str(path))
        for pair in range(args.rounds):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                seconds, outcomes = one_round(trees[side][0], paths)
                expected = expected or outcomes
                wrong = next((i for i, (a, b) in enumerate(zip(expected, outcomes))
                              if a != b), None)
                if wrong is not None:
                    print(f"{side} round {len(times[side])}: file {wrong:04d} gives "
                          f"{outcomes[wrong]!r}, base gave {expected[wrong]!r}")
                    return 1
                times[side].append(seconds)

    ratios = [b / h for b, h in zip(times["base"], times["head"])]
    print(f"{args.workload} seed {args.seed}: {len(paths)} files, {args.rounds} pairs, "
          "every report equal")
    for side in ("base", "head"):
        print(f"  {side} median round {statistics.median(times[side]) * 1e3:.1f} ms")
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"  base/head per pair: median {statistics.median(ratios):.3f}, "
          f"min {min(ratios):.3f}, max {max(ratios):.3f}")
    print(f"  base/head quartiles {q1:.3f} to {q3:.3f}; head faster in "
          f"{sum(r > 1 for r in ratios)} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record and compare `check --format json --trace` reports over the
benchmark's workloads.

    python3 tools/equivalence.py --seeds 0 1 --out reports.json [--src DIR]
    python3 tools/equivalence.py --compare A.json B.json

The first form builds every file of the corpus, swell and wide workloads
for each seed with `bench/workloads.py` (imported, never changed), runs
`modcyclic.cli.main(["check", file, "--format", "json", "--trace"])`
in-process on it, and writes the exit code and the full report per file to
one JSON file.  `--src` names the source tree to import modcyclic from
(default: this checkout's `src`), so the same workload files can be run
against another checkout.  The second form lists every file whose exit
code, report (verdict, generator, iterations, witness, trace) or standard
error differs, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "swell", "wide")


def record(src: Path, seeds, out: Path) -> int:
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from modcyclic import cli, instances

    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for seed in seeds:
            for name in WORKLOAD_NAMES:
                for i, spec in enumerate(workloads.WORKLOADS[name](seed)):
                    path.write_text(instances.dumps(workloads.build(spec, instances)),
                                    encoding="utf-8")
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(["check", str(path), "--format", "json", "--trace"])
                    text = stdout.getvalue()
                    files[f"{name}-{seed}-{i:04d}"] = {
                        "exit": code,
                        "report": json.loads(text) if code in (0, 1) else None,
                        "stderr": stderr.getvalue(),
                    }
    out.write_text(json.dumps({"src": str(src), "seeds": list(seeds), "files": files},
                              indent=1) + "\n", encoding="utf-8")
    print(f"{len(files)} files recorded to {out}")
    return 0


def compare(a: Path, b: Path) -> int:
    left = json.loads(a.read_text(encoding="utf-8"))["files"]
    right = json.loads(b.read_text(encoding="utf-8"))["files"]
    differ = []
    for key in sorted(set(left) | set(right)):
        x, y = left.get(key), right.get(key)
        if x is None or y is None:
            differ.append(f"{key}: only in {a if y is None else b}")
            continue
        rx, ry = x["report"] or {}, y["report"] or {}
        fields = [f for f in ("exit", "stderr") if x[f] != y[f]]
        fields += [f for f in sorted(set(rx) | set(ry)) if rx.get(f) != ry.get(f)]
        if fields:
            differ.append(f"{key}: {', '.join(fields)}")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(set(left) | set(right))} files differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["0", "1"])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    return record(args.src.resolve(), args.seeds, args.out)


if __name__ == "__main__":
    sys.exit(main())

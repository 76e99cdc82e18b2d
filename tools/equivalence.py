"""Record and compare `check --trace` reports, JSON and text, over the
benchmark's workloads.

    python3 tools/equivalence.py --seeds 0 1 --out reports.json [--src DIR]
    python3 tools/equivalence.py --compare A.json B.json

The first form builds every file of the corpus, swell and wide workloads
for each seed with `bench/workloads.py` (imported, never changed), runs
`modcyclic.cli.main(["check", file, "--format", "json", "--trace"])`
in-process on it, and writes the exit code, the full report and the sha256
of the report's exact bytes (so key order and layout count) per file to
one JSON file, with the exit code and standard output of the text report,
`check <file> --trace`.  For every corpus and swell file it also records the
`parse_instance` outcome of two seeded single-entry mutants of the file
(see `mutant` and `MUTATED`): "ok", the list of validator diagnostics, or
the error type and message.  For every file it also runs the same check on
a copy with `ring.one` deleted, so that the identity is solved for, and
records that outcome too.  It records the sha256 of every file it writes,
the file and its drop-`one` copy, so that a change to `dumps` shows as a
difference.  Dropping `one` from a valid file is a metamorphic relation:
the outcome must equal the file's own, and the first form lists every file
where it does not and then exits 1.  `--src` names the source tree to
import modcyclic from (default: this checkout's `src`), so the same
workload files can be run against another checkout.  The second form lists
every file whose bytes (either hash), exit code, report (verdict,
generator, iterations, witness, trace), report bytes, text report, standard error,
mutant outcomes or drop-`one` outcome differ, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "swell", "wide")
MUTANTS = 2
# What one check run records, and what dropping `ring.one` must not change.
OUTCOME = ("exit", "report", "stdout_sha256", "stderr")
# The tables a mutant may change one entry of, as (section, key), per
# workload.  Swell files keep their relations: one changed module relation
# can hold the exact Smith form of `canonicalize` past ten seconds there.
PRODUCTS = (("ring", "mul"), ("module", "action"), ("ring", "one"))
MUTATED = {"corpus": PRODUCTS + (("ring", "relations"), ("module", "relations")),
           "swell": PRODUCTS}


def _vectors(value):
    """The innermost integer lists of a nested table, in order."""
    if value and all(isinstance(x, int) for x in value):
        return [value]
    return [vec for item in value or [] for vec in _vectors(item)]


def mutant(doc: dict, tables, rng: random.Random) -> dict:
    """A copy of `doc` with one entry of one of `tables` moved by +-1 to
    +-3: a table drawn among those with an entry, then an entry of it."""
    doc = json.loads(json.dumps(doc))
    tables = [vecs for vecs in (_vectors(doc[sec].get(key)) for sec, key in tables)
              if vecs]
    vec = rng.choice(rng.choice(tables))
    vec[rng.randrange(len(vec))] += rng.choice((-1, 1)) * rng.randint(1, 3)
    return doc


def outcome(instances, doc: dict):
    """What `parse_instance` makes of a document: "ok", the validator's
    diagnostics in order, or the error type and message."""
    try:
        instances.parse_instance(instances.dumps(doc))
    except instances.ValidationFailure as exc:
        return [str(d) for d in exc.diagnostics]
    except Exception as exc:  # every error the parser raises is an outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def run_cli(cli, *argv: str):
    """Exit code, standard output and standard error of one in-process
    command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def check(cli, path: Path) -> dict:
    """Exit code, parsed report (on a verdict), sha256 of the standard
    output and standard error of one in-process `check --format json
    --trace` run."""
    code, out, err = run_cli(cli, "check", str(path), "--format", "json", "--trace")
    return {"exit": code, "report": json.loads(out) if code in (0, 1) else None,
            "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stderr": err}


def check_text(cli, path: Path) -> dict:
    """Exit code and standard output of the text report, `check --trace`."""
    code, out, _ = run_cli(cli, "check", str(path), "--trace")
    return {"exit": code, "stdout": out}


def write(path: Path, text: str) -> str:
    """Write `text` to `path` as UTF-8; returns the sha256 of the bytes."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def record_files(seeds):
    """The record of every file of the given seeds' workloads, as run with
    the modcyclic that `sys.path` finds, and the keys of the files whose
    outcome changes when `ring.one` is dropped."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from modcyclic import cli, instances

    files, broken = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for seed in seeds:
            for name in WORKLOAD_NAMES:
                for i, spec in enumerate(workloads.WORKLOADS[name](seed)):
                    key = f"{name}-{seed}-{i:04d}"
                    doc = workloads.build(spec, instances)
                    files[key] = {"sha256": write(path, instances.dumps(doc))}
                    files[key].update(check(cli, path))
                    files[key]["text"] = check_text(cli, path)
                    ring = {k: v for k, v in doc["ring"].items() if k != "one"}
                    files[key]["drop_one_sha256"] = write(
                        path, instances.dumps(dict(doc, ring=ring)))
                    files[key]["drop_one"] = check(cli, path)
                    if files[key]["drop_one"] != {f: files[key][f] for f in OUTCOME}:
                        broken.append(key)
                    if name in MUTATED:
                        rng = random.Random(f"mutant:{key}")
                        files[key]["mutants"] = [
                            outcome(instances, mutant(doc, MUTATED[name], rng))
                            for _ in range(MUTANTS)]
    return files, broken


def record(src: Path, seeds, out: Path) -> int:
    sys.path.insert(0, str(src))
    files, broken = record_files(seeds)
    out.write_text(json.dumps({"src": str(src), "seeds": list(seeds), "files": files},
                              indent=1) + "\n", encoding="utf-8")
    print(f"{len(files)} files recorded to {out}")
    for key in broken:
        print(f"{key}: the outcome changes when ring.one is dropped")
    return 1 if broken else 0


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
        fields = [f for f in ("sha256", "drop_one_sha256", "exit", "stdout_sha256", "text",
                              "stderr", "mutants", "drop_one")
                  if x.get(f) != y.get(f)]
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

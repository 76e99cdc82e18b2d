"""The byte-identity contract as a test: seed 0 of the benchmark's
workloads, recorded in-process as `tools/equivalence.py` records it, must
match the digests in `equivalence_seed0.json`.

That file holds, per workload file, one truncated sha256 per field of the
tool's record (FIELDS; the record's `src` path is left out): the file's
bytes, the exit code, the parsed JSON report and its exact bytes, standard
error, the text report, the drop-`one` copy's bytes and outcome, and the
mutant outcomes.  A failure names every file and field that differs;
`tools/equivalence.py --compare` shows the detail.  Re-record the file only
in a change that says why and changes nothing else:

    PYTHONPATH=src python3 tools/equivalence.py --seeds 0 --out reports.json
    python3 tests/test_equivalence.py reports.json > tests/equivalence_seed0.json
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "equivalence_seed0.json"
SEED = "0"
FIELDS = ("sha256", "exit", "report", "stdout_sha256", "stderr", "text",
          "drop_one_sha256", "drop_one", "mutants")
DIGITS = 10


def digests(files) -> dict:
    """Per file, the truncated sha256 of each field's JSON, in FIELDS order
    and space-separated; a field the record lacks digests as null."""
    return {key: " ".join(hashlib.sha256(json.dumps(record.get(field)).encode("utf-8"))
                          .hexdigest()[:DIGITS] for field in FIELDS)
            for key, record in files.items()}


def differences(expected: dict, got: dict) -> list:
    """"key: field, field" for every file whose digests differ, or "key:
    only recorded" / "key: not recorded" for a file on one side only."""
    out = []
    for key in sorted(set(expected) | set(got)):
        if key not in got:
            out.append(f"{key}: not recorded")
        elif key not in expected:
            out.append(f"{key}: only recorded")
        elif expected[key] != got[key]:
            fields = [field for field, a, b in zip(FIELDS, expected[key].split(), got[key].split())
                      if a != b]
            out.append(f"{key}: {', '.join(fields)}")
    return out


def test_seed0_reports_match_the_recorded_digests():
    sys.path.insert(0, str(ROOT / "tools"))
    import equivalence

    files, broken = equivalence.record_files([SEED])
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == SEED and golden["fields"] == list(FIELDS)
    assert differences(golden["files"], digests(files)) == []
    assert broken == []


if __name__ == "__main__":
    # The digest file of a record written by `tools/equivalence.py --seeds 0`.
    record = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    assert record["seeds"] == [SEED], record["seeds"]
    files = digests(record["files"])
    print("{\n" + f'"seed": {json.dumps(SEED)},\n"fields": {json.dumps(list(FIELDS))},\n'
          + '"files": {\n' + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in files.items()) + "\n}\n}")

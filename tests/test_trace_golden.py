"""Traces pinned to a golden file.

`trace_golden.json` holds 40 seeded instances (draws of all four families
in the style of the benchmark's corpus, plus four cheap randquot draws
whose exact normal forms swell) with the verdict, iteration count, witness
and trace that `check --format json --trace` printed for each before the
normal forms were reduced modulo the exponent, and the generator it
printed once generators were reduced modulo the exponent of M.  All five
must stay byte-identical: a changed generator is still a generator, but
it means the driver took a different path.  The key order of the report,
its witness and each trace entry is pinned too, as the golden file keeps
it: parsed reports compare equal whatever their key order.
"""

import json
from pathlib import Path

import pytest

from modcyclic.cli import main
from modcyclic.instances import dumps

from helpers import build

CASES = json.loads((Path(__file__).parent / "trace_golden.json").read_text())


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{i:02d}-{c['spec']['family']}" for i, c in enumerate(CASES)])
def test_trace_matches_golden(tmp_path, capsys, case):
    path = tmp_path / "instance.json"
    path.write_text(dumps(build(case["spec"])))
    assert main(["check", str(path), "--format", "json", "--trace"]) == case["exit"]
    report = json.loads(capsys.readouterr().out)
    for key in ("verdict", "generator", "iterations", "witness", "trace"):
        assert report[key] == case[key], key
    assert list(report) == list(case)[2:]
    assert list(report["witness"] or ()) == list(case["witness"] or ())
    assert [list(e) for e in report["trace"]] == [list(e) for e in case["trace"]]

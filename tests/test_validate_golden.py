"""Validator diagnostics pinned to a golden file.

`validate_golden.json` holds 60 seeded single-entry mutants of instances
drawn from the benchmark's corpus with seed "golden": in turn, one entry of
`ring.mul`, `module.action`, `ring.one`, `ring.relations` or
`module.relations` is moved by +-1 to +-3.  For each it stores what
`parse_instance` made of the mutant's file: "ok", or the diagnostics of
its `ValidationFailure` as strings, in order.  42 of the 60 are invalid,
with 156 diagnostics of all four axioms.  Any change to the validators
must leave every list byte-identical: same checks, same findings, same
order.

Unvalidated parsing still checks that the generator tables are well
defined, so it must raise exactly the golden entries of that check, the
ones located at a table entry g{i}*g{j} or g{i}*m{j}, and `check
--no-validate` must then exit 2 rather than give a verdict.
"""

import json
import re
from pathlib import Path

import pytest

from modcyclic.cli import main
from modcyclic.instances import ValidationFailure, dumps, parse_instance

from helpers import build

CASES = json.loads((Path(__file__).parent / "validate_golden.json").read_text())
IDS = [f"{i:02d}-{'.'.join(c['table'])}" for i, c in enumerate(CASES)]
TABLE_ENTRY = re.compile(r"well-definedness violated at g\d+\*[gm]\d+: ")


def table_entries(case) -> list:
    """The golden diagnostics of the table well-definedness check."""
    return [] if case["outcome"] == "ok" else [
        d for d in case["outcome"] if TABLE_ENTRY.match(d)]


def mutant(case):
    doc = build(case["spec"])
    section, key = case["table"]
    vec = doc[section][key]
    for i in case["index"][:-1]:
        vec = vec[i]
    vec[case["index"][-1]] += case["delta"]
    return doc


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_diagnostics_match_golden(case):
    try:
        parse_instance(dumps(mutant(case)))
    except ValidationFailure as exc:
        assert [str(d) for d in exc.diagnostics] == case["outcome"]
    else:
        assert case["outcome"] == "ok"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_unvalidated_parse_checks_the_tables(case):
    expected = table_entries(case)
    try:
        parse_instance(dumps(mutant(case)), validate=False)
    except ValidationFailure as exc:
        assert [str(d) for d in exc.diagnostics] == expected != []
    else:
        assert expected == []


def test_unvalidated_check_rejects_ill_defined_tables(tmp_path, capsys):
    ill = [case for case in CASES if table_entries(case)]
    assert len(ill) == 13
    path = tmp_path / "mutant.json"
    for case in ill:
        path.write_text(dumps(mutant(case)))
        assert main(["check", str(path), "--no-validate"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"invalid: {d}" for d in table_entries(case)]

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

Every parse validates, so `check` gives no verdict on an invalid mutant:
it exits 2 and prints the golden diagnostics.  Among them, the parse
reports those of the generator-table check, located at a table entry
g{i}*g{j} or g{i}*m{j}, that keeps ill-defined tables from `run`.
`test_unvalidated_parse_checks_the_tables` keeps the name it had when
parsing could skip validation and still ran that one check.
"""

import json
import re
from pathlib import Path

import pytest

from modcyclic.cli import main
from modcyclic.instances import ValidationFailure, dumps, parse_instance

from helpers import build, parse_outcome, reference_parse

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
    # The parse and its per-vector reference find exactly the golden
    # table-entry diagnostics.
    text = dumps(mutant(case))
    for outcome in (parse_outcome(text), reference_parse(json.loads(text))):
        assert isinstance(outcome, tuple), outcome
        found = [] if outcome[0] == "ok" else [d for d in outcome[1] if TABLE_ENTRY.match(d)]
        assert found == table_entries(case)


def test_check_gives_no_verdict_on_an_invalid_mutant(tmp_path, capsys):
    invalid = [case for case in CASES if case["outcome"] != "ok"]
    assert len(invalid) == 42 and sum(1 for case in invalid if table_entries(case)) == 13
    path = tmp_path / "mutant.json"
    for case in invalid:
        path.write_text(dumps(mutant(case)))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"invalid: {d}" for d in case["outcome"]]

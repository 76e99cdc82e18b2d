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
"""

import json
from pathlib import Path

import pytest

from modcyclic.instances import ValidationFailure, dumps, parse_instance

from helpers import build

CASES = json.loads((Path(__file__).parent / "validate_golden.json").read_text())


def mutant(case):
    doc = build(case["spec"])
    section, key = case["table"]
    vec = doc[section][key]
    for i in case["index"][:-1]:
        vec = vec[i]
    vec[case["index"][-1]] += case["delta"]
    return doc


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{i:02d}-{'.'.join(c['table'])}" for i, c in enumerate(CASES)])
def test_diagnostics_match_golden(case):
    try:
        parse_instance(dumps(mutant(case)))
    except ValidationFailure as exc:
        assert [str(d) for d in exc.diagnostics] == case["outcome"]
    else:
        assert case["outcome"] == "ok"

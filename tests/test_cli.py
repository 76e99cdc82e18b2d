import argparse
import decimal
import functools
import json
import operator
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modcyclic
from modcyclic import cyclic, instances, rings
from modcyclic.cli import main
from modcyclic.instances import (
    dumps,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    load,
    parse_instance,
)
from modcyclic.intstr import int_from_str
from modcyclic.modules import cyclic_span_is_all
from modcyclic.oracle import CYCLIC, brute_force
from modcyclic.rings import ideal_annihilator


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "z6.json"
    path.write_text(dumps(gen_zmod(6, [2, 3])))
    return str(path)


@pytest.fixture
def noncyclic_file(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(dumps(gen_zmod(4, [2, 2])))
    return str(path)


def test_check_cyclic(cyclic_file, capsys):
    assert main(["check", cyclic_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: cyclic" in out
    assert "generator: [1, 1]" in out
    assert "iterations: 2" in out


def test_check_not_cyclic(noncyclic_file, capsys):
    assert main(["check", noncyclic_file]) == 1
    out = capsys.readouterr().out
    assert "verdict: not cyclic" in out
    assert "|A/a| = 2 < |M_(A/a)| = 4" in out


def test_check_trace_text(noncyclic_file, capsys):
    assert main(["check", noncyclic_file, "--trace"]) == 1
    out = capsys.readouterr().out
    assert "branch=iv" in out and "branch=v-no" in out


def test_check_json_output(cyclic_file, capsys):
    assert main(["check", cyclic_file, "--format", "json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "cyclic"
    assert payload["generator"] == ["1", "1"]
    assert payload["iterations"] == 2
    assert [e["branch"] for e in payload["trace"]] == ["v-yes", "yes"]
    assert payload["trace"][0]["order_A"] == "6"
    assert payload["trace"][0]["chosen_x"] == ["1"]


def test_check_json_witness(noncyclic_file, capsys):
    assert main(["check", noncyclic_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == {
        "iteration": 2, "order_A_mod_a": "2", "order_ext_mod_a": "4"}


def test_check_flags(noncyclic_file, capsys):
    # every check validates the instance and re-checks the state
    # invariants: there is no switch to skip either
    for flag in ("--no-validate", "--no-assert"):
        with pytest.raises(SystemExit) as exc:
            main(["check", noncyclic_file, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_oracle_exit_codes(cyclic_file, noncyclic_file, capsys):
    assert main(["oracle", cyclic_file]) == 0
    assert main(["oracle", noncyclic_file]) == 1
    assert main(["oracle", cyclic_file, "--bound", "3"]) == 3
    assert "exceeds bound" in capsys.readouterr().out


def test_compare(cyclic_file, noncyclic_file, capsys):
    assert main(["compare", cyclic_file]) == 0
    assert "AGREE" in capsys.readouterr().out
    assert main(["compare", noncyclic_file]) == 1
    assert "AGREE" in capsys.readouterr().out
    assert main(["compare", cyclic_file, "--bound", "2"]) == 3


def test_validate(cyclic_file, tmp_path, capsys):
    assert main(["validate", cyclic_file]) == 0

    doc = gen_zmod(4, [4])
    doc["ring"]["one"] = [2]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "identity" in err


@pytest.mark.parametrize("command", ["check", "validate"])
@pytest.mark.parametrize("key", ["ring", "one"])
def test_a_key_stated_twice_is_an_error(tmp_path, capsys, command, key):
    # `json` keeps the last value of a key stated twice: a second "ring"
    # section, or a second "one", would be decided on in silence.
    z4, z6 = gen_zmod(4, [2, 2]), gen_zmod(6, [2, 3])
    ring = json.dumps(z6["ring"])
    if key == "ring":  # Z/4's ring section, then Z/6's
        sections = '"ring": ' + json.dumps(z4["ring"]) + ', "ring": ' + ring
    else:  # "one" stated as 5, then as Z/6's own 1
        sections = '"ring": {"one": ["5"], ' + ring[1:]
    text = "{" + sections + ', "module": ' + json.dumps(z6["module"]) + "}"
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f'error: duplicate key: "{key}"\n'


@pytest.mark.parametrize("fields, key", [
    ({"format": "other", "version": 99}, "format"),
    ({"format": "modcyclic-instance", "version": 99}, "version"),
    ({"version": "2"}, "version"),
    ({"format": None}, "format"),
    ({"version": "one"}, "version"),
])
def test_an_unknown_format_or_version_is_an_error(tmp_path, capsys, fields, key):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({**gen_zmod(6, [2, 3]), **fields}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


def test_format_and_version_are_optional_and_read_like_any_field(tmp_path, capsys):
    # The family generators' documents carry neither key.
    doc = gen_zmod(6, [2, 3])
    for fields in ({}, {"format": "modcyclic-instance"}, {"version": 1}, {"version": " +1"}):
        path = tmp_path / "z6.json"
        path.write_text(json.dumps({**doc, **fields}))
        assert main(["check", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["ring", "module"])
def test_a_section_that_is_not_an_object_is_an_error(tmp_path, capsys, key):
    # A section stated as anything but an object is present, so it is not
    # "missing"; an absent one is.
    path = tmp_path / "section.json"
    doc = gen_zmod(6, [2, 3])
    for value in ("x", [], None):
        path.write_text(json.dumps({**doc, key: value}))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an object\n"
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: missing section: {key}\n"


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["check", "/nonexistent/instance.json"]) == 2
    assert main(["check", str(tmp_path)]) == 2


def test_check_decodes_the_document_once(cyclic_file, monkeypatch):
    calls = []
    original = instances.decode_document

    def counting(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(instances, "decode_document", counting)
    assert main(["check", cyclic_file]) == 0
    assert len(calls) == 1


def test_parser_is_built_once(cyclic_file, monkeypatch):
    # Building the tree of subcommands costs far more than parsing one
    # command line, so every main() after the first reuses the parser.
    assert main(["check", cyclic_file]) == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check", cyclic_file]) == 0
    assert built == []


@pytest.mark.parametrize("n, seed, max_deg, width", [
    (15, 11, 7, 2),        # entries once passed the 4,300-digit str() limit
    (30, 10, 6, 3),
    (24, 520611, 8, 1),    # entries once had 522 digits
])
def test_printed_generator_is_small_and_spans(tmp_path, capsys, n, seed, max_deg, width):
    doc = gen_randquot(n, seed, max_deg=max_deg, summands=2)
    path = tmp_path / "rq.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path), "--format", "json"]) == 0
    gen = [int(x) for x in json.loads(capsys.readouterr().out)["generator"]]
    assert max(len(str(x)) for x in gen) <= width
    parsed = parse_instance(doc)
    assert all(0 <= x < parsed.module.group.exponent for x in gen)
    y = parsed.module.group.from_user(gen)
    assert cyclic_span_is_all(parsed.module, y)


def test_deep_nesting_is_an_error_not_a_verdict(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_failed_self_check_is_an_error_not_a_verdict(noncyclic_file, capsys, monkeypatch):
    def broken(module, i_a):
        raise RuntimeError("subgroup lattice lost full rank")

    monkeypatch.setattr(cyclic, "scalar_extension", broken)
    assert main(["check", noncyclic_file]) == 2
    assert "error: " in capsys.readouterr().err
    assert main(["compare", noncyclic_file]) == 2


def test_wrong_identity_solve_is_an_error_not_a_verdict(tmp_path, capsys, monkeypatch):
    # find_identity checks the solved candidate on every generator, outside
    # the solver: a wrong solution stops the run.
    doc = gen_zmod(6, [2, 3])
    del doc["ring"]["one"]
    path = tmp_path / "z6_no_one.json"
    path.write_text(dumps(doc))
    real = rings.solve_congruence

    def off_by_one(*args):
        x = real(*args)
        return [x[0] + 1] + x[1:]

    monkeypatch.setattr(rings, "solve_congruence", off_by_one)
    with pytest.raises(RuntimeError, match="does not fix generator"):
        parse_instance(doc)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RuntimeError") and "Traceback" not in err


def test_ill_defined_ring_never_starts_the_run(tmp_path, capsys, monkeypatch):
    # Z/4 x Z/2 with g1*g1 = g0, which 2*g1 = 0 does not kill.  The parse
    # checks the canonical tables, so the run never starts.
    doc = {"format": "modcyclic-instance", "version": 1,
           "ring": {"num_gens": 2, "relations": [[4, 0], [0, 2]],
                    "mul": [[[1, 3], [0, 0]], [[0, 0], [1, 2]]], "one": [1, 0]},
           "module": {"num_gens": 1, "relations": [[2]], "action": [[[0]], [[0]]]}}
    path = tmp_path / "ill.json"
    path.write_text(json.dumps(doc))
    calls = []

    def recording(ring, i_a, x):
        calls.append(x)
        return ideal_annihilator(ring, i_a, x)

    monkeypatch.setattr(cyclic, "ideal_annihilator", recording)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert all(line.startswith("invalid: ") for line in lines)
    assert ("invalid: well-definedness violated at g0*g0: product does not vanish under "
            "the generator orders (2, 2)") in lines
    assert calls == []


def test_ill_defined_ring_without_one_reports_diagnostics(tmp_path, capsys):
    # Z/6 x Z/2 whose table 2*g1 = 0 does not kill, and no `one`: the
    # identity is not solved for on ill-defined tables, so the check reports
    # the diagnostics already found, the same lines that lead the report
    # when `one` is given.
    doc = {"ring": {"num_gens": 2, "relations": [["6", "0"], ["0", "2"]],
                    "mul": [[["1", "3"], ["0", "2"]], [["1", "2"], ["2", "1"]]]},
           "module": {"num_gens": 0, "relations": [], "action": [[], []]}}
    path = tmp_path / "ill_no_one.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    descent = [
        "invalid: well-definedness violated at ring relation 1 x g0: multiplication "
        "does not kill a stated ring relation",
        "invalid: well-definedness violated at ring relation 1 x g1: multiplication "
        "does not kill a stated ring relation"]
    assert captured.err.splitlines() == descent
    doc["ring"]["one"] = ["1", "0"]
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[:2] == descent and all(line.startswith("invalid: ") for line in lines)
    assert lines[2:4] == [
        "invalid: well-definedness violated at g0*g0: product does not vanish under "
        "the generator orders (2, 2)",
        "invalid: well-definedness violated at g0*g1: product does not vanish under "
        "the generator orders (2, 6)"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_integers_past_the_digit_limit(tmp_path, capsys, fmt):
    # 10^4400 has 4,401 digits, past the interpreter's 4,300-digit limit on
    # int/str conversion; reading, the verdict and printing must not care.
    n = 10 ** 4400
    digits = "1" + "0" * 4400
    for d, code, orders in (([1], 0, [digits]), ([n, n], 1, [digits, digits + "0" * 4400])):
        path = tmp_path / "big.json"
        path.write_text(dumps(gen_zmod(n, d)))
        assert main(["check", str(path), "--format", fmt, "--trace"]) == code
        out = capsys.readouterr().out
        if fmt == "json":
            report = json.loads(out)
            assert report["trace"][0]["order_A"] == digits
            if code:
                witness = report["witness"]
                assert [witness["order_A_mod_a"], witness["order_ext_mod_a"]] == orders
        else:
            assert f"iter 1: |A|={digits} branch=" in out
            if code:
                assert f"|A/a| = {orders[0]} < |M_(A/a)| = {orders[1]}" in out


# "1" followed by 200,000 zeros: int/str conversion refuses it past the
# interpreter's 4,300-digit limit, and every message must print it anyway.
HUGE = "1" + "0" * 200000


def test_generator_orders_past_the_digit_limit_in_diagnostics(tmp_path, capsys):
    # Z/2 x Z/HUGE with an ill-defined table: the well-definedness lines
    # name the order HUGE, as they would with no digit limit.
    doc = {"ring": {"num_gens": 2, "relations": [["2", "0"], ["0", HUGE]],
                    "mul": [[["0", "0"], ["0", "1"]], [["0", "1"], ["0", "1"]]],
                    "one": ["1", "0"]},
           "module": {"num_gens": 0, "relations": [], "action": [[], []]}}
    path = tmp_path / "huge_orders.json"
    path.write_text(json.dumps(doc))
    associativity = "(g_i*g_k)*x differs from g_i*(g_k*x) on a generator"
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid: well-definedness violated at ring relation 0 x g1: multiplication "
        "does not kill a stated ring relation",
        "invalid: well-definedness violated at g0*g1: product does not vanish under "
        f"the generator orders (2, {HUGE})",
        "invalid: well-definedness violated at g1*g0: product does not vanish under "
        f"the generator orders ({HUGE}, 2)",
        f"invalid: associativity violated at mul(g0, g0, *): {associativity}",
        f"invalid: associativity violated at mul(g1, g0, *): {associativity}",
        "invalid: identity violated at 1*g0: identity candidate Element(1, 0) does not "
        "fix generator 0"]


def test_identity_candidate_past_the_digit_limit_in_diagnostics(tmp_path, capsys):
    # Z/HUGE whose stated `one`, HUGE - 1, fixes nothing: its diagnostic
    # prints the candidate.
    nines = "9" * 200000
    doc = {"ring": {"num_gens": 1, "relations": [[HUGE]], "mul": [[["1"]]], "one": [nines]},
           "module": {"num_gens": 0, "relations": [], "action": [[]]}}
    path = tmp_path / "huge_one.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"invalid: identity violated at 1*g0: identity candidate "
                            f"Element({nines},) does not fix generator 0\n")


def test_gen_randquot_modulus_past_the_digit_limit(tmp_path, capsys):
    # A modulus of 4,401 digits is valid: the file is written.
    big = "1" + "0" * 4400
    out = tmp_path / "big.json"
    assert main(["gen", "--family", "randquot", "--n", big, "--max-deg", "1",
                 "--summands", "1", "--seed", "0", "-o", str(out)]) == 0
    assert load(out)["ring"]["relations"] == [[10 ** 4400]]
    assert main(["validate", str(out)]) == 0


@pytest.mark.parametrize("option, rule", [("--n", "n must be at least 2"),
                                          ("--max-deg", "max_deg must be at least 1"),
                                          ("--summands", "summands must be nonnegative")])
def test_gen_randquot_refusals_past_the_digit_limit(capsys, option, rule):
    # Minus 4,401 digits is refused by the option's own message, which
    # prints the value.
    big = "1" + "0" * 4400
    assert main(["gen", "--family", "randquot", "--n", "4", option, "-" + big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: randquot: {rule}, got -{big}\n"


SMALL_FAMILIES = [gen_zmod(4, [2, 2]), gen_zmod(6, [2, 3]), gen_trunc(2, 2, [2, 1]),
                  gen_randquot(3, 1, max_deg=2)]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_integer_past_the_digit_limit_in_any_slot(tmp_path, capsys, data):
    # One integer of 5,000 digits in place of any integer of a small family
    # file: whatever it makes of the file, no message hits the digit limit.
    text = dumps(data.draw(st.sampled_from(SMALL_FAMILIES)))
    slots = list(re.finditer(r"-?[0-9]+", text))
    slot = slots[data.draw(st.integers(0, len(slots) - 1))]
    # drawn from a seed: hypothesis itself cannot print an int this long
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32)))
    value = (data.draw(st.sampled_from(("", "-"))) + rnd.choice("123456789")
             + "".join(rnd.choices("0123456789", k=4999)))
    path = tmp_path / "slot.json"
    path.write_text(text[:slot.start()] + value + text[slot.end():])
    flags = data.draw(st.sampled_from(([], ["--format", "json", "--trace"])))
    assert main(["check", str(path), *flags]) in (0, 1, 2)
    assert "Exceeds the limit" not in capsys.readouterr().err


@st.composite
def small_family_doc(draw):
    """A zmod, trunc or two-factor prod document with k, m <= 4."""
    def zmod(max_summands):
        n = draw(st.sampled_from((2, 3, 4, 6, 8, 12)))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        return gen_zmod(n, draw(st.lists(st.sampled_from(divisors), min_size=1,
                                         max_size=max_summands)))

    family = draw(st.sampled_from(("zmod", "trunc", "prod")))
    if family == "zmod":
        return zmod(4)
    if family == "trunc":
        p, e = draw(st.sampled_from((2, 3))), draw(st.integers(1, 4))
        return gen_trunc(p, e, draw(st.lists(st.integers(1, e), min_size=1,
                                             max_size=4 // e)))
    trunc = gen_trunc(2, 2, [draw(st.integers(1, 2))])
    return gen_prod(zmod(2), draw(st.sampled_from((trunc, zmod(2)))))


def node_paths(obj, prefix=()):
    """The key path of every node below `obj`, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, prefix + (key,))


def with_strings(obj):
    """`obj` with every int spelled as a decimal string."""
    if isinstance(obj, dict):
        return {key: with_strings(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [with_strings(value) for value in obj]
    return str(obj) if isinstance(obj, int) else obj


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=small_family_doc(), strings=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_one_changed_node_never_crashes_check(tmp_path, capsys, doc, strings, seed):
    # One node of a small family file, replaced by a value of a wrong type,
    # a wrong length or a wrong spelling, or deleted; the node, the change
    # and the value are drawn from a seed, so that each is as likely as any
    # other.  Relation matrices stay at most 4 columns wide and digit
    # strings at most 5,000 digits: the exact Smith form of `canonicalize`
    # swells without end on some wider presentations (ROADMAP item 9), and
    # `int_to_str` is quadratic past the digit limit, so bigger nodes would
    # time the parse rather than test that a bad file is refused.
    doc = with_strings(doc) if strings else doc
    rnd = random.Random(seed)
    path = rnd.choice(list(node_paths(doc)))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    node = parent[path[-1]]
    kind = rnd.choice(("bool", "none", "float", "dict", "text", "digits", "negative",
                       "length", "delete"))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "length" and isinstance(node, list):
        parent[path[-1]] = node[:-1] if node and rnd.random() < 0.5 else node + node[:1] or [0]
    elif kind == "length":
        parent[path[-1]] = [node, node]
    else:
        value = {"bool": rnd.choice((True, False)), "none": None,
                 "float": rnd.choice((0.5, 2.0)), "dict": {},
                 "text": rnd.choice(("", "x", "1.5", "0x3", "1e3", "--2", "\u0663", "2 3")),
                 "digits": rnd.choice("123456789") + "".join(rnd.choices("0123456789", k=4999)),
                 "negative": -rnd.randint(1, 12)}[kind]
        parent[path[-1]] = str(value) if strings and kind == "negative" else value
    text = json.dumps(doc)
    file = tmp_path / "changed.json"
    file.write_text(text)
    code = main(["check", str(file), "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if code != 2:
        parsed = parse_instance(text)
        if parsed.module.order <= 10 ** 4:
            verdict = brute_force(parsed.ring, parsed.module)
            assert (verdict.kind == CYCLIC) == (code == 0)


def test_not_finite_is_an_error(tmp_path, capsys):
    doc = gen_zmod(4, [4])
    doc["ring"]["relations"] = []
    path = tmp_path / "inf.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "not" in capsys.readouterr().err.lower()


def test_rank_deficient_relations_fail_before_elimination(tmp_path, capsys):
    # 10^6 module generators and no relation: a k x k transform would need
    # terabytes, so the rank test must come first.
    doc = {"ring": {"num_gens": "0", "relations": [], "mul": []},
           "module": {"num_gens": "1000000", "relations": [], "action": []}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("error: module: not finite: relation matrix rank "
                                       "is below the generator count\n")


def test_gen_families(tmp_path):
    z = tmp_path / "z.json"
    assert main(["gen", "--family", "zmod", "--n", "6", "--d", "2,3",
                 "-o", str(z)]) == 0
    assert load(str(z)) == gen_zmod(6, [2, 3])

    t = tmp_path / "t.json"
    assert main(["gen", "--family", "trunc", "--p", "2", "--e", "3",
                 "-o", str(t)]) == 0
    assert load(str(t)) == gen_trunc(2, 3)

    pr = tmp_path / "prod.json"
    assert main(["gen", "--family", "prod", "--left", str(z), "--right", str(t),
                 "-o", str(pr)]) == 0
    assert main(["check", str(pr)]) in (0, 1)

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["gen", "--family", "randquot", "--n", "4", "--seed", "9",
                 "-o", str(r1)]) == 0
    assert main(["gen", "--family", "randquot", "--n", "4", "--seed", "9",
                 "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_gen_stdout_and_param_errors(tmp_path, capsys):
    assert main(["gen", "--family", "zmod", "--n", "6", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ring"]["num_gens"] == 1
    assert main(["gen", "--family", "zmod", "--n", "6", "--d", "4"]) == 2
    assert main(["gen", "--family", "zmod"]) == 2
    assert main(["gen", "--family", "trunc", "--p", "1", "--e", "2"]) == 2
    assert main(["gen", "--family", "prod", "--left", "x"]) == 2
    capsys.readouterr()
    # an error, not a file: a negative summand count, and integer lists
    # spelled other than in ASCII digits (int() reads 12 and 3 here) or of
    # 5,000 digits
    for argv in (["--family", "randquot", "--n", "4", "--summands", "-1"],
                 ["--family", "zmod", "--n", "12", "--d", "1_2,\u0663"],
                 ["--family", "zmod", "--n", "6", "--d", "2," + "1" * 5000],
                 ["--family", "trunc", "--p", "2", "--e", "3", "--mdeg", "9" * 5000]):
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Exceeds the limit" not in captured.err


@pytest.mark.parametrize("option, argv", [
    ("--n", ["gen", "--family", "zmod", "--d", "3"]),
    ("--n", ["gen", "--family", "randquot"]),
    ("--p", ["gen", "--family", "trunc", "--e", "2"]),
    ("--e", ["gen", "--family", "trunc", "--p", "3"]),
    ("--max-deg", ["gen", "--family", "randquot", "--n", "4"]),
    ("--summands", ["gen", "--family", "randquot", "--n", "4"]),
])
@pytest.mark.parametrize("spelling", ["1_2", "\u0663", " 3", "3 ", "0x3", "3.0"])
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, option, argv, spelling):
    # int() reads "1_2" as 12, "\u0663" as 3 and " 3" as 3; each is an
    # error, not a file
    out = tmp_path / "gen.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, spelling, "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: not a decimal integer: {spelling!r}" in captured.err


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_bound_takes_only_ascii_digits(cyclic_file, capsys, command):
    for spelling in ("1_0", "\u0663", " 3"):
        with pytest.raises(SystemExit) as exc:
            main([command, cyclic_file, "--bound", spelling])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    # a sign and leading zeros are decimal spellings
    assert main([command, cyclic_file, "--bound", "+0003"]) == 3


TOO_LARGE = {
    "oracle": "oracle: module order {order} exceeds bound {bound}\n",
    "compare": "oracle too large (|M| = {order} > bound {bound}); algorithm says {verdict}\n",
}


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_too_large_names_the_order_and_the_bound(tmp_path, capsys, command):
    # |M| and the bound are printed in full, also past the 4,300-digit
    # limit of str()
    small = tmp_path / "small.json"
    small.write_text(dumps(gen_trunc(2, 5, [5, 5])))  # |M| = 2^10
    huge = "1" + "0" * 4401
    big = tmp_path / "big.json"
    assert main(["gen", "--family", "zmod", "--n", huge, "--d", huge, "-o", str(big)]) == 0
    for path, order, bound, verdict in ((small, "1024", "1000", "not_cyclic"),
                                        (big, huge, huge[:-1], "cyclic")):
        assert main([command, str(path), "--bound", bound]) == 3
        assert capsys.readouterr().out == TOO_LARGE[command].format(
            order=order, bound=bound, verdict=verdict)


def test_int_from_str_past_the_digit_limit():
    # read by halves past the 4,300-digit limit: the value decimal gives
    rnd = random.Random(4300)
    for length in (4300, 4301, 10007, 200001):
        digits = "00" + "".join(rnd.choice("0123456789") for _ in range(length - 2))
        for sign in ("-", "+", "") if length < 200001 else ("-",):
            text = sign + digits
            assert int_from_str(text) == int(decimal.Decimal(text)), (sign, length)


def test_warning_goes_to_stderr(tmp_path, capsys):
    from modcyclic.instances import gen_prod
    doc = gen_prod(gen_zmod(2, [2]), gen_zmod(2, [2]))
    doc["ring"]["mul"][1][0] = [2, 0]
    path = tmp_path / "warn.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_console_entry_point_subprocess(cyclic_file):
    # the child imports the package under test, wherever pytest found it
    src = str(Path(modcyclic.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "modcyclic", "check", cyclic_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict: cyclic" in proc.stdout

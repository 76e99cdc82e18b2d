import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcyclic
from modcyclic import cyclic, instances
from modcyclic.cli import main
from modcyclic.instances import dumps, gen_randquot, gen_trunc, gen_zmod, load, parse_instance
from modcyclic.modules import cyclic_span_is_all


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


def test_check_flags(noncyclic_file):
    assert main(["check", noncyclic_file, "--no-validate", "--no-assert"]) == 1


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
    parsed = parse_instance(doc, validate=False)
    assert all(0 <= x < parsed.module.group.exponent for x in gen)
    y = parsed.module.group.from_user(gen)
    assert cyclic_span_is_all(parsed.ring, parsed.module, y)


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


def test_not_finite_is_an_error(tmp_path, capsys):
    doc = gen_zmod(4, [4])
    doc["ring"]["relations"] = []
    path = tmp_path / "inf.json"
    path.write_text(dumps(doc))
    assert main(["check", str(path)]) == 2
    assert "not" in capsys.readouterr().err.lower()


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

"""Which functions of the package the command line never enters.

A fixed, small traffic runs under `sys.setprofile`: `gen` for every
family; `check --trace` in text and JSON on a cyclic and a not-cyclic
file; `check` on an ill-defined file, one without `ring.one` and one whose
modulus is past the interpreter's 4,300-digit limit on int();
`oracle`, `compare` and `validate`.  Every function and method defined
in the package's sources that none of it enters must be named in
UNREACHED with its reason: the benchmark's tracer or checker pins it, it
runs only on an error, or it is a data-model method that only tests or
printing call.  A public function that only the tests reach is neither, so
it shows here.  Run as a script, it prints what the traffic of
`tools/equivalence.py` leaves unreached:

    PYTHONPATH=src python3 tests/test_reach.py --seeds 0
"""

import ast
import json
import sys
from pathlib import Path

import modcyclic
from modcyclic.cli import build_parser, main
from modcyclic.instances import dumps, gen_prod, gen_zmod
from modcyclic.intstr import _power_of_ten

PACKAGE = Path(modcyclic.__file__).resolve().parent
# The benchmark files that can pin a function here; read, never changed.
BENCH_FILES = [Path(__file__).resolve().parent.parent / "bench" / name
               for name in ("tracing.py", "test_checker.py")]

BENCH_PIN = "the benchmark's tracer or checker names it"
ERROR_ONLY = "runs only when an input or an internal check fails"
DUNDER = "a data-model method: printing, hashing or comparing it"

UNREACHED = {
    "abelian.quotient": BENCH_PIN,
    "rings.ideal_span": BENCH_PIN,
    "modules.submodule_plus_ideal_module_is_all": BENCH_PIN,
    "modules.FiniteModule.act": BENCH_PIN,
    "oracle.OracleVerdict.decided": BENCH_PIN,
    "intlinalg.invert_unimodular": BENCH_PIN,
    "cli._err": ERROR_ONLY,
    "cyclic.InvariantViolationError.__init__": ERROR_ONLY,
    "abelian.CanonicalGroup.__eq__": DUNDER,
    "abelian.CanonicalGroup.__repr__": DUNDER,
    "abelian.CanonicalGroup.__hash__": DUNDER,
    "abelian.Subgroup.__repr__": DUNDER,
    "abelian.Element.__eq__": DUNDER,
    "abelian.Element.__hash__": DUNDER,
    "cyclic.TraceEntry.__repr__": DUNDER,
    "intlinalg.IntMatrix.__eq__": DUNDER,
    "intlinalg.IntMatrix.__repr__": DUNDER,
    "modules.FiniteModule.__repr__": DUNDER,
    "rings.FiniteRing.__repr__": DUNDER,
}


def defined_functions() -> dict:
    """(source file, first line) -> "module.Qual.name" for every def in
    the package; a decorated def starts at its first decorator, as its code
    object does."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path, path.stem + ".")
    return found


def bench_names() -> set:
    """Every identifier, attribute and string constant of BENCH_FILES."""
    names = set()
    for path in BENCH_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unreached(traffic) -> set:
    """The package functions that `traffic()` never enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        traffic()
    finally:
        sys.setprofile(None)
    keys = {(code.co_filename, code.co_firstlineno) for code in entered}
    return {name for key, name in defined_functions().items() if key not in keys}


def cli_traffic(tmp: Path) -> list:
    """Argument lists for every command of the command line, on small
    files; the `gen` runs come first and write the files the rest read."""
    def path(name):
        return str(tmp / name)

    runs = [
        ["gen", "--family", "zmod", "--n", "6", "--d", "2,3", "-o", path("cyclic.json")],
        ["gen", "--family", "zmod", "--n", "4", "--d", "2,2", "-o", path("not_cyclic.json")],
        ["gen", "--family", "trunc", "--p", "2", "--e", "3", "--mdeg", "3,2",
         "-o", path("trunc.json")],
        ["gen", "--family", "prod", "--left", path("cyclic.json"),
         "--right", path("not_cyclic.json"), "-o", path("prod.json")],
        ["gen", "--family", "randquot", "--n", "3", "--seed", "3", "--max-deg", "3",
         "-o", path("randquot.json")],
        ["gen", "--family", "zmod", "--n", "1" + "0" * 4400, "--d", "1",
         "-o", path("huge.json")],
    ]
    # Z/6 x Z/2 with g0*g1 = g0, which 2 does not kill
    ill = gen_prod(gen_zmod(6, [6]), gen_zmod(2, [2]))
    ill["ring"]["mul"][0][1] = ill["ring"]["mul"][1][0] = [1, 0]
    Path(path("ill.json")).write_text(dumps(ill))
    no_one = gen_zmod(6, [2, 3])
    del no_one["ring"]["one"]
    Path(path("no_one.json")).write_text(dumps(no_one))
    for name in ("cyclic", "not_cyclic", "trunc", "prod", "randquot"):
        runs += [["check", path(f"{name}.json"), "--trace"],
                 ["check", path(f"{name}.json"), "--format", "json", "--trace"]]
    runs += [["check", path("ill.json")], ["check", path("no_one.json")],
             ["check", path("huge.json")]]
    for command in ("oracle", "compare", "validate"):
        runs += [[command, path("cyclic.json")], [command, path("not_cyclic.json")]]
    return runs


def test_the_cli_enters_every_function_but_the_pinned_ones(tmp_path, capsys):
    # an earlier test may have built the parser or a power of ten
    build_parser.cache_clear()
    _power_of_ten.cache_clear()
    codes = []
    missed = unreached(lambda: codes.extend(main(argv) for argv in cli_traffic(tmp_path)))
    capsys.readouterr()
    # gen; check on cyclic, not_cyclic, trunc, prod, randquot; ill-defined,
    # without `one` and past the digit limit; oracle, compare, validate
    assert codes == ([0] * 6 + [0] * 2 + [1] * 6 + [0] * 2 + [2, 0, 0]
                     + [0, 1, 0, 1, 0, 0])
    assert sorted(missed) == sorted(UNREACHED)


def test_every_bench_pin_is_named_by_the_benchmark():
    # A BENCH_PIN reason holds only while the tracer or the checker names
    # the function; once neither does, this names the function to delete.
    named = bench_names()
    assert sorted(name for name, reason in UNREACHED.items()
                  if reason == BENCH_PIN and name.rsplit(".", 1)[-1] not in named) == []


if __name__ == "__main__":
    # Profile `tools/equivalence.py` on the given arguments (its --out goes
    # to a temporary file) and print what it leaves unreached, with whether
    # UNREACHED names it.
    import tempfile
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "tools"))
    import equivalence

    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "reports.json")
        missed = unreached(lambda: equivalence.main(sys.argv[1:] + ["--out", out]))
    print(json.dumps({name: UNREACHED.get(name, "not in UNREACHED")
                      for name in sorted(missed)}, indent=2))

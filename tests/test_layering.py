"""Which modules may know how a lattice is encoded, and what the package
root exports.

The normal forms and the lattice kernel live in `intlinalg`; `abelian` is
the only module that builds lattices for them, and it wraps a lattice's
rows in an `IntMatrix` only to hand them to `hnf` or `snf`.  The ring,
module and driver layers speak of subgroups, and take from `intlinalg` at
most the product kernel.  Only `cli` knows how a report is written, so the
driver imports neither `instances` nor `cli`.  Nothing outside the package
and the standard library is imported.  Checked on the syntax trees of the
package's sources.  The root exports the names README's Library
section lists, and no other.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import modcyclic

PACKAGE = Path(modcyclic.__file__).resolve().parent
LATTICE_NAMES = {"hnf", "snf", "kernel_mod_lattice"}
LATTICE_MODULES = {"intlinalg.py", "abelian.py"}
PRODUCT_KERNELS = {"lincomb"}


def trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def named(tree):
    """Every identifier the module binds, reads, imports or reaches by
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def intlinalg_imports(tree):
    """Names taken from `intlinalg`, with "*" for a whole-module import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rsplit(".", 1)[-1] == "intlinalg":
                yield from (alias.name for alias in node.names)
            elif any(alias.name == "intlinalg" for alias in node.names):
                yield "*"
        elif isinstance(node, ast.Import):
            if any(alias.name.endswith(".intlinalg") for alias in node.names):
                yield "*"


def test_lattice_kernels_are_named_only_in_intlinalg_and_abelian():
    found = {name: sorted(LATTICE_NAMES & set(named(tree))) for name, tree in trees()}
    assert found["intlinalg.py"] and found["abelian.py"]
    assert {name: hits for name, hits in found.items()
            if hits and name not in LATTICE_MODULES} == {}


def test_only_the_normal_forms_take_an_intmatrix():
    # A lattice is the tuple of its rows; `IntMatrix` is built only as the
    # argument of `hnf` and `snf`, whose shapes the benchmark's tracer reads.
    found = {name for name, tree in trees() if "IntMatrix" in set(named(tree))}
    assert found == {"intlinalg.py", "abelian.py"}
    tree = dict(trees())["abelian.py"]
    inside = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
              and call.func.id in ("hnf", "snf")
              for arg in call.args for node in ast.walk(arg)}
    outside = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "IntMatrix" and id(node) not in inside]
    assert outside == []


def test_modules_and_driver_take_only_product_kernels_from_intlinalg():
    imported = {name: set(intlinalg_imports(tree)) for name, tree in trees()
                if name in ("modules.py", "cyclic.py")}
    assert set(imported) == {"modules.py", "cyclic.py"}
    assert {name: sorted(names - PRODUCT_KERNELS) for name, names in imported.items()
            if names - PRODUCT_KERNELS} == {}


def test_driver_imports_nothing_from_instances_or_cli():
    imported = set()
    for node in ast.walk(dict(trees())["cyclic.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert imported & {"instances", "cli"} == set()


# A module knows its ring, so a function handed both has two homes for one
# fact, and nothing checks that they agree.  The one exception is pinned.
RING_AND_MODULE = {
    "oracle.brute_force": "the benchmark's checker calls it positionally with both",
}


def ring_and_module_takers(tree, prefix):
    """Functions that take, and classes whose annotated fields hold, both a
    ring and a module: named `ring` or annotated `FiniteRing`, and named
    `module` or `mod` or annotated `FiniteModule`."""
    def kind(name, annotation):
        hint = ast.unparse(annotation) if annotation is not None else ""
        if name == "ring" or hint == "FiniteRing":
            return "ring"
        if name in ("module", "mod") or hint == "FiniteModule":
            return "module"
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            kinds = {kind(a.arg, a.annotation)
                     for a in args.posonlyargs + args.args + args.kwonlyargs}
        elif isinstance(node, ast.ClassDef):
            kinds = {kind(item.target.id, item.annotation) for item in node.body
                     if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        else:
            continue
        if {"ring", "module"} <= kinds:
            yield prefix + node.name


def test_nothing_takes_both_a_ring_and_its_module():
    found = {name for path, tree in trees()
             for name in ring_and_module_takers(tree, path.removesuffix(".py") + ".")}
    assert sorted(found - set(RING_AND_MODULE)) == []
    assert set(RING_AND_MODULE) <= found


def test_the_package_imports_only_itself_and_the_standard_library():
    # The package stays pure standard library at run time: every import is
    # relative, names the package, or names a module the interpreter ships.
    allowed = sys.stdlib_module_names | {"modcyclic"}
    found = []
    for name, tree in trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(name, module) for module in modules
                      if module.split(".")[0] not in allowed]
    assert found == []


def test_the_root_exports_what_readme_lists():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listing = next(p for p in library.split("\n\n") if p.startswith("The package root exports"))
    public = {name for name, value in vars(modcyclic).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(re.findall(r"`([A-Za-z_]\w*)`", listing))

"""Command-line front end.

Exit codes: 0 = cyclic, 1 = not cyclic, 2 = error or invalid instance
(every failure that is not a verdict), 3 = module too large for the
oracle (oracle/compare only).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import instances, oracle
from .abelian import NotFiniteError
from .cyclic import CyclicityResult, InvariantViolationError, run
from .instances import InstanceFormatError, ValidationFailure, int_to_str

EXIT_CYCLIC = 0
EXIT_NOT_CYCLIC = 1
EXIT_ERROR = 2
EXIT_TOO_LARGE = 3


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def _parse_file(path: str, validate: bool):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = instances.parse_instance(text, validate=validate)
    for w in parsed.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return parsed


def _text(v) -> str:
    """str(v) for an int, or a list or tuple of ints, of any number of digits."""
    if isinstance(v, int):
        return int_to_str(v)
    inner = ", ".join(map(int_to_str, v)) + ("," if isinstance(v, tuple) and len(v) == 1 else "")
    return f"[{inner}]" if isinstance(v, list) else f"({inner})"


def _trace_lines(result: CyclicityResult) -> list:
    lines = []
    for e in result.trace:
        bits = [f"iter {e.iteration}: |A|={_text(e.order_A)} branch={e.branch}"]
        if e.chosen_x is not None:
            bits.append(f"x={_text(e.chosen_x)}")
        if e.order_a is not None:
            bits.append(f"|a|={_text(e.order_a)} |b|={_text(e.order_b)} meet_zero={e.meet_zero}")
        if e.order_A_mod_a is not None:
            bits.append(f"|A/a|={_text(e.order_A_mod_a)} |M_(A/a)|={_text(e.order_ext_mod_a)}")
        lines.append(" ".join(bits))
    return lines


def cmd_check(args) -> int:
    parsed = _parse_file(args.file, validate=not args.no_validate)
    result = run(parsed.ring, parsed.module, check_invariants=not args.no_assert)
    gen_user = (parsed.module.group.to_user(result.generator)
                if result.generator is not None else None)
    if args.format == "json":
        payload = {
            "verdict": result.verdict,
            "generator": None if gen_user is None else [int_to_str(c) for c in gen_user],
            "iterations": result.iterations,
            "witness": None if result.witness is None else {
                "iteration": result.witness.iteration,
                "order_A_mod_a": int_to_str(result.witness.quotient_ring_order),
                "order_ext_mod_a": int_to_str(result.witness.extension_order),
            },
        }
        if args.trace:
            payload["trace"] = [e.to_json_dict() for e in result.trace]
        print(json.dumps(payload, indent=2))
    else:
        if result.cyclic:
            print("verdict: cyclic")
            print(f"generator: {_text(gen_user)}")
        else:
            w = result.witness
            print("verdict: not cyclic")
            print(f"witness: iteration {w.iteration}, |A/a| = {_text(w.quotient_ring_order)} "
                  f"< |M_(A/a)| = {_text(w.extension_order)}")
        print(f"iterations: {result.iterations}")
        if args.trace:
            for line in _trace_lines(result):
                print(line)
    return EXIT_CYCLIC if result.cyclic else EXIT_NOT_CYCLIC


def cmd_oracle(args) -> int:
    parsed = _parse_file(args.file, validate=True)
    verdict = oracle.brute_force(parsed.ring, parsed.module, bound=args.bound)
    if verdict.kind == oracle.TOO_LARGE:
        print(f"oracle: module order {_text(verdict.module_order)} exceeds bound {verdict.bound}")
        return EXIT_TOO_LARGE
    if verdict.kind == oracle.CYCLIC:
        gen_user = parsed.module.group.to_user(verdict.generator)
        print("verdict: cyclic")
        print(f"generator: {_text(gen_user)}")
        return EXIT_CYCLIC
    print("verdict: not cyclic")
    return EXIT_NOT_CYCLIC


def cmd_compare(args) -> int:
    parsed = _parse_file(args.file, validate=True)
    result = run(parsed.ring, parsed.module)
    verdict = oracle.brute_force(parsed.ring, parsed.module, bound=args.bound)
    if verdict.kind == oracle.TOO_LARGE:
        print(f"oracle too large (|M| = {_text(verdict.module_order)} > bound {verdict.bound}); "
              f"algorithm says {result.verdict}")
        return EXIT_TOO_LARGE
    oracle_cyclic = verdict.kind == oracle.CYCLIC
    if oracle_cyclic == result.cyclic:
        print(f"AGREE: {result.verdict}")
        return EXIT_CYCLIC if result.cyclic else EXIT_NOT_CYCLIC
    print(f"DISAGREE: algorithm says {result.verdict}, oracle says {verdict.kind}")
    return EXIT_ERROR


def cmd_validate(args) -> int:
    _parse_file(args.file, validate=True)
    print("valid")
    return EXIT_CYCLIC


def _csv_ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def cmd_gen(args) -> int:
    if args.family == "zmod":
        if args.n is None or args.d is None:
            return _err("zmod requires --n and --d")
        doc = instances.gen_zmod(args.n, _csv_ints(args.d))
    elif args.family == "trunc":
        if args.p is None or args.e is None:
            return _err("trunc requires --p and --e")
        mdegs = _csv_ints(args.mdeg) if args.mdeg else None
        doc = instances.gen_trunc(args.p, args.e, mdegs)
    elif args.family == "prod":
        if not args.left or not args.right:
            return _err("prod requires --left and --right instance files")
        doc = instances.gen_prod(instances.load(args.left), instances.load(args.right))
    elif args.family == "randquot":
        if args.n is None:
            return _err("randquot requires --n")
        doc = instances.gen_randquot(args.n, args.seed, max_deg=args.max_deg,
                                     summands=args.summands)
    else:
        return _err(f"unknown family {args.family!r}")
    text = instances.dumps(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_CYCLIC


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call only."""
    parser = argparse.ArgumentParser(
        prog="modcyclic",
        description="Decide whether a finite module over a finite commutative "
                    "ring is cyclic, and if so print a generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the main algorithm on an instance file")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print the iteration trace")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-validate", action="store_true",
                   help="skip ring/module axiom validation")
    p.add_argument("--no-assert", action="store_true",
                   help="skip per-step state invariant re-checking")

    p = sub.add_parser("oracle", help="brute-force enumeration of all candidates")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_BOUND)

    p = sub.add_parser("compare", help="run both the algorithm and the oracle")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_BOUND)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("file")

    p = sub.add_parser("gen", help="emit a family instance")
    p.add_argument("--family", required=True,
                   choices=("zmod", "trunc", "prod", "randquot"))
    p.add_argument("--seed", default="0")
    p.add_argument("-o", "--output")
    p.add_argument("--n", type=int, help="zmod/randquot: base modulus")
    p.add_argument("--d", help="zmod: comma-separated summand orders")
    p.add_argument("--p", type=int, help="trunc: characteristic")
    p.add_argument("--e", type=int, help="trunc: truncation exponent")
    p.add_argument("--mdeg", help="trunc: comma-separated module truncation degrees")
    p.add_argument("--left", help="prod: first factor instance file")
    p.add_argument("--right", help="prod: second factor instance file")
    p.add_argument("--max-deg", type=int, default=4, help="randquot: max degree of f")
    p.add_argument("--summands", type=int, help="randquot: number of module summands")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The command is looked up by name at call time, never bound when
        # the parser is built: a wrapper put in place of a cmd_ function in
        # this module (bench/tracing.py does so) must be the one called.
        return globals()["cmd_" + args.command](args)
    except (InstanceFormatError, NotFiniteError) as exc:
        return _err(str(exc))
    except ValidationFailure as exc:
        for d in exc.diagnostics:
            print(f"invalid: {d}", file=sys.stderr)
        return EXIT_ERROR
    except InvariantViolationError as exc:
        return _err(f"internal invariant violation: {exc}")
    except RuntimeError as exc:
        # A failed internal self-check, or RecursionError on a deeply
        # nested file: not a verdict, so never exit 1.
        return _err(f"{type(exc).__name__}: {exc}")
    except (ValueError, OSError) as exc:
        return _err(str(exc))


if __name__ == "__main__":
    sys.exit(main())

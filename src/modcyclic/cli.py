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
from .cyclic import CyclicityResult, InvariantViolationError, run
from .instances import ValidationFailure
from .intstr import int_from_str, int_text as _text, int_to_str

EXIT_CYCLIC = 0
EXIT_NOT_CYCLIC = 1
EXIT_ERROR = 2
EXIT_TOO_LARGE = 3


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def _parse_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = instances.parse_instance(text)
    for w in parsed.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return parsed


# The keys of a JSON trace entry after its "iteration", in report order;
# a witness has the last two.
TRACE_KEYS = ("order_A", "branch", "chosen_x", "order_a", "order_b", "meet_zero",
              "order_A_mod_a", "order_ext_mod_a")


def _verdict(result: CyclicityResult) -> str:
    return "cyclic" if result.cyclic else "not_cyclic"


def _trace_lines(result: CyclicityResult) -> list:
    lines = []
    for i, e in enumerate(result.trace, 1):
        bits = [f"iter {i}: |A|={_text(e.order_A)} branch={e.branch}"]
        if e.chosen_x is not None:
            bits.append(f"x={_text(e.chosen_x)}")
        if e.order_a is not None:
            bits.append(f"|a|={_text(e.order_a)} |b|={_text(e.order_b)} meet_zero={e.meet_zero}")
        if e.order_A_mod_a is not None:
            bits.append(f"|A/a|={_text(e.order_A_mod_a)} |M_(A/a)|={_text(e.order_ext_mod_a)}")
        lines.append(" ".join(bits))
    return lines


def _json_entry(iteration: int, entry, keys) -> dict:
    """The iteration, as a number, and the named fields of a trace entry for
    the JSON report, every int and tuple of ints as decimal strings."""
    out = {"iteration": iteration}
    for key in keys:
        v = getattr(entry, key)
        if isinstance(v, tuple):
            v = [int_to_str(c) for c in v]
        elif isinstance(v, int) and not isinstance(v, bool):
            v = int_to_str(v)
        out[key] = v
    return out


def cmd_check(args) -> int:
    parsed = _parse_file(args.file)
    result = run(parsed.module)
    gen_user = (parsed.module.group.to_user(result.generator)
                if result.generator is not None else None)
    if args.format == "json":
        payload = {
            "verdict": _verdict(result),
            "generator": None if gen_user is None else [int_to_str(c) for c in gen_user],
            "iterations": result.iterations,
            "witness": None if result.witness is None else _json_entry(
                result.iterations, result.witness, TRACE_KEYS[-2:]),
        }
        if args.trace:
            payload["trace"] = [_json_entry(i, e, TRACE_KEYS)
                                for i, e in enumerate(result.trace, 1)]
        print(json.dumps(payload, indent=2))
    else:
        if result.cyclic:
            print("verdict: cyclic")
            print(f"generator: {_text(gen_user)}")
        else:
            w = result.witness
            print("verdict: not cyclic")
            print(f"witness: iteration {result.iterations}, |A/a| = {_text(w.order_A_mod_a)} "
                  f"< |M_(A/a)| = {_text(w.order_ext_mod_a)}")
        print(f"iterations: {result.iterations}")
        if args.trace:
            for line in _trace_lines(result):
                print(line)
    return EXIT_CYCLIC if result.cyclic else EXIT_NOT_CYCLIC


def cmd_oracle(args) -> int:
    parsed = _parse_file(args.file)
    verdict = oracle.brute_force(parsed.ring, parsed.module, bound=args.bound)
    if verdict.kind == oracle.TOO_LARGE:
        print(f"oracle: module order {_text(parsed.module.order)} "
              f"exceeds bound {_text(args.bound)}")
        return EXIT_TOO_LARGE
    if verdict.kind == oracle.CYCLIC:
        gen_user = parsed.module.group.to_user(verdict.generator)
        print("verdict: cyclic")
        print(f"generator: {_text(gen_user)}")
        return EXIT_CYCLIC
    print("verdict: not cyclic")
    return EXIT_NOT_CYCLIC


def cmd_compare(args) -> int:
    parsed = _parse_file(args.file)
    result = run(parsed.module)
    verdict = oracle.brute_force(parsed.ring, parsed.module, bound=args.bound)
    if verdict.kind == oracle.TOO_LARGE:
        print(f"oracle too large (|M| = {_text(parsed.module.order)} > bound "
              f"{_text(args.bound)}); algorithm says {_verdict(result)}")
        return EXIT_TOO_LARGE
    oracle_cyclic = verdict.kind == oracle.CYCLIC
    if oracle_cyclic == result.cyclic:
        print(f"AGREE: {_verdict(result)}")
        return EXIT_CYCLIC if result.cyclic else EXIT_NOT_CYCLIC
    print(f"DISAGREE: algorithm says {_verdict(result)}, oracle says {verdict.kind}")
    return EXIT_ERROR


def cmd_validate(args) -> int:
    _parse_file(args.file)
    print("valid")
    return EXIT_CYCLIC


def _int_arg(text: str) -> int:
    """An integer option, spelled in ASCII digits with an optional sign."""
    try:
        return int_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _csv_ints(text: str) -> list:
    return [int_from_str(x.strip()) for x in text.split(",") if x.strip() != ""]


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
    else:  # randquot: argparse admits no other family
        if args.n is None:
            return _err("randquot requires --n")
        doc = instances.gen_randquot(args.n, args.seed, max_deg=args.max_deg,
                                     summands=args.summands)
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

    p = sub.add_parser("oracle", help="brute-force enumeration of all candidates")
    p.add_argument("file")
    p.add_argument("--bound", type=_int_arg, default=oracle.DEFAULT_BOUND)

    p = sub.add_parser("compare", help="run both the algorithm and the oracle")
    p.add_argument("file")
    p.add_argument("--bound", type=_int_arg, default=oracle.DEFAULT_BOUND)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("file")

    p = sub.add_parser("gen", help="emit a family instance")
    p.add_argument("--family", required=True,
                   choices=("zmod", "trunc", "prod", "randquot"))
    p.add_argument("--seed", default="0")
    p.add_argument("-o", "--output")
    p.add_argument("--n", type=_int_arg, help="zmod/randquot: base modulus")
    p.add_argument("--d", help="zmod: comma-separated summand orders")
    p.add_argument("--p", type=_int_arg, help="trunc: characteristic")
    p.add_argument("--e", type=_int_arg, help="trunc: truncation exponent")
    p.add_argument("--mdeg", help="trunc: comma-separated module truncation degrees")
    p.add_argument("--left", help="prod: first factor instance file")
    p.add_argument("--right", help="prod: second factor instance file")
    p.add_argument("--max-deg", type=_int_arg, default=4, help="randquot: max degree of f")
    p.add_argument("--summands", type=_int_arg, help="randquot: number of module summands")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The command is looked up by name at call time, never bound when
        # the parser is built: a wrapper put in place of a cmd_ function in
        # this module (bench/tracing.py does so) must be the one called.
        return globals()["cmd_" + args.command](args)
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

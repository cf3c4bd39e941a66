"""Command-line front end.

Every subcommand prints one JSON report on standard output and a short
human-readable summary on standard error.  Exit code 0 means success, 1 a
domain failure (reported as a structured error object) or a check that found
violations, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coeff import format_rat
from .descriptor import OmegaDescriptor, validate
from .errors import DeclarationInconsistent, NotExtendable, ParseError, WeylvalError, clipped
from .evaluate import Valuation
from .expr import parse_expr
from .extension import check_extendable, omega_to_z, resolve_gammas
from .oracles import roundtrip_check, sample_element, shadow_eval, strongly_abelian_sample
from .orderings import enumerate_orderings, extend_ordering
from .valuegroup import cmp as value_cmp

Outcome = Tuple[dict, str, bool]


def _read_descriptor(path: str) -> OmegaDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read descriptor file {path}: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {clipped(str(exc))}") from None
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to read as JSON") from None
    return OmegaDescriptor.from_json(data)


def _load_descriptor(path: str) -> OmegaDescriptor:
    """A descriptor that passes `validate`, so no command runs on a malformed one."""
    desc = _read_descriptor(path)
    violations = validate(desc)
    if violations:
        first = violations[0]
        raise DeclarationInconsistent(
            f"invalid descriptor {path}: {first.rule}: {first.detail}"
        )
    return desc


def _sign_choice(args: argparse.Namespace) -> Optional[int]:
    return int(args.sign_choice) if args.sign_choice is not None else None


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _cmd_validate(args: argparse.Namespace) -> Outcome:
    desc = _read_descriptor(args.desc)
    violations = validate(desc)
    report = {
        "violations": [{"rule": v.rule, "detail": v.detail} for v in violations]
    }
    if violations:
        return report, f"invalid: {len(violations)} violation(s)", False
    return report, "valid", True


def _cmd_eval(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    element = parse_expr(args.expr)
    value = Valuation(desc, args.depth).value(element)
    return {"value": value.to_json()}, f"value: {value}", True


def _cmd_residue(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    element = parse_expr(args.expr)
    res = Valuation(desc, args.depth).residue(element)
    return {"residue": format_rat(res)}, f"residue: {format_rat(res)}", True


def _cmd_sign(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    element = parse_expr(args.expr)
    session = Valuation(desc, args.depth)
    entries = []
    for ordering in enumerate_orderings(desc):
        s = session.sign(ordering, element)
        entries.append({"ordering": ordering.to_json(), "sign": s})
    summary = ", ".join(f"{e['sign']:+d}" for e in entries)
    return {"signs": entries}, f"signs per ordering: {summary}", True


def _cmd_orderings(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    orderings = enumerate_orderings(desc)
    report = {
        "count": len(orderings),
        "orderings": [o.to_json() for o in orderings],
    }
    return report, f"{len(orderings)} compatible ordering(s)", True


def _cmd_extend_check(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    violation = check_extendable(desc)
    if violation is not None:
        report = {"extendable": False, "violation": violation.to_json()}
        return report, f"not extendable: {violation.detail}", False
    entries = []
    for ordering in enumerate_orderings(desc):
        entry: dict = {"ordering": ordering.to_json()}
        try:
            result = extend_ordering(desc, ordering)
        except NotExtendable as exc:
            entry["extendable"] = False
            entry["reason"] = str(exc)
        else:
            entry["extendable"] = True
            entry["sign_choice"] = result.sign_choice
            entry["extension"] = result.ordering.to_json()
        entries.append(entry)
    report = {"extendable": True, "orderings": entries}
    extended = sum(1 for e in entries if e["extendable"])
    return report, f"extendable; {extended}/{len(entries)} ordering(s) extend", True


def _cmd_convert(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    res = resolve_gammas(desc, _sign_choice(args))
    zseq = omega_to_z(desc, res, args.depth)
    report = {"gammas": res.to_json(), "z_sequence": zseq.to_json()}
    tail = "terminal" if zseq.terminal else ("rule" if zseq.rule else "none")
    summary = f"{len(zseq.explicit_entries)} entries emitted, tail: {tail}"
    return report, summary, True


def _cmd_roundtrip(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    res = resolve_gammas(desc, _sign_choice(args))
    rng = random.Random(args.seed)
    samples = [sample_element(rng, max_degree=6) for _ in range(args.trials)]
    report = roundtrip_check(desc, res, samples, depth_limit=args.depth)
    summary = (
        "round trip agreed on all samples"
        if report.ok
        else f"{len(report.mismatches)} mismatch(es)"
    )
    return report.to_json(), summary, report.ok


def _cmd_sample_strongly_abelian(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    report = strongly_abelian_sample(
        desc, args.seed, args.trials, depth_limit=args.depth
    )
    summary = (
        "no violations"
        if report.ok
        else f"{len(report.violations)} violation(s)"
    )
    return report.to_json(), summary, report.ok


def _cmd_shadow_compare(args: argparse.Namespace) -> Outcome:
    desc = _load_descriptor(args.desc)
    rng = random.Random(args.seed)
    session = Valuation(desc, args.depth)
    disagreements: List[dict] = []
    for _ in range(args.trials):
        element = sample_element(rng, max_degree=6)
        main_value = session.value(element)
        shadow_value = shadow_eval(desc, element, args.depth)
        if value_cmp(main_value, shadow_value) != 0:
            disagreements.append(
                {
                    "element": str(element),
                    "main": main_value.to_json(),
                    "shadow": shadow_value.to_json(),
                }
            )
    report = {"trials": args.trials, "disagreements": disagreements}
    summary = (
        "main and shadow evaluation agree"
        if not disagreements
        else f"{len(disagreements)} disagreement(s)"
    )
    return report, summary, not disagreements


# Each subcommand with its handler, the flag groups of `_build_parser` it
# takes, and its help text, in the order `weylval --help` lists them.
_COMMANDS: Dict[str, Tuple[Callable[[argparse.Namespace], Outcome], Tuple[str, ...], str]] = {
    "validate": (_cmd_validate, ("desc",), "check descriptor well-formedness"),
    "eval": (_cmd_eval, ("desc", "expr"), "value of an element"),
    "residue": (_cmd_residue, ("desc", "expr"), "residue of a value-0 element"),
    "sign": (
        _cmd_sign, ("desc", "expr"), "sign of an element under every compatible ordering"
    ),
    "orderings": (_cmd_orderings, ("desc",), "enumerate compatible orderings"),
    "extend-check": (
        _cmd_extend_check, ("desc",), "extendability of the valuation and of each ordering"
    ),
    "convert": (_cmd_convert, ("desc", "choice"), "convert the tower to its z-sequence"),
    "roundtrip": (
        _cmd_roundtrip,
        ("desc", "sample", "choice"),
        "compare direct evaluation against the converted z-sequence",
    ),
    "sample-strongly-abelian": (
        _cmd_sample_strongly_abelian, ("desc", "sample"), "sample the commutator value inequality"
    ),
    "shadow-compare": (
        _cmd_shadow_compare,
        ("desc", "sample"),
        "compare the main evaluator against the commutative shadow",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    flags = {
        group: argparse.ArgumentParser(add_help=False)
        for group in ("desc", "expr", "sample", "choice")
    }
    flags["desc"].add_argument(
        "--desc", required=True, metavar="FILE", help="descriptor JSON file"
    )
    flags["desc"].add_argument(
        "--depth",
        type=non_negative_int,
        default=64,
        help=(
            "at least 0 (default 64); for convert, the z-sequence entries to "
            "emit; validate, orderings and extend-check ignore it, as they read "
            "the descriptor's data window; otherwise the evaluation depth limit, "
            "which counts a step when an evaluation reads a generator's value or "
            "chooses a divisor"
        ),
    )
    flags["expr"].add_argument(
        "--expr", required=True, help='element expression, e.g. "x^2*y^4 - 1"'
    )
    flags["sample"].add_argument(
        "--trials",
        type=positive_int,
        default=500,
        help="number of samples, at least 1 (default 500)",
    )
    flags["sample"].add_argument(
        "--seed", type=int, default=0, help="RNG seed (default 0)"
    )
    flags["choice"].add_argument(
        "--sign-choice",
        choices=("+1", "-1"),
        help="sign of the free root in the non-2-divisible case",
    )

    parser = argparse.ArgumentParser(
        prog="weylval",
        description="Exact valuations on the Weyl algebra and their extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, groups, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[flags[group] for group in groups], help=text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--expr" in argv[:-1]:
        at = argv.index("--expr")
        value = argv[at + 1]
        # argparse reads a value such as "-x*y" as an option; of the parser's
        # options only -h has a single dash
        if value[:1] == "-" and value[:2] != "--" and value != "-h":
            argv[at:at + 2] = [f"--expr={value}"]
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        report, summary, ok = handler(args)
    except WeylvalError as exc:
        print(json.dumps({"error": exc.payload()}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Exit codes: 0 success; 1 a check FAILed, a validation error, or a resource
cap was hit; 2 file I/O problems, malformed or oversized input, or bad usage.

Every subcommand builds one record and its text lines, and ``_emit`` prints
one or the other.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .diagio import (
    DataFormatError,
    load_algebra,
    load_diagram,
    load_group,
    load_hom,
    result_record,
)
from .groups import Report, SearchSpaceExceeded
from .heegaard import extract_words, enumerate_colorings, lens_diagram, validate_diagram
from .homcount import LiftCountQuery, count_lifts
from .hopf import (
    build_function_hopf,
    check_structural_lemmas,
    derive_integral_data,
    validate_crossing,
    validate_hopf,
)
from .invariant import contract_invariant
from .fuzz import random_move_walk
from .scalars import Scalar, format_scalar
from .tensors import EntryCapExceeded


def _emit(args, record, lines):
    """Print ``record`` as one sorted-key JSON line under ``--json``, else
    print each of the text ``lines``."""
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_report(args, name: str, report: Report) -> bool:
    lines = [f"{name}: {'pass' if report.passed else 'FAIL'}"]
    lines += [f"  violation: {v}" for v in report.violations]
    lines += [f"  warning: {w}" for w in report.warnings]
    record = {
        "check": name,
        "passed": report.passed,
        "violations": report.violations,
        "warnings": report.warnings,
    }
    _emit(args, record, lines)
    return report.passed


def _valid(args, D) -> bool:
    """Whether ``D`` passes ``validate_diagram``; the report is printed if not."""
    report = validate_diagram(D)
    if not report.passed:
        _emit_report(args, "validate_diagram", report)
    return report.passed


def _colored_diagram(args, pi):
    """Load ``args.diagram`` colored over ``pi``.  Returns None, after the
    failing validation report is printed, if the diagram cannot be used."""
    D = load_diagram(args.diagram, pi)
    if not D.colored:
        raise DataFormatError("diagram file carries no colors")
    return D if _valid(args, D) else None


def cmd_validate_algebra(args) -> int:
    H = load_algebra(args.algebra)
    ok = _emit_report(args, "validate_hopf", validate_hopf(H))
    if ok:
        lemmas = check_structural_lemmas(H, derive_integral_data(H))
        ok = _emit_report(args, "check_structural_lemmas", lemmas)
        ok = _emit_report(args, "validate_crossing", validate_crossing(H)) and ok
    return 0 if ok else 1


def cmd_invariant(args) -> int:
    H = load_algebra(args.algebra)
    D = _colored_diagram(args, H.pi)
    if D is None:
        return 1
    Z, K = contract_invariant(H, D)
    lines = [f"Z = {format_scalar(Z)}", f"K = {format_scalar(K)}"]
    _emit(args, result_record(D, Z, K), lines)
    return 0


def cmd_colorings(args) -> int:
    pi = load_group(args.group)
    D = load_diagram(args.diagram, ignore_colors=True)
    if not _valid(args, D):
        return 1
    colorings = [[pi.names[a] for a in c] for c in enumerate_colorings(D, pi)]
    lines = [" ".join(c) for c in colorings] + [f"total: {len(colorings)}"]
    _emit(args, {"colorings": colorings}, lines)
    return 0


def cmd_lens_table(args) -> int:
    H = load_algebra(args.algebra)
    rows = []
    for p in range(1, 2 * args.max_n + 1):
        D = lens_diagram(p)
        for colors in enumerate_colorings(D, H.pi):
            Z, K = contract_invariant(H, D.with_colors(H.pi, colors))
            rows.append({"p": p, "color": H.pi.names[colors[0]], "K": format_scalar(K)})
    _emit(args, rows, ["p={p} color={color} K={K}".format(**row) for row in rows])
    return 0


def cmd_oracle_compare(args) -> int:
    phi = load_hom(args.phi)
    D = _colored_diagram(args, phi.target)
    if D is None:
        return 1
    H = build_function_hopf(phi)
    Z, K = contract_invariant(H, D)
    n = count_lifts(LiftCountQuery(tuple(extract_words(D)), D.colors, phi))
    match = K == Scalar(n)
    record = {"K": format_scalar(K), "lift_count": n, "status": "PASS" if match else "FAIL"}
    lines = [f"contraction K = {record['K']}", f"lift count    = {n}", record["status"]]
    _emit(args, record, lines)
    return 0 if match else 1


def cmd_move_fuzz(args) -> int:
    H = load_algebra(args.algebra)
    D = _colored_diagram(args, H.pi)
    if D is None:
        return 1
    rng = random.Random(args.seed)
    Z0, K0 = contract_invariant(H, D)
    steps = []
    for m, E in random_move_walk(rng, D, args.steps):
        Z, K = contract_invariant(H, E)
        steps.append({"move": m.kind, "K": format_scalar(K), "constant": K == K0})
    ok = all(step["constant"] for step in steps)
    record = {
        "seed": args.seed,
        "baseline_K": format_scalar(K0),
        "steps": steps,
        "status": "PASS" if ok else "FAIL",
    }
    lines = [f"seed = {args.seed}", f"baseline K = {record['baseline_K']}"]
    for step in steps:
        lines.append(
            f"  {step['move']}: K = {step['K']} {'ok' if step['constant'] else 'CHANGED'}"
        )
    lines.append(record["status"])
    _emit(args, record, lines)
    return 0 if ok else 1


def positive_int(text) -> int:
    """An argparse type for counts: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfk",
        description=(
            "Exact invariants of group-colored Heegaard diagrams from "
            "involutory Hopf group-coalgebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("validate-algebra", cmd_validate_algebra, help="check all axioms")
    p.add_argument("algebra", help="builtin name or algebra JSON file")

    p = add("invariant", cmd_invariant, help="compute Z and K of a colored diagram")
    p.add_argument("--algebra", required=True)
    p.add_argument("--diagram", required=True)

    p = add("colorings", cmd_colorings, help="list valid colorings")
    p.add_argument("--diagram", required=True)
    p.add_argument("--group", required=True)

    p = add("lens-table", cmd_lens_table, help="K for the genus-1 x^p family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-n", type=positive_int, required=True,
                   help="K for p = 1..2*MAX_N: every coloring of the genus-1 diagram with relator x^p")

    p = add("oracle-compare", cmd_oracle_compare, help="contraction vs lift count")
    p.add_argument("--phi", required=True, help="builtin name or hom JSON file")
    p.add_argument("--diagram", required=True)

    p = add("move-fuzz", cmd_move_fuzz, help="random moves, assert K constant")
    p.add_argument("--algebra", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--steps", type=positive_int, default=10,
                   help="number of random moves applied, K checked after each (default 10); "
                        "no move grows the diagram past a crossing cap, which is never below "
                        "the input diagram's crossing count")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _clip(exc) -> str:
    """The message of ``exc``; one over 1,000 characters, which may quote a
    whole input, as its first 1,000 and its length."""
    text = str(exc)
    return text if len(text) <= 1000 else f"{text[:1000]}… ({len(text)} characters)"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DataFormatError as exc:
        print(f"error: {_clip(exc)}", file=sys.stderr)
        return 2
    except (EntryCapExceeded, SearchSpaceExceeded) as exc:
        print(f"resource error: {_clip(exc)}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {_clip(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

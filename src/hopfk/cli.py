"""Command-line interface.

Exit codes: 0 success, 1 any check FAILed or a validation error, 2 file
I/O or parse problems.
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
from .groups import Report
from .heegaard import extract_words, enumerate_colorings, lens_diagram, validate_diagram
from .homcount import LiftCountQuery, SearchSpaceExceeded, count_lifts
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


def _emit_report(name: str, report: Report, as_json: bool):
    if as_json:
        print(
            json.dumps(
                {
                    "check": name,
                    "passed": report.passed,
                    "violations": report.violations,
                    "warnings": report.warnings,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"{name}: {'pass' if report.passed else 'FAIL'}")
        for v in report.violations:
            print(f"  violation: {v}")
        for w in report.warnings:
            print(f"  warning: {w}")
    return report.passed


def _colored_diagram(args, pi):
    """Load ``args.diagram`` colored over ``pi`` and validate it.  Returns
    (D, 0), or (None, exit code) after reporting why it cannot be used."""
    D = load_diagram(args.diagram, pi)
    if not D.colored:
        print("error: diagram file carries no colors", file=sys.stderr)
        return None, 2
    report = validate_diagram(D)
    if not report.passed:
        _emit_report("validate_diagram", report, args.json)
        return None, 1
    return D, 0


def cmd_validate_algebra(args) -> int:
    H = load_algebra(args.algebra)
    ok = _emit_report("validate_hopf", validate_hopf(H), args.json)
    if ok:
        integral = derive_integral_data(H)
        lemmas = check_structural_lemmas(H, integral, cyclic_bound=args.cyclic_bound)
        ok = _emit_report("check_structural_lemmas", lemmas, args.json)
        ok = _emit_report("validate_crossing", validate_crossing(H), args.json) and ok
    return 0 if ok else 1


def cmd_invariant(args) -> int:
    H = load_algebra(args.algebra)
    D, code = _colored_diagram(args, H.pi)
    if D is None:
        return code
    Z, K = contract_invariant(H, D)
    if args.json:
        print(json.dumps(result_record(D, Z, K), sort_keys=True))
    else:
        print(f"Z = {format_scalar(Z)}")
        print(f"K = {format_scalar(K)}")
    return 0


def cmd_colorings(args) -> int:
    pi = load_group(args.group)
    D = load_diagram(args.diagram, ignore_colors=True)
    report = validate_diagram(D)
    if not report.passed:
        _emit_report("validate_diagram", report, args.json)
        return 1
    colorings = enumerate_colorings(D, pi)
    if args.json:
        print(
            json.dumps(
                {"colorings": [[pi.names[a] for a in c] for c in colorings]},
                sort_keys=True,
            )
        )
    else:
        for c in colorings:
            print(" ".join(pi.names[a] for a in c))
        print(f"total: {len(colorings)}")
    return 0


def cmd_lens_table(args) -> int:
    H = load_algebra(args.algebra)
    rows = []
    for p in range(1, 2 * args.max_n + 1):
        D = lens_diagram(p)
        for colors in enumerate_colorings(D, H.pi):
            Z, K = contract_invariant(H, D.with_colors(H.pi, colors))
            rows.append((p, H.pi.names[colors[0]], format_scalar(K)))
    if args.json:
        print(
            json.dumps(
                [{"p": p, "color": c, "K": k} for p, c, k in rows], sort_keys=True
            )
        )
    else:
        for p, c, k in rows:
            print(f"p={p} color={c} K={k}")
    return 0


def cmd_oracle_compare(args) -> int:
    phi = load_hom(args.phi)
    D, code = _colored_diagram(args, phi.target)
    if D is None:
        return code
    H = build_function_hopf(phi)
    Z, K = contract_invariant(H, D)
    n = count_lifts(LiftCountQuery(tuple(extract_words(D)), D.colors, phi))
    match = K == Scalar(n)
    if args.json:
        print(
            json.dumps(
                {
                    "K": format_scalar(K),
                    "lift_count": n,
                    "status": "PASS" if match else "FAIL",
                },
                sort_keys=True,
            )
        )
    else:
        print(f"contraction K = {format_scalar(K)}")
        print(f"lift count    = {n}")
        print("PASS" if match else "FAIL")
    return 0 if match else 1


def cmd_move_fuzz(args) -> int:
    H = load_algebra(args.algebra)
    D, code = _colored_diagram(args, H.pi)
    if D is None:
        return code
    rng = random.Random(args.seed)
    Z0, K0 = contract_invariant(H, D)
    steps = []
    ok = True
    for m, E in random_move_walk(rng, D, args.steps):
        Z, K = contract_invariant(H, E)
        same = K == K0
        ok = ok and same
        steps.append((m.kind, format_scalar(K), same))
    if args.json:
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "baseline_K": format_scalar(K0),
                    "steps": [
                        {"move": kind, "K": k, "constant": same}
                        for kind, k, same in steps
                    ],
                    "status": "PASS" if ok else "FAIL",
                },
                sort_keys=True,
            )
        )
    else:
        print(f"seed = {args.seed}")
        print(f"baseline K = {format_scalar(K0)}")
        for kind, k, same in steps:
            print(f"  {kind}: K = {k} {'ok' if same else 'CHANGED'}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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
    p.add_argument("--cyclic-bound", type=int, default=4)

    p = add("invariant", cmd_invariant, help="compute Z and K of a colored diagram")
    p.add_argument("--algebra", required=True)
    p.add_argument("--diagram", required=True)

    p = add("colorings", cmd_colorings, help="list valid colorings")
    p.add_argument("--diagram", required=True)
    p.add_argument("--group", required=True)

    p = add("lens-table", cmd_lens_table, help="K for the genus-1 x^p family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-n", type=int, required=True)

    p = add("oracle-compare", cmd_oracle_compare, help="contraction vs lift count")
    p.add_argument("--phi", required=True, help="builtin name or hom JSON file")
    p.add_argument("--diagram", required=True)

    p = add("move-fuzz", cmd_move_fuzz, help="random moves, assert K constant")
    p.add_argument("--algebra", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EntryCapExceeded, SearchSpaceExceeded) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

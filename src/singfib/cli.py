"""Command-line front end: catalog listing, bivector derivation, the
verification suite, and certified fibre-positivity bounds.

Reports stream as a human table or as line-delimited JSON records; with a
fixed seed the records are byte-identical between runs.  Exit code 0
means no check failed a defining relation (disagreements with catalogued
formulas are mismatch records and do not fail the run).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from fractions import Fraction

from . import nearsymp, poisson
from .catalog import ALL_KINDS, DEFORMATION_KINDS, DIM6_KINDS, ModelError, get_model, manifest_text
from .interval import BoxParseError, CertificationFailure, parse_box
from .poly import ChartMismatch, PolyParseError, parse_poly
from .report import exit_code, render_records, render_table
from .suite import CHECK_NAMES, SCOPES, SelectionError, run_suite


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singfib",
        description="Exact derivation and audit of Poisson bivectors, leaf symplectic "
        "forms and near-symplectic forms for singular fibration local models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list the local models")
    p_cat.add_argument("--kind", choices=ALL_KINDS)
    p_cat.add_argument("--n", type=int, default=3, help="half-dimension (default 3)")
    p_cat.add_argument("--param", type=_fraction, default=None, help="pin the deformation parameter")
    p_cat.add_argument("--manifest", action="store_true", help="print the manifest file text")

    p_der = sub.add_parser("derive", help="derive a Poisson bivector and audit it")
    p_der.add_argument("--kind", required=True, choices=ALL_KINDS)
    p_der.add_argument("--n", type=int, default=3)
    p_der.add_argument("--k", default="1", help="scaling polynomial, e.g. '1 + x1^2'")
    p_der.add_argument("--param", type=_fraction, default=None)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    scope = p_ver.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true", help="every model (default)")
    scope.add_argument("--model", choices=SCOPES, help="restrict to one model kind, or to darboux or calculus")
    p_ver.add_argument("--check", action="append", choices=CHECK_NAMES, help="restrict to named checks")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--samples", type=_positive_int, default=100)
    p_ver.add_argument("--format", choices=("text", "records"), default="text")
    p_ver.add_argument("--out", help="also write the records to this file")

    p_eps = sub.add_parser("epsilon", help="certified fibre-positivity scale bound")
    p_eps.add_argument("--kind", required=True, choices=("cusp", "swallowtail", "butterfly"))
    p_eps.add_argument("--box", default=None, help="e.g. '|x|<=1,|u|<=1/10' (default per kind)")
    return parser


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.manifest:
        sys.stdout.write(manifest_text())
        return 0
    kinds = [args.kind] if args.kind else list(ALL_KINDS)
    # every model is built before the first line is printed, so a bad --n or
    # --param leaves stdout empty; a named kind takes --n and --param as
    # given, and the full listing shows dim-6 kinds at n = 3 and pins the
    # parameter on the deformation kinds only
    models = [
        get_model(
            kind,
            args.n if args.kind or kind not in DIM6_KINDS else 3,
            args.param if args.kind or kind in DEFORMATION_KINDS else None,
        )
        for kind in kinds
    ]
    for model in models:
        comps = ", ".join(str(c) for c in model.casimirs)
        print(f"{model.name}: R^{2 * model.n} -> R^{2 * model.n - 2}")
        print(f"  chart: ({', '.join(model.chart.names)})")
        print(f"  components: {comps}")
        print(f"  critical locus: {', '.join(str(c) for c in model.critical_locus)}")
    if not args.kind:
        print(f"{len(kinds)} kinds")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    model = get_model(args.kind, args.n, args.param)
    try:
        k = parse_poly(args.k, model.chart)
    except (PolyParseError, ChartMismatch) as exc:
        print(f"error: cannot parse k: {exc}", file=sys.stderr)
        return 2
    if k.is_zero():
        print("error: k must be a nonzero polynomial", file=sys.stderr)
        return 2
    bivector = poisson.flaschka_ratiu(model, k)
    match = poisson.match_claimed_bivector(model)
    print(f"model {model.name}")
    print(f"  pi (k = {k}) = {bivector.pi}")
    if model.claimed_scale != 1:
        print(f"  catalogued normalization: raw construction = {model.claimed_scale} * catalogued")
    rep = match.report()
    print(f"  {rep.status.upper()}: {rep.detail}")
    if rep.witness:
        print(f"  {rep.witness}")
    print(f"  catalogued: {match.claimed}")
    return 0 if rep.status != "fail" else 1


def cmd_verify(args: argparse.Namespace) -> int:
    scope = None if (args.all or not args.model) else args.model
    started = time.monotonic()
    # opened before the run, so a bad path costs no run, and emptied only
    # after it, so a run that raises leaves an earlier report in place
    try:
        out = open(args.out, "a") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out as fh:
        reports = run_suite(scope=scope, checks=args.check, seed=args.seed, samples=args.samples)
        records = render_records(reports)
        if fh is not None:
            fh.truncate(0)
            fh.write(records)
    if args.format == "records":
        sys.stdout.write(records)
    else:
        sys.stdout.write(render_table(reports))
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    return exit_code(reports)


def cmd_epsilon(args: argparse.Namespace) -> int:
    try:
        box = parse_box(args.box) if args.box else None
    except BoxParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        bound = nearsymp.epsilon_bound(args.kind, box)
    except nearsymp.RejectedBox as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except CertificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(bound.describe())
    for label, a, m in bound.constraints:
        print(f"  {label}: constant part {a}, certified min of the eps-coefficient {m}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "catalog": cmd_catalog,
        "derive": cmd_derive,
        "verify": cmd_verify,
        "epsilon": cmd_epsilon,
    }[args.command]
    try:
        return handler(args)
    except (ModelError, SelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

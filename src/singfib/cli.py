"""Command-line front end: catalog listing, bivector derivation, the
verification suite, and certified fibre-positivity bounds.

Reports stream as a human table or as line-delimited JSON records; with a
fixed seed the records are byte-identical between runs.  Exit code 0
means no check failed a defining relation (disagreements with catalogued
formulas are mismatch records and do not fail the run).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NoReturn

from . import nearsymp, poisson
from .catalog import ALL_KINDS, DEFORMATION_KINDS, DIM6_KINDS, get_model, manifest_text
from .interval import CertificationFailure, parse_box
from .poly import RATIONAL, ChartMismatch, PolyParseError, parse_poly
from .report import exit_code, render_records, render_table
from .suite import CHECK_NAMES, SCOPES, run_suite


def _ascii(pattern: str, convert: Callable[[str], object], what: str) -> Callable[[str], object]:
    """An option type that reads text matching ``pattern`` in full, with ASCII digits only, and converts it.

    Any other text, or text that ``convert`` rejects (a zero denominator, or
    digits past the int-string limit), is "not ``what``": argparse prints
    that as one ``error:`` line and exits 2.
    """
    compiled = re.compile(pattern, re.ASCII)

    def read(text: str) -> object:
        if compiled.fullmatch(text):
            try:
                return convert(text)
            except (ValueError, ZeroDivisionError):
                pass
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")

    return read


# --n and --samples take no sign, --seed takes one, and --param is p/q or a decimal
_natural = _ascii(r"\d+", int, "a non-negative integer")
_positive_int = _ascii(r"0*[1-9]\d*", int, "a positive integer")
_integer = _ascii(r"[-+]?\d+", int, "an integer")
_fraction = _ascii(RATIONAL.pattern, Fraction, "a rational number")


class _Parser(argparse.ArgumentParser):
    """argparse with an input error reported like the domain errors: one ``error:`` line, exit 2."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads "-3/4", "-x1" and "-1<=x<=1" as option names.  Every option here is
        # spelled --... and -h is matched before this pattern, so one - not followed by another is a value.
        # The attribute is private, read with .match: test_negative_param_reads_the_same_as_its_own_argument guards it.
        self._negative_number_matcher = re.compile(r"-(?!-)")

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singfib",
        description="Exact derivation and audit of Poisson bivectors, leaf symplectic "
        "forms and near-symplectic forms for singular fibration local models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list the local models")
    p_cat.add_argument("--kind", choices=ALL_KINDS)
    p_cat.add_argument("--n", type=_natural, default=3, help="half-dimension (default 3)")
    p_cat.add_argument("--param", type=_fraction, default=None, help="pin the deformation parameter")
    p_cat.add_argument("--manifest", action="store_true", help="print the manifest file text")

    p_der = sub.add_parser("derive", help="derive a Poisson bivector and audit it")
    p_der.add_argument("--kind", required=True, choices=ALL_KINDS)
    p_der.add_argument("--n", type=_natural, default=3)
    p_der.add_argument("--k", default="1", help="scaling polynomial, e.g. '1 + x1^2'")
    p_der.add_argument("--param", type=_fraction, default=None)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    scope = p_ver.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true", help="every model (default)")
    scope.add_argument("--model", choices=SCOPES, help="restrict to one model kind, or to darboux or calculus")
    p_ver.add_argument("--check", action="append", choices=CHECK_NAMES, help="restrict to named checks")
    p_ver.add_argument("--seed", type=_integer, default=7)
    p_ver.add_argument("--samples", type=_positive_int, default=100)
    p_ver.add_argument("--format", choices=("text", "records"), default="text")
    p_ver.add_argument("--out", help="also write the records to this file")

    p_eps = sub.add_parser("epsilon", help="certified fibre-positivity scale bound")
    p_eps.add_argument("--kind", required=True, choices=nearsymp.FIBRE_KINDS)
    p_eps.add_argument("--box", default=None, help="e.g. '|x|<=1,|u|<=1/10' (default per kind)")
    return parser


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.manifest:
        sys.stdout.write(manifest_text())
        return 0
    kinds = [args.kind] if args.kind else list(ALL_KINDS)
    # all output is built before the first line is printed, so a bad --n or
    # --param, or text too long to print, leaves stdout empty; a named kind
    # takes --n and --param as given, and the full listing shows dim-6 kinds
    # at n = 3 and pins the parameter on the deformation kinds only
    models = [
        get_model(
            kind,
            args.n if args.kind or kind not in DIM6_KINDS else 3,
            args.param if args.kind or kind in DEFORMATION_KINDS else None,
        )
        for kind in kinds
    ]
    lines = []
    for model in models:
        lines += [
            f"{model.name}: R^{2 * model.n} -> R^{2 * model.n - 2}",
            f"  chart: ({', '.join(model.chart.names)})",
            f"  components: {', '.join(str(c) for c in model.casimirs)}",
            f"  critical locus: {', '.join(str(c) for c in model.critical_locus)}",
        ]
    if not args.kind:
        lines.append(f"{len(kinds)} kinds")
    print("\n".join(lines))
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    model = get_model(args.kind, args.n, args.param)
    try:
        k = parse_poly(args.k, model.chart)
    except (PolyParseError, ChartMismatch) as exc:
        print(f"error: cannot parse k: {exc}", file=sys.stderr)
        return 2
    bivector = poisson.flaschka_ratiu(model, k)
    match = poisson.match_claimed_bivector(model)
    rep = match.report()
    lines = [f"model {model.name}", f"  pi (k = {k}) = {bivector.pi}"]
    if model.claimed_scale != 1:
        lines.append(f"  catalogued normalization: raw construction = {model.claimed_scale} * catalogued")
    lines.append(f"  {rep.status.upper()}: {rep.detail}")
    if rep.witness:
        lines.append(f"  {rep.witness}")
    lines.append(f"  catalogued: {match.claimed}")
    print("\n".join(lines))
    return 0 if rep.status != "fail" else 1


def _write(path: str, mode: str, text: str) -> bool:
    """Write text to path, opened in mode; on an OSError print one ``error:`` line and return False."""
    try:
        with open(path, mode) as fh:  # a full device fails at the close, which the with makes here
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_verify(args: argparse.Namespace) -> int:
    scope = None if (args.all or not args.model) else args.model
    started = time.monotonic()
    # the file is opened before the run, so a bad path costs no run, and
    # rewritten only after it, so a run that raises leaves an earlier report in place
    if args.out and not _write(args.out, "a", ""):
        return 2
    reports = run_suite(scope=scope, checks=args.check, seed=args.seed, samples=args.samples)
    records = render_records(reports)
    if args.out and not _write(args.out, "w", records):
        return 2
    if args.format == "records":
        sys.stdout.write(records)
    else:
        sys.stdout.write(render_table(reports))
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    return exit_code(reports)


def cmd_epsilon(args: argparse.Namespace) -> int:
    box = parse_box(args.box) if args.box is not None else None
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
    # every input error is a ValueError: a model or selection the library rejects, or
    # text past CPython's int-string limit (catalog and derive build it before printing)
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout is a full disk or a closed pipe
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        # what is still buffered would fail again when the interpreter flushes stdout at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())

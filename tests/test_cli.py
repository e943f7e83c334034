"""Command-line interface: listing, derivation, verify determinism, bounds."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import singfib
from singfib import catalog
from singfib.catalog import MAX_N, get_model
from singfib.cli import build_parser, main
from singfib.interval import BoxParseError, parse_box
from singfib.leaves import audit_leaf_formulas
from singfib.nearsymp import RejectedBox, epsilon_bound
from singfib.poly import MAX_COEFFICIENT_BITS, MAX_TERM_PRODUCTS, Poly
from singfib.suite import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_every_kind(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "18 kinds" in out


def test_catalog_single_kind(capsys):
    code, out, _ = run(capsys, "catalog", "--kind", "cusp")
    assert code == 0
    assert "x1^3 - 3*t1*x1 + x2^2 - x3^2" in out


def test_catalog_parametric(capsys):
    code, out, _ = run(capsys, "catalog", "--kind", "fold-2n", "--n", "4")
    assert code == 0
    assert "R^8 -> R^6" in out


def test_catalog_manifest(capsys):
    code, out, _ = run(capsys, "catalog", "--manifest")
    assert code == 0
    assert out.startswith("# model manifest")


def test_derive_fold(capsys):
    code, out, _ = run(capsys, "derive", "--kind", "fold")
    assert code == 0
    assert "PASS" in out and "global sign -1" in out


def test_derive_ws_termwise(capsys):
    code, out, _ = run(capsys, "derive", "--kind", "w_s", "--n", "4")
    assert code == 0
    assert "termwise equal" in out


def test_derive_rejects_zero_k(capsys):
    code, _, err = run(capsys, "derive", "--kind", "fold", "--k", "0")
    assert code == 2
    assert "nonzero" in err


def test_derive_rejects_bad_k(capsys):
    code, _, err = run(capsys, "derive", "--kind", "fold", "--k", "1 +")
    assert code == 2


def test_verify_scoped_near_symplectic(capsys):
    code, out, _ = run(
        capsys, "verify", "--model", "cusp", "--check", "near-symplectic", "--samples", "5"
    )
    assert code == 0
    assert "repair" in out


def test_verify_records_are_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--model", "fold", "--check", "leaf-audit",
        "--samples", "5", "--format", "records",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(set(r) == {"model", "check", "status", "detail", "witness"} for r in rows)
    assert any(r["check"] == "leaf-audit" for r in rows)


def test_verify_deterministic_report_files(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "verify", "--model", "swallowtail", "--seed", "7", "--samples", "8", "--out", str(a))
    run(capsys, "verify", "--model", "swallowtail", "--seed", "7", "--samples", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # a different seed changes the sampled points but not the verdict schema
    c = tmp_path / "c.jsonl"
    run(capsys, "verify", "--model", "swallowtail", "--seed", "8", "--samples", "8", "--out", str(c))
    assert {json.loads(l)["check"] for l in a.read_text().splitlines()} == {
        json.loads(l)["check"] for l in c.read_text().splitlines()
    }


def test_epsilon_cusp(capsys):
    code, out, _ = run(capsys, "epsilon", "--kind", "cusp", "--box", "|x|<=1")
    assert code == 0
    assert "eps* = 1/3" in out


def test_epsilon_rejected_box(capsys):
    code, _, err = run(capsys, "epsilon", "--kind", "cusp", "--box", "|x|<=1,|t|<=1")
    assert code == 2
    assert "rejected" in err


def test_epsilon_butterfly_default_box(capsys):
    code, out, _ = run(capsys, "epsilon", "--kind", "butterfly")
    assert code == 0
    assert "eps* = 5/104" in out


# -- input checked at the boundary -------------------------------------------------


@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_verify_rejects_non_positive_samples(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "fold", "--check", "rank", "--samples", samples])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def usage_error(capsys, *argv) -> str:
    """The one stderr line of an option argparse rejects (exit 2, nothing on stdout)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error: argument ") and err.count("\n") == 1
    return err


VERIFY_RANK = ("verify", "--model", "fold", "--check", "rank")


BAD_NUMBERS = [
    (("catalog", "--kind", "cusp", "--n", "\u0663"), "not a non-negative integer"),
    (("derive", "--kind", "cusp", "--n", "\u0663"), "not a non-negative integer"),
    (("catalog", "--kind", "cusp", "--n", "+3"), "not a non-negative integer"),
    (("catalog", "--kind", "cusp", "--n", "3_0"), "not a non-negative integer"),
    (("catalog", "--kind", "cusp", "--n", " 3"), "not a non-negative integer"),
    (("catalog", "--kind", "b_s", "--param", "\u0663"), "not a rational number"),
    (("catalog", "--kind", "b_s", "--param", "1/\u0662"), "not a rational number"),
    (("catalog", "--kind", "b_s", "--param", "1_0/3"), "not a rational number"),
    (("derive", "--kind", "b_s", "--param", "\uff11/2"), "not a rational number"),
    ((*VERIFY_RANK, "--seed", "\u0663"), "not an integer"),
    ((*VERIFY_RANK, "--seed", "7.0"), "not an integer"),
    ((*VERIFY_RANK, "--seed", "1" * 5000), "not an integer"),
    ((*VERIFY_RANK, "--samples", "\u0663"), "not a positive integer"),
    ((*VERIFY_RANK, "--samples", "+3"), "not a positive integer"),
    ((*VERIFY_RANK, "--samples", "000"), "not a positive integer"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_NUMBERS, ids=[f"{argv[0]}{argv[-2]}={ascii(argv[-1][:8])}" for argv, _ in BAD_NUMBERS]
)
def test_numeric_options_take_ascii_digits_only(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


def test_numeric_options_take_signs_and_fractions_where_allowed(capsys):
    code, out, _ = run(capsys, "catalog", "--kind", "b_s", "--param=-3/4")
    assert code == 0 and "- 9/4*x1" in out
    code, out, _ = run(capsys, "catalog", "--kind", "b_s", "--param", "+0.25", "--n", "04")
    assert code == 0 and "b_s(n=4)" in out and "3/4*x1" in out
    for seed in ("-3", "+3"):
        code, out, _ = run(capsys, *VERIFY_RANK, "--seed", seed, "--samples", "02", "--format", "records")
        assert code == 0 and f"seed={int(seed)} samples=2" in out


LEADING_MINUS = [
    *(
        pytest.param((command, "--kind", "b_s"), "--param", value, id=f"{value}-{command}")
        for value in ("-3/4", "-0.75", "-3e-1")
        for command in ("catalog", "derive")
    ),
    pytest.param(("derive", "--kind", "fold"), "--k", "-x1", id="-x1-derive"),
    pytest.param(("epsilon", "--kind", "cusp"), "--box", "-1<=x<=1", id="-1<=x<=1-epsilon"),
    pytest.param(("epsilon", "--kind", "cusp"), "--box", "-1/2<=x<=1", id="-1/2<=x<=1-epsilon"),
]


@pytest.mark.parametrize("argv, option, value", LEADING_MINUS)
def test_negative_param_reads_the_same_as_its_own_argument(capsys, argv, option, value):
    # argparse on its own reads "-3/4", "-x1" and "-1<=x<=1" after an option as an option name
    joined = run(capsys, *argv, f"{option}={value}")
    assert joined[0] == 0 and joined[1]
    assert run(capsys, *argv, option, value) == joined


def test_every_option_but_help_is_spelled_with_two_dashes():
    # cli._Parser reads a word with one leading - as a value, which holds while no option has one -
    top = build_parser()
    (subparsers,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    for parser in (top, *subparsers.choices.values()):
        for action in parser._actions:
            assert all(s == "-h" or s.startswith("--") for s in action.option_strings), action


@pytest.mark.parametrize(
    "argv, message",
    [
        (("derive", "--kind", "fold", "--k", "-h"), "argument --k: expected one argument"),
        (("derive", "-kind", "fold"), "the following arguments are required: --kind"),
    ],
    ids=["k-then-h", "single-dash-kind"],
)
def test_an_option_where_a_value_belongs_is_still_an_error(capsys, argv, message):
    # -h is matched as an option before the leading-minus pattern; -kind is a stray value
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_accepts_pseudo_scopes(capsys):
    code, out, _ = run(capsys, "verify", "--model", "darboux", "--samples", "1", "--format", "records")
    assert code == 0
    assert [json.loads(line)["check"] for line in out.splitlines()][1:] == ["darboux"]


def test_run_suite_rejects_bad_samples_and_scope():
    with pytest.raises(ValueError, match="samples"):
        run_suite(scope="fold", checks=["rank"], samples=0)
    with pytest.raises(ValueError, match="samples"):
        run_suite(scope="fold", checks=["rank"], samples=-3)
    with pytest.raises(ValueError, match="scope"):
        run_suite(scope="nosuch", checks=["rank"])


def test_leaf_audit_without_points_fails():
    rep, rows = audit_leaf_formulas(get_model("fold"), 0, random.Random(1))
    assert rows == []
    assert rep.status == "fail"


# -- domain errors: exit 2 and one line on stderr ------------------------------------


def one_line_error(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_derive_rejects_parameter_on_fixed_kind(capsys):
    assert "no deformation parameter" in one_line_error(capsys, "derive", "--kind", "fold", "--param", "1")


@pytest.mark.parametrize("command", ["catalog", "derive"])
@pytest.mark.parametrize("n", [MAX_N + 1, 10**8])
def test_half_dimension_above_the_maximum_is_refused_before_any_chart(capsys, monkeypatch, command, n):
    def no_chart(*args):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(catalog, "chart_2n", no_chart)
    err = one_line_error(capsys, command, "--kind", "fold", "--n", str(n))
    assert err == f"error: half-dimension n must be at most {MAX_N}\n"


def test_derive_rejects_definite_kind_above_dim6(capsys):
    assert "dim-6 model" in one_line_error(capsys, "derive", "--kind", "fold-def1", "--n", "4")


def test_derive_rejects_deeply_nested_k(capsys):
    k = "(" * 500 + "1" + ")" * 500
    err = one_line_error(capsys, "derive", "--kind", "fold", "--k", k)
    assert "cannot parse k: expression is nested too deeply" in err


SUM6 = "(x1+x2+x3+t1+t2+t3)"


@pytest.mark.parametrize(
    "k",
    [f"{SUM6}^60", f"{SUM6}^20*{SUM6}^20", "(x1+1)^3000"],
    ids=["power-of-a-sum", "product-of-powers", "big-coefficients"],
)
def test_derive_refuses_an_expansion_past_the_cap_before_it_multiplies(capsys, monkeypatch, k):
    def no_product(*args):
        raise AssertionError("a product ran")

    get_model("fold")  # the model is built, and shared, before any product is forbidden
    monkeypatch.setattr(Poly, "__mul__", no_product)
    err = one_line_error(capsys, "derive", "--kind", "fold", "--k", k)
    assert err == f"error: cannot parse k: expanding the text takes more than {MAX_TERM_PRODUCTS} term products\n"


@pytest.mark.parametrize(
    "k, message",
    [
        ("(3*x1)^99999999", f"a power's coefficients take more than {MAX_COEFFICIENT_BITS} bits"),
        ("(3*x1)^9999999", f"a power's coefficients take more than {MAX_COEFFICIENT_BITS} bits"),
        ("(1/3*x1)^99999999", f"a power's coefficients take more than {MAX_COEFFICIENT_BITS} bits"),
        # a name over an integer is outside the grammar, so this one is refused before any power too
        ("(x1/3)^99999999", "missing closing parenthesis"),
    ],
    ids=["big-numerator", "big-numerator-7-digits", "big-denominator", "name-over-integer"],
)
def test_derive_refuses_a_power_with_big_coefficients_before_it_runs(capsys, monkeypatch, k, message):
    def no_power(*args):
        raise AssertionError("a power ran")

    get_model("fold")
    monkeypatch.setattr(Poly, "__pow__", no_power)
    assert one_line_error(capsys, "derive", "--kind", "fold", "--k", k) == f"error: cannot parse k: {message}\n"


def test_derive_refuses_a_product_of_admitted_powers(capsys):
    # 2.6 KB of text, which took seconds to parse before a product's coefficient bits were bounded
    k = "*".join(["(3*x1)^16000"] * 200)
    message = f"a product's coefficients take more than {MAX_COEFFICIENT_BITS} bits"
    assert one_line_error(capsys, "derive", "--kind", "fold", "--k", k) == f"error: cannot parse k: {message}\n"


@pytest.mark.parametrize(
    "k", ["x1^\u00b2", "\u00b2", "\u0663*x1", "x1^" + "1" * 5000],
    ids=["superscript-exponent", "superscript", "arabic-indic-digit", "long-exponent"],
)
def test_derive_rejects_k_outside_the_ascii_grammar(capsys, k):
    assert "cannot parse k" in one_line_error(capsys, "derive", "--kind", "fold", "--k", k)


def test_derive_reports_output_past_the_int_string_limit(capsys):
    # (2*x1)^20000 parses, but its coefficient 2^20000 has 6021 digits
    assert "integer string conversion" in one_line_error(capsys, "derive", "--kind", "fold", "--k", "(2*x1)^20000")


@pytest.mark.parametrize("argv", [("--kind", "w_s"), ()], ids=["w_s", "listing"])
def test_catalog_reports_output_past_the_int_string_limit(capsys, argv):
    err = one_line_error(capsys, "catalog", *argv, "--param", "1e5000")
    assert "integer string conversion" in err


def child(*argv, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """``python -m singfib.cli argv`` in a child process, with a timeout, so that a run without end fails the test."""
    src = str(Path(singfib.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "singfib.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


@pytest.mark.parametrize(
    "argv",
    [("catalog", "--kind", "w_s", "--param", "1e99999999"), ("epsilon", "--kind", "cusp", "--box", "|x|<=1e99999999")],
    ids=["param", "box"],
)
def test_a_long_decimal_exponent_is_refused_before_it_is_expanded(argv):
    # in a child process, so that expanding 10**99999999 fails the test instead of hanging it
    done = child(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "1e99999999" in done.stderr


def test_catalog_rejects_small_n(capsys):
    assert "at least 3" in one_line_error(capsys, "catalog", "--kind", "cusp", "--n", "2")


def test_catalog_listing_rejects_small_n_before_printing(capsys):
    assert "at least 3" in one_line_error(capsys, "catalog", "--n", "2")


def test_catalog_listing_pins_param_on_deformation_kinds_only(capsys):
    code, out, err = run(capsys, "catalog", "--param", "1/2")
    assert code == 0 and err == ""
    assert "18 kinds" in out
    assert "t3^2 - x1^2 + x2^2 - x3^2 + 1/2*t3" in out  # w_s at s = 1/2


def test_catalog_rejects_param_on_named_fixed_kind(capsys):
    err = one_line_error(capsys, "catalog", "--kind", "fold", "--param", "1/2")
    assert "no deformation parameter" in err


BAD_BOXES = [
    ("1<=x<=0", "empty interval"),
    ("0<=x<=1/0", "bad rational"),
    ("|x|<=1_0", "bad rational"),
    # an empty --box is an error, not the default box
    ("", "empty box specification"),
    (" , ", "empty box specification"),
]


@pytest.mark.parametrize("box, message", BAD_BOXES)
def test_epsilon_rejects_bad_box(capsys, box, message):
    with pytest.raises(BoxParseError):
        parse_box(box)
    assert message in one_line_error(capsys, "epsilon", "--kind", "cusp", "--box", box)


@pytest.mark.parametrize("box", ["|x|<=1,|x|<=2", "|x|<=1, 0<=x<=1/2", "0<=u<=1,|x|<=1,-1<=u<=0"])
def test_epsilon_rejects_a_variable_bounded_twice(capsys, box):
    # the clauses are not silently overwritten or intersected
    with pytest.raises(BoxParseError, match="bounded more than once"):
        parse_box(box)
    assert "bounded more than once" in one_line_error(capsys, "epsilon", "--kind", "cusp", "--box", box)


def test_box_names_are_identifiers_with_the_bars_stripped(capsys):
    assert parse_box("| x |<=1, 0<= u <=1/2, |s|<=0.5") == parse_box("|x|<=1,0<=u<=1/2,|s|<=1/2")
    code, out, _ = run(capsys, "epsilon", "--kind", "cusp", "--box", "| x |<=1")
    assert code == 0 and "eps* = 1/3" in out


@pytest.mark.parametrize("box", ["0<=|x|<=1", "|x<=1", "||<=1", "|x y|<=1", "0<=1x<=1", "|\u00e9|<=1"])
def test_epsilon_rejects_a_box_name_that_is_not_an_identifier(capsys, box):
    with pytest.raises(BoxParseError):
        parse_box(box)
    one_line_error(capsys, "epsilon", "--kind", "cusp", "--box", box)


def test_epsilon_reports_an_uncertified_minimum_as_an_error(capsys):
    # the minimiser x = sqrt(u/10) is irrational, so branch-and-bound cannot settle it
    box = "0<=x<=1,1/20<=u<=1/10,|s|<=1/10"
    err = one_line_error(capsys, "epsilon", "--kind", "butterfly", "--box", box)
    assert "could not certify the minimum of 40*x^3 - 12*u*x + 4*s" in err


@pytest.mark.parametrize("box, name", [("|x|<=1,|q|<=1", "q"), ("|eps|<=1,|x|<=1", "eps")])
def test_epsilon_rejects_a_variable_outside_the_chart(capsys, box, name):
    with pytest.raises(RejectedBox, match=f"box bounds \\['{name}'\\]"):
        epsilon_bound("cusp", parse_box(box))
    code, out, err = run(capsys, "epsilon", "--kind", "cusp", "--box", box)
    assert (code, out) == (2, "")
    assert err == f"rejected: box bounds ['{name}'], which are not among the coordinates u, s, t, x, y, z\n"


def test_derive_rejects_zero_denominator_parameter(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--kind", "b_s", "--param", "1/0"])
    assert exc.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


# -- no run passes having checked nothing ---------------------------------------------


@pytest.mark.parametrize("scope, check", [("darboux", "rank"), ("fold", "fibre-positivity")])
def test_verify_rejects_a_selection_that_checks_nothing(capsys, scope, check):
    with pytest.raises(ValueError, match="nothing to check"):
        run_suite(scope=scope, checks=[check], samples=1)
    err = one_line_error(capsys, "verify", "--model", scope, "--check", check, "--samples", "1")
    assert "nothing to check" in err


def test_verify_runs_a_selection_where_some_check_applies(capsys):
    code, out, _ = run(
        capsys, "verify", "--model", "fold", "--check", "fibre-positivity", "--check", "rank", "--samples", "2"
    )
    assert code == 0
    assert "rank 2 at 2 non-critical" in out


def test_summary_tallies_check_reports_not_the_manifest(capsys):
    code, out, _ = run(capsys, "verify", "--model", "fold", "--check", "rank", "--samples", "2")
    assert code == 0
    assert out.splitlines()[-1] == "summary: 1 pass, 0 fail, 0 mismatch"


def test_verify_out_to_a_bad_path_fails_before_the_run(capsys, tmp_path, monkeypatch):
    def no_run(**kwargs):
        raise AssertionError("the suite ran before the output file was opened")

    monkeypatch.setattr("singfib.cli.run_suite", no_run)
    err = one_line_error(capsys, "verify", "--check", "rank", "--out", str(tmp_path / "missing" / "x.jsonl"))
    assert "cannot write" in err and "x.jsonl" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    ("argv", "to_full", "target"),
    [(("verify", "--model", "fold", "--check", "casimir", "--out", "/dev/full"), False, "/dev/full"),
     (("catalog", "--kind", "fold"), True, "standard output")],
    ids=["verify-out", "catalog-stdout"],
)
def test_output_that_opens_but_cannot_be_written_is_one_error_line(argv, to_full, target, unbuffered):
    with open("/dev/full", "w") if to_full else contextlib.nullcontext(subprocess.PIPE) as stdout:
        done = child(*argv, stdout=stdout, PYTHONUNBUFFERED=unbuffered)
    assert done.returncode == 2
    assert not done.stdout
    assert done.stderr.startswith(f"error: cannot write {target}: ") and done.stderr.count("\n") == 1


def test_verify_out_keeps_an_earlier_report_when_the_run_fails(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    run(capsys, "verify", "--model", "fold", "--check", "rank", "--samples", "2", "--out", str(out))
    earlier = out.read_bytes()
    assert earlier.count(b"\n") == 2
    one_line_error(capsys, "verify", "--model", "darboux", "--check", "rank", "--out", str(out))
    assert out.read_bytes() == earlier
    # a shorter report replaces a longer one completely
    run(capsys, "verify", "--model", "darboux", "--samples", "1", "--out", str(out))
    assert [json.loads(line)["check"] for line in out.read_text().splitlines()] == ["manifest", "darboux"]

"""Command-line interface: listing, derivation, verify determinism, bounds."""

from __future__ import annotations

import json
import random

import pytest

from singfib.catalog import get_model
from singfib.cli import main
from singfib.interval import BoxParseError, parse_box
from singfib.leaves import audit_leaf_formulas
from singfib.nearsymp import RejectedBox, epsilon_bound
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


def test_derive_rejects_definite_kind_above_dim6(capsys):
    assert "dim-6 model" in one_line_error(capsys, "derive", "--kind", "fold-def1", "--n", "4")


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


@pytest.mark.parametrize("box, message", [("1<=x<=0", "empty interval"), ("0<=x<=1/0", "bad rational")])
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

"""The failure path of the ``calculus`` check.

Each identity is broken on purpose by monkeypatching the operator the
check calls, and the check must report ``fail`` at the first trial, with
its own detail text (and, for d^2, the offending form as witness).
"""

from __future__ import annotations

import pytest

from singfib import exterior, suite
from singfib.poly import CHART6
from singfib.report import FAIL, PASS

SEED = 7
SAMPLES = 5


def _records(monkeypatch, name, fake):
    monkeypatch.setattr(suite, name, fake)
    return {r.check: r for r in suite.check_calculus("calculus", SEED, SAMPLES)}


def _first_forms(count):
    rng = suite._rng(SEED, "calculus", "d2")
    return [suite._random_form(CHART6, rng, rng.randint(0, 4)) for _ in range(count)]


def test_calculus_passes_unpatched():
    by_check = {r.check: r for r in suite.check_calculus("calculus", SEED, SAMPLES)}
    assert list(by_check) == ["d2", "leibniz", "pullback-d", "hodge", "homotopy", "schouten"]
    assert all(r.status == PASS for r in by_check.values())


def test_calculus_draws_from_the_labels_it_always_had(monkeypatch):
    labels = []

    def rng(seed, *names):
        labels.append(names)
        return real_rng(seed, *names)

    real_rng = suite._rng
    monkeypatch.setattr(suite, "_rng", rng)
    suite.check_calculus("calculus", SEED, SAMPLES)
    # the pullback-d check keeps the generator label "pullback"
    assert [name for _, name in labels] == ["d2", "leibniz", "pullback", "hodge", "homotopy", "schouten"]
    assert {scope for scope, _ in labels} == {"calculus"}


def test_d2_failure_names_the_form(monkeypatch):
    rep = _records(monkeypatch, "ext_d", lambda form: form)["d2"]
    assert (rep.model, rep.check, rep.status) == ("calculus", "d2", FAIL)
    assert rep.detail == "d(d(a)) != 0 at trial 0"
    assert rep.witness == str(_first_forms(1)[0])


def test_d2_failure_reports_the_first_failing_trial(monkeypatch):
    calls = []

    def ext_d(form):
        calls.append(form)
        # the first two trials (four calls) are exact, the third is not
        return exterior.ext_d(form) if len(calls) <= 4 else form

    rep = _records(monkeypatch, "ext_d", ext_d)["d2"]
    assert rep.status == FAIL
    assert rep.detail == "d(d(a)) != 0 at trial 2"
    assert rep.witness == str(_first_forms(3)[2])


def _constant_form(chart, degree):
    """The first ``degree`` coordinate differentials wedged together: closed and nonzero."""
    return exterior.KForm(chart, degree, {tuple(range(degree)): chart.one()})


def _not_a_derivation(form):
    # d plus a constant form breaks the Leibniz rule even where a factor is zero
    return exterior.ext_d(form) + _constant_form(form.chart, min(form.degree + 1, form.chart.n_geom))


@pytest.mark.parametrize(
    "check, name, fake, detail",
    [
        ("leibniz", "ext_d", _not_a_derivation, "Leibniz failed at trial 0"),
        (
            "pullback-d",
            "pullback",
            lambda form, fmap: exterior.pullback(form, fmap) + _constant_form(CHART6, form.degree),
            "pullback/d failed at trial 0",
        ),
        (
            "hodge",
            "hodge_star",
            lambda form: exterior.hodge_star(form).scale(2),
            "involution failed at trial 0",
        ),
        # a negated star keeps the involution and breaks the pairing
        ("hodge", "hodge_star", lambda form: -exterior.hodge_star(form), "pairing failed at trial 0"),
        (
            "homotopy",
            "poincare_homotopy",
            lambda form: exterior.poincare_homotopy(form).scale(2),
            "dK + Kd != id at trial 0",
        ),
        (
            "schouten",
            "schouten",
            lambda a, b: exterior.schouten(a, b) + exterior.KVector(CHART6, 3, {(0, 1, 2): CHART6.one()}),
            "bracket disagrees with the Jacobiator at trial 0",
        ),
    ],
    ids=["leibniz", "pullback-d", "hodge-involution", "hodge-pairing", "homotopy", "schouten"],
)
def test_broken_identity_fails_at_the_first_trial(monkeypatch, check, name, fake, detail):
    rep = _records(monkeypatch, name, fake)[check]
    assert (rep.model, rep.check, rep.status) == ("calculus", check, FAIL)
    assert rep.detail == detail
    assert rep.witness is None

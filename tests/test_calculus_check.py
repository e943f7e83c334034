"""The failure path of the ``calculus`` check.

Each identity is broken on purpose by monkeypatching the operator the
check calls, and the check must report ``fail`` at the first trial, with
its own detail text (and, for d^2, the offending form as witness).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singfib import exterior, suite
from singfib.nearsymp import TARGET4
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


def test_every_counted_trial_draws_nonzero_forms():
    # each d2 trial draws one form, each leibniz trial two degrees and then two forms
    assert not any(form.is_zero() for form in _first_forms(100))
    rng = suite._rng(SEED, "calculus", "leibniz")
    for _ in range(100):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        fa, fb = suite._random_form(CHART6, rng, ka), suite._random_form(CHART6, rng, kb)
        assert not fa.is_zero() and not fb.is_zero()


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


def test_calculus_draws_the_examples_it_always_drew(monkeypatch):
    # A PASS record does not show what a trial drew, so the draws are pinned as text: the ten
    # bivectors of the schouten trial at 100 samples, and the first six pullback-d forms (the
    # first three alone read the same generator bits under a term cap of 2 or 3).
    bivectors, pulled = [], []

    def schouten(a, b):
        bivectors.append(str(a))
        return exterior.schouten(a, b)

    def pullback(form, fmap):
        pulled.append(form)
        return exterior.pullback(form, fmap)

    monkeypatch.setattr(suite, "schouten", schouten)
    monkeypatch.setattr(suite, "pullback", pullback)
    suite.check_calculus("calculus", SEED, 100)
    assert bivectors == [
        "3*t2*ex1^ex2",
        "(2*x1 - x3 - 2/3)*et3^ex1 + (t3*x2 + t2)*et3^ex3",
        "(1/3*t1*x3 - 2/3*t2)*et1^et3",
        "(4*t3*x1 + 3*t2)*et1^et2",
        "(-4)*et1^ex1 + (-2)*et1^ex2",
        "(-2*t1*x2 + 1/3*t3^2 - 3/2*x1)*et1^ex1",
        "(-14/3)*et1^et3 + (-2*t1*t2 - 3/2*t1 - 3)*et3^ex2",
        "(3*x2^2 - 1/2*t2)*et1^et3 + (-3*t2 + 1/2*t3)*ex1^ex2",
        "(-2*t1*x2 - x1 + 2*x2)*et1^ex3 + (-t2 - t3 - 3/2)*et2^et3",
        "(t2*x2 - 4/3*t3*x2)*et3^ex1 + (2*t3*x2 - 2*t1)*ex1^ex3",
    ]
    # each pullback-d trial pulls back d(form) first, then the drawn form
    forms = pulled[1::2][:6]
    assert all(form.chart == TARGET4 for form in forms)
    assert [str(form) for form in forms] == [
        "2*w4*dw1^dw3^dw4",
        "1/3*w3^2*dw1^dw2 + 4/3*w4^2*dw1^dw4",
        "(-w3 + 2/3)*dw1^dw2",
        "-dw1^dw2",
        "(w2*w3 + 2/3*w3^2 + 2)*dw1^dw2 + (-4*w3)*dw1^dw3",
        "w3*dw1^dw3^dw4",
    ]


def _poly_by_products(chart, rng):
    """The random polynomial as a sum of constant-times-coordinate products: the oracle for ``_random_poly``."""
    while True:
        p = chart.zero()
        for _ in range(rng.randint(1, suite._POLY_TERMS)):
            term = chart.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, suite._POLY_DEGREE)):
                term = term * chart.var(rng.choice(chart.geometric_names()))
            p = p + term
        if not p.is_zero():
            return p


@pytest.mark.parametrize("chart", [CHART6, TARGET4], ids=["chart6", "target4"])
def test_random_poly_draws_the_sum_of_products(chart):
    # the same polynomial, and the generator in the same state after it, draw by draw
    for seed in range(300):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert suite._random_poly(chart, fast) == _poly_by_products(chart, slow), seed
            assert fast.getstate() == slow.getstate(), seed


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

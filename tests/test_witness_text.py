"""The text of a record that prints a sampled point.

Points are sampled and checked as ``poly.IntegerPoint``s; a record that
prints one shows it as ``str`` of its Fraction coordinates, a list (a
witness) or a tuple (the leaf-audit mismatch row and the singular-frame
message).  The texts below were printed by the sampler that drew Fraction
points, at the same seed, so a change of form shows here first.
"""

from __future__ import annotations

import random

import pytest

from singfib import leaves, nearsymp, poisson
from singfib.catalog import critical_points_sample, get_model
from singfib.exterior import KVector, form_term
from singfib.leaves import SingularPoint, audit_leaf_formulas, defining_relations_check
from singfib.poisson import PoissonBivector, flaschka_ratiu, rank_stratification
from singfib.reference import NS_CHART_EPS
from test_leaves import frame_at

SEED = "witness:7"
#: the first point drawn at SEED on cusp(n=3), a non-critical one
FIRST = "[Fraction(3, 1), Fraction(3, 2), Fraction(-3, 1), Fraction(-3, 4), Fraction(1, 1), Fraction(-4, 3)]"


def constant_bivector(pairs):
    """A stand-in for ``flaschka_ratiu``: the constant bivector sum of e_i ^ e_j over the pairs."""

    def make(model, k=1):
        one = model.chart.one()
        return PoissonBivector(model, one, KVector(model.chart, 2, {ij: one for ij in pairs}))

    return make


def test_rank_witness_at_a_non_critical_point(monkeypatch):
    # the zero bivector has rank 0 at the first non-critical point
    monkeypatch.setattr(poisson, "flaschka_ratiu", constant_bivector([]))
    rep = rank_stratification(get_model("cusp", 3), 5, random.Random(SEED))
    assert (rep.detail, rep.witness) == ("rank 0 != 2 at non-critical point", FIRST)


def test_rank_witness_at_a_critical_point(monkeypatch):
    # e_t1 ^ e_t2 has rank 2 everywhere, so the first critical point fails; t1 = x1^2 was solved
    monkeypatch.setattr(poisson, "flaschka_ratiu", constant_bivector([(0, 1)]))
    rep = rank_stratification(get_model("cusp", 3), 5, random.Random(SEED))
    assert rep.detail == "rank 2 != 0 at critical point"
    assert rep.witness == (
        "[Fraction(9, 16), Fraction(1, 2), Fraction(1, 2), Fraction(-3, 4), Fraction(0, 1), Fraction(0, 1)]"
    )


def test_leaf_relations_witness(monkeypatch):
    # pi + e_t1 ^ e_t2 keeps the leaf plane but breaks the lambda^2 identity at every point
    model = get_model("cusp", 3)
    pi = flaschka_ratiu(model, 1).pi + KVector(model.chart, 2, {(0, 1): model.chart.one()})
    monkeypatch.setattr(leaves, "flaschka_ratiu", lambda m, k=1: PoissonBivector(m, m.chart.one(), pi))
    rep = defining_relations_check(model, 3, random.Random(SEED))
    assert (rep.detail, rep.witness) == ("lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2", FIRST)


def test_leaf_audit_mismatch_row():
    rep, rows = audit_leaf_formulas(get_model("fold", 3), 10, random.Random(SEED))
    assert rep.detail == "10 of 10 points disagree with (x1^2) / sqrt(4*x1^2 + 4*x3^2)"
    assert rep.witness == (
        f"point ({FIRST[1:-1]}): derived |lambda| = 0.273576452 (lambda^2 = 36/481), "
        "catalogued |lambda| = 0.183847965 (lambda^2 = 729/21568)"
    )
    assert str(tuple(rows[0].point.fractions())) == f"({FIRST[1:-1]})"


def test_degeneracy_witness():
    # a nondegenerate form has kernel dimension 0 at the first sampled point of Z, eps pinned to 1/8
    c = NS_CHART_EPS
    omega = form_term(c, 1, ("u", "s")) + form_term(c, 1, ("t", "x")) + form_term(c, 1, ("y", "z"))
    rep = nearsymp.degeneracy_checks(omega, nearsymp.ns_model("cusp"), 3, random.Random(SEED))
    assert rep.detail == "kernel dimension 0 != 4 at a critical point (eps=1/8)"
    assert rep.witness == (
        "[Fraction(3, 1), Fraction(3, 2), Fraction(9, 16), Fraction(-3, 4), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(1, 8)]"
    )


def test_singular_frame_message():
    model = get_model("cusp", 3)
    (point,) = critical_points_sample(model, 1, random.Random(SEED))
    with pytest.raises(SingularPoint) as exc:
        frame_at(model, point)
    assert str(exc.value) == (
        "Casimir differentials drop rank at (Fraction(9, 16), Fraction(3, 2), Fraction(-3, 1), "
        "Fraction(-3, 4), Fraction(0, 1), Fraction(0, 1)): kernel dimension 3"
    )

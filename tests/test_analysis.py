"""Exact communication-cost arithmetic, sweeps, and the ratio audit."""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import pytest

from sgcode.analysis import (
    AXES,
    CSV_COLUMNS,
    REGIME_INFEASIBLE,
    REGIME_SECURE_FREE,
    REGIME_SECURE_PAYS,
    Infeasible,
    cost_R,
    cost_Rn,
    cost_point,
    decimal12,
    feasibility_violation,
    feasible_tuples,
    order_optimality_check,
    ratio_and_beta,
    sweep,
    sweep_csv,
    sweep_rows,
)


# ---- single points -----------------------------------------------------------


def test_cost_small_example():
    assert cost_R(3, 3, 2, 2) == Fraction(2, 3)
    assert cost_Rn(3, 3, 2) == Fraction(1, 2)
    ratio, beta = ratio_and_beta(3, 3, 2, 2)
    assert ratio == Fraction(4, 3)
    assert beta == Fraction(3, 2)


def test_cost_against_direct_binomials():
    # Independent recomputation from the defining counts.
    for (N, Nr, M, S) in [(6, 5, 3, 3), (8, 7, 4, 3), (14, 12, 8, 6)]:
        r = math.comb(N, S) - (math.comb(M, S) if M >= S else 0)
        n = r * Nr - math.comb(N, S) * (N - M)
        assert cost_R(N, Nr, M, S) == Fraction(r, n)
        assert cost_Rn(N, Nr, M) == Fraction(1, Nr - N + M)


def test_cost_point_computes_each_binomial_once(monkeypatch):
    # One pass: C(N,S) and C(M,S) for the counts, C(N,S) again for beta.
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return math.comb(x, y) if 0 <= y <= x else 0

    monkeypatch.setattr("sgcode.keyspace.comb0", counting)
    monkeypatch.setattr("sgcode.analysis.comb0", counting)
    pt = cost_point(14, 12, 8, 6)
    assert (pt.R, pt.ratio, pt.beta) == (
        Fraction(425, 2526), Fraction(425, 421), Fraction(429, 425)
    )
    assert len(calls) <= 3


def test_free_security_regime_collapses_to_optimum():
    # With S > M the secure cost equals the non-secure optimum.
    for (N, Nr, M, S) in [(14, 12, 8, 9), (14, 12, 8, 13), (6, 6, 2, 3)]:
        assert S > M
        assert cost_R(N, Nr, M, S) == cost_Rn(N, Nr, M)


def test_feasibility_violations():
    assert feasibility_violation(3, 3, 2, 2) is None
    assert "S >= N-Nr+2" in feasibility_violation(3, 2, 1, 2)
    assert "not positive" in feasibility_violation(3, 3, 3, 2)
    assert "outside range" in feasibility_violation(3, 3, 4, 2)
    with pytest.raises(Infeasible, match="S >= N-Nr\\+2"):
        cost_R(3, 2, 1, 2)
    with pytest.raises(Infeasible, match="not positive"):
        ratio_and_beta(3, 3, 3, 2)
    with pytest.raises(Infeasible):
        cost_Rn(4, 2, 1)
    assert cost_point(3, 2, 1, 2).reason == feasibility_violation(3, 2, 1, 2)
    assert cost_point(3, 3, 2, 2).reason is None


def test_cost_point_flags_infeasible_but_keeps_rn():
    pt = cost_point(3, 2, 1, 2)
    assert pt.regime == REGIME_INFEASIBLE
    assert pt.R is None and pt.ratio is None
    assert pt.Rn is None  # Nr - N + M = 0 here
    pt2 = cost_point(6, 6, 6, 2)
    assert pt2.regime == REGIME_INFEASIBLE
    assert pt2.Rn == Fraction(1, 6)


def test_cost_point_regimes():
    assert cost_point(6, 6, 2, 3).regime == REGIME_SECURE_FREE
    assert cost_point(3, 3, 2, 2).regime == REGIME_SECURE_PAYS


def test_decimal12_rendering():
    assert decimal12(Fraction(2, 3)) == "0.666666666667"
    assert decimal12(Fraction(1, 2)) == "0.5"
    assert decimal12(Fraction(1)) == "1"
    assert decimal12(Fraction(1501, 6000)) == "0.250166666667"


# ---- sweeps ------------------------------------------------------------------


def test_sweep_axis_and_fixed_validation():
    with pytest.raises(ValueError):
        sweep("Q", [1], {"N": 3, "Nr": 3, "M": 2})
    with pytest.raises(ValueError):
        sweep("M", [2], {"N": 3, "Nr": 3})


def test_sweep_keeps_infeasible_rows():
    table = sweep("S", range(1, 4), {"N": 3, "Nr": 3, "M": 2})
    assert [v for v, _ in table] == [1, 2, 3]
    regimes = [pt.regime for _, pt in table]
    assert regimes == [REGIME_INFEASIBLE, REGIME_SECURE_PAYS, REGIME_SECURE_FREE]


def test_sweep_csv_format():
    table = sweep("M", [2], {"N": 3, "Nr": 3, "S": 2})
    text = sweep_csv("M", table)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = next(csv.reader(io.StringIO(lines[1])))
    assert row == ["M", "2", "2/3", "0.666666666667", "1/2", "0.5", "4/3", "1.33333333333", "S<=M"]
    assert text.endswith("\n")
    assert "\r" not in text


def test_sweep_rows_blank_cells_when_infeasible():
    table = sweep("S", [1], {"N": 3, "Nr": 3, "M": 2})
    row = sweep_rows("S", table)[0]
    assert row[2] == "" and row[3] == ""
    assert row[-1] == REGIME_INFEASIBLE


def test_axes_tuple():
    assert AXES == ("M", "S", "Nr", "N")


# ---- exhaustive audits -------------------------------------------------------


def test_feasible_tuples_small():
    assert feasible_tuples(3) == [
        (2, 2, 1, 2),
        (3, 2, 2, 3),
        (3, 3, 1, 2),
        (3, 3, 1, 3),
        (3, 3, 2, 2),
        (3, 3, 2, 3),
    ]


def test_order_optimality_audit_small():
    report = order_optimality_check(6)
    assert report.all_hold
    assert report.tuples_checked == len(feasible_tuples(6))
    assert Fraction(1) < report.max_ratio <= Fraction(2)
    assert report.argmax_at_S2_full_responders


def test_order_optimality_check_evaluates_each_candidate_once(monkeypatch):
    # One pass over the candidates: the feasibility counts of each, and
    # C(N,S) once more for beta on each of the 1716 feasible tuples.
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return math.comb(x, y) if 0 <= y <= x else 0

    monkeypatch.setattr("sgcode.keyspace.comb0", counting)
    monkeypatch.setattr("sgcode.analysis.comb0", counting)
    report = order_optimality_check(12)
    assert report.tuples_checked == 1716
    assert len(calls) == 7150


def test_order_optimality_rejects_huge_scan():
    with pytest.raises(ValueError):
        order_optimality_check(21)

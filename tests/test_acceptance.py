"""Acceptance battery: every criterion must pass at its stated tolerance.

Each case prints one PASS/FAIL line with the criterion's numeric detail;
the CLI's check-all subcommand runs the same registry, so the two can
never drift apart.
"""

import math

import numpy as np
import pytest
from scipy.optimize import fminbound, minimize_scalar

from vircut import acceptance, smear, verma

NAMES = [name for name, _ in acceptance.CRITERIA]


def test_registry_is_complete():
    assert len(acceptance.CRITERIA) == 10
    assert len(set(NAMES)) == 10
    assert set(PINNED_DETAILS) == set(NAMES)


# Every criterion's detail line.  The heat-sup and piecewise-field lines
# were recorded while the heat-sup search ran scipy's fminbound and the
# quadrature ran scipy's adaptive quad; the other eight with numpy 2.4.6.
PINNED_DETAILS = {
    "virasoro-relations": "8 (c,h) points, both modes; exact residuals zero, "
                          "worst float residual 9.09e-13; monomial basis at "
                          "c=7/10,h=1/2",
    "vacuum-spectrum": "c=1/2: [1, 0, 1]; c=7/10: [1, 0, 1]; c=1: [1, 0, 1]; "
                       "c=2: [1, 0, 1]",
    "translation-recursion": "recursion n=2..11 exact=True, level-2 dim one=True, "
                             "propagation exact=True",
    "heat-sup-closed-form": "2550 (k,m) cells; worst closed-vs-search relative "
                            "error 1.86e-14, 0 bound violations",
    "commutator-chain": "q_hat=0.134114 <= 3 r_hat^2=3.000000: True; worst "
                        "heat-identity residual 8.44e-16",
    "piecewise-field": "corners zero=True, d1 match=True, d2 jumps=['4', '4', "
                       "'4', '4'], modes |n|<=101 exact=True, quadrature worst "
                       "4.4e-16, decay 3.395305 vs 3.395305",
    "vacuum-nonvanishing": "closed 0.046318255379, matrix diff 6.94e-18",
    "mollifier-convergence": "k=67108864: error bound 6.217e-04 < 1e-3, monotone "
                             "over 27 rungs: True",
    "central-charge-additivity": "1/2 + 1/2 -> 1, 1/2 + 4/5 -> 13/10, both exact",
    "commutator-realization": "20 pairs, 800 matrix cells, all residuals exactly zero",
}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    result = acceptance.run_criterion(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    assert result.detail == PINNED_DETAILS[name]


def test_a_nan_float_residual_fails_the_relations_and_shows_in_the_detail(monkeypatch):
    real = verma.relation_residual_summary
    poisoned = []

    def first_float_summary_is_nan(rep, max_mode):
        summary = real(rep, max_mode=max_mode)
        if rep.mode == "float" and not poisoned:
            poisoned.append(rep)
            summary = {**summary, "max_abs": float("nan")}
        return summary

    monkeypatch.setattr(verma, "relation_residual_summary", first_float_summary_is_nan)
    passed, detail = acceptance.criterion_virasoro_relations()
    assert poisoned and not passed
    assert "worst float residual nan" in detail


def test_a_nan_heat_identity_residual_fails_the_chain_and_shows_in_the_detail(monkeypatch):
    real = smear.heat_identity_residual
    calls = []

    def first_residual_is_nan(rep, n, eps):
        calls.append((n, eps))
        return math.nan if len(calls) == 1 else real(rep, n, eps)

    monkeypatch.setattr(smear, "heat_identity_residual", first_residual_is_nan)
    passed, detail = acceptance.criterion_commutator_chain()
    assert len(calls) > 1 and not passed
    assert detail.endswith("worst heat-identity residual nan")


def _fm_grid_best_per_cell(k, m, grid):
    """The heat-sup search as it ran before the rows were shared: a fresh
    np.exp per cell, then minimize_scalar's bounded method."""
    vals = (np.exp(-grid * k) - np.exp(-grid * (k + m))) ** 2
    i = int(vals.argmax())
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]

    def neg(e):
        return -((math.exp(-e * k) - math.exp(-e * (k + m))) ** 2)

    res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return max(float(vals[i]), float(-res.fun))


def test_shared_heat_rows_match_the_per_cell_search_bit_for_bit():
    grid, rows = acceptance._heat_search_grid()
    assert len(rows) == 101
    for j, row in enumerate(rows):
        assert np.array_equal(row, np.exp(-grid * j))
    for k in (0, 1, 17, 50):
        for m in (1, 2, 29, 50):
            assert acceptance._fm_grid_best(k, m, grid, rows) == \
                _fm_grid_best_per_cell(k, m, grid), (k, m)


def test_bounded_search_matches_fminbound_on_every_cell():
    grid, rows = acceptance._heat_search_grid()
    for k in range(51):
        for m in range(1, 51):
            vals = (rows[k] - rows[k + m]) ** 2
            i = int(vals.argmax())
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]

            def neg(e):
                return -((math.exp(-e * k) - math.exp(-e * (k + m))) ** 2)

            _, want, _, _ = fminbound(neg, lo, hi, xtol=1e-14, full_output=True,
                                      disp=0)
            got = acceptance._bounded_min(neg, float(lo), float(hi), xtol=1e-14)
            assert float(got).hex() == float(want).hex(), (k, m)

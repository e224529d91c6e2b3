"""Acceptance battery: every criterion must pass at its stated tolerance.

Each case prints one PASS/FAIL line with the criterion's numeric detail;
the CLI's check-all subcommand runs the same registry, so the two can
never drift apart.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from vircut import acceptance, verma

NAMES = [name for name, _ in acceptance.CRITERIA]


def test_registry_is_complete():
    assert len(acceptance.CRITERIA) == 10
    assert len(set(NAMES)) == 10


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    result = acceptance.run_criterion(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


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

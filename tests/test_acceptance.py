"""Acceptance battery: every criterion must pass at its stated tolerance.

Each case prints one PASS/FAIL line with the criterion's numeric detail;
the CLI's check-all subcommand runs the same registry, so the two can
never drift apart.
"""

import pytest

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

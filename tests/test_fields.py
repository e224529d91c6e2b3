"""Fourier fields and the glued Mobius vector field."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vircut.fields import (
    CORNERS,
    FourierField,
    bracket_with_cocycle,
    build_piecewise_mobius,
    corner_values,
    cosine_field,
    evaluate,
    evaluate_series,
    fourier_coefficient_quadrature,
    mobius_piece,
    mode_field,
    norm_three_halves,
    one_sided_derivatives,
    random_real_field,
    truncated_fourier,
)
from vircut.rational import CFrac


# ---------------------------------------------------------------------------
# finite fields


def test_mode_field_support_and_reality():
    f = mode_field(3)
    assert f.support == (3,)
    assert f.real is False
    assert mode_field(0).real is True


def test_cosine_field_is_real():
    f = cosine_field(2)
    assert f.support == (-2, 2)
    assert f.real is True
    assert f.coefficient(2) == CFrac(Fraction(1, 2))


def test_reality_violation_lists_offending_modes():
    with pytest.raises(ValueError, match=r"reality violated at modes \[-2, 2\]"):
        FourierField({2: CFrac(Fraction(1, 2)), -2: CFrac(Fraction(1, 3))},
                     real=True)


def test_reality_autodetection():
    f = FourierField({1: CFrac(Fraction(1), Fraction(2)),
                      -1: CFrac(Fraction(1), Fraction(-2))})
    assert f.real is True
    g = FourierField({1: CFrac(Fraction(1))})
    assert g.real is False


def test_random_real_field_is_exact_and_real(rng=None):
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_real_field(rng, max_mode=3, denominator=8)
        assert f.real and f.is_exact
        assert all(abs(n) <= 3 for n in f.support)
        for n in f.support:
            assert f.coefficient(-n) == f.coefficient(n).conjugate()


def test_field_arithmetic_stays_exact():
    f = cosine_field(1) + cosine_field(2)
    g = f - cosine_field(1)
    assert g.support == (-2, 2)
    assert g.is_exact
    h = Fraction(2) * cosine_field(1)
    assert h.coefficient(1) == CFrac(Fraction(1))


# ---------------------------------------------------------------------------
# the glued piecewise-Mobius field


def test_single_piece_values():
    g1 = mobius_piece(1 + 0j)
    assert g1.support == (-1, 0, 1)
    assert evaluate(g1, math.pi) == pytest.approx(4.0)  # value at z = -1
    assert evaluate(g1, 0.0) == pytest.approx(0.0)      # vanishes at z = 1


def test_glued_field_vanishes_at_corners_exactly(piecewise):
    for left, right in corner_values(piecewise).values():
        assert left == 0 and right == 0


def test_first_derivatives_match_at_corners(piecewise):
    expected = {0: -2, 1: 2, 2: -2, 3: 2}
    for j, corner in enumerate(CORNERS):
        left, right = one_sided_derivatives(piecewise, corner, 1)
        assert left == right == expected[j]


def test_second_derivative_jumps_have_magnitude_four(piecewise):
    for corner in CORNERS:
        left, right = one_sided_derivatives(piecewise, corner, 2)
        assert abs(right - left) == 4
        assert abs(left) == 2 and abs(right) == 2


def test_closed_form_coefficients(piecewise):
    for n in range(-101, 102):
        a, b = piecewise.coefficient_exact(n)
        if n % 4 == 2:
            assert b == CFrac(0)
            assert a == CFrac(Fraction(0), Fraction(8, n * (n * n - 1)))
        else:
            assert a == CFrac(0) and b == CFrac(0)


def test_vectorized_closed_form_is_the_scalar_quotient(piecewise):
    # bit for bit, signed zeros included, and without a warning at n = 0, +-1
    ns = np.arange(-5000, 5001)
    want = np.array([8j / (math.pi * n * (n * n - 1)) if n % 4 == 2 else 0j
                     for n in ns.tolist()])
    got = piecewise.coefficient_closed(ns)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_vectorized_closed_form_rounds_the_exact_coefficient(piecewise):
    ns = np.arange(-101, 102)
    for n, got in zip(ns.tolist(), piecewise.coefficient_closed(ns)):
        a, b = piecewise.coefficient_exact(n)
        want = complex(a) / math.pi + complex(b)
        assert abs(got - want) <= 2 * np.finfo(float).eps * abs(want)


def test_quadrature_agrees_with_closed_form(piecewise):
    ns = (2, -2, 3, 4, 6, 10, 34)
    for n, closed in zip(ns, piecewise.coefficient_closed(ns)):
        value, err = fourier_coefficient_quadrature(piecewise, n)
        assert abs(value - closed) <= 1e-12
        assert err <= 1e-12


def test_pointwise_values(piecewise):
    # midpoint of the first arc: 2 - 2 sqrt(2), and quarter rotations flip sign
    assert evaluate(piecewise, math.pi / 4) == pytest.approx(2 - 2 * math.sqrt(2))
    for theta in (0.3, 1.1, 2.9):
        assert evaluate(piecewise, theta + math.pi / 2) == pytest.approx(
            -evaluate(piecewise, theta), abs=1e-12)


def test_partial_sums_converge_pointwise(piecewise):
    theta = 0.7
    exact = evaluate(piecewise, theta)
    assert abs(evaluate_series(piecewise, theta, 200) - exact) <= 1e-5


def test_truncated_fourier_is_real_with_sparse_support(piecewise):
    f = truncated_fourier(piecewise, 20)
    assert f.real is True
    assert all(n % 4 == 2 or n % 4 == -2 for n in f.support)
    assert set(f.support) == {n for n in range(-20, 21) if n % 4 == 2}


# ---------------------------------------------------------------------------
# norms


def test_norm_of_single_mobius_piece():
    report = norm_three_halves(mobius_piece(1 + 0j), cutoff=1)
    assert report.partial_sum == pytest.approx(2 + 4 * math.sqrt(2))
    assert report.tail_bound in (None, 0.0)


def test_norm_of_cosine():
    report = norm_three_halves(cosine_field(1), cutoff=1)
    assert report.partial_sum == pytest.approx(2.0)


def test_piecewise_norm_partial_and_tail(piecewise):
    small = norm_three_halves(piecewise, cutoff=10)
    large = norm_three_halves(piecewise, cutoff=1000)
    assert small.partial_sum < large.partial_sum
    assert small.tail_bound > large.tail_bound > 0
    assert large.total_bound() >= large.partial_sum


# ---------------------------------------------------------------------------
# brackets


def test_bracket_of_modes_follows_the_witt_rule():
    f, g = mode_field(2), mode_field(3)
    h, omega = bracket_with_cocycle(f, g, Fraction(1, 2))
    # h_5 = (2 n - k) f_n g_{k-n} at n = 2, k = 5
    assert h.support == (5,)
    assert h.coefficient(5) == CFrac(Fraction(-1))
    assert omega == 0


def test_bracket_cocycle_on_conjugate_modes():
    f, g = mode_field(2), mode_field(-2)
    h, omega = bracket_with_cocycle(f, g, Fraction(1, 2))
    assert h.coefficient(0) == CFrac(Fraction(4))
    assert omega == Fraction(1, 4)  # c (n^3 - n)/12 at n = 2, c = 1/2


def test_bracket_antisymmetry_on_cosines():
    f, g = cosine_field(2), cosine_field(3)
    h1, o1 = bracket_with_cocycle(f, g, Fraction(1, 2))
    h2, o2 = bracket_with_cocycle(g, f, Fraction(1, 2))
    for n in set(h1.support) | set(h2.support):
        assert h1.coefficient(n) == -h2.coefficient(n)
    assert o1 == -o2 == 0


def test_bracket_of_field_with_itself_has_no_cocycle():
    f = cosine_field(2)
    h, omega = bracket_with_cocycle(f, f, Fraction(1, 2))
    assert not h.support
    assert omega == 0

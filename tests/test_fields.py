"""Fourier fields and the glued Mobius vector field."""

import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vircut.fields import (
    CORNERS,
    FourierField,
    PiecewiseMobiusField,
    bracket_with_cocycle,
    build_piecewise_mobius,
    coefficient_rows,
    corner_table,
    cosine_field,
    evaluate,
    evaluate_series,
    fourier_coefficient,
    fourier_coefficient_quadrature,
    mobius_piece,
    mode_field,
    norm_three_halves,
    random_real_field,
    truncated_fourier,
)
from vircut.rational import CFrac

# SHA-256 of repr(coefficient_rows(glued, 400)), recorded while every row
# still came from the arc-integral route.
ROWS_PIN = json.loads((Path(__file__).parent / "data" / "glued_field_bits.json")
                      .read_text())["coefficient_rows"]


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


# ---------------------------------------------------------------------------
# the glued piecewise-Mobius field


def test_single_piece_values():
    g1 = mobius_piece(1 + 0j)
    assert g1.support == (-1, 0, 1)
    assert evaluate(g1, math.pi) == pytest.approx(4.0)  # value at z = -1
    assert evaluate(g1, 0.0) == pytest.approx(0.0)      # vanishes at z = 1


def test_glued_pieces_are_the_rotated_mobius_pieces(piecewise):
    # on the arc from p = i^j to ip the glued field is g_p = p^2 g1(z/p),
    # whose mode-m coefficient is p^{2-m} g1_hat(m)
    g1_hat = {-1: -1 - 1j, 0: 2, 1: -1 + 1j}
    for j, p in enumerate(CORNERS):
        g_p = mobius_piece(p)
        assert piecewise.pieces[j] == tuple(g_p.coefficient(m) for m in (-1, 0, 1))
        assert [complex(a) for a in piecewise.pieces[j]] == [
            p ** (2 - m) * g1_hat[m] for m in (-1, 0, 1)]
        for theta in np.linspace(j * math.pi / 2, (j + 1) * math.pi / 2, 7):
            assert evaluate(piecewise, theta) == pytest.approx(evaluate(g_p, theta),
                                                               abs=1e-12)


def test_corner_table_rows_are_labelled_corners(piecewise):
    table = corner_table(piecewise)
    assert [row["corner"] for row in table] == ["1", "i", "-1", "-i"]
    assert all(list(row) == ["corner", "value_left", "value_right", "d1_left",
                             "d1_right", "d2_left", "d2_right", "d2_jump"]
               for row in table)
    assert all(type(value) is Fraction for row in table
               for key, value in row.items() if key != "corner")


def test_glued_field_vanishes_at_corners_exactly(piecewise):
    for row in corner_table(piecewise):
        assert row["value_left"] == 0 and row["value_right"] == 0


def test_first_derivatives_match_at_corners(piecewise):
    expected = {"1": -2, "i": 2, "-1": -2, "-i": 2}
    for row in corner_table(piecewise):
        assert row["d1_left"] == row["d1_right"] == expected[row["corner"]]


def test_second_derivative_jumps_have_magnitude_four(piecewise):
    for row in corner_table(piecewise):
        assert row["d2_jump"] == abs(row["d2_right"] - row["d2_left"]) == 4
        assert abs(row["d2_left"]) == 2 and abs(row["d2_right"]) == 2


def test_corner_table_matches_the_rotated_pieces_numerically(piecewise):
    # the piece on the arc ending at corner j is g_p with p = i^{j-1}; its
    # theta-derivatives there, by central differences of evaluate
    step = 1e-4
    for j, row in enumerate(corner_table(piecewise)):
        theta = j * math.pi / 2
        for side, piece in (("left", mobius_piece(CORNERS[j - 1])),
                            ("right", mobius_piece(CORNERS[j]))):
            f = [evaluate(piece, theta + k * step) for k in (-1, 0, 1)]
            assert f[1] == pytest.approx(float(row["value_" + side]), abs=1e-12)
            assert (f[2] - f[0]) / (2 * step) == pytest.approx(
                float(row["d1_" + side]), abs=1e-6)
            assert (f[2] - 2 * f[1] + f[0]) / step**2 == pytest.approx(
                float(row["d2_" + side]), abs=1e-4)


def _arc_integral(d, j):
    """Integral of e^{i d theta} over [j pi/2, (j+1) pi/2], as (a, b) = a + b pi."""
    if d == 0:
        return CFrac(0), CFrac(Fraction(1, 2))
    units = (CFrac(1, 0), CFrac(0, 1), CFrac(-1, 0), CFrac(0, -1))
    num = units[d * (j + 1) % 4] - units[d * j % 4]
    return CFrac(num.im / d, -num.re / d), CFrac(0)  # num / (i d)


def _coefficient_by_arc_fractions(field, n):
    """Twelve arc integrals in CFrac arithmetic: the oracle's oracle."""
    a_total = CFrac(0)
    b_total = CFrac(0)
    for j in range(4):
        for m in (-1, 0, 1):
            g = field.pieces[j][m + 1]
            a, b = _arc_integral(m - n, j)
            a_total = a_total + g * a
            b_total = b_total + g * b
    # the arc integrals sum to a_total + b_total pi; 1/(2 pi) normalizes
    return a_total * Fraction(1, 2), b_total * Fraction(1, 2)


def test_integer_arc_sums_equal_the_fraction_arc_integrals(piecewise):
    for n in range(-400, 401):
        assert piecewise.coefficient_exact(n) == _coefficient_by_arc_fractions(
            piecewise, n), n


def test_pieces_must_be_gaussian_integers(piecewise):
    # coefficient_exact sums the pieces' numerators over the integers, which
    # reads the fixed pieces right only while they are Gaussian integers
    assert all(g.re.denominator == 1 and g.im.denominator == 1
               for piece in piecewise.pieces for g in piece)


def test_the_glued_field_is_fixed(piecewise):
    # it takes no pieces, so no caller can hand its closed forms a field
    # they do not describe
    with pytest.raises(TypeError):
        PiecewiseMobiusField(piecewise.pieces)
    assert PiecewiseMobiusField() == piecewise


def test_closed_form_coefficients(piecewise):
    for n in range(-101, 102):
        a, b = piecewise.coefficient_exact(n)
        assert b == CFrac(0)
        assert a == piecewise.closed_form(n)
        assert bool(a) == (n % 4 == 2)
    assert piecewise.closed_form(2) == CFrac(0, Fraction(4, 3))
    assert piecewise.closed_form(-6) == CFrac(0, Fraction(-8, 210))


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


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def test_fourier_coefficient_is_the_arc_integral_bit_for_bit(piecewise):
    # signed zeros included
    for n in range(-400, 401):
        a, b = piecewise.coefficient_exact(n)
        want = complex(a) / math.pi + complex(b)
        got = fourier_coefficient(piecewise, n)
        assert type(got) is complex
        assert _bits(got) == _bits(want), n


def test_coefficient_rows_bits_are_pinned(piecewise):
    rows = coefficient_rows(piecewise, ROWS_PIN["cutoff"])
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROWS_PIN["repr_sha256"]


def _adaptive_quadrature(field, n):
    """The coefficient by scipy's adaptive quad on each of the four arcs,
    the package's route before its Gauss-Legendre rule."""
    from scipy.integrate import quad

    total = 0j
    for j in range(4):
        lo, hi = j * math.pi / 2, (j + 1) * math.pi / 2
        re, _ = quad(lambda t: math.cos(n * t) * evaluate(field, t), lo, hi,
                     epsabs=1e-14, epsrel=1e-14, limit=200)
        im, _ = quad(lambda t: -math.sin(n * t) * evaluate(field, t), lo, hi,
                     epsabs=1e-14, epsrel=1e-14, limit=200)
        total += re + 1j * im
    return total / (2 * math.pi)


def test_quadrature_agrees_with_closed_form(piecewise):
    ns = (2, -2, 3, 4, 6, 10, 34)
    for n, closed in zip(ns, piecewise.coefficient_closed(ns)):
        value = fourier_coefficient_quadrature(piecewise, n)
        assert type(value) is complex
        assert abs(value - closed) <= 1e-12


@pytest.mark.parametrize("n", (0, 1, -1, 2, -2, 3, 4, 5, 6, 10, 34, 50, 101, -214))
def test_quadrature_agrees_with_adaptive_quadrature(piecewise, n):
    assert abs(fourier_coefficient_quadrature(piecewise, n)
               - _adaptive_quadrature(piecewise, n)) <= 1e-14


def test_pointwise_values(piecewise):
    # midpoint of the first arc: 2 - 2 sqrt(2), and quarter rotations flip sign
    assert evaluate(piecewise, math.pi / 4) == pytest.approx(2 - 2 * math.sqrt(2))
    for theta in (0.3, 1.1, 2.9):
        assert evaluate(piecewise, theta + math.pi / 2) == pytest.approx(
            -evaluate(piecewise, theta), abs=1e-12)


def test_evaluate_reads_the_pieces_as_complex_bit_for_bit(piecewise):
    # the profile's 2000 angles, against complex() of each exact coefficient
    for i in range(2000):
        theta = 2.0 * math.pi * i / 2000
        j = int(math.floor(theta / (math.pi / 2))) % 4
        direct = sum(complex(piecewise.pieces[j][m + 1]) * np.exp(1j * m * theta)
                     for m in (-1, 0, 1)).real
        assert evaluate(piecewise, theta) == direct


@pytest.mark.parametrize("cutoff", [1, 2, 3, 6, 200])
def test_series_reads_the_memo_bit_for_bit(piecewise, cutoff):
    # against the sum over all 2 cutoff + 1 modes, by float.hex so that the
    # sign of a zero counts: the quarter turns, where terms cancel, at every
    # cutoff, and the profile's 2000 angles at cutoff 200
    ns = np.arange(-cutoff, cutoff + 1)
    coeffs = piecewise.coefficient_closed(ns)
    thetas = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.7, math.pi / 4, 2.5, -1.3, 6.0]
    if cutoff == 200:
        thetas += [2.0 * math.pi * i / 2000 for i in range(2000)]
    for theta in thetas:
        direct = float.hex(float(np.real(np.sum(coeffs * np.exp(1j * ns * theta)))))
        assert float.hex(evaluate_series(piecewise, theta, cutoff)) == direct, theta
        assert float.hex(evaluate_series(piecewise, theta, cutoff)) == direct  # from the memo


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
    assert report.tail_bound == 0.0


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
        assert h1.coefficient(n) + h2.coefficient(n) == 0
    assert o1 == o2 == 0


def test_bracket_of_field_with_itself_has_no_cocycle():
    f = cosine_field(2)
    h, omega = bracket_with_cocycle(f, f, Fraction(1, 2))
    assert not h.support
    assert omega == 0

"""Property-based invariants over randomized exact inputs."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from vircut import verma
from vircut.fields import (
    FEJER,
    FourierField,
    bracket_with_cocycle,
    norm_three_halves,
)
from vircut.rational import CFrac
from vircut.smear import fm_sup, hermiticity_residual, smear

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def real_fields(draw, max_mode=3):
    coeffs = {0: CFrac(draw(rationals))}
    for n in range(1, max_mode + 1):
        a = CFrac(draw(rationals), draw(rationals))
        coeffs[n] = a
        coeffs[-n] = a.conjugate()
    return FourierField(coeffs, real=True)


@settings(max_examples=40, deadline=None)
@given(real_fields())
def test_reality_is_conjugate_symmetry(f):
    assert f.real and f.is_exact
    for n in f.support:
        assert f.coefficient(-n) == f.coefficient(n).conjugate()


@settings(max_examples=25, deadline=None)
@given(real_fields(), real_fields(), rationals)
def test_bracket_is_bilinear(f, g, scale):
    c = Fraction(1, 2)
    h1, o1 = bracket_with_cocycle(f, g, c)
    scaled = FourierField({n: a * Fraction(scale) for n, a in f.coefficients.items()})
    h2, o2 = bracket_with_cocycle(scaled, g, c)
    for n in set(h1.support) | set(h2.support):
        assert h2.coefficient(n) == CFrac(scale) * h1.coefficient(n)
    assert o2 == CFrac(scale) * o1


@settings(max_examples=25, deadline=None)
@given(real_fields(), real_fields())
def test_bracket_is_antisymmetric(f, g):
    c = Fraction(7, 10)
    h1, o1 = bracket_with_cocycle(f, g, c)
    h2, o2 = bracket_with_cocycle(g, f, c)
    for n in set(h1.support) | set(h2.support):
        assert h1.coefficient(n) + h2.coefficient(n) == 0
    assert o1 + o2 == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=200),
       st.integers(min_value=-500, max_value=500))
def test_multiplier_bounds(k, n):
    m = FEJER.multiplier(k, n)
    assert 0.0 <= m <= 1.0
    assert (m == 0.0) == (abs(n) >= k + 1)
    # float route and rounded exact route may differ by one ulp
    assert abs(float(max(Fraction(0), 1 - Fraction(abs(n), k + 1))) - m) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_norm_partial_sum_monotone_in_cutoff(piecewise, k1, k2):
    lo, hi = sorted((k1, k2))
    a = norm_three_halves(piecewise, lo)
    b = norm_three_halves(piecewise, hi)
    assert a.partial_sum <= b.partial_sum
    assert a.tail_bound >= b.tail_bound


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
       st.integers(min_value=1, max_value=50))
@example(5e-324, 2)
def test_fm_sup_dominates_every_sample(k, m):
    _, sup_sq = fm_sup(k, m)
    eps = np.logspace(-5, 1.5, 60)
    vals = (np.exp(-eps * k) - np.exp(-eps * (k + m))) ** 2
    assert float(vals.max()) <= sup_sq * (1 + 1e-12)


@settings(max_examples=10, deadline=None)
@given(real_fields())
def test_real_fields_smear_to_hermitian_operators(ising8, f):
    report = hermiticity_residual(smear(ising8, f))
    assert report.zero is True


@settings(max_examples=15, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=10),
       st.fractions(min_value=0, max_value=3, max_denominator=10))
def test_gram_matrices_are_symmetric(c, h):
    gram = verma.gram_matrix(c, h, 3)
    m = gram.entries
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            assert m[i, j] == m[j, i]

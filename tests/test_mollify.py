"""Mollifier families and coefficient-wise smoothing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vircut.fields import (
    FEJER,
    MollifierFamily,
    cosine_field,
    mollify,
)
from vircut.rational import CFrac


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown mollifier kind"):
        MollifierFamily("boxcar")


def test_fejer_multiplier_exact_values():
    assert FEJER.multiplier_exact(1, 0) == 1
    assert FEJER.multiplier_exact(1, 1) == Fraction(1, 2)
    assert FEJER.multiplier_exact(1, -1) == Fraction(1, 2)
    assert FEJER.multiplier_exact(1, 2) == 0
    assert FEJER.multiplier_exact(4, 3) == Fraction(2, 5)


def test_multiplier_bounds_and_vectorization():
    ns = np.arange(-50, 51)
    for k in (0, 1, 5, 25):
        vals = FEJER.multiplier(k, ns)
        assert vals.shape == ns.shape
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert FEJER.multiplier(k, 0) == 1.0
    assert FEJER.multiplier(3, 10) == 0.0


def test_support_cut():
    assert FEJER.support_cut(7) == 7


def test_fejer_keeps_exact_fields_exact():
    f = mollify(cosine_field(1), FEJER, 1)
    assert f.is_exact and f.real
    assert f.coefficient(1) == CFrac(Fraction(1, 4))
    assert f.coefficient(-1) == CFrac(Fraction(1, 4))


def test_fejer_kills_modes_beyond_its_support():
    f = mollify(cosine_field(1), FEJER, 0)
    assert f.support == ()


def test_piecewise_fejer_truncates_to_multiplier_support(piecewise):
    f = mollify(piecewise, FEJER, 10)
    assert f.real is True
    assert set(f.support) <= {n for n in range(-10, 11) if n % 4 == 2}
    expected = FEJER.multiplier(10, 2) * (8j / (math.pi * 2 * 3))
    assert complex(f.coefficient(2)) == pytest.approx(expected)

"""The Fejer multiplier family."""

from fractions import Fraction

import numpy as np

from vircut.fields import FEJER


def test_fejer_multiplier_exact_values():
    # each value is the rounding of 1 - |n|/(k+1), clipped at zero
    for k, n, exact in [(1, 0, 1), (1, 1, Fraction(1, 2)), (1, -1, Fraction(1, 2)),
                        (1, 2, 0), (4, 3, Fraction(2, 5))]:
        assert FEJER.multiplier(k, n) == float(exact)


def test_multiplier_bounds_and_vectorization():
    ns = np.arange(-50, 51)
    for k in (0, 1, 5, 25):
        vals = FEJER.multiplier(k, ns)
        assert vals.shape == ns.shape
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert FEJER.multiplier(k, 0) == 1.0
    assert FEJER.multiplier(3, 10) == 0.0

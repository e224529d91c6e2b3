"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from vircut.rational import (
    CFrac,
    IndefiniteMatrixError,
    as_fraction,
    exact_rank_nullspace,
    fmt_rational,
    object_eye,
    object_zeros,
    psd_congruence,
    to_float,
)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction("-5/9") == Fraction(-5, 9)


def test_as_fraction_refuses_floats():
    with pytest.raises(TypeError, match="not an exact rational"):
        as_fraction(0.5)


def test_fmt_parse_round_trip():
    for x in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-1, 12)):
        assert Fraction(fmt_rational(x)) == x
    assert fmt_rational(Fraction(4, 2)) == "2"


def test_cfrac_field_operations():
    a = CFrac(Fraction(1, 2), Fraction(-1, 3))
    b = CFrac(Fraction(2), Fraction(5))
    assert a + b == CFrac(Fraction(5, 2), Fraction(14, 3))
    assert a * b - b * a == CFrac(0)
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert a.abs_squared() == Fraction(1, 4) + Fraction(1, 9)
    assert not a.is_real() and CFrac(Fraction(7)).is_real()


def test_cfrac_refuses_lossy_conversions():
    with pytest.raises(TypeError):
        CFrac.of(1.5)
    with pytest.raises(TypeError):
        CFrac.of(1 + 2j)


def test_cfrac_complex_bridge():
    z = CFrac(Fraction(3, 4), Fraction(-2))
    assert complex(z) == 0.75 - 2j
    assert abs(CFrac(Fraction(3), Fraction(4))) == 5.0
    assert bool(CFrac(0)) is False


def test_object_helpers():
    z = object_zeros((2, 3))
    assert z.dtype == object and all(isinstance(v, Fraction) for v in z.ravel())
    eye = object_eye(3)
    assert eye[1, 1] == 1 and eye[0, 1] == 0
    f = to_float(eye)
    assert f.dtype == np.float64 and f[2, 2] == 1.0


def test_exact_rank_nullspace():
    m = np.array([[Fraction(1), Fraction(2)],
                  [Fraction(2), Fraction(4)]], dtype=object)
    rank, kernel = exact_rank_nullspace(m)
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    assert all(x == 0 for x in m.dot(v))


def test_psd_congruence_diagonalizes():
    m = np.array([[Fraction(2), Fraction(1), Fraction(0)],
                  [Fraction(1), Fraction(2), Fraction(1)],
                  [Fraction(0), Fraction(1), Fraction(2)]], dtype=object)
    d, basis, rank = psd_congruence(m)
    assert rank == 3 and all(x > 0 for x in d[:rank])
    prod = basis.dot(m).dot(basis.T)
    for i in range(3):
        for j in range(3):
            assert prod[i, j] == (d[i] if i == j else 0)


def test_psd_congruence_detects_kernel():
    m = np.array([[Fraction(1), Fraction(1)],
                  [Fraction(1), Fraction(1)]], dtype=object)
    d, basis, rank = psd_congruence(m)
    assert rank == 1 and d[1] == 0
    v = basis[1]
    assert all(x == 0 for x in m.dot(v))


def test_psd_congruence_refuses_indefinite():
    m = np.array([[Fraction(1), Fraction(2)],
                  [Fraction(2), Fraction(1)]], dtype=object)
    with pytest.raises(IndefiniteMatrixError):
        psd_congruence(m)


def test_scalar_multiplication_keeps_exactness():
    arr = object_eye(2)
    scaled = arr * Fraction(3, 7)
    assert scaled[0, 0] == Fraction(3, 7)
    assert isinstance(scaled[0, 0], Fraction)
    mixed = arr * CFrac(Fraction(0), Fraction(1))
    assert mixed[1, 1] == CFrac(Fraction(0), Fraction(1))

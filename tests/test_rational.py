"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vircut import fields
from vircut.rational import (
    CFrac,
    IndefiniteMatrixError,
    Residual,
    as_fraction,
    dot,
    exact_rank_nullspace,
    eye,
    fmt_rational,
    psd_congruence,
    to_float,
    zeros,
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


def test_cfrac_scalar_fast_path_matches_the_general_product():
    z = CFrac(Fraction(1, 2), Fraction(-1, 3))
    for x in (Fraction(3, 5), Fraction(-7, 2), 4, 0, True):
        want = CFrac(z.re * x, z.im * x)
        assert z * x == want and x * z == want
        assert z * x == z * CFrac.of(x)
        assert type((z * x).re) is Fraction and type((x * z).im) is Fraction


def test_cfrac_keeps_fraction_parts_and_wraps_the_rest():
    half = Fraction(1, 2)
    z = CFrac(half, 3)
    assert z.re is half
    assert type(z.im) is Fraction and z.im == 3


def test_cfrac_defers_to_the_other_operand():
    # FourierField.__rmul__ answers once CFrac returns NotImplemented
    assert CFrac(0, 1) * fields.mode_field(2) == fields.mode_field(2, amplitude=CFrac(0, 1))
    for op in (lambda z: z + 1.5, lambda z: z - 1.5, lambda z: 1.5 - z,
               lambda z: z * object(), lambda z: z / 1.5, lambda z: z * 1j):
        with pytest.raises(TypeError):
            op(CFrac(1, 1))


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
    z = zeros((2, 3), "exact")
    assert z.dtype == object and all(type(v) is Fraction for v in z.ravel())
    one = eye(3, "exact")
    assert all(type(v) is Fraction for v in one.ravel())
    assert one[1, 1] == 1 and one[0, 1] == 0
    f = to_float(one)
    assert f.dtype == np.float64 and f[2, 2] == 1.0
    assert np.array_equal(eye(3, "float"), np.eye(3))
    assert eye(0, "exact").shape == (0, 0)
    with pytest.raises(ValueError, match="unknown arithmetic mode"):
        eye(2, "interval")


# ---------------------------------------------------------------------------
# residual reductions


def test_residual_reads_exactness_from_the_rationals():
    tiny = np.array([[Fraction(0), Fraction(1, 10 ** 400)]], dtype=object)
    res = Residual.of(tiny)
    assert res.max_abs == 0.0  # the float rounds to zero ...
    assert res.zero is False   # ... the rational does not
    assert Residual.of(zeros((2, 2), "exact")).zero is True
    assert Residual.of(np.array([[CFrac(0, -3)]], dtype=object)) == Residual(3.0, False)
    assert Residual.of(zeros((0, 3), "exact")) == Residual()


def test_residual_propagates_nan():
    clean = Residual.of(np.array([[1e-3, -2e-3]]))
    assert clean == Residual(2e-3, False)
    bad = Residual.of(np.array([[1e-3, np.nan]]))
    assert np.isnan(bad.max_abs)
    # Python's max(2e-3, nan) is 2e-3; joining keeps the NaN in either order
    assert np.isnan((clean | bad).max_abs) and np.isnan((bad | clean).max_abs)
    assert np.isnan((bad | Residual()).max_abs)
    assert not (clean | bad).max_abs <= 1e-10


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
    arr = eye(2, "exact")
    scaled = arr * Fraction(3, 7)
    assert scaled[0, 0] == Fraction(3, 7)
    assert isinstance(scaled[0, 0], Fraction)
    mixed = arr * CFrac(Fraction(0), Fraction(1))
    assert mixed[1, 1] == CFrac(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# the matrix product of both arithmetic modes

# Entries: Fractions with large denominators, plain ints, explicit zeros.
_ENTRIES = st.one_of(
    st.fractions(max_denominator=10 ** 25),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.just(Fraction(0)),
    st.just(0),
)


@st.composite
def _exact_matrix(draw, rows: int, cols: int) -> np.ndarray:
    mat = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            mat[i, j] = draw(_ENTRIES)
    if rows and cols:
        blank = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        mat[np.array(blank), :] = 0
    return mat


@st.composite
def _exact_pair(draw):
    p, q, r = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    a = draw(_exact_matrix(p, q))
    # zero columns of b are zero rows of its transpose
    b = draw(_exact_matrix(r, q)).T.copy()
    return a, b


@settings(max_examples=100, deadline=None)
@given(_exact_pair())
def test_dot_equals_np_dot_on_exact_matrices(pair):
    a, b = pair
    got = dot(a, b)
    want = np.dot(a, b)
    assert got.dtype == object and got.shape == (a.shape[0], b.shape[1])
    assert all(type(x) is Fraction for x in got.ravel())
    assert all(x == y for x, y in zip(got.ravel(), want.ravel()))


@pytest.mark.parametrize("p,q,r", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (2, 0, 3)])
def test_dot_on_empty_shapes(p, q, r):
    got = dot(zeros((p, q), "exact"), zeros((q, r), "exact"))
    assert got.dtype == object and got.shape == (p, r)
    assert all(type(x) is Fraction and x == 0 for x in got.ravel())


def test_dot_beyond_machine_integers():
    tiny = Fraction(1, 2 ** 70 + 1)
    a = np.array([[tiny, Fraction(-(2 ** 80), 3)]], dtype=object)
    b = np.array([[Fraction(2 ** 70 + 1)], [Fraction(3, 2 ** 80)]], dtype=object)
    assert dot(a, b)[0, 0] == 0


_FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def _float_pair(draw):
    p, q, r = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
    return (draw(arrays(np.float64, (p, q), elements=_FLOATS)),
            draw(arrays(np.float64, (q, r), elements=_FLOATS)))


@settings(max_examples=80, deadline=None)
@given(_float_pair())
def test_dot_is_np_dot_on_float_matrices(pair):
    a, b = pair
    got, want = dot(a, b), np.dot(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

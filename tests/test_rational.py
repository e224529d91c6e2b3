"""Exact scalar and matrix arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vircut.rational import (
    CFrac,
    IndefiniteMatrixError,
    IntegerForm,
    Residual,
    adjoint_residual,
    as_fraction,
    exact_rank_nullspace,
    eye,
    fmt_rational,
    psd_congruence,
    to_float,
    zeros,
)
from vircut.verma import gram_matrix


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
    assert a * b == CFrac(Fraction(8, 3), Fraction(11, 6))
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
    # the other operand's reflected method answers once CFrac returns NotImplemented
    class Other:
        def __radd__(self, z):
            return "added"

        def __rsub__(self, z):
            return "subtracted"

        def __rmul__(self, z):
            return "multiplied"

    z = CFrac(1, 1)
    assert (z + Other(), z - Other(), z * Other()) == ("added", "subtracted", "multiplied")
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
    d, basis, _ = psd_congruence(m)
    assert len(d) == 3 and all(x > 0 for x in d)
    basis = basis.fractions()
    prod = basis.dot(m).dot(basis.T)
    for i in range(3):
        for j in range(3):
            assert prod[i, j] == (d[i] if i == j else 0)


def test_psd_congruence_detects_kernel():
    # it keeps the rank of the matrix and drops the kernel that
    # exact_rank_nullspace finds
    m = np.array([[Fraction(1), Fraction(1)],
                  [Fraction(1), Fraction(1)]], dtype=object)
    d, basis, extract = psd_congruence(m)
    rank, kernel = exact_rank_nullspace(m)
    assert len(d) == basis.shape[0] == extract.shape[0] == rank == 1
    assert basis.shape[1] == 2 and len(kernel) == 1
    assert all(x == 0 for x in m.dot(kernel[0]))


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
# the integer product of exact matrices, the one the relation sweep forms

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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (IntegerForm.by_rows(a) @ IntegerForm.by_cols(b)).fractions()


@settings(max_examples=100, deadline=None)
@given(_exact_pair())
def test_dot_equals_np_dot_on_exact_matrices(pair):
    a, b = pair
    got = _product(a, b)
    want = np.dot(a, b)
    assert got.dtype == object and got.shape == (a.shape[0], b.shape[1])
    assert all(type(x) is Fraction for x in got.ravel())
    assert all(x == y for x, y in zip(got.ravel(), want.ravel()))


@pytest.mark.parametrize("p,q,r", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (2, 0, 3)])
def test_dot_on_empty_shapes(p, q, r):
    got = _product(zeros((p, q), "exact"), zeros((q, r), "exact"))
    assert got.dtype == object and got.shape == (p, r)
    assert all(type(x) is Fraction and x == 0 for x in got.ravel())


def test_dot_beyond_machine_integers():
    tiny = Fraction(1, 2 ** 70 + 1)
    a = np.array([[tiny, Fraction(-(2 ** 80), 3)]], dtype=object)
    b = np.array([[Fraction(2 ** 70 + 1)], [Fraction(3, 2 ** 80)]], dtype=object)
    assert _product(a, b)[0, 0] == 0


@st.composite
def _form_case(draw):
    p, q = (draw(st.integers(min_value=0, max_value=4)) for _ in range(2))
    a, b, c = draw(_exact_matrix(p, q)), draw(_exact_matrix(q, p)), draw(_exact_matrix(p, p))
    s, t = draw(_ENTRIES), draw(_ENTRIES)
    if draw(st.booleans()):  # often a residual that vanishes
        c, s, t = np.dot(a, b), 1, 0
    return a, b, c, s, t


@settings(max_examples=100, deadline=None)
@given(_form_case())
def test_integer_form_is_the_fraction_expression(case):
    a, b, c, s, t = case
    form = (IntegerForm.by_rows(a) @ IntegerForm.by_cols(b)
            - IntegerForm.by_rows(c) * s - IntegerForm.identity(len(c)) * t)
    want = np.dot(a, b) - c * s - eye(len(c), "exact") * t
    got = form.fractions()
    assert got.shape == want.shape
    assert all(type(x) is Fraction and x == y for x, y in zip(got.ravel(), want.ravel()))
    assert form.residual() == Residual.of(want)
    assert form.residual().max_abs.hex() == Residual.of(want).max_abs.hex()


def test_integer_form_sees_what_rounds_to_zero():
    tiny = np.array([[Fraction(1, 10 ** 400), Fraction(0)]], dtype=object)
    assert IntegerForm.by_cols(tiny).residual() == Residual(0.0, False)
    assert (IntegerForm.by_rows(tiny) - IntegerForm.by_cols(tiny)).residual() == Residual()


def test_integer_form_products_need_rows_times_columns():
    m = np.array([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5)]], dtype=object)
    assert (IntegerForm.by_rows(m) @ IntegerForm.by_cols(m)).fractions().tolist() == \
        np.dot(m, m).tolist()
    for left, right in [(IntegerForm.by_cols, IntegerForm.by_cols),
                        (IntegerForm.by_rows, IntegerForm.by_rows)]:
        with pytest.raises(ValueError, match="one column scale on the left"):
            left(m) @ right(m)


# ---------------------------------------------------------------------------
# congruence against the plain Fraction elimination


def _congruence_oracle(matrix):
    """Symmetric Gaussian elimination on Fractions, with psd_congruence's
    pivot rule (largest remaining diagonal entry, first on ties) and its
    two refusals; one-sided row updates, since the trailing block stays
    symmetric."""
    a = np.array(matrix, dtype=object)
    n = a.shape[0]
    basis = eye(n, "exact")
    d = [Fraction(0)] * n
    rank = 0
    for t in range(n):
        piv, piv_val = t, a[t, t]
        for i in range(t + 1, n):
            if a[i, i] > piv_val:
                piv, piv_val = i, a[i, i]
        if piv_val < 0:
            raise IndefiniteMatrixError(f"negative diagonal pivot {piv_val}")
        if piv_val == 0:
            if any(a[i, j] != 0 for i in range(t, n) for j in range(t, n)):
                raise IndefiniteMatrixError("zero diagonal with nonzero off-diagonal block")
            break
        if piv != t:
            a[[t, piv]] = a[[piv, t]]
            a[:, [t, piv]] = a[:, [piv, t]]
            basis[[t, piv]] = basis[[piv, t]]
        d[t] = piv_val
        rank += 1
        for r in range(t + 1, n):
            if a[r, t] == 0:
                continue
            f = a[r, t] / piv_val
            a[r, t:] = a[r, t:] - f * a[t, t:]
            basis[r] = basis[r] - f * basis[t]
    return d, basis, rank


def _assert_congruence_matches_the_oracle(m):
    try:
        want = _congruence_oracle(m)
    except IndefiniteMatrixError as exc:
        with pytest.raises(IndefiniteMatrixError) as got:
            psd_congruence(m)
        assert str(got.value) == str(exc)
        return
    d, basis, extract = psd_congruence(m)
    rank = want[2]
    # the states it keeps: the oracle's first rank, and the rank of the matrix
    assert len(d) == rank == exact_rank_nullspace(m)[0]
    assert all(x == y for x, y in zip(d, want[0][:rank]))
    assert all(type(x) is Fraction for x in d)
    rows = basis.fractions()
    assert rows.shape == want[1][:rank].shape
    assert all(x == y for x, y in zip(rows.ravel(), want[1][:rank].ravel()))
    # W = D^-1 B m, from the oracle's rows by a numpy product on Fractions
    w = want[1][:rank].dot(np.array(m, dtype=object))
    w = w / np.array(want[0][:rank], dtype=object).reshape(rank, 1)
    assert extract.shape == w.shape
    assert all(x == y for x, y in zip(extract.fractions().ravel(), w.ravel()))
    # both forms hold the integers by_rows gives for their matrices
    for form, mat in ((basis, rows), (extract, w)):
        ref = IntegerForm.by_rows(mat)
        assert ref.num.tolist() == form.num.tolist() and ref.row.tolist() == form.row.tolist()
        assert form.col.tolist() == [1] * mat.shape[1]


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _psd_matrix(draw):
    """X^T diag X with rational X and diag >= 0: rank-deficient when diag
    has zeros or X has fewer rows than columns; repeated columns of X give
    pivot ties, zero columns give zero rows."""
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=6))
    x = np.empty((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            x[i, j] = draw(st.one_of(_SMALL, st.fractions(max_denominator=10 ** 12)))
    for j in range(n):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy"]))
        if kind == "zero":
            x[:, j] = Fraction(0)
        elif kind == "copy" and j:
            x[:, j] = x[:, draw(st.integers(min_value=0, max_value=j - 1))]
    weights = [draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 7)])
                    | st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6))
               for _ in range(m)]
    g = zeros((n, n), "exact")
    for i in range(m):
        row = x[i]
        g = g + weights[i] * np.outer(row, row)
    return g


@settings(max_examples=100, deadline=None)
@given(_psd_matrix())
def test_psd_congruence_equals_the_fraction_elimination(g):
    _assert_congruence_matches_the_oracle(g)


@st.composite
def _symmetric_matrix(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    g = zeros((n, n), "exact")
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = draw(_SMALL)
    return g


@settings(max_examples=100, deadline=None)
@given(_symmetric_matrix())
def test_psd_congruence_refuses_as_the_fraction_elimination_does(g):
    # any symmetric matrix: the same result, or the same refusal and message
    _assert_congruence_matches_the_oracle(g)


@pytest.mark.parametrize("rows,message", [
    ([[Fraction(-1, 2)]], "negative diagonal pivot -1/2"),
    ([[1, 2], [2, 1]], "negative diagonal pivot -3"),
    ([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]],
     "negative diagonal pivot -5/12"),
    ([[0, 1], [1, 0]], "zero diagonal with nonzero off-diagonal block"),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], "zero diagonal with nonzero off-diagonal block"),
])
def test_psd_congruence_refusals_name_the_cause(rows, message):
    m = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
    with pytest.raises(IndefiniteMatrixError, match=f"^{message}$"):
        psd_congruence(m)
    _assert_congruence_matches_the_oracle(m)


@pytest.mark.parametrize("rows", [
    [],
    [[Fraction(0)]],
    [[Fraction(5, 3)]],
    [[2, 2, 0], [2, 2, 0], [0, 0, 0]],          # a tie, a kernel and a zero row
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],          # ties all the way down
])
def test_psd_congruence_on_small_shapes(rows):
    m = np.array([[Fraction(x) for x in row] for row in rows], dtype=object).reshape(
        len(rows), len(rows))
    _assert_congruence_matches_the_oracle(m)


@pytest.mark.parametrize("c,h,N", [
    (Fraction(7, 10), Fraction(3, 5), 8),       # null vectors at levels 3 and 6
    (Fraction(25, 28), Fraction(15, 28), 7),
    (Fraction(2), Fraction(1), 7),
])
def test_psd_congruence_on_gram_matrices(c, h, N):
    for k in range(N + 1):
        _assert_congruence_matches_the_oracle(gram_matrix(c, h, k).entries)


# ---------------------------------------------------------------------------
# the adjoint residual of both arithmetic modes


def _adjoint_oracle(a, b, left, right, a_scale, b_scale):
    """Residual.of on R = a_scale diag(left) a - conj(b_scale b)^T diag(right),
    formed entry by entry in CFrac/Fraction (or numpy float) arithmetic."""
    return Residual.of((a * a_scale) * np.asarray(left, dtype=object)[:, None]
                       - np.conj(b * b_scale).T * np.asarray(right, dtype=object)[None, :])


_PARTS = st.one_of(
    st.fractions(max_denominator=10 ** 25),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.just(Fraction(0)),
)
_EXACT_SCALARS = st.one_of(
    st.builds(CFrac, _PARTS, _PARTS),
    st.builds(CFrac, _PARTS),
    _PARTS.map(Fraction),
)


@st.composite
def _adjoint_case(draw):
    p, q = (draw(st.integers(min_value=0, max_value=4)) for _ in range(2))
    a, b = np.empty((p, q), dtype=object), np.empty((q, p), dtype=object)
    for i in range(p):
        for j in range(q):
            a[i, j] = draw(_PARTS)
            # often b is a's transpose up to the weights, so R has zeros
            b[j, i] = draw(st.just(None) | _PARTS)
    weights = st.fractions(min_value=Fraction(1, 10 ** 9), max_value=10 ** 9,
                           max_denominator=10 ** 9)
    left = [draw(weights) for _ in range(p)]
    right = [draw(weights) for _ in range(q)]
    for i in range(p):
        for j in range(q):
            if b[j, i] is None:
                b[j, i] = a[i, j] * (left[i] / right[j])
    a_scale = draw(_EXACT_SCALARS)
    # often the scales of a real field's pair, conjugates of each other
    b_scale = draw(st.just(None) | _EXACT_SCALARS)
    if b_scale is None:
        b_scale = CFrac.of(a_scale).conjugate()
    return a, b, left, right, a_scale, b_scale


@settings(max_examples=60, deadline=None)
@given(_adjoint_case())
def test_adjoint_residual_equals_the_cfrac_route(case):
    got, want = adjoint_residual(*case), _adjoint_oracle(*case)
    assert got.zero == want.zero
    assert got.max_abs.hex() == want.max_abs.hex()


def test_adjoint_residual_sees_what_rounds_to_zero():
    a = np.array([[Fraction(1, 10 ** 400)]], dtype=object)
    b = zeros((1, 1), "exact")
    one = [Fraction(1)]
    assert adjoint_residual(a, b, one, one, 1, 1) == Residual(0.0, False)
    assert adjoint_residual(a, b, one, one, CFrac(0, 1), 1) == Residual(0.0, False)
    assert adjoint_residual(a, a, one, one, 1, 1) == Residual()
    assert adjoint_residual(a, a, one, one, CFrac(0, 1), CFrac(0, -1)) == Residual()
    assert adjoint_residual(zeros((0, 3), "exact"), zeros((3, 0), "exact"),
                            [], [Fraction(1)] * 3, 1, 1) == Residual()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.data())
def test_adjoint_residual_is_the_numpy_expression_in_float(p, q, data):
    a = data.draw(arrays(np.complex128, (p, q), elements=st.complex_numbers(
        max_magnitude=1e6, allow_nan=False)))
    b = data.draw(arrays(np.complex128, (q, p), elements=st.complex_numbers(
        max_magnitude=1e6, allow_nan=False)))
    a_scale, b_scale = (data.draw(st.complex_numbers(max_magnitude=1e3, allow_nan=False))
                        for _ in range(2))
    # float bases are orthonormal: no weights are read
    want = Residual.of(a * a_scale - np.conj(b * b_scale).T)
    got = adjoint_residual(a, b, None, None, a_scale, b_scale)
    assert got.zero == want.zero and got.max_abs.hex() == want.max_abs.hex()

"""Exact scalars, small dense exact linear algebra, and matrix helpers
shared by both arithmetic modes.

Real exact values are ``fractions.Fraction``; complex exact values are
:class:`CFrac` pairs of Fractions.  Exact matrices are numpy arrays with
``dtype=object`` holding these scalars, which gives us transposes, slices
and matrix products without a symbolic dependency.  Everything here is
dense and small (dimensions are partition counts, a few hundred at most).

The package runs in two arithmetic modes, "exact" (Fraction object
arrays) and "float" (float64 arrays); zeros and eye build the zero and
identity matrices of a mode, and opnorm is the spectral norm that both
modes' float views are measured with.  Residual reduces the residual
matrices of a check to one float maximum and one exact-zero verdict,
the same way in both modes; adjoint_residual is that reduction for the
adjoint condition a_scale diag(left) a = conj(b_scale b)^T diag(right),
whose weights only exact matrices carry (float bases are orthonormal).

The exact inner loops run over Python ints, not Fractions.  IntegerForm
holds an exact matrix as integers over row and column scales, and the
product of a by_rows form and a by_cols one is one integer product: the
Gram recursion, block assembly and the bracket-relation sweep (verma)
multiply forms, and psd_congruence is fraction-free (Bareiss)
elimination that returns its basis and extraction rows as forms.
adjoint_residual cross-multiplies the numerators and denominators of
each entry.  Each forms a Fraction only for an entry that leaves it,
and a check a float only for a nonzero entry.  Matrix products outside
these loops, of float arrays or of small Fraction ones, are np.dot's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def fmt_rational(x: Fraction) -> str:
    x = x if isinstance(x, Fraction) else Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class CFrac:
    """Complex number with exact rational real and imaginary parts.

    Arithmetic takes CFracs and anything CFrac.of accepts; other operands
    get NotImplemented, so their own reflected method can answer.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(x) -> "CFrac":
        if isinstance(x, CFrac):
            return x
        if isinstance(x, complex):
            raise TypeError("refusing lossy complex -> CFrac conversion")
        return CFrac(as_fraction(x))

    @staticmethod
    def _operand(x) -> Optional[CFrac]:
        """x as a CFrac, or None when it is not an exact scalar."""
        try:
            return CFrac.of(x)
        except TypeError:
            return None

    def conjugate(self) -> "CFrac":
        return CFrac(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return CFrac(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return CFrac(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return CFrac(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return CFrac(self.re * other, self.im * other)
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return CFrac(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"CFrac({self.re!s}, {self.im!s})"


def zeros(shape, mode: str) -> np.ndarray:
    """Zero matrix of the arithmetic mode: Fraction objects or float64."""
    if mode == "exact":
        arr = np.empty(shape, dtype=object)
        arr[...] = Fraction(0)
        return arr
    if mode == "float":
        return np.zeros(shape)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def eye(n: int, mode: str) -> np.ndarray:
    """Identity matrix of the arithmetic mode: Fraction objects or float64."""
    arr = zeros((n, n), mode)
    np.fill_diagonal(arr, Fraction(1) if mode == "exact" else 1.0)
    return arr


def _object(values, shape) -> np.ndarray:
    """Python ints (nested lists) as an object array of the given shape."""
    return np.array(values, dtype=object).reshape(shape)


_LCM = np.frompyfunc(math.lcm, 2, 1)
_FRACTION = np.frompyfunc(Fraction, 2, 1)


@dataclass(frozen=True)
class IntegerForm:
    """An exact rational matrix as num[i, j] / (row[i] col[j]).

    num holds Python ints and row and col positive ones, in object
    arrays.  by_rows scales each row of a matrix of Fractions and ints
    to integers by the lcm of its denominators, and by_cols each column.
    The product of a by_rows form and a by_cols one is the integer
    product over row x col; a whole form, one scale on every row and 1
    on every column (verma's monomial blocks), can stand on either side.
    Differences and rational multiples stay integer over common scales.
    So an exact computation forms a Fraction only for an entry that
    leaves it (fractions), and a check a float only for a nonzero entry
    (residual).  A form lives no longer than the work that makes it: one
    product, one relation sweep, or, for a level's congruence rows, the
    memo of its (c, h) point.
    """

    num: np.ndarray
    row: np.ndarray
    col: np.ndarray

    @staticmethod
    def by_rows(mat: np.ndarray) -> IntegerForm:
        rows = mat.tolist()
        scales = [math.lcm(*[x.denominator for x in row]) for row in rows]
        ints = [[x.numerator * (s // x.denominator) for x in row]
                for row, s in zip(rows, scales)]
        return IntegerForm(_object(ints, mat.shape), _object(scales, len(rows)),
                           _object([1] * mat.shape[1], mat.shape[1]))

    @staticmethod
    def by_cols(mat: np.ndarray) -> IntegerForm:
        return IntegerForm.by_rows(mat.T).T

    @staticmethod
    def identity(dim: int) -> IntegerForm:
        """The dim x dim identity."""
        num = np.zeros((dim, dim), dtype=object)
        np.fill_diagonal(num, 1)
        return IntegerForm(num, _object([1] * dim, dim), _object([1] * dim, dim))

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    @property
    def T(self) -> IntegerForm:
        return IntegerForm(self.num.T, self.col, self.row)

    def __matmul__(self, other: IntegerForm) -> IntegerForm:
        """The product, when the scales of the summed index factor out of
        the sum: the column scales of self are one number, and so are the
        row scales of other.  A by_rows form or a whole one on the left
        and a by_cols form or a whole one on the right qualify."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shapes {self.shape} and {other.shape} not aligned")
        row = self.row
        if self.shape[1]:
            inner = self.col[0] * other.row[0]
            if (self.col != self.col[0]).any() or (other.row != other.row[0]).any():
                raise ValueError("a product needs one column scale on the left "
                                 "and one row scale on the right")
            if inner != 1:
                row = row * inner
        return IntegerForm(np.dot(self.num, other.num), row, other.col)

    def __mul__(self, s) -> IntegerForm:
        """The rational multiple s * self, for a Fraction or int s."""
        s = as_fraction(s)
        return IntegerForm(self.num * s.numerator, self.row * s.denominator, self.col)

    def __sub__(self, other: IntegerForm) -> IntegerForm:
        row, col = _LCM(self.row, other.row), _LCM(self.col, other.col)
        return IntegerForm(self._over(row, col) - other._over(row, col), row, col)

    def _over(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """The numerators over the multiples row and col of the scales."""
        return self.num * (row // self.row)[:, None] * (col // self.col)[None, :]

    def fractions(self) -> np.ndarray:
        """The matrix as an object array of Fractions; the zero entries
        share zeros()'s one Fraction(0)."""
        out = zeros(self.shape, "exact")
        hit = np.nonzero(self.num)
        out[hit] = _FRACTION(self.num[hit], self.row[hit[0]] * self.col[hit[1]])
        return out

    def residual(self) -> Residual:
        """Residual.of of the matrix, without forming it.

        The verdict is that every numerator is 0.  Only an entry with a
        nonzero numerator gets a float, from its exact quotient: int true
        division is correctly rounded, so that float is the one to_float
        builds from the entry's Fraction, and max_abs is Residual.of's.
        """
        values = [self.num[i, j] / (self.row[i] * self.col[j])
                  for i, j in zip(*np.nonzero(self.num))]
        return Residual(float(np.abs(np.array(values, dtype=float)).max(initial=0.0)),
                        not values)


def opnorm(mat: np.ndarray) -> float:
    """Largest singular value of a numeric matrix; 0 for an empty one, NaN
    for one with a non-finite entry (on which LAPACK either fails to
    converge or returns NaN).  The entries are read only when the SVD
    fails or is not finite: on every call, that check would cost a fifth
    of a small SVD."""
    if mat.size == 0:
        return 0.0
    mat = np.asarray(mat, dtype=np.float64)
    try:
        top = float(np.linalg.svd(mat, compute_uv=False).max())
    except np.linalg.LinAlgError:
        if np.isfinite(mat).all():
            raise
        return math.nan
    return top if math.isfinite(top) or np.isfinite(mat).all() else math.nan


def to_float(arr: np.ndarray) -> np.ndarray:
    """Object array of Fractions -> float64 array (CFrac -> complex128)."""
    if arr.dtype != object:
        return np.asarray(arr, dtype=float)
    flat = arr.ravel()
    if any(isinstance(x, CFrac) for x in flat):
        out = np.array([complex(CFrac.of(x) if not isinstance(x, CFrac) else x)
                        for x in flat], dtype=complex)
    else:
        out = np.array([float(x) for x in flat], dtype=float)
    return out.reshape(arr.shape)


@dataclass(frozen=True)
class Residual:
    """Largest |entry| of residual matrices, as a float, and whether every
    entry is exactly zero.

    The verdict reads the entries themselves, never the float maximum: an
    exact entry of 10^-400 rounds to 0.0 but is not zero.  A NaN entry
    makes max_abs NaN, and so does joining with | (Python's max would
    drop it), so a float budget check on max_abs fails.
    """

    max_abs: float = 0.0
    zero: bool = True

    @staticmethod
    def of(arr: np.ndarray) -> Residual:
        values = to_float(arr) if arr.dtype == object else arr
        return Residual(float(np.abs(values).max(initial=0.0)),
                        not np.count_nonzero(arr))

    def __or__(self, other: Residual) -> Residual:
        return Residual(float(np.maximum(self.max_abs, other.max_abs)),
                        self.zero and other.zero)


def adjoint_residual(a: np.ndarray, b: np.ndarray, left, right,
                     a_scale, b_scale) -> Residual:
    """Residual of R = a_scale diag(left) a - conj(b_scale b)^T diag(right),
    for a p x q and b q x p, left and right the real weights of length p
    and q, and a_scale and b_scale scalars.

    Float matrices are taken in orthonormal bases, so their weights are 1
    and left and right are not read: R = a_scale a - conj(b_scale b)^T,
    reduced with Residual.of.  Exact ones hold real entries (Fractions and
    ints), and R is reduced over the integers with the scalars factored
    out.  Entry (i, j) of
    X = diag(left) a and of Y = b^T diag(right) are u/den and v/den, u, v
    and den cross-multiplied from the numerators and denominators of
    left_i, a_ij, b_ji and right_j, and R_ij = a_scale X_ij - conj(b_scale)
    Y_ij has real part (Re a_scale u - Re b_scale v)/den and imaginary part
    (Im a_scale u + Im b_scale v)/den.  The verdict is that both numerators
    of every entry are 0, and only a nonzero entry gets a float, from the
    exact quotients.  Int true division is correctly rounded, so that
    float is the one to_float builds from the Fraction, and the report is
    Residual.of's on the exact R.
    """
    if a.dtype != object and b.dtype != object:
        return Residual.of(a * a_scale - np.conj(b * b_scale).T)
    sa, sb = CFrac.of(a_scale), CFrac.of(b_scale)
    # Re R_ij = (re_u u - re_v v)/(re_den den), Im R_ij = (im_u u + im_v v)/(im_den den)
    re_u, re_v = sa.re.numerator * sb.re.denominator, sb.re.numerator * sa.re.denominator
    im_u, im_v = sa.im.numerator * sb.im.denominator, sb.im.numerator * sa.im.denominator
    re_den = sa.re.denominator * sb.re.denominator
    im_den = sa.im.denominator * sb.im.denominator
    left = [as_fraction(x).as_integer_ratio() for x in left]
    right = [as_fraction(x).as_integer_ratio() for x in right]
    values = []
    for (ln, ld), row_a, row_b in zip(left, a.tolist(), b.T.tolist()):
        for (rn, rd), x, y in zip(right, row_a, row_b):
            xd, yd = ld * x.denominator, rd * y.denominator
            u, v = ln * x.numerator * yd, rn * y.numerator * xd
            re, im = re_u * u - re_v * v, im_u * u + im_v * v
            if re or im:
                values.append(complex(re / (re_den * xd * yd), im / (im_den * xd * yd)))
    return Residual(float(np.abs(np.array(values, dtype=complex)).max(initial=0.0)),
                    not values)


class IndefiniteMatrixError(ValueError):
    """A matrix expected to be positive semidefinite is not."""


def exact_rank_nullspace(matrix: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Rank and kernel basis of an exact-rational matrix.

    Plain fraction Gaussian elimination; no symmetry or definiteness
    assumed.  Kernel vectors are object arrays (right kernel: M v = 0).
    """
    m = np.array(matrix, dtype=object)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        basis = []
        for c in range(cols):
            v = zeros((cols,), "exact")
            v[c] = Fraction(1)
            basis.append(v)
        return 0, basis
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    free_cols = [c for c in range(cols) if c not in piv_cols]
    null_basis = []
    for fc in free_cols:
        v = zeros((cols,), "exact")
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i, fc]
        null_basis.append(v)
    return len(piv_cols), null_basis


def _integer_rows(rows: list[list[int]], scales: list[int], cols: int) -> IntegerForm:
    """The form of rows[i] / scales[i], for int rows and positive int
    scales, each row reduced by the gcd of its entries and its scale:
    by_rows's integers for that matrix, with no Fraction formed."""
    nums, dens = [], []
    for row, s in zip(rows, scales):
        g = math.gcd(s, *row)
        nums.append([x // g for x in row])
        dens.append(s // g)
    return IntegerForm(_object(nums, (len(rows), cols)), _object(dens, len(rows)),
                       _object([1] * cols, cols))


def psd_congruence(matrix: np.ndarray) -> tuple[tuple[Fraction, ...], IntegerForm,
                                                IntegerForm]:
    """Diagonalize a PSD exact-rational symmetric matrix by congruence, on
    the states it keeps.

    Returns ``(d, basis, extract)`` for the rank r of the n x n matrix:
    the r x n rows B of ``basis`` make B matrix B^T = diag(d), with the r
    entries of ``d`` positive, and B is the first r rows of a matrix that
    is unimodular-triangular up to the pivoting permutation.  The kernel
    (for PSD matrices the radical) is not returned.  ``extract`` holds the
    r extraction rows W = D^-1 B matrix, D = diag(d).  Both are
    IntegerForms with by_rows's integers, and d holds the only Fractions.
    The pivot at each step is the largest remaining diagonal entry, the
    first one on ties.

    The elimination is fraction-free (symmetric Bareiss): the matrix is
    scaled to integers once by the lcm L of its denominators, and step t
    replaces each later row r by (p_t row_r - a_rt row_t) / p_{t-1}, a
    division that is exact because every entry is then a minor.  The
    pivot p_t is the leading (t+1)-minor, so d_t = p_t / (p_{t-1} L).  Only
    the upper triangle of the trailing block is computed; the lower one is
    its mirror.  The basis rows are the rows of the identity carried
    through the same steps.  Before step t, the row of state r is
    p_{t-1} e_r plus a combination of the states pivoted so far, so only
    that combination is stored, in pivot order.  Basis row t is its
    integer row over p_{t-1}; the rows of the states never pivoted are
    dropped.  Row r of the eliminated matrix is the integer row r of B
    times L times the matrix, and it is zero before its diagonal; so
    W_r = B_r matrix / d_r is the final upper-triangle row r over p_r,
    scattered back to the original states, and takes no product.

    Raises IndefiniteMatrixError when a negative pivot shows up or when the
    remaining diagonal vanishes but the remaining block does not.
    """
    n = matrix.shape[0]
    rows = matrix.tolist()
    scale = math.lcm(*[x.denominator for row in rows for x in row])
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    states = list(range(n))  # the original index of each row, as pivoted
    combos: list[list[int]] = [[] for _ in range(n)]
    pivots = [1]  # p_{-1} = 1, then p_0, p_1, ...
    for t in range(n):
        piv, piv_val = t, a[t][t]
        for i in range(t + 1, n):
            if a[i][i] > piv_val:
                piv, piv_val = i, a[i][i]
        prev = pivots[-1]
        if piv_val < 0:
            raise IndefiniteMatrixError(
                f"negative diagonal pivot {Fraction(piv_val, prev * scale)}")
        if piv_val == 0:
            if any(a[i][j] != 0 for i in range(t, n) for j in range(t, n)):
                raise IndefiniteMatrixError("zero diagonal with nonzero off-diagonal block")
            break
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            for row in a:
                row[t], row[piv] = row[piv], row[t]
            states[t], states[piv] = states[piv], states[t]
            combos[t], combos[piv] = combos[piv], combos[t]
        pivots.append(piv_val)
        row_t, combo_t = a[t], combos[t]
        for r in range(t + 1, n):
            f, row_r = row_t[r], a[r]
            for j in range(r, n):
                row_r[j] = a[j][r] = (piv_val * row_r[j] - f * row_t[j]) // prev
            # state r's own coefficient goes from p_{t-1} to p_t, state t's is -f
            combos[r] = [(piv_val * x - f * y) // prev
                         for x, y in zip(combos[r], combo_t)] + [-f]
    rank = len(pivots) - 1
    basis = [[0] * n for _ in range(rank)]
    for r in range(rank):
        for k, x in enumerate(combos[r]):
            basis[r][states[k]] = x
        basis[r][states[r]] = pivots[r]
    pos = {state: j for j, state in enumerate(states)}  # each state's pivot position
    extract = [[a[r][pos[s]] if pos[s] >= r else 0 for s in range(n)] for r in range(rank)]
    d = tuple(Fraction(pivots[t + 1], pivots[t] * scale) for t in range(rank))
    return (d, _integer_rows(basis, pivots[:rank], n),
            _integer_rows(extract, pivots[1:], n))

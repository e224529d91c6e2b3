"""Exact scalars, small dense exact linear algebra, and matrix helpers
shared by both arithmetic modes.

Real exact values are ``fractions.Fraction``; complex exact values are
:class:`CFrac` pairs of Fractions.  Exact matrices are numpy arrays with
``dtype=object`` holding these scalars, which gives us transposes, slices
and matrix products without a symbolic dependency.  Everything here is
dense and small (dimensions are partition counts, a few hundred at most).

The package runs in two arithmetic modes, "exact" (Fraction object
arrays) and "float" (float64 arrays); zeros and eye build the zero and
identity matrices of a mode, dot is the matrix product of both modes,
and opnorm is the spectral norm that both modes' float views are
measured with.  Residual reduces the residual matrices of a check to one
float maximum and one exact-zero verdict, the same way in both modes;
adjoint_residual is that reduction for the adjoint condition
diag(left) a = conj(b)^T diag(right).

The exact inner loops run over Python ints, not Fractions: dot scales
rows and columns to integers, adjoint_residual cross-multiplies the
numerators and denominators of each entry, and psd_congruence is
fraction-free (Bareiss) elimination.  Each forms a Fraction, or a float,
only once per output entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "CFrac",
    "IndefiniteMatrixError",
    "as_fraction",
    "fmt_rational",
    "zeros",
    "eye",
    "dot",
    "opnorm",
    "to_float",
    "Residual",
    "adjoint_residual",
    "exact_rank_nullspace",
    "psd_congruence",
]


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
    x = Fraction(x)
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

    def __neg__(self):
        return CFrac(-self.re, -self.im)

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

    def __truediv__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("CFrac division by zero")
        return CFrac((self.re * o.re + self.im * o.im) / d,
                     (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, other):
        o = CFrac._operand(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

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


def _integer_rows(rows: list) -> tuple[list, list]:
    """Rows of Fractions or ints as (integer rows, scales): row / scale."""
    ints, scales = [], []
    for row in rows:
        scale = math.lcm(*[x.denominator for x in row])
        ints.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return ints, scales


_FRACTION = np.frompyfunc(Fraction, 2, 1)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two matrices of one arithmetic mode.

    Float arrays go to np.dot.  Exact (object) matrices of Fractions and
    ints are multiplied over the integers: row i of a is scaled by the lcm
    s_i of its denominators and column j of b by the lcm t_j of its own,
    the Python-int matrices are multiplied, and entry (i, j) becomes one
    Fraction(sum, s_i t_j).  The values are np.dot's, every entry is a
    Fraction, and the integer temporaries live only in this call.
    """
    if a.dtype != object and b.dtype != object:
        return np.dot(a, b)
    (p, q), (q_b, r) = a.shape, b.shape
    if q != q_b:
        raise ValueError(f"shapes {a.shape} and {b.shape} not aligned")
    if q == 0:
        return zeros((p, r), "exact")
    a_int, a_scale = _integer_rows(a.tolist())
    b_int, b_scale = _integer_rows(b.T.tolist())
    prod = np.dot(np.array(a_int, dtype=object).reshape(p, q),
                  np.array(b_int, dtype=object).reshape(r, q).T)
    scale = np.outer(np.array(a_scale, dtype=object), np.array(b_scale, dtype=object))
    return _FRACTION(prod, scale).reshape(p, r)


def opnorm(mat: np.ndarray) -> float:
    """Largest singular value of a numeric matrix; 0 for an empty one."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(np.asarray(mat, dtype=np.float64),
                               compute_uv=False).max())


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


def _parts(x) -> tuple[int, int, int, int]:
    """Numerators and denominators of the real and imaginary parts of an
    exact scalar (CFrac, Fraction or int)."""
    re, im = (x.re, x.im) if isinstance(x, CFrac) else (x, 0)
    return re.numerator, re.denominator, im.numerator, im.denominator


def adjoint_residual(a: np.ndarray, b: np.ndarray, left, right) -> Residual:
    """Residual of R = diag(left) a - conj(b)^T diag(right), for a p x q
    and b q x p, with left and right the real weights of length p and q.

    Float matrices reduce the numpy expression with Residual.of.  Exact
    ones are reduced over the integers: each entry's real and imaginary
    numerators are formed by cross-multiplying the numerators and
    denominators of the four factors, the verdict is that every numerator
    is 0, and only a nonzero entry gets a float, from the exact quotients
    re_num/re_den and im_num/im_den.  Int true division is correctly
    rounded, so that float is the one to_float builds from the Fraction,
    and the report is Residual.of's on the exact R.
    """
    if a.dtype != object and b.dtype != object:
        return Residual.of(a * np.asarray(left)[:, None]
                           - np.conj(b).T * np.asarray(right)[None, :])
    left, right = [_parts(x)[:2] for x in left], [_parts(x)[:2] for x in right]
    b_t = b.T.tolist()
    values = []
    for (ln, ld), row_a, row_b in zip(left, a.tolist(), b_t):
        for (rn, rd), x, y in zip(right, row_a, row_b):
            xn, xd, xin, xid = _parts(x)
            yn, yd, yin, yid = _parts(y)
            re_num = ln * xn * rd * yd - rn * yn * ld * xd
            im_num = ln * xin * rd * yid + rn * yin * ld * xid
            if re_num or im_num:
                values.append(complex(re_num / (ld * xd * rd * yd),
                                      im_num / (ld * xid * rd * yid)))
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


def psd_congruence(matrix: np.ndarray) -> tuple[list[Fraction], np.ndarray, int]:
    """Diagonalize a PSD exact-rational symmetric matrix by congruence.

    Returns ``(d, basis, rank)`` with ``basis @ matrix @ basis.T`` diagonal,
    ``d`` the diagonal (first ``rank`` entries positive, the rest zero), and
    ``basis`` unimodular-triangular up to the pivoting permutation.  Rows of
    ``basis`` beyond ``rank`` span the kernel (for PSD matrices the radical
    and the kernel coincide).  The pivot at each step is the largest
    remaining diagonal entry, the first one on ties.

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
    integer row over p_{t-1}, and rows at or beyond rank are over
    p_{rank-1}.  Fractions are formed once, at the end.

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
    basis = [[0] * n for _ in range(n)]
    for r in range(n):
        for k, x in enumerate(combos[r]):
            basis[r][states[k]] = x
        basis[r][states[r]] = pivots[min(r, rank)]
    d = [Fraction(pivots[t + 1], pivots[t] * scale) for t in range(rank)]
    d += [Fraction(0)] * (n - rank)
    scales = np.array([pivots[min(r, rank)] for r in range(n)], dtype=object)
    return d, _FRACTION(np.array(basis, dtype=object).reshape(n, n),
                        scales.reshape(n, 1)).reshape(n, n), rank

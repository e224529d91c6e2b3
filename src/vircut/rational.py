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
modes' float views are measured with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "CFrac",
    "IndefiniteMatrixError",
    "as_fraction",
    "fmt_rational",
    "object_zeros",
    "object_eye",
    "zeros",
    "eye",
    "opnorm",
    "to_float",
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
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(x) -> "CFrac":
        if isinstance(x, CFrac):
            return x
        if isinstance(x, complex):
            raise TypeError("refusing lossy complex -> CFrac conversion")
        return CFrac(as_fraction(x))

    def conjugate(self) -> "CFrac":
        return CFrac(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        o = CFrac.of(other)
        return CFrac(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CFrac(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-CFrac.of(other))

    def __rsub__(self, other):
        return CFrac.of(other) + (-self)

    def __mul__(self, other):
        o = CFrac.of(other)
        return CFrac(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CFrac.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("CFrac division by zero")
        return CFrac((self.re * o.re + self.im * o.im) / d,
                     (self.im * o.re - self.re * o.im) / d)

    def __eq__(self, other):
        try:
            o = CFrac.of(other)
        except TypeError:
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


def object_zeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr[...] = Fraction(0)
    return arr


def object_eye(n: int) -> np.ndarray:
    arr = object_zeros((n, n))
    for i in range(n):
        arr[i, i] = Fraction(1)
    return arr


def zeros(shape, mode: str) -> np.ndarray:
    """Zero matrix of the arithmetic mode: Fraction objects or float64."""
    if mode == "exact":
        return object_zeros(shape)
    if mode == "float":
        return np.zeros(shape)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def eye(n: int, mode: str) -> np.ndarray:
    """Identity matrix of the arithmetic mode: Fraction objects or float64."""
    return object_eye(n) if mode == "exact" else np.eye(n)


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
            v = object_zeros((cols,))
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
        v = object_zeros((cols,))
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
    and the kernel coincide).

    Raises IndefiniteMatrixError when a negative pivot shows up or when the
    remaining diagonal vanishes but the remaining block does not.
    """
    a = np.array(matrix, dtype=object)
    n = a.shape[0]
    basis = object_eye(n)
    d: list[Fraction] = [Fraction(0)] * n
    rank = 0
    for t in range(n):
        # largest remaining diagonal entry is a valid PSD pivot
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
        # one-sided row updates suffice: the matching column updates of the
        # congruence are no-ops on the trailing block once column t is zero
        for r in range(t + 1, n):
            if a[r, t] == 0:
                continue
            f = a[r, t] / piv_val
            a[r, t:] = a[r, t:] - f * a[t, t:]
            basis[r] = basis[r] - f * basis[t]
    return d, basis, rank

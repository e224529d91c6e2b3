"""Lowest-weight Virasoro modules at a finite energy cutoff.

Conventions
-----------
Generators L_n, n in Z, with commutation relations

    [L_n, L_m] = (n - m) L_{n+m} + (c/12) (n^3 - n) delta_{n+m,0}

acting on the span of monomials L_{-a1} L_{-a2} ... L_{-aj} Phi where
(a1 >= a2 >= ... >= aj >= 1) runs over integer partitions and Phi is the
lowest-weight vector (L_n Phi = 0 for n > 0, L_0 Phi = h Phi).  A monomial
over a partition of k sits at energy level k (L_0 eigenvalue h + k).

Within one level the monomial basis is listed in reverse-lexicographic
order, e.g. level 4 is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  All basis
ordering, serialization and caching relies on that order.

The inner product is the one induced by L_n* = L_{-n} and <Phi, Phi> = 1
(Gram/Shapovalov matrices per level).  In the unitary range the Gram
matrix is positive semidefinite; its kernel (null vectors) is quotiented
away when building a truncated representation.

Arithmetic is dual mode.  The PBW structure constants (the coefficients
of L_n on a monomial) are always computed with exact rationals.  "exact"
mode keeps every matrix built from them exact: Gram matrices, the null
quotient and the blocks, in a basis that is orthogonal with known
rational norms squared (the D-basis).  Its matrix products (the Gram
recursion, the extraction rows, block assembly and the relation checks)
run over the integers through rational.dot, which scales rows and
columns to Python ints and forms one Fraction per entry of the result.
"float" mode rounds each structure constant once to float64 and runs the
same Gram recursion, the quotient and the block assembly in floating
point, with blocks in an orthonormal basis; no Fraction array is formed,
and rational.dot is np.dot there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .rational import (
    IndefiniteMatrixError,
    Residual,
    as_fraction,
    dot,
    eye,
    psd_congruence,
    to_float,
    zeros,
)

__all__ = [
    "is_admissible",
    "Partition",
    "VermaVector",
    "GramMatrix",
    "NonUnitaryError",
    "FloatRangeError",
    "TruncatedRep",
    "enumerate_partitions",
    "partition_count",
    "act",
    "monomial_block",
    "gram_matrix",
    "gram_entry_direct",
    "block_keys",
    "truncated_rep",
    "relation_residual",
    "relation_residual_summary",
    "measure_central_charge",
    "tensor_rep",
]

Scalar = Union[Fraction, float]


def is_admissible(c) -> bool:
    """True when c >= 1 or c = 1 - 6/((m+2)(m+3)) for integer m >= 1."""
    c = as_fraction(c)
    if c >= 1:
        return True
    m = 1
    while True:
        cm = 1 - Fraction(6, (m + 2) * (m + 3))
        if cm == c:
            return True
        if cm > c:
            return False
        m += 1


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@lru_cache(maxsize=None)
def _partition_tuples(k: int, max_part: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    if k < 0:
        return ()
    if k == 0:
        return ((),)
    top = k if max_part is None else min(k, max_part)
    out = []
    for first in range(top, 0, -1):
        for rest in _partition_tuples(k - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _partition_index(k: int) -> dict:
    return {w: i for i, w in enumerate(_partition_tuples(k))}


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of k, reverse-lexicographic (largest first)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [Partition(w) for w in _partition_tuples(k)]


def partition_count(k: int) -> int:
    return len(_partition_tuples(k)) if k >= 0 else 0


@dataclass(frozen=True)
class VermaVector:
    """Finite linear combination of monomials of one fixed level."""

    coefficients: Mapping[Partition, Scalar]
    level: int

    def __post_init__(self):
        coeffs = {p if isinstance(p, Partition) else Partition(tuple(p)): v
                  for p, v in self.coefficients.items() if v != 0}
        object.__setattr__(self, "coefficients", coeffs)
        for p in coeffs:
            if p.weight != self.level:
                raise ValueError(f"monomial {p.parts} has weight {p.weight}, expected level {self.level}")

    @staticmethod
    def monomial(parts: Iterable[int]) -> "VermaVector":
        p = Partition(tuple(parts))
        return VermaVector({p: Fraction(1)}, p.weight)

    @staticmethod
    def zero(level: int = 0) -> "VermaVector":
        return VermaVector({}, level)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "VermaVector") -> "VermaVector":
        if not isinstance(other, VermaVector):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.level != other.level:
            raise ValueError("cannot add vectors of different levels")
        out = dict(self.coefficients)
        for p, v in other.coefficients.items():
            out[p] = out.get(p, Fraction(0)) + v
        return VermaVector(out, self.level)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "VermaVector":
        return VermaVector({p: scalar * v for p, v in self.coefficients.items()}, self.level)

    def coefficient(self, parts) -> Scalar:
        key = parts if isinstance(parts, Partition) else Partition(tuple(parts))
        return self.coefficients.get(key, Fraction(0))


# ---------------------------------------------------------------------------
# symbolic action of L_n on monomial words (PBW straightening)

def _bump(out: dict, word: tuple, value) -> None:
    cur = out.get(word)
    out[word] = value if cur is None else cur + value


@lru_cache(maxsize=None)
def _act_word(n: int, word: tuple, c: Fraction, h: Fraction):
    """L_n applied to the monomial `word`, as a tuple of (word, coeff).

    Recursion on the leading generator: commute L_n through L_{-word[0]}
    and straighten the leftovers.  Terminates because every same-length
    prepend candidate produced by the inner call already has first part
    bounded by the part being prepended (see the sortedness of words).
    """
    if not word:
        if n > 0:
            return ()
        if n == 0:
            return (((), h),) if h != 0 else ()
        return (((-n,), Fraction(1)),)
    if n < 0 and -n >= word[0]:
        return (((-n,) + word, Fraction(1)),)
    head, rest = word[0], word[1:]
    out: dict = {}
    # L_{-head} (L_n rest), straightening where the prepend is unsorted
    for w, a in _act_word(n, rest, c, h):
        if not w or head >= w[0]:
            _bump(out, (head,) + w, a)
        else:
            for w2, b in _act_word(-head, w, c, h):
                _bump(out, w2, a * b)
    # [L_n, L_{-head}] = (n + head) L_{n-head} + central delta_{n,head}
    coef = n + head
    if coef != 0:
        for w, a in _act_word(n - head, rest, c, h):
            _bump(out, w, coef * a)
    if n == head:
        cc = c * (n ** 3 - n) / 12
        if cc != 0:
            _bump(out, rest, cc)
    return tuple((w, a) for w, a in out.items() if a != 0)


def act(n: int, v: VermaVector, c, h) -> VermaVector:
    """L_n . v computed symbolically; result sits at level v.level - n.

    Words pushed below level 0 annihilate (zero vector, never an error).
    """
    cv, hv = as_fraction(c), as_fraction(h)
    out: dict = {}
    for p, a in v.coefficients.items():
        for w, b in _act_word(n, p.parts, cv, hv):
            _bump(out, w, a * b)
    level = v.level - n
    if level < 0:
        return VermaVector.zero(0)
    return VermaVector({Partition(w): x for w, x in out.items() if x != 0}, level)


def monomial_block(n: int, k: int, c, h, mode: str = "exact") -> Optional[np.ndarray]:
    """Matrix of L_n from level k to level k - n in the monomial basis.

    Shape (p(k-n), p(k)): an object array of Fractions in exact mode, a
    float64 array in float mode (each exact entry rounded once).  None
    when the target level is negative.
    """
    if k < 0 or k - n < 0:
        return None
    cv, hv = as_fraction(c), as_fraction(h)
    src = _partition_tuples(k)
    dst_index = _partition_index(k - n)
    rows, cols, vals = [], [], []
    for j, word in enumerate(src):
        # the words of one action are distinct, so every entry is set once
        for w, a in _act_word(n, word, cv, hv):
            rows.append(dst_index[w])
            cols.append(j)
            vals.append(a)
    out = zeros((len(dst_index), len(src)), mode)
    out[rows, cols] = vals
    return out


# ---------------------------------------------------------------------------
# Gram (Shapovalov) matrices

@dataclass(frozen=True)
class GramMatrix:
    """Inner-product matrix of level-k monomials for parameters (c, h)."""

    c: Fraction
    h: Fraction
    level: int
    entries: np.ndarray  # symmetric; Fraction objects (exact) or float64


@lru_cache(maxsize=None)
def _gram_level(c: Fraction, h: Fraction, k: int, mode: str) -> np.ndarray:
    """G_k by level recursion, in the arithmetic of `mode`; read-only.

    Row lambda = (a, rest) of G_k is row `rest` of G_{k-a} @ L_a(k), from
    the pairing <L_{-a} m_rest, m_mu> = <m_rest, L_a m_mu>.  Only the rows
    of G_{k-a} indexed by some `rest` are multiplied: those are the
    partitions of k - a with first part at most a, a minority of the
    level for small a.

    Float mode runs the same recursion on float64 arrays.  For c > 0 and
    h >= 0 every structure constant of L_a, a > 0, is nonnegative
    (commutators contribute (n + head) > 0, straightening contributes
    differences of a larger and a smaller part, L_0 contributes h plus a
    level, the central term c (n^3 - n)/12), so every Gram entry is a sum
    of products of nonnegative numbers.  Nothing cancels: an exact zero
    stays an exact zero, and each float entry carries only accumulated
    rounding, at most (k + p(0) + ... + p(k-1)) u relative to first order
    (u = 2^-53: one rounding per entry of L_a(k) and a sum of at most
    p(k-a) nonnegative terms per level).  In practice it is far smaller:
    against the rounded exact Gram the worst relative error for k <= 12
    over the tested (c, h) points is 2.5 eps (eps = 2^-52), and the tests
    hold it to 4 eps.
    """
    parts_k = _partition_tuples(k)
    g = zeros((len(parts_k), len(parts_k)), mode)
    if k == 0:
        g[0, 0] = Fraction(1)
    else:
        row = 0
        for a, group in groupby(parts_k, key=lambda lam: lam[0]):
            index = _partition_index(k - a)
            needed = [index[lam[1:]] for lam in group]
            g[row:row + len(needed), :] = dot(_gram_level(c, h, k - a, mode)[needed, :],
                                              monomial_block(a, k, c, h, mode))
            row += len(needed)
    g.flags.writeable = False
    return g


def gram_matrix(c, h, k: int, mode: str = "exact") -> GramMatrix:
    """Level-k Gram matrix in the reverse-lexicographic monomial basis."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    cv, hv = as_fraction(c), as_fraction(h)
    return GramMatrix(cv, hv, k, _gram_level(cv, hv, k, mode).copy())


def gram_entry_direct(c, h, lam, mu) -> Fraction:
    """Independent route to one Gram entry: adjoint word applied step by step.

    <L_{-l1}...L_{-lj} Phi, m_mu> = coefficient of Phi in L_{l1}(...(L_{lj-...}))
    applied largest part first.  Used as an oracle against gram_matrix.
    """
    lam_parts = tuple(lam.parts if isinstance(lam, Partition) else lam)
    v = VermaVector.monomial(tuple(mu.parts if isinstance(mu, Partition) else mu))
    for part in lam_parts:
        v = act(part, v, c, h)
    return v.coefficient(())


# ---------------------------------------------------------------------------
# truncated representations

class NonUnitaryError(ValueError):
    """The Gram matrix is indefinite: (c, h) is outside the unitary range."""


class FloatRangeError(NonUnitaryError):
    """A float-mode build left the float64 range; exact mode has no such limit.

    A NonUnitaryError so that callers refusing a rep refuse this one too.
    """


# Budget for float-mode residuals (bracket relations, hermiticity) that
# reports and the acceptance battery hold a float rep to.
FLOAT_RESIDUAL_TOL = 1e-10


def block_keys(N: int) -> list[tuple[int, int]]:
    """The (n, k) blocks of a truncation at N: L_n from level k to k - n.

    |n| <= N, 0 <= k <= N and 0 <= k - n <= N, ordered by n, then k.
    """
    return [(n, k) for n in range(-N, N + 1) for k in range(max(0, n), N + 1)
            if k - n <= N]


@dataclass(frozen=True)
class TruncatedRep:
    """Unitary lowest-weight representation cut at energy level N.

    blocks[(n, k)] is the matrix of L_n from level k to level k - n, for
    every (n, k) in block_keys(N).  In float mode blocks are float64
    in per-level orthonormal bases.  In exact mode blocks are Fraction
    object arrays in per-level orthogonal bases whose norms squared are
    basis_norms[k] (the D-basis); orthonormal_block derives the float
    orthonormal matrix.  basis names the per-level basis: "quotient" for
    the truncated_rep quotient, "monomial" for the raw module action
    (basis_norms is None), "tensor" for the pairing of factor bases made
    by tensor_rep.
    """

    c: Scalar
    h: Scalar
    N: int
    mode: str
    level_dims: tuple[int, ...]
    blocks: dict
    basis_norms: Optional[tuple]
    basis: str = "quotient"

    def dim(self, k: int) -> int:
        return self.level_dims[k] if 0 <= k <= self.N else 0

    def block(self, n: int, k: int) -> Optional[np.ndarray]:
        return self.blocks.get((n, k))

    def norms(self, k: int):
        if self.basis_norms is None:
            raise ValueError("monomial-basis action carries no inner product data")
        return self.basis_norms[k]

    def orthonormal_block(self, n: int, k: int) -> Optional[np.ndarray]:
        if self.basis_norms is None:
            raise ValueError("monomial-basis action has no orthonormal structure")
        blk = self.block(n, k)
        if blk is None:
            return None
        if self.mode == "float":
            return blk
        num = to_float(blk)
        s_dst = np.sqrt([float(x) for x in self.basis_norms[k - n]])
        s_src = np.sqrt([float(x) for x in self.basis_norms[k]])
        if num.size == 0:
            return num
        return (s_dst[:, None] * num) / s_src[None, :]

    def total_dim(self) -> int:
        return sum(self.level_dims)


def _exact_level_data(c, h, N):
    """Per-level (dims, norms D, basis rows B, extraction rows W) for exact mode."""
    dims, normsq, basis_rows, extract = [], [], [], []
    for k in range(N + 1):
        g = _gram_level(c, h, k, "exact")
        try:
            d, basis, rank = psd_congruence(g)
        except IndefiniteMatrixError as exc:
            raise NonUnitaryError(
                f"Gram matrix at level {k} is indefinite for c={c}, h={h}: {exc}") from exc
        b = basis[:rank]
        w = dot(b, g)
        for i in range(rank):
            w[i, :] = w[i, :] / d[i]
        dims.append(rank)
        normsq.append(tuple(d[:rank]))
        basis_rows.append(b)
        extract.append(w)
    return dims, normsq, basis_rows, extract


# Float mode's relative tolerance: a Gram diagonal or scaled eigenvalue
# below -_FLOAT_TOL times the largest one (or 1, if that is larger) is
# indefinite, and a scaled eigenvalue at or below +_FLOAT_TOL times that
# is null.
_FLOAT_TOL = 1e-10


def _float_level_data(c, h, N):
    """Float-mode per-level data: orthonormal rows from the scaled Gram.

    Monomials with a zero Gram diagonal are null (a positive semidefinite
    matrix with G_ii = 0 has row i zero) and are dropped; the float Gram
    keeps zeros exact, so no threshold is needed there, and a relative one
    would drop genuine states once the diagonal spans many orders of
    magnitude.  Rank decisions come from a float64 eigendecomposition of
    the diagonally scaled Gram.  The basis itself is then lifted to extended
    precision and re-orthonormalized with one Newton-Schulz step: near
    the unitarity boundary the smallest scaled eigenvalue can reach 1e-6
    and the 1/sqrt(w) scaling would otherwise leave relation residuals
    around 1e-10, two orders above what downstream checks budget for.
    """
    dims, normsq, basis_rows, extract = [], [], [], []
    for k in range(N + 1):
        g = _gram_level(c, h, k, "float")
        p = g.shape[0]
        if p == 0:
            dims.append(0)
            normsq.append(np.zeros(0))
            basis_rows.append(np.zeros((0, 0), dtype=np.longdouble))
            extract.append(np.zeros((0, 0), dtype=np.longdouble))
            continue
        diag = np.diag(g).copy()
        maxd = max(diag.max(initial=0.0), 0.0)
        if (diag < -_FLOAT_TOL * max(maxd, 1.0)).any():
            raise NonUnitaryError(f"negative squared norm at level {k} for c={c}, h={h}")
        keep0 = diag > 0
        gs = g[np.ix_(keep0, keep0)]
        s = 1.0 / np.sqrt(diag[keep0])
        gs = gs * s[:, None] * s[None, :]
        if gs.shape[0]:
            w, u = np.linalg.eigh(gs)
            wmax = max(abs(w).max(), 1.0)
            if w.min() < -_FLOAT_TOL * wmax:
                raise NonUnitaryError(
                    f"Gram matrix at level {k} is indefinite for c={c}, h={h} "
                    f"(eigenvalue {w.min():.3e}, tolerance {_FLOAT_TOL:g} relative)")
            kept = w > _FLOAT_TOL * wmax
            cols = u[:, kept] / np.sqrt(w[kept])[None, :]
            rows = (cols * s[:, None]).T          # rows @ gs-original @ rows.T = I
            b = np.zeros((rows.shape[0], p))
            b[:, keep0] = rows
        else:
            b = np.zeros((0, p))
        bl = b.astype(np.longdouble)
        gl = g.astype(np.longdouble)
        if bl.shape[0]:
            m = bl @ gl @ bl.T
            one = np.eye(m.shape[0], dtype=np.longdouble)
            if float(abs(m - one).max()) < 0.1:
                bl = ((one * 3 - m) / 2) @ bl
        dims.append(bl.shape[0])
        normsq.append(np.ones(bl.shape[0]))
        basis_rows.append(bl)
        extract.append(bl @ gl)
    return dims, normsq, basis_rows, extract


def truncated_rep(c, h, N: int, mode: str = "exact",
                  basis: str = "quotient") -> TruncatedRep:
    """Build the truncated representation for (c, h) at cutoff N.

    basis="quotient" (the default) quotients each level by the Gram kernel
    and carries inner-product data; it raises NonUnitaryError when the
    Gram matrix is indefinite (the orthonormalization is refused rather
    than faked).  basis="monomial" keeps the raw module action on the full
    monomial basis; it exists for algebra checks at points outside the
    unitary range and carries no inner product.  Float mode decides rank
    and unitarity at the fixed relative tolerance _FLOAT_TOL = 1e-10 on
    the diagonally scaled Gram, and raises FloatRangeError when its Gram
    or quotient leaves the float64 range (an overflowed Gram would
    otherwise read as null states or stop eigh from converging).
    """
    if N < 2:
        raise ValueError("truncation level N must be at least 2")
    cv, hv = as_fraction(c), as_fraction(h)
    if basis == "monomial":
        blocks = {(n, k): monomial_block(n, k, cv, hv, mode) for n, k in block_keys(N)}
        return TruncatedRep(
            c=cv if mode == "exact" else float(cv),
            h=hv if mode == "exact" else float(hv),
            N=N,
            mode=mode,
            level_dims=tuple(partition_count(k) for k in range(N + 1)),
            blocks=blocks,
            basis_norms=None,
            basis="monomial",
        )
    if basis != "quotient":
        raise ValueError(f"unknown basis {basis!r}")
    if mode == "exact":
        dims, normsq, basis_rows, extract = _exact_level_data(cv, hv, N)
    elif mode == "float":
        try:
            with np.errstate(over="raise", invalid="raise"):
                dims, normsq, basis_rows, extract = _float_level_data(cv, hv, N)
        except (FloatingPointError, OverflowError) as exc:
            raise FloatRangeError(f"float mode overflows float64 at this (c, h), N={N} "
                                  f"({exc}); exact mode has no such limit") from exc
    else:
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    blocks = {}
    for n, k in block_keys(N):
        mono = monomial_block(n, k, cv, hv, mode)
        blk = dot(dot(extract[k - n], mono), basis_rows[k].T)
        if mode == "float":
            blk = np.asarray(blk, dtype=np.float64)
        blocks[(n, k)] = blk
    return TruncatedRep(
        c=cv if mode == "exact" else float(cv),
        h=hv if mode == "exact" else float(hv),
        N=N,
        mode=mode,
        level_dims=tuple(dims),
        blocks=blocks,
        basis_norms=tuple(normsq),
    )


# ---------------------------------------------------------------------------
# algebra checks

def relation_residual(rep: TruncatedRep, m: int, n: int, k: int) -> Optional[np.ndarray]:
    """Matrix of [L_m, L_n] - (m-n) L_{m+n} - central on level k, or None.

    None unless both orders stay inside the truncation: levels k, k - n,
    k - m and k - m - n all lie in [0, N].  The central term is taken
    from the label rep.c, not read off the blocks, so blocks built at
    another central charge leave a residual (the CLI's injected fault
    builds at 12c/13 and labels the result c).
    """
    if not all(0 <= level <= rep.N for level in (k, k - n, k - m, k - m - n)):
        return None
    a = dot(rep.block(m, k - n), rep.block(n, k))
    b = dot(rep.block(n, k - m), rep.block(m, k))
    res = a - b
    if m != n:
        res = res - (m - n) * rep.block(m + n, k)
    if m + n == 0:
        central = rep.c * (m ** 3 - m) / 12
        if central != 0:
            res = res - central * eye(rep.dim(k), rep.mode)
    return res


def relation_residual_summary(rep: TruncatedRep, max_mode: int = 3) -> dict:
    """Sweep the pairs m < n with |m|,|n| <= max_mode over their safe windows.

    The residual of (n, m) is the exact negation of that of (m, n), in
    both arithmetics: its two products are those of (m, n) swapped, its
    L_{m+n} coefficient and its central term are negated, the safe
    windows of the two orders are one set, and IEEE subtraction and
    scaling commute with negation.  The residual of (m, m) is a product
    minus itself, and its central term vanishes.  So the unordered pairs
    give the max_abs and exact_zero of the full sweep over all (m, n).

    Returns {"max_abs": float, "exact_zero": bool, "cells": [...]}.
    """
    total = Residual()
    cells = []
    for m in range(-max_mode, max_mode + 1):
        for n in range(m + 1, max_mode + 1):
            for k in range(rep.N + 1):
                res = relation_residual(rep, m, n, k)
                if res is None or res.size == 0:
                    continue
                cell = Residual.of(res)
                total |= cell
                cells.append({"m": m, "n": n, "k": k, "max_abs": cell.max_abs})
    return {"max_abs": total.max_abs, "exact_zero": rep.mode == "exact" and total.zero,
            "cells": cells}


def measure_central_charge(rep: TruncatedRep) -> Scalar:
    """2 (<Omega, [L_2, L_{-2}] Omega> - 4h) read off the rep's matrices."""
    if rep.N < 2 or rep.dim(0) != 1:
        raise ValueError("need N >= 2 and a one-dimensional level 0")
    lower = rep.block(-2, 0)
    raise_back = rep.block(2, 2)
    val = dot(raise_back, lower)[0, 0]
    # L_{-2} L_2 Omega vanishes: L_2 maps level 0 below the module
    return 2 * (val - 4 * rep.h)


_TENSOR_DIM_CAP = 20000  # states summed over levels


def tensor_rep(a: TruncatedRep, b: TruncatedRep, N: int) -> TruncatedRep:
    """Graded tensor product with L_n = L_n (x) 1 + 1 (x) L_n, cut at total level N.

    Basis at level K: pairs (level ka block of a) x (level K - ka of b),
    ka ascending; norms squared multiply, and the result is labelled
    basis="tensor".  Central charge adds.
    """
    if a.mode != b.mode:
        raise ValueError("tensor factors must share the arithmetic mode")
    if N > a.N or N > b.N:
        raise ValueError("factors must be truncated at least at N")
    if a.basis_norms is None or b.basis_norms is None:
        raise ValueError("tensor factors need inner-product data (quotient basis)")
    mode = a.mode
    dims = []
    for K in range(N + 1):
        dims.append(sum(a.dim(ka) * b.dim(K - ka) for ka in range(K + 1)))
    if sum(dims) > _TENSOR_DIM_CAP:
        raise ValueError(f"tensor product dimension {sum(dims)} exceeds cap {_TENSOR_DIM_CAP}")

    def offsets(K):
        off, pos = {}, 0
        for ka in range(K + 1):
            off[ka] = pos
            pos += a.dim(ka) * b.dim(K - ka)
        return off

    all_offsets = {K: offsets(K) for K in range(N + 1)}
    blocks = {}
    for n, K in block_keys(N):
        Kd = K - n
        out = zeros((dims[Kd], dims[K]), mode)
        for ka in range(K + 1):
            kb = K - ka
            da, db = a.dim(ka), b.dim(kb)
            if da == 0 or db == 0:
                continue
            src = all_offsets[K][ka]
            # a-factor action: (ka, kb) -> (ka - n, kb)
            blk = a.block(n, ka)
            if blk is not None and blk.size:
                dst = all_offsets[Kd][ka - n]
                sub = np.kron(blk, eye(db, mode))
                out[dst:dst + a.dim(ka - n) * db, src:src + da * db] += sub
            # b-factor action: (ka, kb) -> (ka, kb - n)
            blk = b.block(n, kb)
            if blk is not None and blk.size:
                dst = all_offsets[Kd][ka]
                sub = np.kron(eye(da, mode), blk)
                out[dst:dst + da * b.dim(kb - n), src:src + da * db] += sub
        blocks[(n, K)] = out
    norms = []
    for K in range(N + 1):
        row = []
        for ka in range(K + 1):
            for i in range(a.dim(ka)):
                for j in range(b.dim(K - ka)):
                    row.append(a.norms(ka)[i] * b.norms(K - ka)[j])
        norms.append(tuple(row) if mode == "exact" else np.asarray(row, dtype=float))
    return TruncatedRep(
        c=a.c + b.c,
        h=a.h + b.h,
        N=N,
        mode=mode,
        level_dims=tuple(dims),
        blocks=blocks,
        basis_norms=tuple(norms),
        basis="tensor",
    )

"""Lowest-weight Virasoro modules at a finite energy cutoff.

Conventions
-----------
Generators L_n, n in Z, with commutation relations

    [L_n, L_m] = (n - m) L_{n+m} + (c/12) (n^3 - n) delta_{n+m,0}

acting on the span of monomials L_{-a1} L_{-a2} ... L_{-aj} Phi where
(a1 >= a2 >= ... >= aj >= 1) runs over integer partitions and Phi is the
lowest-weight vector (L_n Phi = 0 for n > 0, L_0 Phi = h Phi).  A monomial
is its word, the tuple (a1, ..., aj); over a partition of k it sits at
energy level k (L_0 eigenvalue h + k).

Within one level the monomial basis is listed in reverse-lexicographic
order, e.g. level 4 is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  All basis
ordering, serialization and caching relies on that order.

The inner product is the one induced by L_n* = L_{-n} and <Phi, Phi> = 1
(Gram/Shapovalov matrices per level).  In the unitary range the Gram
matrix is positive semidefinite; its kernel (null vectors) is quotiented
away by truncated_rep.  monomial_action keeps the raw action on the
monomial basis (basis "monomial"), with no inner product.

Arithmetic is dual mode.  The PBW structure constants (the coefficients
of L_n on a monomial) are exact and held as integers: each is
A + B c/12 + C h with ints A, B, C, and a monomial block is their int
numerators over the one scale 12 den(c) den(h) (a raising block, n < 0,
is the ints A themselves).  _Module._pbw straightens whole blocks: the
columns of the words with head a come from lower blocks by one sparse
product and one scaled block, in int64 when a bound on the sum of the
absolute values of the terms, which bounds every partial sum, proves it
below 2^62 (numpy's integer products wrap silently), else on Python ints.
_Module.act, the same straightening word by word on dicts, is kept for
the oracle gram_entry_direct only.  "exact" mode keeps every
matrix built from them exact, with blocks in a basis that is orthogonal
with known rational norms squared (the D-basis), and multiplies over the
integers (rational.IntegerForm): the monomial blocks enter the Gram
recursion and block assembly as integer forms over that scale, the Gram
recursion forms one Fraction per entry of a product, a block forms its
Fractions once, from the product of three integer matrices, and the
relation sweep forms none.  "float" mode rounds each structure constant
once to float64, numerator over scale (a float64 division when both are
below 2^53 and so convert exactly, else int true division; either is
correctly rounded), and runs the same Gram recursion, quotient and block
assembly in floating point, with blocks in an orthonormal basis and no
Fraction per entry; a float rep holds c and h as floats.

One point at a time is kept, in _module: the _Module of the last (c, h)
built holds its integer PBW blocks, its Gram levels, each level's
quotient (norms, basis rows and extraction rows), each quotient block
and each float block's operator norm (TruncatedRep.block_norm).  None of
these depends on the cutoff N, so a build at N + 1 after one at N
computes only level N + 1 and the blocks that touch it.  A build at another point drops the
object, which frees all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby
from typing import Optional, Union

import numpy as np

from .rational import (
    IndefiniteMatrixError,
    IntegerForm,
    Residual,
    adjoint_residual,
    as_fraction,
    eye,
    opnorm,
    psd_congruence,
    to_float,
    zeros,
)


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


def enumerate_partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k as tuples of parts, reverse-lexicographic
    (largest first)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return list(_partition_tuples(k))


def partition_count(k: int) -> int:
    return len(_partition_tuples(k)) if k >= 0 else 0


# ---------------------------------------------------------------------------
# the module at one (c, h): PBW straightening, Gram levels, quotient, blocks

@lru_cache(maxsize=None)
def _head_groups(k: int) -> tuple:
    """The words of level k by head part a, in basis order: (a, cols, rests)
    with cols the slice of the group's columns and rests the index of each
    word's tail (the word less its head) in level k - a.  The empty word
    of level 0 has head 0."""
    out, start = [], 0
    for a, group in groupby(_partition_tuples(k), key=lambda lam: lam[0] if lam else 0):
        index = _partition_index(k - a)
        rests = np.array([index[lam[1:]] for lam in group], dtype=np.intp)
        out.append((a, slice(start, start + len(rests)), rests))
        start += len(rests)
    return tuple(out)


# numpy's int64 matmul wraps silently on overflow, so an integer PBW block
# is built in int64 only when the sum of the absolute values of its terms,
# which bounds every partial sum, is below _INT64_BOUND; otherwise on
# Python ints.  An integer below _EXACT_FLOAT converts to float64 exactly.
_INT64_BOUND = 1 << 62
_EXACT_FLOAT = 1 << 53


def _int_dtype(bound: int):
    return np.int64 if bound < _INT64_BOUND else object


def _by_rows(block: np.ndarray) -> tuple:
    """A raising block's nonzeros by rows, the left factor of _assemble's
    products: (rows hit, where each row's run starts, columns, values as a
    column, the largest row sum of |values|).  Raising blocks are sparse
    (L_{-a} mostly prepends), so a product gathers and sums rows of the
    right factor."""
    rows, cols = np.nonzero(block)              # rows ascending
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    hit = rows[starts]
    vals = block[rows, cols][:, None]
    peak = int(np.add.reduceat(np.abs(vals), starts).max()) if vals.size else 0
    return hit, starts, cols[:, None], vals, peak


def _assemble(shape: tuple, groups: list) -> tuple:
    """(block, peak) of the integer block whose columns cols of each group
    (cols, rests, product, scaled, value) are x @ y[:, rests] for the
    product (x, y), plus coef z[:, rests] for scaled = (coef, z), plus
    value at rows rests; a missing term is None.  x is a _by_rows form, y
    and z are _pbw triples, and peak is the largest |entry|.  A group runs
    in int64 when its bound rowsum(x) peak(y) + |coef| peak(z) + |value|,
    which bounds every partial sum, is below _INT64_BOUND, and the block
    is int64 when every group is."""
    bounds = [abs(value) + (product[0][4] * product[1][1] if product else 0)
              + (abs(scaled[0]) * scaled[1][1] if scaled else 0)
              for _, _, product, scaled, value in groups]
    out = np.zeros(shape, _int_dtype(max(bounds, default=0)))
    for (cols, rests, product, scaled, value), bound in zip(groups, bounds):
        dtype = _int_dtype(bound)
        if product:
            (hit, starts, xcols, vals, _), y = product[0], product[1][0]
            gathered = y[xcols, rests].astype(dtype, copy=False)
            gathered *= vals.astype(dtype, copy=False)
            out[hit, cols] += np.add.reduceat(gathered, starts)
        if scaled and scaled[1][1]:     # else coef need not fit in int64
            coef, z = scaled[0], scaled[1][0]
            out[:, cols] += coef * z[:, rests].astype(dtype, copy=False)
        if value:
            out[rests, np.arange(cols.start, cols.stop)] += value
    return out, int(np.abs(out).max(initial=0))


def _entries(flat: tuple):
    """The (word, A, B, C) entries of a flat action tuple."""
    return zip(flat[::4], flat[1::4], flat[2::4], flat[3::4])


def _bump(out: dict, word: tuple, a: int, b: int, c: int) -> None:
    cur = out.get(word)
    if cur is None:
        out[word] = [a, b, c]
    else:
        cur[0] += a
        cur[1] += b
        cur[2] += c


# Float mode's relative tolerance: a Gram diagonal or scaled eigenvalue
# below -_FLOAT_TOL times the largest one (or 1, if that is larger) is
# indefinite, and a scaled eigenvalue at or below +_FLOAT_TOL times that
# is null.
_FLOAT_TOL = 1e-10
_ONE = Fraction(1)


class _Module:
    """The Verma module at one (c, h), with plain-dict memos keyed without c
    or h: integer PBW blocks (_pbw), Gram levels, level quotients, quotient
    blocks, float block norms, and act's words, which only the oracle
    gram_entry_direct fills; memoized arrays are read-only.
    Nothing in the memos refers back to the object, so dropping the last
    reference to it frees them at once, not at the next cyclic collection.
    """

    def __init__(self, c: Fraction, h: Fraction):
        self.c, self.h = c, h
        # A + B c/12 + C h = (A scale + B weight_c + C weight_h) / scale
        self.scale = 12 * c.denominator * h.denominator
        self._weights = (self.scale, c.numerator * h.denominator,
                         12 * c.denominator * h.numerator)
        self._act, self._pbw_memo, self._gram, self._levels, self._blocks = {}, {}, {}, {}, {}
        # (n, k) -> (float block, its opnorm or None); see TruncatedRep.block_norm
        self.norms: dict = {}

    def act(self, n: int, word: tuple) -> tuple:
        """L_n applied to the monomial `word`, as one flat tuple
        (w_1, A_1, B_1, C_1, w_2, ...) of distinct words w_i and ints: the
        coefficient of w_i is A_i + B_i c/12 + C_i h.

        The structure constants are polynomials in (c, h), and one mode on
        one monomial is affine in them: a term of L_n m picks up at most one
        scalar, the central term c (n^3 - n)/12 or h from L_0 on Phi, and a
        mode n < 0 picks up none, so its coefficients are the integers A.
        The memo holds ints only and keys no (c, h); coeff evaluates an
        entry at the point.  A triple is dropped only when it is (0, 0, 0),
        so an entry may still vanish at the point (C h at h = 0).

        Recursion on the leading generator: commute L_n through L_{-word[0]}
        and straighten the leftovers.  Terminates because every same-length
        prepend candidate produced by the inner call already has first part
        bounded by the part being prepended (see the sortedness of words).
        The memo skips the two constant-time cases.
        """
        if not word:
            if n > 0:
                return ()
            if n == 0:
                return ((), 0, 0, 1)
            return ((-n,), 1, 0, 0)
        if n < 0 and -n >= word[0]:
            return ((-n,) + word, 1, 0, 0)
        memo = self._act.get((n, word))
        if memo is not None:
            return memo
        head, rest = word[0], word[1:]
        out: dict = {}
        # L_{-head} (L_n rest), straightening where the prepend is unsorted
        for w, a, b, c in _entries(self.act(n, rest)):
            if not w or head >= w[0]:
                _bump(out, (head,) + w, a, b, c)
            else:
                # L_{-head} is a negative mode: its coefficients are the ints A
                straight = self.act(-head, w)
                for w2, x in zip(straight[::4], straight[1::4]):
                    _bump(out, w2, a * x, b * x, c * x)
        # [L_n, L_{-head}] = (n + head) L_{n-head} + central delta_{n,head}
        coef = n + head
        if coef != 0:
            for w, a, b, c in _entries(self.act(n - head, rest)):
                _bump(out, w, coef * a, coef * b, coef * c)
        if n == head and n ** 3 != n:
            _bump(out, rest, 0, n ** 3 - n, 0)
        flat: list = []
        for w, abc in out.items():
            if any(abc):
                flat.append(w)
                flat.extend(abc)
        memo = self._act[n, word] = tuple(flat)
        return memo

    def coeff(self, a: int, b: int, c: int) -> Fraction:
        """A + B c/12 + C h at the point."""
        wa, wb, wc = self._weights
        return Fraction(a * wa + b * wb + c * wc, self.scale)

    def _pbw(self, n: int, k: int) -> tuple:
        """(block, peak, rows) of L_n from level k to level k - n, memoized
        read-only: the integer matrix, its largest |entry|, and for a
        raising block (n < 0) its _by_rows form, else None.  A lowering
        block (n >= 0) holds the numerators over self.scale, a raising block
        its integer entries; int64, or Python ints in an object array where
        _assemble's bound reaches _INT64_BOUND.

        Straightening by whole blocks: the columns of the words (a, rest)
        with head a come from the columns `rest` of lower blocks.  With
        R(b, j) = L_{-b} from level j,
          R(b, k)[:, a]  = prepend b, a single 1, when a <= b, else
                           R(a, k-a+b) R(b, k-a) + (a - b) R(a+b, k-a),
          L_n(k)[:, a]   = R(a, k-a-n) L_n(k-a) + (n + a) L_{n-a}(k-a)
                           + (c/12)(n^3 - n) delta_{n,a},
        where L_{n-a} is a lowering block, L_0 on `rest`, or, for n < a, the
        raising block R(a-n, k-a) times the scale; L_0(k) is (h + k) I.
        """
        hit = self._pbw_memo.get((n, k))
        if hit is not None:
            return hit
        scale, wc, wh = self._weights
        if n == 0:
            d = k * scale + wh
            num = np.zeros((partition_count(k),) * 2, _int_dtype(abs(d)))
            np.fill_diagonal(num, d)
            hit = num, abs(d)
        else:
            groups = []
            for a, cols, rests in _head_groups(k):
                product = scaled = None
                value = 0
                if n < 0 and a <= -n:
                    # a prepend: L_{-b} m_word = m_(b, word) for b = -n >= a
                    index = _partition_index(k - n)
                    rests = [index[(-n,) + w] for w in _partition_tuples(k)[cols]]
                    value = 1
                else:
                    # L_n L_{-a} = L_{-a} L_n + (n + a) L_{n-a} + central delta_{n,a}
                    if k - a - n >= 0:
                        product = self._pbw(-a, k - a - n)[2], self._pbw(n, k - a)
                    if n == a:
                        # L_0 on `rest` at level k - a, and the central term
                        value = 2 * n * ((k - a) * scale + wh) + (n ** 3 - n) * wc
                    else:
                        # a raising L_{n-a} in a lowering block is scaled up
                        lift = scale if n - a < 0 <= n else 1
                        scaled = (n + a) * lift, self._pbw(n - a, k - a)
                groups.append((cols, rests, product, scaled, value))
            hit = _assemble((partition_count(k - n), partition_count(k)), groups)
        hit[0].flags.writeable = False
        # a raising block stands on the left of products, as its rows
        hit = hit + (_by_rows(hit[0]) if n < 0 else None,)
        self._pbw_memo[n, k] = hit
        return hit

    def monomial_form(self, n: int, k: int) -> IntegerForm:
        """The exact monomial block as integers over one scale on every row,
        with no Fraction formed; a factor on either side of a product."""
        num = self._pbw(n, k)[0].astype(object)
        return IntegerForm(num, np.full(num.shape[0], 1 if n < 0 else self.scale, dtype=object),
                           np.ones(num.shape[1], dtype=object))

    def monomial(self, n: int, k: int, mode: str) -> np.ndarray:
        """monomial_block for 0 <= k - n, k.  A float entry is its int
        numerator over the scale: a float64 division when both convert
        exactly, int true division otherwise.  Either is correctly rounded,
        and so the float of the entry's Fraction."""
        if mode == "exact":
            return self.monomial_form(n, k).fractions()
        num, peak, _ = self._pbw(n, k)
        scale = 1 if n < 0 else self.scale
        if peak < _EXACT_FLOAT and scale < _EXACT_FLOAT:
            return num.astype(np.float64) / scale
        return (num.astype(object) / scale).astype(np.float64)

    def gram(self, k: int, mode: str) -> np.ndarray:
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
        g = self._gram.get((k, mode))
        if g is None:
            parts_k = _partition_tuples(k)
            g = zeros((len(parts_k), len(parts_k)), mode)
            if k == 0:
                g[0, 0] = _ONE
            else:
                for a, rows, rests in _head_groups(k):
                    lower = self.gram(k - a, mode)[rests, :]
                    if mode == "exact":
                        part = (IntegerForm.by_rows(lower) @ self.monomial_form(a, k)).fractions()
                    else:
                        part = np.dot(lower, self.monomial(a, k, mode))
                    g[rows, :] = part
            g.flags.writeable = False
            self._gram[k, mode] = g
        return g

    def level(self, k: int, mode: str) -> tuple:
        """Level k's quotient: (norms squared D, basis rows B, extraction
        rows W = D^-1 B G), one row of B per state kept.  Exact mode gives
        D as Fractions and B, W as psd_congruence's integer forms; float
        mode's rows are orthonormal, so its D is the identity and is None."""
        data = self._levels.get((k, mode))
        if data is not None:
            return data
        if mode == "float":
            data = self._float_level(k)
        else:
            try:
                data = psd_congruence(self.gram(k, "exact"))
            except IndefiniteMatrixError as exc:
                raise NonUnitaryError(f"Gram matrix at level {k} is indefinite "
                                      f"for c={self.c}, h={self.h}: {exc}") from exc
        self._levels[k, mode] = data
        return data

    def _float_level(self, k: int) -> tuple:
        """Float-mode level: orthonormal rows from the scaled Gram (D = I).

        Monomials with a zero Gram diagonal are null (a positive semidefinite
        matrix with G_ii = 0 has row i zero) and are dropped; the float Gram
        keeps zeros exact, so no threshold is needed there, and a relative one
        would drop genuine states once the diagonal spans many orders of
        magnitude.  The rest are scaled by 1/sqrt|G_ii|, so a negative
        diagonal becomes a -1 on the scaled diagonal and an eigenvalue at or
        below -1, which the one indefiniteness check refuses.  Rank decisions
        come from a float64 eigendecomposition of the diagonally scaled Gram.
        The basis itself is then lifted to extended precision and
        re-orthonormalized with one Newton-Schulz step: near the unitarity
        boundary the smallest scaled eigenvalue can reach 1e-6 and the
        1/sqrt(w) scaling would otherwise leave relation residuals around
        1e-10, two orders above what downstream checks budget for.
        """
        g = self.gram(k, "float")
        p = g.shape[0]
        diag = np.diag(g)
        keep0 = diag != 0
        gs = g[np.ix_(keep0, keep0)]
        s = 1.0 / np.sqrt(abs(diag[keep0]))
        gs = gs * s[:, None] * s[None, :]
        if gs.shape[0]:
            w, u = np.linalg.eigh(gs)
            wmax = max(abs(w).max(), 1.0)
            if w.min() < -_FLOAT_TOL * wmax:
                raise NonUnitaryError(
                    f"Gram matrix at level {k} is indefinite for c={self.c}, h={self.h} "
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
        return None, bl, bl @ gl

    def block(self, n: int, k: int, mode: str) -> np.ndarray:
        """L_n from level k to level k - n in the quotient bases; read-only.
        Reads the memo of both levels, so level() must have built them."""
        blk = self._blocks.get((n, k, mode))
        if blk is None:
            extract, basis = self._levels[k - n, mode][2], self._levels[k, mode][1]
            if mode == "exact":
                blk = (extract @ self.monomial_form(n, k) @ basis.T).fractions()
            else:
                mono = self.monomial(n, k, mode)
                blk = np.asarray(np.dot(np.dot(extract, mono), basis.T), dtype=np.float64)
                self.norms[n, k] = (blk, None)
            blk.flags.writeable = False
            self._blocks[n, k, mode] = blk
        return blk


@lru_cache(maxsize=1)
def _module(c: Fraction, h: Fraction) -> _Module:
    """The _Module of the last (c, h) asked for, holding the point's PBW
    action, Gram levels, level quotients and quotient blocks.  A call at
    another point, or cache_clear(), drops the cache's reference to it,
    and with no other reference left that frees all of them at once."""
    return _Module(c, h)


def monomial_block(n: int, k: int, c, h, mode: str = "exact") -> Optional[np.ndarray]:
    """Matrix of L_n from level k to level k - n in the monomial basis.

    Shape (p(k-n), p(k)): an object array of Fractions in exact mode, a
    float64 array in float mode (each exact entry rounded once).  None
    when the target level is negative.
    """
    if k < 0 or k - n < 0:
        return None
    return _module(as_fraction(c), as_fraction(h)).monomial(n, k, mode)


# ---------------------------------------------------------------------------
# Gram (Shapovalov) matrices

@dataclass(frozen=True)
class GramMatrix:
    """Inner-product matrix of level-k monomials for parameters (c, h)."""

    entries: np.ndarray  # symmetric; Fraction objects (exact) or float64


def gram_matrix(c, h, k: int, mode: str = "exact") -> GramMatrix:
    """Level-k Gram matrix in the reverse-lexicographic monomial basis."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return GramMatrix(_module(as_fraction(c), as_fraction(h)).gram(k, mode).copy())


def gram_entry_direct(c, h, lam: tuple, mu: tuple) -> Fraction:
    """Independent route to one Gram entry: adjoint word applied step by step.

    <L_{-l1}...L_{-lj} Phi, m_mu> is the coefficient of Phi in
    L_{lj} ... L_{l1} m_mu.  The vector is a dict from word to coefficient,
    and L_{l1} is applied first, one act per word, each coefficient
    evaluated at (c, h); words pushed below level 0 annihilate.  Used as
    an oracle against gram_matrix.
    """
    module = _module(as_fraction(c), as_fraction(h))
    vec = {tuple(mu): _ONE}
    for part in lam:
        out: dict = {}
        for word, a in vec.items():
            for w, *abc in _entries(module.act(part, word)):
                out[w] = out.get(w, 0) + a * module.coeff(*abc)
        vec = out
    return vec.get((), Fraction(0))


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
    in per-level orthonormal bases, so a float rep carries no norms
    (basis_norms is None).  In exact mode blocks are Fraction object
    arrays in per-level orthogonal bases whose norms squared are
    basis_norms[k] (the D-basis); orthonormal_block derives the float
    orthonormal matrix.  basis names the per-level basis: "quotient" for
    the truncated_rep quotient, "monomial" for the raw module action that
    monomial_action builds, which has no inner product, "tensor" for the
    pairing of factor bases made by tensor_rep.  A float rep holds c and
    h as floats, whatever it is given.  norm_memo is the float block
    norms of the point's _Module, which truncated_rep shares with every
    float rep it builds there (see block_norm); it takes no part in
    equality, and it holds every float block of the point that has been
    built, so a rep that outlives the point's memo keeps those blocks
    alive.
    """

    c: Scalar
    h: Scalar
    N: int
    mode: str
    level_dims: tuple[int, ...]
    blocks: dict
    basis_norms: Optional[tuple]
    basis: str = "quotient"
    norm_memo: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode == "float":
            object.__setattr__(self, "c", float(self.c))
            object.__setattr__(self, "h", float(self.h))

    def dim(self, k: int) -> int:
        return self.level_dims[k] if 0 <= k <= self.N else 0

    def block(self, n: int, k: int) -> Optional[np.ndarray]:
        return self.blocks.get((n, k))

    def norms(self, k: int) -> Optional[tuple]:
        """Level k's basis norms squared; None in float mode, whose bases
        are orthonormal."""
        if self.basis == "monomial":
            raise ValueError("monomial-basis action carries no inner product data")
        return None if self.basis_norms is None else self.basis_norms[k]

    def orthonormal_block(self, n: int, k: int) -> Optional[np.ndarray]:
        if self.basis == "monomial":
            raise ValueError("monomial-basis action has no orthonormal structure")
        blk = self.block(n, k)
        if blk is None:
            return None
        if self.mode == "float":
            return blk
        num = to_float(blk)
        s_dst = np.sqrt([float(x) for x in self.basis_norms[k - n]])
        s_src = np.sqrt([float(x) for x in self.basis_norms[k]])
        return (s_dst[:, None] * num) / s_src[None, :]

    def block_norm(self, n: int, k: int) -> float:
        """opnorm of orthonormal_block(n, k).

        A float quotient block of truncated_rep takes its norm once per
        point: norm_memo pairs each block of the point's memo with its norm,
        and the norm is reused only while this rep's block is that very
        object.  Any other block, e.g. one that dataclasses.replace swapped
        in, and every exact block, takes a fresh norm on each call.
        """
        blk = self.orthonormal_block(n, k)
        slot = (self.norm_memo or {}).get((n, k))
        if slot is None or slot[0] is not blk:
            return opnorm(blk)
        if slot[1] is None:
            slot = self.norm_memo[n, k] = (blk, opnorm(blk))
        return slot[1]

    def total_dim(self) -> int:
        return sum(self.level_dims)


def truncated_rep(c, h, N: int, mode: str = "exact") -> TruncatedRep:
    """Build the unitary quotient for (c, h) at cutoff N.

    Each level is quotiented by its Gram kernel, and the rep carries the
    inner-product data.  Its levels and read-only blocks are those of the
    point's _Module, shared with every build there.  NonUnitaryError is
    raised when the Gram matrix is indefinite (the orthonormalization is
    refused rather than faked).
    Float mode decides rank and unitarity at the fixed relative tolerance
    _FLOAT_TOL = 1e-10 on the diagonally scaled Gram, and raises
    FloatRangeError when its Gram or quotient leaves the float64 range (an
    overflowed Gram would otherwise read as null states or stop eigh from
    converging).
    """
    if N < 2:
        raise ValueError("truncation level N must be at least 2")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    cv, hv = as_fraction(c), as_fraction(h)
    module = _module(cv, hv)
    try:
        # exact levels do no float arithmetic: only float mode can raise here
        with np.errstate(over="raise", invalid="raise"):
            levels = [module.level(k, mode) for k in range(N + 1)]
    except (FloatingPointError, OverflowError) as exc:
        raise FloatRangeError(f"float mode overflows float64 at this (c, h), N={N} "
                              f"({exc}); exact mode has no such limit") from exc
    return TruncatedRep(c=cv, h=hv, N=N, mode=mode,
                        level_dims=tuple(basis.shape[0] for _, basis, _ in levels),
                        blocks={(n, k): module.block(n, k, mode) for n, k in block_keys(N)},
                        basis_norms=None if mode == "float" else tuple(d for d, _, _ in levels),
                        norm_memo=module.norms if mode == "float" else None)


def monomial_action(c, h, N: int, mode: str = "exact") -> TruncatedRep:
    """The raw module action on the full monomial basis, cut at level N: for
    algebra checks outside the unitary range, where truncated_rep refuses.
    It carries no inner product."""
    if N < 2:
        raise ValueError("truncation level N must be at least 2")
    return TruncatedRep(c=as_fraction(c), h=as_fraction(h), N=N, mode=mode,
                        level_dims=tuple(partition_count(k) for k in range(N + 1)),
                        blocks={(n, k): monomial_block(n, k, c, h, mode)
                                for n, k in block_keys(N)},
                        basis_norms=None, basis="monomial")


# ---------------------------------------------------------------------------
# algebra checks

def _sweep_cells(rep: TruncatedRep, max_mode: int) -> list[tuple[int, int, int]]:
    """The (m, n, k) with m < n, |m|,|n| <= max_mode and a nonempty
    residual whose both orders stay inside the truncation (levels k,
    k - n, k - m and k - m - n all lie in [0, N]), in report order."""
    return [(m, n, k) for m in range(-max_mode, max_mode + 1)
            for n in range(m + 1, max_mode + 1) for k in range(rep.N + 1)
            if all(0 <= level <= rep.N for level in (k - n, k - m, k - m - n))
            and rep.dim(k) and rep.dim(k - m - n)]


def _relation_residuals(rep: TruncatedRep, cells: list) -> list[Residual]:
    """The Residual of [L_m, L_n] - (m-n) L_{m+n} - central on level k, for
    each cell (m, n, k) of _sweep_cells.

    The central term is taken from the label rep.c, not read off the
    blocks, so blocks built at another central charge leave a residual
    (the CLI's injected fault builds at 12c/13 and labels the result c).
    The mode supplies the factors and the reduction.  A float rep's
    blocks multiply through np.dot and reduce with Residual.of.  An exact
    rep's residual is an IntegerForm, with no Fraction per entry, reduced
    by IntegerForm.residual: each block is integerized at most twice, on
    first use, by rows as a product's left factor or the L_{m+n} term, by
    columns as a right factor, and the forms live until the sweep returns.
    """
    if rep.mode == "exact":
        rows = cache(lambda key: IntegerForm.by_rows(rep.blocks[key]))
        cols = cache(lambda key: IntegerForm.by_cols(rep.blocks[key]))
        dot, identity, reduce = IntegerForm.__matmul__, IntegerForm.identity, IntegerForm.residual
    else:
        rows = cols = rep.blocks.__getitem__
        dot, identity, reduce = np.dot, np.eye, Residual.of
    out = []
    for m, n, k in cells:
        res = (dot(rows((m, k - n)), cols((n, k))) - dot(rows((n, k - m)), cols((m, k)))
               - rows((m + n, k)) * (m - n))
        if m + n == 0:
            central = rep.c * (m ** 3 - m) / 12
            if central != 0:
                res = res - identity(rep.dim(k)) * central
        out.append(reduce(res))
    return out


def relation_residual_summary(rep: TruncatedRep, max_mode: int = 3) -> dict:
    """Sweep the pairs m < n with |m|,|n| <= max_mode over their safe windows.

    The residual of (n, m) is the exact negation of that of (m, n), in
    both arithmetics: its two products are those of (m, n) swapped, its
    L_{m+n} coefficient and its central term are negated, the safe
    windows of the two orders are one set, and IEEE subtraction and
    scaling commute with negation.  The residual of (m, m) is a product
    minus itself, and its central term vanishes.  So the unordered pairs
    give the max_abs and exact_zero of the full sweep over all (m, n).

    Each cell is reduced by _relation_residuals: in exact mode exact_zero
    is read from integer numerators, and a cell's max_abs comes from
    floats of its nonzero entries only, each the correctly rounded exact
    quotient, so every cell reports Residual.of's bits.

    Returns {"max_abs": float, "exact_zero": bool}.
    """
    total = Residual()
    for residual in _relation_residuals(rep, _sweep_cells(rep, max_mode)):
        total |= residual
    return {"max_abs": total.max_abs, "exact_zero": rep.mode == "exact" and total.zero}


def residual_verdict(mode: str, exact_zero: Optional[bool], max_abs: float,
                     nonzero: str = "nonzero") -> tuple[bool, str]:
    """Whether a residual of a rep in `mode` passes, and the text that
    reports it.

    Exact mode passes when every entry is zero ("exact zero", else
    `nonzero` and the max); float mode when max_abs is within
    FLOAT_RESIDUAL_TOL, NaN failing ("max abs ... (tolerance ...)").
    """
    if mode == "exact":
        return bool(exact_zero), ("exact zero" if exact_zero
                                  else f"{nonzero}, max {max_abs:.3e}")
    return (max_abs <= FLOAT_RESIDUAL_TOL,
            f"max abs {max_abs:.3e} (tolerance {FLOAT_RESIDUAL_TOL:g})")


def relation_verdict(rep: TruncatedRep) -> tuple[dict, bool, str]:
    """The |m|,|n|<=3 bracket-relation sweep of rep (relation_residual_summary),
    its residual_verdict, and the line that reports them."""
    summary = relation_residual_summary(rep, 3)
    ok, text = residual_verdict(rep.mode, summary["exact_zero"], summary["max_abs"],
                                nonzero="nonzero rational")
    return summary, ok, f"bracket relations |m|,|n|<=3: {text}"


def adjointness_verdict(rep: TruncatedRep) -> tuple[bool, str]:
    """Whether every block (-n, k - n) of rep is the adjoint of block (n, k)
    in the rep's inner product, by residual_verdict, and the line that
    reports it.  A rescaled level keeps the bracket relations (it is a
    similarity) but breaks this."""
    total = Residual()
    for (n, k), blk in rep.blocks.items():
        if n > 0:
            total |= adjoint_residual(blk, rep.blocks[-n, k - n], rep.norms(k - n),
                                      rep.norms(k), 1, 1)
    ok, text = residual_verdict(rep.mode, total.zero, total.max_abs)
    return ok, f"adjointness L_-n = L_n^*: {text}"


def rep_verdict(rep: TruncatedRep) -> tuple[dict, bool, list[str]]:
    """The trust gate of a quotient-basis rep: its relation summary, whether
    relation_verdict and adjointness_verdict both pass, and the relations
    line, then the adjointness line if that fails."""
    summary, relations_ok, relations_line = relation_verdict(rep)
    adjoint_ok, adjoint_line = adjointness_verdict(rep)
    return (summary, relations_ok and adjoint_ok,
            [relations_line] + ([] if adjoint_ok else [adjoint_line]))


def measure_central_charge(rep: TruncatedRep) -> Scalar:
    """2 (<Omega, [L_2, L_{-2}] Omega> - 4h) read off the rep's matrices."""
    if rep.N < 2 or rep.dim(0) != 1:
        raise ValueError("need N >= 2 and a one-dimensional level 0")
    lower = rep.block(-2, 0)
    raise_back = rep.block(2, 2)
    val = np.dot(raise_back, lower)[0, 0]
    # L_{-2} L_2 Omega vanishes: L_2 maps level 0 below the module
    return 2 * (val - 4 * rep.h)


_TENSOR_DIM_CAP = 20000  # states summed over levels


def tensor_rep(a: TruncatedRep, b: TruncatedRep, N: int) -> TruncatedRep:
    """Graded tensor product with L_n = L_n (x) 1 + 1 (x) L_n, cut at total level N.

    Basis at level K: pairs (level ka block of a) x (level K - ka of b),
    ka ascending; in exact mode norms squared multiply (float bases stay
    orthonormal), and the result is labelled basis="tensor".  Central
    charge adds.
    """
    if a.mode != b.mode:
        raise ValueError("tensor factors must share the arithmetic mode")
    if N > a.N or N > b.N:
        raise ValueError("factors must be truncated at least at N")
    if "monomial" in (a.basis, b.basis):
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
    norms = None
    if mode == "exact":
        norms = tuple(tuple(x * y for ka in range(K + 1)
                            for x in a.norms(ka) for y in b.norms(K - ka))
                      for K in range(N + 1))
    return TruncatedRep(
        c=a.c + b.c,
        h=a.h + b.h,
        N=N,
        mode=mode,
        level_dims=tuple(dims),
        blocks=blocks,
        basis_norms=norms,
        basis="tensor",
    )

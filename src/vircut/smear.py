"""Truncated smeared operators T(f) = Sum_n f_hat(n) L_n and their identities.

A smeared operator on a truncated representation is stored factored: the
(dst, src) block is f_hat(n) times the rep's L_n block from level src,
n = src - dst being the one mode that maps src into dst, and smear keeps
the pair (block, f_hat(n)) for each, one pass over the rep's block set
that forms no entry.  Readers that need entries (apply, commutator
realization) form the products.  For real fields the full truncated matrix
is hermitian with respect to the representation's inner product: each
mode pair (n, -n) is either kept or dropped together by the level
cutoff, so no boundary correction is needed.  Smearing records the
weighted coefficient mass its cutoff discards (truncation_bias) and
leaves judging it to the caller.  Hermiticity is one check in both
arithmetic modes (rational.adjoint_residual, over the integers in exact
mode, with the coefficients factored out of the block pair): an exact
block pair is weighted by the D-basis norms, a float rep's bases are
orthonormal and carry no weights, and each unordered pair of levels is
checked once, since the residual of the reverse pair is the negated
adjoint of the first.

heat_identity_residual checks R_{n,eps} = [L_n, e^{-eps L0}].  Since
e^{-eps L0} is a scalar on each level, R_{n,eps} restricted to level k is
exactly (e^{-eps(h+k)} - e^{-eps(h+k-n)}) L_n, the form bounds.estimate_q
sweeps.  The check forms R as the literal difference of the two products,
in extended precision: the subtraction cancels catastrophically for small
eps (relative error ~ 2u/(eps m) in double), and the point is to confirm
the factored form against an honestly computed commutator.

Everything is pure; matrices are never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from .fields import (FourierField, PiecewiseMobiusField, bracket_with_cocycle,
                     norm_three_halves, truncated_fourier)
from .rational import CFrac, Residual, adjoint_residual, as_fraction, eye, opnorm, zeros
from .verma import TruncatedRep

GradedVector = Mapping[int, np.ndarray]


@dataclass(frozen=True)
class SmearedOperator:
    """T(f) on a truncated representation, kept factored.

    factors[(dst, src)] is (B, a): B is the rep's L_n block from level
    src, n = src - dst, and a = f_hat(n) its coefficient (a CFrac in exact
    mode, a complex in float mode).  The block of T(f) is a B; blocks and
    apply form it for the readers that need entries (the vacuum norm,
    commutator realization), and hermiticity reads the factors, so in
    exact mode no CFrac entry is formed for it.
    """

    rep: TruncatedRep
    factors: Mapping[tuple[int, int], tuple[np.ndarray, Union[CFrac, complex]]]
    truncation_bias: float  # weighted coefficient mass beyond the cutoff

    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """Every block of T(f), formed once."""
        return {key: blk * a for key, (blk, a) in self.factors.items()}

    def apply(self, vec: GradedVector) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for (dst, src), (blk, a) in self.factors.items():
            if src not in vec:
                continue
            piece = (blk * a).dot(vec[src])
            out[dst] = out[dst] + piece if dst in out else piece
        return out


def smear(rep: TruncatedRep, field, cutoff: Optional[int] = None) -> SmearedOperator:
    """Pair each rep block with its coefficient, up to the cutoff (default:
    the rep's N).  No entry of T(f) is formed here.

    Exact-mode representations only accept exact fields; float-mode ones
    take anything.  The weighted coefficient mass beyond the cutoff is
    recorded as truncation_bias; judging it is left to the caller.
    """
    if cutoff is None:
        cutoff = rep.N
    if cutoff > rep.N:
        raise ValueError(f"cutoff {cutoff} exceeds truncation level {rep.N}")
    if isinstance(field, PiecewiseMobiusField):
        table = truncated_fourier(field, cutoff)
    elif isinstance(field, FourierField):
        table = field
    else:
        raise TypeError(f"unsupported field type {type(field).__name__}")
    bias = norm_three_halves(field, cutoff).tail_bound

    exact = rep.mode == "exact"
    if exact and not table.is_exact:
        raise TypeError("exact representation needs an exact field")
    factors = {}
    for (n, src), blk in rep.blocks.items():
        a = table.coefficients.get(n)
        if a is None or abs(n) > cutoff or blk.size == 0:
            continue
        factors[(src - n, src)] = (blk, a if exact else complex(a))
    return SmearedOperator(rep, factors, bias)


def hermiticity_residual(op: SmearedOperator) -> Residual:
    """Deviation of T from its adjoint in the representation inner product.

    Zero (exactly, in rational mode) for real fields; the zero verdict
    is the exact one only in exact mode.  The adjoint condition is
    weighted by the basis norms: the residual of the (dst, src) block aA
    and the reverse block bB (A, B rep blocks, a, b their coefficients)
    is R = a D_dst A - conj(b B)^T D_src, D_k being the diagonal of
    squared norms at level k (the identity in float mode, whose bases are
    orthonormal, so there it is aA - conj(bB)^T).  A missing block is a
    zero block with coefficient 0.

    The residual of (src, dst) is -conj(R)^T, in both arithmetics: its two
    terms are those of R conjugated, transposed and swapped, and
    conjugation, scaling by the real D_k and IEEE subtraction are exact
    under negation.  So each unordered pair of levels is checked once and
    gives the max_abs and zero verdict of the sweep over both orders.
    rational.adjoint_residual reduces each pair from the factors: in exact
    mode it forms R's numerators over the integers, with the coefficients
    factored out, and a float only for a nonzero entry, so max_abs is the
    float of each exact entry of R.
    """
    rep = op.rep
    # raises for bases without inner product data; None for a float rep
    norms = [rep.norms(k) for k in range(rep.N + 1)]
    total = Residual()
    for dst, src in {(min(key), max(key)) for key in op.factors}:
        a, sa = op.factors.get((dst, src), (zeros((rep.dim(dst), rep.dim(src)), rep.mode), 0))
        b, sb = op.factors.get((src, dst), (zeros((rep.dim(src), rep.dim(dst)), rep.mode), 0))
        total |= adjoint_residual(a, b, norms[dst], norms[src], sa, sb)
    return total


def vector_norm_squared(rep: TruncatedRep, vec: GradedVector
                        ) -> Union[Fraction, float]:
    """Squared norm of a graded vector in the rep's inner product: weighted
    by the D-basis norms in exact mode, plain in float mode, whose bases
    are orthonormal."""
    rep.norms(0)  # raises for bases without inner product data
    if rep.mode == "exact":
        total = Fraction(0)
        for k, v in vec.items():
            d = rep.norms(k)
            for i, x in enumerate(np.asarray(v).ravel()):
                x = x if isinstance(x, CFrac) else CFrac.of(x)
                total += d[i] * x.abs_squared()
        return total
    return float(sum(np.vdot(v, v).real for v in vec.values()))


def vacuum_norm(field, c, cutoff: Optional[int] = None) -> Union[Fraction, float]:
    """Closed form ||T(f) vacuum||^2 = (c/12) Sum_{m>=2} |f_hat(-m)|^2 (m^3 - m).

    Only lowering modes contribute: L_{-1} and L_0 kill the vacuum and the
    positive modes annihilate it.  Exact (Fraction) when the field and c
    are exact, float otherwise; a cutoff restricts to 2 <= m <= cutoff.
    """
    if isinstance(field, PiecewiseMobiusField):
        if cutoff is None:
            raise ValueError("the piecewise field needs an explicit cutoff")
        ms = np.arange(2, cutoff + 1)
        mags = np.abs(field.coefficient_closed(-ms))
        msf = ms.astype(np.float64)
        return float(c) / 12.0 * float(np.sum(mags**2 * (msf**3 - msf)))
    if not isinstance(field, FourierField):
        raise TypeError(f"unsupported field type {type(field).__name__}")
    exact = field.is_exact and not isinstance(c, float)
    total: Union[Fraction, float] = Fraction(0) if exact else 0.0
    for n, a in field.coefficients.items():
        m = -n
        if m < 2 or (cutoff is not None and m > cutoff):
            continue
        if exact:
            total += a.abs_squared() * Fraction(m**3 - m, 12)
        else:
            total += abs(complex(a))**2 * (m**3 - m) / 12.0
    return as_fraction(c) * total if exact else float(c) * total


def vacuum_norm_from_rep(op: SmearedOperator) -> Union[Fraction, float]:
    """||T(f) vacuum||^2 computed from the smeared matrix blocks."""
    rep = op.rep
    if rep.h != 0:
        raise ValueError("vacuum norm needs a vacuum module (h = 0)")
    if rep.mode == "exact":
        vac = np.array([CFrac(1)], dtype=object)
    else:
        vac = np.array([1.0 + 0j])
    return vector_norm_squared(rep, op.apply({0: vac}))


def vacuum_norm_agreement(closed, matrix) -> tuple[Union[Fraction, float], bool]:
    """The difference of the closed-form and matrix vacuum norms, and
    whether they agree: exactly when both are Fractions, else when
    |closed - matrix| <= 1e-8."""
    if isinstance(closed, Fraction) and isinstance(matrix, Fraction):
        return closed - matrix, closed == matrix
    diff = abs(float(closed) - float(matrix))
    return diff, diff <= 1e-8


def heat_identity_residual(rep: TruncatedRep, n: int, eps: float) -> float:
    """Worst relative deviation of ||R restricted to level k|| from
    |f_m(eps)| ||L_n restricted to level k|| over all levels, R being
    e_src B - e_dst B in longdouble for the orthonormal block B of L_n.
    ||L_n|| is rep.block_norm's, the one the bound estimates read; the
    norm of R is taken afresh.  NaN if a block has a non-finite entry."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(n) > rep.N:
        raise ValueError(f"|n| = {abs(n)} exceeds truncation level {rep.N}")
    h = float(rep.h)
    worst = 0.0
    for src in range(max(0, n), min(rep.N, rep.N + n) + 1):
        dst = src - n
        b = rep.orthonormal_block(n, src)
        e_src = np.exp(np.longdouble(-eps) * np.longdouble(h + src))
        e_dst = np.exp(np.longdouble(-eps) * np.longdouble(h + dst))
        bl = np.asarray(b, dtype=np.longdouble)
        base = rep.block_norm(n, src) * abs(float(e_src - e_dst))
        got = opnorm(e_src * bl - e_dst * bl)
        if math.isnan(got):
            return got  # max would drop it
        if base == 0.0:
            worst = max(worst, got)
        else:
            worst = max(worst, abs(got - base) / base)
    return worst


def fm_sup(k: float, m: int) -> tuple[float, float]:
    """Maximum of f_m(eps) = e^{-eps k} - e^{-eps(k+m)} over eps > 0.

    Returns (eps_max, sup^2).  Setting the derivative to zero gives
    eps_max = ln((k+m)/k)/m and sup^2 = (k/(k+m))^{2k/m} (m/(k+m))^2;
    for k = 0 the function increases to 1, so eps_max is infinite and
    the squared supremum is (m/(k+m))^2 = 1.  For the smallest subnormal
    k the ratio k/(k+m) underflows to 0 while its power tends to 1, and
    (k+m)/k overflows while its logarithm stays finite, so there both are
    taken in log space.  Elsewhere the direct forms are used: log k -
    log(k+m) cancels for k >> m, and in log space the power would be ten
    times less accurate.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return math.inf, 1.0
    growth = (k + m) / k
    if math.isinf(growth):
        eps_max = (math.log(k + m) - math.log(k)) / m
    else:
        eps_max = math.log(growth) / m
    ratio = k / (k + m)
    if ratio > 0.0:
        power = ratio ** (2.0 * k / m)
    else:
        power = math.exp(2.0 * k / m * (math.log(k) - math.log(k + m)))
    sup_sq = power * (m / (k + m)) ** 2
    return eps_max, sup_sq


def lemma_recursion_checks(rep: TruncatedRep) -> dict:
    """Vacuum-sector recursion facts used by the uniqueness argument.

    (a) the level-2 space is one-dimensional and spanned by L_{-2} vacuum;
    (b) L_{-1} L_{-n} vacuum = (n-1) L_{-n-1} vacuum for 2 <= n < N;
    (c) a second-representation datum differing by a scalar zeta = 5/3 at
        level 2 propagates to zeta at every level via (b)'s recursion.
    """
    if rep.h != 0:
        raise ValueError("recursion checks need a vacuum module")
    if rep.N < 3:
        raise ValueError("need N >= 3")
    exact = rep.mode == "exact"

    v2 = rep.block(-2, 0)
    dim_ok = rep.dim(2) == 1 and v2 is not None and np.any(v2 != 0)

    recursion = Residual()
    for n in range(2, rep.N):
        lhs = rep.block(-1, n).dot(rep.block(-n, 0))
        rhs = rep.block(-n - 1, 0) * (n - 1)
        recursion |= Residual.of(lhs - rhs)

    zeta = Fraction(5, 3)
    zeta_s = zeta if exact else float(zeta)
    tilde = v2 * zeta_s
    propagation = Residual()
    for n in range(2, rep.N):
        tilde = rep.block(-1, n).dot(tilde) * (Fraction(1, n - 1) if exact
                                               else 1.0 / (n - 1))
        expected = rep.block(-n - 1, 0) * zeta_s
        propagation |= Residual.of(tilde - expected)

    return {
        "level2_dimension_one": bool(dim_ok),
        "recursion_max_abs": recursion.max_abs,
        "recursion_exact": exact and recursion.zero,
        "zeta": str(zeta),
        "propagation_max_abs": propagation.max_abs,
        "propagation_exact": exact and propagation.zero,
    }


def pair_safe_levels(rep: TruncatedRep, f: FourierField, g: FourierField
                     ) -> tuple[int, ...]:
    """Levels where the composite T(f) T(g) (either order) loses nothing.

    A downward partial energy is annihilated identically on both sides of
    any identity, so only the upper cutoff matters: every intermediate
    level reachable by one raising step must stay within the truncation.
    """
    lows = [min(f.support, default=0), min(g.support, default=0)]
    top = rep.N + min(lows + [0])
    return tuple(k for k in range(0, top + 1))


def commutator_residual(rep: TruncatedRep, f: FourierField, g: FourierField
                        ) -> dict:
    """Residual of [T(f), T(g)] = T(h) + omega on the joint safe window.

    h and omega come from the Fourier-side bracket; the identity is exact
    in rational mode.  Requires the bracket's support to fit inside the
    truncation so that T(h) is itself assembled without loss.
    """
    h, omega = bracket_with_cocycle(f, g, rep.c)
    if h.support and max(abs(n) for n in h.support) > rep.N:
        raise ValueError("bracket support exceeds the truncation level")
    t_f = smear(rep, f).blocks()
    t_g = smear(rep, g).blocks()
    t_h = smear(rep, h).blocks()
    exact = rep.mode == "exact"
    window = pair_safe_levels(rep, f, g)

    worst = Residual()
    checked = 0
    for k in window:
        if rep.dim(k) == 0:
            continue
        for dst in range(rep.N + 1):
            if rep.dim(dst) == 0:
                continue
            total = zeros((rep.dim(dst), rep.dim(k)), rep.mode)
            for mid in range(rep.N + 1):
                a, b = t_f.get((dst, mid)), t_g.get((mid, k))
                if a is not None and b is not None:
                    total = total + a.dot(b)
                a, b = t_g.get((dst, mid)), t_f.get((mid, k))
                if a is not None and b is not None:
                    total = total - a.dot(b)
            if (dst, k) in t_h:
                total = total - t_h[(dst, k)]
            if dst == k:
                total = total - eye(rep.dim(k), rep.mode) * omega
            checked += 1
            worst |= Residual.of(total)
    return {"max_abs": worst.max_abs, "exact_zero": exact and worst.zero,
            "window": window, "cells": checked, "omega": str(omega)}


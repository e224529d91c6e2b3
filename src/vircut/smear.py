"""Truncated smeared operators T(f) = Sum_n f_hat(n) L_n and their identities.

A smeared operator on a truncated representation is stored blockwise: the
(dst, src) block collects every mode n = src - dst of the field whose
generator maps level src into level dst.  For real fields the full
truncated matrix is hermitian with respect to the representation's inner
product: each mode pair (n, -n) is either kept or dropped together by the
level cutoff, so no boundary correction is needed.

The heat-commutator machinery realizes R_{n,eps} = [L_n, e^{-eps L0}].
Since e^{-eps L0} is a scalar on each level, R_{n,eps} restricted to level
k is exactly (e^{-eps(h+k)} - e^{-eps(h+k-n)}) L_n.  The blocks here are
nevertheless built as the literal difference of the two products, in
extended precision: the subtraction cancels catastrophically for small
eps (relative error ~ 2u/(eps m) in double), and the point of the check
is to confirm the factored form against an honestly computed commutator.

Everything is pure; matrices are never mutated after construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from .fields import (FourierField, PiecewiseMobiusField, bracket_with_cocycle,
                     build_piecewise_mobius, evaluate, mobius_piece,
                     norm_three_halves, truncated_fourier, _corner_index)
from .rational import CFrac, as_fraction, object_eye
from .verma import TruncatedRep

GradedVector = Mapping[int, np.ndarray]


class TruncationBiasWarning(UserWarning):
    """The field carries weighted coefficient mass beyond the smearing cutoff."""


@dataclass(frozen=True)
class SmearedOperator:
    """Blockwise matrix of T(f) on a truncated representation."""

    rep: TruncatedRep
    cutoff: int
    field_support: tuple[int, ...]
    blocks: Mapping[tuple[int, int], np.ndarray]
    truncation_bias: Optional[float]

    def block(self, dst: int, src: int) -> Optional[np.ndarray]:
        return self.blocks.get((dst, src))

    def apply(self, vec: GradedVector) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for (dst, src), blk in self.blocks.items():
            if src not in vec:
                continue
            piece = blk.dot(vec[src])
            out[dst] = out[dst] + piece if dst in out else piece
        return out


def smear(rep: TruncatedRep, field, cutoff: Optional[int] = None,
          bias_tol: float = 1e-8) -> SmearedOperator:
    """Assemble T(f) blockwise up to the cutoff (default: the rep's N).

    Exact-mode representations only accept exact fields; float-mode ones
    take anything.  A TruncationBiasWarning fires when the weighted
    coefficient mass beyond the cutoff exceeds bias_tol.
    """
    if cutoff is None:
        cutoff = rep.N
    if cutoff > rep.N:
        raise ValueError(f"cutoff {cutoff} exceeds truncation level {rep.N}")
    if isinstance(field, PiecewiseMobiusField):
        table = truncated_fourier(field, cutoff)
        bias = norm_three_halves(field, cutoff).tail_bound
        support = table.support
    elif isinstance(field, FourierField):
        table = field
        report = norm_three_halves(field, cutoff)
        bias = report.tail_bound
        support = field.support
    else:
        raise TypeError(f"unsupported field type {type(field).__name__}")
    if bias and bias > bias_tol:
        warnings.warn(
            f"smearing cutoff {cutoff} discards weighted coefficient mass "
            f"~{bias:.3e} (tolerance {bias_tol:.1e})", TruncationBiasWarning)

    exact = rep.mode == "exact"
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for n, a in table.coefficients.items():
        if abs(n) > cutoff:
            continue
        if exact:
            if not isinstance(a, CFrac):
                raise TypeError("exact representation needs an exact field")
            scalar = a
        else:
            scalar = complex(a)
        for src in range(rep.N + 1):
            dst = src - n
            if not 0 <= dst <= rep.N:
                continue
            blk = rep.block(n, src)
            if blk is None or blk.size == 0:
                continue
            term = blk * scalar
            key = (dst, src)
            blocks[key] = blocks[key] + term if key in blocks else term
    return SmearedOperator(rep, cutoff, support, blocks, bias)


@dataclass(frozen=True)
class HermiticityReport:
    max_abs: float
    exact_zero: Optional[bool]  # None in float mode


def hermiticity_residual(op: SmearedOperator) -> HermiticityReport:
    """Deviation of T from its adjoint in the representation inner product.

    Zero (exactly, in rational mode) for real fields.  In the exact
    diagonal basis the adjoint condition is weighted by the basis norms:
    D_dst[i] T[i,j] == conj(T'[j,i]) D_src[j] for the reverse block T'.
    """
    rep = op.rep
    exact = rep.mode == "exact"
    rep.norms(0)  # raises for bases without inner product data
    worst = 0.0
    exact_zero = True if exact else None
    seen = set(op.blocks) | {(s, d) for (d, s) in op.blocks}
    for dst, src in seen:
        a = op.block(dst, src)
        b = op.block(src, dst)
        if a is None and b is None:
            continue
        shape = a.shape if a is not None else (b.shape[1], b.shape[0])
        if exact:
            d_dst, d_src = rep.norms(dst), rep.norms(src)
            for i in range(shape[0]):
                for j in range(shape[1]):
                    lhs = (a[i, j] if a is not None else 0) * d_dst[i]
                    rhs_val = b[j, i] if b is not None else CFrac(0)
                    rhs_val = rhs_val if isinstance(rhs_val, CFrac) else CFrac.of(rhs_val)
                    rhs = rhs_val.conjugate() * d_src[j]
                    diff = lhs - rhs
                    if diff:
                        exact_zero = False
                        worst = max(worst, abs(complex(diff)))
        else:
            am = a if a is not None else np.zeros(shape, dtype=complex)
            bm = b if b is not None else np.zeros((shape[1], shape[0]), dtype=complex)
            res = am - bm.conj().T
            if res.size:
                worst = max(worst, float(np.max(np.abs(res))))
    return HermiticityReport(worst, exact_zero)


def vector_norm_squared(rep: TruncatedRep, vec: GradedVector
                        ) -> Union[Fraction, float]:
    """Squared norm of a graded vector in the rep's inner product."""
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
    c_val = getattr(c, "value", c)
    if isinstance(field, PiecewiseMobiusField):
        if cutoff is None:
            raise ValueError("the piecewise field needs an explicit cutoff")
        ms = np.arange(2, cutoff + 1)
        mags = field.coefficient_abs_array(-ms)
        msf = ms.astype(np.float64)
        return float(c_val) / 12.0 * float(np.sum(mags**2 * (msf**3 - msf)))
    if not isinstance(field, FourierField):
        raise TypeError(f"unsupported field type {type(field).__name__}")
    exact = field.is_exact and not isinstance(c_val, float)
    total: Union[Fraction, float] = Fraction(0) if exact else 0.0
    for n, a in field.coefficients.items():
        m = -n
        if m < 2 or (cutoff is not None and m > cutoff):
            continue
        if exact:
            total += a.abs_squared() * Fraction(m**3 - m, 12)
        else:
            total += abs(complex(a))**2 * (m**3 - m) / 12.0
    return as_fraction(c_val) * total if exact else float(c_val) * total


def vacuum_norm_from_rep(rep: TruncatedRep, field,
                         cutoff: Optional[int] = None) -> Union[Fraction, float]:
    """||T(f) vacuum||^2 computed from the smeared matrix blocks."""
    if rep.h != 0:
        raise ValueError("vacuum norm needs a vacuum module (h = 0)")
    op = smear(rep, field, cutoff, bias_tol=math.inf)
    if rep.mode == "exact":
        vac = np.array([CFrac(1)], dtype=object)
    else:
        vac = np.array([1.0 + 0j])
    return vector_norm_squared(rep, op.apply({0: vac}))


@dataclass(frozen=True)
class HeatCommutator:
    """R_{n,eps} = [L_n, e^{-eps L0}], built levelwise in extended precision."""

    n: int
    eps: float
    levels: tuple[int, ...]
    factors: tuple[float, ...]  # e^{-eps(h+k)} - e^{-eps(h+k-n)} per level
    blocks: Mapping[int, np.ndarray]
    norm: float  # max over levels of the per-level operator norm


def _opnorm(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(np.asarray(mat, dtype=np.float64),
                               compute_uv=False).max())


def heat_commutator(rep: TruncatedRep, n: int, eps: float) -> HeatCommutator:
    """Blockwise commutator with the heat semigroup.

    The per-level block is exp_dst * B - exp_src * B computed as a literal
    difference in longdouble, where B is the orthonormal-basis block of
    L_n; the exact cancellation structure is what downstream checks verify.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(n) > rep.N:
        raise ValueError(f"|n| = {abs(n)} exceeds truncation level {rep.N}")
    h = float(rep.h)
    levels = []
    factors = []
    blocks: dict[int, np.ndarray] = {}
    worst = 0.0
    for src in range(rep.N + 1):
        dst = src - n
        if not 0 <= dst <= rep.N:
            continue
        b = rep.orthonormal_block(n, src)
        if b is None:
            continue
        e_src = np.exp(np.longdouble(-eps) * np.longdouble(h + src))
        e_dst = np.exp(np.longdouble(-eps) * np.longdouble(h + dst))
        bl = np.asarray(b, dtype=np.longdouble)
        r = e_src * bl - e_dst * bl
        levels.append(src)
        factors.append(float(e_src - e_dst))
        blocks[src] = r
        worst = max(worst, _opnorm(r))
    return HeatCommutator(n, eps, tuple(levels), tuple(factors), blocks, worst)


def heat_identity_residual(rep: TruncatedRep, n: int, eps: float) -> float:
    """Worst relative deviation of ||R restricted to level k|| from
    |f_m(eps)| ||L_n restricted to level k|| over all levels."""
    hc = heat_commutator(rep, n, eps)
    worst = 0.0
    for src, f in zip(hc.levels, hc.factors):
        base = _opnorm(rep.orthonormal_block(n, src)) * abs(f)
        got = _opnorm(hc.blocks[src])
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


def decomposition_check(rep: TruncatedRep, corner, samples: int = 1000) -> dict:
    """T(f) = T(f - g_p) + T(g_p) blockwise, plus the support statement.

    The mode supports of f and g_p are disjoint ({n = 2 mod 4} versus
    {-1, 0, 1}), so the blockwise residual vanishes exactly even in float
    arithmetic.  The second part samples f - g_p on the arc from p to ip,
    where it must vanish pointwise.
    """
    if rep.h != 0:
        raise ValueError("decomposition check needs a vacuum module")
    field = build_piecewise_mobius()
    j = _corner_index(corner)
    f_table = truncated_fourier(field, rep.N)
    g_p = mobius_piece(corner)
    diff = f_table - g_p

    op_f = smear(rep, f_table, bias_tol=math.inf)
    op_d = smear(rep, diff, bias_tol=math.inf)
    op_g = smear(rep, g_p, bias_tol=math.inf)
    worst = 0.0
    for key in set(op_f.blocks) | set(op_d.blocks) | set(op_g.blocks):
        shape = next(b.shape for b in (op_f.block(*key), op_d.block(*key),
                                       op_g.block(*key)) if b is not None)
        total = np.zeros(shape, dtype=complex)
        if op_f.block(*key) is not None:
            total += np.asarray(op_f.block(*key), dtype=complex)
        if op_d.block(*key) is not None:
            total -= np.asarray(op_d.block(*key), dtype=complex)
        if op_g.block(*key) is not None:
            total -= np.asarray(op_g.block(*key), dtype=complex)
        if total.size:
            worst = max(worst, float(np.max(np.abs(total))))

    lo = j * math.pi / 2
    arc_res = 0.0
    for t in np.linspace(lo + 1e-6, lo + math.pi / 2 - 1e-6, samples):
        arc_res = max(arc_res, abs(evaluate(field, t) - evaluate(g_p, t)))
    return {"block_residual": worst, "exact_zero": worst == 0.0,
            "arc_residual": float(arc_res), "samples": samples}


def lemma_recursion_checks(rep: TruncatedRep, zeta=Fraction(5, 3)) -> dict:
    """Vacuum-sector recursion facts used by the uniqueness argument.

    (a) the level-2 space is one-dimensional and spanned by L_{-2} vacuum;
    (b) L_{-1} L_{-n} vacuum = (n-1) L_{-n-1} vacuum for 2 <= n < N;
    (c) a second-representation datum differing by a scalar zeta at level 2
        propagates to zeta at every level via (b)'s recursion.
    """
    if rep.h != 0:
        raise ValueError("recursion checks need a vacuum module")
    if rep.N < 3:
        raise ValueError("need N >= 3")
    exact = rep.mode == "exact"

    v2 = rep.block(-2, 0)
    dim_ok = rep.dim(2) == 1 and v2 is not None and np.any(v2 != 0)

    def gap(x) -> float:
        return float(max((abs(complex(e)) for e in np.ravel(x)), default=0.0))

    worst_b = 0.0
    for n in range(2, rep.N):
        lhs = rep.block(-1, n).dot(rep.block(-n, 0))
        rhs = rep.block(-n - 1, 0) * ((n - 1) if exact else float(n - 1))
        worst_b = max(worst_b, gap(lhs - rhs))

    zeta_s = CFrac.of(zeta) if exact else complex(zeta)
    tilde = v2 * zeta_s
    worst_c = 0.0
    for n in range(2, rep.N):
        tilde = rep.block(-1, n).dot(tilde) * (CFrac(Fraction(1, n - 1)) if exact
                                               else 1.0 / (n - 1))
        expected = rep.block(-n - 1, 0) * zeta_s
        worst_c = max(worst_c, gap(tilde - expected))

    return {
        "level2_dimension_one": bool(dim_ok),
        "recursion_max_abs": worst_b,
        "recursion_exact": exact and worst_b == 0.0,
        "zeta": str(zeta),
        "propagation_max_abs": worst_c,
        "propagation_exact": exact and worst_c == 0.0,
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
    op_f = smear(rep, f, bias_tol=math.inf)
    op_g = smear(rep, g, bias_tol=math.inf)
    op_h = smear(rep, h, bias_tol=math.inf)
    exact = rep.mode == "exact"
    window = pair_safe_levels(rep, f, g)

    worst = 0.0
    checked = 0
    for k in window:
        if rep.dim(k) == 0:
            continue
        for dst in range(rep.N + 1):
            if rep.dim(dst) == 0:
                continue
            zero = np.zeros((rep.dim(dst), rep.dim(k)),
                            dtype=object if exact else complex)
            if exact:
                zero = zero + CFrac(0)
            total = zero
            for mid in range(rep.N + 1):
                a, b = op_f.block(dst, mid), op_g.block(mid, k)
                if a is not None and b is not None:
                    total = total + a.dot(b)
                a, b = op_g.block(dst, mid), op_f.block(mid, k)
                if a is not None and b is not None:
                    total = total - a.dot(b)
            if op_h.block(dst, k) is not None:
                total = total - op_h.block(dst, k)
            if dst == k:
                eye = object_eye(rep.dim(k)) if exact else np.eye(rep.dim(k))
                total = total - eye * omega
            checked += 1
            if total.size:
                worst = max(worst, float(max(abs(complex(e))
                                             for e in np.ravel(total))))
    return {"max_abs": worst, "exact_zero": exact and worst == 0.0,
            "window": window, "cells": checked, "omega": str(omega)}


def random_vector(rng: np.random.Generator, rep: TruncatedRep
                  ) -> dict[int, np.ndarray]:
    """Standard normal coordinates in the orthonormal basis, per level."""
    return {k: rng.standard_normal(rep.dim(k))
            for k in range(rep.N + 1) if rep.dim(k) > 0}


def energy_bound_ratio(op: SmearedOperator, field_norm: float,
                       vec: GradedVector) -> float:
    """||T(f) v|| / (||f||_{3/2} ||(1 + L0) v||) for one graded vector."""
    rep = op.rep
    num = math.sqrt(float(vector_norm_squared(rep, op.apply(vec))))
    shifted = {k: v * (1.0 + float(rep.h) + k) for k, v in vec.items()}
    den = field_norm * math.sqrt(float(vector_norm_squared(rep, shifted)))
    return num / den

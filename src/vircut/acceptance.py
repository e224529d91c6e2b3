"""End-to-end acceptance battery.

Ten independent checks, each exercising one load-bearing claim of the
package: algebra relations in both arithmetic modes, spectral facts of
the vacuum representation, the translation recursion, the closed-form
heat-factor supremum, the commutator-bound chain on a large truncation,
the glued Mobius field's corner and decay structure, nonvanishing of
the vacuum one-norm, mollifier convergence in the 3/2 norm, additivity
of the measured central charge under tensoring, and exact commutator
realization on safe windows for random fields.

Each criterion reports pass/fail with a one-line numeric detail; the
CLI's check-all subcommand and tests/test_acceptance.py both run this
module, so a criterion cannot silently diverge between the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from . import bounds, fields, smear, verma


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# Reps are shared across criteria (and with the test fixtures); the key
# is everything the build depends on.
@lru_cache(maxsize=None)
def _rep_cached(c: Fraction, h: Fraction, N: int, mode: str,
                basis: str) -> verma.TruncatedRep:
    return verma.truncated_rep(c, h, N, mode=mode, basis=basis)


def _rep(c, h, N: int, mode: str = "exact", basis: str = "quotient"):
    return _rep_cached(Fraction(c), Fraction(h), N, mode, basis)


C_VALUES = (Fraction(1, 2), Fraction(7, 10), Fraction(1), Fraction(2))
H_VALUES = (Fraction(0), Fraction(1, 2))


# ---------------------------------------------------------------------------
# criteria


def criterion_virasoro_relations() -> tuple[bool, str]:
    """Bracket relations for |m|, |n| <= 3 at N = 8 over the (c, h) grid,
    exactly zero in exact mode and within 1e-10 in float mode."""
    worst_float = 0.0
    fallbacks = []
    ok = True
    for c in C_VALUES:
        for h in H_VALUES:
            for mode in ("exact", "float"):
                basis = "quotient"
                try:
                    rep = _rep(c, h, 8, mode)
                except verma.NonUnitaryError:
                    basis = "monomial"
                    rep = _rep(c, h, 8, mode, basis)
                    if mode == "exact":
                        fallbacks.append(f"c={c},h={h}")
                summary = verma.relation_residual_summary(rep, max_mode=3)
                if mode == "exact":
                    ok = ok and summary["exact_zero"]
                else:
                    worst_float = float(np.maximum(worst_float, summary["max_abs"]))
                    ok = ok and summary["max_abs"] <= verma.FLOAT_RESIDUAL_TOL
    note = f"; monomial basis at {', '.join(fallbacks)}" if fallbacks else ""
    return ok, (f"8 (c,h) points, both modes; exact residuals zero, "
                f"worst float residual {worst_float:.2e}{note}")


def criterion_vacuum_spectrum() -> tuple[bool, str]:
    """Vacuum representation: level 1 is empty and level 2 is a line,
    for every tested central charge."""
    ok = True
    dims = []
    for c in C_VALUES:
        rep = _rep(c, 0, 8)
        ok = ok and rep.dim(1) == 0 and rep.dim(2) == 1
        dims.append(f"c={c}: {list(rep.level_dims[:3])}")
    return ok, "; ".join(dims)


def criterion_translation_recursion() -> tuple[bool, str]:
    """L_{-1} L_{-n} acting on the vacuum equals (n-1) L_{-n-1} exactly,
    n = 2..11 at N = 12, plus the level-2 seed and its propagation."""
    rep = _rep(Fraction(1, 2), 0, 12)
    checks = smear.lemma_recursion_checks(rep)
    ok = (checks["level2_dimension_one"] and checks["recursion_exact"]
          and checks["propagation_exact"])
    return ok, (f"recursion n=2..{rep.N - 1} exact={checks['recursion_exact']}, "
                f"level-2 dim one={checks['level2_dimension_one']}, "
                f"propagation exact={checks['propagation_exact']}")


def _fm_grid_best(k: int, m: int, grid: np.ndarray) -> float:
    vals = (np.exp(-grid * k) - np.exp(-grid * (k + m))) ** 2
    i = int(vals.argmax())
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]

    def neg(e):
        return -((math.exp(-e * k) - math.exp(-e * (k + m))) ** 2)

    res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return max(float(vals[i]), float(-res.fun))


def criterion_heat_sup() -> tuple[bool, str]:
    """Closed-form sup of the heat factor against a bracketed grid search
    for all k <= 50, m <= 50, to relative error 1e-6, plus the uniform
    bound sup^2 <= (m/(k+m))^2."""
    grid = np.logspace(-6, math.log10(60.0), 2000)
    worst_rel = 0.0
    violations = 0
    for k in range(51):
        for m in range(1, 51):
            _, sup_sq = smear.fm_sup(k, m)
            best = _fm_grid_best(k, m, grid)
            worst_rel = max(worst_rel, abs(best - sup_sq) / sup_sq)
            if sup_sq > (m / (k + m)) ** 2 * (1 + 1e-15):
                violations += 1
    ok = worst_rel <= 1e-6 and violations == 0
    return ok, (f"2550 (k,m) cells; worst closed-vs-search relative error "
                f"{worst_rel:.2e}, {violations} bound violations")


HEAT_EPS = (1e-4, 1e-2, 0.5, 3.0, 20.0)


def criterion_commutator_chain() -> tuple[bool, str]:
    """c = 1/2, N = 16 sweep: q_hat <= 3 r_hat^2 from the same build, and
    the per-level heat-difference identity to 1e-12 relative."""
    c, N = Fraction(1, 2), 16
    rep = _rep(c, 0, N, "float")
    r_report = bounds.estimate_r(c, N, rep=rep)
    q_report = bounds.estimate_q(c, N, rep=rep, r_report=r_report)
    chain_ok = bool(q_report.derived["chain_ok"])
    worst = 0.0
    for n in range(-N, N + 1):
        if n == 0:
            continue
        for eps in HEAT_EPS:
            worst = max(worst, smear.heat_identity_residual(rep, n, eps))
    identity_ok = worst <= 1e-12
    ok = (chain_ok and identity_ok and r_report.verdict == "pass"
          and q_report.verdict == "pass")
    return ok, (f"q_hat={q_report.constant:.6f} <= 3 r_hat^2="
                f"{q_report.derived['chain_bound']:.6f}: {chain_ok}; "
                f"worst heat-identity residual {worst:.2e}")


def criterion_piecewise_field() -> tuple[bool, str]:
    """Glued Mobius field: corner values vanish exactly, first derivatives
    match, second-derivative jumps have magnitude 4, modes follow the
    closed form (zero unless n = 2 mod 4) exactly and by quadrature, and
    the decay constant is stable between mode cutoffs 200 and 400."""
    pw = fields.build_piecewise_mobius()
    corner_vals = fields.corner_values(pw)
    corners_ok = all(v == (0, 0) for v in corner_vals.values())
    d1_ok = all(l == r for l, r in
                (fields.one_sided_derivatives(pw, p, 1) for p in fields.CORNERS))
    jumps = [abs(r - l) for l, r in
             (fields.one_sided_derivatives(pw, p, 2) for p in fields.CORNERS)]
    d2_ok = all(j == 4 for j in jumps)

    modes_ok = True
    for n in range(-101, 102):
        a, b = pw.coefficient_exact(n)
        modes_ok = modes_ok and a == pw.closed_form(n) and not b

    quad_worst = 0.0
    ns = (2, -2, 3, 4, 5, 6, 10, 34)
    for n, closed in zip(ns, pw.coefficient_closed(ns)):
        value, _ = fields.fourier_coefficient_quadrature(pw, n)
        quad_worst = max(quad_worst, abs(value - closed))
    quad_ok = quad_worst <= 1e-12

    m200 = bounds.decay_report(pw, 200).constant
    m400 = bounds.decay_report(pw, 400).constant
    stable = abs(m200 - m400) <= 0.05 * m400

    ok = corners_ok and d1_ok and d2_ok and modes_ok and quad_ok and stable
    return ok, (f"corners zero={corners_ok}, d1 match={d1_ok}, d2 jumps"
                f"={[str(j) for j in jumps]}, modes |n|<=101 exact={modes_ok}, "
                f"quadrature worst {quad_worst:.1e}, decay {m200:.6f} vs {m400:.6f}")


def criterion_vacuum_nonvanishing() -> tuple[bool, str]:
    """The vacuum one-norm of the glued field is strictly positive and the
    closed form matches the matrix route to 1e-8 at matched cutoff."""
    pw = fields.build_piecewise_mobius()
    c = Fraction(1, 2)
    rep = _rep(c, 0, 8, "float")
    closed = smear.vacuum_norm(pw, c, cutoff=8)
    matrix = smear.vacuum_norm_from_rep(smear.smear(rep, pw, cutoff=8))
    diff = abs(float(closed) - float(matrix))
    ok = float(closed) > 0 and diff <= 1e-8
    return ok, f"closed {float(closed):.12f}, matrix diff {diff:.2e}"


def criterion_mollifier() -> tuple[bool, str]:
    """Fejer smoothing of the glued field reaches 3/2-norm error below
    1e-3 on the reported ladder, monotonically."""
    pw = fields.build_piecewise_mobius()
    report = bounds.mollifier_report(pw, fields.FEJER, k_max=1 << 26, tol=1e-3)
    last = report.table[-1]
    errors = [row["error"] for row in report.table]
    monotone = all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))
    ok = report.verdict == "pass" and monotone
    return ok, (f"k={last['k']}: error bound {last['error']:.3e} < 1e-3, "
                f"monotone over {len(errors)} rungs: {monotone}")


def criterion_central_charges() -> tuple[bool, str]:
    """Measured central charge is exactly additive under tensoring."""
    a = _rep(Fraction(1, 2), 0, 4)
    b = _rep(Fraction(4, 5), 0, 4)
    both = verma.measure_central_charge(verma.tensor_rep(a, a, 4))
    mixed = verma.measure_central_charge(verma.tensor_rep(a, b, 4))
    ok = both == 1 and mixed == Fraction(13, 10)
    return ok, f"1/2 + 1/2 -> {both}, 1/2 + 4/5 -> {mixed}, both exact"


def criterion_commutator_realization() -> tuple[bool, str]:
    """[T(f), T(g)] = T(h) + omega on safe windows, exactly, for 20 random
    finitely supported real rational fields."""
    rep = _rep(Fraction(1, 2), 0, 8)
    rng = np.random.default_rng(0)
    cells = 0
    ok = True
    for _ in range(20):
        f = fields.random_real_field(rng, max_mode=3, denominator=8)
        g = fields.random_real_field(rng, max_mode=3, denominator=8)
        res = smear.commutator_residual(rep, f, g)
        ok = ok and res["exact_zero"] and len(res["window"]) > 0
        cells += res["cells"]
    return ok, f"20 pairs, {cells} matrix cells, all residuals exactly zero"


CRITERIA = (
    ("virasoro-relations", criterion_virasoro_relations),
    ("vacuum-spectrum", criterion_vacuum_spectrum),
    ("translation-recursion", criterion_translation_recursion),
    ("heat-sup-closed-form", criterion_heat_sup),
    ("commutator-chain", criterion_commutator_chain),
    ("piecewise-field", criterion_piecewise_field),
    ("vacuum-nonvanishing", criterion_vacuum_nonvanishing),
    ("mollifier-convergence", criterion_mollifier),
    ("central-charge-additivity", criterion_central_charges),
    ("commutator-realization", criterion_commutator_realization),
)


def run_criterion(name: str) -> CriterionResult:
    table = dict(CRITERIA)
    fn = table[name]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(name, bool(passed), detail,
                           time.perf_counter() - start)


def run_all() -> list[CriterionResult]:
    return [run_criterion(name) for name, _ in CRITERIA]

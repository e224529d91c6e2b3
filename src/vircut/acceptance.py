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

import numpy as np

from . import bounds, fields, smear, verma


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


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
                try:
                    rep = verma.truncated_rep(c, h, 8, mode)
                except verma.NonUnitaryError:
                    rep = verma.monomial_action(c, h, 8, mode)
                    if mode == "exact":
                        fallbacks.append(f"c={c},h={h}")
                summary, passed, _ = verma.relation_verdict(rep)
                ok = ok and passed
                if mode == "float":
                    worst_float = float(np.maximum(worst_float, summary["max_abs"]))
    note = f"; monomial basis at {', '.join(fallbacks)}" if fallbacks else ""
    return ok, (f"8 (c,h) points, both modes; exact residuals zero, "
                f"worst float residual {worst_float:.2e}{note}")


def criterion_vacuum_spectrum() -> tuple[bool, str]:
    """Vacuum representation: level 1 is empty and level 2 is a line,
    for every tested central charge.  Levels 0-2 are all it reads, so it
    builds at N = 2."""
    ok = True
    dims = []
    for c in C_VALUES:
        rep = verma.truncated_rep(c, 0, 2)
        ok = ok and rep.dim(1) == 0 and rep.dim(2) == 1
        dims.append(f"c={c}: {list(rep.level_dims[:3])}")
    return ok, "; ".join(dims)


def criterion_translation_recursion() -> tuple[bool, str]:
    """L_{-1} L_{-n} acting on the vacuum equals (n-1) L_{-n-1} exactly,
    n = 2..11 at N = 12, plus the level-2 seed and its propagation."""
    rep = verma.truncated_rep(Fraction(1, 2), 0, 12)
    checks = smear.lemma_recursion_checks(rep)
    ok = (checks["level2_dimension_one"] and checks["recursion_exact"]
          and checks["propagation_exact"])
    return ok, (f"recursion n=2..{rep.N - 1} exact={checks['recursion_exact']}, "
                f"level-2 dim one={checks['level2_dimension_one']}, "
                f"propagation exact={checks['propagation_exact']}")


def _heat_search_grid() -> tuple[np.ndarray, list[np.ndarray]]:
    """The heat-sup search grid and rows[j] = e^{-grid j} for j <= 100,
    built once for all cells (k + m <= 100)."""
    grid = np.logspace(-6, math.log10(60.0), 2000)
    return grid, [np.exp(-grid * j) for j in range(101)]


def _fm_grid_best(k: int, m: int, grid: np.ndarray, rows: list[np.ndarray]
                  ) -> float:
    """Grid maximum of (e^{-eps k} - e^{-eps (k+m)})^2, refined by a bounded
    search between the neighbours of the best grid point; rows[j] holds
    e^{-grid j}."""
    vals = (rows[k] - rows[k + m]) ** 2
    i = int(vals.argmax())
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])

    def neg(e):
        return -((math.exp(-e * k) - math.exp(-e * (k + m))) ** 2)

    return max(float(vals[i]), -_bounded_min(neg, lo, hi, xtol=1e-14))


def _bounded_min(func, a: float, b: float, xtol: float) -> float:
    """Least value of func found on [a, b] by Brent's bounded search
    (Brent 1973, ch. 5): golden-section steps, replaced by a parabolic
    step through the three best points wherever that step is acceptable.

    Step for step the loop of scipy's fminbound (scipy 1.17), so it
    returns the same float; tests/test_acceptance.py checks that on
    every heat-sup cell."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xtol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xtol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # fminbound's default maxfun
            break
    return fx


def _sign(x: float) -> float:
    """+1 for x >= 0 (zero included), -1 below: numpy's sign(x) + (x == 0)."""
    return 1.0 if x == 0 else math.copysign(1.0, x)


def criterion_heat_sup() -> tuple[bool, str]:
    """Closed-form sup of the heat factor against a bracketed grid search
    for all k <= 50, m <= 50, to relative error 1e-6, plus the uniform
    bound sup^2 <= (m/(k+m))^2."""
    grid, rows = _heat_search_grid()
    worst_rel = 0.0
    violations = 0
    for k in range(51):
        for m in range(1, 51):
            _, sup_sq = smear.fm_sup(k, m)
            best = _fm_grid_best(k, m, grid, rows)
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
    rep = verma.truncated_rep(c, 0, N, "float")
    r_report = bounds.estimate_r(c, N, rep=rep)
    q_report = bounds.estimate_q(c, N, rep=rep, r_report=r_report)
    chain_ok = bool(q_report.derived["chain_ok"])
    # np.max keeps a NaN residual, which Python's max would drop
    worst = float(np.max([smear.heat_identity_residual(rep, n, eps)
                          for n in range(-N, N + 1) if n for eps in HEAT_EPS]))
    identity_ok = worst <= 1e-12
    # a q verdict of "pass" requires chain_ok
    ok = identity_ok and r_report.verdict == "pass" and q_report.verdict == "pass"
    return ok, (f"q_hat={q_report.constant:.6f} <= 3 r_hat^2="
                f"{q_report.derived['chain_bound']:.6f}: {chain_ok}; "
                f"worst heat-identity residual {worst:.2e}")


def criterion_piecewise_field() -> tuple[bool, str]:
    """Glued Mobius field: corner values vanish exactly, first derivatives
    match, second-derivative jumps have magnitude 4, modes follow the
    closed form (zero unless n = 2 mod 4) exactly and by quadrature, and
    the decay constant is stable between mode cutoffs 200 and 400."""
    pw = fields.build_piecewise_mobius()
    corners = fields.corner_table(pw)
    corners_ok = all(row["value_left"] == row["value_right"] == 0 for row in corners)
    d1_ok = all(row["d1_left"] == row["d1_right"] for row in corners)
    jumps = [row["d2_jump"] for row in corners]
    d2_ok = all(j == 4 for j in jumps)

    modes_ok = True
    for n in range(-101, 102):
        a, b = pw.coefficient_exact(n)
        modes_ok = modes_ok and a == pw.closed_form(n) and not b

    quad_worst = 0.0
    ns = (2, -2, 3, 4, 5, 6, 10, 34)
    for n, closed in zip(ns, pw.coefficient_closed(ns)):
        value = fields.fourier_coefficient_quadrature(pw, n)
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
    rep = verma.truncated_rep(c, 0, 8, "float")
    closed = smear.vacuum_norm(pw, c, cutoff=8)
    matrix = smear.vacuum_norm_from_rep(smear.smear(rep, pw, cutoff=8))
    diff, agree = smear.vacuum_norm_agreement(closed, matrix)
    ok = float(closed) > 0 and agree
    return ok, f"closed {float(closed):.12f}, matrix diff {diff:.2e}"


def criterion_mollifier() -> tuple[bool, str]:
    """Fejer smoothing of the glued field reaches 3/2-norm error below
    1e-3 on the reported ladder, monotonically."""
    pw = fields.build_piecewise_mobius()
    report = bounds.mollifier_report(pw, fields.FEJER, k_max=1 << 26, tol=1e-3)
    last = report.table[-1]
    return report.verdict == "pass", (
        f"k={last['k']}: error bound {last['error']:.3e} < 1e-3, "
        f"monotone over {len(report.table)} rungs: {report.derived['monotone']}")


def criterion_central_charges() -> tuple[bool, str]:
    """Measured central charge is exactly additive under tensoring."""
    a = verma.truncated_rep(Fraction(1, 2), 0, 4)
    b = verma.truncated_rep(Fraction(4, 5), 0, 4)
    both = verma.measure_central_charge(verma.tensor_rep(a, a, 4))
    mixed = verma.measure_central_charge(verma.tensor_rep(a, b, 4))
    ok = both == 1 and mixed == Fraction(13, 10)
    return ok, f"1/2 + 1/2 -> {both}, 1/2 + 4/5 -> {mixed}, both exact"


def criterion_commutator_realization() -> tuple[bool, str]:
    """[T(f), T(g)] = T(h) + omega on safe windows, exactly, for 20 random
    finitely supported real rational fields."""
    rep = verma.truncated_rep(Fraction(1, 2), 0, 8)
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

"""Experiment harness for the truncation-level operator-bound constants.

Three empirical constants are estimated by exhaustive sweeps over a
truncated representation:

* r_hat from the energy bound ||L_n v_k||^2 <= r^2 (k^2 + k n^2 + |n|^3)
  ||v_k||^2, as the worst ratio over all level/mode cells;

* q_hat from the heat-commutator bound ||R_{n,eps}||^2 <= q |n|^3,
  together with the chain inequality q_hat <= 3 r_hat^2;

* M_hat from the cubic coefficient decay |f_hat(n)| <= M/|n|^3.

Estimates are reported per (c, h, N) and never extrapolated: each report
carries its full per-cell table, as a Table of named columns, and the
witness cell is re-evaluated so the quoted constant is reproducible bit
for bit.  A constant is the maximum over its cells, the first maximal
cell its witness; a NaN cell (a block with a non-finite entry has NaN
norm) is the maximum, so its witness cannot reproduce and the verdict
fails.

The q sweep never materializes commutator matrices.  On each level the
commutator with the heat semigroup is a scalar multiple of the generator
block, since L0 acts on level k as the scalar h + k, so its norm is
|factor| times a precomputed block norm.  The estimates read each block
norm from TruncatedRep.block_norm, which takes the norm of a float
quotient block once per (c, h) point, for r, q and every N of a sweep;
the witness checks recompute their norms from the rep's blocks.  That
L0 is this scalar is checked by the bracket-relation sweep
([L_0, L_n] = -n L_n), which `vircut bounds` and
scripts/run_bounds_sweep.py run on every rep they sweep;
smear.heat_identity_residual checks only the factored form
against the literal difference of two products, which holds for any
block.  The analytic maximizer of each factor is injected into the eps
grid, which removes grid bias from the reported maxima.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import verma
from .fields import FEJER, FourierField, MollifierFamily, PiecewiseMobiusField
from .rational import opnorm
from .smear import fm_sup


class Table(Sequence):
    """A report's per-cell table: read-only rows over named numpy columns.

    table[i] builds row i as a dict of Python scalars (int, float, bool)
    in column order, and iteration builds every row the same way, so a
    CSV writer sees the rows a list of dicts would hold.  Only the columns
    are kept: a row dict exists only while it is read."""

    def __init__(self, **columns):
        self._columns = {name: np.asarray(col) for name, col in columns.items()}

    def __len__(self) -> int:
        return len(next(iter(self._columns.values())))

    def __getitem__(self, i: int) -> dict:
        return {name: col[i].item() for name, col in self._columns.items()}

    def __iter__(self):
        names = list(self._columns)
        for values in zip(*(col.tolist() for col in self._columns.values())):
            yield dict(zip(names, values))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass(frozen=True)
class BoundReport:
    """One experiment's estimate with its full evidence table.

    A report serializes from these fields (the CLI's JSON takes all but
    the table, which goes to CSV, a row per cell)."""

    experiment: str
    parameters: dict
    constant: float
    witness: dict
    table: Table
    tolerance: Optional[float]
    verdict: str
    derived: dict = dc_field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def _rep_for(c, N: int, h, rep) -> verma.TruncatedRep:
    if rep is not None:
        return rep
    return verma.truncated_rep(Fraction(c), Fraction(h), N, mode="float")


def _block_norms(rep: verma.TruncatedRep) -> dict[tuple[int, int], float]:
    """Operator norm of each orthonormal-basis block of L_m at level src,
    from the rep's memo (TruncatedRep.block_norm)."""
    return {key: rep.block_norm(*key) for key in rep.blocks}


def _fresh_norms(rep: verma.TruncatedRep, n: int) -> dict[tuple[int, int], float]:
    """The norms of mode n's blocks, recomputed from the rep's blocks."""
    return {(m, src): opnorm(rep.orthonormal_block(m, src)) for m, src in rep.blocks
            if m == n}


def estimate_r(c, N: int, h=0, rep: Optional[verma.TruncatedRep] = None
               ) -> BoundReport:
    """Sweep every (level, mode) cell for the energy-bound ratio.

    The reported constant is r_hat^2 = max ||L_n|_k||^2/(k^2 + k n^2 +
    |n|^3); cells with an empty or out-of-range window are flagged, and
    the (0, 0) cell has a vanishing denominator and is skipped.
    """
    rep = _rep_for(c, N, h, rep)
    norms = _block_norms(rep)
    cells = {"k": [], "n": [], "norm_sq": [], "denominator": [], "ratio": []}
    skipped = 0
    for src in range(rep.N + 1):
        for n in range(-rep.N, rep.N + 1):
            denom = float(src * src + src * n * n + abs(n) ** 3)
            if (n, src) not in norms or denom == 0.0:
                skipped += 1
                continue
            norm_sq = norms[(n, src)] ** 2
            for name, value in zip(cells, (src, n, norm_sq, denom, norm_sq / denom)):
                cells[name].append(value)
    i = int(np.argmax(cells["ratio"]))
    best = {name: column[i] for name, column in cells.items()}
    # witness reproducibility: recompute the winning cell from scratch
    re_norm = opnorm(rep.orthonormal_block(best["n"], best["k"]))
    reproduced = re_norm ** 2 / best["denominator"] == best["ratio"]
    return BoundReport(
        experiment="energy-bound-r",
        parameters={"c": str(rep.c), "h": str(rep.h), "N": rep.N,
                    "mode": rep.mode},
        constant=best["ratio"],
        witness={"k": best["k"], "n": best["n"], "ratio": best["ratio"],
                 "reproduced": reproduced},
        table=Table(**cells),
        tolerance=None,
        verdict="pass" if reproduced else "fail",
        derived={"r_hat": math.sqrt(best["ratio"]), "cells": len(cells["ratio"]),
                 "skipped": skipped},
    )


DEFAULT_EPS_GRID = "1e-4:20:200"


def parse_eps_grid(spec: str) -> np.ndarray:
    """The geometric grid of `count` points from lo to hi named by the spec
    lo:hi:count; ValueError says what is wrong with a bad spec."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"eps grid must be lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad eps grid {spec!r}: {exc}") from exc
    if count < 1:
        raise ValueError(f"eps grid {spec!r} is empty")
    if not (0 < lo < hi):
        raise ValueError(f"eps grid {spec!r} needs 0 < lo < hi")
    return np.logspace(math.log10(lo), math.log10(hi), count)


FM_SUP_SLACK = 1 + 1e-12  # a sampled heat factor's allowance over its fm_sup bound


def _q_mode_sweep(rep: verma.TruncatedRep, norms: dict, n: int,
                  grid: np.ndarray, h_f: float) -> Optional[dict]:
    """Vectorized ||R_{n,eps}||^2/|n|^3 over the grid plus injected maximizers.

    One fm_sup call per source level gives its factor's maximizer, injected
    unless infinite (lower weight 0), and its squared supremum, which each
    sampled factor may exceed by FM_SUP_SLACK at most.

    A zero block adds no level; a NaN norm (a non-finite block) stays, and
    makes every value of the mode NaN.

    Kept as one function so the witness check can rerun it verbatim: the
    same input arrays through the same operations reproduce bit-identical
    floats, which a scalar-math recomputation would not.
    """
    sources = [src for src in range(rep.N + 1) if (n, src) in norms
               and norms[(n, src)] != 0.0]
    if not sources:
        return None
    m = abs(n)
    eps_max, sup_sq = np.asarray([fm_sup(h_f + min(src, src - n), m) for src in sources]).T
    injected = eps_max[np.isfinite(eps_max)]
    eps_all = np.concatenate([grid, injected])
    order = np.argsort(eps_all, kind="stable")
    eps_all = eps_all[order]
    grid_mask = order < grid.size

    src_arr = np.asarray(sources, dtype=np.float64)
    dst_arr = src_arr - n
    nrm_arr = np.asarray([norms[(n, s)] for s in sources])
    factors = np.exp(-np.outer(eps_all, h_f + src_arr)) \
        - np.exp(-np.outer(eps_all, h_f + dst_arr))
    fm_violations = int(np.sum(factors ** 2 > sup_sq[None, :] * FM_SUP_SLACK))
    weighted = np.abs(factors) * nrm_arr[None, :]
    values = weighted.max(axis=1) ** 2 / m ** 3
    level_idx = weighted.argmax(axis=1)
    return {"eps_all": eps_all, "grid_mask": grid_mask, "values": values,
            "levels": np.take(sources, level_idx),
            "fm_violations": fm_violations,
            "unbounded_max": injected.size < eps_max.size}


def estimate_q(c, N: int, eps_grid: Optional[Sequence[float]] = None, h=0,
               rep: Optional[verma.TruncatedRep] = None, *,
               r_report: BoundReport) -> BoundReport:
    """Sweep ||R_{n,eps}||^2 / |n|^3 over modes and the eps grid.

    Each (n, eps) value is max over source levels of |factor|^2 times the
    squared block norm, with factor = e^{-eps(h+src)} - e^{-eps(h+dst)}.
    The closed-form maximizer of every per-level factor is injected into
    the grid.  Verifies the chain q_hat <= 3 r_hat^2 against r_report,
    the r estimate of the same rep, and checks every per-level factor
    against its closed-form supremum from fm_sup.  The grid defaults to
    DEFAULT_EPS_GRID.
    """
    rep = _rep_for(c, N, h, rep)
    if eps_grid is None:
        grid = parse_eps_grid(DEFAULT_EPS_GRID)
    else:
        grid = np.asarray(list(eps_grid), dtype=np.float64)
        if grid.size == 0 or np.any(grid <= 0):
            raise ValueError("eps grid must be nonempty and positive")
    norms = _block_norms(rep)
    h_f = float(rep.h)

    warnings: list[str] = []
    cells = {"n": [], "eps": [], "value": [], "level": [], "injected": []}
    fm_violations = 0
    for n in range(-rep.N, rep.N + 1):
        if n == 0:
            continue  # R_{0,eps} vanishes identically
        sweep = _q_mode_sweep(rep, norms, n, grid, h_f)
        if sweep is None:
            continue
        fm_violations += sweep["fm_violations"]
        values = sweep["values"]
        grid_values = values[sweep["grid_mask"]]
        i_grid = int(grid_values.argmax())
        if math.isnan(grid_values[i_grid]):  # argmax stops at the first NaN
            warnings.append(f"mode {n}: non-finite cells")
        elif i_grid in (0, grid_values.size - 1) and not (
                i_grid == grid_values.size - 1 and sweep["unbounded_max"]):
            warnings.append(f"mode {n}: eps maximizer on the grid boundary")
        for name, column in zip(cells, (np.full(values.size, n), sweep["eps_all"], values,
                                        sweep["levels"], ~sweep["grid_mask"])):
            cells[name].append(column)
    cells = {name: np.concatenate(parts) for name, parts in cells.items()}
    i = int(cells["value"].argmax())
    best = {name: column[i].item() for name, column in cells.items() if name != "injected"}

    # witness reproducibility: rerun the winning mode's sweep, its block
    # norms recomputed from scratch
    redo = _q_mode_sweep(rep, _fresh_norms(rep, best["n"]), best["n"], grid, h_f)
    first = int(np.searchsorted(cells["n"], best["n"]))  # the mode's first cell
    reproduced = float(redo["values"][i - first]) == best["value"]

    r_sq = r_report.constant
    chain_ok = best["value"] <= 3.0 * r_sq
    if fm_violations:
        warnings.append(f"{fm_violations} factor cells exceeded the fm_sup bound")
    return BoundReport(
        experiment="heat-commutator-q",
        parameters={"c": str(rep.c), "h": str(rep.h), "N": rep.N,
                    "mode": rep.mode, "eps_grid_size": int(grid.size)},
        constant=best["value"],
        witness={**best, "reproduced": reproduced},
        table=Table(**cells),
        tolerance=None,
        verdict="pass" if (chain_ok and reproduced and not fm_violations) else "fail",
        derived={"q_hat": best["value"], "r_hat_sq": r_sq,
                 "chain_bound": 3.0 * r_sq, "chain_ok": chain_ok},
        warnings=tuple(warnings),
    )


def decay_report(field: PiecewiseMobiusField, n_max: int) -> BoundReport:
    """M_hat = max |f_hat(n)| |n|^3 over 2 <= |n| <= n_max, for the glued
    field, whose modes n = 2 mod 4 are nonzero.

    The stabilization diagnostic compares the maximum over the last decade
    (n_max/10, n_max] with the global maximum; a ratio well below 1 means
    the estimate has stopped moving.  The decade is never empty: it holds
    the largest n = 2 mod 4 up to n_max, which exceeds n_max // 10.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    # |f_hat(-n)| = |f_hat(n)|, so the positive side carries the maximum
    ns = np.arange(2, n_max + 1)
    mags = np.abs(field.coefficient_closed(ns))
    scaled = mags * ns.astype(np.float64) ** 3
    support = mags > 0.0
    ns, mags, scaled = ns[support], mags[support], scaled[support]
    i = int(scaled.argmax())
    best = scaled[i].item()
    ratio = scaled[ns > n_max // 10].max().item() / best
    return BoundReport(
        experiment="coefficient-decay-M",
        parameters={"n_max": n_max},
        constant=best,
        witness={"n": ns[i].item(), "scaled": best},
        table=Table(n=ns, abs_coefficient=mags, scaled=scaled),
        tolerance=None,
        verdict="pass",
        derived={"m_hat": best, "stabilization_ratio": ratio},
    )


# Modes per step of the weight series.  A step spans every chunk (at
# least two columns), with max(1, _BLOCK // columns) rows, so its (n W, W)
# block holds at most 2 _BLOCK floats (256 KiB) for any k_max, and the mode
# array and the one scratch array _BLOCK floats each.  All three are
# allocated once per call; past the shortest chunk's end a step also makes
# the mask of its rows past a chunk's last mode, and no other array.
# The 2^26 ladder on a 2-core Xeon (Python 3.11.7, numpy 2.4.6), medians of
# 15 alternating in-process runs, with its tracemalloc peak and the minor
# page faults of a fresh process's first ladder: 150 ms, 327 KiB and 12
# faults at 1 << 13; 133 ms, 521 KiB and 77 at 1 << 14; 128 ms, 1033 KiB
# and 271 at 1 << 15.  In the field-analysis benchmark 1 << 15 was no
# faster than 1 << 14 (4 alternating pairs, 2 won) and its peak RSS was
# 0.36 MB higher in all 4.
_BLOCK = 1 << 14


def _fill_weights(n: np.ndarray, u: np.ndarray, block: np.ndarray) -> None:
    """n W(n) into block[0] and W(n) into block[1], one pass per operation
    through the scratch array u of n's shape; block[1] serves as the
    second scratch array until W lands there.

    Bit for bit W = 2.0 * closed_kernel(n) * (1.0 + n ** 1.5): 16/u equals
    2 (8/u), since doubling commutes with rounding in the normal range."""
    w = block[1]
    np.multiply(math.pi, n, out=u)
    np.multiply(n, n, out=w)
    np.subtract(w, 1.0, out=w)
    np.multiply(u, w, out=u)
    np.divide(16.0, u, out=u)
    np.power(n, 1.5, out=w)
    np.add(w, 1.0, out=w)
    np.multiply(u, w, out=w)
    np.multiply(n, w, out=block[0])


def _weight_series_chunks(k_points: Sequence[int], chunk: int = 1 << 21):
    """Cumulative n*W and W sums of the piecewise field's weight series.

    W(n) = 2 |f_hat(n)| (1 + n^{3/2}) summed over the support n = 2 mod 4
    up to max(k_points), in chunks of `chunk` consecutive integers; yields
    (k, cum_nW(k), cum_W(k)) per requested point plus the grand totals.
    The support's modes are positive, so |f_hat(n)| is the real kernel.

    The chunks fix the rounding: each chunk's running sums start at 0 and
    its totals are then added to the grand carry in chunk order.  So the
    chunks are independent chains, and they run side by side as the
    columns of a contiguous (2, rows, columns) block: plane 0 holds n W and
    plane 1 holds W, and row i of a plane holds the modes n = start_j + 4 i
    of every chunk j.  Each step seeds its first row with the running sums
    and folds the block into them by np.add.reduce over the rows, one
    vectorised add per row; a target splits the fold at its row to read
    the sums there.  The order of additions is that of one cumsum per
    chunk:
    - within a column the rows are added one after another: the reduce's
      inner loop runs along a row, over the columns, so it is never a lone
      column, which numpy would sum pairwise.  A single chunk therefore
      gets an empty partner column (count 0);
    - rows past a chunk's last mode, and the partner column, hold +0.0,
      which changes no bit;
    - the chunk totals join the carry in chunk order.
    A step fills its block with _fill_weights, one in-place pass per
    operation into arrays allocated once per call.
    """
    k_points = sorted(set(int(k) for k in k_points))
    n_max = k_points[-1]
    los = np.arange(2, n_max + 1, chunk, dtype=np.int64)
    starts = los + (2 - los) % 4
    counts = np.maximum((np.minimum(los + chunk - 1, n_max) - starts) // 4 + 1, 0)
    if los.size == 1:
        # the partner column repeats the modes, all masked to +0.0
        starts = np.repeat(starts, 2)
        counts = np.append(counts, 0)
    cols = starts.size
    rows = max(1, _BLOCK // cols)
    # a target reads its chunk's running sums after the chunk's last mode
    # <= k: at row i of its column, or 0 before the chunk's first mode
    reads: dict[int, list[tuple[int, int]]] = {}
    partial = {}
    for k in k_points:
        if k >= 2:
            j = (k - 2) // chunk
            i = min((k - int(starts[j])) // 4, int(counts[j]) - 1)
            if i < 0:
                partial[k] = (0.0, 0.0)
            else:
                reads.setdefault(i, []).append((j, k))
    state = np.zeros((2, cols))
    buf = np.empty((2, rows, cols))
    # the modes of the first step; each step advances them by 4 rows, which
    # stays exact below 2^53
    n_all = starts + 4.0 * np.arange(rows, dtype=np.float64)[:, None]
    u_all = np.empty_like(n_all)
    depth = int(counts.max(initial=0))
    for r0 in range(0, depth, rows):
        r1 = min(r0 + rows, depth)
        if r0:
            n_all += 4.0 * rows
        block = buf[:, :r1 - r0]
        _fill_weights(n_all[:r1 - r0], u_all[:r1 - r0], block)
        if r1 > counts.min():
            np.copyto(block, 0.0, where=np.arange(r0, r1)[:, None] >= counts)
        a = r0
        for stop in sorted({r1 - 1}.union(i for i in reads if r0 <= i < r1)):
            seg = block[:, a - r0:stop + 1 - r0]
            seg[:, 0] += state
            np.add.reduce(seg, axis=1, out=state)
            for j, k in reads.get(stop, ()):
                partial[k] = (float(state[0, j]), float(state[1, j]))
            a = stop + 1
    cum_v = 0.0
    cum_w = 0.0
    carry = []
    for v, w in state[:, :los.size].T.tolist():
        carry.append((cum_v, cum_w))
        cum_v += v
        cum_w += w
    out = {}
    for k in k_points:
        if k < 2:
            out[k] = (0.0, 0.0)
        else:
            (cv, cw), (pv, pw) = carry[(k - 2) // chunk], partial[k]
            out[k] = (cv + pv, cw + pw)
    return out, cum_v, cum_w


def _piecewise_tail_bound(n0: int) -> float:
    """Rigorous bound on Sum_{n > n0, n = 2 mod 4} W(n).

    W(n) = (16/pi)(1 + n^{3/2})/(n(n^2-1)) <= (16/pi)(n^{-3} + n^{-3/2})
    / (1 - n0^{-2}); the sum over the spacing-4 progression starting at
    n1 > n0 is bounded by the first term plus the integral, for each
    power separately.
    """
    n1 = n0 + 1
    while n1 % 4 != 2:
        n1 += 1
    slack = 1.0 / (1.0 - 1.0 / (n0 * n0))
    s3 = n1 ** -3.0 + n1 ** -2.0 / 8.0
    s32 = n1 ** -1.5 + n1 ** -0.5 / 2.0
    return (16.0 / math.pi) * slack * (s3 + s32)


def mollifier_report(field, family: MollifierFamily = FEJER,
                     k_max: int = 1 << 26, tol: float = 1e-3,
                     ladder: Optional[Sequence[int]] = None) -> BoundReport:
    """Table of ||phi_k * f - f||_{3/2} on a ladder of smoothing orders.

    For finitely supported fields the error is summed directly.  For the
    piecewise field with the Fejer family the error splits as
    cum(n W)(k)/(k+1) + tail(W)(k); both parts are accumulated in chunks
    and the un-enumerated remainder is covered by a rigorous upper bound,
    so every reported entry is an upper bound on the true error and the
    sequence stays monotone nonincreasing.  An empty ladder, k_max < 1, a
    negative order, or a top order below 2 for the piecewise field (whose
    tail bound divides by 1 - top^-2) raises ValueError.
    """
    if ladder is None:
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        ladder = [1 << j for j in range(0, max(1, k_max.bit_length()))
                  if (1 << j) <= k_max]
        if ladder[-1] != k_max:
            ladder.append(k_max)
    ladder = sorted(set(int(k) for k in ladder))
    if not ladder:
        raise ValueError("the ladder needs at least one smoothing order")
    if ladder[0] < 0:
        raise ValueError(f"smoothing orders must be >= 0, got {ladder[0]}")

    if isinstance(field, FourierField):
        errors = [float(sum((1.0 - family.multiplier(k, n)) * abs(complex(a))
                            * (1.0 + abs(n) ** 1.5)
                            for n, a in field.coefficients.items()))
                  for k in ladder]
        tail_const = 0.0
    elif isinstance(field, PiecewiseMobiusField):
        if ladder[-1] < 2:
            raise ValueError("the piecewise field's tail bound needs a top "
                             f"smoothing order >= 2, got {ladder[-1]}")
        sums, _, w_all = _weight_series_chunks(ladder)
        tail_const = _piecewise_tail_bound(ladder[-1])
        errors = [sums[k][0] / (k + 1.0) + (w_all - sums[k][1]) + tail_const
                  for k in ladder]
    else:
        raise TypeError(f"unsupported field type {type(field).__name__}")

    final = errors[-1]
    monotone = all(errors[i + 1] <= errors[i] + 1e-15 for i in range(len(errors) - 1))
    warnings = () if monotone else ("error sequence is not monotone",)
    return BoundReport(
        experiment="mollifier-convergence",
        parameters={"family": family.kind, "k_max": ladder[-1],
                    "ladder_points": len(ladder)},
        constant=final,
        witness={"k": ladder[-1], "error": final},
        table=Table(k=ladder, error=errors, tail_bound=np.full(len(ladder), tail_const)),
        tolerance=tol,
        verdict="pass" if (final < tol and monotone) else "fail",
        derived={"monotone": monotone},
        warnings=warnings,
    )

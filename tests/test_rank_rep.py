"""Quotient construction, level dimensions, and the bracket relations."""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vircut import verma
from vircut.bounds import estimate_q, estimate_r
from vircut.rational import Residual, exact_rank_nullspace, eye
from vircut.verma import (
    NonUnitaryError,
    measure_central_charge,
    relation_residual_summary,
    truncated_rep,
)

# irreducible vacuum characters, fixed by independent counting
ISING_VACUUM_DIMS = (1, 0, 1, 1, 2, 2, 3, 3, 5, 5, 7, 8, 11)
ISING_HALF_DIMS = (1, 1, 1, 1, 2, 2, 3, 4, 5)
TCI_VACUUM_DIMS = (1, 0, 1, 1, 2, 2, 4, 4, 7)
GENERIC_DIMS = (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_ising_vacuum_dimensions(ising12):
    assert ising12.level_dims == ISING_VACUUM_DIMS


def test_ising_energy_half_dimensions(ising_half_8):
    assert ising_half_8.level_dims == ISING_HALF_DIMS


def test_tricritical_vacuum_dimensions():
    rep = truncated_rep(Fraction(7, 10), 0, 8)
    assert rep.level_dims == TCI_VACUUM_DIMS


def test_generic_weight_keeps_full_verma_dimensions():
    rep = truncated_rep(Fraction(2), Fraction(1, 2), 8, mode="float")
    assert rep.level_dims == GENERIC_DIMS


@pytest.mark.parametrize("c, h", [
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1), Fraction(1, 4)),
    (Fraction(7, 10), Fraction(3, 5)),
    (Fraction(1, 2), Fraction(1, 16)),
], ids=["c=1/2,h=0", "c=1,h=1/4", "c=7/10,h=3/5", "c=1/2,h=1/16"])
def test_builder_dims_match_the_exact_gram_rank(c, h):
    # Gaussian elimination on the exact Gram shares no code with the
    # builders' quotient (psd_congruence in exact mode, eigh in float)
    ranks = tuple(exact_rank_nullspace(verma.gram_matrix(c, h, k).entries)[0]
                  for k in range(11))
    assert truncated_rep(c, h, 10, mode="float").level_dims == ranks
    assert verma.truncated_rep(c, h, 8).level_dims == ranks[:9]


@pytest.mark.parametrize("c,h,level", [
    (Fraction(1, 2), Fraction(1, 10), 2),
    (Fraction(1, 2), Fraction(1, 3), 2),
    (Fraction(7, 10), Fraction(1, 5), 2),
])
def test_non_unitary_weights_refused(c, h, level):
    with pytest.raises(NonUnitaryError):
        truncated_rep(c, h, level + 1)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_negative_weight_is_refused_as_indefinite(mode):
    # G_1 = 2h = -2; in float mode the scaled diagonal reads -1
    with pytest.raises(NonUnitaryError, match="Gram matrix at level 1 is indefinite"):
        truncated_rep(Fraction(1, 2), -1, 4, mode)


def test_tricritical_half_fails_only_at_level_six():
    c, h = Fraction(7, 10), Fraction(1, 2)
    rep = truncated_rep(c, h, 5)  # positive semidefinite through level 5
    assert rep.N == 5
    with pytest.raises(NonUnitaryError, match="level 6"):
        truncated_rep(c, h, 6)


def test_monomial_basis_carries_relations_without_inner_product():
    rep = verma.monomial_action(Fraction(7, 10), Fraction(1, 2), 8)
    summary = relation_residual_summary(rep, max_mode=3)
    assert summary["exact_zero"]
    with pytest.raises(ValueError, match="no inner product"):
        rep.norms(0)


def test_a_float_rep_is_orthonormal_and_carries_no_norms(ising8, ising8_float):
    assert ising8_float.basis_norms is None and ising8_float.norms(3) is None
    assert ising8.norms(3) == ising8.basis_norms[3] and len(ising8.norms(3)) == 1


def test_exact_relations_are_identically_zero(ising8):
    summary = relation_residual_summary(ising8, max_mode=3)
    assert summary["exact_zero"] and summary["max_abs"] == 0.0


def test_float_relations_within_tolerance(ising8_float):
    summary = relation_residual_summary(ising8_float, max_mode=3)
    assert summary["max_abs"] <= 1e-10


def test_a_nan_entry_fails_the_relation_budget():
    rep = verma.truncated_rep(Fraction(1, 2), 0, 6, "float")
    blocks = dict(rep.blocks)
    blocks[(1, 3)] = blocks[(1, 3)].copy()
    blocks[(1, 3)][0, 0] = np.nan
    summary = relation_residual_summary(replace(rep, blocks=blocks), max_mode=3)
    assert np.isnan(summary["max_abs"])
    assert not summary["max_abs"] <= verma.FLOAT_RESIDUAL_TOL


def _in_window(rep, m, n, k):
    """Whether levels k, k - n, k - m and k - m - n all lie in [0, N]."""
    return all(0 <= level <= rep.N for level in (k, k - n, k - m, k - m - n))


def _cell_residual(rep, m, n, k):
    """[L_m, L_n] - (m-n) L_{m+n} - central on level k, by np.dot on the
    rep's blocks, in the rep's arithmetic (Fraction or float64 entries),
    with the central term read from the label rep.c."""
    res = (np.dot(rep.block(m, k - n), rep.block(n, k))
           - np.dot(rep.block(n, k - m), rep.block(m, k)))
    if m != n:
        res = res - (m - n) * rep.block(m + n, k)
    if m + n == 0:
        res = res - eye(rep.dim(k), rep.mode) * (rep.c * (m ** 3 - m) / 12)
    return res


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_relation_window_is_every_level_inside_the_truncation(mode):
    N = 5
    rep = verma.truncated_rep(Fraction(1, 2), 0, N, mode)
    assert verma._sweep_cells(rep, N) == [
        (m, n, k) for m in range(-N, N + 1) for n in range(m + 1, N + 1)
        for k in range(N + 1) if _in_window(rep, m, n, k) and rep.dim(k) and rep.dim(k - m - n)]


def _all_ordered_pairs(rep, max_mode=3):
    """Every (m, n) with |m|,|n| <= max_mode: max abs, any nonzero, and
    the (m, n, k) of every nonempty cell."""
    worst, nonzero, cells = 0.0, False, set()
    for m in range(-max_mode, max_mode + 1):
        for n in range(-max_mode, max_mode + 1):
            for k in range(rep.N + 1):
                if not _in_window(rep, m, n, k):
                    continue
                res = _cell_residual(rep, m, n, k)
                if res.size == 0:
                    continue
                cells.add((m, n, k))
                nonzero = nonzero or bool((res != 0).any())
                worst = max(worst, max(abs(float(x)) for x in res.ravel()))
    return worst, nonzero, cells


@pytest.mark.parametrize("build, c, h, N, mode, label", [
    (truncated_rep, Fraction(1, 2), 0, 8, "float", None),
    (truncated_rep, Fraction(7, 10), Fraction(3, 5), 6, "exact", None),
    (verma.monomial_action, Fraction(7, 10), Fraction(1, 2), 6, "exact", None),
    # the CLI's injected fault: built at 12c/13, labelled c = 2
    (truncated_rep, Fraction(24, 13), 0, 5, "float", Fraction(2)),
    (truncated_rep, Fraction(24, 13), 0, 5, "exact", Fraction(2)),
], ids=["float", "exact", "monomial", "faulted-float", "faulted-exact"])
def test_relation_summary_sweeps_the_unordered_pairs(build, c, h, N, mode, label):
    rep = build(c, h, N, mode=mode)
    if label is not None:
        rep = replace(rep, c=label)
    worst, nonzero, cells = _all_ordered_pairs(rep)
    summary = relation_residual_summary(rep, max_mode=3)
    assert summary["max_abs"] == worst
    assert summary["exact_zero"] == (mode == "exact" and not nonzero)
    swept = set(verma._sweep_cells(rep, 3))
    assert swept == {(m, n, k) for m, n, k in cells if m < n}
    assert cells == swept | {(n, m, k) for m, n, k in swept} | {
        (m, n, k) for m, n, k in cells if m == n}
    if label is not None:
        assert worst > 1e-3


def _fraction_route_summary(rep, max_mode=3):
    """The sweep formed in Fraction arithmetic: np.dot on the Fraction
    blocks, the residual of each cell entry by entry, Residual.of per
    cell.  It shares only Residual.of with relation_residual_summary."""
    total, cells = Residual(), []
    for m in range(-max_mode, max_mode + 1):
        for n in range(m + 1, max_mode + 1):
            for k in range(rep.N + 1):
                if not _in_window(rep, m, n, k) or not rep.dim(k) or not rep.dim(k - m - n):
                    continue
                cell = Residual.of(_cell_residual(rep, m, n, k))
                total |= cell
                cells.append({"m": m, "n": n, "k": k, "max_abs": cell.max_abs})
    return {"max_abs": total.max_abs, "exact_zero": total.zero, "cells": cells}


def _relabelled(c, h, N, label):
    return replace(truncated_rep(c, h, N), c=label)


def _nudged(rep, key, part):
    blocks = dict(rep.blocks)
    blocks[key] = blocks[key].copy()
    blocks[key][0, 0] = blocks[key][0, 0] + part
    return replace(rep, blocks=blocks)


@pytest.mark.parametrize("make, zero", [
    (lambda: verma.truncated_rep(Fraction(7, 10), Fraction(3, 5), 8), True),
    (lambda: verma.truncated_rep(Fraction(1, 2), 0, 8), True),
    (lambda: verma.truncated_rep(Fraction(2), Fraction(1), 6), True),
    (lambda: verma.monomial_action(Fraction(7, 10), Fraction(1, 2), 6), True),
    # the CLI's central-denominator-13 fault: built at 12c/13, labelled c
    (lambda: _relabelled(Fraction(24, 13), Fraction(1), 6, Fraction(2)), False),
    (lambda: _relabelled(Fraction(18, 13), Fraction(1, 3), 7, Fraction(3, 2)), False),
    (lambda: _nudged(verma.truncated_rep(Fraction(7, 10), Fraction(3, 5), 7), (1, 4),
                     Fraction(1, 10 ** 30)), False),
    (lambda: _nudged(verma.truncated_rep(Fraction(2), Fraction(1), 6), (-2, 3),
                     Fraction(-3, 7)), False),
], ids=["tci-3/5", "ising", "c=2,h=1", "monomial", "fault-c=2", "fault-c=3/2",
        "nudged-tiny", "nudged-large"])
def test_integer_relation_summary_equals_the_fraction_route(make, zero):
    rep = make()
    got, want = relation_residual_summary(rep, max_mode=3), _fraction_route_summary(rep)
    assert got["exact_zero"] is want["exact_zero"] is zero
    assert got["max_abs"].hex() == want["max_abs"].hex()
    # cell by cell, through the sweep's own cells and reduction
    cells = verma._sweep_cells(rep, 3)
    assert cells == [(c["m"], c["n"], c["k"]) for c in want["cells"]]
    assert [cell.max_abs.hex() for cell in verma._relation_residuals(rep, cells)] == \
        [c["max_abs"].hex() for c in want["cells"]]


def test_the_integer_sweep_catches_the_fault_where_the_label_enters():
    # (2, 1, 6) under the fault: only cells with m + n = 0 and a nonzero
    # central term (m = -n, |n| >= 2) read the label
    rep = _relabelled(Fraction(24, 13), Fraction(1), 6, Fraction(2))
    cells = verma._sweep_cells(rep, 3)
    bad = {(m, n) for (m, n, _), cell in zip(cells, verma._relation_residuals(rep, cells))
           if cell.max_abs > 0}
    assert bad == {(-2, 2), (-3, 3)}


def test_block_shapes_and_out_of_range(ising8):
    assert ising8.dim(-1) == 0 and ising8.dim(9) == 0
    assert ising8.block(2, 1) is None  # level 1 is empty
    blk = ising8.block(-2, 0)
    assert blk.shape == (1, 1)
    assert ising8.block(8, 8).shape == (1, 5)


def test_orthonormal_blocks_give_unit_norms(ising8):
    # rows of L_{-2}|_0 in the orthonormal basis: the image of the vacuum
    # has squared length <O| L_2 L_{-2} |O> = c/2
    col = ising8.orthonormal_block(-2, 0)
    assert np.allclose(np.sum(col * col), 0.25)


def test_measured_central_charge_is_exact(ising8):
    assert measure_central_charge(ising8) == Fraction(1, 2)


def test_float_mode_matches_exact_blocks(ising8, ising8_float):
    for key in ising8.blocks:
        a = ising8.orthonormal_block(*key)
        b = ising8_float.block(*key)
        assert a.shape == b.shape
        if a.size:
            # same quotient, possibly different orthonormal frames: compare
            # the frame-invariant singular values
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            assert np.allclose(sa, sb, atol=1e-9)


# level dims of c=7/10, h=3/5: the exact Gram rank, and the Rocha-Caridi
# character of M(4,5) at (r,s)=(3,2)
TCI_THREE_FIFTHS_DIMS = (1, 1, 2, 2, 4, 5, 7, 9, 13, 16, 22, 27, 36, 45)


@pytest.mark.parametrize("c, h, dims", [
    (Fraction(1), Fraction(1, 4),
     tuple(verma.partition_count(k) - verma.partition_count(k - 2) for k in range(13))),
    (Fraction(7, 10), Fraction(3, 5), TCI_THREE_FIFTHS_DIMS),
], ids=["c=1,h=1/4", "c=7/10,h=3/5"])
def test_float_mode_keeps_states_with_small_gram_diagonal(c, h, dims):
    # the Gram diagonal spans many orders of magnitude at these levels, so
    # a threshold relative to its largest entry would drop genuine states
    rep = truncated_rep(c, h, len(dims) - 1, mode="float")
    assert rep.level_dims == dims
    assert relation_residual_summary(rep, max_mode=3)["max_abs"] <= 1e-10



def test_blocks_are_the_truncation_block_keys(ising8):
    assert verma.block_keys(2) == [(-2, 0), (-1, 0), (-1, 1), (0, 0), (0, 1), (0, 2),
                                   (1, 1), (1, 2), (2, 2)]
    assert list(ising8.blocks) == verma.block_keys(8)
    monomial = verma.monomial_action(Fraction(1, 2), 0, 4)
    assert list(monomial.blocks) == verma.block_keys(4)
    assert list(verma.tensor_rep(ising8, ising8, 4).blocks) == verma.block_keys(4)


# ---------------------------------------------------------------------------
# the module memo holds one (c, h)


def test_the_module_memo_keeps_only_the_last_point():
    for c, h in ((Fraction(1, 2), 0), (Fraction(7, 10), Fraction(3, 5)), (Fraction(2), 1)):
        truncated_rep(c, h, 6, "float")
    assert verma._module.cache_info().currsize == 1


def test_one_point_builds_every_level_from_one_module():
    verma._module.cache_clear()
    for N in range(4, 11):
        truncated_rep(Fraction(1, 2), 0, N, "float")
    assert verma._module.cache_info().misses == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_point_rebuilt_after_another_equals_its_first_build(mode):
    verma._module.cache_clear()
    first = truncated_rep(Fraction(7, 10), Fraction(3, 5), 7, mode)
    truncated_rep(Fraction(1, 2), Fraction(1, 16), 7, mode)
    again = truncated_rep(Fraction(7, 10), Fraction(3, 5), 7, mode)
    assert verma._module.cache_info().misses == 3
    assert again.level_dims == first.level_dims and list(again.blocks) == list(first.blocks)
    for key, blk in first.blocks.items():
        if mode == "exact":
            assert again.blocks[key].shape == blk.shape and (again.blocks[key] == blk).all()
        else:
            assert again.blocks[key].tobytes() == blk.tobytes()


def _bound_bits(rep) -> list:
    """float.hex of the r and q constants and witnesses of a rep."""
    r = estimate_r(rep.c, rep.N, rep=rep)
    q = estimate_q(rep.c, rep.N, rep=rep, r_report=r)
    return [{key: float.hex(v) if isinstance(v, float) else v
             for key, v in {"constant": report.constant, **report.witness}.items()}
            for report in (r, q)]


@pytest.mark.parametrize("c, h, levels, mode", [
    (Fraction(1, 2), 0, range(4, 13), "float"),
    (Fraction(7, 10), Fraction(3, 5), range(4, 10), "exact"),
    (Fraction(7, 10), Fraction(3, 5), range(4, 9), "float"),
])
def test_a_sweep_over_n_equals_fresh_builds(c, h, levels, mode):
    verma._module.cache_clear()
    swept = [truncated_rep(c, h, N, mode) for N in levels]
    bits = [_bound_bits(rep) for rep in swept]
    for rep, rep_bits in zip(swept, bits):
        verma._module.cache_clear()
        fresh = truncated_rep(c, h, rep.N, mode)
        assert rep.level_dims == fresh.level_dims and list(rep.blocks) == list(fresh.blocks)
        for key, blk in fresh.blocks.items():
            if mode == "exact":
                assert rep.blocks[key].shape == blk.shape and (rep.blocks[key] == blk).all()
            else:
                assert rep.blocks[key].tobytes() == blk.tobytes()
        assert rep_bits == _bound_bits(fresh)


def test_dropping_the_module_frees_its_memos_without_the_cyclic_collector():
    c, h = Fraction(7, 10), Fraction(3, 5)
    gc.disable()
    try:
        verma._module.cache_clear()
        rep = truncated_rep(c, h, 7)
        block = weakref.ref(rep.blocks[(1, 7)])
        gram = weakref.ref(verma._module(c, h).gram(7, "exact"))
        del rep
        assert block() is not None  # the memo still holds the block
        truncated_rep(Fraction(1, 2), 0, 4)
        assert block() is None and gram() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_built_blocks_are_read_only(mode):
    rep = truncated_rep(Fraction(1, 2), Fraction(1, 16), 6, mode)
    assert not any(blk.flags.writeable for blk in rep.blocks.values())
    with pytest.raises(ValueError, match="read-only"):
        rep.blocks[(1, 2)][0, 0] = 0


def test_a_float_range_error_is_raised_on_every_build():
    for _ in range(2):
        with pytest.raises(verma.FloatRangeError):
            truncated_rep(Fraction("1e160"), 0, 6, "float")

"""Quotient construction, level dimensions, and the bracket relations."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vircut import acceptance, verma
from vircut.rational import exact_rank_nullspace
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
    assert acceptance._rep(c, h, 8).level_dims == ranks[:9]


@pytest.mark.parametrize("c,h,level", [
    (Fraction(1, 2), Fraction(1, 10), 2),
    (Fraction(1, 2), Fraction(1, 3), 2),
    (Fraction(7, 10), Fraction(1, 5), 2),
])
def test_non_unitary_weights_refused(c, h, level):
    with pytest.raises(NonUnitaryError):
        truncated_rep(c, h, level + 1)


def test_tricritical_half_fails_only_at_level_six():
    c, h = Fraction(7, 10), Fraction(1, 2)
    rep = truncated_rep(c, h, 5)  # positive semidefinite through level 5
    assert rep.N == 5
    with pytest.raises(NonUnitaryError, match="level 6"):
        truncated_rep(c, h, 6)


def test_monomial_basis_carries_relations_without_inner_product():
    rep = truncated_rep(Fraction(7, 10), Fraction(1, 2), 8, basis="monomial")
    summary = relation_residual_summary(rep, max_mode=3)
    assert summary["exact_zero"]
    with pytest.raises(ValueError, match="no inner product"):
        rep.norms(0)


def test_exact_relations_are_identically_zero(ising8):
    summary = relation_residual_summary(ising8, max_mode=3)
    assert summary["exact_zero"] and summary["max_abs"] == 0.0


def test_float_relations_within_tolerance(ising8_float):
    summary = relation_residual_summary(ising8_float, max_mode=3)
    assert summary["max_abs"] <= 1e-10


def test_a_nan_entry_fails_the_relation_budget():
    rep = acceptance._rep(Fraction(1, 2), 0, 6, "float")
    blocks = dict(rep.blocks)
    blocks[(1, 3)] = blocks[(1, 3)].copy()
    blocks[(1, 3)][0, 0] = np.nan
    summary = relation_residual_summary(replace(rep, blocks=blocks), max_mode=3)
    assert np.isnan(summary["max_abs"])
    assert not summary["max_abs"] <= verma.FLOAT_RESIDUAL_TOL
    assert any(np.isnan(cell["max_abs"]) for cell in summary["cells"])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_relation_window_is_every_level_inside_the_truncation(mode):
    N = 5
    rep = acceptance._rep(Fraction(1, 2), 0, N, mode)
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            for k in range(N + 1):
                outside = not all(0 <= level <= N for level in (k - n, k - m, k - m - n))
                assert (verma.relation_residual(rep, m, n, k) is None) == outside, (m, n, k)


def _all_ordered_pairs(rep, max_mode=3):
    """Every (m, n) with |m|,|n| <= max_mode: max abs, any nonzero, and
    the (m, n, k) of every nonempty cell."""
    worst, nonzero, cells = 0.0, False, set()
    for m in range(-max_mode, max_mode + 1):
        for n in range(-max_mode, max_mode + 1):
            for k in range(rep.N + 1):
                res = verma.relation_residual(rep, m, n, k)
                if res is None or res.size == 0:
                    continue
                cells.add((m, n, k))
                nonzero = nonzero or bool((res != 0).any())
                worst = max(worst, max(abs(float(x)) for x in res.ravel()))
    return worst, nonzero, cells


@pytest.mark.parametrize("c, h, N, mode, basis, label", [
    (Fraction(1, 2), 0, 8, "float", "quotient", None),
    (Fraction(7, 10), Fraction(3, 5), 6, "exact", "quotient", None),
    (Fraction(7, 10), Fraction(1, 2), 6, "exact", "monomial", None),
    # the CLI's injected fault: built at 12c/13, labelled c = 2
    (Fraction(24, 13), 0, 5, "float", "quotient", Fraction(2)),
    (Fraction(24, 13), 0, 5, "exact", "quotient", Fraction(2)),
], ids=["float", "exact", "monomial", "faulted-float", "faulted-exact"])
def test_relation_summary_sweeps_the_unordered_pairs(c, h, N, mode, basis, label):
    rep = truncated_rep(c, h, N, mode=mode, basis=basis)
    if label is not None:
        rep = replace(rep, c=label if mode == "exact" else float(label))
    worst, nonzero, cells = _all_ordered_pairs(rep)
    summary = relation_residual_summary(rep, max_mode=3)
    assert summary["max_abs"] == worst
    assert summary["exact_zero"] == (mode == "exact" and not nonzero)
    swept = {(cell["m"], cell["n"], cell["k"]) for cell in summary["cells"]}
    assert swept == {(m, n, k) for m, n, k in cells if m < n}
    assert cells == swept | {(n, m, k) for m, n, k in swept} | {
        (m, n, k) for m, n, k in cells if m == n}
    if label is not None:
        assert worst > 1e-3


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
    monomial = truncated_rep(Fraction(1, 2), 0, 4, basis="monomial")
    assert list(monomial.blocks) == verma.block_keys(4)
    assert list(verma.tensor_rep(ising8, ising8, 4).blocks) == verma.block_keys(4)

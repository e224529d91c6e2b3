"""Inner-product matrices of monomial bases."""

from fractions import Fraction

import numpy as np
import pytest

from vircut import acceptance
from vircut.acceptance import C_VALUES, H_VALUES
from vircut.rational import to_float
from vircut.verma import enumerate_partitions, gram_entry_direct, gram_matrix


def test_level_one_entry():
    for c, h in ((Fraction(1, 2), Fraction(0)), (Fraction(7, 10), Fraction(3, 5))):
        g = gram_matrix(c, h, 1)
        assert g.entries[0, 0] == 2 * h


def test_level_two_matrix_matches_hand_computation():
    # basis order is revlex: (2) then (1, 1)
    for c, h in ((Fraction(1, 2), Fraction(0)),
                 (Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(3), Fraction(2, 7))):
        g = gram_matrix(c, h, 2).entries
        assert g[0, 0] == 4 * h + c / 2
        assert g[0, 1] == 6 * h
        assert g[1, 0] == 6 * h
        assert g[1, 1] == 8 * h * h + 4 * h


def test_ising_level_two_determinant_vanishes_at_degenerate_weight():
    c, h = Fraction(1, 2), Fraction(1, 2)
    g = gram_matrix(c, h, 2).entries
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    assert det == 0


def test_symmetry_and_direct_entries_agree():
    c, h = Fraction(7, 10), Fraction(1, 10)
    gram = gram_matrix(c, h, 4)
    parts = enumerate_partitions(4)
    assert gram.entries.shape == (5, 5)
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            assert gram.entries[i, j] == gram.entries[j, i]
            assert gram.entries[i, j] == gram_entry_direct(c, h, lam, mu)


def test_vacuum_diagonal_at_level_two():
    # <L_{-2} O, L_{-2} O> = c/2 and the L_{-1}^2 row vanishes at h = 0
    g = gram_matrix(Fraction(1, 2), 0, 2).entries
    assert g[0, 0] == Fraction(1, 4)
    assert g[1, 1] == 0 and g[0, 1] == 0


# ---------------------------------------------------------------------------
# the float recursion and the row pruning

GRID = ([(c, h) for c in C_VALUES for h in H_VALUES]
        + [(Fraction(7, 10), Fraction(3, 5)), (Fraction(1), Fraction(1, 4)),
           (Fraction(1, 2), Fraction(1, 16))])
# unitary points besides the Ising vacuum, which test_rank_rep covers
UNITARY = [(c, h) for c, h in GRID
           if (c, h) not in ((Fraction(1, 2), Fraction(0)), (Fraction(7, 10), Fraction(1, 2)))]


def _ids(points):
    return [f"c={c},h={h}" for c, h in points]


@pytest.mark.parametrize("c, h", GRID, ids=_ids(GRID))
def test_float_gram_is_the_rounded_exact_gram_within_four_ulp(c, h):
    # every structure constant is nonnegative, so the float recursion
    # has no cancellation: zeros stay exact and errors stay at a few ulp
    for k in range(11):
        want = to_float(gram_matrix(c, h, k).entries)
        got = gram_matrix(c, h, k, mode="float").entries
        assert got.dtype == np.float64
        assert np.array_equal(got == 0, want == 0)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


PRUNING_POINTS = [(Fraction(1, 2), Fraction(0)), (Fraction(7, 10), Fraction(3, 5))]


@pytest.mark.parametrize("c, h", PRUNING_POINTS, ids=_ids(PRUNING_POINTS))
def test_row_pruned_gram_matches_direct_entries_at_level_six(c, h):
    gram = gram_matrix(c, h, 6)
    parts = enumerate_partitions(6)
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            assert gram.entries[i, j] == gram_entry_direct(c, h, lam, mu)


@pytest.mark.parametrize("c, h", UNITARY, ids=_ids(UNITARY))
def test_exact_and_float_blocks_share_singular_values(c, h):
    exact = acceptance._rep(c, h, 8)
    floating = acceptance._rep(c, h, 8, "float")
    assert exact.level_dims == floating.level_dims
    for key in exact.blocks:
        a = exact.orthonormal_block(*key)
        b = floating.block(*key)
        assert a.shape == b.shape
        if a.size:
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            assert np.allclose(sa, sb, rtol=1e-12, atol=1e-12)

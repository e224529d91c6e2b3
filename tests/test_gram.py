"""Inner-product matrices of monomial bases."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vircut import verma
from vircut.acceptance import C_VALUES, H_VALUES
from vircut.rational import psd_congruence, to_float
from vircut.verma import enumerate_partitions, gram_entry_direct, gram_matrix, partition_count


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
# the Kac determinant


def _kac_product(c, h, k):
    """Prod over rs <= k of (h - h_{r,s}(c))^{p(k - rs)}, in Fractions.

    With c = 13 - 6u and u = t + 1/t, h_{r,s} = (A t + B/t)/4 - m, where
    A = r^2-1, B = s^2-1 and m = (rs-1)/2.  That is irrational in general,
    but h_{r,r} = A u/4 - m is not, and the pair (r,s), (s,r) enters only
    through h_{r,s} + h_{s,r} = (P+Q)/4 - 2m and h_{r,s} h_{s,r} =
    PQ/16 - m (P+Q)/4 + m^2, where P + Q = (A+B) u and
    PQ = AB (u^2 - 2) + A^2 + B^2 are rational in u.
    """
    u = (13 - Fraction(c)) / 6
    total = Fraction(1)
    for r in range(1, k + 1):
        for s in range(r, k // r + 1):
            a, b, m = r * r - 1, s * s - 1, Fraction(r * s - 1, 2)
            power = partition_count(k - r * s)
            if r == s:
                total *= (h - (a * u / 4 - m)) ** power
            else:
                p_plus_q = (a + b) * u
                p_times_q = a * b * (u * u - 2) + a * a + b * b
                hsum = p_plus_q / 4 - 2 * m
                hprod = p_times_q / 16 - m * p_plus_q / 4 + m * m
                total *= (h * h - hsum * h + hprod) ** power
    return total


def _congruence_determinant(c, h, k):
    d, _, _ = psd_congruence(gram_matrix(c, h, k).entries)
    assert len(d) == partition_count(k)
    return math.prod(d, start=Fraction(1))


def _elimination_determinant(c, h, k):
    """det G_k by plain Fraction Gaussian elimination on a list copy, first
    nonzero pivot down each column; shares no code with the builder."""
    a = [list(row) for row in gram_matrix(c, h, k).entries.tolist()]
    det = Fraction(1)
    for t in range(len(a)):
        piv = next((i for i in range(t, len(a)) if a[i][t] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        for r in range(t + 1, len(a)):
            f = a[r][t] / a[t][t]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[t])]
    return det


@pytest.mark.parametrize("k", range(9))
def test_congruence_determinant_follows_the_kac_formula(k):
    # det G_k = C_k Prod (h - h_{r,s}(c))^{p(k-rs)}, with C_k independent of
    # (c, h); two points with c > 1 and h > 0 (full rank) cancel it.  The
    # determinant is read twice: from the congruence the builder uses, and
    # from a Fraction elimination of its own.
    one, two = (Fraction(2), Fraction(1)), (Fraction(17, 3), Fraction(2, 7))
    want = _kac_product(*one, k) / _kac_product(*two, k)
    for det in (_congruence_determinant, _elimination_determinant):
        assert det(*one, k) / det(*two, k) == want


def test_kac_product_vanishes_on_the_kac_table():
    # M(4, 5): h_{1,3} = 3/5 is null from level 3 on, h_{2,2} = 3/80 from level 4
    assert _kac_product(Fraction(7, 10), Fraction(3, 5), 2) != 0
    assert _kac_product(Fraction(7, 10), Fraction(3, 5), 3) == 0
    assert _kac_product(Fraction(7, 10), Fraction(3, 80), 3) != 0
    assert _kac_product(Fraction(7, 10), Fraction(3, 80), 4) == 0


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
    exact = verma.truncated_rep(c, h, 8)
    floating = verma.truncated_rep(c, h, 8, "float")
    assert exact.level_dims == floating.level_dims
    for key in exact.blocks:
        a = exact.orthonormal_block(*key)
        b = floating.block(*key)
        assert a.shape == b.shape
        if a.size:
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            assert np.allclose(sa, sb, rtol=1e-12, atol=1e-12)

"""Smeared operators, vacuum norms, heat commutators, bracket residuals."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vircut import verma
from vircut.bounds import estimate_r
from vircut.fields import (
    FourierField,
    cosine_field,
    mobius_piece,
    mode_field,
    norm_three_halves,
    random_real_field,
)
from vircut.rational import CFrac, Residual, zeros
from vircut.smear import (
    commutator_residual,
    fm_sup,
    heat_identity_residual,
    hermiticity_residual,
    lemma_recursion_checks,
    pair_safe_levels,
    smear,
    vacuum_norm,
    vacuum_norm_from_rep,
    vector_norm_squared,
)
from vircut.verma import relation_residual_summary


def _perturbed(rep, key, change):
    """rep with entry [0, 0] of block `key` replaced by change(entry)."""
    blocks = dict(rep.blocks)
    blk = blocks[key].copy()
    blk[0, 0] = change(blk[0, 0])
    blocks[key] = blk
    return replace(rep, blocks=blocks)


# ---------------------------------------------------------------------------
# assembly


def test_mode_zero_smears_to_the_grading_operator(ising8):
    blocks = smear(ising8, mode_field(0)).blocks()
    for k in range(ising8.N + 1):
        d = ising8.dim(k)
        if d == 0:
            assert (k, k) not in blocks
            continue
        blk = blocks[k, k]
        expected = ising8.block(0, k)
        assert all(blk[i, j] == expected[i, j]
                   for i in range(d) for j in range(d))
        assert blk[0, 0] == CFrac(k)  # h = 0 vacuum module


def test_cutoff_cannot_exceed_truncation(ising8):
    with pytest.raises(ValueError, match="exceeds truncation level"):
        smear(ising8, cosine_field(2), cutoff=9)


def test_exact_rep_refuses_float_fields(ising8):
    # also when every mode lies beyond the cutoff
    for n in (2, 9):
        lossy = FourierField({n: 0.25 + 0j, -n: 0.25 + 0j})
        with pytest.raises(TypeError, match="exact representation needs an exact field"):
            smear(ising8, lossy)


def test_truncation_bias_is_recorded_for_the_piecewise_field(
        ising8_float, piecewise):
    # infinite support, finite cutoff; judging the bias is the caller's job
    op = smear(ising8_float, piecewise)
    assert op.truncation_bias > 0


# ---------------------------------------------------------------------------
# hermiticity


def test_real_fields_give_exactly_hermitian_operators(ising8):
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_real_field(rng, max_mode=3, denominator=8)
        report = hermiticity_residual(smear(ising8, f))
        assert report.zero is True
        assert report.max_abs == 0.0


def test_float_hermiticity_is_tight(ising8_float):
    report = hermiticity_residual(smear(ising8_float, cosine_field(2)))
    assert report.max_abs <= 1e-12


def test_non_real_field_is_not_hermitian(ising8):
    report = hermiticity_residual(smear(ising8, mode_field(2)))
    assert report.zero is False
    assert report.max_abs > 0


def _entrywise_hermiticity(op):
    """D_dst[i] T[i,j] - conj(T'[j,i]) D_src[j] over every entry: (max abs, any nonzero).
    D is 1.0 throughout in the orthonormal bases of a float rep."""
    rep, blocks = op.rep, op.blocks()
    norms = [np.ones(rep.dim(k)) if rep.mode == "float" else rep.norms(k)
             for k in range(rep.N + 1)]
    worst, nonzero = 0.0, False
    for dst in range(rep.N + 1):
        for src in range(rep.N + 1):
            a, b = blocks.get((dst, src)), blocks.get((src, dst))
            for i in range(rep.dim(dst)):
                for j in range(rep.dim(src)):
                    lhs = (0 if a is None else a[i, j]) * norms[dst][i]
                    rhs = (0 if b is None else b[j, i].conjugate()) * norms[src][j]
                    diff = lhs - rhs
                    nonzero = nonzero or bool(diff)
                    worst = max(worst, abs(complex(diff)))
    return worst, nonzero


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_hermiticity_residual_is_the_entrywise_condition(mode, ising8, ising8_float,
                                                         piecewise):
    rep = ising8 if mode == "exact" else ising8_float
    rng = np.random.default_rng(11)
    ops = [random_real_field(rng, max_mode=3, denominator=8) for _ in range(3)]
    ops += [mode_field(2), mode_field(2, amplitude=CFrac(0, 1))]
    if mode == "float":
        ops.append(piecewise)
    for field in ops:
        op = smear(rep, field)
        report = hermiticity_residual(op)
        worst, nonzero = _entrywise_hermiticity(op)
        assert report.max_abs == worst
        if mode == "exact":
            assert report.zero == (not nonzero)


def _cfrac_hermiticity(op):
    """The residual R = D_dst A - conj(B)^T D_src of each level pair, with
    A and B the operator's blocks formed entry by entry (op.blocks), in
    CFrac arithmetic, and reduced by Residual.of: (max abs, exact zero)."""
    rep, blocks = op.rep, op.blocks()
    total = Residual()
    for dst, src in {(min(key), max(key)) for key in blocks}:
        a, b = blocks.get((dst, src)), blocks.get((src, dst))
        a = zeros((rep.dim(dst), rep.dim(src)), rep.mode) if a is None else a
        b = zeros((rep.dim(src), rep.dim(dst)), rep.mode) if b is None else b
        total |= Residual.of(a * np.asarray(rep.norms(dst))[:, None]
                             - np.conj(b).T * np.asarray(rep.norms(src))[None, :])
    return total.max_abs, total.zero


@pytest.mark.parametrize("c,h,N", [(Fraction(7, 10), Fraction(3, 5), 9),
                                   (Fraction(2), Fraction(1), 7)])
def test_integer_hermiticity_equals_the_cfrac_route(c, h, N):
    rep = verma.truncated_rep(c, h, N)
    rng = np.random.default_rng(5)
    real = random_real_field(rng, max_mode=3, denominator=8)
    non_real = mode_field(-3, amplitude=CFrac(Fraction(1, 7), Fraction(-3, 11)))
    ops = [smear(rep, real), smear(rep, mode_field(2)), smear(rep, non_real)]
    # one block of the rep off by a tiny and by a large part
    key = next(k for k, blk in rep.blocks.items() if 0 < abs(k[0]) <= 3 and blk.size)
    for part in (Fraction(1, 10 ** 30), Fraction(3, 7)):
        ops.append(smear(_perturbed(rep, key, lambda x: x + part), real))
    reports = [hermiticity_residual(op) for op in ops]
    assert [r.zero for r in reports] == [True, False, False, False, False]
    for op, report in zip(ops, reports):
        max_abs, zero = _cfrac_hermiticity(op)
        assert report.max_abs.hex() == max_abs.hex()
        assert report.zero == zero


_AMPLITUDES = st.builds(CFrac, st.fractions(min_value=-4, max_value=4, max_denominator=9),
                        st.fractions(min_value=-4, max_value=4, max_denominator=9))


@st.composite
def _exact_fields(draw):
    """Exact fields on modes |n| <= 3: real ones (f_hat(-n) = conj f_hat(n))
    and arbitrary ones."""
    coeffs = {n: draw(_AMPLITUDES) for n in range(-3, 4) if draw(st.booleans())}
    if draw(st.booleans()):
        real = {n: a for n, a in coeffs.items() if n > 0}
        real.update({-n: a.conjugate() for n, a in real.items()})
        if 0 in coeffs:
            real[0] = CFrac(coeffs[0].re)
        coeffs = real
    return FourierField(coeffs)


@settings(max_examples=40, deadline=None)
@given(_exact_fields(), st.sampled_from([(Fraction(7, 10), Fraction(3, 5), 6),
                                          (Fraction(2), Fraction(1), 5)]))
def test_factored_hermiticity_equals_the_eager_route(field, point):
    op = smear(verma.truncated_rep(*point), field)
    report = hermiticity_residual(op)
    max_abs, zero = _cfrac_hermiticity(op)
    assert report.max_abs.hex() == max_abs.hex()
    assert report.zero == zero
    if field.real:
        assert report.zero is True


def test_blocks_are_the_coefficient_times_the_rep_block(ising8):
    rng = np.random.default_rng(2)
    field = random_real_field(rng, max_mode=3, denominator=8)
    op = smear(ising8, field)
    entries = op.blocks()
    assert set(entries) == set(op.factors)
    for (dst, src), (blk, a) in op.factors.items():
        assert blk is ising8.block(src - dst, src)
        assert a == field.coefficient(src - dst)
        want = np.array([[x * a for x in row] for row in blk.tolist()],
                        dtype=object).reshape(blk.shape)
        assert (entries[dst, src] == want).all()


# ---------------------------------------------------------------------------
# vacuum norms


def test_vacuum_norm_of_single_lowering_mode():
    # (c/12)(m^3 - m) at m = 2, c = 1/2
    assert vacuum_norm(mode_field(-2), Fraction(1, 2)) == Fraction(1, 4)


def test_vacuum_norm_of_two_cosine():
    # T(2 cos 2 theta) has f_hat(-2) = 1, so the norm matches mode -2
    assert vacuum_norm(cosine_field(2, 2), Fraction(1, 2)) == Fraction(1, 4)


def test_mobius_pieces_kill_the_vacuum():
    assert vacuum_norm(mobius_piece(1 + 0j), Fraction(1, 2)) == 0


def test_closed_form_matches_matrix_route_exactly(ising8):
    f = cosine_field(2, 2)
    closed = vacuum_norm(f, Fraction(1, 2))
    matrix = vacuum_norm_from_rep(smear(ising8, f))
    assert closed == matrix == Fraction(1, 4)


def test_piecewise_vacuum_norm(ising8_float, piecewise):
    closed = vacuum_norm(piecewise, 0.5, cutoff=8)
    assert closed == pytest.approx(0.04631825537935441, rel=1e-12)
    matrix = vacuum_norm_from_rep(smear(ising8_float, piecewise, cutoff=8))
    assert abs(closed - matrix) <= 1e-8


def test_float_fourier_vacuum_norm(ising8_float):
    # the closed form's float branch for a finitely supported field, as
    # `vircut smear --mode float` reaches it with a decimal CSV at h = 0
    c = Fraction(1, 2)
    decimal = FourierField({2: 0.25 - 0.1j, -2: 0.25 + 0.1j}, real=True)
    rational = FourierField({2: CFrac(Fraction(1, 4), Fraction(-1, 10)),
                             -2: CFrac(Fraction(1, 4), Fraction(1, 10))}, real=True)
    assert not decimal.is_exact and rational.is_exact
    closed = vacuum_norm(decimal, c)
    assert type(closed) is float
    assert abs(closed - vacuum_norm_from_rep(smear(ising8_float, decimal))) <= 1e-8
    exact = vacuum_norm(rational, c)
    assert exact == Fraction(29, 1600)
    assert closed == pytest.approx(float(exact), rel=1e-15)


def test_piecewise_vacuum_norm_needs_cutoff(piecewise):
    with pytest.raises(ValueError, match="explicit cutoff"):
        vacuum_norm(piecewise, Fraction(1, 2))


def test_vacuum_norm_needs_vacuum_module(ising_half_8):
    with pytest.raises(ValueError, match="h = 0"):
        vacuum_norm_from_rep(smear(ising_half_8, mode_field(-2)))


# ---------------------------------------------------------------------------
# heat commutators


def test_heat_commutator_validation(ising8_float):
    with pytest.raises(ValueError, match="eps must be positive"):
        heat_identity_residual(ising8_float, 2, 0.0)
    with pytest.raises(ValueError, match="exceeds truncation level"):
        heat_identity_residual(ising8_float, 9, 0.5)


def test_heat_identity_residual_is_tiny(ising8_float):
    for n in (-8, -3, -1, 1, 2, 5, 8):
        for eps in (1e-4, 0.5, 3.0):
            assert heat_identity_residual(ising8_float, n, eps) <= 1e-12


def test_fm_sup_closed_form():
    eps, sup_sq = fm_sup(1.0, 1)
    assert eps == pytest.approx(math.log(2.0))
    assert sup_sq == pytest.approx(1.0 / 16.0)
    assert fm_sup(0.0, 3) == (math.inf, 1.0)
    # (k + m)/k overflows at the smallest subnormal k; ln((k+m)/k)/m does not
    eps, sup_sq = fm_sup(5e-324, 2)
    assert eps == pytest.approx((math.log(2.0) - math.log(5e-324)) / 2, rel=1e-15)
    assert eps == pytest.approx(372.567, abs=1e-3)
    assert sup_sq == 1.0


def test_fm_sup_validation():
    with pytest.raises(ValueError, match="m must be a positive integer"):
        fm_sup(1.0, 0)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        fm_sup(-1.0, 2)


def test_fm_sup_dominates_samples():
    grid = np.linspace(1e-5, 30.0, 400)
    for k in (0.0, 1.0, 4.0, 20.0):
        for m in (1, 2, 5):
            _, sup_sq = fm_sup(k, m)
            vals = (np.exp(-grid * k) - np.exp(-grid * (k + m))) ** 2
            assert float(vals.max()) <= sup_sq * (1 + 1e-12)


# ---------------------------------------------------------------------------
# recursion


def test_recursion_checks_exact_on_the_vacuum_module(ising12):
    res = lemma_recursion_checks(ising12)
    assert res["level2_dimension_one"] is True
    assert res["recursion_exact"] is True
    assert res["propagation_exact"] is True
    assert res["zeta"] == "5/3"


def test_recursion_checks_need_vacuum_module(ising_half_8):
    with pytest.raises(ValueError, match="vacuum module"):
        lemma_recursion_checks(ising_half_8)


def test_recursion_exactness_is_read_from_the_rationals():
    # 10^-400 rounds to 0.0 as a float, but the rational is not zero
    rep = _perturbed(verma.truncated_rep(Fraction(1, 2), 0, 6), (-1, 3),
                     lambda x: x + Fraction(1, 10 ** 400))
    res = lemma_recursion_checks(rep)
    assert res["recursion_max_abs"] == 0.0
    assert res["recursion_exact"] is False
    assert res["propagation_exact"] is False
    assert relation_residual_summary(rep)["exact_zero"] is False


def test_a_nan_entry_fails_every_float_check():
    rep = verma.truncated_rep(Fraction(1, 2), 0, 6, "float")
    nan = _perturbed(rep, (2, 4), lambda x: math.nan)
    assert math.isnan(hermiticity_residual(smear(nan, cosine_field(2))).max_abs)
    assert math.isnan(commutator_residual(nan, cosine_field(2), cosine_field(1))["max_abs"])
    res = lemma_recursion_checks(_perturbed(rep, (-1, 3), lambda x: math.nan))
    assert math.isnan(res["recursion_max_abs"]) and math.isnan(res["propagation_max_abs"])


# ---------------------------------------------------------------------------
# commutator residuals


def test_safe_window_shrinks_with_the_lowest_mode(ising8):
    assert pair_safe_levels(ising8, cosine_field(2), cosine_field(3)) == \
        tuple(range(6))
    assert pair_safe_levels(ising8, mode_field(2), mode_field(1)) == \
        tuple(range(9))


def test_commutator_identity_exact(ising8):
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = random_real_field(rng, max_mode=3, denominator=8)
        g = random_real_field(rng, max_mode=3, denominator=8)
        res = commutator_residual(ising8, f, g)
        assert res["exact_zero"] is True
        assert res["max_abs"] == 0.0
        assert res["cells"] > 0


def test_commutator_identity_float(ising8_float):
    res = commutator_residual(ising8_float, cosine_field(2), cosine_field(3))
    assert res["max_abs"] <= 1e-12
    assert res["window"] == tuple(range(6))


def test_commutator_cocycle_shows_up_on_conjugate_modes(ising8):
    res = commutator_residual(ising8, mode_field(2), mode_field(-2))
    assert res["exact_zero"] is True
    assert res["omega"] == str(CFrac(Fraction(1, 4)))


def test_bracket_support_must_fit(ising8):
    with pytest.raises(ValueError, match="bracket support exceeds"):
        commutator_residual(ising8, cosine_field(5), cosine_field(4))


# ---------------------------------------------------------------------------
# the energy bound


def random_vector(rng, rep):
    """Standard normal coordinates in the orthonormal basis, per level."""
    return {k: rng.standard_normal(rep.dim(k))
            for k in range(rep.N + 1) if rep.dim(k) > 0}


def energy_bound_ratio(op, field_norm, vec):
    """||T(f) v|| / (||f||_{3/2} ||(1 + L0) v||) for one graded vector."""
    rep = op.rep
    num = math.sqrt(float(vector_norm_squared(rep, op.apply(vec))))
    shifted = {k: v * (1.0 + float(rep.h) + k) for k, v in vec.items()}
    den = field_norm * math.sqrt(float(vector_norm_squared(rep, shifted)))
    return num / den


@pytest.mark.parametrize("c, h, N", [
    (Fraction(1, 2), 0, 8), (Fraction(7, 10), Fraction(3, 5), 8),
    (Fraction(1), Fraction(1, 4), 8), (Fraction(2), 0, 10),
], ids=["1/2,0,8", "7/10,3/5,8", "1,1/4,8", "2,0,10"])
def test_energy_bound_holds_with_the_estimated_r(c, h, N):
    # ||L_n v_k|| <= r_hat sqrt(k^2 + k n^2 + |n|^3) ||v_k|| on every cell
    # estimate_r sweeps (the skipped n = k = 0 cell needs h <= r_hat (1 + h),
    # and r_hat >= 1 from the n = 0 cells), and k^2 + k n^2 + |n|^3 <=
    # (1+k)^2 (1+|n|^{3/2})^2 with 1 + k <= 1 + L0 on level k, so the
    # triangle inequality over the modes of f gives
    # ||T(f) v|| <= r_hat ||f||_{3/2} ||(1 + L0) v||.
    rep = verma.truncated_rep(c, h, N, "float")
    r_hat = estimate_r(c, N, h, rep=rep).derived["r_hat"]
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_real_field(rng, max_mode=int(rng.integers(1, N + 1)))
        op = smear(rep, f)
        norm = norm_three_halves(f, N).partial_sum
        ratio = energy_bound_ratio(op, norm, random_vector(rng, rep))
        assert ratio <= r_hat * (1 + 1e-12)


def test_vector_norm_squared_exact(ising8):
    vac = {0: np.array([CFrac(2)], dtype=object)}
    assert vector_norm_squared(ising8, vac) == Fraction(4)

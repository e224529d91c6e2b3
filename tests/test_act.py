"""Symbolic action of the modes on monomials: the monomial blocks of L_n
and the adjoint route of gram_entry_direct."""

from fractions import Fraction

import numpy as np
import pytest

from vircut.verma import (_Module, block_keys, enumerate_partitions, gram_entry_direct,
                          monomial_block, partition_count)

C = Fraction(1, 2)
H = Fraction(0)


def _column(n, word, c=C, h=H):
    """L_n on the monomial word, as {word: coefficient} of its nonzero entries."""
    k = sum(word)
    block = monomial_block(n, k, c, h)
    col = block[:, enumerate_partitions(k).index(word)]
    return {w: x for w, x in zip(enumerate_partitions(k - n), col) if x != 0}


def test_l0_is_the_level():
    # L_0 on a level-6 monomial over lowest weight 3 gives (3 + 6) v
    block = monomial_block(0, 6, C, Fraction(3))
    assert block.shape == (11, 11)
    assert _column(0, (3, 2, 1), h=Fraction(3)) == {(3, 2, 1): 9}
    assert all(block[i, j] == (9 if i == j else 0) for i in range(11) for j in range(11))


def test_lowering_prepends_to_the_word():
    assert monomial_block(-3, 2, C, H).shape == (7, 2)
    assert _column(-3, (2,)) == {(3, 2): 1}


def test_lowering_straightens_out_of_order_modes():
    # L_{-2} L_{-1} is already ordered; L_{-1} L_{-2} = L_{-2} L_{-1} + [L_{-1}, L_{-2}]
    # = L_{-2} L_{-1} + L_{-3}
    assert _column(-2, (1,)) == {(2, 1): 1}
    assert _column(-1, (2,)) == {(2, 1): 1, (3,): 1}


def test_commutator_on_vacuum_includes_central_term():
    # L_2 L_{-2} Omega = [L_2, L_{-2}] Omega = (4 L_0 + c/2) Omega
    up = monomial_block(2, 2, C, H)[:, 0] @ monomial_block(-2, 0, C, H)[0]
    assert up == 4 * H + C / 2
    assert gram_entry_direct(C, H, (2,), (2,)) == 4 * H + C / 2


def test_annihilation_above_the_top():
    assert monomial_block(1, 0, C, H) is None
    assert monomial_block(5, 2, C, H) is None
    # the oracle's vector is pushed below level 0 and vanishes
    assert gram_entry_direct(C, H, (5,), (2,)) == 0
    assert gram_entry_direct(C, H, (1, 1, 1), (2,)) == 0


def test_translation_recursion_on_vacuum():
    # L_{-1} L_{-n} Omega = (n - 1) L_{-n-1} Omega + L_{-n} L_{-1} Omega
    for n in range(2, 8):
        assert _column(-1, (n,)) == {(n + 1,): n - 1, (n, 1): 1}


# ---------------------------------------------------------------------------
# an independent oracle: plain Fraction straightening, no vircut code

def _straighten(modes, c, h):
    """L_{m_1} ... L_{m_j} Phi as {word: coefficient}, by swapping the first
    adjacent pair of modes out of ascending order until every term is a
    word: L_a L_b = L_b L_a + (a - b) L_{a+b} + (c/12)(a^3 - a) delta_{a+b,0},
    with L_0 Phi = h Phi and L_m Phi = 0 for m > 0."""
    out, todo = {}, [(tuple(modes), Fraction(1))]
    while todo:
        ms, x = todo.pop()
        if ms and ms[-1] >= 0:
            if ms[-1] == 0:
                todo.append((ms[:-1], x * h))
            continue
        i = next((i for i in range(len(ms) - 1) if ms[i] > ms[i + 1]), None)
        if i is None:
            word = tuple(-m for m in ms)
            out[word] = out.get(word, 0) + x
            continue
        a, b = ms[i], ms[i + 1]
        todo.append((ms[:i] + (b, a) + ms[i + 2:], x))
        if a != b:
            todo.append((ms[:i] + (a + b,) + ms[i + 2:], x * (a - b)))
        if a + b == 0:
            todo.append((ms[:i] + ms[i + 2:], x * c * (a ** 3 - a) / 12))
    return {w: x for w, x in out.items() if x != 0}


# Numerators past the int64 bound by level 8, numerators past 2^53 over a
# scale below it, in blocks built both in int64 and on Python ints.
MIXED = (Fraction(7, 10 ** 13 + 1), Fraction(2, 7))
# h = 0 leaves terms whose coefficient A + B c/12 + C h vanishes only there;
# an 18-digit denominator puts the scale itself past 2^53, and (-2, -1/3)
# is a signed, non-unitary point.
ORACLE_POINTS = [(Fraction(1, 2), Fraction(0)), (Fraction(7, 10), Fraction(3, 5)),
                 (Fraction(2), Fraction(1)), MIXED,
                 (Fraction(1, 10 ** 17 + 3), Fraction(2, 7)), (Fraction(-2), Fraction(-1, 3))]


def test_the_mixed_point_takes_both_integer_routes():
    lowering = [_Module(*MIXED)._pbw(n, k) for n, k in block_keys(8) if n >= 0]
    assert {num.dtype for num, _, _ in lowering} == {np.dtype(np.int64), np.dtype(object)}
    assert any(num.dtype == np.int64 and peak >= 2 ** 53 for num, peak, _ in lowering)


@pytest.mark.parametrize("c, h", ORACLE_POINTS, ids=str)
def test_every_monomial_block_to_level_8_matches_plain_straightening(c, h):
    for n, k in block_keys(8):
        block = monomial_block(n, k, c, h)
        dst = enumerate_partitions(k - n)
        for j, word in enumerate(enumerate_partitions(k)):
            want = _straighten((n,) + tuple(-a for a in word), c, h)
            got = {w: x for w, x in zip(dst, block[:, j]) if x != 0}
            assert got == want, (n, word)
            assert all(type(x) is Fraction for x in block[:, j])


@pytest.mark.parametrize("c, h", ORACLE_POINTS, ids=str)
def test_float_monomial_blocks_round_each_exact_entry_once(c, h):
    for n, k in block_keys(10):
        exact = monomial_block(n, k, c, h)
        rounded = np.array([[float(x) for x in row] for row in exact]).reshape(exact.shape)
        assert monomial_block(n, k, c, h, "float").tobytes() == rounded.tobytes()


# ---------------------------------------------------------------------------
# the block kernel against the word-by-word route of gram_entry_direct

def _act_numerators(module, n, k):
    """L_n from level k as numerators over module.scale, word by word
    through _Module.act."""
    wa, wb, wc = module._weights
    dst = {w: i for i, w in enumerate(enumerate_partitions(k - n))}
    out = np.zeros((partition_count(k - n), partition_count(k)), dtype=object)
    for j, word in enumerate(enumerate_partitions(k)):
        flat = module.act(n, word)
        for w, a, b, c in zip(flat[::4], flat[1::4], flat[2::4], flat[3::4]):
            out[dst[w], j] = a * wa + b * wb + c * wc
    return out


def test_block_kernel_matches_the_act_route_just_under_the_int64_bound():
    # at (25/28, 15/28) the numerators of level 16 pass 2^60
    module = _Module(Fraction(25, 28), Fraction(15, 28))
    peak = 0
    for n, k in block_keys(16):
        want = _act_numerators(module, n, k)
        form = module.monomial_form(n, k)
        assert (form.num * module.scale == want * form.row[:, None]).all(), (n, k)
        rounded = np.array([x / module.scale for x in want.ravel()]).reshape(want.shape)
        assert module.monomial(n, k, "float").tobytes() == rounded.tobytes(), (n, k)
        peak = max([peak, *map(abs, want.ravel())])
    assert peak.bit_length() == 61

"""Symbolic action of the modes on monomials: the monomial blocks of L_n
and the adjoint route of gram_entry_direct."""

from fractions import Fraction

from vircut.verma import enumerate_partitions, gram_entry_direct, monomial_block

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

"""Level dimensions of the unitary minimal models against their characters.

The character of the irreducible module (r, s) of M(p, p') (Rocha-Caridi
1985) is, up to the factor q^(h - c/24),

    Sum_k (q^A_k - q^B_k) / Prod_n (1 - q^n),
    A_k = ((2pp'k + p'r - ps)^2 - (p'r - ps)^2) / (4pp'),
    B_k = ((2pp'k + p'r + ps)^2 - (p'r - ps)^2) / (4pp'),

so the dimension of level N is the coefficient of q^N.  The partition
numbers are counted here, not taken from verma.

Beyond the minimal models (Feigin and Fuchs, LNM 1060, 1984): the Verma
module is reducible only where the Kac determinant vanishes, at some
h = h_{r,s}(c).  For c > 1 and h > 0 every h_{r,s}(c) is negative or
non-real, and at c = 1 they are the (r - s)^2/4; off them level k has
p(k) states.  At c = 1 and h = m^2/4 the character is
(q^{m^2/4} - q^{(m+2)^2/4})/eta, so level k has p(k) - p(k - m - 1).
"""

from fractions import Fraction

import pytest

from vircut.verma import truncated_rep


def _partition_numbers(top: int) -> list[int]:
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for n in range(part, top + 1):
            counts[n] += counts[n - part]
    return counts


def _exponent(x: int, p: int, pp: int) -> int:
    """x / (4pp'), which every theta exponent divides exactly."""
    level, rest = divmod(x, 4 * p * pp)
    assert rest == 0
    return level


def character_dims(p: int, r: int, s: int, N: int) -> tuple[int, ...]:
    """Level dimensions 0..N of the module (r, s) of M(p, p + 1)."""
    pp = p + 1
    base = (pp * r - p * s) ** 2
    numerator = [0] * (N + 1)
    for k in range(-N, N + 1):
        a = _exponent((2 * p * pp * k + pp * r - p * s) ** 2 - base, p, pp)
        b = _exponent((2 * p * pp * k + pp * r + p * s) ** 2 - base, p, pp)
        if a <= N:
            numerator[a] += 1
        if b <= N:
            numerator[b] -= 1
    parts = _partition_numbers(N)
    return tuple(sum(numerator[j] * parts[level - j] for j in range(level + 1))
                 for level in range(N + 1))


def kac_points(p: int) -> list[tuple[Fraction, Fraction, int, int]]:
    """(c, h, r, s) for each distinct Kac point of M(p, p + 1)."""
    pp = p + 1
    c = 1 - Fraction(6, p * pp)
    seen, out = set(), []
    for r in range(1, p):
        for s in range(1, pp):
            h = Fraction((pp * r - p * s) ** 2 - 1, 4 * p * pp)
            if h not in seen:
                seen.add(h)
                out.append((c, h, r, s))
    return out


POINTS = [(p, *point) for p in (3, 4, 5) for point in kac_points(p)]


def test_the_three_models_have_nineteen_distinct_kac_points():
    assert len(POINTS) == 3 + 6 + 10


def test_the_character_of_the_ising_vacuum():
    # 1 + q^2 + q^3 + 2q^4 + 2q^5 + 3q^6 + 3q^7 + 5q^8 (the (1, 1) module of M(3, 4))
    assert character_dims(3, 1, 1, 8) == (1, 0, 1, 1, 2, 2, 3, 3, 5)


@pytest.mark.parametrize("mode, N", [("exact", 8), ("float", 12)])
@pytest.mark.parametrize("p, c, h, r, s", POINTS,
                         ids=[f"M({p},{p + 1})-h={h}" for p, _, h, _, _ in POINTS])
def test_builder_dims_match_the_character(p, c, h, r, s, mode, N):
    assert truncated_rep(c, h, N, mode).level_dims == character_dims(p, r, s, N)


# c >= 1 at h off the Kac table: the irreducible Verma module
GENERIC_POINTS = [(Fraction(c), Fraction(h)) for c in ("1", "3/2", "2", "4", "10", "26")
                  for h in ("1/2", "5")]


@pytest.mark.parametrize("c, h", GENERIC_POINTS, ids=[f"c={c},h={h}" for c, h in GENERIC_POINTS])
def test_exact_dims_off_the_kac_table_are_the_partition_numbers(c, h):
    assert truncated_rep(c, h, 10).level_dims == tuple(_partition_numbers(10))


@pytest.mark.parametrize("m", range(9))
def test_exact_dims_at_c_one_and_h_m_squared_over_four(m):
    parts = _partition_numbers(10)
    dims = tuple(parts[k] - (parts[k - m - 1] if k > m else 0) for k in range(11))
    assert truncated_rep(Fraction(1), Fraction(m * m, 4), 10).level_dims == dims

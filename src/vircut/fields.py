"""Vector fields on the circle represented by Fourier data.

A field f(theta) d/dtheta is stored through its Fourier coefficients
f_hat(n) = (1/2pi) Int e^{-in theta} f(e^{i theta}) dtheta, so that
f(theta) = Sum_n f_hat(n) e^{in theta}.  Reality of f is the symmetry
f_hat(-n) == conj(f_hat(n)).

Two kinds of fields appear:

* FourierField: a finitely supported coefficient table, either exact
  (CFrac entries) or floating (complex entries).  These are what smeared
  operators consume directly.

* PiecewiseMobiusField: the C^1 field glued from four rotated copies of
  g1(z) = (i-1)z + 2 - (i+1)/z on the quarter arcs between the corner
  points 1, i, -1, -i.  It is one fixed field and takes no pieces.
  Piece j lives on theta in [j pi/2, (j+1) pi/2] and equals p^2 g1(z/p)
  with p = i^j, i.e. its coefficient at mode m is p^{2-m} g1_hat(m).
  corner_table reads the exact one-sided values and first and second
  derivatives where the pieces meet: the values vanish, the first
  derivatives agree and the second jump by 4.  The rotation
  antisymmetry f(i z) = -f(z) forces
  f_hat(n) = 0 unless n = 2 mod 4, and there f_hat(n) = 8i/(pi n (n^2-1)).
  Each consumer reads one of three routes to these coefficients:

  - closed_kernel, the real float 8/(pi n (n^2-1)) on a float64 array:
    the mollifier weight series reads it directly, and coefficient_closed
    (i times the kernel, masked to n = 2 mod 4) serves every other float
    consumer: the decay and norm sweeps, the vacuum norm, truncation and
    partial sums.
  - closed_form, the exact scalar a = 8i/(n (n^2-1)) with f_hat(n) = a/pi:
    fourier_coefficient, and through it coefficient_rows and the CSVs.
  - coefficient_exact, the exact arc integrals of trigonometric monomials
    as (a, b) with f_hat(n) = a/pi + b, summed over the Gaussian integers
    with one fraction per monomial: only the oracle, read by the
    piecewise-field criterion and the tests.

The scale for smearing bounds is norm_three_halves, the weighted l^1 sum
Sum_n |f_hat(n)| (1 + |n|^{3/2}).  FEJER holds the Fejer multipliers
m_k(n) = max(0, 1 - |n|/(k+1)); bounds.mollifier_report weighs each
coefficient by 1 - m_k(n) to sum the smoothing error without forming the
smoothed field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from .rational import CFrac, as_fraction

Coefficient = Union[CFrac, complex]

# Powers of i as exact scalars, indexed mod 4.
_POW_I = (CFrac(1, 0), CFrac(0, 1), CFrac(-1, 0), CFrac(0, -1))


def _ipow(k: int) -> CFrac:
    return _POW_I[k % 4]


def _canon(value) -> Coefficient:
    if isinstance(value, CFrac):
        return value
    if isinstance(value, complex):
        return value
    if isinstance(value, float):
        return complex(value)
    return CFrac.of(value)


def _is_zero(value: Coefficient) -> bool:
    return not value if isinstance(value, CFrac) else value == 0


@dataclass(frozen=True)
class FourierField:
    """Finitely supported Fourier coefficient table.

    Coefficients may be exact (CFrac, or anything Fraction-like) or complex
    floats; mixing the two downgrades the whole table to floats.  The
    reality flag is validated when passed and auto-detected when omitted.
    """

    coefficients: Mapping[int, Coefficient]
    real: Optional[bool] = None

    def __post_init__(self):
        clean = {}
        for n, a in self.coefficients.items():
            a = _canon(a)
            if _is_zero(a):
                continue
            clean[int(n)] = a
        if clean and not all(isinstance(a, CFrac) for a in clean.values()):
            clean = {n: complex(a) for n, a in clean.items()}
        symmetric = all(clean.get(-n) == a.conjugate() for n, a in clean.items())
        if self.real is None:
            object.__setattr__(self, "real", symmetric)
        elif self.real and not symmetric:
            bad = sorted(n for n, a in clean.items() if clean.get(-n) != a.conjugate())
            raise ValueError(f"reality violated at modes {bad}")
        object.__setattr__(self, "coefficients", clean)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(a, CFrac) for a in self.coefficients.values())

    def coefficient(self, n: int) -> Coefficient:
        zero = CFrac(0) if self.is_exact else 0j
        return self.coefficients.get(n, zero)


def mode_field(n: int, amplitude=1) -> FourierField:
    """Single Fourier mode: f(theta) = amplitude * e^{in theta}."""
    return FourierField({n: _canon(amplitude)})


def cosine_field(n: int, amplitude=1) -> FourierField:
    """Real field amplitude * cos(n theta)."""
    half = _canon(amplitude) * CFrac(Fraction(1, 2))
    return FourierField({n: half, -n: half} if n else {0: _canon(amplitude)})


def random_real_field(rng: np.random.Generator, max_mode: int = 3,
                      denominator: int = 8) -> FourierField:
    """Random real field with exact rational coefficients, support <= max_mode."""
    coeffs: dict[int, CFrac] = {}
    coeffs[0] = CFrac(Fraction(int(rng.integers(-denominator, denominator + 1)),
                               denominator))
    for n in range(1, max_mode + 1):
        a = CFrac(Fraction(int(rng.integers(-denominator, denominator + 1)), denominator),
                  Fraction(int(rng.integers(-denominator, denominator + 1)), denominator))
        coeffs[n] = a
        coeffs[-n] = a.conjugate()
    return FourierField(coeffs, real=True)


# The three Fourier coefficients (g1_hat(-1), g1_hat(0), g1_hat(1)) of the
# basic Mobius piece g1(z) = (i-1)z + 2 - (i+1)/z.
G1_COEFFICIENTS = (CFrac(-1, -1), CFrac(2, 0), CFrac(-1, 1))

CORNERS = (1 + 0j, 1j, -1 + 0j, -1j)


def mobius_piece(p: complex) -> FourierField:
    """The piece g_p = p^2 g1(z/p) extended to the whole circle.

    Support {-1, 0, 1}; these are the fields whose smeared operators
    annihilate the vacuum.
    """
    j = _corner_index(p)
    coeffs = {m: _ipow(j * (2 - m)) * G1_COEFFICIENTS[m + 1] for m in (-1, 0, 1)}
    return FourierField(coeffs, real=True)


def _corner_index(p) -> int:
    for j, q in enumerate(CORNERS):
        if complex(p) == q:
            return j
    raise ValueError(f"corner must be one of 1, i, -1, -i, got {p!r}")


@dataclass(frozen=True)
class PiecewiseMobiusField:
    """The glued field: four rotated Mobius pieces on quarter arcs.

    The field is fixed and takes no arguments.  pieces[j][m+1] is the
    coefficient of e^{im theta} of the piece g_p, p = i^j, on
    [j pi/2, (j+1) pi/2]; every closed form below is this field's.
    """

    pieces = tuple(tuple(mobius_piece(p).coefficient(m) for m in (-1, 0, 1))
                   for p in CORNERS)
    # complex(a) of every piece coefficient, which evaluate reads
    complex_pieces = tuple(tuple(complex(a) for a in piece) for piece in pieces)

    def coefficient_exact(self, n: int) -> tuple[CFrac, CFrac]:
        """Exact Fourier coefficient as (a, b) with f_hat(n) = a/pi + b.

        The oracle for closed_form, from the arc integrals of the monomials
        e^{i d theta}, d = m - n: over piece j's arc that integral is
        (i^d - 1) i^{dj}/(i d), or pi/2 when d = 0.  The pieces are
        Gaussian integers and a power of i rotates an integer pair, so for
        each m the four arcs sum over the integers and form one fraction.
        The 1/(2 pi) normalization halves everything.
        """
        a = CFrac(0)
        b = CFrac(0)
        for m in (-1, 0, 1):
            d = m - n
            x = y = 0  # Sum_j g_{j,m} i^{dj}
            for j, piece in enumerate(self.pieces):
                g = piece[m + 1]
                gx, gy = _rotate(g.re.numerator, g.im.numerator, d * j)
                x, y = x + gx, y + gy
            if d == 0:
                b = CFrac(Fraction(x, 4), Fraction(y, 4))  # (pi/2) (x + iy)/(2 pi)
            else:
                rx, ry = _rotate(x, y, d)
                x, y = rx - x, ry - y  # times i^d - 1
                a = a + CFrac(Fraction(y, 2 * d), Fraction(-x, 2 * d))  # /(2 i d)
        return a, b

    @property
    def decay_constant(self) -> float:
        # |f_hat(n)| |n|^3 = (8/pi) n^2/(n^2-1), maximal at |n| = 2.
        return 32.0 / (3.0 * math.pi)

    def closed_form(self, n: int) -> CFrac:
        """Exact a with f_hat(n) = a/pi: 8i/(n (n^2-1)) on n = 2 mod 4, else 0."""
        if n % 4 != 2:
            return CFrac(0)
        return CFrac(0, Fraction(8, n * (n * n - 1)))

    @staticmethod
    def closed_kernel(nf: np.ndarray) -> np.ndarray:
        """Real 8/(pi n (n^2-1)) on float64 modes: |f_hat(n)| for n > 0 on
        the support n = 2 mod 4, which the caller selects."""
        return 8.0 / (math.pi * nf * (nf * nf - 1.0))

    @staticmethod
    def coefficient_closed(ns) -> np.ndarray:
        """Complex f_hat(n) = 8i/(pi n (n^2-1)) on n = 2 mod 4, else 0, per n.

        Agrees exactly with coefficient_exact (covered by tests).  The
        real part is a zero with the sign of n.  The glued field is one
        fixed field, so this needs no instance.
        """
        ns = np.asarray(ns)
        with np.errstate(divide="ignore", invalid="ignore"):  # n = 0, +-1
            values = PiecewiseMobiusField.closed_kernel(ns.astype(np.float64)) * 1j
        return np.where(ns % 4 == 2, values, 0)


def _rotate(x: int, y: int, k: int) -> tuple[int, int]:
    """(x + iy) i^k as an integer pair."""
    return ((x, y), (-y, x), (-x, -y), (y, -x))[k % 4]


def build_piecewise_mobius() -> PiecewiseMobiusField:
    """The unique continuous real field glued from the four Mobius pieces."""
    return PiecewiseMobiusField()


def fourier_coefficient(field, n: int) -> Coefficient:
    """Coefficient f_hat(n); exact scalars pass through unconverted."""
    if isinstance(field, FourierField):
        return field.coefficient(n)
    if isinstance(field, PiecewiseMobiusField):
        return complex(field.closed_form(n)) / math.pi
    raise TypeError(f"unsupported field type {type(field).__name__}")


def fourier_coefficient_quadrature(field, n: int) -> complex:
    """Coefficient f_hat(n) by quadrature of evaluate(field, t), the route
    independent of the closed form.

    Integrates each of the four arcs separately with a 32-node
    Gauss-Legendre rule: on an arc the glued field is one Mobius piece,
    so the integrand is entire there.  One panel per arc reaches machine
    precision up to |n| = 38 (2.5e-15 there, 5e-13 at n = 42), so from
    |n| = 36 on each arc is split into 1 + |n| // 36 panels.
    """
    nodes, weights = _gauss_legendre_32()
    panels = 1 + abs(n) // 36
    half = math.pi / 4 / panels
    total = 0j
    for j in range(4 * panels):
        t = (2 * j + 1) * half + half * nodes
        values = np.array([evaluate(field, x) for x in t])
        total += half * np.dot(weights, values * np.exp(-1j * n * t))
    return complex(total) / (2 * math.pi)


@lru_cache(maxsize=1)
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-node Gauss-Legendre rule on [-1, 1],
    read-only."""
    # imported here: only this oracle route reads numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def truncated_fourier(field: PiecewiseMobiusField, cutoff: int) -> FourierField:
    """Materialize the glued field's modes |n| <= cutoff as a FourierField."""
    ns = np.arange(-cutoff, cutoff + 1)
    coeffs = field.coefficient_closed(ns)
    return FourierField({int(n): complex(a) for n, a in zip(ns, coeffs) if a}, real=True)


def evaluate(field, theta: float):
    """Pointwise value Sum f_hat(n) e^{in theta}; real part for real fields."""
    if isinstance(field, PiecewiseMobiusField):
        j = int(math.floor(theta / (math.pi / 2))) % 4
        val = sum(field.complex_pieces[j][m + 1] * np.exp(1j * m * theta)
                  for m in (-1, 0, 1))
        return val.real
    if isinstance(field, FourierField):
        val = sum(complex(a) * np.exp(1j * n * theta)
                  for n, a in field.coefficients.items())
        return val.real if field.real else val
    raise TypeError(f"unsupported field type {type(field).__name__}")


@lru_cache(maxsize=8)
def _series_terms(cutoff: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The glued field's support among the modes |n| <= cutoff, read-only:
    the index of its first mode (n = 2 mod 4) in that range, whose support
    modes follow at a stride of 4, and the phases 1j n and the coefficients
    there.  A profile evaluates one cutoff at many angles."""
    ns = np.arange(-cutoff, cutoff + 1)
    first = (2 + cutoff) % 4
    phases = 1j * ns[first::4]
    coeffs = PiecewiseMobiusField.coefficient_closed(ns[first::4])
    phases.flags.writeable = coeffs.flags.writeable = False
    return first, phases, coeffs


def evaluate_series(field: PiecewiseMobiusField, theta: float, cutoff: int) -> float:
    """Partial Fourier sum of the glued field up to |n| <= cutoff.

    Only the support modes are exponentiated; their terms go to their
    slots among zeros for all 2 cutoff + 1 modes, so numpy's pairwise sum
    adds them in the same association as the full series."""
    if not isinstance(field, PiecewiseMobiusField):
        raise TypeError(f"unsupported field type {type(field).__name__}")
    first, phases, coeffs = _series_terms(cutoff)
    powers = phases * theta
    np.exp(powers, out=powers)
    terms = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    np.multiply(coeffs, powers, out=terms[first::4])
    return float(np.add.reduce(terms).real)


def corner_table(field: PiecewiseMobiusField) -> list[dict]:
    """Exact one-sided values and theta-derivatives at the corners 1, i,
    -1, -i, one row each.  *_left belongs to the piece ending at the
    corner and *_right to the piece starting there; d2_jump is
    |d2_right - d2_left|."""
    rows = []
    for j, label in enumerate(("1", "i", "-1", "-i")):
        row = {"corner": label}
        for name, order in (("value", 0), ("d1", 1), ("d2", 2)):
            row[name + "_left"] = _piece_derivative(field, j - 1, order, j)
            row[name + "_right"] = _piece_derivative(field, j, order, j)
        row["d2_jump"] = abs(row["d2_right"] - row["d2_left"])
        rows.append(row)
    return rows


def _piece_derivative(field: PiecewiseMobiusField, j: int, order: int,
                      corner_idx: int) -> Fraction:
    # d^r/dtheta^r of piece j at theta = corner_idx * pi/2:
    # Sum_m (i m)^r g_{j,m} i^{m * corner_idx}, exact in Q[i].
    total = CFrac(0)
    for m in (-1, 0, 1):
        g = field.pieces[j % 4][m + 1]
        total = total + g * _ipow(order) * (m ** order) * _ipow(m * corner_idx)
    if not total.is_real():
        raise AssertionError(f"corner derivative came out complex: {total!r}")
    return total.re


class MollifierFamily:
    """Fejer multipliers m_k(n) = max(0, 1 - |n|/(k+1)), indexed by the
    smoothing order k and compactly supported on |n| <= k."""

    kind = "fejer"

    def multiplier(self, k: int, n):
        out = np.maximum(0.0, 1.0 - np.abs(np.asarray(n, dtype=np.float64)) / (k + 1))
        return float(out) if np.isscalar(n) else out


FEJER = MollifierFamily()


@dataclass(frozen=True)
class NormReport:
    """Partial sum of the norm Sum |f_hat(n)| (1 + |n|^{3/2}) up to a
    cutoff, and a rigorous bound on the rest (0.0 when the field has no
    mode beyond the cutoff)."""

    partial_sum: float
    tail_bound: float

    def total_bound(self) -> float:
        return self.partial_sum + self.tail_bound


def _weight(n) -> float:
    return 1.0 + float(abs(n)) ** 1.5


def norm_three_halves(field, cutoff: int) -> NormReport:
    """Weighted coefficient sum up to |n| <= cutoff, plus a rigorous tail bound.

    The tail bound uses the field's cubic decay constant when one is
    available: Sum_{|n|>K} M (1+|n|^{3/2})/|n|^3 <= 2M (1/(2K^2) + 2/sqrt(K))
    by integral comparison of the decreasing summands.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if isinstance(field, FourierField):
        partial = sum(abs(a) * _weight(n)
                      for n, a in field.coefficients.items() if abs(n) <= cutoff)
        tail = sum(abs(a) * _weight(n)
                   for n, a in field.coefficients.items() if abs(n) > cutoff)
        return NormReport(float(partial), float(tail))
    if isinstance(field, PiecewiseMobiusField):
        ns = np.arange(2, cutoff + 1)
        mags = np.abs(field.coefficient_closed(ns))
        partial = 2.0 * float(np.sum(mags * (1.0 + ns.astype(np.float64) ** 1.5)))
        m_hat = field.decay_constant
        tail = 2.0 * m_hat * (0.5 / cutoff**2 + 2.0 / math.sqrt(cutoff))
        return NormReport(partial, tail)
    raise TypeError(f"unsupported field type {type(field).__name__}")


def bracket_with_cocycle(f: FourierField, g: FourierField, c):
    """Lie bracket of smeared generators in Fourier terms.

    Returns (h, omega) with h_hat(k) = Sum_n (2n-k) f_hat(n) g_hat(k-n) and
    omega = (c/12) Sum_n f_hat(n) g_hat(-n) (n^3-n), so that on any safe
    window [T(f), T(g)] = T(h) + omega * identity.  The denominator 12 here
    belongs to the checking side of that identity and is fixed, like the
    one in verma's bracket-relation sweep (relation_residual_summary).
    """
    if not isinstance(f, FourierField) or not isinstance(g, FourierField):
        raise TypeError("bracket needs finitely supported fields")
    exact = f.is_exact and g.is_exact and not isinstance(c, float)
    c_val = as_fraction(c) if exact else float(c)
    zero = CFrac(0) if exact else 0j
    h: dict[int, Coefficient] = {}
    omega = zero
    for n, fa in f.coefficients.items():
        fa = fa if exact else complex(fa)
        for m, gb in g.coefficients.items():
            gb = gb if exact else complex(gb)
            k = n + m
            h[k] = h.get(k, zero) + (2 * n - k) * fa * gb
            if k == 0:
                central = Fraction(n**3 - n, 12) if exact else (n**3 - n) / 12.0
                omega = omega + fa * gb * central * c_val
    return FourierField(h), omega


def coefficient_rows(field, cutoff: int) -> list[tuple[int, float, float]]:
    """Rows (n, re, im) for CSV export, modes |n| <= cutoff."""
    rows = []
    for n in range(-cutoff, cutoff + 1):
        a = complex(fourier_coefficient(field, n))
        if a:
            rows.append((n, a.real, a.imag))
    return rows

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
  points 1, i, -1, -i.  Piece j lives on theta in [j pi/2, (j+1) pi/2]
  and equals p^2 g1(z/p) with p = i^j, i.e. its coefficient at mode m is
  p^{2-m} g1_hat(m).  Fourier coefficients of the glued field are exact
  arc integrals of trigonometric monomials; every coefficient has the
  form a/pi + b with a, b in Q[i], and b = 0 for all n.  The rotation
  antisymmetry f(i z) = -f(z) forces f_hat(n) = 0 unless n = 2 mod 4,
  and there f_hat(n) = 8i/(pi n (n^2-1)).  coefficient_exact is the arc
  integral route and the oracle; coefficient_closed is the vectorized
  closed form that every float consumer of the glued field reads.

The scale for smearing bounds is norm_three_halves, the weighted l^1 sum
Sum_n |f_hat(n)| (1 + |n|^{3/2}).  Mollifier families act on fields by
Fourier multipliers; the Fejer family has compactly supported multipliers
and is the default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _conj(value: Coefficient) -> Coefficient:
    return value.conjugate()


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
        symmetric = all(clean.get(-n) == _conj(a) for n, a in clean.items())
        if self.real is None:
            object.__setattr__(self, "real", symmetric)
        elif self.real and not symmetric:
            bad = sorted(n for n, a in clean.items() if clean.get(-n) != _conj(a))
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

    def __add__(self, other: "FourierField") -> "FourierField":
        merged = dict(self.coefficients)
        for n, a in other.coefficients.items():
            merged[n] = merged.get(n, CFrac(0) if isinstance(a, CFrac) else 0j) + a
        return FourierField(merged)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FourierField":
        scalar = _canon(scalar)
        return FourierField({n: scalar * a for n, a in self.coefficients.items()})


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

    pieces[j][m+1] is the coefficient of e^{im theta} of the piece on
    [j pi/2, (j+1) pi/2].
    """

    pieces: tuple[tuple[CFrac, CFrac, CFrac], ...]

    def coefficient_exact(self, n: int) -> tuple[CFrac, CFrac]:
        """Exact Fourier coefficient as (a, b) with f_hat(n) = a/pi + b."""
        a_total = CFrac(0)
        b_total = CFrac(0)
        for j in range(4):
            for m in (-1, 0, 1):
                g = self.pieces[j][m + 1]
                a, b = _arc_integral(m - n, j)
                a_total = a_total + g * a
                b_total = b_total + g * b
        # arc integrals came back as a_total + b_total * pi; the 1/(2 pi)
        # normalization turns that into (a_total/2)/pi + b_total/2
        return a_total / 2, b_total / 2

    @property
    def decay_constant(self) -> float:
        # |f_hat(n)| |n|^3 = (8/pi) n^2/(n^2-1), maximal at |n| = 2.
        return 32.0 / (3.0 * math.pi)

    def coefficient_closed(self, ns) -> np.ndarray:
        """Complex f_hat(n) = 8i/(pi n (n^2-1)) on n = 2 mod 4, else 0, per n.

        Agrees exactly with coefficient_exact (covered by tests).  The
        real part is a zero with the sign of n.
        """
        ns = np.asarray(ns)
        nf = ns.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):  # n = 0, +-1
            values = (8.0 / (math.pi * nf * (nf * nf - 1.0))) * 1j
        return np.where(ns % 4 == 2, values, 0)


def _arc_integral(d: int, j: int) -> tuple[CFrac, CFrac]:
    """Integral of e^{i d theta} over [j pi/2, (j+1) pi/2], as (a, b) = a + b pi."""
    if d == 0:
        return CFrac(0), CFrac(Fraction(1, 2))
    num = _ipow(d * (j + 1)) - _ipow(d * j)
    return num / CFrac(0, d), CFrac(0)


def build_piecewise_mobius() -> PiecewiseMobiusField:
    """The unique continuous real field glued from the four Mobius pieces."""
    pieces = tuple(
        tuple(_ipow(j * (2 - m)) * G1_COEFFICIENTS[m + 1] for m in (-1, 0, 1))
        for j in range(4)
    )
    return PiecewiseMobiusField(pieces)


def fourier_coefficient(field, n: int) -> Coefficient:
    """Coefficient f_hat(n); exact scalars pass through unconverted."""
    if isinstance(field, FourierField):
        return field.coefficient(n)
    if isinstance(field, PiecewiseMobiusField):
        a, b = field.coefficient_exact(n)
        return complex(a) / math.pi + complex(b)
    raise TypeError(f"unsupported field type {type(field).__name__}")


def fourier_coefficient_quadrature(field, n: int) -> tuple[complex, float]:
    """Adaptive-quadrature coefficient, the independent route.

    Returns (value, achieved error estimate).  Integrates the four arcs
    separately so the integrand is smooth on each panel.
    """
    from scipy.integrate import quad

    total = 0j
    err = 0.0
    for j in range(4):
        lo, hi = j * math.pi / 2, (j + 1) * math.pi / 2
        re, re_err = quad(lambda t: math.cos(n * t) * evaluate(field, t), lo, hi,
                          epsabs=1e-14, epsrel=1e-14, limit=200)
        im, im_err = quad(lambda t: -math.sin(n * t) * evaluate(field, t), lo, hi,
                          epsabs=1e-14, epsrel=1e-14, limit=200)
        total += re + 1j * im
        err += re_err + im_err
    return total / (2 * math.pi), err / (2 * math.pi)


def truncated_fourier(field: PiecewiseMobiusField, cutoff: int) -> FourierField:
    """Materialize the glued field's modes |n| <= cutoff as a FourierField."""
    ns = np.arange(-cutoff, cutoff + 1)
    coeffs = field.coefficient_closed(ns)
    return FourierField({int(n): complex(a) for n, a in zip(ns, coeffs) if a}, real=True)


def evaluate(field, theta: float):
    """Pointwise value Sum f_hat(n) e^{in theta}; real part for real fields."""
    if isinstance(field, PiecewiseMobiusField):
        j = int(math.floor(theta / (math.pi / 2))) % 4
        val = sum(complex(field.pieces[j][m + 1]) * np.exp(1j * m * theta)
                  for m in (-1, 0, 1))
        return val.real
    if isinstance(field, FourierField):
        val = sum(complex(a) * np.exp(1j * n * theta)
                  for n, a in field.coefficients.items())
        return val.real if field.real else val
    raise TypeError(f"unsupported field type {type(field).__name__}")


def evaluate_series(field: PiecewiseMobiusField, theta: float, cutoff: int) -> float:
    """Partial Fourier sum of the glued field up to |n| <= cutoff."""
    ns = np.arange(-cutoff, cutoff + 1)
    coeffs = field.coefficient_closed(ns)
    return float(np.real(np.sum(coeffs * np.exp(1j * ns * theta))))


def one_sided_derivatives(field: PiecewiseMobiusField, corner, order: int
                          ) -> tuple[Fraction, Fraction]:
    """Exact one-sided theta-derivatives of the two pieces meeting a corner.

    Returns (left, right) where right is the derivative of the piece that
    starts at the corner and left that of the piece ending there.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    j = _corner_index(corner)
    left = _piece_derivative(field, j - 1, order, j)
    right = _piece_derivative(field, j, order, j)
    return left, right


def corner_values(field: PiecewiseMobiusField) -> dict[complex, tuple[Fraction, Fraction]]:
    """Exact one-sided values at the four corners (continuity check)."""
    out = {}
    for j, p in enumerate(CORNERS):
        out[p] = (_piece_derivative(field, j - 1, 0, j),
                  _piece_derivative(field, j, 0, j))
    return out


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


@dataclass(frozen=True)
class MollifierFamily:
    """Fourier multiplier family m_k(n), indexed by smoothing order k.

    fejer: m_k(n) = max(0, 1 - |n|/(k+1)), compactly supported on |n| <= k.
    gaussian: m_k(n) = exp(-(n/(k+1))^2), full support.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("fejer", "gaussian"):
            raise ValueError(f"unknown mollifier kind {self.kind!r}")

    def multiplier(self, k: int, n):
        n_arr = np.asarray(n, dtype=np.float64)
        if self.kind == "fejer":
            out = np.maximum(0.0, 1.0 - np.abs(n_arr) / (k + 1))
        else:
            out = np.exp(-((n_arr / (k + 1)) ** 2))
        return float(out) if np.isscalar(n) else out

    def multiplier_exact(self, k: int, n: int) -> Fraction:
        if self.kind != "fejer":
            raise ValueError("only the fejer multipliers are rational")
        return max(Fraction(0), 1 - Fraction(abs(n), k + 1))

    def support_cut(self, k: int) -> Optional[int]:
        return k if self.kind == "fejer" else None


FEJER = MollifierFamily("fejer")
GAUSSIAN = MollifierFamily("gaussian")


def mollify(field, family: MollifierFamily, k: int,
            max_mode: Optional[int] = None) -> FourierField:
    """Coefficient-wise multiplication by m_k; real in, real out.

    The glued piecewise field has infinite support, so mollifying it
    materializes modes up to the multiplier's support (Fejer) or up to an
    explicit max_mode (Gaussian).
    """
    if isinstance(field, PiecewiseMobiusField):
        cut = family.support_cut(k)
        if cut is None:
            if max_mode is None:
                raise ValueError("mollifying the piecewise field with a "
                                 "full-support family needs max_mode")
            cut = max_mode
        field = truncated_fourier(field, cut)
    out: dict[int, Coefficient] = {}
    for n, a in field.coefficients.items():
        if isinstance(a, CFrac) and family.kind == "fejer":
            out[n] = CFrac(family.multiplier_exact(k, n)) * a
        else:
            out[n] = family.multiplier(k, n) * complex(a)
    return FourierField(out, real=field.real)


@dataclass(frozen=True)
class NormReport:
    """Partial sums of the norm Sum |f_hat(n)| (1 + |n|^{3/2}) with tail bound."""

    cutoff: int
    partial_sum: float
    tail_bound: Optional[float]
    verdict: str  # "finite" or "unknown"

    def total_bound(self) -> Optional[float]:
        return None if self.tail_bound is None else self.partial_sum + self.tail_bound


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
        return NormReport(cutoff, float(partial), float(tail), "finite")
    if isinstance(field, PiecewiseMobiusField):
        ns = np.arange(2, cutoff + 1)
        mags = np.abs(field.coefficient_closed(ns))
        partial = 2.0 * float(np.sum(mags * (1.0 + ns.astype(np.float64) ** 1.5)))
        m_hat = field.decay_constant
        tail = 2.0 * m_hat * (0.5 / cutoff**2 + 2.0 / math.sqrt(cutoff))
        return NormReport(cutoff, partial, tail, "finite")
    raise TypeError(f"unsupported field type {type(field).__name__}")


def bracket_with_cocycle(f: FourierField, g: FourierField, c):
    """Lie bracket of smeared generators in Fourier terms.

    Returns (h, omega) with h_hat(k) = Sum_n (2n-k) f_hat(n) g_hat(k-n) and
    omega = (c/12) Sum_n f_hat(n) g_hat(-n) (n^3-n), so that on any safe
    window [T(f), T(g)] = T(h) + omega * identity.  The denominator 12 here
    belongs to the checking side of that identity and is fixed, like the
    one in verma.relation_residual.
    """
    if not isinstance(f, FourierField) or not isinstance(g, FourierField):
        raise TypeError("bracket needs finitely supported fields")
    exact = f.is_exact and g.is_exact and not isinstance(c, float)
    c_val = as_fraction(getattr(c, "value", c)) if exact else float(getattr(c, "value", c))
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

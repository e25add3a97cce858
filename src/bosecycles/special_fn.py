"""Scalar special functions: theta sums, polylogarithm, thermal wavelength.

Everything downstream is built from the one-dimensional lattice Gaussian sum

    Theta(a) = sum_{z in Z} exp(-pi a z^2),  a > 0,

its shifted and phased form sum_z exp(-pi a (z+s)^2) exp(2 pi i (z+s) w),
all summed by one kernel, and the Bose function
(polylogarithm) g_s(z) = sum_{n>=1} z^n / n^s, whose values near and at
saturation, zeta(s) = g_s(1) included, come from one Euler-Maclaurin sum
of n^{-s} e^{-t n} with t = -log z.  Units are reduced,
hbar = m = 1, so the thermal wavelength is lambda_beta = sqrt(2*pi*beta)
and the single-particle torus weight q_n = Theta(n lambda^2/L^2)^d is a
plain product over dimensions.  All dimensionless combinations
(rho*lambda^d, n*lambda^2/L^2) are independent of that convention.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "D_MAX",
    "thermal_wavelength",
    "theta1d",
    "theta1d_shifted",
    "reduce_shift",
    "polylog",
    "zeta",
    "q_n",
    "log_q_weights",
    "q_asymptotic_regime",
    "AsymptoticRegime",
]

# exp(-40) ~ 4e-18: truncating the theta tail at exponent 40 keeps the
# relative error below double-precision resolution.
_TAIL_EXPONENT = 40.0

# exp gives exactly 0 below this argument (its smallest subnormal result
# is exp(-744.44))
_EXP_ZERO = -745.2

# Polylog evaluation: direct series up to this fugacity, _power_exp_sum
# beyond (the inversion code needs smooth values up to and including z = 1).
_SERIES_Z_MAX = 0.99

# _power_exp_sum: terms summed before the Euler-Maclaurin tail, and the
# tail's coefficients B_2k/(2k)!, k = 1..10 (exact ratios, correctly rounded)
_ZETA_HEAD = 10
_BERNOULLI_2K_OVER_FACTORIAL = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
    43867 / 5109094217170944000,
    -174611 / 802857662698291200000,
)
_EULER_GAMMA = 0.5772156649015329

# Largest dimension d.  Up to it sum rho_n = rho holds within 2.6e-14 on a
# ladder of N from 1 to N_MAX at rho = lambda = 1 (1.7e-12 at d = 10^5), and
# the constants of the free-energy bounds stay finite, as past d ~ 2050 they
# do not.
D_MAX = 1000


def thermal_wavelength(beta: float) -> float:
    """Thermal de Broglie wavelength sqrt(2*pi*beta) in units hbar = m = 1."""
    beta = float(beta)
    if not beta > 0.0 or math.isinf(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return math.sqrt(2.0 * math.pi * beta)


def _require_dimension(d: int) -> None:
    """Reject a dimension outside 1..D_MAX."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > D_MAX:
        raise ValueError(f"dimension must be <= {D_MAX}, got {d}")


def _require_length(what: str, symbol: str, value: float, *exponents: int) -> None:
    """Reject a length that is not positive, or whose powers value^k (for
    the given k) underflow to zero or overflow, so that theta arguments
    n lambda^2/L^2 stay finite; densities N/L^d and degeneracies
    rho lambda^d are checked by _degeneracy."""
    if not value > 0.0:
        raise ValueError(f"{what} must be positive, got {value}")
    for k in exponents:
        try:
            power = value**k
        except OverflowError:
            power = math.inf
        if not sys.float_info.min <= power <= sys.float_info.max:
            raise ValueError(
                f"{what} {symbol} = {value!r} puts {symbol}^{k} outside the float range"
            )


def _degeneracy(rho: float, lam_d: float) -> float:
    """rho lambda^d, rejected with a ValueError naming rho unless rho is
    finite and 0 < rho lambda^d < inf (subnormal values pass)."""
    degeneracy = rho * lam_d
    if not (math.isfinite(rho) and 0.0 < degeneracy < math.inf):
        raise ValueError(
            f"density rho = {rho!r} puts rho lambda^d = {degeneracy!r} outside the float range"
        )
    return degeneracy


def _image_pairs(a: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    # elementwise sum_{k != 0} exp(-pi a k (k + 2t)) exp(2 pi i k v), adding
    # each +-k pair first; images run until pi a k^2 passes _TAIL_EXPONENT at
    # the smallest a, plus one more for the off-centre peak.  An element
    # leaves at its first pair whose exponents both lie below _EXP_ZERO: that
    # pair and every later one (|t| <= 1/2, so the exponents fall with k) are
    # exact zeros, and exp is slow to give them.  The pairs go into a
    # (kmax, size) table that one sum reduces, in the order it always had.
    kmax = math.ceil(math.sqrt(_TAIL_EXPONENT / (math.pi * a.min(initial=math.inf)))) + 2
    shape, shifted, phased = a.shape, t.any(), v.any()
    a, t, v = a.ravel(), t.ravel(), v.ravel()
    pairs = np.zeros((kmax, a.size), complex if phased else float)
    live = np.arange(a.size)
    for k in range(1, kmax + 1):
        a_live, t_live = a[live], t[live]
        plus = -math.pi * a_live * k * (k + 2.0 * t_live)
        minus = -math.pi * a_live * -k * (-k + 2.0 * t_live)
        keep = np.maximum(plus, minus) >= _EXP_ZERO
        if not keep.all():
            live, plus, minus = live[keep], plus[keep], minus[keep]
        if not live.size:
            break
        plus = np.exp(plus)
        minus = np.exp(minus) if shifted else plus  # at t = 0 the exponents agree bit for bit
        if phased:
            phase = 2j * math.pi * v[live]
            plus, minus = plus * np.exp(phase * k), minus * np.exp(phase * -k)
        pairs[k - 1, live] = plus + minus
    return pairs.sum(axis=0).reshape(shape)[()]


def _theta(a, s=0.0, w=0.0, dual=None):
    """(lead, rest) with sum_{z in Z} exp(-pi a (z+s)^2) exp(2 pi i (z+s) w)
    = exp(lead) (1 + rest), elementwise over the broadcast arrays a, s, w.

    s is first reduced to [-1/2, 1/2], as the sum is periodic in s; then no
    term of rest exceeds 1 in modulus.  Direct form: lead = -pi a s^2 +
    2 pi i s w, rest = sum_{z != 0} exp(-pi a (z^2 + 2 z s)) exp(2 pi i z w).
    Poisson dual, with m0 = round(w) and u = w - m0: lead = -log(a)/2 -
    pi u^2/a + 2 pi i m0 s, rest = sum_{k != 0} exp(2 pi i k s - pi (k^2 -
    2 k u)/a).  ``dual=None`` takes the direct form where a >= 1 and the
    dual elsewhere, so the series summed has scale >= 1.  lead and rest are
    real when every phase vanishes, complex otherwise.
    """
    a, s, w = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, s, w)))
    bad = ~((a > 0.0) & (a < math.inf))
    if bad.any():
        raise ValueError(f"exponent scale must be positive and finite, got {a[bad][0]}")
    s = s - np.round(s)
    m0 = np.round(w)
    u = w - m0
    dual = a < 1.0 if dual is None else np.full(a.shape, bool(dual))
    b = np.where(dual, 1.0 / a, a)  # scale of the series summed
    direct_lead = -math.pi * a * s**2 + 2j * math.pi * s * w
    dual_lead = 0.5 * np.log(b) - math.pi * b * u**2 + 2j * math.pi * m0 * s
    lead = np.where(dual, dual_lead, direct_lead)
    # in the direct form e^{2 pi i z w} = e^{2 pi i z u}, as z is an integer
    rest = _image_pairs(b, np.where(dual, -u, s), np.where(dual, s, u))
    if not np.where(dual, s, w).any():
        lead, rest = lead.real, rest.real
    return lead, rest


def theta1d(a: float) -> float:
    """Theta(a) = sum_{z in Z} exp(-pi a z^2).

    Poisson summation gives Theta(a) = a^{-1/2} Theta(1/a); whichever of
    the two series has exponent scale >= 1 is summed directly, so the
    truncation never needs more than a handful of terms and the relative
    error stays below ~1e-15.
    """
    lead, rest = _theta(a)
    return float(np.exp(lead) * (1.0 + rest))


def theta1d_shifted(a: float, s: float) -> float:
    """sum_{z in Z} exp(-pi a (z+s)^2) for a shift s in [-1/2, 1/2].

    The dual (Poisson) form is a^{-1/2} sum_z exp(-pi z^2/a) cos(2 pi s z);
    the faster-converging representation is chosen automatically.  Shifts
    outside [-1/2, 1/2] should be reduced first, see ``reduce_shift``.
    """
    if abs(s) > 0.5 + 1e-12:
        raise ValueError(f"shift must lie in [-1/2, 1/2], got {s}")
    lead, rest = _theta(a, s)
    return float((np.exp(lead) * (1.0 + rest)).real)


def reduce_shift(shift) -> np.ndarray:
    """Componentwise fractional-part reduction of a shift vector to [-1/2, 1/2]."""
    s = np.atleast_1d(np.asarray(shift, dtype=float))
    return s - np.round(s)


def _lower_gamma_series(p: float, x: float) -> float:
    # gamma(p, x) = x^p e^{-x} sum_{n>=0} x^n / (p (p+1) ... (p+n)) for p > 0
    # (DLMF 8.7.1); every term is positive, so it is cut at 1e-17 of the sum
    term = total = 1.0 / p
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (p + n)
        total += term
    return x**p * math.exp(-x) * total


def _exp1_series(x: float) -> float:
    # E1(x) = -gamma_E - log x - sum_{k>=1} (-x)^k / (k k!), for 0 < x < 1
    term, total, k = 1.0, 0.0, 0
    while True:
        k += 1
        term *= -x / k
        total += term / k
        if abs(term) <= 1e-17 * abs(total):
            return -_EULER_GAMMA - math.log(x) - total


def _power_exp_integral(s: float, t: float, a: float) -> float:
    # int_a^inf x^{-s} e^{-t x} dx = t^{s-1} Gamma(1-s, t a) for 0 <= t a < 1,
    # which holds all of _power_exp_sum's calls (a = 10, t < 0.0101).  The
    # series gives Gamma(q, .) = Gamma(q) - gamma(q, .) at q = p+k >= 1, p = 1-s
    # (k = 0 once p >= 1), lowered to p by Gamma(p, x) = [Gamma(p+1, x) - x^p e^{-x}] / p,
    # which is stable there as x^p dominates.  Within ~4e-15 relative for
    # s in [1.5, 9] (tested against mpmath).
    if t == 0.0:
        return a * a**-s / (s - 1.0)
    x = t * a
    p = 1.0 - s
    if math.isnan(p):
        return math.nan  # math.ceil below cannot take it
    k = max(0, math.ceil(-p) + 1)
    g = math.gamma(p + k) - _lower_gamma_series(p + k, x)
    for j in range(k - 1, -1, -1):
        if p + j == 0.0:
            g = _exp1_series(x)  # Gamma(0, x), where the recurrence divides by 0
        else:
            g = (g - x ** (p + j) * math.exp(-x)) / (p + j)
    return t ** (s - 1.0) * g


def _power_exp_sum(s: float, t: float) -> float:
    # S(s, t) = sum_{n>=1} n^{-s} e^{-t n} for 0 <= t < 0.0101 (s > 1 at t = 0).
    # Euler-Maclaurin summation (DLMF 2.10.1; 25.2.9 at t = 0): the terms
    # n < a = 10 are summed directly and the tail from n = a is its integral,
    # half the boundary term f(a) and ten corrections -B_2k/(2k)! f^(2k-1)(a),
    # f = x^{-s} e^{-t x}.  The derivatives at a follow from the m-th
    # derivative of x f' = -(s + t x) f:
    #     a f^(m+1) = -(s + m + t a) f^(m) - t m f^(m-1),
    # at t = 0 the rising factorial s (s+1) ... of zeta.
    a = _ZETA_HEAD
    terms = [n**-s * math.exp(-t * n) for n in range(1, a)]
    f = a**-s * math.exp(-t * a)
    if f == 0.0:  # s > ~323: the tail is below the head's last bit
        return math.fsum(terms)
    terms += [_power_exp_integral(s, t, a), 0.5 * f]
    previous, current = 0.0, f
    for m in range(2 * len(_BERNOULLI_2K_OVER_FACTORIAL) - 1):
        previous, current = current, -((s + m + t * a) * current + t * m * previous) / a
        if m % 2 == 0:  # current is the odd derivative f^(m+1)
            terms.append(-_BERNOULLI_2K_OVER_FACTORIAL[m // 2] * current)
    return math.fsum(terms)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 (the saturation value g_s(1)).

    The t = 0 case of the Euler-Maclaurin sum that ``polylog`` uses near
    z = 1, see there for its error.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError(f"zeta(s) with s <= 1 is outside the convergent range, got s={s}")
    return _power_exp_sum(s, 0.0)


def polylog(s: float, z: float) -> float:
    """Bose function g_s(z) = sum_{n>=1} z^n / n^s for 0 <= z <= 1.

    Parameters
    ----------
    s : order; must exceed 1 when z = 1 (g_s(1) = zeta(s)).
    z : fugacity in [0, 1].

    The direct series is summed for z <= 0.99 with terms cut at 1e-17
    relative.  Closer to z = 1, with t = -log z, the sum of n^{-s} e^{-t n}
    takes the terms n < 10 directly and the tail from n = 10 by
    Euler-Maclaurin summation: its integral t^{s-1} Gamma(1-s, 10 t) (the
    incomplete gamma series, DLMF 8.7), half the boundary term and ten
    Bernoulli corrections.  zeta(s) is the same sum at t = 0, so
    polylog(s, 1) == zeta(s).  The remainder after the corrections is far
    below double precision, so only the rounding of the terms shows: within
    1e-15 relative of mpmath for z in (0.99, 1], tested at orders s from
    -2.5 to 9 and for zeta over s in (1, 10].  The package needs only the
    orders d/2 and 1 + d/2.  Near z = 1 an order far below zero has a
    value beyond the float range: it comes out inf (s = -100, z = 0.995),
    or raises OverflowError once a head term n^{-s} itself overflows
    (s = -400, z = 0.995).
    """
    s = float(s)
    z = float(z)
    if z < 0.0 or z > 1.0:
        raise ValueError(f"polylog fugacity must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0 and s <= 1.0:
        raise ValueError(f"polylog diverges at z=1 for s <= 1, got s={s}")
    if z <= _SERIES_Z_MAX:
        # tail bound z^{n+1}/((1-z) n^s): cut when below 1e-17 of the sum scale,
        # a sum of logs so that a subnormal z does not underflow the product
        nmax = max(40, math.ceil((math.log(1e-17) + math.log(z) + math.log1p(-z)) / math.log(z)))
        n = np.arange(1, nmax + 1)
        return float(np.sum(z**n / n**s))
    return _power_exp_sum(s, -math.log(z))  # 0 <= t < 0.01005


def _polylog_exp(s: float, y: float) -> float:
    """polylog(s, e^y) for y <= 0.  Near z = 1 the Euler-Maclaurin sum takes
    t = -y itself: t = -log z from a rounded z = e^y carries an absolute
    error near 1e-16, a relative error of about 1e-16 / |y|."""
    if not y <= 0.0:
        raise ValueError(f"polylog log-fugacity must be <= 0, got {y}")
    z = math.exp(y)
    if y == 0.0 or z <= _SERIES_Z_MAX:
        return polylog(s, z)
    return _power_exp_sum(s, -y)


def q_n(params, n: int, shift=None) -> float:
    """Single-particle torus weight at inverse temperature n*beta.

    q_n = Theta(n lambda^2/L^2)^d at zero shift, or the product over
    dimensions of the shifted theta sums after fractional-part reduction
    of the shift vector.  Exceeds 1 at zero shift for every n.
    """
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    a = n * params.lam**2 / params.L**2
    s = np.zeros(params.d) if shift is None else reduce_shift(shift)
    if s.shape != (params.d,):
        raise ValueError(f"shift must have {params.d} components, got shape {s.shape}")
    lead, rest = _theta(a, s)
    return float(np.prod(np.exp(lead) * (1.0 + rest)).real)


def log_q_weights(params, n=None) -> np.ndarray:
    """log q_n for n = 1..N (or a given integer array), vectorized.

    log1p of the theta kernel's image sum keeps full absolute accuracy in
    the macroscopic regime q_n -> 1+.
    """
    if n is None:
        n = np.arange(1, params.N + 1)
    lead, rest = _theta(np.asarray(n) * params.lam**2 / params.L**2)
    return params.d * (lead + np.log1p(rest))


class AsymptoticRegime(NamedTuple):
    tag: str  # "bulk" | "macroscopic" | "critical"
    value: float


# Desk-scale gates for the three asymptotic branches of q_n; the limits
# themselves are n*lambda^2/L^2 -> 0 and -> infinity.
_BULK_MAX = 0.1
_MACRO_MIN = 10.0


def q_asymptotic_regime(params, n: int, shift=None) -> AsymptoticRegime:
    """Classify q_n by its exponent scale a = n lambda^2/L^2 and return the
    limiting value: bulk (a <= 0.1) -> L^d/(n^{d/2} lambda^d), macroscopic
    (a >= 10) -> exp(-pi a |s|^2) with s the reduced shift, critical
    otherwise -> the exact theta product."""
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    a = n * params.lam**2 / params.L**2
    s = np.zeros(params.d) if shift is None else reduce_shift(shift)
    if a <= _BULK_MAX:
        return AsymptoticRegime("bulk", (params.L / params.lam) ** params.d / n ** (params.d / 2.0))
    if a >= _MACRO_MIN:
        return AsymptoticRegime("macroscopic", math.exp(-math.pi * a * float(s @ s)))
    return AsymptoticRegime("critical", q_n(params, n, shift))

"""Cycle wave functions on the torus in their two theta forms.

A cycle of length n contributes a common one-particle wave function: a
Gaussian-weighted superposition of torus plane waves with momentum scale
1/(sqrt(n) lambda), equivalently (by Poisson summation) a periodized
Gaussian of width sqrt(n) lambda around the center.  Both forms are
implemented and serve as mutual oracles.  In d dimensions the function is
a product of one-dimensional factors, one per coordinate, so all sums
below are one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_fn import _require_length, _theta, reduce_shift, theta1d

__all__ = [
    "CycleWaveParams",
    "psi_planewave_form",
    "psi_gaussian_form",
    "psi_shifted",
    "phase_theta_sum",
    "wave_profile",
]

_PROFILE_CHUNK = 4096  # samples per _theta call in wave_profile


@dataclass(frozen=True)
class CycleWaveParams:
    """Arguments of the cycle wave function.

    ``y`` is the center (reduced into [0, L) per coordinate), ``xbar``
    the average-momentum shift vector (zero for the plain forms).
    """

    n: int
    L: float
    lam: float
    y: tuple
    xbar: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"cycle length must be >= 1, got {self.n}")
        try:
            float(self.n)  # a_num and a_den are floats
        except OverflowError:
            raise ValueError(f"cycle length n = {self.n} is beyond the float range") from None
        _require_length("box side", "L", self.L, 2)
        _require_length("thermal wavelength", "lambda", self.lam, 2)
        y = tuple(float(c) % self.L for c in np.atleast_1d(np.asarray(self.y, dtype=float)))
        if not y:
            raise ValueError("center y needs at least one coordinate")
        xbar = self.xbar if len(np.atleast_1d(self.xbar)) else (0.0,) * len(y)
        xbar = tuple(float(c) for c in np.atleast_1d(np.asarray(xbar, dtype=float)))
        if len(xbar) != len(y):
            raise ValueError(f"xbar has {len(xbar)} components, center has {len(y)}")
        if not np.isfinite(y + xbar).all():
            raise ValueError(f"center y and momentum xbar must be finite, got {y} and {xbar}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xbar", xbar)

    @property
    def d(self) -> int:
        return len(self.y)

    @property
    def a_num(self) -> float:
        # exponent scale of the amplitude sum (half the weight scale)
        return self.n * self.lam**2 / (2.0 * self.L**2)

    @property
    def a_den(self) -> float:
        # exponent scale of the normalizing theta
        return self.n * self.lam**2 / self.L**2

    @property
    def shift(self) -> tuple:
        # momentum shift in lattice units, reduced to [-1/2, 1/2]
        return tuple(float(s) for s in reduce_shift(np.array(self.xbar) * self.L / (2.0 * math.pi)))


def phase_theta_sum(a: float, s: float, w: float, form: str = "auto") -> complex:
    """sum_z exp(-pi a (z+s)^2) exp(2 pi i (z+s) w), by the direct series
    or its Poisson dual a^{-1/2} sum_m exp(2 pi i m s) exp(-pi (w-m)^2/a).

    ``form`` picks the representation: "direct", "dual", or "auto" (the
    faster-converging one).  The two must agree; tests use them as a
    mutual oracle.  Any real shift s is allowed: the sum is periodic in s.
    """
    forms = {"auto": None, "direct": False, "dual": True}
    if form not in forms:
        raise ValueError(f"form must be direct, dual, or auto, got {form!r}")
    lead, rest = _theta(a, s, w, dual=forms[form])
    return complex(np.exp(lead) * (1.0 + rest))


def _require_zero_shift(params: CycleWaveParams, what: str) -> None:
    if any(c != 0.0 for c in params.xbar):
        raise ValueError(f"{what} takes zero average momentum; use psi_shifted")


def psi_planewave_form(params: CycleWaveParams, x) -> complex:
    """Plane-wave superposition form:
    L^{-d/2} sum_z e^{-pi n lambda^2 z^2/(2L^2)} e^{i(2 pi/L) z.(x-y)}
    normalized by the square root of the weight theta."""
    _require_zero_shift(params, "the plane-wave form")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.d,):
        raise ValueError(f"point must have {params.d} components, got shape {x.shape}")
    lead, rest = _theta(params.a_num, 0.0, (x - params.y) / params.L, dual=False)
    norm = math.sqrt(params.L) * math.sqrt(theta1d(params.a_den))
    return complex(np.prod(np.exp(lead) * (1.0 + rest) / norm))


def psi_gaussian_form(params: CycleWaveParams, x) -> float:
    """Periodized-Gaussian form:
    (2/(sqrt(n) lambda))^{d/2} sum_z e^{-2 pi (x-y+Lz)^2/(n lambda^2)}
    over images, normalized by the dual theta; strictly positive."""
    _require_zero_shift(params, "the Gaussian form")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.d,):
        raise ValueError(f"point must have {params.d} components, got shape {x.shape}")
    n, L, lam = params.n, params.L, params.lam
    width2 = n * lam**2
    span = math.ceil(math.sqrt(20.0 * n / math.pi) * lam / L) + 1
    denom = math.sqrt(theta1d(1.0 / params.a_den)) * (math.sqrt(n) * lam / 2.0) ** 0.5
    out = 1.0
    for xi, yi in zip(x, params.y):
        u = xi - yi
        m0 = round(u / L)
        m = np.arange(m0 - span, m0 + span + 1)
        out *= float(np.exp(-2.0 * math.pi * (u - m * L) ** 2 / width2).sum()) / denom
    return out


def _psi(params: CycleWaveParams, x: np.ndarray) -> np.ndarray:
    # psi at each point along the last axis of x.  Per coordinate, the
    # amplitude sum at scale a_num over sqrt(L) times the root of the shifted
    # theta at a_den = 2 a_num: their Gaussian leads cancel in the exponent,
    # and 1 + rest_den >= 0.91 for |s| <= 1/2 in either form, so no factor
    # underflows however long the cycle
    s = np.array(params.shift)
    lead, rest = _theta(params.a_num, s, (x - params.y) / params.L)
    lead_den, rest_den = (part.real for part in _theta(params.a_den, s))
    factor = np.exp(lead - lead_den / 2.0) * (1.0 + rest) / np.sqrt(params.L * (1.0 + rest_den))
    return np.prod(factor, axis=-1)


def psi_shifted(params: CycleWaveParams, x) -> complex:
    """Average-momentum-shifted wave function: the plane-wave sum runs
    over momenta (2 pi/L)(z + s) with s the fractional shift, and the
    normalizing theta becomes the shifted theta at the same s."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (params.d,):
        raise ValueError(f"point must have {params.d} components, got shape {x.shape}")
    return complex(_psi(params, x))


def wave_profile(params: CycleWaveParams, axis: int = 0, num: int = 257):
    """Sample psi along x = y + t e_axis, t in [0, L): rows of
    (t, Re psi, Im psi, |psi|^2)."""
    if not 0 <= axis < params.d:
        raise ValueError(f"axis must lie in 0..{params.d - 1}, got {axis}")
    if num < 2:
        raise ValueError(f"need at least 2 samples, got {num}")
    ts = np.linspace(0.0, params.L, num, endpoint=False)
    x = np.tile(params.y, (num, 1))
    x[:, axis] += ts
    # chunks bound _theta's (2 kmax, chunk, d) image arrays at a few MB
    vals = np.concatenate([_psi(params, x[lo : lo + _PROFILE_CHUNK]) for lo in range(0, num, _PROFILE_CHUNK)])
    return [(t, v.real, v.imag, abs(v) ** 2) for t, v in zip(ts.tolist(), vals.tolist())]

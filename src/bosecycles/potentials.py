"""Pair potentials and the rigorous interaction bounds built from them.

A valid potential here is radial, integrable, nonnegative, and of
positive type (nonnegative Fourier transform); the Fourier convention is
u_hat(k) = int u(x) e^{-2 pi i k.x} dx, under which Gaussian kernels
transform without loose 2*pi factors.  The bounds exposed below sandwich
the interacting free energy between its ideal value shifted by mean-field
terms, and sandwich the decoupled partition function between rescalings
of the ideal one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cycle_engine import SystemParams, WeightSequence, build_partition_table
from .special_fn import _require_dimension, _require_length, thermal_wavelength, zeta
from .thermo import UnsupportedDimensionError, _require_condensing_dimension, ideal_free_energy_density

__all__ = [
    "UnsupportedPotentialError",
    "QuadratureError",
    "PairPotential",
    "BoundPair",
    "MeanInteractionBound",
    "FreeEnergyBounds",
    "ConditionReport",
    "gaussian_potential",
    "autocorrelation_potential",
    "tabulated_potential",
    "load_potential",
    "periodize",
    "alpha_nk",
    "mean_interaction_upper",
    "phi_nn_bounds",
    "dcp_bound_weights",
    "free_energy_bounds",
    "dcp_partition_sandwich",
    "validate_conditions",
]

_PERIODIZE_REL_TOL = 1e-10
_PERIODIZE_MAX_SHELL = 10_000
# periodization refuses a shell of more lattice points than this, as
# _MAX_TRANSFORM_NODES bounds a transform
_PERIODIZE_MAX_POINTS = 1 << 22
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Gauss-Legendre nodes per profile segment for the polynomial integrands
# (degree <= 4 for s^2 v^2, <= 5 for the overlap); 4 nodes are exact to degree 7
_POLY_NODES = 4
# overlap pieces evaluated at once, bounding its memory for long arrays of radii
_OVERLAP_PIECES = 1 << 16
# bound on a segment rule's error for the sine and cosine transforms,
# relative to the segment's share of the integral's scale; a segment
# spanning more than _PIECE_RADIANS of the wave is cut into equal pieces,
# each with its own rule, and a transform needing more than
# _MAX_TRANSFORM_NODES nodes in all is refused
_OSCILLATORY_REL_ERR = 1e-17
_PIECE_RADIANS = 50.0
_MAX_TRANSFORM_NODES = 1_000_000


class UnsupportedPotentialError(ValueError):
    """The operation needs a nonnegative positive-type potential."""


class QuadratureError(RuntimeError):
    """A profile transform would need more nodes than allowed, or a
    periodization sum did not converge."""


def _radialize(fn: Callable[[float], float]):
    """Lift a scalar radial profile to accept scalars or arrays of radii."""

    def wrapped(r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.array([fn(abs(float(x))) for x in arr.ravel()]).reshape(arr.shape)
        return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out

    return wrapped


@dataclass(frozen=True)
class PairPotential:
    """Radial pair potential with its transform and summary scalars.

    ``u`` and ``uhat`` accept a radius (or array of radii) in real and
    Fourier space.  ``eta`` is the decay exponent of condition (iii),
    |u(x)| = O(|x|^{-d-eta}); infinity for compactly supported or
    Gaussian-tailed potentials.
    """

    d: int
    u: Callable
    uhat: Callable
    u0: float
    uhat0: float
    norm1: float
    eta: float
    positive: bool
    positive_type: bool
    kind: str = "custom"

    def __post_init__(self):
        _require_dimension(self.d)
        if not np.isfinite([self.u0, self.uhat0, self.norm1]).all():
            raise ValueError(f"u0 = {self.u0}, uhat0 = {self.uhat0}, norm1 = {self.norm1}: not all finite")
        if self.uhat0 > self.norm1 * (1.0 + 1e-12):
            raise ValueError(
                f"uhat(0) = {self.uhat0} exceeds the L1 norm {self.norm1}; "
                "the transform convention is inconsistent"
            )

    def require_positive_pair(self, what: str) -> None:
        if not (self.positive and self.positive_type):
            raise UnsupportedPotentialError(
                f"{what} needs a nonnegative potential of positive type; "
                f"flags are positive={self.positive}, positive_type={self.positive_type}"
            )


@dataclass(frozen=True)
class BoundPair:
    """A two-sided bound with a context tag."""

    lower: float
    upper: float
    context: str = ""

    def __post_init__(self):
        where = f" ({self.context})" if self.context else ""
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"bound ends {self.lower} and {self.upper} must be finite{where}")
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}{where}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def gaussian_potential(g: float, sigma: float, d: int = 3) -> PairPotential:
    """u(x) = g e^{-pi x^2/sigma^2}, whose transform is again a Gaussian:
    uhat(k) = g sigma^d e^{-pi sigma^2 k^2}."""
    if not 0.0 < g < math.inf:
        raise ValueError(f"coupling g must be positive and finite, got {g}")
    _require_length("Gaussian range", "sigma", sigma, d)

    def u(r):
        r = np.asarray(r, dtype=float)
        return g * np.exp(-math.pi * r**2 / sigma**2)

    def uhat(k):
        k = np.asarray(k, dtype=float)
        return g * sigma**d * np.exp(-math.pi * sigma**2 * k**2)

    return PairPotential(
        d=d,
        u=u,
        uhat=uhat,
        u0=g,
        uhat0=g * sigma**d,
        norm1=g * sigma**d,
        eta=math.inf,
        positive=True,
        positive_type=True,
        kind="gaussian",
    )


def _radial_kernel(d: int, k: float):
    """(c, g) with int f(|x|) e^{-2 pi i k.x} d^d x = c int_0^inf g(s, f(s)) ds
    for radial f in d = 1 or 3: the one owner of the radial measure
    (2 ds, 4 pi s^2 ds) and Fourier kernel (2 cos ws, (2/k) s sin ws), w = 2 pi k."""
    if k == 0.0:
        if d == 1:
            return 2.0, lambda s, f: f
        return 4.0 * math.pi, lambda s, f: s * s * f
    w = 2.0 * math.pi * k
    if d == 1:
        return 2.0, lambda s, f: f * np.cos(w * s)
    return 2.0 / k, lambda s, f: s * f * np.sin(w * s)


@functools.lru_cache(maxsize=None)  # n <= 31 at 50 radians a piece, so few rules are held
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # deferred: only profiles need it

    return leggauss(n)


def _oscillatory_nodes(theta: float) -> int:
    """Nodes per segment for int P(s) e^{i w s} over segments of w h <= theta:
    the fewest n >= _POLY_NODES whose Gauss-Legendre error bound
    theta^{2n} (n!)^4 / ((2n+1) ((2n)!)^3) (DLMF 3.5.19 with f^{(2n)} ~ w^{2n})
    is below _OSCILLATORY_REL_ERR."""
    n = _POLY_NODES
    if theta > 0.0:
        log_target = math.log(_OSCILLATORY_REL_ERR)
        while (
            2 * n * math.log(theta) + 4 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)
            > log_target
        ):
            n += 1
    return n


class _PiecewiseLinear:
    """Radial profile, linear between knots 0 = r_0 < r_1 < ... < r_m and zero
    beyond r_m, evaluated at a radius or an array of radii.  Its integrals,
    ``transform(d, k, power)`` and the autocorrelation ``overlap(d, x)``, are
    per-segment Gauss-Legendre sums.

    At k = 0 the integrands (volume integrals of v and v^2) are polynomials
    of degree <= 4 and the sums are exact to rounding.  For k != 0 the node
    count is chosen from w h, w the angular wavenumber and h the longest
    segment (cut into pieces of at most 50 radians), so that each rule's
    error bound stays below 1e-17 of its scale, and the sum is within 1e-13
    of the L1 norm that bounds the transform (tested against mpmath).
    """

    def __init__(self, r: np.ndarray, values: np.ndarray):
        self.r = r
        self.values = values

    @classmethod
    def from_samples(cls, r, values) -> "_PiecewiseLinear":
        """Profile from sampled (r, value) pairs, checked: finite, matching
        1-d arrays of at least 2 samples, radii from 0 and strictly increasing
        (so every segment weight is positive and the knots cover [0, r_m])."""
        r = np.asarray(r, dtype=float)
        values = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != values.shape or r.size < 2:
            raise ValueError("profile needs matching 1-d arrays of at least 2 samples")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(values))):
            raise ValueError("profile radii and values must be finite")
        if r[0] != 0.0 or not np.all(np.diff(r) > 0.0):
            raise ValueError("radii must start at 0 and increase strictly")
        return cls(r, values)

    def __call__(self, s):
        return np.interp(np.abs(s), self.r, self.values, right=0.0)

    def absolute(self) -> "_PiecewiseLinear":
        """|v|, with a knot added where v changes sign inside a segment, so
        that |v| is again linear on every segment."""
        r, v = self.r, self.values
        cross = np.flatnonzero(v[:-1] * v[1:] < 0.0)
        roots = r[cross] + (r[cross + 1] - r[cross]) * v[cross] / (v[cross] - v[cross + 1])
        return _PiecewiseLinear(np.insert(r, cross + 1, roots), np.insert(np.abs(v), cross + 1, 0.0))

    def _nodes(self, n: int, pieces: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # radii, weights and profile values at n Gauss-Legendre nodes on each
        # of `pieces` equal parts of every segment
        x, w = _legendre_rule(n)
        frac = ((np.arange(pieces)[:, None] + 0.5 * (1.0 + x)) / pieces).ravel()
        h = np.diff(self.r)[:, None]
        s = self.r[:-1, None] + h * frac
        v = self.values[:-1, None] + (self.values[1:, None] - self.values[:-1, None]) * frac
        return s.ravel(), (h * np.tile(w, pieces) / (2 * pieces)).ravel(), v.ravel()

    def transform(self, d: int, k: float = 0.0, power: int = 1) -> float:
        """int v(|x|)^power e^{-2 pi i k.x} d^d x, real and even in k by
        symmetry, for d = 1 or 3; k = 0 gives the volume integral."""
        if not math.isfinite(k):
            raise ValueError(f"wavenumber must be finite, got {k}")
        k = abs(k)
        if k == 0.0:
            s, w, v = self._nodes(_POLY_NODES)
        else:
            theta = 2.0 * math.pi * k * float(np.diff(self.r).max())
            pieces = max(1, math.ceil(theta / _PIECE_RADIANS))
            n = _oscillatory_nodes(theta / pieces)
            if (len(self.r) - 1) * pieces * n > _MAX_TRANSFORM_NODES:
                raise QuadratureError(f"transform at k = {k} needs more than {_MAX_TRANSFORM_NODES} nodes")
            s, w, v = self._nodes(n, pieces)
        c, g = _radial_kernel(d, k)
        return c * float(np.dot(w, g(s, v**power)))

    def overlap(self, d: int, x):
        """The autocorrelation u(x) = int v(|y|) v(|x - y|) d^d y in d = 1 or 3,
        at a radius or an array of radii; u(0) = transform(d, power=2), and u
        vanishes from x = 2R on (R = r_m).

        Each radius is a Gauss-Legendre sum over the pieces between the
        points where a factor crosses a knot.  d = 1 integrates
        v(|y|) v(|x + y|) over [-R, R - x], cut at +-r_i and +-r_i - x.  d = 3
        is the bipolar form (2 pi/x) int_0^R s v(s) [G(x + s) - G(|x - s|)] ds
        with G(t) = int_0^t tau v(tau) dtau, constant past R, cut at r_i,
        r_i +- x, x - r_i and x; where x + s and |x - s| lie on one segment
        the G difference is its exact width 2 min(x, s) times the mean of
        tau v(tau) there.  The integrands are polynomials of degree <= 5 on
        every piece, so _POLY_NODES nodes are exact: within 1e-13 u0 of
        mpmath from x = 1e-6 R on."""
        x = np.abs(np.asarray(x, dtype=float))
        r, v, R = self.r, self.values, float(self.r[-1])
        flat = x.ravel()
        out = np.where(np.isnan(flat), np.nan, 0.0)
        out[flat == 0.0] = self.transform(d, power=2)
        inside = np.flatnonzero((flat > 0.0) & (flat < 2.0 * R))
        # G(t) = G(r_j) + r_j v_j dt + (r_j c_j + v_j) dt^2/2 + c_j dt^3/3 on segment j,
        # in dt = t - r_j (so no term cancels) with c_j the segment's slope
        h = np.diff(r)
        slope = np.diff(v) / h
        g1, g2, g3 = r[:-1] * v[:-1], (r[:-1] * slope + v[:-1]) / 2.0, slope / 3.0
        knot_G = np.concatenate(([0.0], np.cumsum(h * (g1 + h * (g2 + h * g3)))))

        def G_difference(s, x):
            # G(x + s) - G(|x - s|); with both ends on one segment it is the
            # exact width 2 min(x, s) times the segment polynomial's mean, as
            # the plain difference of nearby values loses about R/x ulps
            ends = np.stack([np.abs(x - s), x + s])
            j = np.searchsorted(r, ends, side="right") - 1
            one_segment = (j[0] == j[1]) & (j[1] < len(h))
            j = np.minimum(j, len(h) - 1)
            dt = np.minimum(ends, R) - r[j]
            G = knot_G[j] + dt * (g1[j] + dt * (g2[j] + dt * g3[j]))
            a, b, j = dt[0], dt[1], j[0]
            mean = g1[j] + g2[j] * (a + b) + g3[j] * (a * a + a * b + b * b)
            return np.where(one_segment, 2.0 * np.minimum(x, s) * mean, G[1] - G[0])

        nodes, weights = _legendre_rule(_POLY_NODES)
        rows = max(1, _OVERLAP_PIECES // (4 * len(r) + 1))
        for idx in np.array_split(inside, range(rows, inside.size, rows)):
            xs = flat[idx, None]
            knots = np.broadcast_to(r, (idx.size, r.size))
            if d == 1:
                cuts = np.clip(np.hstack([-knots, knots, -r - xs, r - xs]), -R, R - xs)
            else:
                cuts = np.clip(np.hstack([knots, r - xs, r + xs, xs - r, xs]), 0.0, R)
            cuts = np.sort(cuts, axis=1)[:, :, None]
            half = (cuts[:, 1:] - cuts[:, :-1]) / 2.0
            y = cuts[:, :-1] + half * (1.0 + nodes)
            xs = xs[:, :, None]
            if d == 1:
                scale, f = 1.0, self(y) * self(xs + y)
            else:
                scale, f = 2.0 * math.pi / flat[idx], y * self(y) * G_difference(y, xs)
            out[idx] = scale * np.sum(half * weights * f, axis=(1, 2))
        return out.reshape(x.shape)[()]


def autocorrelation_potential(r: np.ndarray, values: np.ndarray, d: int = 3) -> PairPotential:
    """u = v * v for a nonnegative radial profile v sampled at radii r, linear
    between the samples and zero beyond the last (the profile of
    ``tabulated_potential``): u(x) = int v(|x+y|) v(|y|) dy, so
    uhat = |vhat|^2 >= 0 by construction.  Supported in d = 1 and d = 3 (the
    radial reduction of the overlap integral is dimension-specific).

    vhat(k), uhat(0) = vhat(0)^2 and u0 = u(0) = int v^2 are segment sums of
    the profile (exact at k = 0), and u(x) is its segment overlap, exact to
    rounding (see ``_PiecewiseLinear``)."""
    profile = _PiecewiseLinear.from_samples(r, values)
    if d not in (1, 3):
        raise UnsupportedDimensionError(
            f"autocorrelation construction implemented for d in (1, 3), got {d}"
        )
    # v is linear between samples, so it is nonnegative where its samples are
    if not np.all(profile.values >= 0.0):
        raise ValueError("profile v must be nonnegative on its support")
    u0 = profile.transform(d, power=2)  # u(0) = int v^2
    vhat0 = profile.transform(d)
    return PairPotential(
        d=d,
        u=functools.partial(profile.overlap, d),
        uhat=_radialize(lambda k: profile.transform(d, k) ** 2),
        u0=u0,
        uhat0=vhat0**2,
        norm1=vhat0**2,  # int u = (int v)^2, and u >= 0
        eta=math.inf,  # support of u is compact (radius 2R)
        positive=True,
        positive_type=True,
        kind="autocorrelation",
    )


def tabulated_potential(r: np.ndarray, values: np.ndarray, d: int = 3, eta: float = math.inf) -> PairPotential:
    """Potential from a sampled radial profile, linearly interpolated and
    treated as zero beyond the last sample; the positivity flags reflect
    the sampled data.

    Every integral is a sum over the profile's segments with Gauss-Legendre
    nodes.  uhat(0) and |u|_1 (with |u| split where u changes sign) are
    exact to rounding; uhat(k) is within 1e-13 of |u|_1, which bounds it
    (see ``_PiecewiseLinear``).  positive_type is read from uhat at 48
    wavenumbers up to 8/r_max."""
    profile = _PiecewiseLinear.from_samples(r, values)
    r, values = profile.r, profile.values
    if d not in (1, 3):
        raise UnsupportedDimensionError(f"tabulated profiles implemented for d in (1, 3), got {d}")
    uhat = _radialize(functools.partial(profile.transform, d))
    norm1_signed = profile.transform(d)
    norm1 = profile.absolute().transform(d)
    positive = bool(np.all(values >= 0.0))
    # uhat varies on the scale 1/R; probe several of those periods
    kgrid = np.linspace(0.0, 8.0 / float(r[-1]), 48)
    uhat_samples = uhat(kgrid)
    positive_type = bool(np.all(uhat_samples >= -1e-10 * abs(norm1_signed)))
    return PairPotential(
        d=d,
        u=profile,
        uhat=uhat,
        u0=float(values[0]),
        uhat0=norm1_signed,
        norm1=norm1,
        eta=eta,
        positive=positive,
        positive_type=positive_type,
        kind="tabulated",
    )


def periodize(pot: PairPotential, L: float, x) -> float:
    """u_L(x) = sum_z u(x + L z) over the integer lattice, truncated when
    the shell-decay estimate certifies a relative tail below 1e-10.

    Shell Z (max_j |z_j| = Z) is summed face by face, so only its
    (2Z+1)^d - (2Z-1)^d points are formed; a shell of more than
    _PERIODIZE_MAX_POINTS points raises QuadratureError."""
    if not L > 0.0:
        raise ValueError(f"box side must be positive, got {L}")
    if not pot.eta > 0.0 or math.isnan(pot.eta):
        raise ValueError("periodization needs a known positive decay exponent eta")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (pot.d,):
        raise ValueError(f"point must have {pot.d} components, got shape {x.shape}")
    total = float(np.asarray(pot.u(float(np.linalg.norm(x)))))
    for Z in range(1, _PERIODIZE_MAX_SHELL + 1):
        points = (2 * Z + 1) ** pot.d - (2 * Z - 1) ** pot.d
        if points > _PERIODIZE_MAX_POINTS:
            raise QuadratureError(f"periodization shell {Z} has {points} points, more than {_PERIODIZE_MAX_POINTS}")
        shell = 0.0
        for i in range(pot.d):
            # face i of the shell: z_i = +-Z, |z_j| <= Z - 1 before it and <= Z after it
            axes = [np.arange(1 - Z, Z)] * i + [np.array([-Z, Z])] + [np.arange(-Z, Z + 1)] * (pot.d - 1 - i)
            r2 = sum((xj + L * zj) ** 2 for xj, zj in zip(x, np.ix_(*axes)))
            shell += float(np.asarray(pot.u(np.sqrt(r2).ravel())).sum())
        total += shell
        # remaining shells scale like (j/Z)^{-1-eta} relative to this one
        tail_factor = 1.0 if math.isinf(pot.eta) else max(1.0, Z / pot.eta)
        if abs(shell) * tail_factor <= _PERIODIZE_REL_TOL * abs(total):
            return total
    raise QuadratureError(f"periodization did not converge within {_PERIODIZE_MAX_SHELL} shells")


def alpha_nk(n: int, k, lam: float):
    """alpha_{n,k} = (1/k + 1/(n-k))/lambda^2, the inverse-area scale of
    the two arcs a k-split cuts an n-cycle into; k is an integer or an
    integer array, and every entry must lie in 1..n-1."""
    k_arr = np.asarray(k)
    outside = ~((k_arr >= 1) & (k_arr <= n - 1))
    if np.any(outside):
        raise ValueError(f"split index k must lie in 1..{n - 1}, got {k_arr[outside].flat[0]}")
    if not lam > 0.0:
        raise ValueError(f"thermal wavelength must be positive, got {lam}")
    return (1.0 / k + 1.0 / (n - k)) / lam**2


def _zeta_bound_constant(d: int) -> float:
    """kappa = 2^{d/2-1} zeta(d/2) of the zeta-function bounds; needs d >= 3."""
    _require_condensing_dimension(d)
    return 2.0 ** (d / 2.0 - 1.0) * zeta(d / 2.0)


class MeanInteractionBound(NamedTuple):
    asymptotic: float  # (|u|_1/2) n [(n-1)/L^d + 2^{d/2} zeta(d/2)/lambda^d]
    exact: float  # (|u|_1/2) n sum_k alpha^{d/2} (1 + 1/(L sqrt(alpha)))^d


def mean_interaction_upper(n: int, L: float, beta: float, pot: PairPotential) -> MeanInteractionBound:
    """Upper bounds on the mean interaction energy of one n-cycle.

    The asymptotic form replaces the exact k-sum by its zeta-function
    bound; the exact finite-L sum is returned alongside (its binomial
    l = 0 term reproduces the (n-1)/L^d piece).  Both vanish for n = 1:
    a single 1-cycle has no split to interact across.
    """
    kappa = _zeta_bound_constant(pot.d)
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    if n == 1:
        return MeanInteractionBound(0.0, 0.0)
    d = pot.d
    lam = thermal_wavelength(beta)
    half_norm = 0.5 * pot.norm1
    asymptotic = half_norm * n * ((n - 1) / L**d + 2.0 * kappa / lam**d)
    alpha = alpha_nk(n, np.arange(1, n), lam)
    exact = half_norm * n * float(np.sum(alpha ** (d / 2.0) * (1.0 + 1.0 / (L * np.sqrt(alpha))) ** d))
    return MeanInteractionBound(float(asymptotic), exact)


def _log_phi_edges(L: float, beta: float, pot: PairPotential) -> tuple[float, float]:
    # per-particle log edges: -A and +B in e^{-A n} <= Phi_n/q_n <= e^{+B n}
    pot.require_positive_pair("single-cycle weight bounds")
    log_lower = -_zeta_bound_constant(pot.d) * beta * pot.norm1 / thermal_wavelength(beta) ** pot.d
    log_upper = 0.5 * beta * periodize(pot, L, np.zeros(pot.d))
    return log_lower, log_upper


def phi_nn_bounds(n: int, L: float, beta: float, pot: PairPotential) -> BoundPair:
    """Bounds on the interacting single-cycle weight as a multiplier of the
    ideal q_n: e^{-A n} <= Phi_n/q_n <= e^{+B n} with
    A = 2^{d/2-1} zeta(d/2) beta |u|_1 / lambda^d and B = beta u_L(0)/2."""
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    log_lower, log_upper = _log_phi_edges(L, beta, pot)
    if log_upper * n > _LOG_FLOAT_MAX:
        raise ValueError(
            f"cycle length n = {n}: the upper edge e^(B n) = e^{log_upper * n:.6g} overflows a float"
        )
    return BoundPair(math.exp(log_lower * n), math.exp(log_upper * n), context="cycle weight multiplier")


def dcp_bound_weights(
    params: SystemParams, pot: PairPotential
) -> tuple[WeightSequence, WeightSequence]:
    """The dcp-lower and dcp-upper weight sequences q_n c^n, with log c the
    per-particle edge of phi_nn_bounds."""
    return _edge_weights(WeightSequence.ideal(params), *_log_phi_edges(params.L, params.beta, pot))


def _edge_weights(
    ideal: WeightSequence, log_lower: float, log_upper: float
) -> tuple[WeightSequence, WeightSequence]:
    n = np.arange(1, len(ideal) + 1, dtype=float)
    lower = ideal.rescaled(n * log_lower, tag="dcp-lower", rate=log_lower)
    upper = ideal.rescaled(n * log_upper, tag="dcp-upper", rate=log_upper)
    return lower, upper


class FreeEnergyBounds(NamedTuple):
    f: BoundPair  # on the interacting free-energy density
    f_tilde: BoundPair  # on f - rho^2 |u|_1 / 2


def free_energy_bounds(
    rho: float, beta: float, pot: PairPotential, c_u: float | None = None
) -> FreeEnergyBounds:
    """Free-energy sandwich around the ideal value:

        C[u] rho^2 - (u(0)/2) rho + f0  <=  f  <=
        (|u|_1/2) rho^2 + 2^{d/2-1} zeta(d/2) |u|_1 rho / lambda^d + f0,

    with the superstability constant C[u] = uhat(0)/2 for positive-type
    potentials, overridable through ``c_u`` for potentials outside that
    class (it must then be a valid constant for the caller's potential).
    """
    kappa = _zeta_bound_constant(pot.d)
    _require_length("density", "rho", rho, 2)  # the mean-field terms carry rho^2
    if c_u is None:
        pot.require_positive_pair("the free-energy sandwich with C[u] = uhat(0)/2")
        c_u = 0.5 * pot.uhat0
    d = pot.d
    lam = thermal_wavelength(beta)
    f0 = ideal_free_energy_density(rho, beta, d)
    lower = c_u * rho**2 - 0.5 * pot.u0 * rho + f0
    upper = 0.5 * pot.norm1 * rho**2 + kappa * pot.norm1 * rho / lam**d + f0
    f = BoundPair(lower, upper, context="free energy")
    shift = 0.5 * pot.norm1 * rho**2
    f_tilde = BoundPair(lower - shift, upper - shift, context="mean-field-subtracted free energy")
    return FreeEnergyBounds(f=f, f_tilde=f_tilde)


def dcp_partition_sandwich(
    N: int, L: float, beta: float, pot: PairPotential, verify: bool = True
) -> BoundPair:
    """Bounds on log Q~dcp - log Q0 for the decoupled model:
    -2^{d/2-1} zeta(d/2) beta uhat(0) N / lambda^d <= . <= beta u_L(0) N / 2.

    With ``verify`` the recursion is run with the dcp-lower and dcp-upper
    weights and checked to land inside the sandwich; a per-cycle factor
    c^n telescopes to a global c^N, so each run must reproduce its edge
    of the sandwich to rounding (O(N^2) cost, skip for very large N).
    """
    log_lower, log_upper = _log_phi_edges(L, beta, pot)
    d = pot.d
    coeff = _zeta_bound_constant(d) * beta / thermal_wavelength(beta) ** d
    lower = -coeff * pot.uhat0 * N
    upper = log_upper * N
    bounds = BoundPair(lower, upper, context="log partition shift")
    if verify:
        params = SystemParams(d=d, L=L, N=N, beta=beta)
        ideal = WeightSequence.ideal(params)
        base = build_partition_table(params, ideal).logQ[N]
        w_lo, w_hi = _edge_weights(ideal, log_lower, log_upper)
        # uhat(0) = |u|_1 for this class; allow for their quadratures differing
        slack = 1e-12 * max(1.0, abs(lower), abs(upper)) + coeff * abs(pot.norm1 - pot.uhat0) * N
        for w, edge, name in ((w_lo, N * w_lo.rate, "lower"), (w_hi, N * w_hi.rate, "upper")):
            shift = build_partition_table(params, w).logQ[N] - base
            if abs(shift - edge) > slack:
                raise RuntimeError(
                    f"{name} dcp recursion drifted from its telescoped edge: "
                    f"{shift} vs {edge}"
                )
            if not bounds.contains(shift, slack=slack):
                raise RuntimeError(f"{name} dcp recursion left the sandwich: {shift}")
    return bounds


@dataclass(frozen=True)
class ConditionReport:
    """Sampled check of the three validity conditions."""

    nonnegative_u: bool  # (i): u >= 0
    positive_type: bool  # (ii): uhat >= 0 and integrable
    periodizable: bool  # (iii): decay exponent eta > 0
    min_u: float
    min_uhat: float
    declared_tail_exponent: float  # -(d + eta)
    fitted_tail_exponent: float  # slope of log|u| vs log r, inf if u vanishes
    uhat_integral: float

    @property
    def all_pass(self) -> bool:
        return self.nonnegative_u and self.positive_type and self.periodizable


def validate_conditions(
    pot: PairPotential, r_max: float = 10.0, k_max: float = 10.0, num: int = 128
) -> ConditionReport:
    """Sample u and uhat on radial grids and report the three conditions.

    Report-only: a failing condition does not raise here, it shows up as
    a False flag (construction-time flags are cross-checked against the
    sampled minima).
    """
    r = np.linspace(0.0, r_max, num)
    k = np.linspace(0.0, k_max, num)
    u_samples = np.asarray(pot.u(r), dtype=float)
    uhat_samples = np.asarray(pot.uhat(k), dtype=float)
    min_u = float(u_samples.min())
    min_uhat = float(uhat_samples.min())
    # tail exponent from the outer half-decade of nonvanishing samples
    good = (r >= 0.5 * r_max) & (np.abs(u_samples) > 1e-280)
    if good.sum() < 2:
        fitted = math.inf
    else:
        fitted = float(np.polyfit(np.log(r[good]), np.log(np.abs(u_samples[good])), 1)[0])
    surface = 2.0 * math.pi ** (pot.d / 2.0) / math.gamma(pot.d / 2.0)  # 2 for d = 1
    integrand = np.abs(uhat_samples) * k ** (pot.d - 1)
    uhat_integral = surface * float(np.trapezoid(integrand, k))
    return ConditionReport(
        nonnegative_u=min_u >= 0.0,
        positive_type=min_uhat >= -1e-12 * max(abs(pot.uhat0), 1.0),
        periodizable=pot.eta > 0.0,
        min_u=min_u,
        min_uhat=min_uhat,
        declared_tail_exponent=-(pot.d + pot.eta),
        fitted_tail_exponent=fitted,
        uhat_integral=uhat_integral,
    )


def _read_keyvalue(path) -> dict[str, str]:
    """Entries of a 'key = value' file; '#' starts a comment, blank lines
    are skipped, a later entry overrides an earlier one."""
    out = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _read_two_columns(path) -> list[tuple[int, float, float]]:
    """Numeric rows (lineno, x, y) of a two-column CSV; '#' starts a
    comment, blank lines and header rows before the first numeric row are
    skipped."""
    rows = []
    with open(path) as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {raw.strip()!r}")
            try:
                rows.append((lineno, float(cols[0]), float(cols[1])))
            except ValueError:
                if rows:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric row {raw.strip()!r} after data began"
                    ) from None
    return rows


def load_potential(path) -> PairPotential:
    """Potential definition file: 'key = value' lines with '#' comments.

    kind = gaussian requires g and sigma; kind = tabulated and
    kind = autocorrelation require profile = <csv of (r, value)>, resolved
    relative to the definition file; eta is optional (default: compact
    support, infinite exponent).  d defaults to 3.
    """
    path = Path(path)
    spec = _read_keyvalue(path)
    kind = spec.get("kind")
    d = int(spec.get("d", 3))
    if kind == "gaussian":
        for key in ("g", "sigma"):
            if key not in spec:
                raise ValueError(f"{path}: kind = gaussian needs {key} = <number>")
        return gaussian_potential(float(spec["g"]), float(spec["sigma"]), d)
    if kind in ("tabulated", "autocorrelation"):
        if "profile" not in spec:
            raise ValueError(f"{path}: kind = {kind} needs profile = <csv path>")
        profile_path = path.parent / spec["profile"]
        rows = _read_two_columns(profile_path)
        if len(rows) < 2:
            raise ValueError(f"{profile_path}: profile needs at least 2 numeric rows")
        _, r, vals = np.array(rows).T
        if kind == "autocorrelation":
            return autocorrelation_potential(r, vals, d)
        return tabulated_potential(r, vals, d, float(spec.get("eta", math.inf)))
    raise ValueError(f"{path}: kind must be gaussian, tabulated, or autocorrelation, got {kind!r}")

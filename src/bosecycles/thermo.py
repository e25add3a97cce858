"""Chemical potentials, critical densities, condensate fractions, and
free-energy densities for the ideal gas and cycle-decoupling surrogates.

A decoupling surrogate multiplies the ideal cycle weight by phi_n with
exponential rate b, which shifts the saturation point to mu_bar = -b/beta
and the critical value to zeta_dcp = sum_n phi_n e^{-b n} / n^{d/2}.  The
ideal gas is the surrogate phi_n = 1 (``DcpModel.ideal``), whose mu solves
g_{d/2}(e^{beta mu}) = rho lambda^d for mu <= 0 and saturates at 0 when
rho lambda^d >= zeta(d/2); one solver serves both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .cycle_engine import (
    SystemParams,
    WeightSequence,
    _require_eps,
    aggregate_macroscopic,
    build_partition_table,
    cycle_density_spectrum,
)
from .special_fn import (
    _degeneracy,
    _require_dimension,
    _require_length,
    polylog,
    thermal_wavelength,
    zeta,
)

__all__ = [
    "UnsupportedDimensionError",
    "TruncationError",
    "ThermoPoint",
    "DcpModel",
    "ScanRow",
    "ideal_mu",
    "ideal_free_energy_density",
    "ideal_point",
    "estimate_rate",
    "dcp_mu",
    "dcp_critical_density",
    "dcp_point",
    "condensate_fraction",
    "finite_size_scan",
]

_BISECT_MAX_ITER = 200
_BISECT_REL_WIDTH = 1e-12
_TAIL_REL_TOL = 1e-12


class UnsupportedDimensionError(ValueError):
    """Condensation quantities need d >= 3; g_{d/2} diverges at z = 1 below that."""


class TruncationError(RuntimeError):
    """A series over supplied weights could not be certified to the target tolerance."""


def _require_condensing_dimension(d: int) -> None:
    if d < 3:
        raise UnsupportedDimensionError(
            f"condensation quantities require d >= 3 (no condensation for d = {d})"
        )
    _require_dimension(d)


def _certified_series(log_w: np.ndarray, t: float, s: float, what: str) -> float:
    """Sum exp(log_w[n-1] + t n - s log n) over n = 1..len(log_w),
    certifying a geometric bound on the truncated tail.

    The bound uses the largest ratio among the last few terms; it is valid
    whenever the decay past the end of the array is at least that fast.
    Polynomially decaying tails can never be certified this way and raise
    TruncationError, as do growing tails.
    """
    n = np.arange(1, log_w.size + 1, dtype=float)
    terms = np.exp(log_w + t * n - s * np.log(n))
    total = float(terms.sum())
    last = float(terms[-1])
    if last == 0.0:
        return total
    window = terms[-6:]
    window = window[window > 0.0]
    if window.size < 2:
        raise TruncationError(f"{what}: too few terms to bound the tail")
    r = float((window[1:] / window[:-1]).max())
    if r >= 1.0:
        raise TruncationError(
            f"{what}: terms not decaying at the end (last ratio {r:.6g}); "
            "supply a longer weight array or the analytic family form"
        )
    bound = last * r / (1.0 - r)
    if bound > _TAIL_REL_TOL * total:
        raise TruncationError(
            f"{what}: geometric tail bound {bound:.3e} exceeds "
            f"{_TAIL_REL_TOL:.0e} of the partial sum {total:.6g}; "
            "supply a longer weight array or the analytic family form"
        )
    return total


def estimate_rate(weights: WeightSequence) -> float:
    """Exponential rate b = lim n^{-1} ln phi_n, estimated as the slope of
    a least-squares line through ln phi_n over the last third of the array.

    Exact for data whose log is linear there.  On data with a curving
    subexponential correction the fit lands near the window-average slope
    rather than the true asymptote, so a certification step downstream
    may still reject the estimate; supply b explicitly in that case.
    """
    log_phi = weights.log_w
    n = np.arange(1, log_phi.size + 1, dtype=float)
    k = max(2, log_phi.size // 3)
    return float(np.polyfit(n[-k:], log_phi[-k:], 1)[0])


@dataclass(frozen=True)
class DcpModel:
    """Cycle-decoupling surrogate: weights phi_n with exponential rate b.

    Built either from the analytic family phi_n = exp(c e^{-eps beta} n) /
    n^gamma, held as (b, gamma) alone, whose sums reduce exactly to
    polylogarithms, or from an explicit weight array ``phi`` whose sums
    are certified term by term.  The model is bound to the (beta, d) it
    was built for.
    """

    phi: WeightSequence | None  # set in array mode; None in family mode
    b: float
    mu_bar: float
    zeta_dcp: float
    beta: float
    d: int
    gamma: float | None = None  # set in family mode; None in array mode

    @classmethod
    def from_family(cls, c: float, eps: float, gamma: float, beta: float, d: int) -> "DcpModel":
        """phi_n = exp(c e^{-eps beta} n) / n^gamma with rate b = c e^{-eps beta}."""
        _require_condensing_dimension(d)
        if c < 0.0:
            raise ValueError(f"family coefficient c must be >= 0, got {c}")
        if not eps > 0.0:
            raise ValueError(f"family decay constant eps must be positive, got {eps}")
        if not gamma + d / 2.0 > 1.0:
            raise ValueError(
                f"gamma + d/2 = {gamma + d / 2.0} <= 1: the saturation sum diverges"
            )
        b = c * math.exp(-eps * beta)
        zeta_dcp = zeta(gamma + d / 2.0)
        return cls(phi=None, b=b, mu_bar=-b / beta, zeta_dcp=zeta_dcp, beta=beta, d=d, gamma=gamma)

    @classmethod
    def from_weights(
        cls, phi: WeightSequence, beta: float, d: int, b: float | None = None
    ) -> "DcpModel":
        """Array mode; b defaults to the sequence rate or a tail regression."""
        _require_condensing_dimension(d)
        if b is None:
            b = phi.rate if phi.rate is not None else estimate_rate(phi)
        what = "saturation sum over phi_n e^{-bn}/n^{d/2}"
        zeta_dcp = _certified_series(phi.log_w, -b, d / 2.0, what)
        return cls(phi=phi, b=float(b), mu_bar=-b / beta, zeta_dcp=zeta_dcp, beta=beta, d=d)

    @classmethod
    def ideal(cls, beta: float, d: int) -> "DcpModel":
        """The ideal gas, phi_n = 1 with b = gamma = 0.  Not from_family(0, ...),
        whose mu_bar = -b/beta is -0.0: the ideal mu saturates at +0.0."""
        _require_condensing_dimension(d)
        thermal_wavelength(beta)  # rejects a beta that is not positive and finite
        return cls(phi=None, b=0.0, mu_bar=0.0, zeta_dcp=zeta(d / 2.0), beta=beta, d=d, gamma=0.0)

    def log_phi(self, n) -> np.ndarray:
        """log phi_n for integer n >= 1; any n in family mode."""
        n = np.asarray(n, dtype=float)
        if self.phi is None:
            return self.b * n - self.gamma * np.log(n)
        if np.any(n > len(self.phi)):
            raise ValueError(f"weight array covers n <= {len(self.phi)}")
        return self.phi.log_w[n.astype(int) - 1]

    def _series(self, y: float, s: float, what: str) -> float:
        """sum_n phi_n e^{(y - b) n} / n^s for y <= 0: a polylog in family
        mode, a certified partial sum in array mode."""
        if self.phi is None:
            return polylog(self.gamma + s, math.exp(y))
        return _certified_series(self.phi.log_w, y - self.b, s, what)

    def saturation_sum(self, beta_mu: float) -> float:
        """S(mu) = sum_n phi_n e^{beta mu n} / n^{d/2}, finite for mu <= mu_bar."""
        y = beta_mu + self.b  # = beta (mu - mu_bar)
        if y > 0.0:
            raise ValueError(f"beta*mu = {beta_mu} exceeds the saturation point {-self.b}")
        return self._series(y, self.d / 2.0, "cycle sum over phi_n e^{beta mu n}/n^{d/2}")


@dataclass(frozen=True)
class ThermoPoint:
    """One thermodynamic state with its derived condensation quantities."""

    rho: float
    beta: float
    d: int
    mu: float
    f0: float
    condensate_fraction: float
    critical_density: float

    def __post_init__(self):
        if not 0.0 <= self.condensate_fraction <= 1.0:
            raise ValueError(f"condensate fraction outside [0, 1]: {self.condensate_fraction}")
        if not self.critical_density > 0.0:
            raise ValueError(f"critical density must be positive: {self.critical_density}")

    @property
    def rho_lam_d(self) -> float:
        return _degeneracy(self.rho, _thermal_volume(self.beta, self.d))


def _thermal_volume(beta: float, d: int) -> float:
    """lambda^d, rejected with a ValueError where it leaves the float range."""
    lam = thermal_wavelength(beta)
    _require_length("thermal wavelength", "lambda", lam, d)
    return lam**d


def _bisect_increasing(fn, lo: float, hi: float, target: float) -> float:
    """Root of fn(x) = target for increasing fn, with fn(lo) < target < fn(hi)
    up to saturation; the bracket is halved until its width falls below
    1e-12 of its own endpoints' magnitude, localizing the root to 12
    relative digits even where the inverse function is steep."""
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_REL_WIDTH * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_model_context(model: DcpModel, beta: float, d: int) -> None:
    if d != model.d or not math.isclose(beta, model.beta, rel_tol=1e-12):
        raise ValueError(
            f"model was built for (beta, d) = ({model.beta}, {model.d}), "
            f"called with ({beta}, {d})"
        )


def dcp_mu(rho: float, beta: float, model: DcpModel, d: int = 3) -> float:
    """Chemical potential of the decoupling surrogate: solves
    S(mu) = rho lambda^d for mu <= mu_bar, saturating at mu_bar."""
    _check_model_context(model, beta, d)
    if not rho > 0.0:
        raise ValueError(f"density must be positive, got {rho}")
    target = _degeneracy(rho, _thermal_volume(beta, d))
    if target >= model.zeta_dcp:
        return model.mu_bar
    # bisect in y = beta (mu - mu_bar); S ~ phi_1 e^{-b} e^y as y -> -inf
    log_psi1 = float(model.log_phi(1)) - model.b
    lo = min(math.log(target) - log_psi1 - 1.0, -50.0)
    sum_at = lambda y: model.saturation_sum((y - model.b))
    for _ in range(60):
        if sum_at(lo) < target:
            break
        lo *= 2.0
    y = _bisect_increasing(sum_at, lo, 0.0, target)
    return model.mu_bar + y / beta


def dcp_critical_density(beta: float, model: DcpModel, d: int = 3) -> float:
    """zeta_dcp(beta) / lambda^d, the density where dcp_mu saturates."""
    _check_model_context(model, beta, d)
    return model.zeta_dcp / _thermal_volume(beta, d)


def condensate_fraction(rho: float, beta: float, d: int = 3, model: DcpModel | None = None) -> float:
    """max(0, 1 - zeta_dcp/(rho lambda^d)) for the model, the ideal gas
    (zeta_dcp = zeta(d/2)) when none is given."""
    if model is None:
        model = DcpModel.ideal(beta, d)
    _check_model_context(model, beta, d)
    if not rho > 0.0:
        raise ValueError(f"density must be positive, got {rho}")
    return max(0.0, 1.0 - model.zeta_dcp / _degeneracy(rho, _thermal_volume(beta, d)))


def dcp_point(rho: float, beta: float, model: DcpModel, d: int = 3) -> ThermoPoint:
    mu = dcp_mu(rho, beta, model, d)
    # f0 = rho mu - sum_n phi_n e^{beta mu n} / n^{1+d/2} / (beta lambda^d)
    y = beta * (mu - model.mu_bar)
    tail = model._series(y, 1.0 + d / 2.0, "free-energy sum over phi_n e^{beta mu n}/n^{1+d/2}")
    f_unit = beta * _thermal_volume(beta, d)
    if not f_unit >= sys.float_info.min:
        raise ValueError(f"beta lambda^d = {f_unit!r} underflows: f0 is out of float range")
    return ThermoPoint(
        rho=rho,
        beta=beta,
        d=d,
        mu=mu,
        f0=rho * mu - tail / f_unit,
        condensate_fraction=condensate_fraction(rho, beta, d, model),
        critical_density=dcp_critical_density(beta, model, d),
    )


def ideal_mu(rho: float, beta: float, d: int = 3) -> float:
    """Ideal-gas chemical potential: the unique mu <= 0 with
    g_{d/2}(e^{beta mu}) = rho lambda^d, or 0 once that saturates at
    zeta(d/2)."""
    return dcp_mu(rho, beta, DcpModel.ideal(beta, d), d)


def ideal_free_energy_density(rho: float, beta: float, d: int = 3) -> float:
    """f0 = rho mu - g_{1+d/2}(e^{beta mu})/(beta lambda^d); equals the
    constant -zeta(1+d/2)/(beta lambda^d) in the condensed phase."""
    model = DcpModel.ideal(beta, d)
    if rho == 0.0:
        return 0.0
    return dcp_point(rho, beta, model, d).f0


def ideal_point(rho: float, beta: float, d: int = 3) -> ThermoPoint:
    return dcp_point(rho, beta, DcpModel.ideal(beta, d), d)


class ScanRow(NamedTuple):
    N: int
    macro_fraction: float  # cycles n >= eps N, as a fraction of rho
    band_fraction: float  # band eps N^{2/d} <= n <= N/ln N, as a fraction of rho
    condensate_estimate: float  # exact zero-mode occupation <N_0>/N at this N


def finite_size_scan(
    rho: float,
    beta: float,
    d: int,
    N_list: Iterable[int],
    eps: float,
    model: DcpModel | None = None,
) -> list[ScanRow]:
    """Cycle-spectrum aggregates on a ladder of system sizes at fixed density.

    For each N the box is L = (N/rho)^{1/d}; weights are the ideal q_n,
    multiplied by phi_n when a surrogate model is given.  The condensate
    estimate is the canonical zero-mode occupation
    <N_0>/N = (1/N) sum_{n=1}^{N} Q_{N-n}/Q_N.
    """
    _require_eps(eps)
    rows = []
    for N in N_list:
        params = SystemParams.from_density(d, int(N), rho, beta)
        weights = WeightSequence.ideal(params)
        if model is not None:
            _check_model_context(model, beta, d)
            n = np.arange(1, params.N + 1)
            weights = weights.rescaled(model.log_phi(n), tag="custom", rate=model.b)
        table = build_partition_table(params, weights)
        spectrum = cycle_density_spectrum(table)
        agg = aggregate_macroscopic(spectrum, eps)
        occupation = float(np.exp(table.log_ratios()).sum())
        rows.append(
            ScanRow(
                N=params.N,
                macro_fraction=agg.macro / rho,
                band_fraction=agg.band / rho,
                condensate_estimate=occupation / params.N,
            )
        )
    return rows

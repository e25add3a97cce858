"""Chemical potentials, critical densities, condensate fractions, and
free-energy densities for the ideal gas and cycle-decoupling surrogates.

A decoupling surrogate multiplies the ideal cycle weight by
phi_n = e^{b n} / n^gamma, which shifts the saturation point to
mu_bar = -b/beta and the critical value to zeta_dcp = zeta(gamma + d/2).
The ideal gas is the surrogate phi_n = 1 (``DcpModel.ideal``), whose mu solves
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
    _polylog_exp,
    _require_dimension,
    _require_length,
    thermal_wavelength,
    zeta,
)

__all__ = [
    "UnsupportedDimensionError",
    "ThermoPoint",
    "DcpModel",
    "ScanRow",
    "ideal_mu",
    "ideal_free_energy_density",
    "ideal_point",
    "dcp_mu",
    "dcp_critical_density",
    "dcp_point",
    "condensate_fraction",
    "finite_size_scan",
]

_BISECT_MAX_ITER = 200
_BISECT_REL_WIDTH = 1e-12


class UnsupportedDimensionError(ValueError):
    """Condensation quantities need d >= 3; g_{d/2} diverges at z = 1 below that."""


def _require_condensing_dimension(d: int) -> None:
    if d < 3:
        raise UnsupportedDimensionError(
            f"condensation quantities require d >= 3 (no condensation for d = {d})"
        )
    _require_dimension(d)


@dataclass(frozen=True)
class DcpModel:
    """Cycle-decoupling surrogate phi_n = e^{b n} / n^gamma.

    The weights of the analytic family, with rate b = c e^{-eps beta} and
    power gamma, held as (b, gamma) alone: every sum over them is a
    polylogarithm of order gamma + s.  The dcp weights q_n a^n are the
    member gamma = 0, b = log a, and the ideal gas is b = gamma = 0.  The
    model is bound to the (beta, d) it was built for.
    """

    b: float
    gamma: float
    mu_bar: float
    zeta_dcp: float
    beta: float
    d: int

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
        return cls(b=b, gamma=gamma, mu_bar=-b / beta, zeta_dcp=zeta_dcp, beta=beta, d=d)

    @classmethod
    def ideal(cls, beta: float, d: int) -> "DcpModel":
        """The ideal gas, phi_n = 1 with b = gamma = 0.  Not from_family(0, ...),
        whose mu_bar = -b/beta is -0.0: the ideal mu saturates at +0.0."""
        _require_condensing_dimension(d)
        thermal_wavelength(beta)  # rejects a beta that is not positive and finite
        return cls(b=0.0, gamma=0.0, mu_bar=0.0, zeta_dcp=zeta(d / 2.0), beta=beta, d=d)

    def log_phi(self, n) -> np.ndarray:
        """log phi_n = b n - gamma log n."""
        n = np.asarray(n, dtype=float)
        return self.b * n - self.gamma * np.log(n)

    def _series(self, y: float, s: float) -> float:
        """sum_n phi_n e^{(y - b) n} / n^s = g_{gamma+s}(e^y) for y <= 0."""
        return _polylog_exp(self.gamma + s, y)

    def saturation_sum(self, beta_mu: float) -> float:
        """S(mu) = sum_n phi_n e^{beta mu n} / n^{d/2}, finite for mu <= mu_bar."""
        y = beta_mu + self.b  # = beta (mu - mu_bar)
        if y > 0.0:
            raise ValueError(f"beta*mu = {beta_mu} exceeds the saturation point {-self.b}")
        return self._series(y, self.d / 2.0)


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
    # bisect in y = beta (mu - mu_bar), where S = g_{gamma+d/2}(e^y) <=
    # e^y / (1 - e^y) as gamma + d/2 > 1: S(lo) <= (target/e) / (1 - e^-50)
    # < target, so the first bracket holds
    lo = min(math.log(target) - 1.0, -50.0)
    y = _bisect_increasing(lambda y: model._series(y, d / 2.0), lo, 0.0, target)
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
    tail = model._series(y, 1.0 + d / 2.0)
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
    <N_0>/N = (1/N) sum_{n=1}^{N} phi_n Q_{N-n}/Q_N, the zero mode's own
    cycle weight being phi_n (1 for the ideal gas).
    """
    _require_eps(eps)
    rows = []
    for N in N_list:
        params = SystemParams.from_density(d, int(N), rho, beta)
        weights = WeightSequence.ideal(params)
        log_phi = 0.0
        if model is not None:
            _check_model_context(model, beta, d)
            log_phi = model.log_phi(np.arange(1, params.N + 1))
            weights = weights.rescaled(log_phi, tag="custom", rate=model.b)
        table = build_partition_table(params, weights)
        spectrum = cycle_density_spectrum(table)
        agg = aggregate_macroscopic(spectrum, eps)
        occupation = float(np.exp(log_phi + table.log_ratios()).sum())
        rows.append(
            ScanRow(
                N=params.N,
                macro_fraction=agg.macro / rho,
                band_fraction=agg.band / rho,
                condensate_estimate=occupation / params.N,
            )
        )
    return rows

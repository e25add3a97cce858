"""Oracle tests for chemical potentials, condensate fractions, free
energies, and the finite-size scan.

Forward evaluation of the cycle sums is the oracle for every inversion;
closed-form condensed-phase values are asserted directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bosecycles.cycle_engine import WeightSequence
from bosecycles.special_fn import polylog, thermal_wavelength, zeta
from bosecycles.thermo import (
    DcpModel,
    TruncationError,
    UnsupportedDimensionError,
    condensate_fraction,
    dcp_critical_density,
    dcp_mu,
    dcp_point,
    estimate_rate,
    finite_size_scan,
    ideal_free_energy_density,
    ideal_mu,
    ideal_point,
)

ZETA32 = 2.6123753486854883
ZETA52 = 1.3414872572509172


def _rho(rho_lam_d, beta=1.0, d=3):
    return rho_lam_d / thermal_wavelength(beta) ** d


class TestIdealMu:
    def test_saturates_at_threshold(self):
        assert ideal_mu(_rho(ZETA32), 1.0, 3) == 0.0
        assert ideal_mu(_rho(2 * ZETA32), 1.0, 3) == 0.0

    @pytest.mark.parametrize("rho_lam_d", [1e-6, 1e-3, 1e-2])
    def test_boltzmann_limit(self, rho_lam_d):
        beta = 1.0
        mu = ideal_mu(_rho(rho_lam_d), beta, 3)
        assert beta * mu == pytest.approx(math.log(rho_lam_d), abs=2 * rho_lam_d)

    @pytest.mark.parametrize("rho_lam_d", [0.1, 0.5, 1.0, 2.0, 2.6])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_round_trip(self, rho_lam_d, beta):
        mu = ideal_mu(_rho(rho_lam_d, beta), beta, 3)
        assert mu <= 0.0
        assert polylog(1.5, math.exp(beta * mu)) == pytest.approx(rho_lam_d, rel=1e-10)

    def test_strictly_increasing_below_threshold(self):
        grid = np.linspace(0.1, 2.6, 12)
        mus = [ideal_mu(_rho(t), 1.0, 3) for t in grid]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_d4_round_trip(self):
        mu = ideal_mu(_rho(1.0, d=4), 1.0, 4)
        assert polylog(2.0, math.exp(mu)) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_low_dimension_and_bad_density(self):
        with pytest.raises(UnsupportedDimensionError):
            ideal_mu(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            ideal_mu(0.0, 1.0, 3)


class TestIdealFreeEnergy:
    def test_condensed_phase_value(self):
        beta = 1.0
        lam = thermal_wavelength(beta)
        for rho_lam_d in (ZETA32, 2 * ZETA32, 10.0):
            f0 = ideal_free_energy_density(_rho(rho_lam_d), beta, 3)
            assert f0 == pytest.approx(-ZETA52 / (beta * lam**3), rel=1e-12)

    def test_vanishes_with_density(self):
        # f0 ~ rho ln(rho lam^d) -> 0, with the logarithmic factor
        assert ideal_free_energy_density(0.0, 1.0, 3) == 0.0
        rho = _rho(1e-8)
        f0 = ideal_free_energy_density(rho, 1.0, 3)
        assert abs(f0) < 2 * rho * abs(math.log(1e-8))

    def test_construction_formula(self):
        beta, d = 1.0, 3
        rho = _rho(1.0)
        mu = ideal_mu(rho, beta, d)
        lam = thermal_wavelength(beta)
        want = rho * mu - polylog(2.5, math.exp(beta * mu)) / (beta * lam**3)
        assert ideal_free_energy_density(rho, beta, d) == pytest.approx(want, rel=1e-14)

    def test_derivative_is_mu(self):
        # central difference at relative step 1e-6
        beta, d = 1.0, 3
        for rho_lam_d in (0.5, 1.0, 2.0):
            rho = _rho(rho_lam_d)
            h = 1e-6 * rho
            fp = ideal_free_energy_density(rho + h, beta, d)
            fm = ideal_free_energy_density(rho - h, beta, d)
            assert (fp - fm) / (2 * h) == pytest.approx(ideal_mu(rho, beta, d), abs=1e-6)

    def test_convex_in_rho(self):
        beta, d = 1.0, 3
        grid = np.linspace(0.05, 1.5, 40) * _rho(ZETA32)
        f = np.array([ideal_free_energy_density(r, beta, d) for r in grid])
        assert np.all(np.diff(f, 2) >= -1e-9)

    def test_continuous_at_threshold(self):
        rho_c = _rho(ZETA32)
        below = ideal_free_energy_density(rho_c * (1 - 1e-9), 1.0, 3)
        above = ideal_free_energy_density(rho_c * (1 + 1e-9), 1.0, 3)
        assert below == pytest.approx(above, rel=1e-7)


class TestCondensateFraction:
    def test_threshold_cases(self):
        assert condensate_fraction(_rho(ZETA32), 1.0, 3) == 0.0
        assert condensate_fraction(_rho(0.5 * ZETA32), 1.0, 3) == 0.0
        assert condensate_fraction(_rho(2 * ZETA32), 1.0, 3) == pytest.approx(0.5, rel=1e-14)

    def test_monotone_in_density(self):
        grid = np.linspace(0.5, 4.0, 20) * _rho(ZETA32)
        fracs = [condensate_fraction(r, 1.0, 3) for r in grid]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert all(0.0 <= f < 1.0 for f in fracs)

    def test_rejects_low_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            condensate_fraction(1.0, 1.0, 1)

    def test_rejects_model_context_mismatch(self):
        model = DcpModel.from_family(0.2, 1.0, 1.0, 1.0, 3)
        with pytest.raises(ValueError, match="model was built for"):
            condensate_fraction(1.0, 2.0, 3, model)
        with pytest.raises(ValueError, match="model was built for"):
            condensate_fraction(1.0, 1.0, 4, model)


class TestIdealPoint:
    def test_fields_consistent(self):
        beta = 0.7
        rho = _rho(2 * ZETA32, beta)
        pt = ideal_point(rho, beta, 3)
        lam = thermal_wavelength(beta)
        assert pt.mu == 0.0
        assert pt.critical_density == pytest.approx(ZETA32 / lam**3, rel=1e-14)
        assert pt.condensate_fraction == pytest.approx(0.5, rel=1e-12)
        assert pt.rho_lam_d == pytest.approx(2 * ZETA32, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_equals_trivial_family_point(self, d):
        # the ideal gas is the c = 0, gamma = 0 member of the surrogate family
        for beta in (0.3, 1.0, 4.0):
            model = DcpModel.from_family(0.0, 1.0, 0.0, beta, d)
            for rho_lam_d in np.array([1e-6, 0.1, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0]) * zeta(d / 2.0):
                rho = _rho(rho_lam_d, beta, d)
                assert ideal_point(rho, beta, d) == dcp_point(rho, beta, model, d)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_saturated_mu_is_positive_zero(self, d):
        beta = 1.0 / (2.0 * math.pi)  # lambda = 1 exactly, so rho lambda^d = rho
        assert thermal_wavelength(beta) == 1.0
        for rho in (zeta(d / 2.0), 1.5 * zeta(d / 2.0), 10.0):
            assert math.copysign(1.0, ideal_point(rho, beta, d).mu) == 1.0

    def test_ideal_model(self):
        model = DcpModel.ideal(1.0, 3)
        assert (model.b, model.gamma, model.zeta_dcp) == (0.0, 0.0, zeta(1.5))
        assert math.copysign(1.0, model.mu_bar) == 1.0
        with pytest.raises(UnsupportedDimensionError):
            DcpModel.ideal(1.0, 2)
        with pytest.raises(ValueError, match="beta"):
            DcpModel.ideal(-1.0, 3)

    @pytest.mark.parametrize("beta", [1e300, 1e-300], ids=["huge-lambda", "tiny-lambda"])
    @pytest.mark.parametrize("call", [ideal_point, ideal_mu, condensate_fraction])
    def test_thermal_volume_out_of_float_range(self, call, beta):
        # lambda^3 overflowed (OverflowError) or underflowed to 0 before it was checked
        with pytest.raises(ValueError, match=r"lambda\^3 outside the float range"):
            call(1.0, beta, 3)

    @pytest.mark.parametrize("call", [ideal_point, condensate_fraction])
    def test_degeneracy_out_of_float_range(self, call):
        # rho lambda^3 overflowed to inf: the fraction read 1 and rho_lam_d inf
        with pytest.raises(ValueError, match=r"density rho = 1e\+308 "):
            call(1e308, 1.0)


class TestDcpModelFamily:
    def test_ideal_reduction(self):
        # c = 0, gamma = 0 collapses the family to phi == 1
        beta = 1.0
        model = DcpModel.from_family(0.0, 1.0, 0.0, beta, 3)
        assert model.b == 0.0
        assert model.mu_bar == 0.0
        assert model.zeta_dcp == pytest.approx(ZETA32, rel=1e-14)
        for rho_lam_d in (0.3, 1.0, 2.0, 3.0):
            rho = _rho(rho_lam_d, beta)
            assert dcp_mu(rho, beta, model, 3) == pytest.approx(
                ideal_mu(rho, beta, 3), rel=1e-12, abs=1e-12
            )

    def test_pure_exponential_shifts_mu(self):
        # gamma = 0: zeta_dcp = zeta(d/2) and mu saturates at -b/beta
        beta, eps, c = 1.0, 0.5, 0.4
        model = DcpModel.from_family(c, eps, 0.0, beta, 3)
        b = c * math.exp(-eps * beta)
        assert model.zeta_dcp == pytest.approx(ZETA32, rel=1e-14)
        mu = dcp_mu(_rho(ZETA32, beta), beta, model, 3)
        assert mu == pytest.approx(-b / beta, abs=1e-9)
        assert dcp_critical_density(beta, model, 3) == pytest.approx(
            ZETA32 / thermal_wavelength(beta) ** 3, rel=1e-14
        )

    def test_polynomial_correction_round_trip(self):
        # phi_n = e^{bn}/n with b = 0.2: saturation sum is g_{5/2}
        beta = 1.0
        model = DcpModel.from_family(0.2 * math.e, 1.0, 1.0, beta, 3)
        assert model.b == pytest.approx(0.2, rel=1e-14)
        assert model.zeta_dcp == pytest.approx(ZETA52, rel=1e-14)
        for rho_lam_d in (0.4, 1.0, 1.3):
            mu = dcp_mu(_rho(rho_lam_d, beta), beta, model, 3)
            assert mu <= model.mu_bar
            assert model.saturation_sum(beta * mu) == pytest.approx(rho_lam_d, rel=1e-10)

    def test_critical_density_with_polynomial_correction(self):
        beta = 0.8
        model = DcpModel.from_family(0.3, 1.0, 1.0, beta, 3)
        lam = thermal_wavelength(beta)
        assert dcp_critical_density(beta, model, 3) == pytest.approx(ZETA52 / lam**3, rel=1e-13)

    def test_condensate_fraction_uses_model_threshold(self):
        beta = 1.0
        model = DcpModel.from_family(0.2, 1.0, 1.0, beta, 3)
        rho = _rho(2 * ZETA52, beta)
        assert condensate_fraction(rho, beta, 3, model) == pytest.approx(0.5, rel=1e-12)

    def test_saturated_point_fields(self):
        beta = 1.0
        model = DcpModel.from_family(0.5, 1.0, 1.0, beta, 3)
        pt = dcp_point(_rho(3 * ZETA52, beta), beta, model, 3)
        assert pt.mu == model.mu_bar
        assert pt.condensate_fraction == pytest.approx(2 / 3, rel=1e-12)

    def test_rejects_bad_family_parameters(self):
        with pytest.raises(ValueError):
            DcpModel.from_family(-0.1, 1.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            DcpModel.from_family(0.1, 0.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            DcpModel.from_family(0.1, 1.0, -0.5, 1.0, 3)  # gamma + d/2 = 1
        with pytest.raises(UnsupportedDimensionError):
            DcpModel.from_family(0.1, 1.0, 0.0, 1.0, 2)

    def test_rejects_context_mismatch(self):
        model = DcpModel.from_family(0.2, 1.0, 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            dcp_mu(0.1, 2.0, model, 3)
        with pytest.raises(ValueError):
            dcp_critical_density(1.0, model, 4)


class TestDcpModelArray:
    def test_fast_decaying_tail_certifies(self):
        # phi_n = e^{bn - sqrt(n)}: rate b, stretched-exponential remainder
        beta, b = 1.0, 0.2
        n = np.arange(1, 3000 + 1, dtype=float)
        phi = WeightSequence(b * n - np.sqrt(n), tag="custom", rate=b)
        model = DcpModel.from_weights(phi, beta, 3)
        want = float(np.sum(np.exp(-np.sqrt(n)) / n**1.5))
        assert model.b == b
        assert model.zeta_dcp == pytest.approx(want, rel=1e-12)

    def test_rate_regression(self):
        b = 0.15
        n = np.arange(1, 4000 + 1, dtype=float)
        exact = WeightSequence(b * n + 0.7, tag="custom")
        assert estimate_rate(exact) == pytest.approx(b, abs=1e-12)
        corrected = WeightSequence(b * n - np.sqrt(n), tag="custom")
        assert estimate_rate(corrected) == pytest.approx(b, abs=0.01)

    def test_regression_estimate_rarely_certifies(self):
        # the fitted slope sits slightly under the asymptotic rate, so the
        # adjusted tail eventually grows and certification must refuse
        b = 0.15
        n = np.arange(1, 4000 + 1, dtype=float)
        phi = WeightSequence(b * n - np.sqrt(n), tag="custom")  # rate not supplied
        with pytest.raises(TruncationError):
            DcpModel.from_weights(phi, 1.0, 3)

    def test_mu_round_trip_against_direct_sum(self):
        beta, b = 1.0, 0.2
        n = np.arange(1, 3000 + 1, dtype=float)
        phi = WeightSequence(b * n - np.sqrt(n), tag="custom", rate=b)
        model = DcpModel.from_weights(phi, beta, 3)
        rho = 0.6 * dcp_critical_density(beta, model, 3)
        mu = dcp_mu(rho, beta, model, 3)
        lam = thermal_wavelength(beta)
        direct = float(np.sum(np.exp(b * n - np.sqrt(n) + beta * mu * n) / n**1.5))
        assert direct == pytest.approx(rho * lam**3, rel=1e-10)

    def test_mu_bracket_widens(self):
        # a negligible phi_1 puts the first bracket y = -50 above the target:
        # S(-50) ~ phi_2 e^{-100} / 2^{3/2} = 1.1e-44 > 1e-50, so the lower
        # end is doubled before the bisection
        beta, target = 1.0, 1e-50
        n = np.arange(1, 1000 + 1, dtype=float)
        log_phi = np.where(n == 1.0, math.log(1e-30), -0.1 * n)
        model = DcpModel.from_weights(WeightSequence(log_phi, tag="custom"), beta, 3, b=0.0)
        assert model.saturation_sum(-50.0) > target
        mu = dcp_mu(_rho(target, beta), beta, model, 3)
        assert model.saturation_sum(beta * mu) == pytest.approx(target, rel=1e-9, abs=0.0)

    def test_polynomial_tail_raises_truncation_error(self):
        # phi == 1 as a bare array cannot certify its polynomial tail
        phi = WeightSequence(np.zeros(2000), tag="custom", rate=0.0)
        with pytest.raises(TruncationError):
            DcpModel.from_weights(phi, 1.0, 3)

    def test_growing_tail_raises_truncation_error(self):
        # misestimated rate: terms grow at the end
        n = np.arange(1, 500 + 1, dtype=float)
        phi = WeightSequence(0.3 * n, tag="custom", rate=0.25)
        with pytest.raises(TruncationError):
            DcpModel.from_weights(phi, 1.0, 3)


class TestFiniteSizeScan:
    def test_single_particle(self):
        rows = finite_size_scan(0.5, 1.0, 3, [1], eps=0.5)
        assert rows[0].N == 1
        assert rows[0].macro_fraction == pytest.approx(1.0, rel=1e-14)
        # <N_0>/N = 1/q_1 for one particle: almost, not exactly, 1
        assert 0.99 < rows[0].condensate_estimate <= 1.0

    def test_above_threshold_trend(self):
        rho = _rho(2 * ZETA32)
        rows = finite_size_scan(rho, 1.0, 3, [128, 512, 2048], eps=0.01)
        limit = 0.5
        gaps = [abs(r.macro_fraction - limit) for r in rows]
        assert gaps[-1] < gaps[0]
        bands = [r.band_fraction for r in rows]
        assert bands[-1] < bands[0]
        ests = [abs(r.condensate_estimate - limit) for r in rows]
        assert ests[-1] < ests[0]

    def test_below_threshold_macro_vanishes(self):
        rho = _rho(0.5 * ZETA32)
        rows = finite_size_scan(rho, 1.0, 3, [64, 256, 1024], eps=0.1)
        fracs = [r.macro_fraction for r in rows]
        assert fracs[-1] < fracs[0]
        assert fracs[-1] < 1e-6

    def test_dcp_surrogate_runs(self):
        beta = 1.0
        model = DcpModel.from_family(0.1, 1.0, 1.0, beta, 3)
        rho = 2 * dcp_critical_density(beta, model, 3)
        rows = finite_size_scan(rho, beta, 3, [64, 256], eps=0.05, model=model)
        assert rows[0].N == 64
        assert all(0.0 <= r.macro_fraction <= 1.0 for r in rows)

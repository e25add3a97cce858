"""Tests for pair potentials and the interaction bounds."""

import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import bosecycles
from bosecycles import potentials
from bosecycles.cycle_engine import SystemParams, WeightSequence, build_partition_table
from bosecycles.potentials import (
    BoundPair,
    MeanInteractionBound,
    PairPotential,
    QuadratureError,
    UnsupportedPotentialError,
    alpha_nk,
    autocorrelation_potential,
    dcp_bound_weights,
    dcp_partition_sandwich,
    free_energy_bounds,
    gaussian_potential,
    load_potential,
    mean_interaction_upper,
    periodize,
    phi_nn_bounds,
    tabulated_potential,
    validate_conditions,
)
from bosecycles.special_fn import theta1d, thermal_wavelength, zeta
from bosecycles.thermo import UnsupportedDimensionError, ideal_free_energy_density

ZETA32 = 2.6123753486854883


def power_law_potential(d: int, eta: float) -> PairPotential:
    """u(r) = (1 + r)^{-(d+eta)}, self-consistent scalars, for tail tests."""
    p = d + eta

    def u(r):
        r = np.asarray(r, dtype=float)
        return (1.0 + r) ** (-p)

    return PairPotential(
        d=d,
        u=u,
        uhat=lambda k: np.zeros_like(np.asarray(k, dtype=float)),
        u0=1.0,
        uhat0=0.0,
        norm1=1.0,
        eta=eta,
        positive=True,
        positive_type=False,
        kind="custom",
    )


class TestBoundPair:
    def test_width_and_contains(self):
        bp = BoundPair(-1.0, 2.0, context="x")
        assert bp.width == 3.0
        assert bp.contains(-1.0) and bp.contains(2.0) and bp.contains(0.5)
        assert not bp.contains(2.1)
        assert bp.contains(2.1, slack=0.2)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            BoundPair(1.0, 0.0)

    def test_context_in_error(self):
        with pytest.raises(ValueError, match="free energy"):
            BoundPair(1.0, 0.0, context="free energy")


class TestGaussianPotential:
    def test_scalars(self):
        p = gaussian_potential(2.0, 0.5, 3)
        assert p.u0 == 2.0
        assert p.uhat0 == 2.0 * 0.5**3
        assert p.norm1 == p.uhat0
        assert p.eta == math.inf
        assert p.positive and p.positive_type
        assert p.kind == "gaussian"

    def test_real_space_values(self):
        p = gaussian_potential(2.0, 0.5, 3)
        assert float(p.u(0.3)) == pytest.approx(2.0 * math.exp(-math.pi * 0.09 / 0.25), rel=1e-15)

    def test_transform_values(self):
        p = gaussian_potential(2.0, 0.5, 3)
        expected = 2.0 * 0.5**3 * math.exp(-math.pi * 0.25 * 1.44)
        assert float(p.uhat(1.2)) == pytest.approx(expected, rel=1e-15)

    def test_transform_self_consistency(self):
        # in d dims: int u = g sigma^d, and u(0) = int uhat by inversion
        for d in (1, 3, 5):
            p = gaussian_potential(1.5, 0.8, d)
            assert p.uhat0 == pytest.approx(1.5 * 0.8**d, rel=1e-15)
            assert float(p.uhat(0.0)) == pytest.approx(p.uhat0, rel=1e-15)

    def test_vectorized(self):
        p = gaussian_potential(1.0, 1.0, 3)
        r = np.array([0.0, 0.5, 1.0])
        vals = p.u(r)
        assert vals.shape == (3,)
        assert vals[0] == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            gaussian_potential(0.0, 1.0)
        with pytest.raises(ValueError, match="range"):
            gaussian_potential(1.0, -0.5)

    def test_transform_convention_invariant(self):
        # uhat(0) <= |u|_1 is enforced at construction
        with pytest.raises(ValueError, match="exceeds the L1 norm"):
            PairPotential(
                d=3, u=lambda r: r, uhat=lambda k: k, u0=1.0, uhat0=2.0,
                norm1=1.0, eta=1.0, positive=True, positive_type=True,
            )


class TestAutocorrelation1d:
    def test_tent_oracle(self):
        # v = indicator of [-R, R]: u(x) = max(0, 2R - |x|)
        R = 0.7
        t = autocorrelation_potential([0.0, R], [1.0, 1.0], d=1)
        for x in (0.0, 0.3, 0.7, 1.0, 1.39):
            assert float(t.u(x)) == pytest.approx(2 * R - x, rel=1e-13)
        assert float(t.u(1.5)) == 0.0

    def test_tent_scalars(self):
        R = 0.7
        t = autocorrelation_potential([0.0, R], [1.0, 1.0], d=1)
        assert t.u0 == pytest.approx(2 * R, rel=1e-13)
        assert t.norm1 == pytest.approx((2 * R) ** 2, rel=1e-13)
        assert t.uhat0 == pytest.approx((2 * R) ** 2, rel=1e-13)
        assert t.eta == math.inf
        assert t.positive and t.positive_type

    def test_tent_transform(self):
        # vhat(k) = sin(2 pi k R)/(pi k) for the indicator, uhat = vhat^2
        R = 0.7
        t = autocorrelation_potential([0.0, R], [1.0, 1.0], d=1)
        for k in (0.3, 0.8, 1.7):
            expected = (math.sin(2 * math.pi * k * R) / (math.pi * k)) ** 2
            assert float(t.uhat(k)) == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_transform_nonnegative_by_construction(self):
        t = autocorrelation_potential([0.0, 0.7], [1.0, 1.0], d=1)
        k = np.linspace(0.0, 12.0, 200)
        assert np.all(np.asarray(t.uhat(k)) >= 0.0)

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            autocorrelation_potential([0.0, 1.0], [-1.0, -1.0], d=1)


class TestAutocorrelation3d:
    def test_ball_lens_oracle(self):
        # overlap of two balls at distance r: pi (2R - r)^2 (4R + r) / 12
        R = 0.8
        ball = autocorrelation_potential([0.0, R], [1.0, 1.0], d=3)
        for r in (0.0, 0.4, 0.9, 1.3):
            lens = math.pi / 12.0 * (2 * R - r) ** 2 * (4 * R + r)
            assert float(ball.u(r)) == pytest.approx(lens, rel=1e-13)
        assert float(ball.u(1.7)) == 0.0

    def test_ball_scalars(self):
        R = 0.8
        ball = autocorrelation_potential([0.0, R], [1.0, 1.0], d=3)
        vol = 4 * math.pi * R**3 / 3
        assert ball.u0 == pytest.approx(vol, rel=1e-12)
        assert ball.norm1 == pytest.approx(vol**2, rel=1e-12)

    def test_ball_form_factor(self):
        R = 0.8
        ball = autocorrelation_potential([0.0, R], [1.0, 1.0], d=3)
        k = 0.9
        w = 2 * math.pi * k * R
        vhat = (math.sin(w) - w * math.cos(w)) / (2 * math.pi**2 * k**3)
        assert float(ball.uhat(k)) == pytest.approx(vhat**2, rel=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            autocorrelation_potential([0.0, 1.0], [1.0, 1.0], d=2)


class TestTabulated:
    def test_interpolates_samples(self):
        r = np.linspace(0.0, 2.0, 41)
        vals = np.exp(-r)
        p = tabulated_potential(r, vals, d=3)
        assert float(p.u(r[7])) == vals[7]
        assert float(p.u(3.0)) == 0.0
        assert p.u0 == 1.0
        assert p.positive

    def test_piecewise_linear_exact(self):
        # tent data is reproduced exactly between samples
        r = np.array([0.0, 1.0, 2.0])
        vals = np.array([2.0, 1.0, 0.0])
        p = tabulated_potential(r, vals, d=1)
        assert float(p.u(0.25)) == 1.75
        assert float(p.u(1.5)) == 0.5

    def test_norm_consistency_when_positive(self):
        r = np.linspace(0.0, 2.0, 41)
        p = tabulated_potential(r, np.exp(-3 * r), d=3)
        # same quadrature of the same function: signed and absolute agree
        assert p.uhat0 == pytest.approx(p.norm1, rel=1e-13)
        ref = 4 * math.pi * float(np.trapezoid(r**2 * np.exp(-3 * r), r))
        assert p.norm1 == pytest.approx(ref, rel=1e-2)

    def test_negative_samples_clear_flag(self):
        r = np.linspace(0.0, 2.0, 21)
        vals = np.cos(4 * r)
        p = tabulated_potential(r, vals, d=1)
        assert not p.positive
        assert p.norm1 > p.uhat0

    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            tabulated_potential(np.array([0.5, 1.0]), np.ones(2))
        with pytest.raises(ValueError, match="increase"):
            tabulated_potential(np.array([0.0, 1.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError, match="at least 2"):
            tabulated_potential(np.array([0.0]), np.ones(1))
        with pytest.raises(UnsupportedDimensionError):
            tabulated_potential(np.array([0.0, 1.0]), np.ones(2), d=2)

    def test_eta_recorded(self):
        p = tabulated_potential(np.array([0.0, 1.0]), np.ones(2), d=3, eta=2.5)
        assert p.eta == 2.5


class TestPeriodize:
    def test_dilute_limit_is_bare_potential(self):
        p = gaussian_potential(1.0, 1.0, 3)
        x = np.array([0.3, -0.1, 0.2])
        assert periodize(p, 50.0, x) == pytest.approx(float(p.u(np.linalg.norm(x))), rel=1e-12)

    def test_dense_lattice_oracle(self):
        p = gaussian_potential(1.0, 1.0, 3)
        x = np.array([0.2, 0.0, 0.0])
        ax = np.arange(-12, 13, dtype=float)
        zz = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        brute = float(np.exp(-math.pi * np.sum((x + 1.0 * zz) ** 2, axis=1)).sum())
        assert periodize(p, 1.0, x) == pytest.approx(brute, rel=1e-12)

    def test_translation_invariance(self):
        p = gaussian_potential(1.0, 1.0, 3)
        L = 2.0
        x = np.array([0.3, 0.4, -0.2])
        shifted = x + L * np.array([1.0, -2.0, 0.0])
        assert periodize(p, L, x) == pytest.approx(periodize(p, L, shifted), rel=1e-10)

    def test_power_law_tail(self):
        # d = 1, u = (1+|x|)^{-4}: compare against a very long direct sum
        p = power_law_potential(1, 3.0)
        L, x = 1.5, 0.4
        z = np.arange(-400_000, 400_001, dtype=float)
        brute = float(np.sum((1.0 + np.abs(x + L * z)) ** (-4.0)))
        assert periodize(p, L, [x]) == pytest.approx(brute, rel=1e-9)

    def test_unknown_decay_refused(self):
        p = power_law_potential(1, 3.0)
        bad = PairPotential(
            d=1, u=p.u, uhat=p.uhat, u0=p.u0, uhat0=p.uhat0, norm1=p.norm1,
            eta=0.0, positive=True, positive_type=False,
        )
        with pytest.raises(ValueError, match="decay exponent"):
            periodize(bad, 1.0, [0.0])

    def test_input_validation(self):
        p = gaussian_potential(1.0, 1.0, 3)
        with pytest.raises(ValueError, match="box side"):
            periodize(p, 0.0, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="components"):
            periodize(p, 1.0, [0.0, 0.0])

    @pytest.mark.parametrize("sigma", [0.5, 5.0, 20.0])
    def test_wide_gaussian_matches_theta(self, sigma):
        # at x = 0 the lattice sum of g e^{-pi x^2/sigma^2} factorizes into
        # three theta sums
        p = gaussian_potential(2.0, sigma, 3)
        assert periodize(p, 1.0, np.zeros(3)) == pytest.approx(2.0 * theta1d(1.0 / sigma**2) ** 3, rel=1e-9)

    def test_wide_gaussian_memory(self):
        # each shell is formed from its faces: forming the whole cube of
        # every shell up to Z ~ 100 peaks near 85 MB here
        p = gaussian_potential(1.0, 20.0, 3)
        tracemalloc.start()
        try:
            periodize(p, 1.0, np.zeros(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_shell_point_cap(self, monkeypatch):
        monkeypatch.setattr(potentials, "_PERIODIZE_MAX_POINTS", 1000)
        with pytest.raises(QuadratureError, match="more than 1000"):
            periodize(gaussian_potential(1.0, 20.0, 3), 1.0, np.zeros(3))


class TestAlpha:
    def test_exact_fraction(self):
        assert alpha_nk(10, 3, 1.0) == pytest.approx(1 / 3 + 1 / 7, rel=1e-15)

    def test_symmetry(self):
        for k in range(1, 12):
            assert alpha_nk(12, k, 0.7) == alpha_nk(12, 12 - k, 0.7)

    def test_wavelength_scaling(self):
        assert alpha_nk(8, 2, 2.0) == pytest.approx(alpha_nk(8, 2, 1.0) / 4.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError, match="split index"):
            alpha_nk(5, 0, 1.0)
        with pytest.raises(ValueError, match="split index"):
            alpha_nk(5, 5, 1.0)
        with pytest.raises(ValueError, match="wavelength"):
            alpha_nk(5, 2, 0.0)

    def test_array_of_splits(self):
        k = np.arange(1, 12)
        np.testing.assert_array_equal(alpha_nk(12, k, 0.7), [alpha_nk(12, int(j), 0.7) for j in k])
        with pytest.raises(ValueError, match="split index k must lie in 1..11, got 12"):
            alpha_nk(12, np.array([3, 12, 5]), 0.7)


class TestMeanInteraction:
    def test_single_cycle_vanishes(self):
        p = gaussian_potential(1.0, 1.0, 3)
        assert mean_interaction_upper(1, 8.0, 1.0, p) == MeanInteractionBound(0.0, 0.0)

    def test_exact_dominates_split_sum(self):
        # binomial expansion: exact >= (|u|_1/2) n (sum_k alpha^{d/2} + (n-1)/L^d)
        p = gaussian_potential(1.0, 1.0, 3)
        for n, L, beta in ((2, 4.0, 1.0), (5, 8.0, 1.0), (12, 6.0, 0.5)):
            lam = thermal_wavelength(beta)
            split = sum(alpha_nk(n, k, lam) ** 1.5 for k in range(1, n))
            floor = 0.5 * p.norm1 * n * (split + (n - 1) / L**3)
            mb = mean_interaction_upper(n, L, beta, p)
            assert mb.exact >= floor * (1 - 1e-12)
            assert mb.asymptotic >= floor * (1 - 1e-12)

    def test_exact_approaches_split_sum_in_volume_limit(self):
        p = gaussian_potential(1.0, 1.0, 3)
        n, beta = 6, 1.0
        lam = thermal_wavelength(beta)
        split = 0.5 * p.norm1 * n * sum(alpha_nk(n, k, lam) ** 1.5 for k in range(1, n))
        mb = mean_interaction_upper(n, 1e7, beta, p)
        assert mb.exact == pytest.approx(split, rel=1e-6)

    def test_linear_in_potential_norm(self):
        p1 = gaussian_potential(1.0, 0.5, 3)
        p2 = gaussian_potential(3.0, 0.5, 3)
        m1 = mean_interaction_upper(7, 5.0, 1.0, p1)
        m2 = mean_interaction_upper(7, 5.0, 1.0, p2)
        assert m2.asymptotic == pytest.approx(3.0 * m1.asymptotic, rel=1e-14)
        assert m2.exact == pytest.approx(3.0 * m1.exact, rel=1e-14)

    def test_asymptotic_formula(self):
        p = gaussian_potential(2.0, 0.7, 3)
        n, L, beta = 9, 6.0, 0.8
        lam = thermal_wavelength(beta)
        expected = 0.5 * p.norm1 * n * ((n - 1) / L**3 + 2**1.5 * ZETA32 / lam**3)
        assert mean_interaction_upper(n, L, beta, p).asymptotic == pytest.approx(expected, rel=1e-14)

    def test_dimension_validation(self):
        p = gaussian_potential(1.0, 1.0, 1)
        with pytest.raises(UnsupportedDimensionError):
            mean_interaction_upper(3, 5.0, 1.0, p)

    def test_length_validation(self):
        p = gaussian_potential(1.0, 1.0, 3)
        with pytest.raises(ValueError, match="cycle length"):
            mean_interaction_upper(0, 5.0, 1.0, p)


class TestPhiBounds:
    def test_brackets_unity(self):
        p = gaussian_potential(1.0, 1.0, 3)
        bp = phi_nn_bounds(4, 8.0, 1.0, p)
        assert bp.lower < 1.0 < bp.upper

    def test_exponential_in_n(self):
        p = gaussian_potential(1.0, 1.0, 3)
        b1 = phi_nn_bounds(1, 8.0, 1.0, p)
        b5 = phi_nn_bounds(5, 8.0, 1.0, p)
        assert b5.lower == pytest.approx(b1.lower**5, rel=1e-12)
        assert b5.upper == pytest.approx(b1.upper**5, rel=1e-12)

    def test_edge_formulas(self):
        g, sigma, beta, L = 1.5, 0.8, 0.7, 9.0
        p = gaussian_potential(g, sigma, 3)
        lam = thermal_wavelength(beta)
        log_lower = -(2**0.5) * ZETA32 * beta * g * sigma**3 / lam**3
        bp = phi_nn_bounds(1, L, beta, p)
        assert bp.lower == pytest.approx(math.exp(log_lower), rel=1e-13)
        assert bp.upper == pytest.approx(math.exp(0.5 * beta * periodize(p, L, np.zeros(3))), rel=1e-13)

    def test_requires_positive_pair(self):
        r = np.linspace(0.0, 2.0, 21)
        p = tabulated_potential(r, np.cos(4 * r), d=3)
        assert not p.positive
        with pytest.raises(UnsupportedPotentialError):
            phi_nn_bounds(2, 8.0, 1.0, p)

    def test_length_validation(self):
        p = gaussian_potential(1.0, 1.0, 3)
        with pytest.raises(ValueError, match="cycle length"):
            phi_nn_bounds(0, 8.0, 1.0, p)

    def test_overflowing_upper_edge_named(self):
        # e^{B n} passes the float range for long cycles; at n = 100 it is 5.2e21
        p = gaussian_potential(1.0, 1.0, 3)
        with pytest.raises(ValueError, match=r"n = 10000: the upper edge .* overflows"):
            phi_nn_bounds(10000, 2.0, 1.0, p)
        bp = phi_nn_bounds(100, 2.0, 1.0, p)
        assert (bp.lower, bp.upper) == (6.494706651858062e-11, 5.190132657841382e21)


class TestDcpWeights:
    def test_tags_and_rates(self):
        params = SystemParams(d=3, L=6.0, N=32, beta=1.0)
        p = gaussian_potential(1.0, 1.0, 3)
        lo, hi = dcp_bound_weights(params, p)
        assert lo.tag == "dcp-lower"
        assert hi.tag == "dcp-upper"
        assert lo.rate < 0.0 < hi.rate

    def test_log_weights_shift_linearly(self):
        params = SystemParams(d=3, L=6.0, N=32, beta=1.0)
        p = gaussian_potential(1.0, 1.0, 3)
        ideal = WeightSequence.ideal(params)
        lo, hi = dcp_bound_weights(params, p)
        n = np.arange(1, 33)
        np.testing.assert_allclose(lo.log_w - ideal.log_w, n * lo.rate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hi.log_w - ideal.log_w, n * hi.rate, rtol=0, atol=1e-12)


class TestFreeEnergyBounds:
    def test_edge_formulas(self):
        rho, beta = 0.5, 1.0
        p = gaussian_potential(1.0, 1.0, 3)
        lam = thermal_wavelength(beta)
        f0 = ideal_free_energy_density(rho, beta, 3)
        fb = free_energy_bounds(rho, beta, p)
        assert fb.f.lower == pytest.approx(0.5 * p.uhat0 * rho**2 - 0.5 * p.u0 * rho + f0, rel=1e-14)
        expected_upper = 0.5 * p.norm1 * rho**2 + 2**0.5 * ZETA32 * p.norm1 * rho / lam**3 + f0
        assert fb.f.upper == pytest.approx(expected_upper, rel=1e-14)

    def test_tilde_is_mean_field_shift(self):
        rho, beta = 0.4, 0.8
        p = gaussian_potential(2.0, 0.6, 3)
        fb = free_energy_bounds(rho, beta, p)
        shift = 0.5 * p.norm1 * rho**2
        assert fb.f_tilde.lower == pytest.approx(fb.f.lower - shift, rel=1e-14)
        assert fb.f_tilde.upper == pytest.approx(fb.f.upper - shift, rel=1e-14)

    def test_ordering_across_grid(self):
        p = gaussian_potential(1.0, 1.0, 3)
        for rho in (0.05, 0.5, 2.0):
            for beta in (0.25, 1.0, 4.0):
                fb = free_energy_bounds(rho, beta, p)
                assert fb.f.lower < fb.f.upper
                assert fb.f_tilde.lower < fb.f_tilde.upper

    def test_superstability_override(self):
        # a positive but not positive-type potential passes with explicit C[u]
        r = np.linspace(0.0, 2.0, 21)
        p = tabulated_potential(r, np.cos(4 * r), d=3)
        with pytest.raises(UnsupportedPotentialError):
            free_energy_bounds(0.5, 1.0, p)
        fb = free_energy_bounds(0.5, 1.0, p, c_u=0.0)
        f0 = ideal_free_energy_density(0.5, 1.0, 3)
        assert fb.f.lower == pytest.approx(-0.5 * p.u0 * 0.5 + f0, rel=1e-12)

    def test_density_validation(self):
        p = gaussian_potential(1.0, 1.0, 3)
        with pytest.raises(ValueError, match="density"):
            free_energy_bounds(0.0, 1.0, p)

    def test_dimension_validation(self):
        p = gaussian_potential(1.0, 1.0, 1)
        with pytest.raises(UnsupportedDimensionError):
            free_energy_bounds(0.5, 1.0, p)


class TestDcpSandwich:
    def test_edge_formulas(self):
        N, L, beta = 48, 6.0, 1.0
        p = gaussian_potential(1.0, 1.0, 3)
        lam = thermal_wavelength(beta)
        sw = dcp_partition_sandwich(N, L, beta, p, verify=False)
        assert sw.lower == pytest.approx(-(2**0.5) * ZETA32 * beta * p.uhat0 * N / lam**3, rel=1e-14)
        assert sw.upper == pytest.approx(0.5 * beta * periodize(p, L, np.zeros(3)) * N, rel=1e-14)

    def test_verification_passes(self):
        p = gaussian_potential(1.0, 1.0, 3)
        sw = dcp_partition_sandwich(64, 6.0, 1.0, p, verify=True)
        assert sw.lower < sw.upper

    def test_telescoped_edges_land_inside(self):
        # the recursion with q_n c^n weights shifts log Q_N by exactly N log c
        N, L, beta = 96, 6.0, 1.0
        p = gaussian_potential(1.0, 1.0, 3)
        params = SystemParams(d=3, L=L, N=N, beta=beta)
        base = build_partition_table(params, WeightSequence.ideal(params)).logQ[N]
        sw = dcp_partition_sandwich(N, L, beta, p, verify=False)
        for w in dcp_bound_weights(params, p):
            shift = build_partition_table(params, w).logQ[N] - base
            assert shift == pytest.approx(N * w.rate, abs=1e-12 * max(1.0, abs(N * w.rate)))
            assert sw.contains(shift, slack=1e-9)

    def test_tabulated_potential_roundtrip(self):
        r = np.linspace(0.0, 2.0, 21)
        p = tabulated_potential(r, np.exp(-3 * r), d=3)
        sw = dcp_partition_sandwich(24, 6.0, 0.5, p, verify=True)
        assert sw.lower < 0.0 < sw.upper

    def test_requires_positive_pair(self):
        r = np.linspace(0.0, 2.0, 21)
        p = tabulated_potential(r, np.cos(4 * r), d=3)
        with pytest.raises(UnsupportedPotentialError):
            dcp_partition_sandwich(16, 6.0, 1.0, p)


class TestValidateConditions:
    def test_gaussian_passes_all(self):
        p = gaussian_potential(1.0, 1.0, 3)
        rep = validate_conditions(p)
        assert rep.all_pass
        assert rep.min_u >= 0.0
        assert rep.min_uhat >= 0.0
        assert rep.periodizable

    def test_inversion_identity(self):
        # int uhat d^dk = u(0); the report's trapezoid estimate approaches it
        p = gaussian_potential(2.0, 1.0, 3)
        rep = validate_conditions(p, r_max=8.0, k_max=8.0, num=512)
        assert rep.uhat_integral == pytest.approx(p.u0, rel=1e-3)

    def test_sign_violation_detected(self):
        r = np.linspace(0.0, 2.0, 21)
        p = tabulated_potential(r, np.cos(4 * r), d=1)
        rep = validate_conditions(p, r_max=2.0, k_max=4.0, num=64)
        assert not rep.nonnegative_u
        assert rep.min_u < 0.0
        assert not rep.all_pass

    def test_tail_exponent_fit(self):
        p = power_law_potential(1, 3.0)
        rep = validate_conditions(p, r_max=400.0, k_max=1.0, num=256)
        assert rep.declared_tail_exponent == -4.0
        assert rep.fitted_tail_exponent == pytest.approx(-4.0, abs=0.05)

    def test_unknown_decay_flagged(self):
        p = power_law_potential(1, 3.0)
        bad = PairPotential(
            d=1, u=p.u, uhat=p.uhat, u0=p.u0, uhat0=p.uhat0, norm1=p.norm1,
            eta=0.0, positive=True, positive_type=False,
        )
        rep = validate_conditions(bad, r_max=10.0, k_max=1.0, num=64)
        assert not rep.periodizable

    def test_compact_support_reports_infinite_fit(self):
        r = np.array([0.0, 1.0])
        p = tabulated_potential(r, np.array([1.0, 0.0]), d=1)
        rep = validate_conditions(p, r_max=10.0, k_max=2.0, num=64)
        assert rep.fitted_tail_exponent == math.inf


class TestPotentialFiles:
    def test_gaussian_file(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("# comment\nkind = gaussian\ng = 2.5\nsigma = 0.75\nd = 3\n")
        p = load_potential(fp)
        ref = gaussian_potential(2.5, 0.75, 3)
        assert p.u0 == ref.u0
        assert p.norm1 == ref.norm1
        assert float(p.u(0.4)) == float(ref.u(0.4))

    def test_default_dimension(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("kind = gaussian\ng = 1.0\nsigma = 1.0\n")
        assert load_potential(fp).d == 3

    def test_tabulated_file(self, tmp_path):
        r = np.linspace(0.0, 2.0, 41)
        vals = np.exp(-3 * r)
        lines = ["r,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(r, vals)]
        (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 3\neta = 2.0\n")
        p = load_potential(tmp_path / "pot.txt")
        assert p.kind == "tabulated"
        assert p.eta == 2.0
        assert float(p.u(0.5)) == pytest.approx(float(np.interp(0.5, r, vals)), rel=1e-15)

    def test_autocorrelation_file_tent(self, tmp_path):
        # two-sample constant profile is the interval indicator
        (tmp_path / "prof.csv").write_text("r,value\n0.0,1.0\n0.7,1.0\n")
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 1\n")
        p = load_potential(tmp_path / "pot.txt")
        assert p.kind == "autocorrelation"
        assert float(p.u(0.3)) == pytest.approx(1.1, rel=1e-13)
        assert p.u0 == pytest.approx(1.4, rel=1e-13)

    def test_missing_kind(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("g = 1.0\n")
        with pytest.raises(ValueError, match="kind"):
            load_potential(fp)

    def test_unknown_kind(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("kind = yukawa\n")
        with pytest.raises(ValueError, match="kind"):
            load_potential(fp)

    def test_missing_profile_key(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("kind = tabulated\n")
        with pytest.raises(ValueError, match="profile"):
            load_potential(fp)

    def test_malformed_line(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("kind gaussian\n")
        with pytest.raises(ValueError, match="key = value"):
            load_potential(fp)

    def test_malformed_line_names_path_and_line(self, tmp_path):
        fp = tmp_path / "pot.txt"
        fp.write_text("# a gaussian\nkind = gaussian\ng 1.0\nsigma = 0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{fp}:3: expected 'key = value'")):
            load_potential(fp)

    def test_malformed_profile_row(self, tmp_path):
        (tmp_path / "prof.csv").write_text("0.0,1.0\n0.5,1.0,9.0\n")
        (tmp_path / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 1\n")
        with pytest.raises(ValueError, match="two columns"):
            load_potential(tmp_path / "pot.txt")

    def test_non_numeric_after_data(self, tmp_path):
        (tmp_path / "prof.csv").write_text("0.0,1.0\noops,1.0\n")
        (tmp_path / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_potential(tmp_path / "pot.txt")

    def test_profile_row_error_names_path_and_line(self, tmp_path):
        prof = tmp_path / "prof.csv"
        prof.write_text("r,value\n# sampled\n0.0,1.0\n0.5\n")
        (tmp_path / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{prof}:4: expected two columns")):
            load_potential(tmp_path / "pot.txt")


def _segment_quad(r, v, integrand):
    """mpmath.quad over each segment of the piecewise-linear profile (r, v),
    of integrand(s, v(s)); a segment is cut where v changes sign."""
    total = mp.mpf(0)
    for a, b, va, vb in zip(r[:-1], r[1:], v[:-1], v[1:]):
        a, b, va, vb = map(mp.mpf, (a, b, va, vb))
        cuts = [a, b] if va * vb >= 0 else [a, a + (b - a) * va / (va - vb), b]

        def line(s, a=a, b=b, va=va, vb=vb):
            return va + (vb - va) * (s - a) / (b - a)

        total += mp.quad(lambda s: integrand(s, line(s)), cuts)
    return total


def _profile_transform(r, v, d, k):
    """int v(|x|) e^{-2 pi i k.x} d^d x of the piecewise-linear profile, by mpmath."""
    w = 2 * mp.pi * k
    r = [mp.mpf(x) for x in r]
    # refine the knots so that no piece spans more than 2 radians
    fine_r, fine_v = [r[0]], [mp.mpf(v[0])]
    for a, b, va, vb in zip(r[:-1], r[1:], v[:-1], v[1:]):
        m = max(1, math.ceil(float(w * (b - a)) / 2.0))
        for j in range(1, m + 1):
            fine_r.append(a + (b - a) * j / m)
            fine_v.append(mp.mpf(va) + (mp.mpf(vb) - mp.mpf(va)) * mp.mpf(j) / m)
    if k == 0:
        return _segment_quad(fine_r, fine_v, (lambda s, u: 2 * u) if d == 1 else (lambda s, u: 4 * mp.pi * s * s * u))
    if d == 1:
        return _segment_quad(fine_r, fine_v, lambda s, u: 2 * u * mp.cos(w * s))
    return _segment_quad(fine_r, fine_v, lambda s, u: 2 / mp.mpf(k) * s * u * mp.sin(w * s))


def _profile_overlap(r, v, d, x):
    """u(x) at x > 0 of the autocorrelation of the piecewise-linear profile,
    by mpmath: d = 1 over y with pieces cut where |y| or |x + y| crosses a
    knot; d = 3 in bipolar form (2 pi/x) int s v(s) int t v(t) dt ds with the
    inner integral in closed form per segment and the outer pieces cut
    where s, |x - s| or x + s crosses a knot."""
    knots = [mp.mpf(a) for a in r]
    vals = [mp.mpf(b) for b in v]
    R, x = knots[-1], mp.mpf(x)

    def prof(s):
        s = abs(s)
        if s >= R:
            return mp.mpf(0)
        i = max(j for j in range(len(knots) - 1) if knots[j] <= s)
        return vals[i] + (vals[i + 1] - vals[i]) * (s - knots[i]) / (knots[i + 1] - knots[i])

    def cut(points, lo, hi):
        return sorted({lo, hi} | {p for p in points if lo < p < hi})

    if d == 1:
        points = [c for b in knots for c in (b, -b, b - x, -b - x)]
        return mp.quad(lambda y: prof(y) * prof(x + y), cut(points, -R, R - x), method="gauss-legendre")

    def moment(t):
        # int_0^t s v(s) ds: on a segment v = c0 + c1 s, so s v integrates to c0 s^2/2 + c1 s^3/3
        total = mp.mpf(0)
        for a, b, va, vb in zip(knots[:-1], knots[1:], vals[:-1], vals[1:]):
            if a >= t:
                break
            c1 = (vb - va) / (b - a)
            c0 = va - c1 * a
            top = min(b, t)
            total += c0 * (top**2 - a**2) / 2 + c1 * (top**3 - a**3) / 3
        return total

    def outer(s):
        lo, hi = abs(x - s), min(x + s, R)
        return s * prof(s) * (moment(hi) - moment(lo)) if lo < hi else mp.mpf(0)

    points = [c for b in knots for c in (b, x + b, abs(x - b))]
    return 2 * mp.pi / x * mp.quad(outer, cut(points, mp.mpf(0), R), method="gauss-legendre")


_PROFILES = {
    "exponential": (np.linspace(0.0, 2.0, 21), np.exp(-3.0 * np.linspace(0.0, 2.0, 21))),
    "hat": (np.array([0.0, 1.3]), np.array([1.0, 0.0])),
    "sign-change": (np.linspace(0.0, 1.5, 7), np.cos(4.0 * np.linspace(0.0, 1.5, 7))),
}


_OVERLAP_PROFILES = {
    "exponential": _PROFILES["exponential"],
    "hat": _PROFILES["hat"],
    # 31 knots at random radii in [0, 1.7] with random nonnegative values
    "random": (
        np.concatenate(([0.0], np.sort(np.random.default_rng(31).uniform(0.0, 1.7, 30)))),
        np.random.default_rng(32).uniform(0.0, 2.0, 31),
    ),
}


class TestSegmentIntegrals:
    """Profile integrals are per-segment Gauss-Legendre sums; mpmath.quad on
    the same knots is the oracle."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", list(_PROFILES))
    def test_tabulated_against_mpmath(self, name, d):
        r, v = _PROFILES[name]
        p = tabulated_potential(r, v, d=d)
        with mp.workdps(20):
            signed = _profile_transform(r, v, d, 0)
            norm1 = _segment_quad(
                r, v, (lambda s, u: 2 * abs(u)) if d == 1 else (lambda s, u: 4 * mp.pi * s * s * abs(u))
            )
            assert p.uhat0 == pytest.approx(float(signed), rel=1e-13)
            assert p.norm1 == pytest.approx(float(norm1), rel=1e-13)
            # the transforms are bounded by |u|_1; their error is measured on it
            for k in np.array([0.37, 3.1, 8.0, 40.0]) / r[-1]:
                want = float(_profile_transform(r, v, d, float(k)))
                assert abs(float(p.uhat(float(k))) - want) <= 1e-13 * float(norm1)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", ["exponential", "hat"])
    def test_autocorrelation_file_against_mpmath(self, tmp_path, name, d):
        r, v = _PROFILES[name]
        lines = ["r,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(r, v)]
        (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "pot.txt").write_text(f"kind = autocorrelation\nprofile = prof.csv\nd = {d}\n")
        p = load_potential(tmp_path / "pot.txt")
        with mp.workdps(20):
            vhat0 = _profile_transform(r, v, d, 0)
            u0 = _segment_quad(r, v, (lambda s, u: 2 * u * u) if d == 1 else (lambda s, u: 4 * mp.pi * s * s * u * u))
            assert p.uhat0 == pytest.approx(float(vhat0**2), rel=1e-13)
            assert p.norm1 == p.uhat0
            assert p.u0 == pytest.approx(float(u0), rel=1e-13)
            for k in np.array([0.37, 3.1, 8.0]) / r[-1]:
                want = float(_profile_transform(r, v, d, float(k)) ** 2)
                assert abs(float(p.uhat(float(k))) - want) <= 1e-13 * p.uhat0

    @pytest.mark.parametrize("d", [1, 3])
    def test_autocorrelation_file_overlap_against_mpmath(self, tmp_path, d):
        # u(r) > 0 is a quadrature cut at the profile's interior knots, read from the profile itself
        r, v = _PROFILES["exponential"]
        lines = ["r,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(r, v)]
        (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "pot.txt").write_text(f"kind = autocorrelation\nprofile = prof.csv\nd = {d}\n")
        p = load_potential(tmp_path / "pot.txt")
        with mp.workdps(20):
            for x in (0.05, 0.73, 2.9):
                assert float(p.u(x)) == pytest.approx(float(_profile_overlap(r, v, d, x)), abs=1e-10)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", ["exponential", "hat", "random"])
    def test_overlap_against_mpmath(self, name, d):
        # the segment overlap is exact to rounding from 1e-6 R up to 2R
        r, v = _OVERLAP_PROFILES[name]
        p = autocorrelation_potential(r, v, d=d)
        R = r[-1]
        with mp.workdps(30):
            for x in (1e-6 * R, 1e-3 * R, r[len(r) // 2], R - r[len(r) // 3], R, 1.999 * R):
                assert abs(float(p.u(x)) - float(_profile_overlap(r, v, d, x))) <= 1e-13 * p.u0
        assert p.u(0.0) == p.u0
        assert p.u(2 * R) == 0.0 and p.u(7.5 * R) == 0.0
        x = np.array([[0.0, 0.3 * R, -0.3 * R], [R, 2 * R, 1.5 * R]])
        np.testing.assert_array_equal(p.u(x), [[p.u(float(a)) for a in row] for row in x])

    @pytest.mark.parametrize(
        "r,v",
        [_PROFILES["exponential"], (np.linspace(0.0, 1.0, 5), 1.0 - np.linspace(0.0, 1.0, 5))],
        ids=["exponential", "hat-5-knots"],
    )
    def test_autocorrelation_file_overlap_at_zero_is_u0(self, tmp_path, r, v):
        # in d = 3 u(0) = int v^2 is the segment sum u0, not a separate quadrature
        lines = ["r,value"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(r, v)]
        (tmp_path / "prof.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 3\n")
        p = load_potential(tmp_path / "pot.txt")
        assert p.u(0.0) == p.u0
        with mp.workdps(20):
            want = float(_segment_quad(r, v, lambda s, u: 4 * mp.pi * s * s * u * u))
        assert p.u0 == pytest.approx(want, rel=1e-13)

    def test_tabulated_u_takes_arrays(self):
        r, v = _PROFILES["sign-change"]
        p = tabulated_potential(r, v, d=1)
        x = np.array([[-2.0, -0.7, 0.0], [0.13, 1.5, 3.0]])
        np.testing.assert_array_equal(p.u(x), np.interp(np.abs(x), r, v, right=0.0))

    def test_far_wavenumbers_are_cut_into_pieces_or_refused(self):
        # a segment spanning many periods is integrated piece by piece; a
        # transform needing over 10^6 nodes raises instead of allocating them
        r, v = _PROFILES["hat"]
        p = tabulated_potential(r, v, d=3)
        k = 60.0 / r[-1]  # 377 radians over the one segment: 8 pieces
        with mp.workdps(20):
            want = float(_profile_transform(r, v, 3, k))
        assert abs(float(p.uhat(k)) - want) <= 1e-13 * p.norm1
        with pytest.raises(QuadratureError, match="nodes"):
            p.uhat(1e9)

    def test_sign_change_splits_the_norm(self):
        # u = 1 - s on [0, 2] in d = 1: |u|_1 = 2 (1/2 + 1/2), the signed integral 0
        p = tabulated_potential(np.array([0.0, 2.0]), np.array([1.0, -1.0]), d=1)
        assert p.norm1 == pytest.approx(2.0, rel=1e-15)
        assert p.uhat0 == pytest.approx(0.0, abs=1e-15)


class TestNonFiniteProfiles:
    def test_nan_radius_rejected(self):
        # NaN compares False both ways, so a "diff <= 0" test let it through
        with pytest.raises(ValueError, match="finite"):
            tabulated_potential(np.array([0.0, math.nan, 1.0]), np.array([1.0, 0.5, 0.0]))

    def test_nan_radius_in_profile_file(self, tmp_path):
        (tmp_path / "prof.csv").write_text("0.0,1.0\nnan,0.5\n1.0,0.0\n")
        (tmp_path / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 3\n")
        with pytest.raises(ValueError, match="finite"):
            load_potential(tmp_path / "pot.txt")

    @pytest.mark.parametrize(
        "r,values",
        [([0.0, 1.0, math.inf], [1.0, 0.5, 0.0]), ([0.0, 0.5, 1.0], [1.0, math.nan, 0.0])],
        ids=["infinite-radius", "nan-value"],
    )
    def test_other_nonfinite_samples_rejected(self, r, values):
        with pytest.raises(ValueError, match="finite"):
            tabulated_potential(np.array(r), np.array(values))



class TestAutocorrelationProfileFiles:
    """A profile file for kind = autocorrelation is checked like a tabulated
    one: its segment sums cover [r_0, r_m] only, so radii must start at 0
    and increase."""

    @pytest.mark.parametrize(
        "rows",
        ["0.5,1.0\n1.0,0.0\n", "-0.5,1.0\n0.0,1.0\n1.0,0.0\n", "0.0,1.0\n0.6,0.5\n0.4,0.2\n1.0,0.0\n",
         "0.0,1.0\n0.5,0.5\n0.5,0.2\n1.0,0.0\n"],
        ids=["starts-at-half", "negative-radius", "decreasing", "repeated"],
    )
    def test_bad_radii_rejected(self, tmp_path, rows):
        (tmp_path / "prof.csv").write_text(rows)
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 3\n")
        with pytest.raises(ValueError, match="radii must start at 0"):
            load_potential(tmp_path / "pot.txt")

    def test_nonfinite_sample_rejected(self, tmp_path):
        (tmp_path / "prof.csv").write_text("0.0,1.0\n0.5,nan\n1.0,0.0\n")
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 1\n")
        with pytest.raises(ValueError, match="finite"):
            load_potential(tmp_path / "pot.txt")

    def test_negative_knot_between_probes_rejected(self, tmp_path):
        # the dip at r = 0.1001 lies between the 257 evenly spaced probes
        (tmp_path / "prof.csv").write_text("0.0,1.0\n0.1,1.0\n0.1001,-0.5\n0.1002,1.0\n1.0,0.0\n")
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 3\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_potential(tmp_path / "pot.txt")

    def test_overlap_work_leaves_scipy_unloaded(self, tmp_path):
        # u(r), periodization, the cycle bounds and the condition report of an
        # autocorrelation file potential are numpy-only
        r = np.linspace(0.0, 2.0, 21)
        rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(r, np.exp(-3.0 * r)))
        (tmp_path / "prof.csv").write_text("r,value\n" + rows)
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 3\n")
        code = (
            "import sys; import numpy as np; from bosecycles import potentials as P; "
            f"pot = P.load_potential({str(tmp_path / 'pot.txt')!r}); "
            "u = pot.u(np.linspace(0.0, 5.0, 64)); "
            "P.periodize(pot, 3.0, np.array([0.5, 0.0, 0.0])); "
            "P.phi_nn_bounds(4, 3.0, 1.0, pot); "
            "P.validate_conditions(pot); "
            "print(float(u[0]) == pot.u0, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        package_root = Path(bosecycles.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True []"

    def test_bounds_cli_exits_2(self, tmp_path):
        from bosecycles.cli import main

        (tmp_path / "prof.csv").write_text("0.5,1.0\n1.0,0.0\n")
        (tmp_path / "pot.txt").write_text("kind = autocorrelation\nprofile = prof.csv\nd = 3\n")
        out = tmp_path / "out.csv"
        assert main(["bounds", "--potential", str(tmp_path / "pot.txt"), "--rho", "0.5", "-o", str(out)]) == 2
        assert not out.exists()

@pytest.mark.parametrize(
    "call",
    [
        lambda pot: free_energy_bounds(1.0, 1.0, pot),
        lambda pot: phi_nn_bounds(3, 4.0, 1.0, pot),
        lambda pot: mean_interaction_upper(1, 4.0, 1.0, pot),
        lambda pot: mean_interaction_upper(3, 4.0, 1.0, pot),
        lambda pot: dcp_bound_weights(SystemParams(d=2, L=4.0, N=8, beta=1.0), pot),
        lambda pot: dcp_partition_sandwich(8, 4.0, 1.0, pot),
    ],
    ids=[
        "free_energy_bounds",
        "phi_nn_bounds",
        "mean_interaction_upper-n1",
        "mean_interaction_upper",
        "dcp_bound_weights",
        "dcp_partition_sandwich",
    ],
)
def test_zeta_bounds_reject_d2(call):
    with pytest.raises(UnsupportedDimensionError):
        call(gaussian_potential(1.0, 1.0, d=2))

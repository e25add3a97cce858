"""Oracle tests for theta sums, polylog, and torus weights.

Frozen reference values were computed with mpmath at 30 significant
digits; mpmath is also used live on coarse grids as an independent
cross-check.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from bosecycles import special_fn
from bosecycles.coupling import CouplingParams
from bosecycles.cycle_engine import SystemParams
from bosecycles.potentials import gaussian_potential
from bosecycles.special_fn import (
    D_MAX,
    _power_exp_integral,
    log_q_weights,
    polylog,
    q_asymptotic_regime,
    q_n,
    reduce_shift,
    theta1d,
    theta1d_shifted,
    thermal_wavelength,
    zeta,
)

mp.mp.dps = 30


def _params(d=3, L=10.0, lam=1.0, N=64):
    return SimpleNamespace(d=d, L=L, lam=lam, N=N)


class TestThermalWavelength:
    def test_value(self):
        assert thermal_wavelength(1.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-15)
        assert thermal_wavelength(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_rejects_nonpositive(self):
        for beta in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                thermal_wavelength(beta)


THETA_FROZEN = {
    0.01: 9.9999999999999999,
    0.25: 2.0000139493694248,
    1.0: 1.086434811213308,
    2.5: 1.000776406407899,
    16.0: 1.0,
}

THETA_SHIFTED_FROZEN = {
    (1.0, 0.5): 0.91357913815611682,
    (0.3, 0.25): 1.8257418583505537,
    (7.0, -0.5): 0.0081916497787016718,
    (2.0, 0.125): 0.91498563257285879,
}


class TestTheta1d:
    @pytest.mark.parametrize("a,ref", sorted(THETA_FROZEN.items()))
    def test_frozen_values(self, a, ref):
        assert theta1d(a) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-4, 0.03, 0.7, 1.0, 3.0, 50.0])
    def test_poisson_duality(self, a):
        assert theta1d(a) == pytest.approx(theta1d(1.0 / a) / math.sqrt(a), rel=1e-14)

    def test_monotone_decreasing(self):
        # beyond a ~ 11.9 the excess 2 e^{-pi a} drops under eps/2 and the
        # float64 sum saturates at exactly 1, so strictness is asserted
        # below that and saturation above
        grid = np.geomspace(1e-3, 11.0, 40)
        vals = [theta1d(a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert all(v > 1.0 for v in vals)
        assert theta1d(50.0) == 1.0

    @pytest.mark.parametrize("a,s", sorted(THETA_SHIFTED_FROZEN))
    def test_shifted_frozen_values(self, a, s):
        assert theta1d_shifted(a, s) == pytest.approx(THETA_SHIFTED_FROZEN[(a, s)], rel=1e-13)

    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0])
    def test_shifted_reduces_to_plain_at_zero(self, a):
        assert theta1d_shifted(a, 0.0) == pytest.approx(theta1d(a), rel=1e-15)

    @pytest.mark.parametrize("a", [0.15, 0.8, 2.0, 9.0])
    @pytest.mark.parametrize("s", [-0.5, -0.21, 0.1, 0.37, 0.5])
    def test_shifted_against_mpmath(self, a, s):
        ref = float(mp.nsum(lambda z: mp.e ** (-mp.pi * a * (z + s) ** 2), [-mp.inf, mp.inf]))
        assert theta1d_shifted(a, s) == pytest.approx(ref, rel=1e-13)

    def test_shifted_bounded_by_plain(self):
        for a in (0.3, 1.0, 4.0):
            for s in (0.1, 0.3, 0.5):
                assert theta1d_shifted(a, s) < theta1d(a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theta1d(0.0)
        with pytest.raises(ValueError):
            theta1d(-2.0)
        with pytest.raises(ValueError):
            theta1d_shifted(1.0, 0.7)


class TestReduceShift:
    def test_half_open_window(self):
        out = reduce_shift([0.6, -0.6, 1.25, -3.5, 0.5])
        assert np.allclose(out, [-0.4, 0.4, 0.25, 0.5, 0.5])
        assert np.all(np.abs(out) <= 0.5)

    def test_integer_shifts_vanish(self):
        assert np.allclose(reduce_shift([-2.0, 0.0, 7.0]), 0.0)


POLYLOG_FROZEN = {
    (1.5, 0.5): 0.62483702081991385,
    (2.5, 0.5): 0.55499727871751229,
    (1.5, 0.9): 1.6144385285663397,
    (2.5, 0.99): 1.3175394259587277,
    (1.5, 0.995): 2.3687158181806404,
    (2.5, 0.9999): 1.3412283627998935,
    (1.5, 0.999999): 2.608831900452534,
    (4.0, 0.7): 0.73621724094913836,
    (1.5, 1.0): 2.6123753486854883,
    (2.5, 1.0): 1.3414872572509172,
}


class TestPolylog:
    @pytest.mark.parametrize("key", sorted(POLYLOG_FROZEN))
    def test_frozen_values(self, key):
        s, z = key
        assert polylog(s, z) == pytest.approx(POLYLOG_FROZEN[key], rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.5, 3.5])
    def test_against_mpmath_across_crossover(self, s):
        # straddles the series / Euler-Maclaurin switch at z = 0.99
        for z in (0.2, 0.98, 0.989, 0.99, 0.9901, 0.9999, 0.99999999):
            assert polylog(s, z) == pytest.approx(float(mp.polylog(s, z)), rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 3.5])
    def test_against_mpmath_near_saturation(self, s):
        # the documented 1e-13 over the Euler-Maclaurin branch, z in (0.99, 1]
        for z in [*(1.0 - np.geomspace(1e-15, 0.01, 25)), 1.0]:
            z = float(z)
            want = mp.zeta(s) if z == 1.0 else mp.polylog(s, z)
            assert polylog(s, z) == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("s", [-2.5, -1.0, 0.5])
    def test_order_at_most_one_near_saturation(self, s):
        # the tail's Gamma(1-s, x) has 1-s >= 0 here; it was once lowered
        # from the wrong parameter and missed by up to 90 %
        for z in (0.999, 0.9999, 0.99999):
            assert polylog(s, z) == pytest.approx(float(mp.polylog(s, z)), rel=1e-13)

    @pytest.mark.parametrize("z", [0.995, 0.99999, 1.0])
    def test_nan_order_near_saturation(self, z):
        # below t a = 1 the tail once reached math.ceil(nan) and raised
        assert math.isnan(polylog(math.nan, z))

    def test_continuity_at_crossover(self):
        lo, hi = polylog(1.5, 0.99 - 1e-12), polylog(1.5, 0.99 + 1e-12)
        assert abs(hi - lo) < 1e-10

    def test_monotone_in_z(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [polylog(1.5, z) for z in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_saturation_matches_zeta(self):
        # polylog at z=1 against zeta, both the t = 0 Euler-Maclaurin sum
        assert polylog(1.5, 1.0) == pytest.approx(zeta(1.5), rel=1e-12)
        assert polylog(2.5, 1.0) == pytest.approx(zeta(2.5), rel=1e-12)

    def test_saturation_is_zeta_exactly(self):
        # one Euler-Maclaurin sum serves both: g_s(1) is zeta(s) to the bit
        orders = [1.5, 2.0, 2.5, 3.0, 3.5, *map(float, np.linspace(1.0, 12.0, 206)[1:])]
        assert [s for s in orders if polylog(s, 1.0) != zeta(s)] == []

    @pytest.mark.parametrize("s", [-2.5, -1.0, 0.5, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5, 9.0])
    def test_near_saturation_error_figure(self, s):
        # the documented 1e-15 of the Euler-Maclaurin sum, z in (0.99, 1],
        # against a 40-digit reference
        zs = [*(1.0 - np.geomspace(1e-15, 0.01, 25)), 0.995, 0.9999, 0.99999999]
        with mp.workdps(40):
            for z in map(float, zs):
                assert polylog(s, z) == pytest.approx(float(mp.polylog(s, z)), rel=1e-15, abs=0.0)
            if s > 1.0:
                assert polylog(s, 1.0) == pytest.approx(float(mp.zeta(s)), rel=1e-15, abs=0.0)

    def test_small_z_linear(self):
        assert polylog(2.0, 1e-12) == pytest.approx(1e-12, rel=1e-10)
        assert polylog(2.0, 0.0) == 0.0

    @pytest.mark.parametrize("z", [1e-308, 1e-320, 5e-324])
    def test_tiny_z_is_its_first_term(self, z):
        # 1e-17 z (1 - z) underflows to 0 here; its log must not be taken
        assert polylog(1.5, z) == z

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            polylog(1.5, 1.1)
        with pytest.raises(ValueError):
            polylog(1.5, -0.2)
        with pytest.raises(ValueError):
            polylog(1.0, 1.0)
        with pytest.raises(ValueError):
            zeta(1.0)


class TestZeta:
    def test_frozen_values(self):
        assert zeta(1.5) == pytest.approx(2.6123753486854883, rel=1e-14)
        assert zeta(2.5) == pytest.approx(1.3414872572509172, rel=1e-14)
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)

    @pytest.mark.parametrize(
        "s", [*np.linspace(1.0, 10.0, 46)[1:], 1.0 + 1e-9, 1.0001, 20.0, 50.0]
    )
    def test_against_mpmath(self, s):
        s = float(s)
        assert zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-15, abs=0.0)

    def test_far_past_the_head(self):
        # 10^{-s} underflows: the sum is its first term
        assert zeta(400.0) == 1.0
        assert zeta(math.inf) == 1.0


class TestPowerExpIntegral:
    # int_a^inf x^{-s} e^{-t x} dx = t^{s-1} Gamma(1-s, t a) for x = t a < 1,
    # the range polylog's Euler-Maclaurin tail reaches (a = 10, x < 0.101);
    # a = 10^4 + 1 takes t down to 1e-16
    A = 10_001.0

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 3.5])  # d/2 and 1 + d/2, d = 3..5
    def test_against_mpmath(self, s):
        xs = [x for x in [*np.geomspace(1e-12, 45.0, 40), *np.linspace(0.5, 2.0, 7)] if x < 1.0]
        for x in xs:
            t = float(x) / self.A
            want = mp.mpf(t) ** (s - 1) * mp.gammainc(1 - s, mp.mpf(t) * self.A)
            assert _power_exp_integral(s, t, self.A) == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_zero_rate(self):
        assert _power_exp_integral(2.5, 0.0, self.A) == pytest.approx(self.A**-1.5 / 1.5, rel=1e-15)


class TestDimensionBound:
    # one bound on d, held by special_fn and met by every constructor that takes a d
    MAKERS = {
        "SystemParams": lambda d: SystemParams(d=d, L=1.0, N=5, beta=1.0 / (2.0 * math.pi)),
        "SystemParams.from_density": lambda d: SystemParams.from_density(d, 5, 1.0, 1.0 / (2.0 * math.pi)),
        "CouplingParams": lambda d: CouplingParams(c=0.5, rho_v=50.0, lam=1.0, rho=1.0, d=d),
        "gaussian_potential": lambda d: gaussian_potential(1.0, 1.0, d=d),
    }

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_first_dimension_above_the_bound_refused(self, maker):
        assert self.MAKERS[maker](D_MAX).d == D_MAX
        with pytest.raises(ValueError, match=f"dimension must be <= {D_MAX}, got {D_MAX + 1}$"):
            self.MAKERS[maker](D_MAX + 1)

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_dimension_below_one_refused(self, maker):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0$"):
            self.MAKERS[maker](0)


class TestTorusWeights:
    def test_q1_matches_theta_product(self):
        p = _params(d=3, L=8.0, lam=1.3)
        a = p.lam**2 / p.L**2
        assert q_n(p, 1) == pytest.approx(theta1d(a) ** 3, rel=1e-14)

    def test_exceeds_one_and_decreases(self):
        # q_n > 1 strictly, but near saturation the excess sits below the
        # float64 quantum at 1.0; the log weights keep it resolved
        p = _params(d=3, L=10.0, lam=1.0, N=2000)
        logq = log_q_weights(p)
        assert np.all(logq > 0.0)
        assert np.all(np.diff(logq) < 0.0)
        assert np.all(np.exp(logq) >= 1.0)

    def test_log_weights_match_scalar_route(self):
        p = _params(d=2, L=7.0, lam=1.7, N=300)
        logq = log_q_weights(p)
        for n in (1, 2, 17, 150, 300):
            assert logq[n - 1] == pytest.approx(math.log(q_n(p, n)), rel=1e-13, abs=1e-15)

    def test_shifted_weight_product_form(self):
        p = _params(d=2, L=5.0, lam=1.0)
        shift = [0.2, -0.45]
        a = 3 * p.lam**2 / p.L**2
        want = theta1d_shifted(a, 0.2) * theta1d_shifted(a, -0.45)
        assert q_n(p, 3, shift) == pytest.approx(want, rel=1e-13)

    def test_shift_periodicity(self):
        p = _params(d=1, L=5.0, lam=1.0)
        assert q_n(p, 4, [0.3]) == pytest.approx(q_n(p, 4, [2.3]), rel=1e-14)

    def test_bulk_weight_ratio(self):
        # a = n lam^2/L^2 small: q_n ~ (L/lam)^d n^{-d/2}
        p = _params(d=3, L=200.0, lam=1.0)
        got = q_n(p, 5)
        want = (p.L / p.lam) ** 3 / 5**1.5
        assert got == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_cycle_length(self):
        p = _params()
        with pytest.raises(ValueError):
            q_n(p, 0)
        with pytest.raises(ValueError):
            q_n(p, 3, [0.1])  # wrong shift dimension for d=3


def _image_pairs_every_k(a, t, v):
    """The image sum with every pair up to kmax formed, as _image_pairs
    summed it before it skipped the pairs whose exponentials are exact zeros."""
    kmax = math.ceil(math.sqrt(special_fn._TAIL_EXPONENT / (math.pi * a.min(initial=math.inf)))) + 2
    k = np.array([1, -1])[:, None] * np.arange(1, kmax + 1)
    k = k.reshape(k.shape + (1,) * a.ndim)
    terms = np.exp(-math.pi * a * k * (k + 2.0 * t))
    if v.any():
        terms = terms * np.exp(2j * math.pi * v * k)
    return (terms[0] + terms[1]).sum(axis=0)


class TestImagePairCutoff:
    """Leaving out the image pairs whose exponentials are exact zeros keeps
    every sum bit for bit."""

    @pytest.mark.parametrize("N", [2048, 8192, 16000])
    @pytest.mark.parametrize("fraction", [0.7, 2.0])
    def test_log_q_weights_unchanged(self, N, fraction, monkeypatch):
        p = SystemParams.from_degeneracy(3, N, fraction * 2.6123753486854883, 1.0)
        got = log_q_weights(p)
        monkeypatch.setattr(special_fn, "_image_pairs", _image_pairs_every_k)
        assert np.array_equal(got, log_q_weights(p))

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 40)])
    @pytest.mark.parametrize("kind", ["plain", "shifted", "phased"])
    def test_image_pairs_unchanged(self, shape, kind):
        # scales from 0.01 (kmax = 38, as a forced direct form can ask for)
        # to 3000 (every pair an exact zero), shifts and phases in [-1/2, 1/2]
        rng = np.random.default_rng(sum(map(ord, kind)) + len(shape))
        for _ in range(20):
            a = np.exp(rng.uniform(math.log(0.01), math.log(3000.0), shape))
            t = rng.uniform(-0.5, 0.5, shape) if kind != "plain" else np.zeros(shape)
            v = rng.uniform(-0.5, 0.5, shape) if kind == "phased" else np.zeros(shape)
            got = special_fn._image_pairs(a, t, v)
            want = _image_pairs_every_k(a, t, v)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


class TestAsymptoticRegime:
    def test_bulk_branch(self):
        p = _params(d=3, L=100.0, lam=1.0)
        tag, val = q_asymptotic_regime(p, 10)
        assert tag == "bulk"
        assert val == pytest.approx(q_n(p, 10), rel=1e-3)

    def test_macroscopic_branch_zero_shift(self):
        p = _params(d=3, L=2.0, lam=1.0)
        tag, val = q_asymptotic_regime(p, 100)
        assert tag == "macroscopic"
        assert val == 1.0

    def test_macroscopic_branch_with_shift(self):
        p = _params(d=1, L=2.0, lam=1.0)
        n = 100
        tag, val = q_asymptotic_regime(p, n, [0.25])
        a = n * p.lam**2 / p.L**2
        assert tag == "macroscopic"
        assert val == pytest.approx(math.exp(-math.pi * a * 0.0625), rel=1e-12)
        assert val == pytest.approx(q_n(p, n, [0.25]), rel=1e-8)

    def test_critical_branch_is_exact(self):
        p = _params(d=3, L=3.0, lam=1.0)
        tag, val = q_asymptotic_regime(p, 9)  # a = 1.0
        assert tag == "critical"
        assert val == q_n(p, 9)

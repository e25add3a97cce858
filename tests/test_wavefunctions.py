"""Tests for the cycle wave functions."""

import math

import numpy as np
import pytest

from bosecycles.wavefunctions import (
    CycleWaveParams,
    phase_theta_sum,
    psi_gaussian_form,
    psi_planewave_form,
    psi_shifted,
    wave_profile,
)


class TestCycleWaveParams:
    def test_center_reduced_to_torus(self):
        p = CycleWaveParams(n=2, L=3.0, lam=1.0, y=(7.5, -1.0))
        assert p.y == (1.5, 2.0)
        assert p.d == 2

    def test_default_shift_is_zero(self):
        p = CycleWaveParams(n=2, L=3.0, lam=1.0, y=(0.5,))
        assert p.xbar == (0.0,)
        assert p.shift == (0.0,)

    def test_shift_reduction(self):
        # s = L xbar / (2 pi) reduced to [-1/2, 1/2]
        L = 2.0
        xbar = 2.0 * math.pi / L * 0.75  # s = 0.75 -> -0.25
        p = CycleWaveParams(n=1, L=L, lam=1.0, y=(0.0,), xbar=(xbar,))
        assert p.shift[0] == pytest.approx(-0.25, abs=1e-15)

    def test_exponent_scales(self):
        p = CycleWaveParams(n=8, L=2.0, lam=1.0, y=(0.0,))
        assert p.a_num == pytest.approx(1.0, rel=1e-15)
        assert p.a_den == pytest.approx(2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="cycle length"):
            CycleWaveParams(n=0, L=1.0, lam=1.0, y=(0.0,))
        with pytest.raises(ValueError, match="box side"):
            CycleWaveParams(n=1, L=0.0, lam=1.0, y=(0.0,))
        with pytest.raises(ValueError, match="box side L = "):
            CycleWaveParams(n=1, L=1e-300, lam=1.0, y=(0.0,))
        with pytest.raises(ValueError, match="wavelength"):
            CycleWaveParams(n=1, L=1.0, lam=-1.0, y=(0.0,))
        with pytest.raises(ValueError, match="components"):
            CycleWaveParams(n=1, L=1.0, lam=1.0, y=(0.0, 0.0), xbar=(0.1,))
        with pytest.raises(ValueError, match="finite"):
            CycleWaveParams(n=1, L=1.0, lam=1.0, y=(0.0, math.nan), xbar=(0.1, math.inf))


class TestPhaseThetaSum:
    def test_poisson_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(0.05, 20.0))
            s = float(rng.uniform(-0.5, 0.5))
            w = float(rng.uniform(-3.0, 3.0))
            direct = phase_theta_sum(a, s, w, form="direct")
            dual = phase_theta_sum(a, s, w, form="dual")
            assert abs(direct - dual) < 1e-12

    @pytest.mark.parametrize("form", ["direct", "dual"])
    @pytest.mark.parametrize("a", [0.2, 5.0])
    def test_integer_shift_invariance(self, a, form):
        # the sum is periodic in s, whichever window the form sums over
        for s, w in ((0.3, 1.7), (0.0, 0.0), (-0.45, -2.2)):
            ref = phase_theta_sum(a, s, w, form=form)
            for k in (-7, 1, 10):
                assert abs(phase_theta_sum(a, s + k, w, form=form) - ref) < 1e-12 * abs(ref)

    def test_zero_arguments_reduce_to_theta(self):
        from bosecycles.special_fn import theta1d

        assert phase_theta_sum(2.0, 0.0, 0.0) == pytest.approx(theta1d(2.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="exponent scale"):
            phase_theta_sum(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="form"):
            phase_theta_sum(1.0, 0.0, 0.0, form="fourier")


class TestFormEquivalence:
    def test_planewave_equals_gaussian_at_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 100))
            L = float(rng.uniform(0.5, 16.0))
            lam = float(rng.uniform(0.3, 3.0))
            d = int(rng.integers(1, 4))
            y = tuple(rng.uniform(0, L, d))
            x = rng.uniform(-L, 2 * L, d)
            p = CycleWaveParams(n=n, L=L, lam=lam, y=y)
            pw = psi_planewave_form(p, x)
            ga = psi_gaussian_form(p, x)
            assert abs(pw - ga) < 1e-10
            assert abs(pw.imag) < 1e-10

    def test_shifted_reduces_to_planewave_at_zero_shift(self):
        p = CycleWaveParams(n=12, L=5.0, lam=1.3, y=(1.0, 2.0))
        for x in ((0.0, 0.0), (2.5, 4.0), (1.0, 2.0)):
            assert abs(psi_shifted(p, x) - psi_planewave_form(p, x)) < 1e-12


class TestPlanewaveForm:
    def test_maximum_at_center(self):
        p = CycleWaveParams(n=4, L=3.0, lam=1.0, y=(1.2,))
        peak = psi_planewave_form(p, (1.2,))
        assert peak.real > 0.0
        assert abs(peak.imag) < 1e-14
        for t in np.linspace(0.0, 3.0, 37):
            if abs(t - 1.2) < 1e-9:
                continue
            assert abs(psi_planewave_form(p, (t,))) < abs(peak)

    def test_uniform_limit(self):
        # n lambda^2/L^2 -> infinity: only the zero mode survives
        p = CycleWaveParams(n=10**6, L=1.0, lam=1.0, y=(0.2,))
        for t in (0.0, 0.33, 0.77):
            assert abs(psi_planewave_form(p, (t,))) == pytest.approx(1.0, rel=1e-12)

    def test_product_structure(self):
        y = (0.4, 1.1)
        x = (1.7, 0.3)
        p2 = CycleWaveParams(n=6, L=2.5, lam=0.9, y=y)
        parts = []
        for c in range(2):
            p1 = CycleWaveParams(n=6, L=2.5, lam=0.9, y=(y[c],))
            parts.append(psi_planewave_form(p1, (x[c],)))
        assert abs(psi_planewave_form(p2, x) - parts[0] * parts[1]) < 1e-14

    def test_rejects_nonzero_shift(self):
        p = CycleWaveParams(n=2, L=2.0, lam=1.0, y=(0.0,), xbar=(0.3,))
        with pytest.raises(ValueError, match="psi_shifted"):
            psi_planewave_form(p, (0.5,))

    def test_point_shape_validation(self):
        p = CycleWaveParams(n=2, L=2.0, lam=1.0, y=(0.0,))
        with pytest.raises(ValueError, match="components"):
            psi_planewave_form(p, (0.5, 0.5))


class TestGaussianForm:
    def test_infinite_volume_limit(self):
        # L >> sqrt(n) lambda: a single Gaussian of width sqrt(n) lambda
        n, lam = 3, 0.8
        p = CycleWaveParams(n=n, L=200.0, lam=lam, y=(100.0,))
        for dx in (0.0, 0.5, 1.5):
            expected = (2.0 / (math.sqrt(n) * lam)) ** 0.5 * math.exp(
                -2.0 * math.pi * dx**2 / (n * lam**2)
            )
            assert psi_gaussian_form(p, (100.0 + dx,)) == pytest.approx(expected, rel=1e-12)

    def test_strictly_positive(self):
        p = CycleWaveParams(n=16, L=4.0, lam=1.0, y=(1.0,))
        for t in np.linspace(0.0, 4.0, 41):
            assert psi_gaussian_form(p, (t,)) > 0.0

    def test_normalization_d1(self):
        # periodic trapezoid converges spectrally for these smooth profiles
        for n in (1, 4, 64):
            for ratio in (1.0, 4.0, 16.0):
                lam = 1.0
                L = ratio * lam
                p = CycleWaveParams(n=n, L=L, lam=lam, y=(0.3 * L,))
                ts = np.linspace(0.0, L, 2048, endpoint=False)
                vals = np.array([psi_gaussian_form(p, (t,)) ** 2 for t in ts])
                assert float(vals.sum() * L / 2048) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonzero_shift(self):
        p = CycleWaveParams(n=2, L=2.0, lam=1.0, y=(0.0,), xbar=(0.3,))
        with pytest.raises(ValueError, match="psi_shifted"):
            psi_gaussian_form(p, (0.5,))


class TestShifted:
    def test_normalization_d1(self):
        lam, L = 1.0, 4.0
        p = CycleWaveParams(n=8, L=L, lam=lam, y=(1.0,), xbar=(0.4,))
        ts = np.linspace(0.0, L, 2048, endpoint=False)
        vals = np.array([abs(psi_shifted(p, (t,))) ** 2 for t in ts])
        assert float(vals.sum() * L / 2048) == pytest.approx(1.0, abs=1e-8)

    def test_condensate_limit(self):
        # n large with |xbar| = O(1/sqrt n): |psi| flattens to L^{-d/2}
        n, L = 4096, 4.0
        p = CycleWaveParams(n=n, L=L, lam=1.0, y=(1.0,), xbar=(0.5 / math.sqrt(n),))
        target = L**-0.5
        for t in np.linspace(0.0, L, 32, endpoint=False):
            assert abs(psi_shifted(p, (t,))) == pytest.approx(target, rel=1e-6)

    def test_carries_phase(self):
        p = CycleWaveParams(n=4, L=2.0, lam=1.0, y=(0.5,), xbar=(1.1,))
        val = psi_shifted(p, (1.3,))
        assert abs(val.imag) > 1e-3

    @pytest.mark.parametrize("n", [960, 10**6])
    def test_normalization_of_long_cycles(self, n):
        # a_num = n/2 with a momentum shift: the shifted theta alone underflows
        p = CycleWaveParams(n=n, L=1.0, lam=1.0, y=(0.5,), xbar=(3.1,))
        rows = wave_profile(p, num=2048)
        assert abs(sum(a2 for *_, a2 in rows) / 2048 - 1.0) <= 1e-12

    def test_long_cycle_is_product_of_factors(self):
        y, xbar, x = (0.5, 0.2, 0.7), (3.1, 1.885, -2.0), (0.1, 0.9, 0.4)
        val = psi_shifted(CycleWaveParams(n=10**6, L=1.0, lam=1.0, y=y, xbar=xbar), x)
        parts = [psi_shifted(CycleWaveParams(n=10**6, L=1.0, lam=1.0, y=(y[c],), xbar=(xbar[c],)), (x[c],)) for c in range(3)]
        assert math.isfinite(abs(val))
        assert abs(val - parts[0] * parts[1] * parts[2]) <= 1e-14


class TestMonotoneLocalization:
    def test_flattening_with_cycle_length(self):
        L = 4.0
        ratios = []
        for n in (1, 4, 16, 64):
            p = CycleWaveParams(n=n, L=L, lam=1.0, y=(2.0,))
            vals = [psi_gaussian_form(p, (t,)) for t in np.linspace(0.0, L, 128, endpoint=False)]
            ratios.append(max(vals) / min(vals))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestProfileExport:
    def test_rows(self):
        p = CycleWaveParams(n=4, L=2.0, lam=1.0, y=(0.5, 0.5), xbar=(0.0, 0.7))
        rows = wave_profile(p, axis=1, num=16)
        assert len(rows) == 16
        t0, re0, im0, a20 = rows[0]
        assert t0 == 0.0
        assert a20 == pytest.approx(re0**2 + im0**2, rel=1e-12)

    def test_rows_are_psi_shifted_samples(self):
        # the profile's normalization, computed once, against psi_shifted per point
        p = CycleWaveParams(n=3, L=2.0, lam=1.0, y=(0.5, 0.1), xbar=(0.0, 0.7))
        for t, re, im, a2 in wave_profile(p, axis=1, num=9):
            val = psi_shifted(p, (0.5, 0.1 + t))
            assert (re, im, a2) == (val.real, val.imag, abs(val) ** 2)

    @pytest.mark.parametrize(
        "n,y,xbar",
        [
            (1, (0.3,), (0.0,)),  # a_num = 1/8, zero shift
            (40, (0.5, 0.1), (0.3, 0.7)),  # a_num = 5
            (3, (0.5, 0.1, 1.9), (0.0, 0.7, -1.2)),  # a_num = 3/8
            (40, (0.5, 0.1, 1.9), (0.0, 0.0, 0.0)),  # a_num = 5, zero shift
        ],
    )
    def test_rows_match_psi_shifted_across_chunks(self, n, y, xbar):
        # 4100 samples cross the first chunk boundary of the batched evaluation
        p = CycleWaveParams(n=n, L=2.0, lam=1.0, y=y, xbar=xbar)
        axis = len(y) - 1
        rows = wave_profile(p, axis=axis, num=4100)
        assert len(rows) == 4100
        scale = max(math.sqrt(a2) for *_, a2 in rows)
        for t, re, im, _ in rows:
            x = list(y)
            x[axis] += t
            assert abs(complex(re, im) - psi_shifted(p, x)) <= 1e-15 * scale

    def test_axis_validation(self):
        p = CycleWaveParams(n=2, L=1.5, lam=0.8, y=(0.2,))
        with pytest.raises(ValueError, match="axis"):
            wave_profile(p, axis=1)
        with pytest.raises(ValueError, match="samples"):
            wave_profile(p, num=1)

"""Oracle tests for the cycle-weight recursion, spectra, sampler, and
the auxiliary-identity check.

The brute-force permutation sum over integer partitions is the oracle
for the recursion; closed forms for N = 2, 3 are asserted directly.
"""

from __future__ import annotations

import gc
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import zeta

from bosecycles import cycle_engine
from bosecycles.cycle_engine import (
    N_MAX,
    CycleType,
    LogPartitionTable,
    SystemParams,
    WeightSequence,
    aggregate_macroscopic,
    brute_force_partition_fn,
    build_partition_table,
    cycle_density_spectrum,
    sample_cycle_type,
    verify_auxiliary_identity,
)
from bosecycles.potentials import dcp_bound_weights, gaussian_potential

ZETA32 = 2.6123753486854883


def _ideal_table(d=3, N=64, rho_lam_d=2.0, beta=1.0):
    p = SystemParams.from_degeneracy(d, N, rho_lam_d, beta)
    return build_partition_table(p, WeightSequence.ideal(p))


def _const_weights(N, value=1.0):
    return WeightSequence(np.full(N, math.log(value)), tag="custom")


class TestSystemParams:
    def test_derived_fields(self):
        p = SystemParams(d=3, L=8.0, N=512, beta=1.0)
        assert p.rho == 512 / 8.0**3
        assert p.lam == pytest.approx(math.sqrt(2 * math.pi), rel=1e-15)
        assert p.rho_lam_d == pytest.approx(p.rho * p.lam**3, rel=1e-15)

    def test_from_density_roundtrip(self):
        p = SystemParams.from_density(3, 100, rho=0.37, beta=2.0)
        assert p.rho == pytest.approx(0.37, rel=1e-14)

    def test_from_degeneracy_roundtrip(self):
        p = SystemParams.from_degeneracy(3, 100, rho_lam_d=2.612, beta=0.7)
        assert p.rho_lam_d == pytest.approx(2.612, rel=1e-14)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(d=0, L=1.0, N=1, beta=1.0),
            dict(d=3, L=0.0, N=1, beta=1.0),
            dict(d=3, L=1.0, N=0, beta=1.0),
            dict(d=3, L=1.0, N=1, beta=-1.0),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            SystemParams(**kw)

    def test_count_checked_before_side(self):
        with pytest.raises(ValueError, match="particle count"):
            SystemParams.from_density(3, 0, rho=1.0, beta=1.0)

    @pytest.mark.parametrize("L, d", [(1e-300, 3), (1e300, 3), (1e-200, 1), (1e200, 1)])
    def test_rejects_side_outside_float_range(self, L, d):
        # L^d or L^2 would underflow to 0 or overflow
        with pytest.raises(ValueError, match="box side L = "):
            SystemParams(d=d, L=L, N=8, beta=1.0)


class TestWeightSequence:
    def test_ideal_rate_is_zero(self):
        p = SystemParams(d=3, L=8.0, N=32, beta=1.0)
        w = WeightSequence.ideal(p)
        assert w.tag == "ideal"
        assert w.rate == 0.0
        assert len(w) == 32

    def test_from_weights_log_roundtrip(self):
        w = WeightSequence.from_weights([1.0, 2.0, 4.0])
        assert np.allclose(w.log_w, [0.0, math.log(2), math.log(4)])

    def test_rescaled_shifts_logs(self):
        w = WeightSequence.from_weights([1.0, 1.0, 1.0])
        shifted = w.rescaled(np.array([0.1, 0.2, 0.3]), tag="dcp-upper", rate=0.1)
        assert np.allclose(shifted.log_w, [0.1, 0.2, 0.3])
        assert shifted.tag == "dcp-upper"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            WeightSequence.from_weights([1.0, 0.0])
        with pytest.raises(ValueError):
            WeightSequence(np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            WeightSequence(np.zeros(4), tag="bogus")


class TestPartitionTable:
    def test_constant_weights_fixed_point_bit_exact(self):
        p = SystemParams(d=3, L=5.0, N=200, beta=1.0)
        t = build_partition_table(p, _const_weights(200))
        assert np.all(t.logQ == 0.0)

    def test_n2_closed_form(self):
        w1, w2 = 1.7, 0.4
        p = SystemParams(d=1, L=1.0, N=2, beta=1.0)
        w = WeightSequence.from_weights([w1, w2])
        t = build_partition_table(p, w)
        assert math.exp(t.logQ[2]) == pytest.approx((w1**2 + w2) / 2, rel=1e-14)

    def test_n3_closed_form(self):
        w1, w2, w3 = 1.7, 0.4, 2.2
        p = SystemParams(d=1, L=1.0, N=3, beta=1.0)
        t = build_partition_table(p, WeightSequence.from_weights([w1, w2, w3]))
        want = (w1**3 + 3 * w1 * w2 + 2 * w3) / 6
        assert math.exp(t.logQ[3]) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_random_weights(self, seed):
        rng = np.random.default_rng(seed)
        for N in range(1, 9):
            w = WeightSequence.from_weights(rng.uniform(0.3, 3.0, size=N))
            p = SystemParams(d=1, L=1.0, N=N, beta=1.0)
            t = build_partition_table(p, w)
            oracle = brute_force_partition_fn(w, N)
            assert math.exp(t.logQ[N]) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_short_weights_and_cap(self):
        p = SystemParams(d=3, L=5.0, N=10, beta=1.0)
        with pytest.raises(ValueError):
            build_partition_table(p, _const_weights(9))
        big = SystemParams(d=3, L=5.0, N=N_MAX + 1, beta=1.0)
        with pytest.raises(ValueError):
            build_partition_table(big, _const_weights(1))

    def test_large_system_no_overflow(self):
        # logQ stays finite even when Q itself spans thousands of decades
        t = _ideal_table(N=2048, rho_lam_d=0.5)
        assert np.all(np.isfinite(t.logQ))
        assert t.logQ[-1] > 1e3  # dilute gas: Q grows roughly like (L^d/lam^d)^N/N!


class TestBruteForce:
    def test_n1(self):
        w = WeightSequence.from_weights([1.7])
        assert brute_force_partition_fn(w, 1) == pytest.approx(1.7, rel=1e-15)

    def test_n2(self):
        w = WeightSequence.from_weights([1.7, 0.4])
        assert brute_force_partition_fn(w, 2) == pytest.approx((1.7**2 + 0.4) / 2, rel=1e-14)

    def test_n4_linear_weights(self):
        # partitions of 4: 4 | 3+1 | 2+2 | 2+1+1 | 1+1+1+1 with w_n = n
        w = WeightSequence.from_weights([1.0, 2.0, 3.0, 4.0])
        want = 4 / 4 + (3 / 3) * 1 + (2 / 2) ** 2 / 2 + (2 / 2) * 1 / 2 + 1 / 24
        got = brute_force_partition_fn(w, 4)
        assert got == pytest.approx(want, rel=1e-14)
        p = SystemParams(d=1, L=1.0, N=4, beta=1.0)
        t = build_partition_table(p, w)
        assert math.exp(t.logQ[4]) == pytest.approx(got, rel=1e-12)

    def test_refuses_large_n(self):
        w = _const_weights(60)
        with pytest.raises(ValueError):
            brute_force_partition_fn(w, 11)


class TestSpectrum:
    def test_single_particle(self):
        t = _ideal_table(N=1)
        s = cycle_density_spectrum(t)
        assert s.rho_n[0] == pytest.approx(s.rho, rel=1e-15)

    def test_constant_weights_n2_split(self):
        p = SystemParams(d=3, L=4.0, N=2, beta=1.0)
        t = build_partition_table(p, _const_weights(2))
        s = cycle_density_spectrum(t)
        assert np.allclose(s.rho_n, [s.rho / 2, s.rho / 2], rtol=1e-14)

    @pytest.mark.parametrize("rho_lam_d", [0.5, 2.612, 10.0])
    def test_normalization(self, rho_lam_d):
        t = _ideal_table(N=512, rho_lam_d=rho_lam_d)
        s = cycle_density_spectrum(t)
        assert s.rho_n.sum() == pytest.approx(s.rho, rel=1e-12)
        assert np.all(s.rho_n >= 0.0)

    def test_condensed_small_n_law(self):
        # deep in the condensed regime rho_n lam^d -> n^{-d/2}, sharpening with N
        devs = {}
        for N in (512, 2048):
            p = SystemParams.from_degeneracy(3, N, 10.0, beta=1.0)
            s = cycle_density_spectrum(build_partition_table(p, WeightSequence.ideal(p)))
            law = s.rho_n[:4] * p.lam**3
            ref = np.arange(1, 5) ** -1.5
            devs[N] = np.abs(law / ref - 1.0).max()
        assert devs[512] < 1e-3
        assert devs[2048] < 1e-8
        assert devs[2048] < devs[512]


def _exact_log_q(log_w, N):
    """The row-by-row log-space recursion, as a reference for the blocked build."""
    logQ = np.zeros(N + 1)
    for M in range(1, N + 1):
        terms = log_w[:M] + logQ[M - 1 :: -1]
        top = terms.max()
        logQ[M] = top + math.log(np.exp(terms - top).sum()) - math.log(M)
    return logQ


def _rel_log_q_error(table, ref):
    return float(np.max(np.abs(table.logQ - ref) / np.maximum(1.0, np.abs(ref))))


def _norm_residual(spectrum):
    return math.fsum(spectrum.rho_n) / spectrum.rho - 1.0


class TestBlockedRecursion:
    @pytest.mark.parametrize("fraction", [0.5, 0.7, 0.9])
    def test_normalization_below_transition_at_16000(self, fraction):
        # |log Q_N| > 2^13 here, where one ulp of log Q_N alone is 1.8e-12
        t = _ideal_table(N=16000, rho_lam_d=fraction * ZETA32)
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_normalization_with_dcp_weights_at_16000(self, edge):
        # log w_n runs to -960 (lower) and +4000 (upper), and each ratio sums
        # thousands of steps D of one sign
        p = SystemParams.from_degeneracy(3, 16000, 2.0 * ZETA32, 1.0)
        lower, upper = dcp_bound_weights(p, gaussian_potential(0.5, 0.8, d=3))
        t = build_partition_table(p, lower if edge == "lower" else upper)
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    def test_normalization_at_cap(self):
        t = _ideal_table(N=N_MAX, rho_lam_d=0.7 * ZETA32)
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    @pytest.mark.parametrize("case", ["below", "above", "lognormal", "dcp-lower", "dcp-upper"])
    def test_matches_exact_loop(self, case):
        N = 4096
        if case == "lognormal":
            p = SystemParams(d=3, L=1.0, N=N, beta=1.0)
            w = WeightSequence(np.random.default_rng(11).normal(0.0, 1.0, N))
        else:
            p = SystemParams.from_degeneracy(3, N, (0.7 if case == "below" else 2.0) * ZETA32, 1.0)
            w = WeightSequence.ideal(p)
            if case.startswith("dcp"):
                lower, upper = dcp_bound_weights(p, gaussian_potential(0.5, 0.8, d=3))
                w = lower if case == "dcp-lower" else upper
        assert _rel_log_q_error(build_partition_table(p, w), _exact_log_q(w.log_w, N)) <= 1e-13

    def test_overflowing_tilt_falls_back_to_exact_loop(self, monkeypatch):
        # one weight of e^400 puts the tilted factors of every block that
        # reaches n = 700 beyond the float range
        N = 1000
        log_w = np.zeros(N)
        log_w[699] = 400.0
        exact_blocks = []
        exact_rows = cycle_engine._exact_rows

        def spy(log_w, logQ, D, M0, M1):
            exact_blocks.append(M0)
            exact_rows(log_w, logQ, D, M0, M1)

        monkeypatch.setattr(cycle_engine, "_exact_rows", spy)
        t = build_partition_table(SystemParams(d=3, L=1.0, N=N, beta=1.0), WeightSequence(log_w))
        assert exact_blocks == [1, 513, 769]
        assert _rel_log_q_error(t, _exact_log_q(log_w, N)) <= 1e-13

    def test_constant_weights_fixed_point_bit_exact(self):
        t = build_partition_table(SystemParams(d=3, L=5.0, N=1000, beta=1.0), _const_weights(1000))
        assert np.all(t.logQ == 0.0)
        assert np.all(t.D == 0.0)

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_weight_scaling_identity(self, c):
        # w_n -> c^n w_n multiplies Q_N by c^N
        N = 4096
        p = SystemParams.from_degeneracy(3, N, 2.0 * ZETA32, 1.0)
        w = WeightSequence.ideal(p)
        base = build_partition_table(p, w).logQ[N]
        scaled = build_partition_table(p, w.rescaled(np.arange(1, N + 1) * math.log(c))).logQ[N]
        assert scaled - base == pytest.approx(N * math.log(c), rel=1e-13)

    def test_table_from_log_q_alone(self):
        t = _ideal_table(N=600)
        again = LogPartitionTable(t.logQ, t.weights, t.params)
        assert np.array_equal(again.D, np.diff(t.logQ))
        assert np.allclose(t.D, again.D, rtol=0.0, atol=1e-12)
        assert np.allclose(cycle_density_spectrum(again).rho_n, cycle_density_spectrum(t).rho_n, rtol=1e-12)

    def test_log_ratios_at_every_m(self):
        t = _ideal_table(N=600, rho_lam_d=0.9 * ZETA32)
        assert np.array_equal(t.log_ratios(), t.log_ratios(600))
        for M in (1, 2, 257, 599):
            assert np.allclose(t.log_ratios(M), t.logQ[M - 1 :: -1] - t.logQ[M], rtol=0.0, atol=1e-12)
        for M in (0, 601):
            with pytest.raises(ValueError, match="M must lie"):
                t.log_ratios(M)

    def test_probabilities_match_spectrum_fractions(self):
        # both take their ratios from the steps D; subtracting log Q entries
        # near 2^13 instead leaves them up to 3.8e-12 apart
        N = 16000
        t = _ideal_table(N=N, rho_lam_d=0.9 * ZETA32)
        probs = t.cycle_probabilities(N)
        fractions = cycle_density_spectrum(t).fractions
        keep = fractions > 1e-200
        assert np.max(np.abs(probs[keep] / fractions[keep] - 1.0)) <= 1e-13


class TestSampler:
    def test_single_particle_always_one_cycle(self):
        t = _ideal_table(N=1)
        assert sample_cycle_type(t, 0) == CycleType((1,))

    def test_deterministic_given_seed(self):
        t = _ideal_table(N=32)
        assert sample_cycle_type(t, 1234) == sample_cycle_type(t, 1234)

    def test_parts_partition_n(self):
        t = _ideal_table(N=48, rho_lam_d=5.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            ct = sample_cycle_type(t, rng)
            assert ct.N == 48
            assert all(p >= 1 for p in ct.parts)

    def test_constant_weights_n2_coin_flip(self):
        p = SystemParams(d=1, L=1.0, N=2, beta=1.0)
        t = build_partition_table(p, _const_weights(2))
        rng = np.random.default_rng(42)
        n_two = sum(sample_cycle_type(t, rng).parts == (2,) for _ in range(4000))
        # 3 binomial sigmas around p = 1/2
        assert abs(n_two / 4000 - 0.5) < 3 * 0.5 / math.sqrt(4000)

    def test_first_cycle_chi_square(self):
        t = _ideal_table(N=64, rho_lam_d=2.612)
        probs = t.cycle_probabilities(64)
        rng = np.random.default_rng(2024)
        draws = np.array([sample_cycle_type(t, rng).parts[0] for _ in range(10_000)])
        counts = np.bincount(draws, minlength=65)[1:]
        # pool bins with expected count < 5 into the last bin
        expected = 10_000 * probs
        cut = int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        k = 64 - cut
        obs = np.append(counts[:k], counts[k:].sum())
        exp = np.append(expected[:k], expected[k:].sum())
        _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.001

    def test_macro_mass_matches_aggregate(self):
        t = _ideal_table(N=64, rho_lam_d=8.0)
        s = cycle_density_spectrum(t)
        eps = 0.25
        macro_frac = aggregate_macroscopic(s, eps).macro / s.rho
        rng = np.random.default_rng(5)
        nsamp = 4000
        vals = []
        for _ in range(nsamp):
            ct = sample_cycle_type(t, rng)
            vals.append(sum(p for p in ct.parts if p >= eps * 64) / 64)
        got = float(np.mean(vals))
        sigma = math.sqrt(macro_frac * (1 - macro_frac) / nsamp)
        assert abs(got - macro_frac) <= 3 * sigma

    @pytest.mark.parametrize(
        "N,rho_lam_d", [(64, 0.7 * ZETA32), (64, 2.0 * ZETA32), (2048, 0.9 * ZETA32), (2048, 2.0 * ZETA32), (1024, None)]
    )
    def test_matches_cumulative_table_sampler(self, N, rho_lam_d):
        # the inversion walks the same law as a searchsorted over the
        # normalized cumulative table, so the draws agree part for part
        if rho_lam_d is None:  # lognormal weights: log Q is not concave
            p = SystemParams(d=3, L=1.0, N=N, beta=1.0)
            t = build_partition_table(p, WeightSequence(np.random.default_rng(3).normal(0.0, 1.0, N)))
        else:
            t = _ideal_table(N=N, rho_lam_d=rho_lam_d)
        cumulative = {}
        for seed in range(200):
            assert sample_cycle_type(t, seed).parts == _reference_draw(t, seed, cumulative)

    def test_draws_leave_the_table_unchanged(self):
        t = _ideal_table(N=4096, rho_lam_d=2.0 * ZETA32)
        before = _array_bytes(t)
        rng = np.random.default_rng(17)
        for _ in range(200):
            sample_cycle_type(t, rng)
        assert _array_bytes(t) <= before

    def test_draw_at_cap(self):
        t = _ideal_table(N=N_MAX, rho_lam_d=2.0 * ZETA32)
        assert sample_cycle_type(t, 99).N == N_MAX


def _reference_draw(table, seed, cumulative):
    """Cycle type by inversion of the normalized cumulative table at each M,
    with its last entry clamped to 1; ``cumulative`` caches the tables."""
    rng = np.random.default_rng(seed)
    parts = []
    M = table.N
    while M > 0:
        if M not in cumulative:
            cumulative[M] = np.cumsum(table.cycle_probabilities(M))
            cumulative[M][-1] = 1.0
        n = int(np.searchsorted(cumulative[M], rng.random(), side="right")) + 1
        parts.append(n)
        M -= n
    return tuple(parts)


def _array_bytes(obj):
    """Bytes of the numpy arrays reachable from ``obj``."""
    seen, stack, total = set(), [obj], 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, str, bytes, int, float)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        else:
            stack.extend(gc.get_referents(item))
    return total


GOLOMB_DICKMAN = 0.6243299885435508


class TestPoissonDirichlet:
    def test_largest_macro_cycle_share_tends_to_golomb_dickman(self):
        # above rho_c the macroscopic cycles, scaled by their total length,
        # follow PD(1), whose largest part has mean 0.62433 (Suto 1993;
        # Betz & Ueltschi 2011); cycles below eps N are left out
        eps = 0.01
        means = {}
        for N, draws in ((1024, 2000), (4096, 1500)):
            t = _ideal_table(N=N, rho_lam_d=2.0 * ZETA32)
            rng = np.random.default_rng(1993)
            lo = math.ceil(eps * N)
            shares = []
            for _ in range(draws):
                macro = [n for n in sample_cycle_type(t, rng).parts if n >= lo]
                shares.append(max(macro) / sum(macro))
            means[N] = float(np.mean(shares))
        assert abs(means[4096] - GOLOMB_DICKMAN) <= 0.02
        assert abs(means[4096] - GOLOMB_DICKMAN) < abs(means[1024] - GOLOMB_DICKMAN)


class TestAuxiliaryIdentity:
    def test_zero_coupling_is_exact(self):
        p = SystemParams.from_degeneracy(3, 128, 2.0, beta=1.0)
        assert verify_auxiliary_identity(p, C=0.0, D=0.0) == 0.0

    @pytest.mark.parametrize("C,D,N", [(0.01, 0.3, 256), (1.0, 0.0, 64), (0.5, 1.0, 128)])
    def test_small_deviation(self, C, D, N):
        p = SystemParams.from_degeneracy(3, N, 2.0, beta=1.0)
        assert verify_auxiliary_identity(p, C=C, D=D) <= 1e-10

    def test_accepts_explicit_base_weights(self):
        p = SystemParams.from_degeneracy(3, 64, 2.0, beta=1.0)
        w = WeightSequence.ideal(p)
        assert verify_auxiliary_identity(p, w, C=0.2, D=0.1) <= 1e-10

    def test_rejects_nonfinite(self):
        p = SystemParams(d=3, L=5.0, N=8, beta=1.0)
        with pytest.raises(ValueError):
            verify_auxiliary_identity(p, C=math.inf, D=0.0)


class TestAggregateMacroscopic:
    def test_eps_one_keeps_only_full_cycle(self):
        t = _ideal_table(N=16, rho_lam_d=5.0)
        s = cycle_density_spectrum(t)
        macro, _ = aggregate_macroscopic(s, 1.0)
        assert macro == pytest.approx(float(s.rho_n[-1]), rel=1e-15)

    def test_constant_weights_n2(self):
        p = SystemParams(d=3, L=4.0, N=2, beta=1.0)
        t = build_partition_table(p, _const_weights(2))
        s = cycle_density_spectrum(t)
        macro, _ = aggregate_macroscopic(s, 0.6)
        assert macro == pytest.approx(s.rho / 2, rel=1e-14)

    def test_band_window(self):
        # d = 3, N = 4096: band is eps*N^{2/3} = 64*eps .. N/ln N = 492
        t = _ideal_table(N=4096, rho_lam_d=2.0)
        s = cycle_density_spectrum(t)
        _, band = aggregate_macroscopic(s, 0.25)
        lo = math.ceil(0.25 * 4096 ** (2 / 3))
        hi = math.floor(4096 / math.log(4096))
        assert band == pytest.approx(float(s.rho_n[lo - 1 : hi].sum()), rel=1e-14)

    def test_empty_band_is_zero(self):
        # N = 2: band lower edge eps*2^{2/3} with hi = floor(2/ln 2) = 2
        p = SystemParams(d=3, L=4.0, N=2, beta=1.0)
        s = cycle_density_spectrum(build_partition_table(p, _const_weights(2)))
        macro, band = aggregate_macroscopic(s, 1.0)
        assert band >= 0.0

    def test_rejects_eps_out_of_range(self):
        t = _ideal_table(N=8)
        s = cycle_density_spectrum(t)
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                aggregate_macroscopic(s, eps)

    @pytest.mark.parametrize("N", [1024, 4096, 8192])
    def test_macro_excess_is_the_normal_fluid_tail(self, N):
        # at rho lam^3 = 2 zeta(3/2) half the particles condense; the window
        # n >= eps N also holds the normal fluid's long cycles, rho_n lam^3
        # ~ n^{-3/2}, so the macro fraction exceeds 1/2 by the Hurwitz tail
        # zeta(3/2, ceil(eps N)) / (rho lam^3)
        eps, rho_lam3 = 0.01, 2.0 * ZETA32
        s = cycle_density_spectrum(_ideal_table(N=N, rho_lam_d=rho_lam3, beta=1.0))
        excess = aggregate_macroscopic(s, eps).macro / s.rho - 0.5
        assert excess == pytest.approx(zeta(1.5, math.ceil(eps * N)) / rho_lam3, abs=5e-4)

    def test_macro_plus_rest_is_total(self):
        t = _ideal_table(N=256, rho_lam_d=6.0)
        s = cycle_density_spectrum(t)
        macro, _ = aggregate_macroscopic(s, 0.1)
        below = float(s.rho_n[: math.ceil(0.1 * 256) - 1].sum())
        assert macro + below == pytest.approx(s.rho, rel=1e-12)


class TestSubBlockSolve:
    """Each tilted block is solved 16 rows at a time; a last block may be
    shorter than one sub-block."""

    @pytest.mark.parametrize("N", [257, 773, 4100])  # one tilted row; a last block of 5 rows
    @pytest.mark.parametrize("case", ["below", "above", "lognormal"])
    def test_matches_exact_loop(self, N, case, monkeypatch):
        if case == "lognormal":
            p = SystemParams(d=3, L=1.0, N=N, beta=1.0)
            w = WeightSequence(np.random.default_rng(23).normal(0.0, 1.0, N))
        else:
            p = SystemParams.from_degeneracy(3, N, (0.7 if case == "below" else 2.0) * ZETA32, 1.0)
            w = WeightSequence.ideal(p)
        exact_blocks = []
        exact_rows = cycle_engine._exact_rows

        def spy(log_w, logQ, D, M0, M1):
            exact_blocks.append(M0)
            exact_rows(log_w, logQ, D, M0, M1)

        monkeypatch.setattr(cycle_engine, "_exact_rows", spy)
        t = build_partition_table(p, w)
        assert exact_blocks == [1]  # every later block ran the sub-block solve
        assert _rel_log_q_error(t, _exact_log_q(w.log_w, N)) <= 1e-13
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    def test_constant_weights_fixed_point_bit_exact(self):
        t = build_partition_table(SystemParams(d=3, L=5.0, N=261, beta=1.0), _const_weights(261))
        assert np.all(t.logQ == 0.0)
        assert np.all(t.D == 0.0)


def _mp_fractions(log_w, N):
    """rho_n / rho = w_n Q_{N-n} / (N Q_N) by the recursion in 40-digit
    mpmath, on the given float weights."""
    with mp.workdps(40):
        w = [mp.exp(mp.mpf(float(x))) for x in log_w[:N]]
        Q = [mp.mpf(1)]
        for M in range(1, N + 1):
            Q.append(mp.fsum(w[n] * Q[M - 1 - n] for n in range(M)) / M)
        return np.array([float(w[n] * Q[N - 1 - n] / (N * Q[N])) for n in range(N)])


class TestDoublingBlocks:
    """The exact loop runs rows 1..16; each later block spans as many rows
    as precede it, up to 256."""

    @pytest.mark.parametrize("N", [64, 256, 600])
    def test_fractions_match_mpmath(self, N):
        # rows past 16 come from tilted blocks, whose steps D are not
        # differences of large logs; an exact loop over rows 1..256 leaves
        # 1.3e-12 at N = 600
        p = SystemParams.from_degeneracy(3, N, 2.0, 1.0)
        w = WeightSequence.ideal(p)
        fractions = cycle_density_spectrum(build_partition_table(p, w)).fractions
        assert np.max(np.abs(fractions / _mp_fractions(w.log_w, N) - 1.0)) <= 2e-13

    @pytest.mark.parametrize("N", [17, 33, 100, 257])  # one row past the head and past each block boundary
    @pytest.mark.parametrize("case", ["below", "above", "lognormal"])
    def test_only_the_head_runs_the_exact_loop(self, N, case, monkeypatch):
        if case == "lognormal":
            p = SystemParams(d=3, L=1.0, N=N, beta=1.0)
            w = WeightSequence(np.random.default_rng(29).normal(0.0, 1.0, N))
        else:
            p = SystemParams.from_degeneracy(3, N, (0.7 if case == "below" else 2.0) * ZETA32, 1.0)
            w = WeightSequence.ideal(p)
        exact_blocks = []
        exact_rows = cycle_engine._exact_rows

        def spy(log_w, logQ, D, M0, M1):
            exact_blocks.append((M0, M1))
            exact_rows(log_w, logQ, D, M0, M1)

        monkeypatch.setattr(cycle_engine, "_exact_rows", spy)
        t = build_partition_table(p, w)
        assert exact_blocks == [(1, 17)]  # rows 1..16, then tilted blocks only
        assert _rel_log_q_error(t, _exact_log_q(w.log_w, N)) <= 1e-13

    @pytest.mark.parametrize("N", [17, 33, 100, 257])
    def test_constant_weights_fixed_point_bit_exact(self, N):
        t = build_partition_table(SystemParams(d=3, L=5.0, N=N, beta=1.0), _const_weights(N))
        assert np.all(t.logQ == 0.0)
        assert np.all(t.D == 0.0)


def _scalar_walk(table, rng):
    """The chop-down walk with one scalar rng.random() per step, as the
    sampler ran before it drew its uniforms in blocks."""
    log_w = table.weights.log_w[: table.N].tolist()
    D = table.D.tolist()
    parts = []
    M = table.N
    while M > 0:
        target = rng.random() * M
        total = log_ratio = 0.0
        n = 0
        while n < M:
            log_ratio -= D[M - 1 - n]
            total += math.exp(log_w[n] + log_ratio)
            n += 1
            if total > target:
                break
        parts.append(n)
        M -= n
    return tuple(parts)


class TestSamplerStream:
    """Block uniforms with a rewind leave every seeded stream as the scalar
    walk leaves it, draw for draw, for any bit generator."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("N", [64, 300, 2048])
    @pytest.mark.parametrize("fraction", [0.7, 2.0])
    def test_draws_and_next_uniform_match_scalar_walk(self, bit_generator, N, fraction):
        t = _ideal_table(N=N, rho_lam_d=fraction * ZETA32)
        rng = np.random.Generator(bit_generator(31))
        ref = np.random.Generator(bit_generator(31))
        for _ in range(4):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_int_seed_matches_scalar_walk(self, seed):
        t = _ideal_table(N=2048, rho_lam_d=2.0 * ZETA32)
        assert sample_cycle_type(t, seed).parts == _scalar_walk(t, np.random.default_rng(seed))

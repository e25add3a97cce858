"""Oracle tests for the cycle-weight recursion, spectra, sampler, and
the auxiliary-identity check.

The brute-force permutation sum over integer partitions is the oracle
for the recursion; closed forms for N = 2, 3 are asserted directly.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

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
            # L^3 is a normal float, but rho = N/L^3 overflowed and the spectrum came out inf and nan
            dict(d=3, L=3e-103, N=1000, beta=1.0),
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
        t, exact_blocks, blocks = _spied_build(monkeypatch, SystemParams(d=3, L=1.0, N=N, beta=1.0),
                                               WeightSequence(log_w))
        reaching = [(M0, M1) for M0, M1 in blocks if M1 > 700]
        assert reaching and exact_blocks == [(1, 17), *reaching]
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


def _case_system(case, N, seed):
    """Params and weights: ideal below or above the transition, lognormal
    weights from the seed, or a dcp bound edge above the transition."""
    if case == "lognormal":
        return SystemParams(d=3, L=1.0, N=N, beta=1.0), WeightSequence(np.random.default_rng(seed).normal(0.0, 1.0, N))
    p = SystemParams.from_degeneracy(3, N, (0.7 if case == "below" else 2.0) * ZETA32, 1.0)
    if case.startswith("dcp"):
        lower, upper = dcp_bound_weights(p, gaussian_potential(0.5, 0.8, d=3))
        return p, lower if case == "dcp-lower" else upper
    return p, WeightSequence.ideal(p)


def _spied_build(monkeypatch, params, weights):
    """The table, the (M0, M1) of each block that ran the exact loop, and
    the (M0, M1) of each block the tilted solve was tried on."""
    exact_blocks, blocks = [], []
    exact_rows, tilted_rows = cycle_engine._exact_rows, cycle_engine._tilted_rows

    def exact_spy(log_w, logQ, D, M0, M1):
        exact_blocks.append((M0, M1))
        exact_rows(log_w, logQ, D, M0, M1)

    def tilted_spy(log_w, D, M0, M1):
        blocks.append((M0, M1))
        return tilted_rows(log_w, D, M0, M1)

    monkeypatch.setattr(cycle_engine, "_exact_rows", exact_spy)
    monkeypatch.setattr(cycle_engine, "_tilted_rows", tilted_spy)
    return build_partition_table(params, weights), exact_blocks, blocks


def _mp_fractions(log_w, N):
    """rho_n / rho = w_n Q_{N-n} / (N Q_N) by the recursion in 40-digit
    mpmath, on the given float weights."""
    with mp.workdps(40):
        w = [mp.exp(mp.mpf(float(x))) for x in log_w[:N]]
        Q = [mp.mpf(1)]
        for M in range(1, N + 1):
            Q.append(mp.fsum(w[n] * Q[M - 1 - n] for n in range(M)) / M)
        return np.array([float(w[n] * Q[N - 1 - n] / (N * Q[N])) for n in range(N)])


class TestSubBlockSolve:
    """Only rows 1..16 run the exact loop.  Each later block is tilted and
    solved a leaf at a time: 16 rows in blocks of up to 256 rows, 64 in
    longer ones; a last block may be shorter than one leaf."""

    @pytest.mark.parametrize(
        "N,seed",
        # one row past the head and past each doubling block's boundary;
        # one tilted row past 256, and a last block of 5 rows
        [pytest.param(N, 29, id=f"{N}-seed29") for N in (17, 33, 100, 257)]
        + [pytest.param(N, 23, id=f"{N}") for N in (257, 773, 4100)],
    )
    @pytest.mark.parametrize("case", ["below", "above", "lognormal"])
    def test_matches_exact_loop(self, N, seed, case, monkeypatch):
        t, exact_blocks, _ = _spied_build(monkeypatch, *_case_system(case, N, seed))
        assert exact_blocks == [(1, 17)]  # every later block ran the tilted solve
        assert _rel_log_q_error(t, _exact_log_q(t.weights.log_w, N)) <= 1e-13
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    # past each doubling block, and blocks of 64-row leaves up to 4096 rows long
    @pytest.mark.parametrize("N", [17, 33, 100, 257, 261, 1000, 5000, 20000])
    def test_constant_weights_fixed_point_bit_exact(self, N):
        t = build_partition_table(SystemParams(d=3, L=5.0, N=N, beta=1.0), _const_weights(N))
        assert np.all(t.logQ == 0.0)
        assert np.all(t.D == 0.0)

    @pytest.mark.parametrize(
        "N,rho_lam_d",
        [
            pytest.param(64, 2.0, id="64"),
            pytest.param(256, 2.0, id="256"),
            pytest.param(600, 2.0, id="600"),
            # past row 512 the blocks are (513, 256 rows) and (769, 332 rows);
            # the long one solves with 64-row leaves, the last of 12 rows
            pytest.param(1100, 2.0 * zeta(1.5), id="1100-above"),
        ],
    )
    def test_fractions_match_mpmath(self, N, rho_lam_d):
        # rows past 16 come from tilted blocks, whose steps D are not
        # differences of large logs; an exact loop over rows 1..256 leaves
        # 1.3e-12 at N = 600
        p = SystemParams.from_degeneracy(3, N, rho_lam_d, 1.0)
        w = WeightSequence.ideal(p)
        fractions = cycle_density_spectrum(build_partition_table(p, w)).fractions
        assert np.max(np.abs(fractions / _mp_fractions(w.log_w, N) - 1.0)) <= 2e-13

    @pytest.mark.parametrize(
        "case,N",
        [(case, N) for N in (4100, 16000) for case in ("below", "above", "lognormal", "dcp-lower", "dcp-upper")]
        + [("above", N_MAX)],
    )
    def test_only_the_head_runs_the_exact_loop_in_long_blocks(self, case, N, monkeypatch):
        t, exact_blocks, blocks = _spied_build(monkeypatch, *_case_system(case, N, 31))
        assert exact_blocks == [(1, 17)]
        assert max(M1 - M0 for M0, M1 in blocks) > cycle_engine._BLOCK_MIN
        assert abs(_norm_residual(cycle_density_spectrum(t))) <= 1e-12

    @pytest.mark.parametrize("fraction", [0.7, 2.0])
    def test_block_schedule(self, fraction, monkeypatch):
        # rows 17..N in contiguous blocks: 16, 32, 64, 128 and 256 rows,
        # then whole 64-row leaves from 256 up to 4096 rows and at most as
        # many as precede the block; only the last block may differ, cut
        # short or taking the last few rows
        N = N_MAX
        p = SystemParams.from_degeneracy(3, N, fraction * ZETA32, 1.0)
        _, _, blocks = _spied_build(monkeypatch, p, WeightSequence.ideal(p))
        assert blocks[0][0] == 17 and blocks[-1][1] == N + 1
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        lengths = [M1 - M0 for M0, M1 in blocks[:-1]]
        assert lengths[:5] == [16, 32, 64, 128, 256]
        for (M0, M1), rows in zip(blocks[5:], lengths[5:]):
            assert rows % 64 == 0 and 256 <= rows <= min(M0 - 1, 4096)
        assert max(lengths) == 4096 if fraction > 1.0 else max(lengths) > 2048


def _flushed_random(rng, size):
    """Nonnegative factors over 60 decades, a quarter of them flushed to 0."""
    x = np.exp(rng.uniform(-70.0, 70.0, size))
    x[rng.random(size) < 0.25] = 0.0
    return x


class TestTiltedKernels:
    """The matrix-product cross term against np.correlate, and the merged
    leaf inverses against np.linalg.inv."""

    @pytest.mark.parametrize(
        "rows,k",
        [
            (5, 37),  # k < _TAU, one short row tile
            (300, 1000),  # k not a multiple of _TAU
            (130, 64),  # k one whole tile
            (1, 5000),
            (2100, 9000),  # a second, partial row tile and two chunks of lag tiles
        ],
    )
    def test_cross_product_matches_correlate(self, rows, k):
        rng = np.random.default_rng(rows + k)
        wt = _flushed_random(rng, rows - 1 + k)
        r_rev = _flushed_random(rng, k)
        r_rev[-3:] = 0.0  # a zero tail, as past the last kept factor
        want = np.correlate(wt, r_rev, "valid")
        got = cycle_engine._cross_product(wt, r_rev, rows)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_cross_product_in_small_tiles(self, monkeypatch):
        # many row tiles and lag chunks, one of them partial, on small inputs
        monkeypatch.setattr(cycle_engine, "_ROW_TILE", 48)
        monkeypatch.setattr(cycle_engine, "_TILE_FLOATS", 700)
        rng = np.random.default_rng(3)
        rows, k = 250, 1500
        wt, r_rev = _flushed_random(rng, rows - 1 + k), _flushed_random(rng, k)
        want = np.correlate(wt, r_rev, "valid")
        assert np.all(np.abs(cycle_engine._cross_product(wt, r_rev, rows) - want) <= 1e-15 * want)

    def test_cross_switches_to_the_product_at_its_crossover(self, monkeypatch):
        calls = []
        product = cycle_engine._cross_product
        monkeypatch.setattr(cycle_engine, "_cross_product", lambda *a: calls.append(a[1:]) or product(*a))
        lags, rows = cycle_engine._PRODUCT_LAGS, cycle_engine._PRODUCT_ROWS
        for n, k in ((rows, lags - 1), (rows - 1, lags), (rows, lags)):
            got = cycle_engine._cross(np.ones(n - 1 + k), np.ones(k), n)
            assert np.array_equal(got, np.full(n, float(k)))
        assert [(r_rev.size, n) for r_rev, n in calls] == [(lags, rows)]

    @staticmethod
    def _leaf_system(rng, M0, leaf, log_span, leaves=5):
        wt = np.exp(rng.uniform(-log_span, log_span, 63))
        wt[rng.random(63) < 0.2] = 0.0
        lag = np.subtract.outer(np.arange(leaf), np.arange(leaf))
        T = np.where(lag > 0, wt[np.maximum(lag - 1, 0)], 0.0)
        return T, np.arange(M0, M0 + leaves * leaf, dtype=float).reshape(leaves, leaf)

    # 2, 4, 8 and 32 rows check every merge level up from the diagonal
    @pytest.mark.parametrize("leaf", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("M0", [257, 5377])
    def test_leaf_inverses_match_linalg(self, leaf, M0):
        # factors up to e^3: diag(m) - T stays diagonally dominant, where
        # np.linalg.inv is accurate to the last digits
        T, m = self._leaf_system(np.random.default_rng(M0 + leaf), M0, leaf, 3.0)
        inv = cycle_engine._leaf_inverses(T, m)
        assert inv.shape == m.shape + (leaf,)
        for s in range(m.shape[0]):
            want = np.linalg.inv(np.diag(m[s]) - T)
            keep = np.tril(np.ones((leaf, leaf), bool))
            assert np.all(inv[s][~keep] == 0.0)
            assert np.all(np.abs(inv[s] - want)[keep] <= 1e-14 * want[keep])

    @pytest.mark.parametrize("M0", [257, 5377])
    def test_leaf_inverses_nonnegative(self, M0):
        # factors far from diagonal dominance (the ideal weights' tilted
        # factors reach 3500 near n = 64 at N = 8192): every entry of each
        # merged inverse is still a sum of nonnegative products
        for leaf in (16, 64):
            inv = cycle_engine._leaf_inverses(*self._leaf_system(np.random.default_rng(M0), M0, leaf, 8.0))
            assert np.all(inv >= 0.0) and np.all(np.isfinite(inv))


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


class _ConstantGenerator:
    """A stand-in for np.random.Generator that yields the uniform ``u``
    every time, with a state that counts the uniforms drawn and rewinds."""

    def __init__(self, u):
        self.u = u
        self.state = 0
        self.bit_generator = self

    def random(self, size=None):
        if size is None:
            self.state += 1
            return self.u
        self.state += size
        return np.full(size, self.u)


class TestWalk:
    """The walk takes its first term before the loop and reads list copies
    of log w and D that the table keeps: the draws are still those of the
    scalar walk, and the copies neither change nor grow with the draws."""

    def test_single_particle_matches_scalar_walk(self):
        t = _ideal_table(N=1)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref) == (1,)
        assert rng.random() == ref.random()

    def test_first_term_alone_crosses(self):
        # below the transition w_1 Q_{M-1}/Q_M is about half of M; this
        # seed's first u M falls under it, so its first step returns 1
        t = _ideal_table(N=64, rho_lam_d=0.7 * ZETA32)
        seed = 3
        assert np.random.default_rng(seed).random() * 64 < math.exp(t.weights.log_w[0] - t.D[63])
        parts = sample_cycle_type(t, seed).parts
        assert parts[0] == 1
        assert parts == _scalar_walk(t, np.random.default_rng(seed))

    def test_lognormal_weights_match_scalar_walk(self):
        p = SystemParams(d=3, L=1.0, N=1024, beta=1.0)
        t = build_partition_table(p, WeightSequence(np.random.default_rng(3).normal(0.0, 1.0, 1024)))
        rng, ref = np.random.default_rng(29), np.random.default_rng(29)
        for _ in range(50):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref)
        assert rng.random() == ref.random()

    def test_rounding_short_sum_returns_m(self):
        # D raised by 1e-13 makes every Q_M a little too large, so the terms
        # of each step sum to just under M and u = 1 - 2^-53 is never passed
        base = _ideal_table(N=64, rho_lam_d=2.0 * ZETA32)
        t = LogPartitionTable(base.logQ, base.weights, base.params, D=base.D + 1e-13)
        terms = np.exp(t.weights.log_w + t.log_ratios())
        u = 1.0 - 2.0**-53
        assert 64 * (1.0 - 1e-9) < math.fsum(terms) < u * 64
        stub = _ConstantGenerator(u)
        assert next(cycle_engine._cycle_types(t, stub)).parts == (64,)
        assert stub.state == 1
        assert _scalar_walk(t, _ConstantGenerator(u)) == (64,)

    def test_walk_lists_built_once(self):
        t = _ideal_table(N=2048, rho_lam_d=2.0 * ZETA32)
        assert "_walk_lists" not in vars(t)
        rng = np.random.default_rng(11)
        sample_cycle_type(t, rng)
        lists = t._walk_lists
        assert lists[0] == t.weights.log_w.tolist() and lists[1] == t.D.tolist()
        for _ in range(199):
            sample_cycle_type(t, rng)
        assert t._walk_lists is lists

    def test_draws_after_the_first_hold_no_memory(self):
        t = _ideal_table(N=4096, rho_lam_d=2.0 * ZETA32)
        rng = np.random.default_rng(23)
        tracemalloc.start()
        try:
            sample_cycle_type(t, rng)
            after_first = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                sample_cycle_type(t, rng)
            after_all = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the first draw made the lists: two of 4096 floats, 32 bytes each
        assert after_first >= 2 * 4096 * 32
        assert abs(after_all - after_first) <= 64 * 1024


class TestCertifiedWalk:
    """numpy partial sums decide the long steps, the first step and the
    first term only where a rounding margin proves the scalar walk would
    cross at the same n; every draw is still the scalar walk's."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("N", [4096, 16000])
    @pytest.mark.parametrize("fraction", [0.7, 2.0])
    def test_long_draws_match_scalar_walk(self, bit_generator, N, fraction):
        t = _ideal_table(N=N, rho_lam_d=fraction * ZETA32)
        rng = np.random.Generator(bit_generator(37))
        ref = np.random.Generator(bit_generator(37))
        for _ in range(3):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref)
        assert rng.random() == ref.random()

    def test_lognormal_weights_at_4096(self):
        p = SystemParams(d=3, L=1.0, N=4096, beta=1.0)
        t = build_partition_table(p, WeightSequence(np.random.default_rng(41).normal(0.0, 1.0, 4096)))
        rng, ref = np.random.default_rng(43), np.random.default_rng(43)
        for _ in range(10):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref)
        assert rng.random() == ref.random()

    def test_weights_with_zeros(self):
        # log w = -inf for n = 5, 10, ...: those terms are exact zeros in
        # both walks, so no step ends at such an n
        p = SystemParams.from_degeneracy(3, 4096, 2.0 * ZETA32, 1.0)
        weights = WeightSequence.ideal(p)
        weights.log_w[4::5] = -np.inf
        t = build_partition_table(p, weights)
        rng, ref = np.random.default_rng(47), np.random.default_rng(47)
        for _ in range(10):
            parts = sample_cycle_type(t, rng).parts
            assert parts == _scalar_walk(t, ref)
            assert all(n % 5 for n in parts)
        assert rng.random() == ref.random()

    def test_rounding_short_chunks_fall_back(self, monkeypatch):
        # as in TestWalk, D raised by 1e-13 leaves every step's sum short of
        # u M for u = 1 - 2^-53: the chunks reach M without a crossing and
        # the walk returns M
        base = _ideal_table(N=512, rho_lam_d=2.0 * ZETA32)
        t = LogPartitionTable(base.logQ, base.weights, base.params, D=base.D + 1e-13)
        terms = np.exp(t.weights.log_w + t.log_ratios())
        u = 1.0 - 2.0**-53
        assert math.fsum(terms) < u * 512
        decided = _spy(monkeypatch, "_chunked_crossing")
        stub = _ConstantGenerator(u)
        assert next(cycle_engine._cycle_types(t, stub)).parts == (512,) == _scalar_walk(t, _ConstantGenerator(u))
        assert stub.state == 1
        assert decided == [0]

    @pytest.mark.parametrize("where", ["listed", "chunked"])
    def test_target_on_a_numpy_sum_falls_back(self, where, monkeypatch):
        # N = 4096 is a power of two, so u = S/N is exact and u N lands on
        # the numpy partial sum S: neither the first step's list nor a
        # chunk may decide there, and the walk gives the crossing
        t = _ideal_table(N=4096, rho_lam_d=2.0 * ZETA32)
        log_w, D = t.weights.log_w, t.D
        if where == "listed":
            target = t._walk_lists[3][999]
        else:
            head = cycle_engine._HEAD
            log_ratios = -np.cumsum(D[::-1][:head])
            total = 0.0
            for x in log_w[:head] + log_ratios:
                total += math.exp(x)
            sums, _ = cycle_engine._walk_sums(log_w, D, 4096, head, float(log_ratios[-1]), total, 256)
            target = float(sums[200])
        u = target / 4096
        assert u * 4096 == target < 4096
        listed = _spy(monkeypatch, "_listed_crossing")
        chunked = _spy(monkeypatch, "_chunked_crossing")
        parts = next(cycle_engine._cycle_types(t, _ConstantGenerator(u))).parts
        assert parts == _scalar_walk(t, _ConstantGenerator(u))
        assert listed == [0] and chunked[0] == 0

    def test_numpy_decides_most_long_steps(self, monkeypatch):
        t = _ideal_table(N=4096, rho_lam_d=2.0 * ZETA32)
        listed = _spy(monkeypatch, "_listed_crossing")
        chunked = _spy(monkeypatch, "_chunked_crossing")
        rng, ref = np.random.default_rng(53), np.random.default_rng(53)
        long_steps = 0
        for _ in range(20):
            parts = sample_cycle_type(t, rng).parts
            assert parts == _scalar_walk(t, ref)
            long_steps += sum(n > cycle_engine._HEAD for n in parts)
        # the first step, unless its first term ends it, is bisected on the
        # table's list; every other step past the head goes to the chunks
        assert 10 <= len(listed) <= 20 and len(chunked) >= 40
        assert len(listed) + len(chunked) >= long_steps
        assert sum(map(bool, listed + chunked)) >= 0.95 * (len(listed) + len(chunked))

    def test_widened_margin_leaves_every_step_to_the_walk(self, monkeypatch):
        # a margin of 1 makes every numpy bound useless: the first terms
        # are all 0, and no list or chunk decides a step
        monkeypatch.setattr(cycle_engine, "_ABOVE", 2.0)
        monkeypatch.setattr(cycle_engine, "_BELOW", 0.0)
        t = _ideal_table(N=4096, rho_lam_d=2.0 * ZETA32)
        listed = _spy(monkeypatch, "_listed_crossing")
        chunked = _spy(monkeypatch, "_chunked_crossing")
        rng, ref = np.random.default_rng(59), np.random.default_rng(59)
        for _ in range(5):
            assert sample_cycle_type(t, rng).parts == _scalar_walk(t, ref)
        assert not any(t._walk_lists[2])
        assert len(listed) == 5 and not any(listed)
        assert len(chunked) >= 10 and not any(chunked)


def _spy(monkeypatch, name):
    """Record what cycle_engine.<name> returns, call by call."""
    returned = []
    function = getattr(cycle_engine, name)

    def spy(*args):
        returned.append(function(*args))
        return returned[-1]

    monkeypatch.setattr(cycle_engine, name, spy)
    return returned

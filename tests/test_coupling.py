"""Tests for merger-graph combinatorics and the coupling rate analysis."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bosecycles import coupling
from bosecycles.coupling import (
    CouplingCensus,
    CouplingParams,
    MergerMultigraph,
    coupling_gain_rate,
    coupling_sweep,
    decomposes_into_circles,
    enumerate_merger_graphs,
    finite_size_gain_rate,
    fluctuation_penalty,
    is_merger_graph,
    k_index,
    optimize_coupling,
)

# frozen regression counts; they equal 2^(2E - V + 1) because the even
# vectors mod 2 form the cycle space of K_V (dimension E - V + 1) and
# each edge has 2 values of either parity in 0..3
ADMISSIBLE_COUNTS = {2: 2, 3: 16, 4: 512, 5: 65536}
K_HISTOGRAMS = {
    2: {0: 1, 1: 1},
    3: {0: 1, 1: 3, 2: 12},
    4: {0: 1, 1: 6, 2: 51, 3: 454},
    5: {0: 1, 1: 10, 2: 135, 3: 2390, 4: 63000},
}


def default_params(**overrides) -> CouplingParams:
    kw = dict(c=0.5, rho_v=2.0, lam=1.0, rho=1.0, d=3, a=0.3)
    kw.update(overrides)
    return CouplingParams(**kw)


class TestMergerMultigraph:
    def test_from_edges(self):
        G = MergerMultigraph.from_edges(3, {(0, 1): 2, (2, 1): 1})
        assert G.multiplicities == (2, 0, 1)
        assert G.degrees == (2, 3, 1)
        assert G.total_edges == 3

    def test_single_vertex(self):
        G = MergerMultigraph(1, ())
        assert is_merger_graph(G) == 1
        assert k_index(G) == 0

    def test_length_validation(self):
        with pytest.raises(ValueError, match="multiplicities"):
            MergerMultigraph(3, (1, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MergerMultigraph(2, (-1,))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            MergerMultigraph(2, (1.5,))

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            MergerMultigraph.from_edges(2, {(1, 1): 2})

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError, match="out of range"):
            MergerMultigraph.from_edges(2, {(0, 5): 1})


class TestIsMergerGraph:
    def test_empty_graph(self):
        assert is_merger_graph(MergerMultigraph(4, (0,) * 6)) == 1

    def test_doubled_edge(self):
        assert is_merger_graph(MergerMultigraph.from_edges(2, {(0, 1): 2})) == 1

    def test_single_edge(self):
        assert is_merger_graph(MergerMultigraph.from_edges(2, {(0, 1): 1})) == 0

    def test_triangle(self):
        G = MergerMultigraph.from_edges(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert is_merger_graph(G) == 1

    def test_isolated_vertices_permitted(self):
        G = MergerMultigraph.from_edges(5, {(1, 3): 2})
        assert is_merger_graph(G) == 1

    def test_path_rejected(self):
        G = MergerMultigraph.from_edges(3, {(0, 1): 1, (1, 2): 1})
        assert is_merger_graph(G) == 0


class TestDecomposesIntoCircles:
    def test_matches_parity_criterion_exhaustively(self):
        # all 3-vertex multigraphs with multiplicities 0..3
        for mults in itertools.product(range(4), repeat=3):
            G = MergerMultigraph(3, mults)
            assert decomposes_into_circles(G) == bool(is_merger_graph(G)), mults

    def test_two_triangles_sharing_a_vertex(self):
        G = MergerMultigraph.from_edges(
            5, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (0, 3): 1, (3, 4): 1, (0, 4): 1}
        )
        assert decomposes_into_circles(G)
        assert k_index(G) == 4

    def test_size_cap(self):
        G = MergerMultigraph(9, (0,) * 36)
        with pytest.raises(ValueError, match="capped"):
            decomposes_into_circles(G)


class TestKIndex:
    def test_doubled_edge(self):
        assert k_index(MergerMultigraph.from_edges(2, {(0, 1): 2})) == 1

    def test_triangle(self):
        G = MergerMultigraph.from_edges(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert k_index(G) == 2

    def test_disjoint_two_circles(self):
        G = MergerMultigraph.from_edges(4, {(0, 1): 2, (2, 3): 2})
        assert k_index(G) == 2

    def test_isolated_vertices_do_not_count(self):
        G = MergerMultigraph.from_edges(5, {(1, 3): 2})
        assert k_index(G) == 1

    def test_undefined_for_non_merger(self):
        G = MergerMultigraph.from_edges(2, {(0, 1): 1})
        with pytest.raises(ValueError, match="undefined"):
            k_index(G)


class TestCensus:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_and_histograms(self, n):
        cen = enumerate_merger_graphs(n, 3, cross_check=True)
        E = n * (n - 1) // 2
        assert cen.total == 4**E
        assert cen.admissible == ADMISSIBLE_COUNTS[n]
        assert cen.admissible == 2 ** (2 * E - n + 1)
        assert cen.k_histogram == K_HISTOGRAMS[n]
        assert cen.cross_checked

    def test_five_vertex_census(self):
        # orbit-reduced cross-check still covers every graph up to relabeling
        cen = enumerate_merger_graphs(5, 3, cross_check=True)
        assert cen.admissible == ADMISSIBLE_COUNTS[5]
        assert cen.admissible == 2 ** (2 * 10 - 5 + 1)
        assert cen.k_histogram == K_HISTOGRAMS[5]

    def test_multiplicity_cap_two(self):
        cen = enumerate_merger_graphs(2, 2)
        assert cen.total == 3
        assert cen.admissible == 2  # m in {0, 2}

    def test_size_caps(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_merger_graphs(6, 3)
        with pytest.raises(ValueError, match="capped"):
            enumerate_merger_graphs(3, 4)

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (4, 3), (5, 1)])
    def test_rows_match_the_oracle(self, n, m):
        # row r of the census arrays is the r-th multigraph in product order,
        # with the graph-by-graph oracle's Delta and, where Delta = 1, its K
        cen = enumerate_merger_graphs(n, m)
        vecs = cen.vecs.tolist()
        assert vecs == [list(v) for v in itertools.product(range(m + 1), repeat=n * (n - 1) // 2)]
        graphs = [MergerMultigraph(n, mults) for mults in vecs]
        delta = [is_merger_graph(G) for G in graphs]
        assert cen.delta.tolist() == delta
        ks = [k_index(G) for G, ok in zip(graphs, delta) if ok]
        assert cen.k_vals[cen.delta].tolist() == ks
        assert (cen.total, cen.admissible) == (len(vecs), len(ks))
        assert cen.k_histogram == {k: ks.count(k) for k in set(ks)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_census_k_matches_component_count(self, n):
        # the census's rank rule against the graph search, on every support
        cen = enumerate_merger_graphs(n, 1)
        for mults, K in zip(cen.vecs.tolist(), cen.k_vals.tolist()):
            nni, nec = coupling._edge_components(MergerMultigraph(n, mults))
            assert K == nni - nec


class TestCrossCheckCatchesFaults:
    """The cross-check compares the census with oracles that share no code
    with it, so a fault on either side raises."""

    def test_miscounting_oracle_raises(self, monkeypatch):
        def miscount(G):
            nni, nec = real(G)
            return nni, nec + (nni > 2)

        real = coupling._edge_components
        monkeypatch.setattr(coupling, "_edge_components", miscount)
        with pytest.raises(AssertionError, match="component-count K"):
            enumerate_merger_graphs(4, 2, cross_check=True)

    def test_flipped_delta_on_a_representative_raises(self, monkeypatch):
        def flipped(n_vertices, max_multiplicity):
            pairs, vecs, delta, k_vals = real(n_vertices, max_multiplicity)
            reps = coupling._canonical_representative_mask(vecs, n_vertices, max_multiplicity + 1)
            idx = np.flatnonzero(reps)[-1]
            delta = delta.copy()
            delta[idx] = not delta[idx]
            return pairs, vecs, delta, k_vals

        real = coupling._census_arrays
        monkeypatch.setattr(coupling, "_census_arrays", flipped)
        with pytest.raises(AssertionError, match="even-degree criterion"):
            enumerate_merger_graphs(4, 2, cross_check=True)



class TestGainRate:
    def test_no_coupling_is_zero(self):
        assert coupling_gain_rate(default_params(a=0.5)) == 0.0

    def test_continuous_at_no_coupling(self):
        assert abs(coupling_gain_rate(default_params(a=0.5 - 1e-9))) < 1e-7

    def test_full_coupling_limit(self):
        # a = 0: rate reduces to (c/2) ln(c eps rho_v / e)
        for c, eps, rho_v in ((0.5, 0.25, 2.0), (0.3, 1.0, 5.0), (0.8, 0.5, 0.7)):
            p = CouplingParams(c=c, rho_v=rho_v, lam=1.0, rho=1.0, d=3, a=0.0, eps=eps)
            expected = 0.5 * c * math.log(c * eps * rho_v / math.e)
            assert coupling_gain_rate(p) == pytest.approx(expected, rel=1e-13)

    def test_value(self):
        p = default_params()
        w = 0.2
        expected = 0.5 * w * math.log(0.25 * 2.0 / (math.e * w)) + 0.5 * math.log(0.5) - 0.3 * math.log(0.3)
        assert coupling_gain_rate(p) == pytest.approx(expected, rel=1e-14)

    def test_requires_fixed_a(self):
        with pytest.raises(ValueError, match="uncoupled fraction"):
            coupling_gain_rate(default_params(a=None))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="cycle fraction"):
            default_params(c=1.0, a=0.5)
        with pytest.raises(ValueError, match="lie in"):
            default_params(a=0.6)  # a > c
        with pytest.raises(ValueError, match="damping"):
            default_params(eps=0.0)
        with pytest.raises(ValueError, match="rho_v"):
            default_params(rho_v=0.0)
        with pytest.raises(ValueError, match="penalty constant"):
            default_params(c1=-1.0)


class TestFiniteSizeRate:
    def test_converges_to_stirling_rate(self):
        p = default_params()
        g = coupling_gain_rate(p)
        diffs = {}
        for N in (40, 80, 160):
            exact = finite_size_gain_rate(N, p)
            diffs[N] = abs(exact - g)
            assert diffs[N] <= 5 * math.log(N) / N
        assert diffs[160] < diffs[40]

    def test_lgamma_branch_agrees(self):
        p = default_params()
        g = coupling_gain_rate(p)
        assert abs(finite_size_gain_rate(1000, p) - g) <= 5 * math.log(1000) / 1000

    def test_non_integer_counts_rejected(self):
        p = default_params()
        with pytest.raises(ValueError, match="integer"):
            finite_size_gain_rate(41, p)  # c N = 20.5

    def test_n_validation(self):
        with pytest.raises(ValueError, match="N must be"):
            finite_size_gain_rate(0, default_params())


class TestFluctuationPenalty:
    def test_no_coupling_is_zero(self):
        assert fluctuation_penalty(default_params(a=0.5)) == 0.0

    def test_substitution(self):
        p = CouplingParams(c=0.5, rho_v=2.0, lam=1.0, rho=1.0, d=3, a=0.4)
        assert fluctuation_penalty(p) == pytest.approx(-0.1, rel=1e-15)

    def test_density_scaling(self):
        p1 = default_params(rho=1.0)
        p2 = default_params(rho=2.0)
        assert fluctuation_penalty(p2) == pytest.approx(
            2 ** (2 / 3) * fluctuation_penalty(p1), rel=1e-13
        )


def truncated_objective(params: CouplingParams, a: float) -> float:
    # the rate without its c ln c - a ln a term
    p = replace(params, a=a)
    gain = coupling_gain_rate(p)
    a_log_a = 0.0 if a == 0.0 else a * math.log(a)
    return gain - (params.c * math.log(params.c) - a_log_a) + fluctuation_penalty(p)


def golden_argmax(fn, lo, hi, tol=1e-13):
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


class TestOptimizeCoupling:
    def test_closed_form_structure(self):
        p = default_params(a=None)
        opt = optimize_coupling(p)
        w = 0.25 * 2.0 * math.exp(-2.0 * (1.0 + 1.0))
        assert opt.a_star == pytest.approx(0.5 - w, rel=1e-14)
        assert opt.C == pytest.approx(0.5 * w, rel=1e-14)
        assert not opt.clamped
        assert opt.C == pytest.approx(0.5 * (p.c - opt.a_star), rel=1e-12)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(c=0.5, rho_v=2.0, lam=1.0, rho=1.0),
            dict(c=0.3, rho_v=5.0, lam=0.8, rho=0.5),
            dict(c=0.9, rho_v=1.0, lam=1.2, rho=2.0, eps=0.5),
        ],
    )
    def test_closed_form_maximizes_truncated_objective(self, kw):
        p = CouplingParams(d=3, a=None, **kw)
        opt = optimize_coupling(p)
        a_num = golden_argmax(lambda a: truncated_objective(p, a), 0.0, p.c)
        assert opt.a_star == pytest.approx(a_num, abs=1e-8)

    def test_full_rate_beats_truncated_at_a_star(self):
        # computed comparison, not an analytic assumption
        p = default_params(a=None)
        opt = optimize_coupling(p)
        assert opt.rate_numeric >= truncated_objective(p, opt.a_star) - 1e-12

    def test_numeric_max_dominates_closed_form_point(self):
        p = default_params(a=None)
        opt = optimize_coupling(p)
        assert opt.rate_numeric >= opt.rate_at_a_star - 1e-12
        assert 0.0 <= opt.a_numeric <= p.c

    def test_clamping(self):
        p = CouplingParams(c=0.5, rho_v=10.0, lam=0.1, rho=1.0, d=3, a=None, eps=1.0, c1=0.01)
        opt = optimize_coupling(p)
        assert opt.clamped
        assert opt.a_star == 0.0
        assert opt.C == pytest.approx(0.25, rel=1e-14)  # c/2


class TestSweep:
    def test_grid_and_totals(self):
        p = default_params(a=None)
        rows = coupling_sweep(p, num=11)
        assert len(rows) == 11
        assert rows[0].a == 0.0
        assert rows[-1].a == pytest.approx(0.5, rel=1e-15)
        assert rows[-1].total == 0.0
        for row in rows:
            assert row.total == pytest.approx(row.gain + row.penalty, rel=1e-14, abs=1e-300)

    def test_num_validation(self):
        with pytest.raises(ValueError, match="grid points"):
            coupling_sweep(default_params(a=None), num=1)


class TestCensusTypes:
    def test_census_is_frozen_summary(self):
        cen = enumerate_merger_graphs(2, 3)
        assert isinstance(cen, CouplingCensus)
        assert cen.total == 4
        assert not cen.cross_checked


class TestNonFiniteParams:
    @pytest.mark.parametrize("name", ["rho_v", "rho", "lam", "c1"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejected(self, name, value):
        with pytest.raises(ValueError, match="positive and finite"):
            default_params(**{name: value})

    def test_penalty_scale_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            default_params(c1=1e300, lam=1e10)

    def test_gain_rate_finite_where_the_quotient_overflows(self):
        # eps rho_v / (e (c - a)) exceeds the float range; its log does not
        p = default_params(c=0.5, a=0.5 - 1e-12, rho_v=1e300)
        w = 1e-12
        gain = 0.5 * w * (math.log(p.eps * p.rho_v) - 1.0 - math.log(w))
        expected = gain + p.c * math.log(p.c) - p.a * math.log(p.a)
        assert coupling_gain_rate(p) == pytest.approx(expected, rel=1e-9)

"""Cycle-coupling combinatorics: merger graphs, gain and penalty.

Couplings between permutation cycles aggregate into a labelled
multigraph; a configuration is admissible exactly when its edge multiset
decomposes into edge-disjoint circles, which happens iff every vertex
degree is even.  This script enumerates the admissible census for small
vertex counts, illustrates the degree test on explicit graphs, and then
maximizes the per-particle coupling gain net of its fluctuation penalty,
checking the closed-form optimizer against a numeric one and the
infinite-N rate against its finite-N factorial form.

Run with:  python3 demos/04_cycle_coupling.py
"""

import numpy as np

from bosecycles import (
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

print("=" * 72)
print("1. the admissible census")
print("=" * 72)

print(f"\n{'vertices':>9} {'graphs':>9} {'admissible':>11} {'fraction':>9}   K histogram")
for v in (2, 3, 4, 5):
    census = enumerate_merger_graphs(v)
    hist = dict(sorted(census.k_histogram.items()))
    print(
        f"{v:>9} {census.total:>9} {census.admissible:>11} "
        f"{census.admissible / census.total:>9.4f}   {hist}"
    )

print("""
Reading: with multiplicities capped at 3 there are 4^(v(v-1)/2) labelled
multigraphs and exactly 4^(v(v-1)/2) / 2^(v-1) of them are admissible,
i.e. a fraction 2^{-(v-1)}: each extra vertex adds one even-degree
parity constraint.  K counts the independent mergers (vertices minus
one per edge-containing component) and is what the coupling gain pays
its entropy against.
""")

print("=" * 72)
print("2. the even-degree test on explicit graphs")
print("=" * 72)

# Triangle on 3 vertices: multiplicities (m01, m02, m12).
for mults, label in [
    ((1, 1, 1), "triangle 1,1,1"),
    ((2, 0, 0), "double edge 2,0,0"),
    ((1, 1, 0), "open path 1,1,0"),
    ((2, 2, 2), "doubled triangle 2,2,2"),
]:
    G = MergerMultigraph(3, mults)
    ok = decomposes_into_circles(G)
    k = str(k_index(G)) if is_merger_graph(G) else "undefined"
    print(f"  {label:<22} admissible = {bool(is_merger_graph(G))!s:<5} "
          f"circle decomposition = {ok!s:<5} K = {k}")

print("""
Reading: the triangle is one circle through three cycles (K = 2), the
double edge is a 2-circle (K = 1), the open path has two odd-degree
vertices and is rejected, and the doubled triangle decomposes into two
circles sharing all vertices (still K = 2).
""")

print("=" * 72)
print("3. optimizing the coupling gain")
print("=" * 72)

params = CouplingParams(c=0.5, rho_v=50.0, lam=1.0, rho=1.0)
opt = optimize_coupling(params)

print(f"\nc = {params.c}, rho_v = {params.rho_v}, lam = {params.lam}, rho = {params.rho}")
print(f"  closed-form a*            : {opt.a_star:.8f} (clamped = {opt.clamped})")
print(f"  numeric argmax            : {opt.a_numeric:.8f}")
print(f"  rate at a*                : {opt.rate_at_a_star:.8f}")
print(f"  numeric max rate          : {opt.rate_numeric:.8f}")

rows = coupling_sweep(params, num=11)
totals = [row.total for row in rows]
print("\n  sweep of gain plus penalty over the uncoupled fraction a:")
for row in rows:
    bar = "#" * max(0, int(40 * (row.total - min(totals)) / (max(totals) - min(totals))))
    print(f"    a = {row.a:.2f}  gain = {row.gain:+.4f}  penalty = {row.penalty:+.4f}"
          f"  total = {row.total:+.6f}  {bar}")

print("""
Reading: the closed form drops the c^c/a^a entropy term, so it lands
near but not on the numeric argmax of the full objective; the numeric
maximum is always at least as large as the rate at a*.  The sweep shows
the tradeoff: a = c couples nothing (total 0), a = 0 couples every
cycle and overpays in factorial entropy and Gaussian fluctuations (the
penalty column is the negative term), and the optimum sits in between.
""")

print("=" * 72)
print("4. finite-N factorials converge to the rate")
print("=" * 72)

fixed = CouplingParams(c=0.5, rho_v=50.0, lam=1.0, rho=1.0, a=0.3)
rate = coupling_gain_rate(fixed)
print(f"\ninfinite-N gain rate at a = {fixed.a}: {rate:.8f}")
print(f"{'N':>6} {'finite-N rate':>15} {'gap':>12} {'5 ln N / N':>12}")
for N in (40, 80, 160, 320):
    fin = finite_size_gain_rate(N, fixed)
    gap = abs(fin - rate)
    print(f"{N:>6} {fin:>15.8f} {gap:>12.2e} {5 * np.log(N) / N:>12.2e}")

print(f"\nGaussian fluctuation penalty at a = {fixed.a}: {fluctuation_penalty(fixed):+.8f}")

print("""
Reading: the finite-N factorial expression approaches its Stirling rate
like ln N / N, so already a few hundred coupled cycles realize the
asymptotic gain.  The (negative) fluctuation penalty is the second term
of the net objective swept in section 3.
""")

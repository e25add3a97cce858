"""Cycle-coupling combinatorics: merger multigraphs and the gain/penalty
rate analysis.

Couplings between permutation cycles aggregate into a labelled multigraph
whose admissible configurations are mergers of circles: the edge multiset
must decompose into edge-disjoint circles of length >= 2, which holds iff
every vertex degree is even.  Each edge-containing component of V vertices
contributes V - 1 to the constraint index K.  The per-particle rate of the
resulting combinatorial gain, and the Gaussian fluctuation penalty paid
for it, are maximized jointly over the uncoupled fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .special_fn import _require_dimension

__all__ = [
    "MergerMultigraph",
    "CouplingParams",
    "CouplingOptimum",
    "CouplingCensus",
    "SweepRow",
    "is_merger_graph",
    "decomposes_into_circles",
    "k_index",
    "coupling_gain_rate",
    "fluctuation_penalty",
    "optimize_coupling",
    "finite_size_gain_rate",
    "enumerate_merger_graphs",
    "coupling_sweep",
]

CENSUS_MAX_VERTICES = 5
CENSUS_MAX_MULTIPLICITY = 3
_SEARCH_MAX_VERTICES = 8
_SEARCH_MAX_EDGES = 48
_GOLDEN_XATOL = 1e-12


def _pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class MergerMultigraph:
    """Labelled multigraph on cycles 0..p with aggregated edge multiplicities.

    ``multiplicities`` lists m(i, j) for i < j in row-major order:
    (0,1), (0,2), ..., (0,p), (1,2), ...; self-edges are excluded by
    construction.
    """

    n_vertices: int
    multiplicities: tuple

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError(f"need at least 1 vertex, got {self.n_vertices}")
        expected = self.n_vertices * (self.n_vertices - 1) // 2
        mults = tuple(int(m) for m in self.multiplicities)
        if len(mults) != expected:
            raise ValueError(
                f"{self.n_vertices} vertices need {expected} multiplicities, got {len(mults)}"
            )
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be nonnegative")
        if any(m != float(orig) for m, orig in zip(mults, self.multiplicities)):
            raise ValueError("multiplicities must be integers")
        object.__setattr__(self, "multiplicities", mults)

    @classmethod
    def from_edges(cls, n_vertices: int, edges: dict) -> "MergerMultigraph":
        """Build from a {(i, j): multiplicity} mapping; absent pairs are 0."""
        pairs = _pair_list(n_vertices)
        index = {p: k for k, p in enumerate(pairs)}
        mults = [0] * len(pairs)
        for (i, j), m in edges.items():
            if i == j:
                raise ValueError(f"self-edge ({i}, {j}) is not allowed")
            key = (i, j) if i < j else (j, i)
            if key not in index:
                raise ValueError(f"pair {key} is out of range for {n_vertices} vertices")
            mults[index[key]] = m
        return cls(n_vertices, tuple(mults))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return _pair_list(self.n_vertices)

    @property
    def degrees(self) -> tuple:
        deg = [0] * self.n_vertices
        for (i, j), m in zip(self.pairs, self.multiplicities):
            deg[i] += m
            deg[j] += m
        return tuple(deg)

    @property
    def total_edges(self) -> int:
        return sum(self.multiplicities)


def is_merger_graph(G: MergerMultigraph) -> int:
    """1 if the edge multiset decomposes into edge-disjoint circles
    (every degree even), else 0; isolated vertices are permitted."""
    return int(all(d % 2 == 0 for d in G.degrees))


def _edge_components(G: MergerMultigraph) -> tuple[int, int]:
    # (number of non-isolated vertices, number of edge-containing components)
    adj = [set() for _ in range(G.n_vertices)]
    for (i, j), m in zip(G.pairs, G.multiplicities):
        if m > 0:
            adj[i].add(j)
            adj[j].add(i)
    seen = [False] * G.n_vertices
    n_nonisolated = sum(1 for v in range(G.n_vertices) if adj[v])
    n_components = 0
    for v in range(G.n_vertices):
        if seen[v] or not adj[v]:
            continue
        n_components += 1
        stack = [v]
        seen[v] = True
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
    return n_nonisolated, n_components


def k_index(G: MergerMultigraph) -> int:
    """K = sum over edge-containing components of (vertex count - 1)."""
    if not is_merger_graph(G):
        raise ValueError("K is undefined: the graph is not a merger of circles")
    n_nonisolated, n_components = _edge_components(G)
    return n_nonisolated - n_components


def _neighbour_table(pairs, n: int) -> list:
    # per vertex v, (w, index of the pair {v, w}) for every w != v, ascending w
    index = {p: k for k, p in enumerate(pairs)}
    return [[(w, index[(min(v, w), max(v, w))]) for w in range(n) if w != v] for v in range(n)]


def _decomposable(state: tuple, pairs, neighbours, memo: dict) -> bool:
    # exhaustive circle-peeling; deliberately no parity shortcut, so this
    # is an independent oracle for the even-degree criterion
    if not any(state):
        return True
    cached = memo.get(state)
    if cached is not None:
        return cached
    first = next(k for k, m in enumerate(state) if m > 0)
    i, j = pairs[first]
    avail = list(state)
    avail[first] -= 1
    found = False

    def extend(cur: int, visited: frozenset) -> bool:
        # try to close a simple circle back at i, then peel and recurse
        for w, k in neighbours[cur]:
            if avail[k] == 0:
                continue
            if w == i:
                avail[k] -= 1
                if _decomposable(tuple(avail), pairs, neighbours, memo):
                    return True
                avail[k] += 1
            elif w not in visited:
                avail[k] -= 1
                if extend(w, visited | {w}):
                    return True
                avail[k] += 1
        return False

    found = extend(j, frozenset((i, j)))
    memo[state] = found
    return found


def decomposes_into_circles(G: MergerMultigraph, memo: dict | None = None) -> bool:
    """Search for an explicit decomposition into edge-disjoint circles."""
    if G.n_vertices > _SEARCH_MAX_VERTICES or G.total_edges > _SEARCH_MAX_EDGES:
        raise ValueError(
            f"decomposition search is capped at {_SEARCH_MAX_VERTICES} vertices "
            f"and {_SEARCH_MAX_EDGES} edges"
        )
    pairs = G.pairs
    if memo is None:
        memo = {}
    return _decomposable(G.multiplicities, pairs, _neighbour_table(pairs, G.n_vertices), memo)


@dataclass(frozen=True)
class CouplingParams:
    """Parameters of the coupling rate analysis.

    ``c`` is the cycle-density fraction (cN cycles), ``a`` the uncoupled
    fraction (None leaves it free for the optimizer; 0 is the
    full-coupling limit), ``rho_v`` the dimensionless interaction weight
    rho * v, ``eps`` the combinatorial damping, and ``c1`` the
    fluctuation-penalty constant.
    """

    c: float
    rho_v: float
    lam: float
    rho: float
    d: int = 3
    a: float | None = None
    eps: float = 0.25
    c1: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"cycle fraction c must lie in (0, 1), got {self.c}")
        if self.a is not None and not 0.0 <= self.a <= self.c:
            raise ValueError(f"uncoupled fraction a must lie in [0, c], got {self.a}")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"damping eps must lie in (0, 1], got {self.eps}")
        if not 0.0 < self.rho_v < math.inf:
            raise ValueError(f"rho_v must be positive and finite, got {self.rho_v}")
        if not 0.0 < self.c1 < math.inf:
            raise ValueError(f"penalty constant c1 must be positive and finite, got {self.c1}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"thermal wavelength must be positive and finite, got {self.lam}")
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"density must be positive and finite, got {self.rho}")
        _require_dimension(self.d)
        if not self.penalty_scale < math.inf:
            raise ValueError("penalty scale c1 lam^2 rho^(2/d) overflows")

    @property
    def penalty_scale(self) -> float:
        """c1 lambda^2 rho^{2/d}, the per-particle fluctuation cost of coupling."""
        try:
            return self.c1 * self.lam**2 * self.rho ** (2.0 / self.d)
        except OverflowError:
            return math.inf

    def _require_a(self) -> float:
        if self.a is None:
            raise ValueError("this operation needs a fixed uncoupled fraction a")
        return self.a


def coupling_gain_rate(params: CouplingParams) -> float:
    """Per-particle log gain from coupling (c - a)N cycles:
    g(a) = ((c-a)/2) ln(eps rho_v / (e (c-a))) + c ln c - a ln a,
    continuous at a = c (no coupling, g = 0) and at a = 0."""
    a = params._require_a()
    c = params.c
    w = c - a
    if w == 0.0:
        return 0.0
    ratio = params.eps * params.rho_v / (math.e * w)
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:  # the quotient over- or underflows, its logarithm does not
        log_ratio = math.log(params.eps) + math.log(params.rho_v) - 1.0 - math.log(w)
    gain = 0.5 * w * log_ratio
    a_log_a = 0.0 if a == 0.0 else a * math.log(a)
    return gain + c * math.log(c) - a_log_a


def fluctuation_penalty(params: CouplingParams) -> float:
    """Per-particle log cost of the density fluctuations the coupled
    cycles drag along: -c1 lambda^2 rho^{2/d} (c - a)."""
    a = params._require_a()
    return -params.penalty_scale * (params.c - a)


def _full_rate(params: CouplingParams, a: float) -> float:
    at_a = replace(params, a=a)
    return coupling_gain_rate(at_a) + fluctuation_penalty(at_a)


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > _GOLDEN_XATOL:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    x = 0.5 * (lo + hi)
    return x, fn(x)


@dataclass(frozen=True)
class CouplingOptimum:
    """Closed-form and numeric maximizers of the coupling rate."""

    a_star: float  # closed form, c^c/a^a term neglected
    C: float  # (c - a_star)/2, the exponential gain factor per particle
    clamped: bool  # closed form pushed a below 0 and was clamped
    a_numeric: float  # argmax of the full rate g(a) + penalty
    rate_numeric: float  # the full rate at a_numeric
    rate_at_a_star: float  # the full rate at the closed form


def optimize_coupling(params: CouplingParams) -> CouplingOptimum:
    """Closed-form maximizer c - a* = eps rho_v e^{-2(c1 lambda^2 rho^{2/d} + 1)}
    of the rate without its c^c/a^a term, clamped into [0, c] if needed,
    together with a golden-section maximum of the full rate over [0, c]."""
    c = params.c
    w_star = params.eps * params.rho_v * math.exp(-2.0 * (params.penalty_scale + 1.0))
    clamped = w_star >= c
    if clamped:
        w_star = c
    a_star = c - w_star
    # coarse scan guards against the c ln c - a ln a term moving the maximum
    grid = np.linspace(0.0, c, 65)
    vals = [_full_rate(params, float(a)) for a in grid]
    best = int(np.argmax(vals))
    lo = float(grid[max(0, best - 1)])
    hi = float(grid[min(len(grid) - 1, best + 1)])
    a_numeric, rate_numeric = _golden_max(lambda a: _full_rate(params, a), lo, hi)
    return CouplingOptimum(
        a_star=a_star,
        C=0.5 * w_star,
        clamped=clamped,
        a_numeric=a_numeric,
        rate_numeric=rate_numeric,
        rate_at_a_star=_full_rate(params, a_star),
    )


def _as_count(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > 1e-9 * max(1.0, abs(x)) or n < 0:
        raise ValueError(f"{what} = {x} must be a nonnegative integer")
    return int(n)


def finite_size_gain_rate(N: int, params: CouplingParams) -> float:
    """(1/N) log of the finite-N coupling factor
    (eps rho_v / N)^K (cN)! / ((aN)! K! 2^K), K = (c - a)N/2,
    whose Stirling asymptotics is coupling_gain_rate; log n! is taken as
    lgamma(n + 1)."""
    a = params._require_a()
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    cN = _as_count(params.c * N, "c N")
    aN = _as_count(a * N, "a N")
    K = _as_count(0.5 * (params.c - a) * N, "(c - a) N / 2")
    log_fac = math.lgamma(cN + 1) - math.lgamma(aN + 1) - math.lgamma(K + 1)
    return (K * math.log(params.eps * params.rho_v / N) + log_fac - K * math.log(2.0)) / N


class SweepRow(NamedTuple):
    a: float
    gain: float
    penalty: float
    total: float


def coupling_sweep(params: CouplingParams, num: int = 101) -> list[SweepRow]:
    """The rate and its two pieces on a uniform grid of a in [0, c]."""
    if num < 2:
        raise ValueError(f"need at least 2 grid points, got {num}")
    rows = []
    for a in np.linspace(0.0, params.c, num):
        at_a = replace(params, a=float(a))
        gain = coupling_gain_rate(at_a)
        penalty = fluctuation_penalty(at_a)
        rows.append(SweepRow(float(a), gain, penalty, gain + penalty))
    return rows


@dataclass(frozen=True)
class CouplingCensus:
    """Summary of an exhaustive enumeration of multigraphs, with the
    census arrays it was read from.  Row r of vecs, delta and k_vals is
    one multigraph, in itertools.product order over the pairs (the last
    pair varies fastest).  K is undefined where delta is False, and
    k_vals there holds the support's rank, so readers must mask it.
    MergerMultigraph, is_merger_graph and k_index remain the
    graph-by-graph oracle for these rows."""

    n_vertices: int
    max_multiplicity: int
    total: int
    admissible: int  # graphs with Delta = 1
    k_histogram: dict  # K -> count over admissible graphs
    cross_checked: bool
    vecs: np.ndarray = field(compare=False, repr=False)
    delta: np.ndarray = field(compare=False, repr=False)
    k_vals: np.ndarray = field(compare=False, repr=False)


def _census_arrays(n_vertices: int, max_multiplicity: int):
    # all multiplicity vectors as a (count, n_pairs) uint8 array, in
    # itertools.product order: the last pair's digit varies fastest
    pairs = _pair_list(n_vertices)
    n_pairs = len(pairs)
    base = max_multiplicity + 1
    count = base**n_pairs
    vecs = np.empty((count, n_pairs), dtype=np.uint8)
    for k in range(n_pairs):
        # column k runs through 0..base-1, each digit repeated base^(n_pairs-1-k)
        # times, and that run is tiled base^k times
        vecs.reshape(base**k, base, -1, n_pairs)[..., k] = np.arange(base, dtype=np.uint8)[:, None]
    # a vertex's degree is even when the XOR of its pairs' multiplicities is
    odd = np.zeros(count, dtype=np.uint8)
    for v in range(n_vertices):
        parity = np.zeros(count, dtype=np.uint8)
        for k, pair in enumerate(pairs):
            if v in pair:
                parity ^= vecs[:, k]
        odd |= parity
    delta = (odd & 1) == 0
    # signed incidence: +1 at i and -1 at j for pair (i, j)
    inc = np.zeros((n_pairs, n_vertices), dtype=np.int16)
    for k, (i, j) in enumerate(pairs):
        inc[k, i] = 1
        inc[k, j] = -1
    # K depends only on the support pattern: K = n - (number of components)
    # is the rank of the support's signed incidence matrix, a rule that
    # shares no code with the graph search of the k_index oracle
    masks = np.zeros(count, dtype=np.uint16)
    for k in range(n_pairs):
        masks |= np.uint16(1 << k) * (vecs[:, k] > 0)
    support = (np.arange(1 << n_pairs)[:, None] >> np.arange(n_pairs)) & 1
    k_by_mask = np.linalg.matrix_rank(support[:, :, None] * inc).astype(np.int16)
    return pairs, vecs, delta, k_by_mask[masks]


def _check_size_cap(n_vertices: int, max_multiplicity: int) -> None:
    if not 1 <= n_vertices <= CENSUS_MAX_VERTICES:
        raise ValueError(f"census is capped at {CENSUS_MAX_VERTICES} vertices, got {n_vertices}")
    if not 1 <= max_multiplicity <= CENSUS_MAX_MULTIPLICITY:
        raise ValueError(
            f"census multiplicities are capped at {CENSUS_MAX_MULTIPLICITY}, got {max_multiplicity}"
        )


def _canonical_representative_mask(vecs: np.ndarray, n_vertices: int, base: int) -> np.ndarray:
    # a graph is its orbit's representative if its packed code is minimal
    # over all vertex relabelings; Delta, K and decomposability are
    # relabeling-invariant, so checking representatives checks everything.
    # The census caps give codes below 4^10 < 2^31, so int32 sums are exact
    pairs = _pair_list(n_vertices)
    pair_index = {p: k for k, p in enumerate(pairs)}
    powers = [base**k for k in range(len(pairs))]
    digits = np.ascontiguousarray(vecs.T, dtype=np.int32)  # one row per pair
    term = np.empty(len(vecs), dtype=np.int32)

    def relabeled_code(perm) -> np.ndarray:
        # pair (i, j) moves to (perm[i], perm[j]), so its digit takes that pair's power
        code = np.zeros(len(vecs), dtype=np.int32)
        for k, (i, j) in enumerate(pairs):
            code += np.multiply(digits[k], powers[pair_index[tuple(sorted((perm[i], perm[j])))]], out=term)
        return code

    own = relabeled_code(range(n_vertices))
    mincode = own.copy()
    for perm in itertools.permutations(range(n_vertices)):
        np.minimum(mincode, relabeled_code(perm), out=mincode)
    return own == mincode


def enumerate_merger_graphs(
    n_vertices: int, max_multiplicity: int = 3, cross_check: bool = False
) -> CouplingCensus:
    """Exhaustive (Delta, K) census over all multigraphs with the given
    vertex count and multiplicity cap.

    With ``cross_check`` the even-degree criterion is validated against
    the explicit circle-decomposition search, and the component-count K
    against k_index, on one representative per relabeling orbit.
    """
    _check_size_cap(n_vertices, max_multiplicity)
    pairs, vecs, delta, k_vals = _census_arrays(n_vertices, max_multiplicity)
    admissible = int(delta.sum())
    hist_vals = np.bincount(k_vals[delta]) if admissible else np.zeros(1, dtype=np.int64)
    k_histogram = {k: int(cnt) for k, cnt in enumerate(hist_vals) if cnt > 0}
    if cross_check:
        reps = _canonical_representative_mask(vecs, n_vertices, max_multiplicity + 1)
        memo: dict = {}
        neighbours = _neighbour_table(pairs, n_vertices)
        for idx in np.flatnonzero(reps):
            state = tuple(int(m) for m in vecs[idx])
            found = _decomposable(state, pairs, neighbours, memo)
            if found != bool(delta[idx]):
                raise AssertionError(
                    f"even-degree criterion disagrees with decomposition search on {state}"
                )
            if delta[idx]:
                G = MergerMultigraph(n_vertices, state)
                if k_index(G) != int(k_vals[idx]):
                    raise AssertionError(f"component-count K disagrees with k_index on {state}")
    return CouplingCensus(
        n_vertices=n_vertices,
        max_multiplicity=max_multiplicity,
        total=len(vecs),
        admissible=admissible,
        k_histogram=k_histogram,
        cross_checked=cross_check,
        vecs=vecs,
        delta=delta,
        k_vals=k_vals,
    )


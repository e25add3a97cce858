"""Canonical-ensemble cycle statistics for decoupled cycle weights.

The canonical partition function with cycle weights w_n obeys

    Q_M = (1/M) sum_{n=1}^{M} w_n Q_{M-n},   Q_0 = 1,

and the density of particles in n-cycles is rho_n = rho w_n Q_{N-n} /
(N Q_N).  Q_N itself spans e^{10^4} and more, so the table keeps log Q_M
and, next to it, the O(1) steps D_M = log Q_M - log Q_{M-1}.  Ratios
such as log Q_{N-n} - log Q_N are reversed cumsums of D, so no two large
logs are subtracted and sum_n rho_n = rho holds to 1e-12 up to the cap.

The recursion is O(N^2), capped at N <= 10^5.  Rows 1..16 run the exact
log-space loop; the rows after them come in blocks that each span as
many rows as precede them up to 256 (16, 32, 64, 128, 256), and past
row 512 as many as keep the drift of log Q from the block's tilt near
30 over the block, judged by the curvature of D over the block before:
256 to 4096 rows, in steps of 64.  Each block is tilted by the local
slope of log Q (the scaling identity w_n -> c^n w_n makes the tilt
exact) and takes its terms from all earlier rows in one cross term: a
correlation, or in long blocks matrix products over tiles of 64 lags.
It solves its own rows a leaf at a time, 16 rows in blocks of up to 256
rows and 64 in longer ones, each leaf with a precomputed nonnegative
inverse of its triangular Toeplitz system, merged up from the diagonal.
The cap takes about a third of a second.

Exact cycle types are drawn by chop-down inversion of the same law:
each step walks n = 1, 2, ... over the terms w_n Q_{M-n}/Q_M, so a draw
costs O(N) in all.  The table keeps one list copy of its weights and
steps for the walk, built at its first draw and never grown by later
ones.  The uniforms come in blocks, and the Generator is rewound to the
count used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .special_fn import (
    _degeneracy,
    _require_dimension,
    _require_length,
    log_q_weights,
    thermal_wavelength,
)

__all__ = [
    "N_MAX",
    "WEIGHT_TAGS",
    "SystemParams",
    "WeightSequence",
    "LogPartitionTable",
    "CycleSpectrum",
    "CycleType",
    "MacroAggregate",
    "build_partition_table",
    "cycle_density_spectrum",
    "sample_cycle_type",
    "brute_force_partition_fn",
    "verify_auxiliary_identity",
    "aggregate_macroscopic",
]

N_MAX = 100_000  # O(N^2) recursion cost cap

# Tilted blocks keep every factor and every result within e^{+-150} and flush
# factors below e^{-350} to zero: products of kept factors are normal floats,
# and a flushed term is below e^{-200}, far under the resolution of a sum
# that is at least e^{-150}.
_TILT_LOG_MAX = 150.0
_FLUSH_LOG = 350.0
# Rows per tilted block: the head doubles up to _BLOCK_MIN; past it a block
# is sized so that log r drifts by about _TILT_LOG_MAX/5 over it, in steps
# of _LEAF rows and at most _BLOCK_MAX (which bounds the temporaries and
# the R^2/2 terms coupling a block's own rows).
_BLOCK_MIN = 256
_BLOCK_MAX = 4096
# Rows solved together: _SUB in blocks of up to _BLOCK_MIN rows, _LEAF in
# longer ones; either leaf's inverse is merged up from its diagonal.  On a
# 2-core box 64-row leaves were slower on blocks of 64 and 128 rows; on
# 256-row blocks they were faster in a long-running process but, with the
# page faults of their larger temporaries, 5-8 % slower at N = 2048 in a
# fresh one.
_SUB = 16
_LEAF = 64
# for each leaf size, the entries of a leaf's system below the diagonal
# (lag a - c > 0) and the weight index a - c - 1 of each (0 elsewhere, where
# it is masked)
_LOWER = {
    n: (lag > 0, np.maximum(lag - 1, 0))
    for n in (_SUB, _LEAF)
    for lag in [np.subtract.outer(np.arange(n), np.arange(n))]
}
# Cross terms: matrix products over lag tiles of _TAU once there are at
# least _PRODUCT_LAGS lags and _PRODUCT_ROWS rows, np.correlate below; each
# product's copied Hankel factor holds about _TILE_FLOATS floats (1 MB).  On
# a 2-core box, timed against np.correlate in turn, the products took 0.4x
# its time at 1024 rows and k = 4096, 0.5x at 256 rows and k = 16384 and
# 0.44x at 2816 rows and k = 4042, but 1.0x at 2048 rows and k = 2048, 2.3x
# at 4096 rows and k = 1024, and 1.2x or more with 64 rows.
_PRODUCT_LAGS = 3072
_PRODUCT_ROWS = 256
_TAU = 64
_ROW_TILE = 1024
_TILE_FLOATS = 1 << 17

WEIGHT_TAGS = ("ideal", "dcp-lower", "dcp-upper", "custom")

_BRUTE_FORCE_N_MAX = 10


@dataclass(frozen=True)
class SystemParams:
    """Torus system: d dimensions, side L, N particles, inverse temperature beta."""

    d: int
    L: float
    N: int
    beta: float

    def __post_init__(self):
        _require_dimension(self.d)
        if self.N < 1:
            raise ValueError(f"particle count must be >= 1, got {self.N}")
        _require_length("box side", "L", self.L, 2, self.d)
        if not self.beta > 0.0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")
        _require_length("thermal wavelength", "lambda", self.lam, 2, self.d)
        _degeneracy(self.rho, self.lam**self.d)

    @property
    def lam(self) -> float:
        return thermal_wavelength(self.beta)

    @property
    def rho(self) -> float:
        return self.N / self.L**self.d

    @property
    def rho_lam_d(self) -> float:
        """Degeneracy parameter rho * lambda^d."""
        return self.rho * self.lam**self.d

    @classmethod
    def from_density(cls, d: int, N: int, rho: float, beta: float) -> "SystemParams":
        _require_dimension(d)
        if not rho > 0.0:
            raise ValueError(f"density must be positive, got {rho}")
        return cls(d=d, L=(N / rho) ** (1.0 / d), N=N, beta=beta)

    @classmethod
    def from_degeneracy(cls, d: int, N: int, rho_lam_d: float, beta: float) -> "SystemParams":
        """Fix rho * lambda^d instead of rho."""
        lam = thermal_wavelength(beta)
        return cls.from_density(d, N, rho_lam_d / lam**d, beta)


@dataclass(frozen=True)
class WeightSequence:
    """Positive cycle weights w_1..w_n stored as logarithms.

    ``rate`` is the exponential growth rate b = lim n^{-1} ln w_n when it
    is known (0 for the ideal weights, ln c for a dcp bound edge with
    per-particle multiplier c); None means unknown.
    """

    log_w: np.ndarray
    tag: str = "custom"
    rate: float | None = None

    def __post_init__(self):
        log_w = np.asarray(self.log_w, dtype=float)
        object.__setattr__(self, "log_w", log_w)
        if log_w.ndim != 1 or log_w.size < 1:
            raise ValueError("weights must form a nonempty 1-d array")
        if not np.all(np.isfinite(log_w)):
            raise ValueError("all weights must be positive with finite logarithms")
        if self.tag not in WEIGHT_TAGS:
            raise ValueError(f"tag must be one of {WEIGHT_TAGS}, got {self.tag!r}")

    def __len__(self) -> int:
        return self.log_w.size

    @classmethod
    def ideal(cls, params: SystemParams) -> "WeightSequence":
        """Torus weights q_n = Theta(n lambda^2/L^2)^d for n = 1..N."""
        return cls(log_q_weights(params), tag="ideal", rate=0.0)

    @classmethod
    def from_weights(cls, w, tag: str = "custom", rate: float | None = None) -> "WeightSequence":
        w = np.asarray(w, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("all weights must be positive")
        return cls(np.log(w), tag=tag, rate=rate)

    def rescaled(self, log_multiplier, tag: str = "custom", rate: float | None = None) -> "WeightSequence":
        """New sequence with log w_n shifted by a per-n log multiplier."""
        shift = np.asarray(log_multiplier, dtype=float)
        if shift.shape not in ((), self.log_w.shape):
            raise ValueError("log multiplier must be scalar or match the weight length")
        return WeightSequence(self.log_w + shift, tag=tag, rate=rate)


@dataclass
class CycleSpectrum:
    """Densities rho_n of particles in n-cycles, n = 1..N; sum_n rho_n = rho."""

    rho_n: np.ndarray
    rho: float
    params: SystemParams

    @property
    def fractions(self) -> np.ndarray:
        """rho_n / rho, the probability that a tagged particle sits in an n-cycle."""
        return self.rho_n / self.rho


@dataclass
class LogPartitionTable:
    """log Q_M for M = 0..N, with the weights and params that produced it.

    ``D`` holds the steps D_M = log Q_M - log Q_{M-1} for M = 1..N (so
    D[M-1] is D_M).  They stay O(1) where log Q itself reaches 10^4 and
    beyond; when not given they are taken as np.diff(logQ).

    The sampler reads list copies of log w_1..w_N and D, made at the first
    draw and kept, so the arrays must not be modified after a draw.
    """

    logQ: np.ndarray
    weights: WeightSequence
    params: SystemParams
    D: np.ndarray | None = None

    def __post_init__(self):
        if self.D is None:
            self.D = np.diff(self.logQ)

    @property
    def N(self) -> int:
        return self.logQ.size - 1

    @cached_property
    def _walk_lists(self) -> tuple[list[float], list[float]]:
        """log w_1..w_N and D as lists for the sampler's walk.

        Built at the first draw, about 64 N bytes, and the same for every
        later draw and every M: unlike a per-M cumulative cache, it does
        not grow with the draws."""
        return self.weights.log_w[: self.N].tolist(), self.D.tolist()

    def log_ratios(self, M: int | None = None) -> np.ndarray:
        """log Q_{M-n} - log Q_M for n = 1..M (M defaults to N), as a
        reversed cumsum of the steps D, so that no two large logs are
        subtracted."""
        if M is None:
            M = self.N
        if not 1 <= M <= self.N:
            raise ValueError(f"M must lie in 1..{self.N}, got {M}")
        return -_compensated_cumsum(self.D[M - 1 :: -1])

    def cycle_probabilities(self, M: int | None = None) -> np.ndarray:
        """P(n) = w_n Q_{M-n} / (M Q_M) for n = 1..M, renormalized to kill
        the last-digit rounding so the array is an exact distribution."""
        if M is None:
            M = self.N
        logp = self.weights.log_w[:M] + self.log_ratios(M)
        p = np.exp(logp - logp.max())
        return p / p.sum()


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """np.cumsum(x) with the rounding error of every partial sum added back.

    A plain cumsum of N terms of one sign drifts by up to N/2 ulps of the
    running total; here each step's exact error comes from Knuth's TwoSum
    and the errors are summed on their own."""
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    added = s - prev
    err = (prev - (s - added)) + (x - added)
    return s + np.cumsum(err)


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths of one sampled permutation, in draw order.

    The first part is the length of the cycle containing the tagged
    particle; the multiset is the cycle type proper.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if self.parts and min(self.parts) < 1:
            raise ValueError("cycle lengths must be >= 1")

    @property
    def N(self) -> int:
        return sum(self.parts)

    def counts(self) -> Counter:
        return Counter(self.parts)


class MacroAggregate(NamedTuple):
    macro: float  # density in cycles n >= eps*N
    band: float  # density in the band eps*N^{2/d} <= n <= N/ln N


def _logsumexp(terms: np.ndarray) -> np.floating:
    """log sum exp(terms), as a scalar of the input's dtype."""
    m = terms.max()
    return m + np.log(np.exp(terms - m).sum())


def _exact_rows(log_w: np.ndarray, logQ: np.ndarray, D: np.ndarray, M0: int, M1: int) -> None:
    """Fill logQ[M0:M1] and D[M0-1:M1-1] by the log-space recursion, one row at a time."""
    for M in range(M0, M1):
        terms = log_w[:M] + logQ[M - 1 :: -1]
        logQ[M] = _logsumexp(terms) - math.log(M)
    D[M0 - 1 : M1 - 1] = np.diff(logQ[M0 - 1 : M1])


def _flushed_exp(log_x: np.ndarray) -> np.ndarray:
    # factors below e^{-_FLUSH_LOG} become exact zeros: subnormal floats would
    # slow every product they enter, and their terms are below resolution
    x = np.exp(log_x)
    x[log_x < -_FLUSH_LOG] = 0.0
    return x


def _last_kept(log_x: np.ndarray) -> int:
    """Index of the last factor that _flushed_exp keeps, 0 if it keeps none."""
    kept = log_x[::-1] >= -_FLUSH_LOG
    i = int(kept.argmax())
    return log_x.size - 1 - i if kept[i] else 0


def _cross(wt: np.ndarray, r_rev: np.ndarray, rows: int) -> np.ndarray:
    """cross[i] = sum_q wt[i + q] r_rev[q] for i < rows and q < k = r_rev.size,
    that is np.correlate(wt[: rows - 1 + k], r_rev, "valid"), taken as
    matrix products (_cross_product) where both k and rows are long."""
    k = r_rev.size
    if k < _PRODUCT_LAGS or rows < _PRODUCT_ROWS:
        return np.correlate(wt[: rows - 1 + k], r_rev, "valid")
    return _cross_product(wt, r_rev, rows)


def _cross_product(wt: np.ndarray, r_rev: np.ndarray, rows: int) -> np.ndarray:
    """_cross from matrix products: the lags come in tiles of _TAU, and with
    R[Q, t] = r_rev[_TAU Q + t] and the Hankel A[Q, u] = wt[_TAU Q + u] the
    product S = R^T A sums the terms of each lag residue t, so cross[i] =
    sum_t S[t, i + t].  Output rows come _ROW_TILE at a time and the lag
    tiles in chunks, so that each copied A holds about _TILE_FLOATS floats.
    """
    k = r_rev.size
    tiles = -(-k // _TAU)
    R = np.zeros(tiles * _TAU)
    R[:k] = r_rev
    R = R.reshape(tiles, _TAU)
    w = np.zeros(rows - 1 + tiles * _TAU)  # wt, zero past the lags it is paired with
    w[: rows - 1 + k] = wt[: rows - 1 + k]
    cross = np.empty(rows)
    for i0 in range(0, rows, _ROW_TILE):
        i1 = min(i0 + _ROW_TILE, rows)
        width = i1 - i0 + _TAU - 1
        chunk = max(1, _TILE_FLOATS // width)
        S = None
        for q0 in range(0, tiles, chunk):
            q1 = min(q0 + chunk, tiles)
            start = i0 + _TAU * q0
            # the copy makes the Hankel factor one that matmul hands to BLAS
            hankel = sliding_window_view(w[start : start + _TAU * (q1 - q0 - 1) + width], width)[::_TAU]
            A = np.ascontiguousarray(hankel)
            if S is None:
                S = R[q0:q1].T @ A
            else:
                S += R[q0:q1].T @ A
        # the diagonals of S, summed pairwise in place, so that the sums keep
        # np.correlate's accuracy
        diagonals = as_strided(S, shape=(_TAU, i1 - i0), strides=(S.strides[0] + S.itemsize, S.itemsize))
        half = _TAU // 2
        while half:
            np.add(diagonals[:half], diagonals[half : 2 * half], out=diagonals[:half])
            half //= 2
        cross[i0:i1] = diagonals[0]
    return cross


def _leaf_inverses(T: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(diag(m[s]) - T)^{-1} for each leaf s, T lower triangular, Toeplitz and >= 0.

    The inverse is merged up from its diagonal 1/m: for s = 1, 2, 4, ...
    each diagonal block of 2s rows holds the inverses A^{-1}, B^{-1} of
    its two halves and gets B^{-1} C A^{-1} below them, where C = T[s:2s,
    :s] is the same block for every pair because T is Toeplitz.  Every
    factor is >= 0, so nothing cancels.
    """
    leaves, leaf = m.shape
    inv = np.zeros((leaves, leaf, leaf))
    np.divide(1.0, m, out=np.einsum("aii->ai", inv))
    s = 1
    while s < leaf:
        # the diagonal blocks of 2s rows, as a view that each merge writes into
        pairs = leaf // (2 * s)
        blocks = np.einsum("apbpc->apbc", inv.reshape(leaves, pairs, 2 * s, pairs, 2 * s))
        np.matmul(blocks[:, :, s:, s:] @ T[s : 2 * s, :s], blocks[:, :, :s, :s], out=blocks[:, :, s:, :s])
        s *= 2
    return inv


def _tilted_rows(log_w: np.ndarray, D: np.ndarray, M0: int, M1: int) -> np.ndarray | None:
    """D_M for M = M0..M1-1 from the recursion tilted by b = D_{M0-1}.

    With w~_n = w_n e^{-bn} and r_j = Q_j e^{-b(j-M0+1)} / Q_{M0-1} the
    recursion keeps its form, M r_M = sum_n w~_n r_{M-n}, and both factors
    stay near 1 where log Q bends slowly.  log r_j for j < M0 is a
    reversed cumsum of D - b.  The terms from before the block come from
    one cross term (_cross); the block's own rows are solved a leaf of
    _SUB rows at a time, or of _LEAF rows in blocks longer than _BLOCK_MIN.
    Returns None when a factor or a result would pass e^{+-_TILT_LOG_MAX}.
    """
    b = D[M0 - 2]
    log_wt = log_w[: M1 - 1] - b * np.arange(1, M1)
    log_r_rev = np.zeros(M0)  # log r_j, j = M0-1 down to 0
    np.cumsum(b - D[M0 - 2 :: -1], out=log_r_rev[1:])
    # past its last kept index each array is below -_FLUSH_LOG, so the
    # range checks read no further
    last_w = _last_kept(log_wt)
    last_r = _last_kept(log_r_rev)
    if log_wt[: last_w + 1].max() > _TILT_LOG_MAX or log_r_rev[: last_r + 1].max() > _TILT_LOG_MAX:
        return None
    # the terms with M - n < M0; zero tails of either factor add nothing
    rows = M1 - M0
    leaf = _SUB if rows <= _BLOCK_MIN else _LEAF
    k = 1 + min(last_r, last_w)
    wt = np.zeros(max(rows - 1 + k, leaf - 1))
    kept = min(last_w + 1, wt.size)  # past last_w every factor is flushed, and exp is slow there
    wt[:kept] = _flushed_exp(log_wt[:kept])
    cross = _cross(wt, _flushed_exp(log_r_rev[:k]), rows)
    # Each leaf's rows i0..i0+leaf-1 solve (diag(m) - T) r = rhs with m = M0 + i
    # and T[a, c] = w~_{a-c} below the diagonal.
    below, index = _LOWER[leaf]
    T = np.where(below, wt[index], 0.0)
    leaves = -(-rows // leaf)
    m = np.arange(M0, M0 + leaves * leaf, dtype=float).reshape(leaves, leaf)
    inv = _leaf_inverses(T, m)
    r = np.empty(rows)
    for s, i0 in enumerate(range(0, rows, leaf)):
        i1 = min(i0 + leaf, rows)
        L = i1 - i0
        rhs = cross[i0:i1]
        if i0:  # the terms from earlier rows of this block
            rhs = rhs + np.correlate(wt[: i1 - 1], r[i0 - 1 :: -1], "valid")
        # one pass of the row formula keeps the w == 1 fixed point bit-exact
        r[i0:i1] = (rhs + T[:L, :L] @ (inv[s, :L, :L] @ rhs)) / m[s, :L]
    log_r = np.log(r)
    if not abs(log_r).max() <= _TILT_LOG_MAX:
        return None
    if leaf == _LEAF:
        # log r drifts to about +-30 over a long block, where a float keeps
        # fewer digits of it than near 0.  So log r is split into a multiple
        # of 1/64, whose differences are exact, and the log of the rest, near
        # 0: each step keeps the digits of a log near 0, and sums of steps
        # still telescope to differences of log r.
        coarse = np.round(log_r * 64.0) / 64.0
        fine = np.log(r * np.exp(-coarse))
        return b + (np.diff(coarse, prepend=0.0) + np.diff(fine, prepend=0.0))
    # a short block's log r stays near 0, where plain differences lose nothing
    return b + np.diff(log_r, prepend=0.0)


def _block_rows(D: np.ndarray, M0: int, previous: int) -> int:
    """Rows of the tilted block starting at row M0, after a block of ``previous`` rows.

    Up to _BLOCK_MIN a block spans as many rows as precede it.  Past it,
    log r drifts over R rows by about R^2 |D'| / 2, with the slope |D'| of D
    read over the previous block, so R is the length at which that drift
    reaches _TILT_LOG_MAX / 5, rounded down to whole _LEAF leaves and kept
    within _BLOCK_MIN..min(M0 - 1, _BLOCK_MAX).  Rows up to a quarter of R
    left over at the end of the table join the block (the drift grows by at
    most 56 %), which saves a block's fixed cost.
    """
    if M0 <= _BLOCK_MIN + 1:
        return M0 - 1
    slope = abs(float(D[M0 - 2] - D[M0 - 2 - previous])) / previous
    drift = 2.0 * _TILT_LOG_MAX / 5.0
    rows = min(M0 - 1, _BLOCK_MAX)
    if slope * rows**2 > drift:
        rows = int(math.sqrt(drift / slope))
    rows = max(rows // _LEAF * _LEAF, _BLOCK_MIN)
    rest = D.size + 1 - (M0 + rows)
    return rows + rest if 0 < rest <= rows // 4 else rows


def _sum_steps(logQ: np.ndarray, D: np.ndarray, start: int, stop: int) -> None:
    """Fill logQ[start+1 : stop+1] from logQ[start] by a compensated running
    sum of the steps: plain sums add their roundings up over long blocks."""
    if stop > start:
        logQ[start + 1 : stop + 1] = logQ[start] + _compensated_cumsum(D[start:stop])


def build_partition_table(params: SystemParams, weights: WeightSequence) -> LogPartitionTable:
    """Run the cycle-weight recursion up to N.

    The first _SUB = 16 rows run the exact log-space loop, so a table with
    N <= 16 is that loop's output bit for bit.  The later rows come in
    tilted blocks (_block_rows): 16, 32, 64, 128 and 256 rows, then blocks
    sized from the curvature of D, from 256 to 4096 rows in steps of 64.
    Each block is tilted by the local slope of log Q and solved in linear
    space: one cross term for the terms that reach back before the block
    (a correlation, or matrix products over lag tiles once it is long),
    then triangular solves of 16 rows (blocks of up to 256 rows) or 64
    rows (longer blocks) inside it.  It yields the O(1) steps D_M, and log
    Q past row 16 is their compensated running sum.  A block whose tilted
    logs leave the float range runs the exact loop instead.

    The w == 1 fixed point gives logQ[M] = 0 bit-exactly on both paths.
    """
    N = params.N
    if N > N_MAX:
        raise ValueError(f"N = {N} exceeds the O(N^2) recursion cap {N_MAX}")
    if len(weights) < N:
        raise ValueError(f"weight sequence covers 1..{len(weights)}, need 1..{N}")
    log_w = weights.log_w
    logQ = np.zeros(N + 1)
    D = np.empty(N)
    _exact_rows(log_w, logQ, D, 1, min(N, _SUB) + 1)
    done = min(N, _SUB)  # log Q is filled in up to this row
    M0 = _SUB + 1
    rows = _SUB
    while M0 <= N:
        rows = _block_rows(D, M0, rows)
        M1 = min(M0 + rows, N + 1)
        steps = _tilted_rows(log_w, D, M0, M1)
        if steps is None:
            _sum_steps(logQ, D, done, M0 - 1)  # the exact loop reads every earlier row
            _exact_rows(log_w, logQ, D, M0, M1)
            done = M1 - 1
        else:
            D[M0 - 1 : M1 - 1] = steps
        M0 = M1
    _sum_steps(logQ, D, done, N)
    return LogPartitionTable(logQ, weights, params, D)


def cycle_density_spectrum(table: LogPartitionTable) -> CycleSpectrum:
    """rho_n = rho w_n Q_{N-n} / (N Q_N); sums to rho by the recursion."""
    params = table.params
    N = params.N
    logp = table.weights.log_w[:N] + table.log_ratios() - math.log(N)
    return CycleSpectrum(rho_n=params.rho * np.exp(logp), rho=params.rho, params=params)


def sample_cycle_type(table: LogPartitionTable, seed) -> CycleType:
    """Draw one exact cycle type: the tagged particle's cycle length n has
    probability w_n Q_{M-n}/(M Q_M), the n particles are removed, and the
    draw recurses on M - n.  ``seed`` is a 64-bit integer or an existing
    numpy Generator (for repeated sampling without re-seeding).

    Each step takes the next uniform u and walks n = 1, 2, ... adding up
    w_n Q_{M-n}/Q_M (its log a running sum of the steps D) until the sum
    passes u M; the terms add up to M, and a sum that rounding leaves
    short at n = M returns M.  A step that returns n sums n terms and the
    lengths add up to N, so a draw costs O(N) whatever the table.  The
    table keeps one list copy of its weights and steps for the walk,
    built at its first draw and never grown.

    The uniforms are drawn in growing blocks.  At the end the Generator's
    saved state is restored and advanced by exactly the count used, so it
    ends where one scalar ``rng.random()`` per step would leave it, for
    any bit generator, and the seeded draws are those of that walk.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return next(_cycle_types(table, rng))


def _cycle_types(table: LogPartitionTable, rng: np.random.Generator) -> Iterator[CycleType]:
    # the draws of repeated sample_cycle_type(table, rng) calls, one per
    # next(), walking the list copies of log w and D the table keeps
    log_w, D = table._walk_lists
    exp = math.exp
    while True:
        state = rng.bit_generator.state
        uniforms = []
        used = 0
        parts = []
        M = table.N
        while M > 0:
            if used == len(uniforms):
                uniforms += rng.random(max(64, used)).tolist()
            target = uniforms[used] * M
            used += 1
            # the first term ends most steps, so it is taken before the
            # loop; j = M - n counts down, and each partial sum is the one
            # a walk from total = log_ratio = 0.0 would form
            j = M - 1
            log_ratio = -D[j]  # log Q_{M-n} - log Q_M
            total = exp(log_w[0] + log_ratio)
            n = 1
            if not total > target:  # not `<=`: a NaN sum walks on to M
                while n < M:
                    j -= 1
                    log_ratio -= D[j]
                    total += exp(log_w[n] + log_ratio)
                    n += 1
                    if total > target:
                        break
            parts.append(n)
            M -= n
        # rewind: the Generator ends where `used` scalar rng.random() calls leave it
        rng.bit_generator.state = state
        rng.random(used)
        yield CycleType(tuple(parts))


def _partition_multiplicities(N: int, nmax: int | None = None) -> Iterator[dict]:
    # multiplicity dicts {n: m_n} over integer partitions of N
    if nmax is None:
        nmax = N
    if N == 0:
        yield {}
        return
    for n in range(min(N, nmax), 0, -1):
        for m in range(N // n, 0, -1):
            for rest in _partition_multiplicities(N - m * n, n - 1):
                yield {n: m, **rest}


def brute_force_partition_fn(weights: WeightSequence, N: int) -> float:
    """Permutation-sum oracle: sum over integer partitions {m_n} of N of
    prod_n w_n^{m_n} / (m_n! n^{m_n}).  Exponential cost; refuses N > 10."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > _BRUTE_FORCE_N_MAX:
        raise ValueError(f"brute force enumeration is capped at N = {_BRUTE_FORCE_N_MAX}, got {N}")
    if len(weights) < N:
        raise ValueError(f"weight sequence covers 1..{len(weights)}, need 1..{N}")
    w = np.exp(weights.log_w)
    total = 0.0
    for mult in _partition_multiplicities(N):
        term = 1.0
        for n, m in mult.items():
            term *= w[n - 1] ** m / (math.factorial(m) * n**m)
        total += term
    return float(total)


def verify_auxiliary_identity(
    params: SystemParams,
    base_weights: WeightSequence | None = None,
    C: float = 0.0,
    D: float = 0.0,
) -> float:
    """Max relative deviation of the auxiliary recursion from its closed form.

    The recursion with weights w_n e^{-C[n(M-n) + n(n-1)/2] - D n} (M the
    running total) telescopes exactly to e^{-C M(M-1)/2 - D M} Q0_M, Q0
    being the recursion over the base weights w_n alone.  The identity is
    algebraic and holds for any base weights, so the returned deviation is
    pure floating-point noise; extended precision keeps it certifiable at
    1e-10 even when the exponents reach ~1e5.  ``base_weights`` defaults
    to the ideal q_n of ``params``.
    """
    if not (math.isfinite(C) and math.isfinite(D)):
        raise ValueError("C and D must be finite")
    N = params.N
    if base_weights is None:
        logq = log_q_weights(params).astype(np.longdouble)
    else:
        if len(base_weights) < N:
            raise ValueError(f"weight sequence covers 1..{len(base_weights)}, need 1..{N}")
        logq = base_weights.log_w[:N].astype(np.longdouble)
    n = np.arange(1, N + 1, dtype=np.longdouble)
    C = np.longdouble(C)
    D = np.longdouble(D)

    logQ0 = np.zeros(N + 1, dtype=np.longdouble)
    logQm = np.zeros(N + 1, dtype=np.longdouble)
    for M in range(1, N + 1):
        nn = n[:M]
        logQ0[M] = _logsumexp(logq[:M] + logQ0[M - 1 :: -1]) - np.log(np.longdouble(M))
        pair_exponent = C * (nn * (M - nn) + nn * (nn - 1) / 2) + D * nn
        logQm[M] = _logsumexp(logq[:M] - pair_exponent + logQm[M - 1 :: -1]) - np.log(np.longdouble(M))
    M = np.arange(N + 1, dtype=np.longdouble)
    log_ref = -C * M * (M - 1) / 2 - D * M + logQ0
    return float(np.abs(np.expm1(logQm - log_ref)).max())


def _require_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def aggregate_macroscopic(spectrum: CycleSpectrum, eps: float) -> MacroAggregate:
    """Density in macroscopic cycles (n >= eps N) and in the sub-macroscopic
    band eps N^{2/d} <= n <= N/ln N.  eps = 1 keeps exactly rho_N."""
    _require_eps(eps)
    N = spectrum.params.N
    d = spectrum.params.d
    # half-ulp slack so eps*N landing on an integer includes that n
    lo_macro = max(1, math.ceil(eps * N * (1.0 - 1e-12)))
    macro = float(spectrum.rho_n[lo_macro - 1 :].sum())
    lo_band = max(1, math.ceil(eps * N ** (2.0 / d) * (1.0 - 1e-12)))
    hi_band = N if N == 1 else min(N, math.floor(N / math.log(N) * (1.0 + 1e-12)))
    band = float(spectrum.rho_n[lo_band - 1 : hi_band].sum()) if lo_band <= hi_band else 0.0
    return MacroAggregate(macro=macro, band=band)

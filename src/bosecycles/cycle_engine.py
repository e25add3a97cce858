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
many rows as precede them, up to 256 (16, 32, 64, 128, then 256 from
row 257 on).  Each block is tilted by the local slope of log Q (the
scaling identity w_n -> c^n w_n makes the tilt exact), takes its terms
from all earlier rows in one correlation, and solves its own rows 16 at
a time, each 16 with a precomputed nonnegative inverse of their
triangular system.  The cap takes well under a second.

Exact cycle types are drawn by chop-down inversion of the same law:
each step walks n = 1, 2, ... over the terms w_n Q_{M-n}/Q_M, so a draw
costs O(N) in all and leaves no state on the table.  Its uniforms come
in blocks, and the Generator is rewound to the count used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .special_fn import _require_dimension, _require_length, log_q_weights, thermal_wavelength

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

_BLOCK = 256  # most rows in one tilted block of the recursion
# Tilted blocks keep every factor and every result within e^{+-150} and flush
# factors below e^{-350} to zero: products of kept factors are normal floats,
# and a flushed term is below e^{-200}, far under the resolution of a sum
# that is at least e^{-150}.
_TILT_LOG_MAX = 150.0
_FLUSH_LOG = 350.0
_SUB = 16  # rows per triangular solve inside a tilted block; the inverse below assumes 16
# lags a - c of a sub-block's rows and columns, and the weight index of each
# lag below the diagonal (0 elsewhere, where it is masked)
_LAG = np.subtract.outer(np.arange(_SUB), np.arange(_SUB))
_BELOW = _LAG > 0
_LAG_INDEX = np.where(_BELOW, _LAG - 1, 0)
_EYE = np.eye(_SUB)

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
        if any(p < 1 for p in self.parts):
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


def _tilted_rows(log_w: np.ndarray, D: np.ndarray, M0: int, M1: int) -> np.ndarray | None:
    """D_M for M = M0..M1-1 from the recursion tilted by b = D_{M0-1}.

    With w~_n = w_n e^{-bn} and r_j = Q_j e^{-b(j-M0+1)} / Q_{M0-1} the
    recursion keeps its form, M r_M = sum_n w~_n r_{M-n}, and both factors
    stay near 1 where log Q bends slowly.  log r_j for j < M0 is a
    reversed cumsum of D - b.  The terms from before the block come from
    one correlation; the block's own rows are solved _SUB at a time.
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
    k = 1 + min(last_r, last_w)
    wt = _flushed_exp(log_wt[: max(rows - 1 + k, _SUB - 1)])
    r_rev = _flushed_exp(log_r_rev[:k])
    cross = np.correlate(wt[: rows - 1 + k], r_rev, "valid")
    # Rows i0..i0+_SUB-1 of the block solve (diag(m) - T) r = rhs with m = M0 + i
    # and T[a, c] = w~_{a-c} below the diagonal.  With N = T/m (rows scaled)
    # the inverse is (I + N)(I + N^2)(I + N^4)(I + N^8) diag(1/m): every
    # factor is >= 0, so nothing cancels.
    T = np.where(_BELOW, wt[_LAG_INDEX], 0.0)
    subs = -(-rows // _SUB)
    m = np.arange(M0, M0 + subs * _SUB, dtype=float).reshape(subs, _SUB)
    power = T / m[:, :, None]
    inv = _EYE + power
    for _ in range(3):  # N^2, N^4, N^8; N^16 = 0
        power = power @ power
        inv += inv @ power
    inv /= m[:, None, :]
    r = np.empty(rows)
    for s, i0 in enumerate(range(0, rows, _SUB)):
        i1 = min(i0 + _SUB, rows)
        L = i1 - i0
        rhs = cross[i0:i1]
        if i0:  # the terms from earlier rows of this block
            rhs = rhs + np.correlate(wt[: i1 - 1], r[i0 - 1 :: -1], "valid")
        # one pass of the row formula keeps the w == 1 fixed point bit-exact
        r[i0:i1] = (rhs + T[:L, :L] @ (inv[s, :L, :L] @ rhs)) / m[s, :L]
    log_r = np.log(r)
    if not abs(log_r).max() <= _TILT_LOG_MAX:
        return None
    return b + np.diff(log_r, prepend=0.0)


def build_partition_table(params: SystemParams, weights: WeightSequence) -> LogPartitionTable:
    """Run the cycle-weight recursion up to N.

    The first _SUB = 16 rows run the exact log-space loop, so a table with
    N <= 16 is that loop's output bit for bit.  Each later block starting
    at row M0 spans min(M0 - 1, _BLOCK) rows (16, 32, 64, 128, then 256
    from M0 = 257 on); it is tilted by the local slope of log Q and solved
    in linear space: one correlation for the terms that reach back before
    the block, then triangular solves of _SUB rows inside it.  It yields
    the O(1) steps D_M, and log Q is their running sum.  A block whose
    tilted logs leave the float range runs the exact loop instead.

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
    M0 = _SUB + 1
    while M0 <= N:
        M1 = min(M0 + min(M0 - 1, _BLOCK), N + 1)
        steps = _tilted_rows(log_w, D, M0, M1)
        if steps is None:
            _exact_rows(log_w, logQ, D, M0, M1)
        else:
            D[M0 - 1 : M1 - 1] = steps
            logQ[M0:M1] = logQ[M0 - 1] + np.cumsum(steps)
        M0 = M1
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
    lengths add up to N, so a draw costs O(N) whatever the table, and the
    table keeps nothing of it.

    The uniforms are drawn in growing blocks.  At the end the Generator's
    saved state is restored and advanced by exactly the count used, so it
    ends where one scalar ``rng.random()`` per step would leave it, for
    any bit generator, and the seeded draws are those of that walk.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return next(_cycle_types(table, rng))


def _cycle_types(table: LogPartitionTable, rng: np.random.Generator) -> Iterator[CycleType]:
    # the draws of repeated sample_cycle_type(table, rng) calls, one per
    # next(), with the table's arrays made lists once for all of them
    log_w = table.weights.log_w[: table.N].tolist()
    D = table.D.tolist()
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
            total = log_ratio = 0.0
            n = 0
            while n < M:
                log_ratio -= D[M - 1 - n]  # log Q_{M-n-1} - log Q_M
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


def aggregate_macroscopic(spectrum: CycleSpectrum, eps: float) -> MacroAggregate:
    """Density in macroscopic cycles (n >= eps N) and in the sub-macroscopic
    band eps N^{2/d} <= n <= N/ln N.  eps = 1 keeps exactly rho_N."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    N = spectrum.params.N
    d = spectrum.params.d
    # half-ulp slack so eps*N landing on an integer includes that n
    lo_macro = max(1, math.ceil(eps * N * (1.0 - 1e-12)))
    macro = float(spectrum.rho_n[lo_macro - 1 :].sum())
    lo_band = max(1, math.ceil(eps * N ** (2.0 / d) * (1.0 - 1e-12)))
    hi_band = N if N == 1 else min(N, math.floor(N / math.log(N) * (1.0 + 1e-12)))
    band = float(spectrum.rho_n[lo_band - 1 : hi_band].sum()) if lo_band <= hi_band else 0.0
    return MacroAggregate(macro=macro, band=band)

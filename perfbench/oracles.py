"""Correctness gates that share no code path with the timed library calls.

Each check returns a list of failure messages; an empty list is a pass.
The tolerances are the ones the library documents.
"""

from __future__ import annotations

import math

import numpy as np

NORM_TOL = 1e-12  # |sum_n rho_n / rho - 1|
LOGQ_TOL = 1e-12  # |log Q_N - reference| / max(1, |reference|)
Z_MAX = 5.0  # sampler tagged-cycle frequency against rho_macro / rho
ZETA_3_2 = 2.6123753486854883  # zeta(3/2), the d = 3 critical rho * lambda^3


def logq_reference(log_w: np.ndarray, N: int) -> np.ndarray:
    """log Q_M for M = 0..N from Q_M = (1/M) sum_n w_n Q_{M-n}, in long double."""
    lw = np.asarray(log_w[:N], dtype=np.longdouble)
    logq = np.zeros(N + 1, dtype=np.longdouble)
    for M in range(1, N + 1):
        terms = lw[:M] + logq[M - 1 :: -1]
        top = terms.max()
        logq[M] = top + np.log(np.exp(terms - top).sum()) - np.log(np.longdouble(M))
    return logq


def identity_rel_err(log_w: np.ndarray, logq: np.ndarray, M: int) -> float:
    """|log(M Q_M) - log sum_n w_n Q_{M-n}| / max(1, |log(M Q_M)|), in long double.

    Checks one step of the recursion against the table the library built;
    a recursion that loses precision anywhere below N misses it at the M
    where it does."""
    terms = np.asarray(log_w[:M], dtype=np.longdouble) + np.asarray(logq[M - 1 :: -1], dtype=np.longdouble)
    top = terms.max()
    lhs = np.longdouble(logq[M]) + np.log(np.longdouble(M))
    rhs = top + np.log(np.exp(terms - top).sum())
    return float(abs(lhs - rhs) / max(np.longdouble(1.0), abs(lhs)))


def check_identity(log_w: np.ndarray, logq: np.ndarray, Ms) -> tuple[float, list[str]]:
    errs = {int(M): identity_rel_err(log_w, logq, int(M)) for M in Ms}
    bad = {M: err for M, err in errs.items() if not err <= LOGQ_TOL}  # NaN is bad too
    fails = [f"recursion identity at M = {M} off by {err:.3e} (relative)" for M, err in list(bad.items())[:3]]
    return max(math.inf if math.isnan(err) else err for err in errs.values()), fails


def norm_residual(rho_n: np.ndarray, rho: float) -> float:
    return math.fsum(float(x) for x in rho_n) / rho - 1.0


def logq_rel_err(logq_n: float, reference: np.longdouble) -> float:
    return float(abs(np.longdouble(logq_n) - reference) / max(np.longdouble(1.0), abs(reference)))


def check_spectrum(rho_n: np.ndarray, rho: float) -> tuple[float, list[str]]:
    res = norm_residual(rho_n, rho)
    fails = []
    if not abs(res) <= NORM_TOL:
        fails.append(f"sum rho_n / rho - 1 = {res:.3e} exceeds {NORM_TOL:g}")
    if not np.all(rho_n >= 0.0):
        fails.append("negative cycle density")
    return res, fails


def check_logq(logq_n: float, reference: np.longdouble) -> tuple[float, list[str]]:
    err = logq_rel_err(logq_n, reference)
    return err, ([] if err <= LOGQ_TOL else [f"log Q_N relative error {err:.3e} exceeds {LOGQ_TOL:g}"])


def tagged_macro_z(hits: int, draws: int, p: float) -> float:
    """z-score of ``hits`` tagged cycles >= eps N in ``draws`` draws when each
    draw hits with probability p (the first part of a draw has law rho_n/rho)."""
    var = draws * p * (1.0 - p)
    if var == 0.0:
        return 0.0 if hits == draws * p else math.inf
    return (hits - draws * p) / math.sqrt(var)


def merger_total(vertices: int, max_multiplicity: int) -> int:
    """Every pair of vertices carries 0..m edges: (m+1)^(v(v-1)/2) graphs."""
    return (max_multiplicity + 1) ** (vertices * (vertices - 1) // 2)


def _theta(a: float) -> float:
    # sum over integer k of e^{-pi a k^2}, a >= 1/16 here
    k = np.arange(1, 64)
    return 1.0 + 2.0 * float(np.exp(-math.pi * a * k * k).sum())


def gaussian_sandwich(N: int, L: float, beta: float, g: float, sigma: float) -> tuple[float, float]:
    """Closed-form edges of the d = 3 decoupled partition sandwich for
    u(x) = g e^{-pi x^2 / sigma^2}: uhat(0) = g sigma^3 and the periodized
    u_L(0) = g theta(L^2/sigma^2)^3."""
    lam3 = (2.0 * math.pi * beta) ** 1.5
    lower = -math.sqrt(2.0) * ZETA_3_2 * beta * g * sigma**3 * N / lam3
    upper = 0.5 * beta * g * _theta(L * L / (sigma * sigma)) ** 3 * N
    return lower, upper


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))

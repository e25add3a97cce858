"""Property tests for the one theta kernel behind theta1d, theta1d_shifted,
q_n, log_q_weights and phase_theta_sum.

Examples are drawn deterministically (``derandomize=True``) and bounded in
number, so every run checks the same inputs.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosecycles.special_fn import log_q_weights, q_n
from bosecycles.wavefunctions import phase_theta_sum

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@DETERMINISTIC
@given(
    a=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    s=st.floats(-3.0, 3.0),
    w=st.floats(-5.0, 5.0),
)
def test_direct_and_dual_forms_agree(a, s, w):
    # Poisson duality; the sum of the moduli of the terms is at most
    # Theta(a) <= max(1, a^{-1/2}) (1 + 2 e^{-pi}), which sets the scale
    direct = phase_theta_sum(a, s, w, form="direct")
    dual = phase_theta_sum(a, s, w, form="dual")
    assert abs(direct - dual) <= 1e-13 * max(1.0, a**-0.5)


@DETERMINISTIC
@given(
    d=st.integers(1, 3),
    N=st.integers(1, 200),
    scale=st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
)
def test_log_weights_equal_log_of_scalar_weights(d, N, scale):
    p = SimpleNamespace(d=d, L=1.0, lam=math.sqrt(scale), N=N)
    logq = log_q_weights(p)
    for n in sorted({1, (N + 1) // 2, N}):
        assert logq[n - 1] == pytest.approx(math.log(q_n(p, n)), rel=1e-13, abs=1e-15)


@DETERMINISTIC
@given(d=st.integers(1, 3), N=st.integers(1, 50), lam=st.sampled_from([0.0, math.inf]))
def test_log_weights_reject_degenerate_scale(d, N, lam):
    # lam = 0 gives a = 0 and lam = inf gives a = inf for every n
    with pytest.raises(ValueError, match="exponent scale must be positive and finite"):
        log_q_weights(SimpleNamespace(d=d, L=1.0, lam=lam, N=N))

"""Property test for the CLI contract over the float flags of mu, bounds,
gain, oracle and wavefn.

Any value a float flag accepts (finite, extreme, zero, negative, nan,
+-inf) must end in exit code 0, 2 or 3, returned by ``main`` rather than
raised; an exit 2 leaves no output file, and an exit 0 leaves a JSON file
without NaN or Infinity tokens.  Examples are drawn deterministically
(``derandomize=True``) and bounded in number, so every run checks the same
inputs.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosecycles.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=150, deadline=None)

FLOATS = st.one_of(
    st.floats(-10.0, 10.0),
    # any sign and any decimal exponent, subnormals included
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-320.0, 308.0)),
    st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]),
)


def _flags(**values) -> list[str]:
    # --flag=value, so a negative value is never read as an option
    return [f"--{name.replace('_', '-')}={val!r}" for name, val in values.items()]


def _no_constants(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _check_contract(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        rc = main([*argv, "--format=json", f"--output={out}"])
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), (argv, rc)
        if rc == EXIT_USAGE:
            assert not out.exists(), argv
        if rc == EXIT_OK:
            json.loads(out.read_text(), parse_constant=_no_constants)


def _optional(*names):
    return st.fixed_dictionaries({}, optional={name: FLOATS for name in names})


def _density():
    # exactly one of rho/rho_lambda3 (the other combinations are usage
    # errors the parser checks before any float is used)
    return st.one_of(
        st.fixed_dictionaries({"rho": FLOATS}), st.fixed_dictionaries({"rho_lambda3": FLOATS})
    )


@DETERMINISTIC
@example(density={"rho": 1.0}, thermal={"lam": 1e-65})  # beta lambda^3 underflowed to 0
@example(density={"rho": float("inf")}, thermal={})  # f0 was nan
@given(density=_density(), thermal=_optional("beta", "lam"))
def test_mu(density, thermal):
    _check_contract(["mu", *_flags(**density, **thermal)])


@DETERMINISTIC
@example(g=1.0, sigma=1.0, density={"rho": 1e200}, extra={})  # rho^2 overflowed
@example(g=1.0, sigma=1e120, density={"rho": 1.0}, extra={})  # sigma^3 overflowed
@example(g=1e300, sigma=1e10, density={"rho": 1.0}, extra={})  # g sigma^3 is inf
@example(g=1.0, sigma=1.0, density={"rho": 1e10}, extra={"c_u": -1e300})  # lower bound -inf
@given(
    g=FLOATS,
    sigma=FLOATS,
    density=_density(),
    extra=_optional("beta", "lam", "c_u"),
)
def test_bounds_inline_gaussian(g, sigma, density, extra):
    _check_contract(["bounds", f"--potential=gaussian:{g!r},{sigma!r}", *_flags(**density, **extra)])


@DETERMINISTIC
@example(required={"c": 5e-324, "rho_v": 1.0, "rho": 1.0}, extra={})  # 0 * inf in the gain
@example(required={"c": 1e-9, "rho_v": 1e300, "rho": 1.0}, extra={})  # eps rho_v / (e w) is inf
@example(required={"c": 0.5, "rho_v": 1.0, "rho": 1.0}, extra={"c1": 1e300, "lam": 1e3})  # inf * 0
@given(
    required=st.fixed_dictionaries({"c": FLOATS, "rho_v": FLOATS, "rho": FLOATS}),
    extra=_optional("beta", "lam", "eps", "c1"),
)
def test_gain(required, extra):
    _check_contract(["gain", "--num=5", *_flags(**required, **extra)])


@DETERMINISTIC
@example(tol=math.nan)  # worst > nan is False: the gate passed whatever the error
@given(tol=FLOATS)
def test_oracle(tol):
    _check_contract(["oracle", "--max-n=3", "--trials=1", *_flags(tol=tol)])


@DETERMINISTIC
@given(
    L=FLOATS,
    y=st.lists(FLOATS, min_size=1, max_size=2),
    xbar=st.lists(FLOATS, max_size=2),
    thermal=_optional("beta", "lam"),
)
def test_wavefn(L, y, xbar, thermal):
    argv = ["wavefn", "--n=3", "--num=5", *_flags(L=L, **thermal), f"--y={','.join(map(repr, y))}"]
    if xbar:
        argv.append(f"--xbar={','.join(map(repr, xbar))}")
    _check_contract(argv)

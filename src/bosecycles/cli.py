"""Command-line front end: every computation as a subcommand with file outputs.

Runs are reproducible: a fixed parameter set (plus seed where sampling is
involved) produces byte-identical output files.  Every subcommand writes
its file through one emitter: a CSV output starts with a provenance block
of ``# key = value`` lines echoing the resolved parameters, defaults
included, and a JSON output holds the same fields, in the same order,
under its ``config`` entry.  The file streams into a temporary file
beside the output as its rows are computed, and only a complete file
replaces the output, so a failed run leaves no file and any earlier file
in place.  Relative output paths land under ``$BOSECYCLES_OUTDIR`` when
set.

Parameters can come from a plain-text config file (``key = value`` lines,
``#`` comments, read as potential definition files are) named with
``--config``.  Each entry is parsed as the flag
of the same name (``--key=value``, underscores as dashes), so it meets the
same type and choice checks; command-line flags win over file entries.
The system is fixed by exactly one of ``--L``, ``--rho``, ``--rho-lambda3``
together with ``--N``, and at most one of ``--beta``, ``--lam`` (neither
means lam = 1).

Exit codes: 0 success, 2 invalid usage or configuration, 3 numeric or
tolerance failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from .coupling import (
    CENSUS_MAX_MULTIPLICITY,
    CENSUS_MAX_VERTICES,
    CouplingParams,
    coupling_sweep,
    enumerate_merger_graphs,
    optimize_coupling,
)
from .cycle_engine import (
    _BRUTE_FORCE_N_MAX,
    N_MAX,
    SystemParams,
    WeightSequence,
    _cycle_types,
    aggregate_macroscopic,
    brute_force_partition_fn,
    build_partition_table,
    cycle_density_spectrum,
)
from .potentials import (
    _read_keyvalue,
    _read_two_columns,
    free_energy_bounds,
    gaussian_potential,
    load_potential,
)
from .special_fn import _require_length, thermal_wavelength
from .thermo import ScanRow, finite_size_scan, ideal_point
from .wavefunctions import CycleWaveParams, wave_profile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "BOSECYCLES_OUTDIR"

# largest --num of gain and wavefn: at the cap a cold run takes ~1-2 s and
# ~70 MB, and a larger value would allocate its grid unchecked
NUM_MAX = 100_000
# largest --draws of sample: 1000 draws take ~1.5 s at N = 4096 and ~80 s
# at N = N_MAX, where a draw has ~66000 cycles; each draw is written as it
# is drawn and none is held, so a run stays near 66 MB at any count
DRAWS_MAX = 1000
# largest --trials of oracle: ~1 ms a trial at --max-n 10, ~10 s at the cap
TRIALS_MAX = 10_000
# most entries of scan --N-list, each in 1..N_MAX: ~1.3 s a build at N_MAX
N_LIST_MAX = 32
_CENSUS_CHUNK = 4096  # merger census rows filled per byte matrix


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ----------------------------------------------------------------------
# config file handling


def _int_list(text: str) -> list[int]:
    items = [int(tok) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"empty integer list: {text!r}")
    return items


def _float_list(text: str) -> list[float]:
    items = [float(tok) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"empty float list: {text!r}")
    return items


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The config file's entries as ``--key=value`` flags of this subcommand."""
    entries = {key.replace("-", "_"): text for key, text in _read_keyvalue(args.config).items()}
    tokens = []
    for key, text in entries.items():
        if key in ("config", "func", "command") or not hasattr(args, key):
            raise ConfigError(f"unknown config key for this subcommand: {key!r}")
        tokens.append(f"--{key.replace('_', '-')}={text}")
    return tokens


# ----------------------------------------------------------------------
# shared resolution of run parameters


def _resolve_thermal(args) -> tuple[float, float]:
    """(beta, lam) from at most one of --beta/--lam; neither means lam = 1.

    lam^2, lam^3 and lam^d must be normal floats: every subcommand forms
    one of them (beta, rho lam^3, the degeneracy)."""
    if args.beta is not None and args.lam is not None:
        raise ConfigError("give exactly one of --beta and --lam, got both")
    if args.beta is not None:
        lam = thermal_wavelength(args.beta)  # rejects a beta that is not positive and finite
    else:
        lam = 1.0 if args.lam is None else args.lam
        if not lam > 0.0:
            raise ConfigError(f"lam must be positive, got {lam}")
    _require_length("thermal wavelength", "lambda", lam, 2, 3, getattr(args, "d", 3))
    beta = lam**2 / (2.0 * math.pi) if args.beta is None else args.beta
    return beta, lam


def _resolve_density(args, lam: float) -> float:
    """rho from exactly one of --rho/--rho-lambda3."""
    given = [v for v in (args.rho, args.rho_lambda3) if v is not None]
    if len(given) != 1:
        raise ConfigError("give exactly one of --rho and --rho-lambda3")
    if args.rho_lambda3 is not None:
        if args.d != 3:
            raise ConfigError("--rho-lambda3 fixes rho*lam^3, so it requires d = 3; use --rho")
        rho = args.rho_lambda3 / lam**3
    else:
        rho = args.rho
    if not 0.0 < rho < math.inf:
        raise ConfigError(f"density must be positive and finite, got {rho}")
    return rho


def _resolve_system(args) -> SystemParams:
    """N plus exactly one of --L/--rho/--rho-lambda3 fix the box.  N above
    N_MAX is refused before any weights are allocated; N < 1 is left to
    SystemParams, which names it."""
    if args.N is None:
        raise ConfigError("--N is required")
    if args.N > N_MAX:
        raise ConfigError(f"--N must lie in 1..{N_MAX}, got {args.N}")
    beta, lam = _resolve_thermal(args)
    given = [v for v in (args.L, args.rho, args.rho_lambda3) if v is not None]
    if len(given) != 1:
        raise ConfigError("give exactly one of --L, --rho, --rho-lambda3")
    if args.L is not None:
        return SystemParams(d=args.d, L=args.L, N=args.N, beta=beta)
    return SystemParams.from_density(args.d, args.N, _resolve_density(args, lam), beta)


def _resolve_num(args) -> int:
    """--num of gain and wavefn, capped at NUM_MAX before any grid exists."""
    if args.num > NUM_MAX:
        raise ConfigError(f"--num is capped at {NUM_MAX}, got {args.num}")
    return args.num


def _resolve_n_list(args) -> list[int]:
    """--N-list of scan: at most N_LIST_MAX sizes, each in 1..N_MAX,
    checked before the first table is built."""
    if args.N_list is None or not args.N_list:
        raise ConfigError("--N-list is required (comma-separated system sizes)")
    if len(args.N_list) > N_LIST_MAX:
        raise ConfigError(f"--N-list is capped at {N_LIST_MAX} sizes, got {len(args.N_list)}")
    for N in args.N_list:
        if not 1 <= N <= N_MAX:
            raise ConfigError(f"--N-list sizes must lie in 1..{N_MAX}, got {N}")
    return args.N_list


def _weights_and_system(args, params: SystemParams) -> tuple[WeightSequence, dict]:
    """The run's cycle weights (ideal, or the --weights file) and the
    system block d, N, L, rho, beta, lam of its config."""
    if args.weights is None:
        weights = WeightSequence.ideal(params)
    else:
        weights = _load_weight_file(args.weights, params.N)
    return weights, {key: getattr(params, key) for key in ("d", "N", "L", "rho", "beta", "lam")}


def _load_weight_file(path: str, N: int) -> WeightSequence:
    """Cycle weights from a two-column CSV (n, w); must cover n = 1..N."""
    table: dict[int, float] = {}
    for lineno, n, w in _read_two_columns(path):
        if not n.is_integer():
            raise ConfigError(f"{path}:{lineno}: cycle length must be an integer, got {n!r}")
        n = int(n)
        if n in table:
            raise ConfigError(f"{path}:{lineno}: duplicate weight for n = {n}")
        if not w > 0.0:
            raise ConfigError(f"{path}:{lineno}: weights must be positive, got {w}")
        table[n] = w
    missing = [n for n in range(1, N + 1) if n not in table]
    if missing:
        raise ConfigError(f"{path}: missing weights for n = {missing[:5]}... (need 1..{N})")
    return WeightSequence.from_weights(np.array([table[n] for n in range(1, N + 1)]))


def _resolve_potential(spec: str, d: int):
    """Inline 'gaussian:g,sigma' or the path of a potential definition file."""
    if spec.startswith("gaussian:"):
        params = spec[len("gaussian:") :].split(",")
        if len(params) != 2:
            raise ConfigError(f"expected gaussian:g,sigma, got {spec!r}")
        try:
            g, sigma = float(params[0]), float(params[1])
        except ValueError as exc:
            raise ConfigError(f"bad gaussian parameters in {spec!r}: {exc}") from exc
        return gaussian_potential(g, sigma, d=d)
    pot = load_potential(spec)
    if pot.d != d:
        raise ConfigError(f"potential file is for d = {pot.d}, run is configured for d = {d}")
    return pot


# ----------------------------------------------------------------------
# output plumbing


def _output_path(args, stem: str) -> Path:
    path = Path(args.output if args.output else f"{stem}.{args.format}")
    if not path.is_absolute():
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir:
            path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cell(value) -> str:
    """One rendering for provenance values and CSV cells: None as empty, a
    list as its comma-joined items, the rest as str (a float's str is its
    shortest round-trip repr)."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(map(_cell, value))
    return str(value)


def _columns(header, rows) -> dict:
    """Column-wise JSON form of row-wise data: {name: [values]}."""
    return {name: list(col) for name, col in zip(header, zip(*rows))}


class _Rendered:
    """Output text rendered ahead of ``_emit``: an iterable of ASCII
    bytes-like chunks, written into the file as they come.  It stands for
    a CSV body (the lines after the header) or for a top-level JSON
    payload value, laid out as ``json.dumps(indent=2)`` lays out a value
    at depth 1."""

    def __init__(self, chunks):
        self.chunks = chunks


def _json_segments(config: dict, payload: dict):
    """``{"config": config, **payload}`` as ``json.dumps(indent=2)`` lays it
    out, one top-level value at a time: a ``_Rendered`` value as it is, any
    other value dumped alone and indented one level."""
    sep = "{\n  "
    for key, val in {"config": config, **payload}.items():
        yield [f"{sep}{json.dumps(key)}: "]
        yield val if isinstance(val, _Rendered) else [json.dumps(val, indent=2).replace("\n", "\n  ")]
        sep = ",\n  "
    yield ["\n}\n"]


def _emit(args, config: dict, header, rows, payload: dict) -> Path:
    """Write the run's output file and return its path.

    CSV: ``config`` as ``# key = value`` lines, the header, then ``rows``
    (any iterable, consumed once, or a ``_Rendered`` body).  JSON:
    ``{"config": config, **payload}``, see ``_json_segments``.
    The text streams into a temporary file beside the output's resolved
    path, which replaces the output only once it is complete, so a run
    that fails while producing rows leaves no file behind and an earlier
    file untouched, and a symlinked output path is written through.  The
    file gets the mode a plain open would give: the umask's for a new
    file, the old one's otherwise.
    """
    if args.format == "json":
        segments = _json_segments(config, payload)
    else:
        head = [f"# {key} = {_cell(val)}\n" for key, val in config.items()] + [",".join(header) + "\n"]
        body = rows if isinstance(rows, _Rendered) else (",".join(map(_cell, row)) + "\n" for row in rows)
        segments = [head, body]
    path = _output_path(args, config["command"])
    try:
        old = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(old.st_mode):
            raise ConfigError(f"output {path} is not a regular file")
        mode = stat.S_IMODE(old.st_mode)
    real = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(real)}.", suffix=".tmp", dir=os.path.dirname(real))
    try:
        with open(fd, "w") as fp:
            os.fchmod(fd, mode)
            for segment in segments:
                if isinstance(segment, _Rendered):
                    fp.flush()  # the text so far goes ahead of the chunks
                    fp.buffer.writelines(segment.chunks)
                else:
                    fp.writelines(segment)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _census_body(census, fmt: str):
    """The merger census rows as ASCII byte chunks, in census order: the
    CSV lines, or the JSON ``rows`` list as ``json.dumps(indent=2)`` lays
    it out at depth 1.

    The census caps (5 vertices, multiplicity 3) make every cell one
    digit, so a row is a fixed byte template with one-byte digit slots,
    filled for a chunk of rows at once as a uint8 matrix.  A row with
    Delta = 0 keeps only as much of the K slot as its undefined K takes:
    nothing in CSV, ``null`` in JSON.
    """
    n_pairs = census.vecs.shape[1]
    # "\0" marks a multiplicity or Delta digit, "\1" the K slot
    if fmt == "csv":
        row = ",".join(["\0"] * (n_pairs + 1) + ["\1"]) + "\n"
        undefined, opening, cut, closing = b"", b"", 0, b""
    else:
        mults = "[\n" + ",\n".join(["        \0"] * n_pairs) + "\n      ]" if n_pairs else "[]"
        row = f'    {{\n      "multiplicities": {mults},\n      "delta": \0,\n      "K": \1\1\1\1\n    }},\n'
        undefined, opening, cut, closing = b"null", b"[\n", len(b",\n"), b"\n  ]"
    template = np.frombuffer(row.encode(), dtype=np.uint8).copy()
    digits, k_slot = np.flatnonzero(template == 0), np.flatnonzero(template == 1)
    template[k_slot[: len(undefined)]] = np.frombuffer(undefined, dtype=np.uint8)
    yield opening
    for start in range(0, census.total, _CENSUS_CHUNK):
        part = slice(start, start + _CENSUS_CHUNK)
        defined = census.delta[part]
        mat = np.empty((len(defined), len(template)), dtype=np.uint8)
        mat[:] = template
        mat[:, digits[:-1]] = census.vecs[part] + ord("0")
        mat[:, digits[-1]] = defined + ord("0")
        mat[defined, k_slot[0]] = census.k_vals[part][defined] + ord("0")
        keep = np.ones(mat.shape, dtype=bool)
        keep[:, k_slot[0]] = defined | bool(undefined)
        keep[:, k_slot[1:]] = ~defined[:, None]
        body = mat[keep]
        yield body if part.stop < census.total else body[: len(body) - cut]  # no "," after the last row
    yield closing


def _json_draws(draws):
    """The cycle types as ASCII chunks, one a draw: the JSON list of lists
    as ``json.dumps(indent=2)`` lays it out at depth 1."""
    sep = b"[\n    [\n      "
    for parts in draws:
        yield sep + ",\n      ".join(map(str, parts)).encode() + b"\n    ]"
        sep = b",\n    [\n      "
    yield b"\n  ]"


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    params = _resolve_system(args)
    weights, system = _weights_and_system(args, params)
    table = build_partition_table(params, weights)
    spectrum = cycle_density_spectrum(table)
    agg = aggregate_macroscopic(spectrum, args.eps)
    config = {
        "command": "spectrum",
        **system,
        "eps": args.eps,
        "weights": args.weights if args.weights else "ideal",
    }
    header = ("n", "rho_n", "rho_n_over_rho")
    rows = list(zip(range(1, params.N + 1), spectrum.rho_n.tolist(), spectrum.fractions.tolist()))
    payload = {
        "N": params.N,
        "rho": spectrum.rho,
        **_columns(header, rows),
        "macro_fraction": agg.macro / params.rho,
        "band_fraction": agg.band / params.rho,
    }
    path = _emit(args, config, header, rows, payload)
    print(f"N = {params.N}  d = {params.d}  rho_lam_d = {params.rho_lam_d!r}")
    print(f"macro_fraction = {agg.macro / params.rho!r}")
    print(f"band_fraction = {agg.band / params.rho!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    N_list = _resolve_n_list(args)
    beta, lam = _resolve_thermal(args)
    rho = _resolve_density(args, lam)
    rows = finite_size_scan(rho, beta, args.d, N_list, args.eps)
    config = {
        "command": "scan",
        "d": args.d,
        "N_list": N_list,
        "rho": rho,
        "beta": beta,
        "lam": lam,
        "eps": args.eps,
    }
    path = _emit(args, config, ScanRow._fields, rows, _columns(ScanRow._fields, rows))
    for row in rows:
        print(
            f"N = {row.N}  macro_fraction = {row.macro_fraction!r}  "
            f"band_fraction = {row.band_fraction!r}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mu(args) -> int:
    beta, lam = _resolve_thermal(args)
    rho = _resolve_density(args, lam)
    point = ideal_point(rho, beta, args.d)
    config = {"command": "mu", "d": args.d, "rho": rho, "beta": beta, "lam": lam}
    fields = {
        "mu": point.mu,
        "f0": point.f0,
        "condensate_fraction": point.condensate_fraction,
        "critical_density": point.critical_density,
        "rho_lam_d": point.rho_lam_d,
    }
    path = _emit(args, config, fields, [fields.values()], fields)
    for key, val in fields.items():
        print(f"{key} = {val!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.potential is None:
        raise ConfigError("--potential is required (gaussian:g,sigma or a definition file)")
    beta, lam = _resolve_thermal(args)
    rho = _resolve_density(args, lam)
    pot = _resolve_potential(args.potential, args.d)
    fb = free_energy_bounds(rho, beta, pot, c_u=args.c_u)
    config = {
        "command": "bounds",
        "d": args.d,
        "rho": rho,
        "beta": beta,
        "lam": lam,
        "potential": args.potential,
        "c_u": "default" if args.c_u is None else args.c_u,
    }
    fields = {
        "f_lower": fb.f.lower,
        "f_upper": fb.f.upper,
        "f_tilde_lower": fb.f_tilde.lower,
        "f_tilde_upper": fb.f_tilde.upper,
    }
    path = _emit(args, config, fields, [fields.values()], fields)
    print(f"f: {fb.f.lower!r} <= {fb.f.upper!r}")
    print(f"f_tilde: {fb.f_tilde.lower!r} <= {fb.f_tilde.upper!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sample(args) -> int:
    params = _resolve_system(args)
    if args.draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {args.draws}")
    if args.draws > DRAWS_MAX:
        raise ConfigError(f"--draws is capped at {DRAWS_MAX}, got {args.draws}")
    weights, system = _weights_and_system(args, params)
    table = build_partition_table(params, weights)
    cycle_types = _cycle_types(table, np.random.default_rng(args.seed))
    longest = 0

    def draws():
        # one draw at a time, as the file is written; longest is a running sum
        nonlocal longest
        for _ in range(args.draws):
            parts = next(cycle_types).parts
            longest += max(parts)
            yield parts

    config = {
        "command": "sample",
        **system,
        "seed": args.seed,
        "draws": args.draws,
        "weights": args.weights if args.weights else "ideal",
    }
    stream = draws()  # only the chosen format's rows consume it
    rows = ((i, len(parts), " ".join(map(str, parts))) for i, parts in enumerate(stream, start=1))
    payload = {"draws_lengths": _Rendered(_json_draws(stream))}
    path = _emit(args, config, ("draw", "n_cycles", "lengths"), rows, payload)
    print(f"draws = {args.draws}  N = {params.N}")
    print(f"longest_cycle_mean_fraction = {longest / (args.draws * params.N)!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_merger(args) -> int:
    vertices, max_mult = args.vertices, args.max_multiplicity
    census = enumerate_merger_graphs(vertices, max_mult, cross_check=args.cross_check)
    config = {
        "command": "merger",
        "vertices": vertices,
        "max_multiplicity": max_mult,
        "cross_check": args.cross_check,
    }
    header = [f"m{i}{j}" for i, j in itertools.combinations(range(vertices), 2)] + ["delta", "K"]
    payload = {
        "total": census.total,
        "admissible": census.admissible,
        "k_histogram": {str(k): census.k_histogram[k] for k in sorted(census.k_histogram)},
    }
    # full row dump only at sizes where the JSON stays manageable
    if args.format == "json" and census.total <= 65536:
        payload["rows"] = _Rendered(_census_body(census, "json"))
    path = _emit(args, config, header, _Rendered(_census_body(census, "csv")), payload)
    hist = "  ".join(f"K={k}:{census.k_histogram[k]}" for k in sorted(census.k_histogram))
    print(f"graphs = {census.total}  admissible = {census.admissible}")
    print(hist)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_gain(args) -> int:
    for name in ("c", "rho_v", "rho"):
        if getattr(args, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")
    _, lam = _resolve_thermal(args)
    num = _resolve_num(args)
    params = CouplingParams(
        c=args.c, rho_v=args.rho_v, lam=lam, rho=args.rho, d=args.d, eps=args.eps, c1=args.c1
    )
    opt = optimize_coupling(params)
    rows = coupling_sweep(params, num)
    config = {
        "command": "gain",
        "c": params.c,
        "rho_v": params.rho_v,
        "lam": params.lam,
        "rho": params.rho,
        "d": params.d,
        "eps": params.eps,
        "c1": params.c1,
        "num": num,
    }
    header = ("a", "gain", "penalty", "total")
    payload = {
        "a_star": opt.a_star,
        "C": opt.C,
        "clamped": opt.clamped,
        "rate_at_a_star": opt.rate_at_a_star,
        "a_numeric": opt.a_numeric,
        "rate_numeric": opt.rate_numeric,
        "sweep": _columns(header, rows),
    }
    path = _emit(args, config, header, rows, payload)
    print(f"a_star = {opt.a_star!r}  C = {opt.C!r}  clamped = {opt.clamped}")
    print(f"rate_at_a_star = {opt.rate_at_a_star!r}")
    print(f"numeric argmax: a = {opt.a_numeric!r}  rate = {opt.rate_numeric!r}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if not 1 <= args.max_n <= _BRUTE_FORCE_N_MAX:
        raise ConfigError(f"--max-n must lie in 1..{_BRUTE_FORCE_N_MAX}, got {args.max_n}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > TRIALS_MAX:
        raise ConfigError(f"--trials is capped at {TRIALS_MAX}, got {args.trials}")
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for trial in range(1, args.trials + 1):
        weights = WeightSequence.from_weights(rng.lognormal(0.0, 1.0, size=args.max_n))
        # every row lies in the exact first block, so row N is what a table of N rows gives
        table = build_partition_table(SystemParams(d=3, L=1.0, N=args.max_n, beta=1.0), weights)
        for N in range(1, args.max_n + 1):
            exact = brute_force_partition_fn(weights, N)
            rel = abs(math.exp(table.logQ[N]) - exact) / exact
            rows.append((trial, N, rel))
            worst = max(worst, rel)
    config = {
        "command": "oracle",
        "max_n": args.max_n,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
    }
    header = ("trial", "N", "rel_err")
    payload = {"worst_rel_err": worst, "rows": [dict(zip(header, row)) for row in rows]}
    path = _emit(args, config, header, rows, payload)
    print(f"worst_rel_err = {worst!r}  (tol {args.tol!r})")
    print(f"wrote {path}")
    if worst > args.tol:
        print(
            f"numeric failure: recursion deviates from enumeration by {worst!r} > {args.tol!r}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_wavefn(args) -> int:
    for name in ("n", "L", "y"):
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required")
    _, lam = _resolve_thermal(args)
    num = _resolve_num(args)
    params = CycleWaveParams(n=args.n, L=args.L, lam=lam, y=tuple(args.y), xbar=tuple(args.xbar))
    rows = wave_profile(params, axis=args.axis, num=num)
    config = {
        "command": "wavefn",
        "n": params.n,
        "L": params.L,
        "lam": params.lam,
        "y": list(params.y),
        "xbar": list(params.xbar),
        "axis": args.axis,
        "num": num,
    }
    header = ("x", "re_psi", "im_psi", "abs2")
    path = _emit(args, config, header, rows, _columns(header, rows))
    print(f"wrote {path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags given here win")
    p.add_argument("--output", "-o", help="output file (default <command>.<format>)")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )


def _add_thermal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, help="inverse temperature (exactly one of beta/lam)")
    p.add_argument("--lam", type=float, help="thermal wavelength (default 1 if beta absent)")


def _add_density(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=3, help="dimension (default 3)")
    p.add_argument("--rho", type=float, help="number density")
    p.add_argument("--rho-lambda3", dest="rho_lambda3", type=float, help="rho*lam^3 (d = 3)")
    _add_thermal(p)


def _add_system(p: argparse.ArgumentParser) -> None:
    _add_density(p)
    p.add_argument("--N", type=int, help=f"particle number (1..{N_MAX})")
    p.add_argument("--L", type=float, help="box side (exactly one of L/rho/rho-lambda3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosecycles",
        description="Permutation-cycle statistics and free-energy bounds for Bose gases on a torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="cycle-density spectrum rho_n for one system")
    _add_system(p)
    p.add_argument(
        "--eps", type=float, default=0.01, help="macroscopic-cycle threshold eps*N (default 0.01)"
    )
    p.add_argument("--weights", help="CSV of custom cycle weights (n,w), used verbatim")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scan", help="macro/band fractions over a ladder of N at fixed density")
    _add_density(p)
    p.add_argument(
        "--N-list",
        dest="N_list",
        type=_int_list,
        help=f"comma-separated sizes (at most {N_LIST_MAX}, each 1..{N_MAX})",
    )
    p.add_argument("--eps", type=float, default=0.01, help="macroscopic-cycle threshold (default 0.01)")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("mu", help="ideal-gas chemical potential and condensate fraction")
    _add_density(p)
    _add_common(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("bounds", help="free-energy sandwich for an interacting gas")
    _add_density(p)
    p.add_argument("--potential", help="gaussian:g,sigma or a potential definition file")
    p.add_argument("--c-u", dest="c_u", type=float, help="override the superstability constant")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sample", help="exact cycle-type draws from the canonical distribution")
    _add_system(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--draws", type=int, default=1, help=f"number of cycle types to draw (default 1, max {DRAWS_MAX})"
    )
    p.add_argument("--weights", help="CSV of custom cycle weights (n,w), used verbatim")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("merger", help="census of admissible merger multigraphs")
    p.add_argument(
        "--vertices",
        type=int,
        default=3,
        help=f"number of cycles/vertices (default 3, max {CENSUS_MAX_VERTICES})",
    )
    p.add_argument(
        "--max-multiplicity",
        dest="max_multiplicity",
        type=int,
        default=3,
        help=f"largest edge multiplicity (default 3, max {CENSUS_MAX_MULTIPLICITY})",
    )
    p.add_argument(
        "--cross-check",
        dest="cross_check",
        type=_bool,
        nargs="?",
        const=True,
        default=False,
        metavar="BOOL",
        help="verify every orbit against the circle-decomposition search",
    )
    _add_common(p)
    p.set_defaults(func=cmd_merger)

    p = sub.add_parser("gain", help="cycle-coupling gain rate: sweep and optimizer")
    p.add_argument("--c", type=float, help="coupled fraction of particles")
    p.add_argument("--rho-v", dest="rho_v", type=float, help="weight scale rho*v")
    p.add_argument("--rho", type=float, help="number density")
    p.add_argument("--d", type=int, default=3, help="dimension (default 3)")
    _add_thermal(p)
    p.add_argument("--eps", type=float, default=0.25, help="surviving-weight fraction (default 0.25)")
    p.add_argument("--c1", type=float, default=1.0, help="fluctuation-penalty constant (default 1)")
    p.add_argument("--num", type=int, default=101, help=f"sweep grid size (default 101, max {NUM_MAX})")
    _add_common(p)
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("oracle", help="recursion vs brute-force enumeration (CI gate)")
    p.add_argument(
        "--max-n",
        dest="max_n",
        type=int,
        default=8,
        help=f"largest N enumerated (default 8, max {_BRUTE_FORCE_N_MAX})",
    )
    p.add_argument(
        "--trials", type=int, default=5, help=f"random weight sequences (default 5, max {TRIALS_MAX})"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-10, help="relative tolerance (default 1e-10)")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("wavefn", help="cycle wave-function profile along one axis")
    p.add_argument("--n", type=int, help="cycle length")
    p.add_argument("--L", type=float, help="box side")
    _add_thermal(p)
    p.add_argument("--y", type=_float_list, help="cycle center, comma-separated coordinates")
    p.add_argument(
        "--xbar", type=_float_list, default=(), help="momentum shift vector (default zero)"
    )
    p.add_argument("--axis", type=int, default=0, help="profile axis (default 0)")
    p.add_argument(
        "--num", type=int, default=257, help=f"samples along the axis (default 257, max {NUM_MAX})"
    )
    _add_common(p)
    p.set_defaults(func=cmd_wavefn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config entries go ahead of the command-line flags, so the flags win
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ConfigError and module-level validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # quadrature, truncation, tolerance escapes
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())

"""The benchmark's three workloads.

Each workload hands the runner rounds of operations.  A round has a fixed
composition (how many ops of each kind and size); the seed draws every
argument and the order inside the round.  Runs therefore differ in their
inputs but not in their mix, so medians and tail percentiles compare
across seeds.  ``run`` is the timed part of an op; ``check`` gates its
output with the oracles in ``oracles.py`` and is never timed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from oracles import ZETA_3_2

EPS = 0.01  # macroscopic-cycle threshold, the CLI default
BETA = 1.0
CLI_TIMEOUT_S = 120.0
# A box for this N below the transition has |log Q_N| > 2^13, where the
# program's sum rho_n / rho misses its documented 1e-12 (a known defect)
BREACH_N = 16000
BREACH_SOLVES = 64  # particle numbers the breach probe checks in one box
IDENTITY_CHECKS = 16  # seeded M per solve at which the recursion identity is checked
REFERENCES = 1  # ideal solves per recursion round also gated by the long-double recursion
SAMPLING_RHO_LAM3 = 2.0 * ZETA_3_2  # condensed phase
CLI_SCAN_LADDER = (512, 1024, 2048, 4096)
CLI_SAMPLE_N = (1024, 2048)
CLI_SAMPLE_DRAWS = 20
CLI_ORACLE_MAX_N = 10


@dataclass
class Op:
    kind: str
    args: dict
    cls: str  # size class, for the failure count per class
    reference: bool = False  # also gate log Q_N against the long-double recursion


@dataclass
class Accuracy:
    """Worst accuracy figures seen by the gates of one run."""

    norm_residual_max: float = 0.0
    logq_rel_err_max: float = 0.0
    logq_checked: int = 0
    identity_rel_err_max: float = 0.0
    tagged_hits: int = 0
    tagged_expected: float = 0.0
    tagged_var: float = 0.0

    def spectrum(self, rho_n, rho) -> list[str]:
        res, fails = oracles.check_spectrum(rho_n, rho)
        self.norm_residual_max = max(self.norm_residual_max, abs(res))
        return fails

    def logq(self, log_w, N: int, logq_n: float) -> list[str]:
        reference = oracles.logq_reference(log_w, N)[N]
        err, fails = oracles.check_logq(logq_n, reference)
        self.logq_rel_err_max = max(self.logq_rel_err_max, err)
        self.logq_checked += 1
        return fails

    def identity(self, log_w, logq, Ms) -> list[str]:
        err, fails = oracles.check_identity(log_w, logq, Ms)
        self.identity_rel_err_max = max(self.identity_rel_err_max, err)
        return fails

    @property
    def sampler_z(self) -> float:
        if self.tagged_var == 0.0:
            return 0.0
        return (self.tagged_hits - self.tagged_expected) / math.sqrt(self.tagged_var)


def _rho_lam3(rng, side: str) -> float:
    """rho lambda^3 below or above the d = 3 transition at zeta(3/2)."""
    lo, hi = (0.5, 0.95) if side == "below" else (1.05, 3.0)
    return float(rng.uniform(lo, hi)) * ZETA_3_2


def _jitter(rng, N: int) -> int:
    return max(2, int(round(N * rng.uniform(0.98, 1.02))))


def _identity_ms(rng, N: int) -> list[int]:
    """N and IDENTITY_CHECKS seeded M in 1..N."""
    return sorted({N, *map(int, rng.integers(1, N + 1, IDENTITY_CHECKS))})


def _array_mb(obj) -> float:
    """MB of numpy arrays reachable from ``obj``: what a table still holds
    after its draws.  Per-op RSS growth reads ~0 here because the heap
    reuses what earlier ops freed, so it cannot show a growing cache."""
    seen, stack, total = set(), [obj], 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, str, bytes, int, float)):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes if item.base is None else 0
        else:
            stack.extend(gc.get_referents(item))
    return total / 2**20


class InProcess:
    """Workloads whose ops call the library inside this process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# recursion


BOTH_SIDES = ("below", "above")


@dataclass
class RecursionSizes:
    # (N, ops per round, sides of the transition) for the canonical solve.
    # p50 falls about 6/7 of the way up the 2048 class and p90 3/4 of the
    # way up the 8192 class: a quantile in mid-class jumps when the
    # machine's speed flips between two modes for part of a run, one near
    # the top of a class does not.  The top rung stays above the
    # transition, where |log Q_N| < 2^13 (see BREACH_N)
    ladder: tuple = ((512, 2, BOTH_SIDES), (1024, 4, BOTH_SIDES), (2048, 8, BOTH_SIDES),
                     (4096, 2, BOTH_SIDES), (8192, 8, BOTH_SIDES), (16000, 1, ("above",)))
    custom: tuple = (1024, 2)  # lognormal weights
    sandwich: tuple = (2048, 1)  # dcp_partition_sandwich(verify=True)
    scan: tuple = ((256, 512, 1024, 2048), 2)  # finite_size_scan ladders
    reference_max_n: int = 1024  # largest N the long-double reference runs at


class RecursionWorkload(InProcess):
    name = "recursion"

    def __init__(self, bc, sizes: RecursionSizes | None = None):
        self.bc = bc
        self.sizes = sizes or RecursionSizes()

    def round(self, rng) -> list[Op]:
        s = self.sizes
        ops = []
        for N, count, sides in s.ladder:
            for _ in range(count):
                side = sides[int(rng.integers(len(sides)))]
                N_op = _jitter(rng, N)
                ops.append(Op("solve", {"N": N_op, "rho_lam3": _rho_lam3(rng, side),
                                        "identity_m": _identity_ms(rng, N_op)}, f"solve-{N}-{side}"))
        small = [i for i, op in enumerate(ops) if op.args["N"] <= s.reference_max_n]
        for i in rng.choice(small, size=min(REFERENCES, len(small)), replace=False):
            ops[i].reference = True
        N, count = s.custom
        for _ in range(count):
            N_op = _jitter(rng, N)
            ops.append(Op("custom", {"N": N_op, "log_w": rng.normal(0.0, 1.0, N_op),
                                     "identity_m": _identity_ms(rng, N_op)}, f"custom-{N}", reference=True))
        N, count = s.sandwich
        for _ in range(count):
            side = "below" if rng.random() < 0.5 else "above"
            ops.append(Op("sandwich", {"N": _jitter(rng, N), "rho_lam3": _rho_lam3(rng, side),
                                       "g": float(rng.uniform(0.2, 1.0)),
                                       "sigma": float(rng.uniform(0.4, 1.0))}, f"sandwich-{N}"))
        ladder, count = s.scan
        for _ in range(count):
            side = "below" if rng.random() < 0.5 else "above"
            ops.append(Op("scan", {"N_list": list(ladder), "rho_lam3": _rho_lam3(rng, side)}, "scan"))
        rng.shuffle(ops)
        return ops

    def breach_residual(self, rng) -> float:
        """Largest |sum rho_n / rho - 1| over BREACH_SOLVES particle numbers
        M in 0.9 N..N, in one box sized for N ~ BREACH_N below the
        transition.  The first M + 1 rows of the box's table are the
        canonical solve for M particles in it, so each spectrum comes from
        the library.  Untimed and not gated: no workload op runs there,
        because every one must pass; a fix of the breach shows here."""
        bc = self.bc
        params = bc.SystemParams.from_degeneracy(3, _jitter(rng, BREACH_N), _rho_lam3(rng, "below"), BETA)
        table = bc.build_partition_table(params, bc.WeightSequence.ideal(params))
        worst = 0.0
        for M in map(int, rng.integers(int(0.9 * params.N), params.N, BREACH_SOLVES, endpoint=True)):
            sub = bc.SystemParams(d=3, L=params.L, N=M, beta=BETA)
            spectrum = bc.cycle_density_spectrum(bc.LogPartitionTable(table.logQ[: M + 1], table.weights, sub))
            worst = max(worst, abs(oracles.norm_residual(spectrum.rho_n, spectrum.rho)))
        return worst

    def run(self, op: Op, tr):
        bc = self.bc
        a = op.args
        if op.kind in ("solve", "custom"):
            N = a["N"]
            if op.kind == "solve":
                params = bc.SystemParams.from_degeneracy(3, N, a["rho_lam3"], BETA)
                with tr.span("special_fn.log_q_weights"):
                    log_w = bc.log_q_weights(params)
                weights = bc.WeightSequence(log_w, tag="ideal", rate=0.0)
            else:
                params = bc.SystemParams(d=3, L=1.0, N=N, beta=BETA)
                weights = bc.WeightSequence(a["log_w"], tag="custom")
            with tr.span("cycle_engine.build_partition_table"):
                table = bc.build_partition_table(params, weights)
            tr.count("terms", N * (N + 1) // 2)
            with tr.span("cycle_engine.cycle_density_spectrum"):
                spectrum = bc.cycle_density_spectrum(table)
            with tr.span("cycle_engine.aggregate_macroscopic"):
                agg = bc.aggregate_macroscopic(spectrum, EPS)
            return weights.log_w, table.logQ, spectrum.rho_n, spectrum.rho, agg
        if op.kind == "sandwich":
            params = bc.SystemParams.from_degeneracy(3, a["N"], a["rho_lam3"], BETA)
            pot = bc.gaussian_potential(a["g"], a["sigma"], d=3)
            with tr.span("potentials.dcp_partition_sandwich"):
                return bc.dcp_partition_sandwich(a["N"], params.L, BETA, pot, verify=True), params.L
        if op.kind == "scan":
            rho = a["rho_lam3"] / bc.thermal_wavelength(BETA) ** 3
            with tr.span("thermo.finite_size_scan"):
                return bc.finite_size_scan(rho, BETA, 3, a["N_list"], EPS)
        raise ValueError(f"unknown recursion op {op.kind!r}")

    def check(self, op: Op, out, acc: Accuracy) -> list[str]:
        a = op.args
        if op.kind in ("solve", "custom"):
            log_w, logQ, rho_n, rho, agg = out
            N = a["N"]
            fails = acc.spectrum(rho_n, rho)
            if not (0.0 <= agg.macro <= rho * (1 + 1e-12) and agg.band >= 0.0):
                fails.append(f"aggregate out of range: {agg}")
            fails += acc.identity(log_w, logQ, a["identity_m"])
            if op.reference:
                fails += acc.logq(log_w, N, logQ[N])
            return fails
        if op.kind == "sandwich":
            bounds, L = out
            lower, upper = oracles.gaussian_sandwich(a["N"], L, BETA, a["g"], a["sigma"])
            if oracles.close(bounds.lower, lower, 1e-9) and oracles.close(bounds.upper, upper, 1e-9):
                return []
            return [f"sandwich edges {bounds.lower}, {bounds.upper} vs closed form {lower}, {upper}"]
        if op.kind == "scan":
            fails = []
            if [r.N for r in out] != a["N_list"]:
                fails.append("scan rows do not follow the ladder")
            for r in out:
                # fractions are sums of rho_n / rho, so they may exceed 1 by rounding
                top = 1.0 + oracles.NORM_TOL
                if not (0.0 <= r.macro_fraction <= top and 0.0 <= r.band_fraction <= top
                        and 0.0 < r.condensate_estimate <= 1.0):
                    fails.append(f"scan row out of range: {r}")
            # smallest rung against the long-double recursion, off the library's path
            N = a["N_list"][0]
            rho = a["rho_lam3"] / self.bc.thermal_wavelength(BETA) ** 3
            params = self.bc.SystemParams.from_density(3, N, rho, BETA)
            log_w = self.bc.log_q_weights(params)
            ref = oracles.logq_reference(log_w, N)
            rho_n = rho * np.exp((log_w + ref[N - 1 :: -1] - ref[N]).astype(float)) / N
            macro = float(rho_n[max(1, math.ceil(EPS * N * (1 - 1e-12))) - 1 :].sum()) / rho
            if not oracles.close(out[0].macro_fraction, macro, 1e-10):
                fails.append(f"scan macro fraction {out[0].macro_fraction} vs reference {macro}")
            return fails
        return [f"unknown op {op.kind}"]


# ----------------------------------------------------------------------
# sampling


@dataclass
class SamplingSizes:
    # (N, draws, ops per round).  p50 falls about 3/4 of the way up the
    # first class, p90 about 4/5 up the second (see RecursionSizes); the
    # rare large job carries the memory the per-table cumulative cache
    # grows to, and sits above p90
    jobs: tuple = ((2048, 40, 13), (4096, 40, 6), (4096, 100, 1))


class SamplingWorkload(InProcess):
    name = "sampling"

    def __init__(self, bc, sizes: SamplingSizes | None = None):
        self.bc = bc
        self.sizes = sizes or SamplingSizes()

    def round(self, rng) -> list[Op]:
        ops = [Op("sample", {"N": N, "draws": D, "seed": int(rng.integers(2**63)),
                             "identity_m": _identity_ms(rng, N)}, f"sample-{N}x{D}")
               for N, D, count in self.sizes.jobs for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr):
        # the way `bosecycles sample --draws D` runs a job
        bc = self.bc
        N, draws = op.args["N"], op.args["draws"]
        params = bc.SystemParams.from_degeneracy(3, N, SAMPLING_RHO_LAM3, BETA)
        with tr.span("special_fn.log_q_weights"):
            log_w = bc.log_q_weights(params)
        weights = bc.WeightSequence(log_w, tag="ideal", rate=0.0)
        with tr.span("cycle_engine.build_partition_table"):
            table = bc.build_partition_table(params, weights)
        tr.count("terms", N * (N + 1) // 2)
        rng = np.random.default_rng(op.args["seed"])
        with tr.span("cycle_engine.sample_cycle_type"):
            types = [bc.sample_cycle_type(table, rng) for _ in range(draws)]
        if tr.enabled:
            tr.peak("held_mb", _array_mb(table))
            tr.count("draws", draws)
            tr.count("cycles_drawn", sum(len(t.parts) for t in types))
        return table, types

    def check(self, op: Op, out, acc: Accuracy) -> list[str]:
        table, types = out
        N = op.args["N"]
        fails = [f"cycle type sums to {t.N}, not {N}" for t in types if t.N != N][:3]
        spectrum = self.bc.cycle_density_spectrum(table)
        fails += acc.spectrum(spectrum.rho_n, spectrum.rho)
        fails += acc.identity(table.weights.log_w, table.logQ, op.args["identity_m"])
        p = self.bc.aggregate_macroscopic(spectrum, EPS).macro / spectrum.rho
        lo = max(1, math.ceil(EPS * N * (1 - 1e-12)))
        hits = sum(1 for t in types if t.parts[0] >= lo)
        z = oracles.tagged_macro_z(hits, len(types), p)
        if not abs(z) <= oracles.Z_MAX:
            fails.append(f"tagged-cycle macro frequency {hits}/{len(types)} is {z:.1f} sigma from {p}")
        acc.tagged_hits += hits
        acc.tagged_expected += len(types) * p
        acc.tagged_var += len(types) * p * (1 - p)
        return fails


# ----------------------------------------------------------------------
# cli-cold


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV, skipping its '# key = value' block."""
    with open(path, newline="") as fp:
        lines = [line for line in fp if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _json(path: Path) -> dict:
    with open(path) as fp:
        return json.load(fp)


def _same(a, b, rel: float = 1e-12) -> bool:
    return all(oracles.close(float(x), float(y), rel) for x, y in zip(a, b, strict=True))


@dataclass
class CliSizes:
    # one op per entry and round.  merger-5 takes about twice as long as
    # any other op; two a round (one CSV, one JSON) make the four slowest
    # ops of a two-round run, so p90 falls between two of them and not on
    # whichever light op a hiccup of the machine slowed
    subcommands: tuple = ("mu-below", "mu-above", "bounds-gaussian", "bounds-file", "gain", "wavefn",
                          "oracle", "spectrum", "scan", "sample", "merger-4", "merger-5", "merger-5")
    spectrum_n: tuple = (3072, 4096)


@dataclass
class ChildRun:
    returncode: int
    maxrss_mb: float
    cpu_s: float


class CliColdWorkload:
    """Each op is one fresh `python -m bosecycles ...` process."""

    name = "cli-cold"

    def __init__(self, bc, root: Path, workdir: Path, env: dict, sizes: CliSizes | None = None):
        self.bc = bc
        self.root = root
        self.workdir = workdir
        self.env = env
        self.sizes = sizes or CliSizes()
        self.max_child_rss = 0.0
        self._n = 0
        self._rounds = 0

    def peak_rss_mb(self) -> float:
        return self.max_child_rss

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- inputs

    def _potential_file(self, rng, opdir: Path) -> str:
        """A tabulated exponential or an autocorrelation hat profile, as
        files; both are positive type, as the free-energy sandwich needs."""
        if rng.random() < 0.5:
            scale = float(rng.uniform(0.2, 0.6))
            r = np.linspace(0.0, 12.0 * scale, 49)
            vals = float(rng.uniform(0.3, 1.0)) * np.exp(-r / scale)
            vals[-1] = 0.0
            kind = "tabulated"
        else:
            R = float(rng.uniform(0.5, 1.5))
            r = np.linspace(0.0, R, 5)
            vals = float(rng.uniform(0.5, 1.5)) * (1.0 - r / R)
            kind = "autocorrelation"
        with open(opdir / "profile.csv", "w") as fp:
            fp.write("r,value\n")
            fp.writelines(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(r, vals))
        (opdir / "pot.txt").write_text(f"kind = {kind}\nprofile = profile.csv\nd = 3\n")
        return str(opdir / "pot.txt")

    def round(self, rng) -> list[Op]:
        s = self.sizes
        ops = []
        # formats alternate by entry and flip every round, so two rounds run
        # every subcommand once as CSV and once as JSON
        self._rounds += 1
        for i, sub in enumerate(s.subcommands):
            self._n += 1
            opdir = self.workdir / f"op{self._n}"
            opdir.mkdir(parents=True)
            fmt = ("csv", "json")[(i + self._rounds) % 2]
            a: dict = {"sub": sub.split("-")[0], "fmt": fmt, "dir": opdir}
            if sub.startswith("mu"):
                a["rho_lam3"] = _rho_lam3(rng, sub.split("-")[1])
                argv = ["mu", "--rho-lambda3", repr(a["rho_lam3"]), "--beta", repr(BETA)]
            elif sub.startswith("bounds"):
                a["rho"] = float(rng.uniform(0.2, 2.0))
                if sub == "bounds-gaussian":
                    a["potential"] = f"gaussian:{rng.uniform(0.2, 1.0)!r},{rng.uniform(0.4, 1.0)!r}"
                else:
                    a["potential"] = self._potential_file(rng, opdir)
                argv = ["bounds", "--potential", a["potential"], "--rho", repr(a["rho"]),
                        "--beta", repr(BETA)]
            elif sub == "gain":
                a.update(c=float(rng.uniform(0.2, 0.8)), rho_v=float(rng.uniform(10.0, 100.0)),
                         rho=float(rng.uniform(0.5, 2.0)))
                argv = ["gain", "--c", repr(a["c"]), "--rho-v", repr(a["rho_v"]), "--rho", repr(a["rho"])]
            elif sub == "wavefn":
                a.update(n=int(rng.integers(2, 9)), L=float(rng.uniform(3.0, 6.0)),
                         y=[float(v) for v in rng.uniform(0.0, 3.0, 3)])
                argv = ["wavefn", "--n", str(a["n"]), "--L", repr(a["L"]), "--lam", "1.0",
                        "--y", ",".join(repr(v) for v in a["y"])]
            elif sub == "oracle":
                a.update(max_n=CLI_ORACLE_MAX_N, trials=int(rng.integers(3, 7)),
                         seed=int(rng.integers(2**31)))
                argv = ["oracle", "--max-n", str(a["max_n"]), "--trials", str(a["trials"]),
                        "--seed", str(a["seed"])]
            elif sub == "spectrum":
                a.update(N=int(rng.integers(*s.spectrum_n, endpoint=True)),
                         rho_lam3=_rho_lam3(rng, "below" if rng.random() < 0.5 else "above"))
                argv = ["spectrum", "--N", str(a["N"]), "--rho-lambda3", repr(a["rho_lam3"]),
                        "--beta", repr(BETA)]
            elif sub == "scan":
                a.update(N_list=list(CLI_SCAN_LADDER),
                         rho_lam3=_rho_lam3(rng, "below" if rng.random() < 0.5 else "above"))
                argv = ["scan", "--N-list", ",".join(map(str, a["N_list"])),
                        "--rho-lambda3", repr(a["rho_lam3"]), "--beta", repr(BETA)]
            elif sub == "sample":
                a.update(N=int(rng.integers(*CLI_SAMPLE_N, endpoint=True)), draws=CLI_SAMPLE_DRAWS,
                         seed=int(rng.integers(2**31)), rho_lam3=2.0 * ZETA_3_2)
                argv = ["sample", "--N", str(a["N"]), "--rho-lambda3", repr(a["rho_lam3"]),
                        "--beta", repr(BETA), "--draws", str(a["draws"]), "--seed", str(a["seed"])]
            elif sub.startswith("merger"):
                a["vertices"] = int(sub.split("-")[1])
                a["max_mult"] = 2 if a["vertices"] == 5 else int(rng.integers(2, 4))
                argv = ["merger", "--vertices", str(a["vertices"]),
                        "--max-multiplicity", str(a["max_mult"])]
            else:
                raise ValueError(f"unknown cli op {sub!r}")
            a["out"] = opdir / f"out.{fmt}"
            a["argv"] = argv + ["--format", fmt, "-o", a["out"].name]
            ops.append(Op(a["sub"], a, sub))
        rng.shuffle(ops)
        return ops

    # -- the timed op

    def run(self, op: Op, tr) -> ChildRun:
        a = op.args
        env = dict(self.env, BOSECYCLES_OUTDIR=str(a["dir"]))
        with open(a["dir"] / "stdout.txt", "w") as out, open(a["dir"] / "stderr.txt", "w") as err:
            proc = subprocess.Popen([sys.executable, "-m", "bosecycles", *a["argv"]],
                                    cwd=self.root, env=env, stdout=out, stderr=err)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = ChildRun(proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)
        self.max_child_rss = max(self.max_child_rss, run.maxrss_mb)
        tr.count("cpu_s", run.cpu_s)
        return run

    # -- gates: re-read each output and compare with the library in this process

    def check(self, op: Op, out: ChildRun, acc: Accuracy) -> list[str]:
        a = op.args
        if out.returncode != 0:
            err = (a["dir"] / "stderr.txt").read_text().strip().splitlines()
            return [f"{' '.join(a['argv'])} exited {out.returncode}: {err[-1:]}"]
        return getattr(self, f"_check_{op.kind}")(a, a["out"], acc)

    def _check_mu(self, a, path, acc):
        names = ("mu", "f0", "condensate_fraction", "critical_density", "rho_lam_d")
        if a["fmt"] == "csv":
            header, rows = _csv(path)
            got = dict(zip(header, map(float, rows[0])))
        else:
            got = _json(path)
        lam3 = self.bc.thermal_wavelength(BETA) ** 3
        rho = a["rho_lam3"] / lam3
        point = self.bc.ideal_point(rho, BETA, 3)
        want = [point.mu, point.f0, point.condensate_fraction, point.critical_density, point.rho_lam_d]
        fails = [] if _same([got[k] for k in names], want) else [f"mu fields {got} vs library {want}"]
        closed = max(0.0, 1.0 - ZETA_3_2 / a["rho_lam3"])  # ideal-gas condensate fraction
        if not oracles.close(got["condensate_fraction"], closed, 1e-9):
            fails.append(f"condensate fraction {got['condensate_fraction']} vs closed form {closed}")
        return fails

    def _check_bounds(self, a, path, acc):
        names = ("f_lower", "f_upper", "f_tilde_lower", "f_tilde_upper")
        if a["fmt"] == "csv":
            header, rows = _csv(path)
            got = dict(zip(header, map(float, rows[0])))
        else:
            got = _json(path)
        spec = a["potential"]
        if spec.startswith("gaussian:"):
            g, sigma = map(float, spec[len("gaussian:"):].split(","))
            pot = self.bc.gaussian_potential(g, sigma, d=3)
        else:
            pot = self.bc.load_potential(spec)
        fb = self.bc.free_energy_bounds(a["rho"], BETA, pot)
        want = [fb.f.lower, fb.f.upper, fb.f_tilde.lower, fb.f_tilde.upper]
        fails = [] if _same([got[k] for k in names], want) else [f"bounds {got} vs library {want}"]
        if not got["f_lower"] <= got["f_upper"]:
            fails.append("free-energy bounds are inverted")
        return fails

    def _check_gain(self, a, path, acc):
        params = self.bc.CouplingParams(c=a["c"], rho_v=a["rho_v"], lam=1.0, rho=a["rho"])
        want = [v for row in self.bc.coupling_sweep(params, 101) for v in row]
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            got = [float(v) for row in rows for v in row]
            return [] if _same(got, want) else ["gain sweep differs from the library"]
        doc = _json(path)
        got = [v for row in zip(*(doc["sweep"][k] for k in ("a", "gain", "penalty", "total"))) for v in row]
        opt = self.bc.optimize_coupling(params)
        fails = [] if _same(got, want) else ["gain sweep differs from the library"]
        if not _same([doc["a_star"], doc["C"], doc["rate_at_a_star"]], [opt.a_star, opt.C, opt.rate_at_a_star]):
            fails.append("gain optimum differs from the library")
        return fails

    def _check_wavefn(self, a, path, acc):
        params = self.bc.CycleWaveParams(n=a["n"], L=a["L"], lam=1.0, y=tuple(a["y"]))
        want = [v for row in self.bc.wave_profile(params, 0, 257) for v in row]
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            got = [float(v) for row in rows for v in row]
        else:
            doc = _json(path)
            got = [v for row in zip(*(doc[k] for k in ("x", "re_psi", "im_psi", "abs2"))) for v in row]
        return [] if len(got) == 4 * 257 and _same(got, want) else ["wave profile differs from the library"]

    def _check_oracle(self, a, path, acc):
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            errs = [float(r[2]) for r in rows]
        else:
            errs = [r["rel_err"] for r in _json(path)["rows"]]
        fails = []
        if len(errs) != a["trials"] * a["max_n"]:
            fails.append(f"oracle wrote {len(errs)} rows, expected {a['trials'] * a['max_n']}")
        if not max(errs) <= 1e-10:
            fails.append(f"recursion vs enumeration {max(errs)} exceeds 1e-10")
        return fails

    def _check_spectrum(self, a, path, acc):
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            rho_n = np.array([float(r[1]) for r in rows])
        else:
            rho_n = np.array(_json(path)["rho_n"])
        bc = self.bc
        params = bc.SystemParams.from_degeneracy(3, a["N"], a["rho_lam3"], BETA)
        table = bc.build_partition_table(params, bc.WeightSequence.ideal(params))
        want = bc.cycle_density_spectrum(table).rho_n
        fails = acc.spectrum(rho_n, params.rho)
        if rho_n.size != a["N"] or not _same(rho_n, want):
            fails.append("spectrum differs from the library")
        return fails

    def _check_scan(self, a, path, acc):
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            got = [float(v) for row in rows for v in row]
        else:
            doc = _json(path)
            cols = ("N", "macro_fraction", "band_fraction", "condensate_estimate")
            got = [v for row in zip(*(doc[k] for k in cols)) for v in row]
        rho = a["rho_lam3"] / self.bc.thermal_wavelength(BETA) ** 3
        want = [v for row in self.bc.finite_size_scan(rho, BETA, 3, a["N_list"], EPS) for v in row]
        return [] if _same(got, want) else ["scan differs from the library"]

    def _check_sample(self, a, path, acc):
        if a["fmt"] == "csv":
            _, rows = _csv(path)
            draws = [[int(n) for n in r[2].split()] for r in rows]
        else:
            draws = _json(path)["draws_lengths"]
        bc = self.bc
        fails = [f"draw sums to {sum(d)}, not {a['N']}" for d in draws if sum(d) != a["N"]][:3]
        params = bc.SystemParams.from_degeneracy(3, a["N"], a["rho_lam3"], BETA)
        table = bc.build_partition_table(params, bc.WeightSequence.ideal(params))
        rng = np.random.default_rng(a["seed"])
        want = [list(bc.sample_cycle_type(table, rng).parts) for _ in range(a["draws"])]
        if draws != want:
            fails.append("sampled cycle types differ from the library with the same seed")
        return fails

    def _check_merger(self, a, path, acc):
        total = oracles.merger_total(a["vertices"], a["max_mult"])
        census = self.bc.enumerate_merger_graphs(a["vertices"], a["max_mult"])
        if a["fmt"] == "csv":
            header, rows = _csv(path)
            got_total = len(rows)
            got_admissible = sum(1 for r in rows if r[header.index("delta")] == "1")
        else:
            doc = _json(path)
            got_total, got_admissible = doc["total"], doc["admissible"]
        fails = []
        if got_total != total:
            fails.append(f"merger census total {got_total} != (m+1)^pairs = {total}")
        if got_admissible != census.admissible:
            fails.append(f"merger admissible {got_admissible} vs library {census.admissible}")
        return fails

    # -- traced replay of every argv through the CLI's main in this process

    def replay(self, ops: list[Op], tr) -> tuple[dict[str, float], list[str]]:
        """Seconds spent in ``bosecycles.cli.main`` per subcommand, warm, and
        a message for each op whose warm replay raised or exited non-zero."""
        from bosecycles import cli

        busy: dict[str, float] = {}
        failures = []
        old = os.environ.get("BOSECYCLES_OUTDIR")
        try:
            for op in ops:
                opdir = op.args["dir"] / "replay"
                opdir.mkdir()
                os.environ["BOSECYCLES_OUTDIR"] = str(opdir)
                t0 = time.perf_counter()
                try:
                    with tr.span(f"cli.{op.kind}"), contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(op.args["argv"])
                except (Exception, SystemExit) as exc:
                    code = repr(exc)
                busy[op.kind] = busy.get(op.kind, 0.0) + time.perf_counter() - t0
                if code != 0:
                    failures.append(f"warm replay of {' '.join(op.args['argv'])} ended with {code}")
        finally:
            if old is None:
                os.environ.pop("BOSECYCLES_OUTDIR", None)
            else:
                os.environ["BOSECYCLES_OUTDIR"] = old
        return busy, failures

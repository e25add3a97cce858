"""bosecycles benchmark.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports the package
from ``src/`` and refuses to run without it.  With ``--trace 0`` it
prints the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones; the last line of standard output is the JSON result.
Load is one closed-loop client: the next op starts when the previous one
has finished.  Work files and reports go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from machine import machine_facts
from oracles import Z_MAX
from spans import Tracer
from workloads import Accuracy, CliColdWorkload, InProcess, RecursionWorkload, SamplingWorkload

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("recursion", "sampling", "cli-cold")
SETUP_REPS = 3  # fresh imports whose median is setup_s
PROBE_REPS = 3  # fresh -X importtime and bare-interpreter probes in a traced run
WALL_CAP = 3.0  # stop a run whose wall time, checks included, passes this many --seconds
# Rounds an untraced run holds at least: a cli-cold round takes 15-20 s,
# and a run of one round would put p90 between a light op and a merger-5
MIN_ROUNDS = 2
MODULES = ("special_fn", "cycle_engine", "thermo", "potentials", "coupling", "wavefunctions", "cli")
SUBCOMMANDS = ("spectrum", "scan", "mu", "bounds", "sample", "merger", "gain", "oracle", "wavefn")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, import failure)."""


# ----------------------------------------------------------------------
# fresh-process probes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh(code: str, env: dict, *flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def _spawn_to_print(code: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until ``code`` has run;
    the child reports CLOCK_MONOTONIC, which parent and child share."""
    t0 = time.monotonic()
    out = _fresh(f"{code}; import sys, time; sys.stdout.write(repr(time.monotonic()))", env)
    return float(out.stdout.split()[-1]) - t0


def measure_setup(env: dict) -> list[float]:
    """Fresh-interpreter `import bosecycles` times; one untimed import first
    writes the byte-code caches, as an installed package would have them."""
    where = _fresh("import bosecycles; print(bosecycles.__file__)", env).stdout.strip()
    if not Path(where).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"bosecycles imported from {where}, not from {ROOT / 'src'}")
    return [_spawn_to_print("import bosecycles", env) for _ in range(SETUP_REPS)]


def import_times(env: dict) -> dict[str, float]:
    """Median cumulative import seconds per bosecycles module (``-X importtime``).

    A module's figure includes the third-party modules it is first to import."""
    runs: dict[str, list[float]] = {}
    for _ in range(PROBE_REPS):
        err = _fresh("import bosecycles.cli", env, "-X", "importtime").stderr
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name == "bosecycles" or name.startswith("bosecycles."):
                runs.setdefault(name, []).append(int(cumulative) * 1e-6)
    return {name: statistics.median(vals) for name, vals in runs.items()}


# ----------------------------------------------------------------------
# the closed loop


@dataclass
class Run:
    latencies: list[float] = field(default_factory=list)
    ops: list = field(default_factory=list)
    passed: list[bool] = field(default_factory=list)  # per op: no raise, every gate passed
    failures: list[str] = field(default_factory=list)
    round_ends: list[int] = field(default_factory=list)  # op count after each round
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def round_seconds(self) -> list[float]:
        starts = [0] + self.round_ends[:-1]
        return [sum(self.latencies[a:b]) for a, b in zip(starts, self.round_ends)]

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time, over whole rounds of the same mix.
        Over ten-run sets this spread less than the median of per-round
        rates: the machine's speed changes within a round as often as
        between rounds."""
        return len(self.latencies) / self.busy_s


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(wl, rng, seconds: float, tr: Tracer, acc: Accuracy, tamper=None, min_rounds: int = 1) -> Run:
    """Run whole rounds, at least ``min_rounds``, until their summed op time
    is nearest ``seconds``.

    Only ``wl.run`` is timed; each output is gated right after its op.
    ``tamper`` (self-test only) corrupts an output before its gate."""
    run = Run()
    wall0 = time.perf_counter()
    count_cpu = tr.enabled and isinstance(wl, InProcess)
    while True:
        for op in wl.round(rng):
            tr.op_id = len(run.latencies)
            cpu0 = _cpu_self() if count_cpu else 0.0
            error = None
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    out = wl.run(op, tr)
            except Exception as exc:  # a failed op is counted, the loop goes on
                error = exc
            run.latencies.append(time.perf_counter() - t0)
            if count_cpu:
                tr.count("cpu_s", _cpu_self() - cpu0)
            if error is None:
                if tamper is not None:
                    out = tamper(op, out)
                try:
                    msgs = wl.check(op, out, acc)
                except Exception as exc:
                    msgs = [f"gate raised {exc!r}"]
            else:
                msgs = [f"raised {error!r}"]
                traceback.print_exception(error, file=sys.stderr)
            run.passed.append(not msgs)
            if msgs:
                shown = {k: v for k, v in op.args.items() if isinstance(v, (int, float, str))}
                run.failures.append(f"{op.kind} {shown}: {'; '.join(msgs)}")
            run.ops.append(op)
        run.round_ends.append(len(run.latencies))
        run.wall_s = time.perf_counter() - wall0
        # another round only if it ends nearer to ``seconds`` than stopping now
        rounds = len(run.round_ends)
        if rounds >= min_rounds and run.busy_s * (1 + 0.5 / rounds) >= seconds or run.wall_s > WALL_CAP * seconds:
            return run


def failed_by_class(*runs: Run) -> dict[str, list[int]]:
    """Size class -> [failed, attempted] over ``runs``."""
    out: dict[str, list[int]] = {}
    for run in runs:
        for op, ok in zip(run.ops, run.passed):
            counts = out.setdefault(op.cls, [0, 0])
            counts[0] += not ok
            counts[1] += 1
    return dict(sorted(out.items()))


def latency_stats(lat: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"p50": statistics.median(lat), "p90": p90, "beyond_p90": sum(x > p90 for x in lat)}


# ----------------------------------------------------------------------
# metrics


def end_to_end(wl, rng, seconds: float, env: dict, tamper=None):
    setup = measure_setup(env)
    acc = Accuracy()
    run = measure(wl, rng, seconds, Tracer(False), acc, tamper, MIN_ROUNDS)
    lat = latency_stats(run.latencies)
    n = len(run.latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": run.ops_per_s,
        "op_p50_s": lat["p50"],
        "op_p90_s": lat["p90"],
        "peak_rss_mb": wl.peak_rss_mb(),
        "pass_rate": (n - run.failed) / n,
    }
    details = {"ops": n, "round_seconds": run.round_seconds(), "op_seconds": run.busy_s, "wall_seconds": run.wall_s,
               "samples_beyond_p90": lat["beyond_p90"], "setup_samples_s": setup,
               "failed": run.failed, "failed_by_class": failed_by_class(run), "failures": run.failures[:10],
               "accuracy": vars(acc)}
    return metrics, run.failed, n, acc, details


def per_layer(wl, rng, seconds: float, env: dict, tr: Tracer, tamper=None):
    imports = import_times(env)
    start = [_spawn_to_print("pass", env) for _ in range(PROBE_REPS)]
    acc = Accuracy()
    plain = measure(wl, rng, seconds / 2, Tracer(False), acc, tamper)
    traced = measure(wl, rng, seconds / 2, tr, acc, tamper)
    cold = traced.busy_s
    replay, replay_failures, replayed_cold = {}, [], 0.0
    if isinstance(wl, CliColdWorkload):
        # ops that failed cold are already counted; replay the others warm
        kept = [i for i, ok in enumerate(traced.passed) if ok]
        replay, replay_failures = wl.replay([traced.ops[i] for i in kept], tr)
        replayed_cold = sum(traced.latencies[i] for i in kept)
    layers = tr.self_times()
    breach = wl.breach_residual(rng) if isinstance(wl, RecursionWorkload) else 0.0

    def busy(name):
        return layers.get(name, (0, 0.0))[1]

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    n = len(traced.latencies)
    build = "cycle_engine.build_partition_table"
    draw = "cycle_engine.sample_cycle_type"
    failed = plain.failed + traced.failed + len(replay_failures)
    attempted = len(plain.latencies) + n
    m = {f"import.{mod}_s": imports.get(f"bosecycles.{mod}", 0.0) for mod in MODULES}
    m.update({
        "import.bosecycles_s": imports.get("bosecycles", 0.0),
        "process.interpreter_start_s": statistics.median(start),
        "process.cpu_s_per_op": tr.counts["cpu_s"] / n,
        f"{build}.calls": calls(build),
        f"{build}.busy_s": busy(build),
        f"{build}.terms": tr.counts["terms"],
        f"{build}.terms_per_s": tr.counts["terms"] / busy(build) if busy(build) else 0.0,
        f"{build}.share": busy(build) / cold,
        f"{draw}.calls": tr.counts["draws"],
        f"{draw}.busy_s": busy(draw),
        f"{draw}.cycles_drawn": tr.counts["cycles_drawn"],
        f"{draw}.draws_per_s": tr.counts["draws"] / busy(draw) if busy(draw) else 0.0,
        f"{draw}.held_mb": tr.peaks["held_mb"],
        f"{draw}.share": busy(draw) / cold,
        "special_fn.log_q_weights.calls": calls("special_fn.log_q_weights"),
        "cli.start_import_share": 1.0 - sum(replay.values()) / replayed_cold if replay else 0.0,
        "accuracy.norm_residual_max": acc.norm_residual_max,
        "accuracy.norm_residual_breach": breach,
        "accuracy.logQ_rel_err_max": acc.logq_rel_err_max,
        "accuracy.identity_rel_err_max": acc.identity_rel_err_max,
        "accuracy.sampler_macro_z": acc.sampler_z,
        "error_rate": failed / attempted,
        "trace.overhead_frac": 1.0 - traced.ops_per_s / plain.ops_per_s,
    })
    for name in ("special_fn.log_q_weights", "cycle_engine.cycle_density_spectrum",
                 "cycle_engine.aggregate_macroscopic", "thermo.finite_size_scan",
                 "potentials.dcp_partition_sandwich"):
        m[f"{name}.busy_s"] = busy(name)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.busy_s"] = replay.get(sub, 0.0)
    details = {"ops_untraced": len(plain.latencies), "ops_traced": n, "op_seconds_traced": cold,
               "failed": failed, "failed_by_class": failed_by_class(plain, traced),
               "failures": (plain.failures + traced.failures + replay_failures)[:10],
               "accuracy": vars(acc), "spans": len(tr.spans)}
    return m, failed, attempted, acc, details


def run_gates(acc: Accuracy) -> list[str]:
    """Run-level gates on top of the per-op ones."""
    z = acc.sampler_z
    return [] if abs(z) <= Z_MAX else [f"pooled tagged-cycle frequency is {z:.1f} sigma off"]


def emit(spec: dict, kind: str, values: dict) -> dict:
    """Every metric BENCHMARK.json declares for this mode, with its unit."""
    out = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"metric {name} declared in BENCHMARK.json was not measured")
        out[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return out


# ----------------------------------------------------------------------


def make_workload(name: str, bc, workdir: Path, env: dict, sizes=None):
    if name == "recursion":
        return RecursionWorkload(bc, sizes)
    if name == "sampling":
        return SamplingWorkload(bc, sizes)
    return CliColdWorkload(bc, ROOT, workdir, env, sizes)


def import_checkout():
    src = ROOT / "src"
    if not (src / "bosecycles" / "__init__.py").is_file():
        raise SetupError(f"no bosecycles sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import bosecycles

    if not Path(bosecycles.__file__).resolve().is_relative_to(src):
        raise SetupError(f"bosecycles imported from {bosecycles.__file__}, not from {src}")
    return bosecycles


def benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None, tamper=None):
    """(result, details) for one run; the result is the last line printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bc = import_checkout()
    env = child_env()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    wl = make_workload(workload, bc, workdir, env, sizes)
    rng = np.random.default_rng(seed)
    tr = Tracer(trace)
    try:
        if trace:
            values, failed, attempted, acc, details = per_layer(wl, rng, seconds, env, tr, tamper)
        else:
            values, failed, attempted, acc, details = end_to_end(wl, rng, seconds, env, tamper)
    finally:
        wl.close()
    details["run_gates"] = run_gates(acc)
    result = {
        "correct": failed == 0 and not details["run_gates"],
        "attempted": attempted,
        "failed": failed,
        "metrics": emit(spec, "per_layer" if trace else "end_to_end", values),
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    if trace:
        tr.write(results / f"{tag}.spans.jsonl")
    details["machine"] = machine_facts()
    (results / f"{tag}.json").write_text(json.dumps({"result": result, "details": details}, indent=1,
                                                    default=str))
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    try:
        result, details = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for msg in details["failures"] + details["run_gates"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("machine:", json.dumps(details.pop("machine")))
    print("details:", json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Before/after benchmarks of the cycle-weight recursion, the sampler and cold CLI runs.

    python3 tools/bench_recursion.py --before ../parent --after . -o BENCH_recursion.json
    python3 tools/bench_recursion.py --mode sampling --before ../parent --after . -o BENCH_sampling.json
    python3 tools/bench_recursion.py --mode cli-cold --before ../parent --after . -o BENCH_cli.json

``--before`` and ``--after`` are source checkouts (each with ``src/`` and
``perfbench/``).  Each row is measured in a fresh process per checkout
that imports that checkout's ``src/``.  Before any timing, ``python -m
compileall -q`` writes current byte-code caches for both ``src/`` trees:
with PYTHONDONTWRITEBYTECODE set, an import never refreshes a stale
cache, so every cold import would compile the edited modules again.

``--mode recursion`` (the default), for each N of the ladder and each
rho*lambda^3 (below and above the d = 3 transition), records:

- the wall time of ``build_partition_table`` in ``RECURSION_PROCESSES``
  fresh processes per checkout, each the best of ``RECURSION_BUILDS``
  builds below N = 20000 and one build above; ``build_s`` is the median
  of the per-process minima, ``build_s_q1`` and ``build_s_q3`` their
  quartiles, and ``build_s_processes`` the minima themselves.  A 2-core
  box can run a whole process in a slow mode, so one process per side
  could read a speed-up as a slow-down;
- max_M |log Q_M - ref_M| / max(1, |ref_M|), with ref the row-by-row
  log-space recursion written here, in double precision and, up to
  N = 16000, in long double (first process only: it is deterministic);
- sum_n rho_n / rho - 1 of ``cycle_density_spectrum``, summed with fsum.

``--mode sampling``, for each (N, draws) job at rho*lambda^3 = 2 zeta(3/2),
the last one a single draw at ``N_MAX``, draws the cycle types from one
seeded Generator and records the wall time per draw (and of the first,
cold, draw), the MB of numpy arrays the table holds before and after
its draws, and the MB of the walk lists it keeps after them (the lists
and their floats, 0 for a table that keeps none).  Each job counts the
draws that are identical on both sides.

In these two modes the checkouts alternate: each process of a row runs
once per checkout, the one that goes first flipping from process to
process and row to row, so that a drift in the machine's speed falls on
both sides alike.

``--mode cli-cold`` runs each argv of ``CLI_ARGVS`` (one per kind of op
in the benchmark's ``cli-cold`` round, sized as there) as a fresh
``python -m bosecycles`` process, ``CLI_REPS`` times per output format
and checkout, the two checkouts alternating run by run, after one
untimed run per checkout, and records the median wall time per argv,
format and checkout.

Then ``perfbench/run.py --workload <mode> --trace 1`` runs once in each
checkout and the layer and accuracy metrics of that mode are kept; for
``cli-cold`` an untraced run adds its end-to-end metrics.  Run both
checkouts on the same machine with nothing else running.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

LADDER = (512, 1024, 2048, 4096, 8192, 16000, 32000, 64000, 100000)
ZETA_3_2 = 2.6123753486854883
DEGENERACIES = {"below": 0.7 * ZETA_3_2, "above": 2.0 * ZETA_3_2}
LONGDOUBLE_N_MAX = 16000  # the long-double reference takes ~15 s at 16000, ~90 s at 32000
RECURSION_ROWS = tuple((N, side) for N in LADDER for side in DEGENERACIES)
RECURSION_PROCESSES = 5  # fresh processes per row and checkout
RECURSION_BUILDS = 5  # builds per process below N = 20000 (one above)
SAMPLING_JOBS = ((2048, 40), (4096, 100), (16000, 20), (100_000, 1))  # (N, draws); the last N is N_MAX
SAMPLING_SEED = 2011
LAYER = "cycle_engine.build_partition_table"
DRAW = "cycle_engine.sample_cycle_type"
CLI_REPS = 5
CLI_INPUTS = {
    # the benchmark's two kinds of potential file: a tabulated exponential
    # cut to zero at 12 scale lengths, and the autocorrelation of a hat
    "exponential.csv": "r,value\n" + "".join(f"{0.1 * k!r},{(0.6 * math.exp(-k / 4) if k < 48 else 0.0)!r}\n"
                                              for k in range(49)),
    "hat.csv": "r,value\n" + "".join(f"{0.25 * k!r},{1.0 - 0.25 * k!r}\n" for k in range(5)),
    "tabulated.txt": "kind = tabulated\nprofile = exponential.csv\nd = 3\n",
    "autocorrelation.txt": "kind = autocorrelation\nprofile = hat.csv\nd = 3\n",
}
CLI_ARGVS = {  # "{name}" stands for the input file of that name
    "mu-below": ["mu", "--rho-lambda3", repr(0.7 * ZETA_3_2), "--beta", "1.0"],
    "mu-above": ["mu", "--rho-lambda3", repr(2.0 * ZETA_3_2), "--beta", "1.0"],
    "bounds-gaussian": ["bounds", "--potential", "gaussian:0.6,0.7", "--rho", "1.0", "--beta", "1.0"],
    "bounds-tabulated": ["bounds", "--potential", "{tabulated.txt}", "--rho", "1.0", "--beta", "1.0"],
    "bounds-autocorrelation": ["bounds", "--potential", "{autocorrelation.txt}", "--rho", "1.0", "--beta", "1.0"],
    "gain": ["gain", "--c", "0.5", "--rho-v", "50.0", "--rho", "1.0"],
    "wavefn": ["wavefn", "--n", "5", "--L", "4.5", "--lam", "1.0", "--y", "1.0,2.0,0.5"],
    "oracle": ["oracle", "--max-n", "10", "--trials", "5", "--seed", "1"],
    "spectrum": ["spectrum", "--N", "4096", "--rho-lambda3", repr(2.0 * ZETA_3_2), "--beta", "1.0"],
    "scan": ["scan", "--N-list", "512,1024,2048,4096", "--rho-lambda3", repr(2.0 * ZETA_3_2), "--beta", "1.0"],
    "sample": ["sample", "--N", "2048", "--rho-lambda3", repr(2.0 * ZETA_3_2), "--beta", "1.0", "--draws", "20",
               "--seed", "7"],
    "merger-4": ["merger", "--vertices", "4", "--max-multiplicity", "3"],
    "merger-5": ["merger", "--vertices", "5", "--max-multiplicity", "2"],
}
TRACED = {
    "recursion": [f"{LAYER}.{k}" for k in ("calls", "busy_s", "terms", "terms_per_s")]
    + [f"accuracy.{k}" for k in ("norm_residual_max", "norm_residual_breach", "identity_rel_err_max", "logQ_rel_err_max")],
    "sampling": [f"{DRAW}.{k}" for k in ("draws_per_s", "held_mb", "share")] + ["accuracy.sampler_macro_z"],
    "cli-cold": ["cli.start_import_share", "cli.mu.busy_s", "cli.bounds.busy_s", "cli.merger.busy_s",
                 "cli.wavefn.busy_s", "import.bosecycles_s", "process.interpreter_start_s"],
}
UNTRACED = {"cli-cold": ["ops_per_s", "op_p50_s", "op_p90_s", "setup_s", "peak_rss_mb", "pass_rate"]}
WHAT = {
    "recursion": f"build_partition_table on ideal d = 3 torus weights: median and quartiles of the per-process best "
    f"build over {RECURSION_PROCESSES} fresh processes per checkout, before and after alternating process by "
    "process, same machine and arguments",
    "sampling": "sample_cycle_type on ideal d = 3 torus weights at rho*lambda^3 = 2 zeta(3/2), before and after "
    "alternating row by row, same machine and arguments",
    "cli-cold": f"median wall time of {CLI_REPS} fresh `python -m bosecycles` runs per cli-cold argv and output "
    "format, before and after alternating run by run, same machine and arguments",
}


def exact_log_q(log_w, N, dtype=float):
    """The row-by-row log-space recursion, in the given float type."""
    log_w = np.asarray(log_w[:N], dtype=dtype)
    logQ = np.zeros(N + 1, dtype=dtype)
    for M in range(1, N + 1):
        terms = log_w[:M] + logQ[M - 1 :: -1]
        top = terms.max()
        logQ[M] = top + np.log(np.exp(terms - top).sum()) - np.log(dtype(M))
    return logQ


def rel_err(logQ, ref) -> float:
    return float(np.max(np.abs(logQ - ref) / np.maximum(1.0, np.abs(ref))))


def recursion_row(bc, N: int, side: str, accuracy: bool = True) -> dict:
    rho_lam3 = DEGENERACIES[side]
    params = bc.SystemParams.from_degeneracy(3, N, rho_lam3, 1.0)
    weights = bc.WeightSequence.ideal(params)
    walls = []
    for _ in range(RECURSION_BUILDS if N < 20000 else 1):
        start = time.perf_counter()
        table = bc.build_partition_table(params, weights)
        walls.append(time.perf_counter() - start)
    row = {"N": N, "side": side, "rho_lambda3": rho_lam3, "build_s": min(walls)}
    if not accuracy:
        return row
    spectrum = bc.cycle_density_spectrum(table)
    row["logQ_rel_err_vs_exact_loop"] = rel_err(table.logQ, exact_log_q(weights.log_w, N))
    row["norm_residual"] = math.fsum(spectrum.rho_n) / spectrum.rho - 1.0
    if N <= LONGDOUBLE_N_MAX:
        ref = exact_log_q(weights.log_w, N, np.longdouble)
        row["logQ_rel_err_vs_longdouble"] = rel_err(table.logQ, ref)
    return row


def _walk_lists_mb(table) -> float:
    """MB of the lists a table keeps for its draws, with their floats:
    read from the instance dict, so a table that keeps none reads 0 and
    none is built here.  _array_mb counts numpy arrays only."""
    lists = vars(table).get("_walk_lists", ())
    return sum(sys.getsizeof(seq) + sum(map(sys.getsizeof, seq)) for seq in lists) / 2**20


def sampling_row(bc, N: int, draws: int) -> dict:
    from workloads import _array_mb

    params = bc.SystemParams.from_degeneracy(3, N, DEGENERACIES["above"], 1.0)
    table = bc.build_partition_table(params, bc.WeightSequence.ideal(params))
    held_before = _array_mb(table)
    rng = np.random.default_rng(SAMPLING_SEED)
    walls, digests = [], []
    for _ in range(draws):
        start = time.perf_counter()
        parts = bc.sample_cycle_type(table, rng).parts
        walls.append(time.perf_counter() - start)
        digests.append(hashlib.sha256(repr(parts).encode()).hexdigest()[:16])
    return {
        "N": N,
        "draws": draws,
        "per_draw_ms": 1e3 * sum(walls) / draws,
        "first_draw_ms": 1e3 * walls[0],
        "held_mb_before_draws": held_before,
        "held_mb": _array_mb(table),
        "walk_lists_mb": _walk_lists_mb(table),
        "digests": digests,
    }


def measure_row(mode: str, index: int, accuracy: bool = True) -> dict:
    """Row ``index`` of the recursion or sampling mode, measured on the importable bosecycles."""
    import bosecycles as bc

    if mode == "recursion":
        return recursion_row(bc, *RECURSION_ROWS[index], accuracy)
    return sampling_row(bc, *SAMPLING_JOBS[index])


def measure_rows(trees: dict[str, Path], mode: str) -> dict[str, list[dict]]:
    """The recursion or sampling rows, per checkout: RECURSION_PROCESSES
    fresh processes per row and checkout in the recursion mode (the first
    one also takes the accuracy figures), one in the sampling mode; the
    checkout that goes first flips process by process and row by row."""
    rows: dict[str, list[dict]] = {side: [] for side in trees}
    here = Path(__file__).resolve()
    processes = RECURSION_PROCESSES if mode == "recursion" else 1
    flip = 0
    for index in range(len(RECURSION_ROWS if mode == "recursion" else SAMPLING_JOBS)):
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        for rep in range(processes):
            for side in list(trees)[:: 1 if flip % 2 == 0 else -1]:
                tree = trees[side]
                env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
                argv = [sys.executable, str(here), "--mode", mode, "--measure", str(index)]
                if rep:
                    argv.append("--timing-only")
                proc = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True)
                runs[side].append(json.loads(proc.stdout))
            flip += 1
        for side, measured in runs.items():
            row = measured[0]
            if mode == "recursion":
                minima = [run["build_s"] for run in measured]
                q1, median, q3 = statistics.quantiles(minima, n=4) if len(minima) > 1 else minima * 3
                row.update(build_s=median, build_s_q1=q1, build_s_q3=q3, build_s_processes=minima)
            rows[side].append(row)
            print(side, json.dumps({k: v for k, v in row.items() if k != "digests"}), file=sys.stderr, flush=True)
    return rows


def measure_cli(trees: dict[str, Path]) -> dict[str, list[dict]]:
    """Cold wall times of the CLI_ARGVS runs, per checkout.  The checkouts
    alternate run by run, first one then the other, so that a drift in the
    machine's load falls on both sides alike."""
    walls: dict[str, dict[tuple[str, str], list[float]]] = {side: {} for side in trees}
    with tempfile.TemporaryDirectory(prefix="bench_cli_") as tmp:
        tmp = Path(tmp)
        for name, text in CLI_INPUTS.items():
            (tmp / name).write_text(text)

        def run(tree: Path, argv: list[str]) -> float:
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), BOSECYCLES_OUTDIR=str(tmp))
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "bosecycles", *argv], cwd=tmp, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            return time.perf_counter() - start

        for tree in trees.values():
            run(tree, CLI_ARGVS["mu-below"])  # untimed: warms the file cache
        for kind, template in CLI_ARGVS.items():
            argv = [str(tmp / tok[1:-1]) if tok.startswith("{") else tok for tok in template]
            for fmt in ("csv", "json"):
                for rep in range(CLI_REPS):
                    for side in list(trees)[:: 1 if rep % 2 == 0 else -1]:
                        walls[side].setdefault((kind, fmt), []).append(run(trees[side], argv + ["--format", fmt]))
                print(kind, fmt, {side: statistics.median(w[kind, fmt]) for side, w in walls.items()},
                      file=sys.stderr, flush=True)
    return {
        side: [{"kind": kind, "format": fmt, "argv": " ".join(CLI_ARGVS[kind]), "median_s": statistics.median(w),
                "walls_s": w} for (kind, fmt), w in runs.items()]
        for side, runs in walls.items()
    }


def run_tree(tree: Path, mode: str, seed: int, rows: list) -> dict:
    """The rows of one checkout and its perfbench metrics."""
    result = {"rows": rows}
    for trace, kept in (("1", TRACED), ("0", UNTRACED)):
        if mode not in kept:
            continue
        bench = ["perfbench/run.py", "--workload", mode, "--seed", str(seed), "--seconds", "30", "--trace", trace]
        out = subprocess.run([sys.executable, *bench], cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        label = "traced" if trace == "1" else "untraced"
        result[f"{label}_{mode}"] = {"seed": seed, **{k: metrics[k]["value"] for k in kept[mode]}}
    return result


def count_identical(before: dict, after: dict) -> None:
    """Replace each sampling row's draw digests by the count of draws equal on both sides."""
    earlier = {(row["N"], row["draws"]): row.pop("digests") for row in before["rows"]}
    for row in after["rows"]:
        digests = row.pop("digests")
        row["identical_draws"] = sum(a == b for a, b in zip(earlier[row["N"], row["draws"]], digests))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=tuple(TRACED), default="recursion")
    parser.add_argument("--measure", type=int, metavar="ROW",
                        help="recursion and sampling modes: measure one row on the importable bosecycles only")
    parser.add_argument("--timing-only", action="store_true",
                        help="with --measure in the recursion mode: time the builds, skip the accuracy figures")
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--seed", type=int, default=601, help="seed of the traced perfbench runs")
    parser.add_argument("-o", "--output", type=Path, help="output file (default BENCH_<mode>.json)")
    args = parser.parse_args()
    if args.measure is not None and args.mode == "cli-cold":
        parser.error("--measure applies to the recursion and sampling modes only")
    if args.measure is not None:
        print(json.dumps(measure_row(args.mode, args.measure, not args.timing_only)))
        return
    if args.before is None or args.after is None:
        parser.error("--before and --after are required")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
    rows = measure_cli(trees) if args.mode == "cli-cold" else measure_rows(trees, args.mode)
    before = run_tree(trees["before"], args.mode, args.seed, rows["before"])
    after = run_tree(trees["after"], args.mode, args.seed, rows["after"])
    if args.mode == "sampling":
        count_identical(before, after)
    result = {
        "what": WHAT[args.mode],
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "before": before,
        "after": after,
    }
    output = args.output or Path(f"BENCH_{args.mode.split('-')[0]}.json")
    output.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()

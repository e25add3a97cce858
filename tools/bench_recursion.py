"""Before/after benchmark of the cycle-weight recursion on an N ladder.

    python3 tools/bench_recursion.py --before ../parent --after . -o BENCH_recursion.json

``--before`` and ``--after`` are source checkouts (each with ``src/`` and
``perfbench/``).  For each checkout, in a fresh process that imports its
``src/``, and for each N of the ladder and each rho*lambda^3 (below and
above the d = 3 transition), it records:

- the wall time of ``build_partition_table`` (best of 3 below N = 20000,
  one run above);
- max_M |log Q_M - ref_M| / max(1, |ref_M|), with ref the row-by-row
  log-space recursion written here, in double precision and, up to
  N = 16000, in long double;
- sum_n rho_n / rho - 1 of ``cycle_density_spectrum``, summed with fsum.

It then runs ``perfbench/run.py --workload recursion --trace 1`` once in
each checkout and keeps the ``build_partition_table`` layer metrics and
the accuracy metrics.  Run
both checkouts on the same machine with nothing else running.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

LADDER = (4096, 8192, 16000, 32000, 64000, 100000)
ZETA_3_2 = 2.6123753486854883
DEGENERACIES = {"below": 0.7 * ZETA_3_2, "above": 2.0 * ZETA_3_2}
LONGDOUBLE_N_MAX = 16000  # the long-double reference takes ~15 s at 16000, ~90 s at 32000
LAYER = "cycle_engine.build_partition_table"
ACCURACY = ("norm_residual_max", "norm_residual_breach", "identity_rel_err_max", "logQ_rel_err_max")


def exact_log_q(log_w, N, dtype=float):
    """The row-by-row log-space recursion, in the given float type."""
    import numpy as np

    log_w = np.asarray(log_w[:N], dtype=dtype)
    logQ = np.zeros(N + 1, dtype=dtype)
    for M in range(1, N + 1):
        terms = log_w[:M] + logQ[M - 1 :: -1]
        top = terms.max()
        logQ[M] = top + np.log(np.exp(terms - top).sum()) - np.log(dtype(M))
    return logQ


def rel_err(logQ, ref) -> float:
    import numpy as np

    return float(np.max(np.abs(logQ - ref) / np.maximum(1.0, np.abs(ref))))


def measure() -> list[dict]:
    import numpy as np

    import bosecycles as bc

    rows = []
    for N in LADDER:
        for side, rho_lam3 in DEGENERACIES.items():
            params = bc.SystemParams.from_degeneracy(3, N, rho_lam3, 1.0)
            weights = bc.WeightSequence.ideal(params)
            walls = []
            for _ in range(3 if N < 20000 else 1):
                start = time.perf_counter()
                table = bc.build_partition_table(params, weights)
                walls.append(time.perf_counter() - start)
            spectrum = bc.cycle_density_spectrum(table)
            row = {
                "N": N,
                "side": side,
                "rho_lambda3": rho_lam3,
                "build_s": min(walls),
                "logQ_rel_err_vs_exact_loop": rel_err(table.logQ, exact_log_q(weights.log_w, N)),
                "norm_residual": math.fsum(spectrum.rho_n) / spectrum.rho - 1.0,
            }
            if N <= LONGDOUBLE_N_MAX:
                ref = exact_log_q(weights.log_w, N, np.longdouble)
                row["logQ_rel_err_vs_longdouble"] = rel_err(table.logQ, ref)
            rows.append(row)
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    return rows


def run_tree(tree: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    here = Path(__file__).resolve()
    proc = subprocess.run(
        [sys.executable, str(here), "--measure"], env=env, check=True, stdout=subprocess.PIPE, text=True
    )
    rows = json.loads(proc.stdout)
    bench = ["perfbench/run.py", "--workload", "recursion", "--seed", str(seed), "--seconds", "30", "--trace", "1"]
    out = subprocess.run([sys.executable, *bench], cwd=tree, check=True, stdout=subprocess.PIPE, text=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    traced = {f"{LAYER}.{k}": metrics[f"{LAYER}.{k}"]["value"] for k in ("calls", "busy_s", "terms", "terms_per_s")}
    traced.update({f"accuracy.{k}": metrics[f"accuracy.{k}"]["value"] for k in ACCURACY})
    return {"rows": rows, "traced_recursion": {"seed": seed, **traced}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true", help="measure the importable bosecycles only")
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--seed", type=int, default=601, help="seed of the traced perfbench runs")
    parser.add_argument("-o", "--output", type=Path, default=Path("BENCH_recursion.json"))
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return
    if args.before is None or args.after is None:
        parser.error("--before and --after are required")
    import numpy as np

    result = {
        "what": "build_partition_table on ideal d = 3 torus weights, before and after, same machine and arguments",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "before": run_tree(args.before.resolve(), args.seed),
        "after": run_tree(args.after.resolve(), args.seed),
    }
    args.output.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()

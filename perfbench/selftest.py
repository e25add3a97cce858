"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both modes; that a perturbed output trips its gate and is
counted as a failed op; and that the benchmark refuses to run, without
printing a result, where there are no package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np

import oracles
import run
from workloads import BOTH_SIDES, CliSizes, RecursionSizes, SamplingSizes

TINY = {
    "recursion": RecursionSizes(ladder=((32, 2, BOTH_SIDES), (64, 2, BOTH_SIDES)), custom=(48, 1),
                                sandwich=(32, 1), scan=((16, 32), 1), reference_max_n=64),
    "sampling": SamplingSizes(jobs=((64, 8, 3), (128, 16, 1))),
    "cli-cold": CliSizes(subcommands=("mu-below", "spectrum", "merger-3"), spectrum_n=(32, 64)),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def scale_largest_rho_n(op, out):
    """One rho_n scaled by 1 + 1e-9."""
    if op.kind != "solve":
        return out
    log_w, logQ, rho_n, rho, agg = out
    rho_n = rho_n.copy()
    rho_n[np.argmax(rho_n)] *= 1 + 1e-9
    return log_w, logQ, rho_n, rho, agg


def shift_interior_logq(op, out):
    """log Q_M for 0 < M < N off by 1e-9 relative, alternating in sign: a
    recursion that loses precision below N while log Q_N and every rho_n
    stay right."""
    if op.kind != "solve":
        return out
    log_w, logQ, rho_n, rho, agg = out
    logQ = logQ.copy()
    M = np.arange(1, logQ.size - 1)
    logQ[M] += 1e-9 * np.abs(logQ[M]) * (-1.0) ** M
    return log_w, logQ, rho_n, rho, agg


def drop_a_cycle(op, out):
    table, types = out
    first = types[0]
    return table, [type(first)(first.parts[:-1] or (1,))] + types[1:]


def merger_off_by_one(op, out):
    """One graph too many in the census file."""
    if op.kind != "merger" or out.returncode != 0:
        return out
    path = op.args["out"]
    if op.args["fmt"] == "json":
        doc = json.loads(path.read_text())
        doc["total"] += 1
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines) + lines[-1])
    return out


TAMPER = {"recursion": scale_largest_rho_n, "sampling": drop_a_cycle, "cli-cold": merger_off_by_one}


def check_emits_all(spec: dict) -> None:
    for name, sizes in TINY.items():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.benchmark(name, 7, 0.01, trace, sizes=sizes)
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {details['failures']}")
            expect(result["attempted"] >= 1, f"{name}: no ops attempted")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                   f"{name}: non-numeric metric")
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics with units, "
                  f"{result['attempted']} ops, all gates pass")


def check_tampering_trips_gates() -> None:
    for name, sizes in TINY.items():
        result, details = run.benchmark(name, 7, 0.01, False, sizes=sizes, tamper=TAMPER[name])
        rate = result["metrics"]["pass_rate"]["value"]
        expect(not result["correct"] and result["failed"] >= 1 and rate < 1.0,
               f"{name}: tampered output passed its gate")
        print(f"ok  {name}: {TAMPER[name].__name__} fails {result['failed']} op(s): {details['failures'][0][:90]}")
    result, details = run.benchmark("recursion", 7, 0.01, False, sizes=TINY["recursion"], tamper=shift_interior_logq)
    expect(not result["correct"] and all("recursion identity" in f for f in details["failures"]),
           "log Q below N off by 1e-9 passed the recursion identity")
    print(f"ok  recursion: shift_interior_logq fails {result['failed']} op(s): {details['failures'][0][:90]}")
    for name in ("recursion", "cli-cold"):
        result, _ = run.benchmark(name, 7, 0.01, True, sizes=TINY[name], tamper=TAMPER[name])
        expect(result["metrics"]["error_rate"]["value"] > 0.0, f"{name}: tampered ops missing from error_rate")
        print(f"ok  {name} trace=1: error_rate = {result['metrics']['error_rate']['value']:.3f} with tampering")
    # the gate itself, at a realistic size
    import bosecycles as bc

    params = bc.SystemParams.from_degeneracy(3, 512, 2 * oracles.ZETA_3_2, 1.0)
    table = bc.build_partition_table(params, bc.WeightSequence.ideal(params))
    spectrum = bc.cycle_density_spectrum(table)
    expect(not oracles.check_spectrum(spectrum.rho_n, spectrum.rho)[1], "untouched spectrum fails")
    rho_n = spectrum.rho_n.copy()
    rho_n[np.argmax(rho_n)] *= 1 + 1e-9
    expect(bool(oracles.check_spectrum(rho_n, spectrum.rho)[1]), "scaled rho_n passes at N = 512")
    Ms = range(1, 513)
    expect(not oracles.check_identity(table.weights.log_w, table.logQ, Ms)[1], "untouched log Q fails")
    logQ = table.logQ.copy()
    logQ[300] *= 1 + 1e-9
    expect(bool(oracles.check_identity(table.weights.log_w, logQ, Ms)[1]), "log Q_300 * (1 + 1e-9) passes")
    expect(oracles.merger_total(5, 2) == 3**10, "merger total formula")
    print("ok  gates: rho_n * (1 + 1e-9) trips the normalization gate and log Q_300 * (1 + 1e-9) "
          "the recursion identity at N = 512")


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recursion",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without package sources")
    print(f"ok  no sources: exit {proc.returncode}, no result ({proc.stderr.strip()[:70]})")


def main() -> int:
    t0 = time.perf_counter()
    run.SETUP_REPS = 1
    run.PROBE_REPS = 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_emits_all(spec)
    check_tampering_trips_gates()
    check_refuses_without_sources()
    print(f"selftest passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Check that two checkouts give byte-identical CLI runs.

    python3 tools/byte_identity.py --before ../parent --after .

``--before`` and ``--after`` are source checkouts, each with ``src/``.
Every argv in ``RUNS`` runs once per checkout and per output format
(``--format csv`` and ``--format json``), each as a fresh
``python -m bosecycles`` process that imports that checkout's ``src/``,
in an empty working directory of its own.  The input files the argvs
name (weights, config, potential and profile files, and a malformed
weights file) are written once into a temporary directory that both
sides share, so the paths echoed into the outputs agree; all of it is
removed at the end.

A run is identical when its exit code, its stdout and every file it
leaves in its working directory (names and bytes) agree.  Stderr is not
compared, since an error may be reworded without changing the exit code;
a differing stderr is listed as a note.  The exit status is 1 if any run
differs.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    "weights.csv": "n,w\n" + "".join(f"{n},{1.0 / n**1.5!r}\n" for n in range(1, 9)),
    "run.cfg": "# spectrum run\nrho_lambda3 = 2.0\nN = 32\nd = 3\n",
    # a config entry goes through its flag's type, so this reaches cli._bool (a bare --cross-check does not)
    "merger.cfg": "# merger run\nvertices = 3\ncross_check = yes\n",
    "profile.csv": "r,value\n" + "".join(f"{0.1 * k:.1f},{math.exp(-0.3 * k)!r}\n" for k in range(21)),
    "tabulated.txt": "kind = tabulated\nprofile = profile.csv\nd = 3\n",
    "autocorrelation.txt": "kind = autocorrelation\nprofile = profile.csv\nd = 3\n",
    "bad_weights.csv": "n,w\n1,1.0\ntwo,0.5\n3,0.2\n4,0.1\n",
    # a box: positive but not of positive type, so its k != 0 transforms decide the exit code
    "box.csv": "r,value\n0,1\n1,1\n1.01,0\n",
    "box.txt": "kind = tabulated\nprofile = box.csv\nd = 3\n",
}

RUNS = {
    "spectrum": ["spectrum", "--rho-lambda3", "2.0", "--N", "64"],
    "spectrum-weights": ["spectrum", "--L", "2.0", "--N", "8", "--beta", "1.0", "--weights", "{weights.csv}"],
    "spectrum-config": ["spectrum", "--config", "{run.cfg}"],
    # 20 tilted blocks, the last of 4 rows, compared as a table and not only through seeded draws
    "spectrum-4100": ["spectrum", "--rho-lambda3", "1.8", "--N", "4100"],
    # a block of 2880 rows over 3968 lags: the one build here whose cross term takes the matrix products
    "spectrum-8192-above": ["spectrum", "--rho-lambda3", "5.2", "--N", "8192"],
    "scan": ["scan", "--rho-lambda3", "3.0", "--N-list", "16,64,256"],
    "mu-below": ["mu", "--rho-lambda3", "1.0"],
    "mu-at": ["mu", "--rho-lambda3", "2.6123753486854883"],
    "mu-above": ["mu", "--rho-lambda3", "5.2247506"],
    "mu-d4": ["mu", "--d", "4", "--rho", "0.01", "--beta", "1.0"],
    "mu-d4-above": ["mu", "--d", "4", "--rho", "1.0", "--beta", "1.0"],
    "mu-d5": ["mu", "--d", "5", "--rho", "0.001", "--beta", "1.0"],
    "mu-d5-above": ["mu", "--d", "5", "--rho", "1.0", "--beta", "1.0"],  # zeta(1 + d/2) at d = 5
    "bounds-inline": ["bounds", "--potential", "gaussian:1,1", "--rho", "1", "--beta", "1"],
    "bounds-inline-below": ["bounds", "--potential", "gaussian:1,1", "--rho", "0.05", "--beta", "1"],
    "bounds-d4": ["bounds", "--d", "4", "--potential", "gaussian:1,1", "--rho", "0.01", "--beta", "1"],
    "bounds-tabulated": ["bounds", "--potential", "{tabulated.txt}", "--rho", "0.05", "--beta", "1"],
    "bounds-autocorrelation": ["bounds", "--potential", "{autocorrelation.txt}", "--rho", "1", "--beta", "1"],
    "sample": ["sample", "--rho-lambda3", "3.0", "--N", "64", "--seed", "7", "--draws", "4"],
    # the streamed sampler path: custom weights, and seeded draws at two sizes on both sides of the transition
    "sample-weights": ["sample", "--L", "2", "--N", "8", "--beta", "1", "--weights", "{weights.csv}", "--draws", "3"],
    "sample-2048": ["sample", "--rho-lambda3", "3.0", "--N", "2048", "--seed", "11", "--draws", "20"],
    "sample-4096": ["sample", "--rho-lambda3", "1.8", "--N", "4096", "--seed", "12", "--draws", "20"],
    # draws whose long steps and first steps are decided on numpy partial sums, on both sides
    "sample-16000-above": ["sample", "--rho-lambda3", "5.2", "--N", "16000", "--seed", "13", "--draws", "5"],
    "sample-16000-below": ["sample", "--rho-lambda3", "1.8", "--N", "16000", "--seed", "13", "--draws", "5"],
    "merger-3": ["merger", "--vertices", "3"],
    "merger-3-cross": ["merger", "--vertices", "3", "--cross-check"],
    "merger-config-cross": ["merger", "--config", "{merger.cfg}"],
    "merger-4": ["merger", "--vertices", "4"],
    "merger-4-cross": ["merger", "--vertices", "4", "--cross-check"],
    "gain": ["gain", "--c", "0.5", "--rho-v", "2", "--rho", "1", "--num", "11"],
    "oracle": ["oracle", "--max-n", "6", "--trials", "2", "--seed", "1"],
    "oracle-exit3": ["oracle", "--max-n", "4", "--trials", "1", "--tol", "1e-18"],
    "wavefn": ["wavefn", "--n", "4", "--L", "2", "--y", "0.5", "--num", "16"],
    "weights-malformed": ["spectrum", "--rho", "1", "--N", "4", "--weights", "{bad_weights.csv}"],
    "mu-d2": ["mu", "--d", "2", "--rho", "1"],
    "mu-near-critical": ["mu", "--rho-lambda3", "2.6"],  # z in (0.99, 1): the polylog's Euler-Maclaurin sum
    "mu-closer-critical": ["mu", "--rho-lambda3", "2.61237"],  # beta mu ~ -2e-12, taken as t = -beta mu
    "mu-dilute": ["mu", "--rho", "1e-320"],  # a subnormal fugacity: polylog's series length from logs
    "bounds-box": ["bounds", "--potential", "{box.txt}", "--rho", "0.5"],
    "bounds-box-c-u": ["bounds", "--potential", "{box.txt}", "--rho", "0.5", "--c-u", "0.1"],
    "merger-5-m2": ["merger", "--vertices", "5", "--max-multiplicity", "2"],  # the cli-cold merger op
    "merger-5": ["merger", "--vertices", "5"],  # a 1M-row CSV; the JSON has no rows
    "merger-1": ["merger", "--vertices", "1"],  # zero pairs
    "merger-2-m1": ["merger", "--vertices", "2", "--max-multiplicity", "1"],
    "wavefn-xbar": ["wavefn", "--n", "3", "--L", "2", "--y", "0.5,0.1", "--xbar", "0,0.7", "--num", "16"],
    # a_num = 5: the direct theta form, shifted in all three coordinates
    "wavefn-direct": ["wavefn", "--n", "40", "--L", "2", "--y", "0.5,0.1,0.3", "--xbar", "0.3,0.7,1.1", "--num", "64"],
    # a_num = 2500 with a momentum shift: the shifted theta alone underflows
    "wavefn-long": ["wavefn", "--n", "5000", "--L", "1", "--y", "0.5", "--xbar", "1.885", "--num", "16"],
    # refused by the dimension bound, the cycle-length float check and the range table
    "bounds-d-2100": ["bounds", "--potential", "gaussian:1,1", "--rho", "1", "--d", "2100"],
    "spectrum-d-huge": ["spectrum", "--N", "5", "--rho", "1", "--d", str(10**23)],
    "wavefn-n-huge": ["wavefn", "--n", str(10**400), "--L", "1", "--y", "0.1"],
    "sample-seed-negative": ["sample", "--rho", "1", "--N", "5", "--seed", "-1"],
    # refused by the eps rule before the O(N^2) build
    "spectrum-eps-zero": ["spectrum", "--N", "64", "--rho-lambda3", "2.0", "--eps", "0"],
    # refused by the density check: N/L^3 or rho lambda^3 overflows, or rho lambda^3 underflows to 0
    "spectrum-rho-overflow": ["spectrum", "--N", "1000", "--L", "3e-103"],
    "mu-degeneracy-overflow": ["mu", "--rho", "1e308", "--beta", "1"],
    "mu-degeneracy-underflow": ["mu", "--rho", "1e-300", "--lam", "1e-50"],
    "spectrum-degeneracy-underflow": ["spectrum", "--N", "5", "--rho", "1e-300", "--lam", "1e-50"],
}
FORMATS = ("csv", "json")


def run_once(tree: Path, argv: list[str], workdir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout, stderr and the files left behind by one fresh run."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("BOSECYCLES_OUTDIR", None)  # outputs land in the working directory
    proc = subprocess.run(
        [sys.executable, "-m", "bosecycles", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(before: Path, after: Path, scratch: Path) -> int:
    inputs = scratch / "inputs"
    inputs.mkdir()
    for name, text in INPUTS.items():
        (inputs / name).write_text(text)
    differing = 0
    for name, template in RUNS.items():
        for fmt in FORMATS:
            # "{name}" stands for the input file of that name
            argv = [str(inputs / tok[1:-1]) if tok.startswith("{") else tok for tok in template]
            argv += ["--format", fmt]
            b = run_once(before, argv, scratch / f"before-{name}-{fmt}")
            a = run_once(after, argv, scratch / f"after-{name}-{fmt}")
            diffs = []
            if a[0] != b[0]:
                diffs.append(f"exit {b[0]} -> {a[0]}")
            if a[1] != b[1]:
                diffs.append("stdout")
            diffs += [f"file {f}" for f in sorted(set(a[3]) | set(b[3])) if a[3].get(f) != b[3].get(f)]
            note = "  (stderr differs)" if a[2] != b[2] else ""
            label = f"{name} [{fmt}] exit {a[0]}, {len(a[3])} file(s)"
            if diffs:
                differing += 1
                print(f"DIFF  {label}: {', '.join(diffs)}{note}")
            else:
                print(f"same  {label}{note}")
    total = len(RUNS) * len(FORMATS)
    print(f"{total - differing}/{total} runs identical")
    return 1 if differing else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, type=Path, help="reference checkout")
    ap.add_argument("--after", required=True, type=Path, help="checkout under test")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        return compare(args.before.resolve(), args.after.resolve(), Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())

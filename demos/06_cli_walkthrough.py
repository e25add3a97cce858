"""Driving everything from the command line.

Every capability of the library is exposed as a subcommand of
``bosecycles`` (equivalently ``python3 -m bosecycles``).  All outputs
are deterministic files, CSV by default or JSON with --format json,
stamped with a comment block recording the exact parameters that
produced them; relative output paths land in $BOSECYCLES_OUTDIR when it
is set.  This script runs a representative command of each family in a
temporary directory and shows what comes back.

Run with:  python3 demos/06_cli_walkthrough.py
"""

import os
import subprocess
import sys
import tempfile

# removed with everything in it when the demo exits, even on a failed step
_tmpdir = tempfile.TemporaryDirectory(prefix="bosecycles_demo_")
workdir = _tmpdir.name
env = dict(os.environ, BOSECYCLES_OUTDIR=workdir)


def run(*args, expect=0):
    """Run one CLI command, echo it and its output, return stdout."""
    cmd = [sys.executable, "-m", "bosecycles", *args]
    print(f"\n$ bosecycles {' '.join(args)}")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    if proc.returncode != expect:
        raise SystemExit(f"expected exit {expect}, got {proc.returncode}")
    return proc.stdout


def show_head(name, k=8):
    path = os.path.join(workdir, name)
    print(f"\n-- head of {name} --")
    with open(path) as fh:
        for line in fh.read().splitlines()[:k]:
            print(f"  {line}")


print("=" * 72)
print(f"outputs go to BOSECYCLES_OUTDIR = {workdir}")
print("=" * 72)

print("\n### cycle spectrum at twice the critical density")
run("spectrum", "--d", "3", "--rho-lambda3", "5.2247506", "--N", "512", "--eps", "0.01")
show_head("spectrum.csv")

print("\n### finite-size scan, config file with a flag override")
cfg = os.path.join(workdir, "scan.cfg")
with open(cfg, "w") as fh:
    fh.write("# ladder at fixed density\nd = 3\nrho-lambda3 = 5.2247506\n"
             "N-list = 64,128,256\neps = 0.01\n")
run("scan", "--config", cfg, "--N-list", "128,256,512")

print("\n### chemical potential at the critical point (expect mu = 0)")
run("mu", "--d", "3", "--rho-lambda3", "2.6123753", "--beta", "1.0")

print("\n### free-energy bounds for an inline Gaussian potential")
run("bounds", "--potential", "gaussian:0.5,0.8", "--rho", "1.0", "--beta", "1.0")

print("\n### exact cycle-type samples, reproducible by seed")
out1 = run("sample", "--d", "3", "--rho-lambda3", "5.2247506", "--N", "64",
           "--seed", "11", "--draws", "2", "-o", "s1.csv")
out2 = run("sample", "--d", "3", "--rho-lambda3", "5.2247506", "--N", "64",
           "--seed", "11", "--draws", "2", "-o", "s2.csv")
b1 = open(os.path.join(workdir, "s1.csv"), "rb").read()
b2 = open(os.path.join(workdir, "s2.csv"), "rb").read()
print(f"\n  same seed, byte-identical files: {b1 == b2}")
show_head("s1.csv", k=6)

print("\n### merger-graph census on 4 cycles")
run("merger", "--vertices", "4", "--format", "json")

print("\n### coupling gain optimizer")
run("gain", "--c", "0.5", "--rho-v", "50", "--rho", "1.0")

print("\n### recursion oracle (CI gate: nonzero exit on tolerance breach)")
run("oracle", "--max-n", "6", "--trials", "3")

print("\n### wave-function profile")
run("wavefn", "--n", "4", "--L", "4.0", "--lam", "1.0", "--y", "1.0", "--num", "9")
show_head("wavefn.csv", k=12)

print("\n### usage errors exit with code 2 and say what to fix")
run("spectrum", "--d", "1", "--rho-lambda3", "5.2", "--N", "64", expect=2)

print("""
Reading: every file starts with its provenance comments, so a result
can always be traced back to the command that made it; identical
commands give identical bytes; the oracle subcommand turns the
self-check into an exit code a CI pipeline can gate on.
""")

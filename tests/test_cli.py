"""Tests for the command-line front end."""

import csv
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bosecycles
from bosecycles import coupling
from bosecycles import cli
from bosecycles.cli import DRAWS_MAX, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, N_LIST_MAX, NUM_MAX, TRIALS_MAX, main
from bosecycles.coupling import CENSUS_MAX_MULTIPLICITY, CENSUS_MAX_VERTICES, CouplingParams, coupling_gain_rate
from bosecycles.cycle_engine import (
    _BRUTE_FORCE_N_MAX,
    N_MAX,
    CycleType,
    SystemParams,
    WeightSequence,
    build_partition_table,
    cycle_density_spectrum,
)
from bosecycles.thermo import finite_size_scan
from bosecycles.wavefunctions import CycleWaveParams, psi_shifted

ZETA32 = 2.6123753486854883


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BOSECYCLES_OUTDIR", str(tmp_path))
    return tmp_path


def read_csv(path):
    """(comments dict, header fields, data rows as string lists)."""
    comments, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            comments[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestSpectrum:
    def test_normalization_and_summary(self, outdir, capsys):
        rc = main(
            ["spectrum", "--d", "3", "--rho-lambda3", repr(2 * ZETA32), "--N", "256", "--eps", "0.01"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "macro_fraction = " in out
        assert "band_fraction = " in out
        comments, header, rows = read_csv(outdir / "spectrum.csv")
        assert comments["command"] == "spectrum"
        assert comments["N"] == "256"
        assert header == ["n", "rho_n", "rho_n_over_rho"]
        assert len(rows) == 256
        rho = float(comments["rho"])
        total = sum(float(r[1]) for r in rows)
        assert total == pytest.approx(rho, rel=1e-12)

    def test_single_particle_row(self, outdir):
        rc = main(["spectrum", "--rho-lambda3", "1.0", "--N", "1"])
        assert rc == EXIT_OK
        comments, _, rows = read_csv(outdir / "spectrum.csv")
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(float(comments["rho"]), rel=1e-12)
        assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-12)

    def test_custom_weights_pass_through(self, outdir, tmp_path):
        wfile = tmp_path / "weights.csv"
        w = [1.0 / k**2 for k in range(1, 9)]
        wfile.write_text("n,w\n" + "".join(f"{k},{w[k - 1]!r}\n" for k in range(1, 9)))
        rc = main(
            ["spectrum", "--L", "2.0", "--N", "8", "--beta", "1.0", "--weights", str(wfile)]
        )
        assert rc == EXIT_OK
        params = SystemParams(d=3, L=2.0, N=8, beta=1.0)
        table = build_partition_table(params, WeightSequence.from_weights(np.array(w)))
        expected = cycle_density_spectrum(table)
        _, _, rows = read_csv(outdir / "spectrum.csv")
        for row, ref in zip(rows, expected.rho_n):
            assert float(row[1]) == pytest.approx(ref, rel=1e-12)

    def test_json_mirror(self, outdir):
        rc = main(["spectrum", "--rho-lambda3", "1.0", "--N", "16", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads((outdir / "spectrum.json").read_text())
        assert data["config"]["command"] == "spectrum"
        assert data["config"]["N"] == 16
        assert len(data["rho_n"]) == 16
        assert sum(data["rho_n"]) == pytest.approx(data["rho"], rel=1e-12)
        assert 0.0 <= data["macro_fraction"] <= 1.0

    def test_csv_export(self, outdir):
        assert main(["spectrum", "--rho-lambda3", "2.0", "--N", "4", "--beta", "1.0"]) == EXIT_OK
        p = SystemParams.from_degeneracy(3, 4, 2.0, 1.0)
        s = cycle_density_spectrum(build_partition_table(p, WeightSequence.ideal(p)))
        lines = (outdir / "spectrum.csv").read_text().splitlines()
        assert lines[2] == "# N = 4"
        assert lines[9] == "n,rho_n,rho_n_over_rho"
        assert len(lines) == 14
        n, rho_n, frac = lines[10].split(",")
        assert int(n) == 1
        assert float(rho_n) == s.rho_n[0]
        assert float(frac) == s.fractions[0]

    def test_json_export(self, outdir):
        argv = ["spectrum", "--rho-lambda3", "2.0", "--N", "4", "--beta", "1.0", "--format", "json"]
        assert main(argv) == EXIT_OK
        p = SystemParams.from_degeneracy(3, 4, 2.0, 1.0)
        s = cycle_density_spectrum(build_partition_table(p, WeightSequence.ideal(p)))
        blob = json.loads((outdir / "spectrum.json").read_text())
        assert blob["N"] == 4
        assert blob["n"] == [1, 2, 3, 4]
        assert blob["rho_n_over_rho"] == pytest.approx(list(s.fractions))

    def test_deterministic_bytes(self, outdir):
        a, b = outdir / "a.csv", outdir / "b.csv"
        for path in (a, b):
            assert main(["spectrum", "--rho-lambda3", "1.0", "--N", "32", "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors(self, outdir):
        # over- and under-specified system
        assert main(["spectrum", "--rho", "1", "--L", "2", "--N", "8"]) == EXIT_USAGE
        assert main(["spectrum", "--rho", "1"]) == EXIT_USAGE
        assert main(["spectrum", "--N", "8"]) == EXIT_USAGE
        assert main(["spectrum", "--rho-lambda3", "1", "--N", "8", "--d", "1"]) == EXIT_USAGE
        assert (
            main(["spectrum", "--rho", "1", "--N", "8", "--beta", "1", "--lam", "1"])
            == EXIT_USAGE
        )

    def test_weight_file_errors(self, outdir, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("n,w\n1,1.0\n2,0.5\n")
        assert main(["spectrum", "--rho", "1", "--N", "4", "--weights", str(short)]) == EXIT_USAGE
        bad = tmp_path / "bad.csv"
        bad.write_text("n,w\n1,1.0\n2,-0.5\n3,1.0\n4,1.0\n")
        assert main(["spectrum", "--rho", "1", "--N", "4", "--weights", str(bad)]) == EXIT_USAGE
        assert main(["spectrum", "--rho", "1", "--N", "4", "--weights", "/nonexistent"]) == EXIT_USAGE


class TestScan:
    def test_ladder(self, outdir, capsys):
        rc = main(
            ["scan", "--rho-lambda3", repr(2 * ZETA32), "--N-list", "64,128,256", "--eps", "0.01"]
        )
        assert rc == EXIT_OK
        _, header, rows = read_csv(outdir / "scan.csv")
        assert header == ["N", "macro_fraction", "band_fraction", "condensate_estimate"]
        assert [int(r[0]) for r in rows] == [64, 128, 256]
        fracs = [float(r[1]) for r in rows]
        # above threshold the finite-size excess decays from above
        assert fracs[0] > fracs[1] > fracs[2] > 0.5
        assert capsys.readouterr().out.count("macro_fraction") == 3

    def test_json_mirror(self, outdir):
        rc = main(["scan", "--rho-lambda3", "1.0", "--N-list", "16,32", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads((outdir / "scan.json").read_text())
        assert data["N"] == [16, 32]
        assert len(data["macro_fraction"]) == 2

    def test_csv_and_json(self, outdir):
        argv = ["scan", "--rho", "0.3", "--beta", "1.0", "--N-list", "8,16", "--eps", "0.25"]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = finite_size_scan(0.3, 1.0, 3, [8, 16], eps=0.25)
        lines = (outdir / "scan.csv").read_text().splitlines()
        assert lines[3] == "# rho = 0.3"
        assert lines[7] == "N,macro_fraction,band_fraction,condensate_estimate"
        assert len(lines) == 10
        blob = json.loads((outdir / "scan.json").read_text())
        assert blob["N"] == [8, 16]
        assert blob["macro_fraction"][0] == rows[0].macro_fraction

    def test_missing_sizes(self, outdir):
        assert main(["scan", "--rho-lambda3", "1.0"]) == EXIT_USAGE


class TestMu:
    def test_threshold(self, outdir, capsys):
        rc = main(["mu", "--d", "3", "--rho-lambda3", "2.6123753"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        mu = float(next(l for l in out.splitlines() if l.startswith("mu = ")).split("=")[1])
        assert abs(mu) < 1e-8

    def test_above_threshold_saturates(self, outdir):
        rc = main(["mu", "--rho-lambda3", "5.0", "-o", str(outdir / "m.csv")])
        assert rc == EXIT_OK
        _, header, rows = read_csv(outdir / "m.csv")
        vals = dict(zip(header, (float(x) for x in rows[0])))
        assert vals["mu"] == 0.0
        assert vals["condensate_fraction"] == pytest.approx(1 - ZETA32 / 5.0, rel=1e-12)

    def test_saturated_mu_prints_positive_zero(self, outdir, capsys):
        assert main(["mu", "--rho-lambda3", "5.2247506"]) == EXIT_OK
        assert "mu = 0.0" in capsys.readouterr().out.splitlines()

    def test_below_threshold_negative(self, outdir):
        rc = main(["mu", "--rho-lambda3", "1.0", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads((outdir / "mu.json").read_text())
        assert data["mu"] < 0.0
        assert data["condensate_fraction"] == 0.0


class TestBounds:
    def test_gaussian_inline(self, outdir, capsys):
        rc = main(["bounds", "--potential", "gaussian:1,1", "--rho", "1", "--beta", "1"])
        assert rc == EXIT_OK
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("f: ")
        )
        lo, hi = (float(tok) for tok in line[3:].split("<="))
        assert lo <= hi
        _, header, rows = read_csv(outdir / "bounds.csv")
        vals = dict(zip(header, (float(x) for x in rows[0])))
        assert vals["f_lower"] == lo
        assert vals["f_tilde_lower"] <= vals["f_tilde_upper"]

    def test_potential_file_matches_inline(self, outdir, tmp_path):
        pfile = tmp_path / "pot.txt"
        pfile.write_text("kind = gaussian\ng = 1.0\nsigma = 1.0\nd = 3\n")
        a, b = outdir / "a.csv", outdir / "b.csv"
        assert main(["bounds", "--potential", "gaussian:1,1", "--rho", "1", "--beta", "1", "-o", str(a)]) == 0
        assert main(["bounds", "--potential", str(pfile), "--rho", "1", "--beta", "1", "-o", str(b)]) == 0
        _, _, ra = read_csv(a)
        _, _, rb = read_csv(b)
        assert ra == rb

    def test_usage_errors(self, outdir, tmp_path):
        assert main(["bounds", "--rho", "1", "--beta", "1"]) == EXIT_USAGE
        assert main(["bounds", "--potential", "gaussian:1", "--rho", "1", "--beta", "1"]) == EXIT_USAGE
        pfile = tmp_path / "pot1.txt"
        pfile.write_text("kind = gaussian\ng = 1.0\nsigma = 1.0\nd = 1\n")
        assert main(["bounds", "--potential", str(pfile), "--rho", "1", "--beta", "1"]) == EXIT_USAGE


class TestSample:
    def test_draws_partition_n(self, outdir):
        rc = main(["sample", "--rho-lambda3", "1.0", "--N", "64", "--seed", "7", "--draws", "4"])
        assert rc == EXIT_OK
        comments, header, rows = read_csv(outdir / "sample.csv")
        assert comments["seed"] == "7"
        assert header == ["draw", "n_cycles", "lengths"]
        assert len(rows) == 4
        for row in rows:
            lengths = [int(tok) for tok in row[2].split()]
            assert sum(lengths) == 64
            assert len(lengths) == int(row[1])

    def test_seeded_reproducibility(self, outdir):
        a, b, c = (outdir / name for name in ("a.csv", "b.csv", "c.csv"))
        args = ["sample", "--rho-lambda3", "1.0", "--N", "64", "--draws", "5"]
        assert main(args + ["--seed", "3", "-o", str(a)]) == 0
        assert main(args + ["--seed", "3", "-o", str(b)]) == 0
        assert main(args + ["--seed", "4", "-o", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestMerger:
    def test_three_vertex_census(self, outdir, capsys):
        rc = main(["merger", "--vertices", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "graphs = 64  admissible = 16" in out
        _, header, rows = read_csv(outdir / "merger.csv")
        assert header == ["m01", "m02", "m12", "delta", "K"]
        assert len(rows) == 64
        assert sum(int(r[3]) for r in rows) == 16

    def test_json_histogram(self, outdir):
        rc = main(["merger", "--vertices", "3", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads((outdir / "merger.json").read_text())
        assert data["k_histogram"] == {"0": 1, "1": 3, "2": 12}
        assert len(data["rows"]) == 64

    def test_csv_export(self, outdir):
        assert main(["merger", "--vertices", "2", "--max-multiplicity", "3"]) == EXIT_OK
        lines = (outdir / "merger.csv").read_text().splitlines()
        assert lines[1] == "# vertices = 2"
        assert lines[4] == "m01,delta,K"
        assert lines[5] == "0,1,0"
        assert lines[6] == "1,0,"  # K blank when undefined
        assert lines[7] == "2,1,1"

    def test_size_cap(self, outdir):
        assert main(["merger", "--vertices", "6"]) == EXIT_USAGE

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_census_built_once(self, outdir, monkeypatch, fmt):
        calls = []
        build = coupling._census_arrays

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(coupling, "_census_arrays", counted)
        argv = ["merger", "--vertices", "4", "--max-multiplicity", "2", "--format", fmt]
        assert main(argv) == EXIT_OK
        assert calls == [(4, 2)]


class TestMergerRender:
    """The merger files, rendered from the census arrays, against the same
    rows rendered one by one from ``census.rows()``."""

    # (4, 3) is exactly one 4096-row chunk; (5, 2) spans fifteen
    SIZES = [(1, 1), (2, 3), (3, 3), (4, 3), (5, 1), (5, 2)]

    @staticmethod
    def _run(vertices, max_mult, fmt):
        argv = ["merger", "--vertices", str(vertices), "--max-multiplicity", str(max_mult)]
        assert main(argv + ["--format", fmt]) == EXIT_OK
        config = {"command": "merger", "vertices": vertices, "max_multiplicity": max_mult,
                  "cross_check": False}
        return config, coupling.enumerate_merger_graphs(vertices, max_mult)

    @pytest.mark.parametrize("vertices,max_mult", SIZES)
    def test_csv_bytes(self, outdir, vertices, max_mult):
        config, census = self._run(vertices, max_mult, "csv")
        header = [f"m{i}{j}" for i in range(vertices) for j in range(i + 1, vertices)] + ["delta", "K"]
        want = "".join(f"# {key} = {val}\n" for key, val in config.items()) + ",".join(header) + "\n"
        want += "".join(
            ",".join(map(str, (*mults, delta, "" if K is None else K))) + "\n"
            for mults, delta, K in census.rows()
        )
        got = (outdir / "merger.csv").read_bytes()
        assert got == want.encode()
        with open(outdir / "merger.csv", newline="") as fp:
            lines = [row for row in csv.reader(fp) if not row[0].startswith("#")]
        assert lines[0] == header
        assert len(lines) - 1 == census.total

    @pytest.mark.parametrize("vertices,max_mult", SIZES)
    def test_json_bytes(self, outdir, vertices, max_mult):
        config, census = self._run(vertices, max_mult, "json")
        payload = {
            "total": census.total,
            "admissible": census.admissible,
            "k_histogram": {str(k): census.k_histogram[k] for k in sorted(census.k_histogram)},
            "rows": [{"multiplicities": list(m), "delta": d, "K": K} for m, d, K in census.rows()],
        }
        want = json.dumps({"config": config, **payload}, indent=2) + "\n"
        assert (outdir / "merger.json").read_bytes() == want.encode()


class TestGain:
    def test_sweep_and_optimum(self, outdir, capsys):
        rc = main(["gain", "--c", "0.5", "--rho-v", "2", "--rho", "1", "--num", "11"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "a_star = " in out
        _, header, rows = read_csv(outdir / "gain.csv")
        assert header == ["a", "gain", "penalty", "total"]
        assert len(rows) == 11
        rc = main(["gain", "--c", "0.5", "--rho-v", "2", "--rho", "1", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads((outdir / "gain.json").read_text())
        assert 0.0 <= data["a_star"] <= 0.5
        assert len(data["sweep"]["a"]) == 101

    def test_csv_format(self, outdir):
        assert main(["gain", "--c", "0.5", "--rho-v", "2.0", "--rho", "1.0", "--num", "5"]) == EXIT_OK
        lines = (outdir / "gain.csv").read_text().splitlines()
        assert lines[1] == "# c = 0.5"
        header = lines[9]
        assert header == "a,gain,penalty,total"
        first = lines[10].split(",")
        assert float(first[0]) == 0.0
        # repr round trip
        at_zero = CouplingParams(c=0.5, rho_v=2.0, lam=1.0, rho=1.0, d=3, a=0.0)
        assert float(first[1]) == coupling_gain_rate(at_zero)

    def test_missing_required(self, outdir):
        assert main(["gain", "--c", "0.5", "--rho", "1"]) == EXIT_USAGE


class TestOracle:
    def test_gate_passes(self, outdir, capsys):
        rc = main(["oracle", "--max-n", "6", "--trials", "2", "--seed", "1"])
        assert rc == EXIT_OK
        assert "worst_rel_err" in capsys.readouterr().out
        _, header, rows = read_csv(outdir / "oracle.csv")
        assert header == ["trial", "N", "rel_err"]
        assert len(rows) == 12
        assert all(float(r[2]) <= 1e-10 for r in rows)

    def test_gate_fails_at_absurd_tolerance(self, outdir, capsys):
        rc = main(["oracle", "--max-n", "4", "--trials", "1", "--tol", "1e-18"])
        assert rc == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


class TestWavefn:
    def test_profile_csv(self, outdir):
        rc = main(["wavefn", "--n", "4", "--L", "2", "--y", "0.5", "--num", "16"])
        assert rc == EXIT_OK
        comments, header, rows = read_csv(outdir / "wavefn.csv")
        assert comments["command"] == "wavefn"
        assert header == ["x", "re_psi", "im_psi", "abs2"]
        assert len(rows) == 16

    def test_json_consistency(self, outdir):
        rc = main(
            ["wavefn", "--n", "4", "--L", "2", "--y", "0.5,0.5", "--xbar", "0,0.3",
             "--axis", "1", "--num", "8", "--format", "json"]
        )
        assert rc == EXIT_OK
        data = json.loads((outdir / "wavefn.json").read_text())
        for re, im, a2 in zip(data["re_psi"], data["im_psi"], data["abs2"]):
            assert a2 == pytest.approx(re**2 + im**2, rel=1e-12)
        assert any(abs(im) > 1e-6 for im in data["im_psi"])

    def test_csv_format(self, outdir):
        argv = ["wavefn", "--n", "2", "--L", "1.5", "--lam", "0.8", "--y", "0.2", "--num", "8"]
        assert main(argv) == EXIT_OK
        lines = (outdir / "wavefn.csv").read_text().splitlines()
        assert lines[1] == "# n = 2"
        assert lines[8] == "x,re_psi,im_psi,abs2"
        assert len(lines) == 9 + 8
        parts = lines[9].split(",")
        val = psi_shifted(CycleWaveParams(n=2, L=1.5, lam=0.8, y=(0.2,)), (0.2,))
        assert float(parts[1]) == val.real  # repr round trip

    def test_long_shifted_cycle(self, outdir):
        # the shifted theta alone underflows here; the profile's rows stay finite
        argv = ["wavefn", "--n", "5000", "--L", "1", "--lam", "1", "--y", "0.5", "--xbar", "1.885"]
        assert main(argv) == EXIT_OK
        _, _, rows = read_csv(outdir / "wavefn.csv")
        assert len(rows) == 257
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_missing_center(self, outdir):
        assert main(["wavefn", "--n", "4", "--L", "2"]) == EXIT_USAGE


class TestConfigFile:
    def test_file_fills_and_flags_win(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_lambda3 = 1.0\nN = 16\nd = 3\n")
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK
        _, _, rows = read_csv(outdir / "spectrum.csv")
        assert len(rows) == 16
        assert main(["spectrum", "--config", str(cfg), "--N", "24"]) == EXIT_OK
        _, _, rows = read_csv(outdir / "spectrum.csv")
        assert len(rows) == 24

    def test_unknown_key(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vertices = 3\n")  # merger key, not a spectrum key
        assert main(["spectrum", "--config", str(cfg), "--rho", "1", "--N", "4"]) == EXIT_USAGE

    def test_malformed_line(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho 1.0\n")
        assert main(["spectrum", "--config", str(cfg), "--N", "4"]) == EXIT_USAGE

    def test_comments_and_blanks_ignored(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\nrho = 1.0  # density\nN = 4\n")
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_OK

    def test_entries_meet_the_flag_checks(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        with pytest.raises(SystemExit) as exc:
            main(["mu", "--rho-lambda3", "1.0", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert [p.name for p in outdir.iterdir()] == ["run.cfg"]

    def test_flags_win_over_typed_entries(self, outdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\nvertices = 2\ncross-check = yes\n")
        assert main(["merger", "--config", str(cfg), "--format", "csv"]) == EXIT_OK
        comments, header, _ = read_csv(outdir / "merger.csv")
        assert comments["vertices"] == "2"
        assert comments["cross_check"] == "True"
        assert header == ["m01", "delta", "K"]
        assert not (outdir / "merger.json").exists()


class TestFailedRuns:
    BAD_ARGVS = [
        ["gain", "--c", "0.5", "--rho-v", "2", "--rho", "1", "--num", "1"],
        ["wavefn", "--n", "4", "--L", "2", "--y", "0.5", "--num", "1"],
        ["wavefn", "--n", "4", "--L", "2", "--y", "0.5", "--axis", "3"],
    ]

    @pytest.mark.parametrize("argv", BAD_ARGVS, ids=["gain-num", "wavefn-num", "wavefn-axis"])
    def test_no_file_left_behind(self, outdir, argv):
        assert main(argv) == EXIT_USAGE
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["gain", "--c", "0.5", "--rho-v", "50", "--rho", "1"], ["wavefn", "--n", "4", "--L", "2", "--y", "0.5"]],
        ids=["gain", "wavefn"],
    )
    def test_num_above_cap_refused(self, outdir, capsys, argv):
        # the first value above the cap exits 2 before any grid is allocated
        assert main([*argv, "--num", str(NUM_MAX + 1)]) == EXIT_USAGE
        assert f"--num is capped at {NUM_MAX}" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_earlier_file_kept(self, outdir):
        target = outdir / "gain.csv"
        target.write_bytes(b"a known good file\n")
        assert main(self.BAD_ARGVS[0]) == EXIT_USAGE
        assert target.read_bytes() == b"a known good file\n"
        assert [p.name for p in outdir.iterdir()] == ["gain.csv"]

    def test_zero_particles_named(self, outdir, capsys):
        assert main(["spectrum", "--rho", "1", "--N", "0"]) == EXIT_USAGE
        assert "particle count must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--L", "1e-300", "--N", "8"],
            ["spectrum", "--L", "1e300", "--N", "8"],
            ["wavefn", "--n", "4", "--L", "1e-300", "--y", "0.1"],
        ],
        ids=["spectrum-tiny-L", "spectrum-huge-L", "wavefn-tiny-L"],
    )
    def test_box_side_out_of_float_range(self, outdir, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "box side L = " in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bounds", "--potential", "{no_g}", "--rho", "1", "--beta", "1"], "needs g = "),
            (["spectrum", "--rho", "1", "--N", "5", "--d", "0"], "dimension must be >= 1, got 0"),
            (["spectrum", "--L", "1", "--N", "5", "--lam", "1e150"], "thermal wavelength lambda = "),
            (["wavefn", "--n", "4", "--L", "1", "--y", "nan"], "must be finite"),
            (["mu", "--rho", "1", "--rho-lambda3", "1"], "give exactly one of --rho and --rho-lambda3"),
            (
                ["spectrum", "--L", "2", "--N", "3", "--weights", "{fractional_n}"],
                "{fractional_n}:3: cycle length must be an integer, got 1.5",
            ),
            (["spectrum", "--L", "2", "--N", "3", "--weights", "{repeated_n}"], "{repeated_n}:4: duplicate weight for n = 2"),
            (["bounds", "--potential", "gaussian:a,1", "--rho", "1"], "bad gaussian parameters in 'gaussian:a,1'"),
            (["sample", "--rho-lambda3", "1", "--N", "8", "--draws", "0"], "--draws must be >= 1, got 0"),
            (["oracle", "--trials", "0"], "--trials must be >= 1, got 0"),
            (["mu", "--rho", "1", "--beta=0"], "beta must be positive and finite, got 0.0"),
            (["mu", "--rho", "1", "--beta=-inf"], "beta must be positive and finite, got -inf"),
            (["mu", "--rho", "1", "--beta=inf"], "beta must be positive and finite, got inf"),
            (["mu", "--rho", "1", "--beta=nan"], "beta must be positive and finite, got nan"),
        ],
        ids=[
            "potential-without-g",
            "spectrum-d0",
            "spectrum-huge-lam",
            "wavefn-nan-y",
            "mu-rho-and-rho-lambda3",
            "weights-fractional-n",
            "weights-repeated-n",
            "gaussian-bad-number",
            "sample-zero-draws",
            "oracle-zero-trials",
            "mu-beta-zero",
            "mu-beta-negative",
            "mu-beta-inf",
            "mu-beta-nan",
        ],
    )
    def test_rejected_without_output(self, outdir, tmp_path_factory, capsys, argv, message):
        inputs = tmp_path_factory.mktemp("inputs")
        texts = {
            "no_g": "kind = gaussian\nsigma = 0.8\n",
            "fractional_n": "n,w\n1,1.0\n1.5,0.5\n2,0.3\n3,0.2\n",
            "repeated_n": "n,w\n1,1.0\n2,0.5\n2,0.4\n3,0.2\n",
        }
        paths = {name: inputs / f"{name}.txt" for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text)
        assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
        assert message.format(**paths) in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["mu", "--rho", "1", "--lam", "1e150"],
            ["gain", "--c", "0.5", "--rho-v", "50", "--rho", "1", "--lam", "1e200"],
            ["wavefn", "--n", "4", "--L", "1", "--y", "0.1", "--lam", "1e200"],
            ["bounds", "--potential", "gaussian:0.5,0.8", "--rho", "1", "--lam", "1e120"],
        ],
        ids=["mu", "gain", "wavefn", "bounds"],
    )
    def test_thermal_wavelength_out_of_float_range(self, outdir, capsys, argv):
        # lambda^2 or lambda^3 would overflow
        assert main(argv) == EXIT_USAGE
        assert "thermal wavelength lambda = " in capsys.readouterr().err
        assert list(outdir.iterdir()) == []


def _render(value) -> str:
    # the documented cell rule: float as repr, None empty, lists comma-joined
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(map(_render, value))
    return str(value)


def _json_rows(command, doc, header):
    """The data rows of a JSON output, in the CSV's column order."""
    if command == "sample":
        draws = doc["draws_lengths"]
        return [[i, len(d), " ".join(map(str, d))] for i, d in enumerate(draws, start=1)]
    if command == "merger":
        return [[*r["multiplicities"], r["delta"], r["K"]] for r in doc["rows"]]
    if command == "oracle":
        return [[r[name] for name in header] for r in doc["rows"]]
    if command in ("mu", "bounds"):
        return [[doc[name] for name in header]]
    cols = doc["sweep"] if command == "gain" else doc
    return [list(row) for row in zip(*(cols[name] for name in header))]


MIRROR_ARGVS = {
    "spectrum": ["spectrum", "--N", "8", "--rho-lambda3", "5.2"],
    "scan": ["scan", "--N-list", "8,16", "--rho-lambda3", "5.2"],
    "mu": ["mu", "--rho-lambda3", "1.0"],
    "bounds": ["bounds", "--potential", "gaussian:0.5,0.8", "--rho", "1", "--beta", "1"],
    "sample": ["sample", "--N", "16", "--rho-lambda3", "5.2", "--draws", "3", "--seed", "4"],
    "merger": ["merger", "--vertices", "3", "--max-multiplicity", "2"],
    "gain": ["gain", "--c", "0.5", "--rho-v", "50", "--rho", "1", "--num", "5"],
    "oracle": ["oracle", "--max-n", "3", "--trials", "2"],
    "wavefn": ["wavefn", "--n", "4", "--L", "2", "--y", "0.5,0.1", "--xbar", "0,0.3", "--num", "5"],
}


@pytest.mark.parametrize("command", list(MIRROR_ARGVS))
def test_csv_mirrors_json(outdir, command):
    argv = MIRROR_ARGVS[command]
    assert main(argv + ["-o", "run.csv"]) == EXIT_OK
    assert main(argv + ["--format", "json", "-o", "run.json"]) == EXIT_OK
    comments, header, rows = read_csv(outdir / "run.csv")
    doc = json.loads((outdir / "run.json").read_text())
    assert list(comments.items()) == [(key, _render(val)) for key, val in doc["config"].items()]
    assert rows == [[_render(v) for v in row] for row in _json_rows(command, doc, header)]


class TestOutputPlumbing:
    def test_outdir_env(self, outdir):
        assert main(["mu", "--rho-lambda3", "1.0"]) == EXIT_OK
        assert (outdir / "mu.csv").exists()

    def test_absolute_path_ignores_env(self, outdir, tmp_path):
        target = tmp_path / "elsewhere" / "out.csv"
        assert main(["mu", "--rho-lambda3", "1.0", "-o", str(target)]) == EXIT_OK
        assert target.exists()

    def test_symlinked_output_written_through(self, outdir):
        target = outdir / "target.csv"
        target.write_text("")
        (outdir / "link.csv").symlink_to(target)
        assert main(["mu", "--rho-lambda3", "1.0", "-o", "link.csv"]) == EXIT_OK
        assert (outdir / "link.csv").is_symlink()
        assert target.read_text().startswith("# command = mu\n")

    def test_target_not_a_regular_file_refused(self, outdir, capsys):
        (outdir / "mu.csv").mkdir()
        assert main(["mu", "--rho-lambda3", "1.0"]) == EXIT_USAGE
        assert "is not a regular file" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["mu.csv"]

    def test_module_entry_point(self, tmp_path):
        # The child gets a minimal environment, plus the directory holding
        # the bosecycles package this suite imported, so that it runs the
        # same copy whether that comes from a src/ checkout or an install.
        package_root = Path(bosecycles.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bosecycles", "mu", "--rho-lambda3", "1.0"],
            capture_output=True,
            text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(package_root),
                "BOSECYCLES_OUTDIR": str(tmp_path),
            },
        )
        assert proc.returncode == 0
        assert "mu = " in proc.stdout

    def test_import_leaves_scipy_integrate_unloaded(self):
        # the package runs on numpy alone, so a bare import loads no scipy
        # and the CLI starts fast
        package_root = Path(bosecycles.__file__).resolve().parents[1]
        code = "import sys, bosecycles; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mu", "--rho-lambda3", "1.0"],
            ["mu", "--rho-lambda3", "2.6"],  # z within 1e-2 of 1: the Euler-Maclaurin tail
            ["mu", "--rho-lambda3", "5.0"],
            ["mu", "--d", "4", "--rho", "0.01", "--beta", "1.0"],
            ["mu", "--d", "5", "--rho", "0.001", "--beta", "1.0"],
            ["bounds", "--potential", "gaussian:1,1", "--rho", "1"],
            ["bounds", "--potential", "{tabulated}", "--rho", "0.5"],
            ["bounds", "--potential", "{autocorrelation}", "--rho", "0.5"],
        ],
        ids=["mu-below", "mu-near", "mu-above", "mu-d4", "mu-d5", "bounds-gaussian",
             "bounds-tabulated", "bounds-autocorrelation"],
    )
    def test_run_leaves_scipy_unloaded(self, tmp_path, argv):
        # special functions and profile integrals are numpy-only, and the
        # package has no scipy path left
        r = np.linspace(0.0, 2.0, 21)
        rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(r, np.exp(-3.0 * r)))
        (tmp_path / "prof.csv").write_text("r,value\n" + rows)
        for kind in ("tabulated", "autocorrelation"):
            (tmp_path / f"{kind}.txt").write_text(f"kind = {kind}\nprofile = prof.csv\nd = 3\n")
        argv = [str(tmp_path / f"{a[1:-1]}.txt") if a.startswith("{") else a for a in argv]
        code = (
            "import sys; from bosecycles.cli import main; "
            f"code = main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        package_root = Path(bosecycles.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), "BOSECYCLES_OUTDIR": str(tmp_path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


class TestNonFiniteInputs:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_oracle_tolerance_must_be_finite_and_nonnegative(self, outdir, capsys, tol):
        # worst > nan and worst > inf are False, so such a gate could never fail
        argv = ["oracle", "--max-n", "3", "--trials", "1", f"--tol={tol}"]
        assert main(argv) == EXIT_USAGE
        assert "--tol must be finite and >= 0" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["mu", "--rho", "inf"],
            ["mu", "--rho-lambda3", "inf"],
            ["bounds", "--potential", "gaussian:1,1", "--rho", "inf"],
            ["scan", "--rho", "inf", "--N-list", "8"],
            ["spectrum", "--rho", "inf", "--N", "8"],
            ["gain", "--c", "0.5", "--rho-v", "inf", "--rho", "1"],
            ["gain", "--c", "0.5", "--rho-v", "50", "--rho", "inf"],
            ["gain", "--c", "0.5", "--rho-v", "50", "--rho", "1", "--c1", "inf"],
        ],
        ids=["mu", "mu-rho-lambda3", "bounds", "scan", "spectrum", "gain-rho-v", "gain-rho", "gain-c1"],
    )
    def test_infinite_density_rejected(self, outdir, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "must be positive and finite" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_nan_profile_radius_named(self, outdir, tmp_path_factory, capsys):
        # the bad row is named, not the positive-type check its NaN integrals fail
        src = tmp_path_factory.mktemp("potential")
        (src / "prof.csv").write_text("0.0,1.0\nnan,0.5\n1.0,0.0\n")
        (src / "pot.txt").write_text("kind = tabulated\nprofile = prof.csv\nd = 3\n")
        argv = ["bounds", "--potential", str(src / "pot.txt"), "--rho", "1"]
        assert main(argv) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []


class TestWorkSizeCaps:
    """Each work-size cap, tried with the first value above it: exit 2
    before any table, draw or trial, and no file."""

    def test_draws_above_cap_refused(self, outdir, capsys):
        argv = ["sample", "--rho-lambda3", "1.0", "--N", "16", "--draws", str(DRAWS_MAX + 1)]
        assert main(argv) == EXIT_USAGE
        assert f"--draws is capped at {DRAWS_MAX}" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_trials_above_cap_refused(self, outdir, capsys):
        assert main(["oracle", "--max-n", "3", "--trials", str(TRIALS_MAX + 1)]) == EXIT_USAGE
        assert f"--trials is capped at {TRIALS_MAX}" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_max_n_above_brute_force_cap_refused(self, outdir, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "build_partition_table", lambda *a: solved.append(a))
        assert main(["oracle", "--max-n", str(_BRUTE_FORCE_N_MAX + 1), "--trials", "1"]) == EXIT_USAGE
        assert f"--max-n must lie in 1..{_BRUTE_FORCE_N_MAX}" in capsys.readouterr().err
        assert solved == []
        assert list(outdir.iterdir()) == []

    def test_n_list_length_above_cap_refused(self, outdir, capsys):
        argv = ["scan", "--rho-lambda3", "1.0", "--N-list", ",".join(["8"] * (N_LIST_MAX + 1))]
        assert main(argv) == EXIT_USAGE
        assert f"--N-list is capped at {N_LIST_MAX} sizes" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv", [["spectrum"], ["sample", "--draws", "1"]], ids=["spectrum", "sample"])
    def test_n_above_cap_refused_before_any_weights(self, outdir, capsys, monkeypatch, argv):
        # the ideal weights alone would be an N-long array; a stand-in fails if asked for them
        built = []
        monkeypatch.setattr(WeightSequence, "ideal", classmethod(lambda cls, params: built.append(params)))
        assert main([*argv, "--rho", "1", "--N", str(N_MAX + 1)]) == EXIT_USAGE
        assert f"--N must lie in 1..{N_MAX}, got {N_MAX + 1}" in capsys.readouterr().err
        assert built == []
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("size", [0, N_MAX + 1])
    def test_n_list_size_out_of_range_refused_before_any_table(self, outdir, capsys, monkeypatch, size):
        # the bad size comes last; no earlier size is solved first
        scanned = []
        monkeypatch.setattr(cli, "finite_size_scan", lambda *a: scanned.append(a))
        assert main(["scan", "--rho-lambda3", "1.0", "--N-list", f"8,{size}"]) == EXIT_USAGE
        assert f"--N-list sizes must lie in 1..{N_MAX}, got {size}" in capsys.readouterr().err
        assert scanned == []
        assert list(outdir.iterdir()) == []


class TestStreamingWriter:
    """The output streams into a temporary file beside the target, which
    replaces the target only once the file is complete."""

    ARGV = ["sample", "--rho-lambda3", "1.0", "--N", "16", "--seed", "2", "--draws", "5"]

    @pytest.mark.parametrize("earlier", [False, True], ids=["new", "earlier-file"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_write_leaves_no_file(self, outdir, monkeypatch, capsys, fmt, earlier):
        target = outdir / f"sample.{fmt}"
        if earlier:
            target.write_bytes(b"a known good file\n")
        seen = []
        real = cli._cycle_types

        def sampler(table, rng):
            draws = real(table, rng)
            while True:
                seen.append(sorted(p.name for p in outdir.iterdir()))
                if len(seen) == 3:
                    raise RuntimeError("the third draw failed")
                yield next(draws)

        monkeypatch.setattr(cli, "_cycle_types", sampler)
        assert main([*self.ARGV, "--format", fmt]) == EXIT_NUMERIC
        assert "the third draw failed" in capsys.readouterr().err
        # the draws run while the temporary file is open beside the target
        temporary = [name for name in seen[-1] if name != target.name]
        assert len(temporary) == 1 and temporary[0].startswith(f".{target.name}.")
        if earlier:
            assert target.read_bytes() == b"a known good file\n"
            assert [p.name for p in outdir.iterdir()] == [target.name]
        else:
            assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o002, 0o027])
    def test_new_file_mode_follows_umask(self, outdir, umask):
        old = os.umask(umask)
        try:
            assert main(["mu", "--rho-lambda3", "1.0"]) == EXIT_OK
        finally:
            os.umask(old)
        assert stat.S_IMODE((outdir / "mu.csv").stat().st_mode) == 0o666 & ~umask

    def test_existing_file_keeps_its_mode(self, outdir):
        target = outdir / "mu.csv"
        target.write_text("")
        target.chmod(0o640)
        old = os.umask(0o002)
        try:
            assert main(["mu", "--rho-lambda3", "1.0"]) == EXIT_OK
        finally:
            os.umask(old)
        assert target.read_text().startswith("# command = mu\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


class TestSampleMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_does_not_grow_with_draws(self, outdir, monkeypatch, fmt):
        # a stand-in sampler keeps this fast: each draw is a fresh
        # 4096-part cycle type, as a real walk at N = 4096 would give
        def sampler(table, rng):
            while True:
                yield CycleType(tuple([1] * 4096))

        monkeypatch.setattr(cli, "_cycle_types", sampler)

        def peak(draws):
            argv = ["sample", "--rho-lambda3", "0.5", "--N", "4096", "--draws", str(draws), "--format", fmt]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) <= peak(20) + 2**20


# each capped flag, with the text its help must hold
CAPPED_FLAGS = {
    ("spectrum", "--N"): f"1..{N_MAX}",
    ("sample", "--N"): f"1..{N_MAX}",
    ("scan", "--N-list"): f"at most {N_LIST_MAX}, each 1..{N_MAX}",
    ("sample", "--draws"): f"max {DRAWS_MAX}",
    ("merger", "--vertices"): f"max {CENSUS_MAX_VERTICES}",
    ("merger", "--max-multiplicity"): f"max {CENSUS_MAX_MULTIPLICITY}",
    ("gain", "--num"): f"max {NUM_MAX}",
    ("wavefn", "--num"): f"max {NUM_MAX}",
    ("oracle", "--max-n"): f"max {_BRUTE_FORCE_N_MAX}",
    ("oracle", "--trials"): f"max {TRIALS_MAX}",
}


def test_help_names_each_cap():
    (subparsers,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    helps = {
        (command, flag): action.help
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
    }
    for key, text in CAPPED_FLAGS.items():
        assert text in helps[key], key

"""Each demo script runs to completion and leaves no file behind."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import bosecycles

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    # a minimal environment, plus the directory holding the bosecycles
    # package this suite imported, as in test_module_entry_point
    package_root = Path(bosecycles.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
            "BOSECYCLES_OUTDIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []

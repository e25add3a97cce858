"""Machine facts recorded with every result, read-only from /proc, /sys,
``lscpu`` and ``numpy.show_config``."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(f"{idx}/level").strip()
        kind = _read(f"{idx}/type").strip()
        size = _read(f"{idx}/size").strip()
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _mem_total_kb() -> int | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1])
    return None


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    keep = ("Architecture", "CPU(s)", "Thread(s) per core", "Core(s) per socket", "Model name",
            "L1d cache", "L2 cache", "L3 cache")
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in keep:
            out[key.strip()] = val.strip()
    return out


def _blas(numpy) -> dict:
    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError):
        pass
    # numpy's bundled OpenBLAS reports its thread count and the kernels it chose at run time
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for key, restype, syms in (
            ("threads", ctypes.c_int, ("scipy_openblas_get_num_threads64_",
                                       "openblas_get_num_threads64_", "openblas_get_num_threads")),
            ("runtime", ctypes.c_char_p, ("scipy_openblas_get_config64_",
                                          "openblas_get_config64_", "openblas_get_config")),
        ):
            fn = next((getattr(lib, sym) for sym in syms if hasattr(lib, sym)), None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else int(value)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_kb": _mem_total_kb(),
        "lscpu": _lscpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
    }

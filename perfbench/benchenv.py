"""Locate the checkout, import cgroute from its sources, describe the machine.

The benchmark always measures the code in the checkout it runs from, never
an installed copy: ``src/`` is put first on ``sys.path`` and the imported
package must resolve there.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class MissingProgram(RuntimeError):
    """The checkout holds no cgroute sources to measure."""


def load_cgroute() -> SimpleNamespace:
    """Import the checkout's cgroute modules; raise MissingProgram otherwise."""
    src = ROOT / "src"
    if not (src / "cgroute" / "__init__.py").is_file():
        raise MissingProgram(f"no cgroute sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("cgroute")
    if Path(pkg.__file__).resolve().parent != (src / "cgroute").resolve():
        raise MissingProgram(f"cgroute resolved to {pkg.__file__}, not the checkout")
    names = ("errors", "model", "pricing", "rmp", "solver", "exact", "scenario", "harness")
    return SimpleNamespace(**{n: importlib.import_module(f"cgroute.{n}") for n in names})


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What distinguishes numbers taken on one machine from another's."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }

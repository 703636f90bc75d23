"""Paths, the environment record and memory readings shared by workloads."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Everything a run writes lives here, inside the checkout: the spans
#: of traced runs are kept, each run's work directory is removed.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def program_env(work_dir: str) -> Dict[str, str]:
    """Environment for program subprocesses: the tree's sources, and
    temporary files kept inside the run's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work_dir
    return env


def fresh_interpreter_seconds(program: str, args: Sequence[str],
                              work_dir: str) -> float:
    """Seconds from spawning ``python -c program args...`` to its exit."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", program, *args], cwd=ROOT,
                   env=program_env(work_dir), check=True)
    return time.perf_counter() - started


def environment(server_pids: Iterable[int] = ()) -> Dict[str, Any]:
    """What a result depends on besides the code: recorded with each run."""
    try:
        import numpy  # noqa: F401 - availability probe only
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "repro_vectorized": os.environ.get("REPRO_VECTORIZED", "auto"),
        "server_pids": sorted(server_pids),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(parent: int) -> List[int]:
    """Live children of ``parent``, found through /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children

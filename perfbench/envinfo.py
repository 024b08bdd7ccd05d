"""The machine and software a result was measured on (read-only probes)."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def steal_ticks() -> int:
    """Host steal time of all CPUs, in clock ticks, from /proc/stat."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            return int(fields[8]) if len(fields) > 8 else 0
    return 0


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = _read(idx / "level").strip()
        kind = _read(idx / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(idx / "size").strip()
    return out


def _mem_available_mb() -> float | None:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    return None


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git directly; the benchmark may run outside git."""
    git = root / ".git"
    head = _read(git / "HEAD").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref).strip()
    if direct:
        return direct
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_available_mb": _mem_available_mb(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "mpmath": _version("mpmath"),
        "git_commit": _git_commit(root),
    }

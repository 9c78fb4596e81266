"""Measurement primitives shared by the benchmark's harness and children.

Everything here reads the host through ``/proc`` and the standard
library only, so importing this module never imports the program under
test:

* :func:`percentile` — linear-interpolation percentile in which a failed
  request's ``+inf`` latency propagates instead of being dropped;
* process-tree accounting — CPU seconds (``utime + stime`` of every live
  process in a tree, all threads included) and peak RSS (``VmHWM``),
  with :func:`reset_peak_rss` clearing the peak through
  ``/proc/<pid>/clear_refs`` when a timed phase starts;
* host state — the steal share of CPU ticks from ``/proc/stat``, a fixed
  calibration loop, and the interpreter / BLAS versions;
* :func:`wait_ready` — readiness polling of an HTTP endpoint.
"""

from __future__ import annotations

import math
import os
import platform
import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence

INF = float("inf")
CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``.

    Linear interpolation between closest ranks, as ``numpy.percentile``
    does by default.  ``+inf`` entries (failed requests) sort last and
    propagate: once the rank lands on or next to one, the result is
    ``+inf``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    a, b = data[lo], data[hi]
    if lo == hi or a == b:
        return float(a)
    return float(a + (b - a) * (pos - lo))


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# Process-tree accounting
# ---------------------------------------------------------------------------

def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the parenthesised command."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, parents before children."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue  # exited while we listed /proc
        if fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop(0)
        tree.append(pid)
        frontier.extend(sorted(children.get(pid, [])))
    return tree


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one live process, all of its threads."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def tree_cpu_seconds(pids: Sequence[int]) -> Dict[int, float]:
    """CPU seconds per pid; processes that already exited are left out."""
    out = {}
    for pid in pids:
        try:
            out[pid] = cpu_seconds(pid)
        except (OSError, ValueError):
            continue
    return out


def _status_kib(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of one process: its peak resident set, in KiB."""
    return _status_kib(pid, "VmHWM")


def tree_peak_rss_kib(pids: Sequence[int]) -> int:
    """Summed peak RSS of the live processes among ``pids``."""
    total = 0
    for pid in pids:
        try:
            total += peak_rss_kib(pid)
        except (OSError, KeyError):
            continue
    return total


def reset_peak_rss(pid: int) -> None:
    """Reset ``VmHWM`` of ``pid`` to its current RSS (``clear_refs`` 5).

    Raises ``OSError`` where the kernel refuses, so a phase never
    silently reports a peak set before it started.
    """
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


# ---------------------------------------------------------------------------
# Host state
# ---------------------------------------------------------------------------

def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of all CPU ticks between two readings that the host stole.

    Guest time is already counted inside user time, so only the first
    eight fields (user .. steal) make up the total.
    """
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


CALIBRATION_ITERATIONS = 2_000_000


def calibration_seconds(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    elapsed = time.perf_counter() - start
    if total != iterations * (iterations - 1) // 2:
        raise RuntimeError("calibration loop miscounted")
    return elapsed


def blas_info() -> Dict[str, object]:
    """numpy's BLAS build and the thread count it runs with here.

    Imports numpy, so call it only where numpy is loaded anyway.
    """
    import ctypes

    import numpy

    info: Dict[str, object] = {"numpy": numpy.__version__}
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    info["blas"] = blas.get("name")
    info["blas_version"] = blas.get("version")
    info["blas_threads"] = None
    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["blas_threads"] = int(getter())
                break
    return info


def host_metadata() -> Dict[str, object]:
    """Static facts about the host that a comparison must hold fixed."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ},
        **blas_info(),
    }


# ---------------------------------------------------------------------------
# Readiness
# ---------------------------------------------------------------------------

def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def http_status(host: str, port: int, path: str,
                timeout: float = 0.5) -> Optional[int]:
    """Status code of ``GET path``, or ``None`` when nothing answers."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                         f"Connection: close\r\n\r\n".encode())
            head = b""
            while b"\r\n" not in head:
                chunk = sock.recv(256)
                if not chunk:
                    return None
                head += chunk
    except OSError:
        return None
    parts = head.split(b"\r\n", 1)[0].split()
    if len(parts) < 2 or not parts[1].isdigit():
        return None
    return int(parts[1])


def wait_ready(host: str, port: int, path: str = "/healthz", *,
               proc=None, timeout: float = 60.0,
               interval: float = 0.003) -> float:
    """Poll ``GET path`` every ``interval`` s until it answers 200.

    Returns the ``time.monotonic()`` of the first 200.  Raises
    ``RuntimeError`` if ``proc`` (a ``Popen``) exits first or the
    deadline passes.
    """
    deadline = time.monotonic() + timeout
    while True:
        if http_status(host, port, path) == 200:
            return time.monotonic()
        if proc is not None and proc.poll() is not None:
            raise RuntimeError(
                f"process exited with code {proc.returncode} before "
                f"{path} answered 200")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{path} did not answer 200 within {timeout}s")
        time.sleep(interval)

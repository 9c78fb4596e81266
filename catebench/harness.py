"""What the workload drivers share: the run context and child processes.

Every program under test runs in a child process of its own, started
with ``PYTHONPATH`` pointing at this checkout's ``src`` and ``TMPDIR``
inside the run directory, so a run reads and writes only inside the
checkout.  Children are always waited for; a process tree that outlives
its deadline is killed and then waited for too.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from catebench import measure

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class BenchmarkError(RuntimeError):
    """The harness could not produce a result (not a failed op)."""


@dataclass
class RunContext:
    workload: str
    seed: int
    seconds: float
    trace: bool
    out: Path

    def env(self, *, with_bench: bool = False) -> Dict[str, str]:
        env = dict(os.environ)
        paths = [str(SRC)] + ([str(ROOT)] if with_bench else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        tmp = self.out / "tmp"
        tmp.mkdir(exist_ok=True)
        env["TMPDIR"] = str(tmp)
        return env

    def run_module(self, module: str, args: Sequence[str], *,
                   timeout: float, log: str) -> None:
        """Run ``python -m catebench.<module>`` to completion or raise."""
        cmd = [sys.executable, "-m", f"catebench.{module}", *args]
        proc = launch(cmd, self.env(with_bench=True), self.out / log)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop_tree(proc, sig=signal.SIGKILL)
            raise BenchmarkError(
                f"{module} exceeded its {timeout:.0f}s deadline "
                f"(log: {self.out / log})") from None
        if code != 0:
            raise BenchmarkError(
                f"{module} exited with code {code} (log: {self.out / log})")


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int
    passed: int
    metrics: Dict[str, float]
    #: Reasons the output check failed, one line each.
    problems: List[str] = field(default_factory=list)
    #: Fingerprints, reference values and raw figures for ``result.json``.
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.passed == self.attempted


def stop_tree(proc: subprocess.Popen, *, sig: int = signal.SIGINT,
              grace: float = 20.0) -> None:
    """Signal ``proc``, wait for it and for every descendant it had.

    Descendants still running once their parent has exited are orphans
    nobody else will stop (a fleet CLI interrupted before its signal
    handlers are installed leaves its replica behind): they get SIGTERM,
    then SIGKILL after the grace period.  The function returns only once
    all of them are gone.
    """
    tree = measure.process_tree(proc.pid) if proc.poll() is None else []
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            for pid in tree:
                _signal(pid, signal.SIGKILL)
            proc.wait(timeout=grace)
    orphans = [pid for pid in tree[1:] if measure.running(pid)]
    for pid in orphans:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    for pid in orphans:
        while measure.running(pid):
            if time.monotonic() > deadline:
                _signal(pid, signal.SIGKILL)
            time.sleep(0.01)


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def launch(cmd: List[str], env: Dict[str, str],
           log: Path) -> subprocess.Popen:
    """Start ``cmd`` in the checkout root with its output in ``log``."""
    with open(log, "ab") as sink:
        return subprocess.Popen(cmd, cwd=ROOT, stdout=sink, stderr=sink,
                                stdin=subprocess.DEVNULL, env=env)

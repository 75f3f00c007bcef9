"""Plumbing shared by every workload: statistics, host counters, process
hygiene for served workloads, and the result each run prints.

Nothing here imports the program under test; workloads import it after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def geomean(values) -> float:
    """Geometric mean of positive values (the mean of ratios that
    compilers' run-time comparisons use)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("geometric mean of an empty sample")
    if any(v <= 0.0 for v in data):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


# -- result of one run --------------------------------------------------------


class Outcome:
    """Operations attempted and failed in one run; a wrong output is a
    failed operation.  Keeps the first few failure reasons for the
    report."""

    MAX_REASONS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        """Count a failure of the operation already recorded, or of a
        run-level check that is not an operation of its own."""
        self.failed += 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)


class Report:
    """Metric values of one run plus the human-readable lines printed
    above the final JSON object."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str,
            samples: int | None = None) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self.metrics[name] = {"value": value, "unit": unit}
        count = "" if samples is None else f"  (n={samples})"
        self.lines.append(f"{name:48s} {value:14.6f} {unit}{count}")

    def note(self, line: str) -> None:
        self.lines.append(line)

    def result(self, outcome: Outcome) -> dict:
        return {"correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": dict(self.metrics)}

    def emit(self, outcome: Outcome, stream=None) -> None:
        stream = stream or sys.stdout
        for line in self.lines:
            print(line, file=stream)
        for reason in outcome.reasons:
            print(f"FAILED: {reason}", file=stream)
        print(f"attempted {outcome.attempted}, failed {outcome.failed}",
              file=stream)
        print(json.dumps(self.result(outcome)), file=stream, flush=True)


# -- host counters ------------------------------------------------------------

_CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq",
               "softirq", "steal")


def cpu_times() -> dict[str, int]:
    """Aggregate CPU jiffies from ``/proc/stat`` (first line)."""
    with open("/proc/stat") as handle:
        parts = handle.readline().split()
    return {name: int(v) for name, v in zip(_CPU_FIELDS, parts[1:])}


def steal_share(before: dict, after: dict) -> float:
    """Share of CPU time the hypervisor stole between two samples."""
    delta = {k: after[k] - before[k] for k in _CPU_FIELDS}
    total = sum(delta.values())
    return delta["steal"] / total if total > 0 else 0.0


#: The reference speed normalized times are quoted at: the seconds
#: :func:`probe_seconds` took on the 2-vCPU microVM the benchmark was
#: tuned on, in its most common state.
PROBE_REFERENCE_SECONDS = 0.00083


def probe_seconds() -> float:
    """Time one fixed computation: a Python loop over a small dict and a
    chain of small numpy operations, the two kinds of work the program's
    interpreter and vector backends do."""
    import numpy as np
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i * 3 % 7
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


class HostSpeed:
    """How much slower than the reference the host ran during a run.

    This host's speed drifts by up to 2x and holds a state for seconds
    to minutes, which no averaging inside a 10 s run removes.  Workloads
    call :meth:`sample` while they measure; each sample times the probe
    (best of three, so a preempted probe does not count) against the
    reference.  A probe speaks for the busy process that runs it: a vCPU
    that idled for 100 ms or more reads slow for a while, so the run's
    :meth:`factor` is the median sample.
    """

    def __init__(self):
        self.slowdowns: list[float] = []

    def sample(self) -> None:
        best = min(probe_seconds() for _ in range(3))
        self.slowdowns.append(best / PROBE_REFERENCE_SECONDS)

    def factor(self) -> float:
        return median(self.slowdowns)


#: Units of time; a run divides them by the host's slowdown factor.
TIME_UNITS = ("s", "ms", "us")


def at_reference_speed(values: dict, units: dict, factor: float,
                       raw=()) -> dict:
    """Quote a run's times (and rates) at reference host speed, except
    the metrics named in ``raw``."""
    out = {}
    for name, value in values.items():
        if name not in raw:
            if units[name] in TIME_UNITS:
                value = value / factor
            elif units[name] == "1/s":
                value = value * factor
        out[name] = value
    return out


@dataclass
class RunContext:
    """What a workload gets from the command line and the harness."""

    root: Path          # checkout root: the program is built from src/
    tmp: Path           # scratch directory inside the checkout
    env: dict           # environment for program subprocesses
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False
    outcome: Outcome = field(default_factory=Outcome)
    report: Report = field(default_factory=Report)
    host: HostSpeed = field(default_factory=HostSpeed)


# -- processes ----------------------------------------------------------------


def _proc_stat(pid: int) -> tuple[int, int] | None:
    """``(ppid, starttime)`` of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.
    fields = text[text.rfind(")") + 2:].split()
    if fields[0] == "Z":
        return None  # a zombie holds no resources; its parent reaps it
    return int(fields[1]), int(fields[19])


def _cmdline(pid: int) -> list[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return [p.decode(errors="replace")
                    for p in handle.read().split(b"\0") if p]
    except OSError:
        return []


def _pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> dict[int, int]:
    """Live processes under ``root`` (itself included): pid -> starttime.
    Found by ``ppid`` links, so children that moved to their own session
    or process group (cluster shards) are still found."""
    children: dict[int, list[int]] = {}
    starts: dict[int, int] = {}
    for pid in _pids():
        stat = _proc_stat(pid)
        if stat is None:
            continue
        children.setdefault(stat[0], []).append(pid)
        starts[pid] = stat[1]
    if root not in starts:
        return {}
    found: dict[int, int] = {}
    stack = [root]
    while stack:
        pid = stack.pop()
        if pid in found or pid not in starts:
            continue
        found[pid] = starts[pid]
        stack.extend(children.get(pid, ()))
    return found


def alive(pid: int, starttime: int) -> bool:
    """Is ``pid`` still the process first seen with ``starttime``?"""
    stat = _proc_stat(pid)
    return stat is not None and stat[1] == starttime


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def serve_processes() -> list[int]:
    """Live ``repro.cli serve`` processes (servers, shards, and their
    forked pool workers, which share the parent's command line)."""
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        args = _cmdline(pid)
        if "repro.cli" in args and "serve" in args \
                and _proc_stat(pid) is not None:
            found.append(pid)
    return found


_ANNOUNCE_RE = re.compile(r"listening on ([\w.\-]+):(\d+)")


class ServeProcess:
    """One ``frodo serve`` process tree owned by a benchmark run.

    The port is read from the announce line of ``--port 0``.  Every pid
    of the tree is recorded while it runs.  :meth:`stop` sends SIGINT
    (the CLI's graceful path for both plain and cluster servers), waits,
    then SIGKILLs any recorded process that survived.  SIGTERM is never
    sent: it leaves pool workers and whole shard groups behind.
    """

    def __init__(self, args: list[str], root: Path, env: dict):
        self.args = args
        self.root = root
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.tree: dict[int, int] = {}
        self.output: list[str] = []
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 120.0) -> int:
        cmd = [sys.executable, "-m", "repro.cli", "serve", *self.args]
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.1)
            except queue.Empty:
                continue
            if line is None:
                break
            match = _ANNOUNCE_RE.search(line)
            if match:
                self.port = int(match.group(2))
                self.record_tree()
                return self.port
        self.stop()
        tail = "".join(self.output[-10:])
        raise RuntimeError(f"frodo serve did not announce a port: {tail}")

    def wait_output(self, pattern: str, count: int,
                    timeout: float = 30.0) -> None:
        """Wait until ``count`` output lines match ``pattern``.

        ``frodo serve --cluster`` prints its shard lines after the
        announce and outside its SIGINT handler; a SIGINT in that window
        would orphan the shards, so a cluster is not ready before them.
        """
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if sum(1 for line in list(self.output)
                   if regex.search(line)) >= count:
                return
            time.sleep(0.01)
        raise RuntimeError(f"server printed fewer than {count} lines "
                           f"matching {pattern!r}")

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            if len(self.output) < 200:
                self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def record_tree(self) -> dict[int, int]:
        if self.proc is not None:
            self.tree.update(descendants(self.proc.pid))
        return self.tree

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` over the live process tree, in MB."""
        tree = self.record_tree()
        return sum(vm_hwm_kb(pid) for pid in tree) / 1024.0

    def stop(self, outcome: Outcome | None = None,
             grace: float = 30.0) -> list[int]:
        """Tear the tree down; returns pids that had to be SIGKILLed,
        each a failure of ``outcome`` when one is given."""
        if self.proc is None:
            return []
        self.record_tree()
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        # Children may still be on their way out after the main exits.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
                alive(p, s) for p, s in self.tree.items()):
            time.sleep(0.05)
        killed = []
        for pid, start in self.tree.items():
            if alive(pid, start):
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.proc = None
        if killed and outcome is not None:
            outcome.fail(f"teardown had to SIGKILL {killed}")
        return killed

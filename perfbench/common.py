"""Shared measurement helpers: clocks, process resources, statistics.

Nothing here imports the program under test, so the helpers load (and
the benchmark can fail cleanly) in a directory that holds only the
benchmark.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: How long the host-speed probe takes on the reference host.  Host-time
#: metrics are reported as if the host ran the probe in exactly this long.
PROBE_REFERENCE_S = 5e-4
_PROBE_ARRAY = np.arange(4096)


def _probe() -> int:
    """Fixed interpreter work: a dict/int loop plus list<->array conversions.

    The benchmark's workloads are dominated by the same kind of work, so
    the probe slows down and speeds up with them when the host does.
    """
    total = 0
    table = {}
    for index in range(4000):
        table[index & 255] = total
        total += index * index
    doubled = [value * 2 for value in _PROBE_ARRAY.tolist()]
    return total + int(np.asarray(doubled, dtype=np.int64).sum())


class HostSpeed:
    """Tracks the host's speed through a run with a fixed probe.

    Shared virtual machines change speed by tens of percent within
    seconds, each CPU on its own; the workloads measured here are
    CPU-bound and spread over every CPU the benchmark may use.  Each
    sample runs the probe once on every one of those CPUs (the process
    hops there and back), and each host-time figure is scaled by the mean
    probe time against :data:`PROBE_REFERENCE_S` (rates up and times down
    on a slow host).  That takes the common-mode drift out of the figures
    while a change to the program still moves them.  Samples are taken
    between operations, when the program's processes are idle.
    """

    #: Least time between two samples taken by :meth:`maybe_sample`.
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes_s: List[float] = []
        self.scale = 1.0
        self._next = 0.0

    def sample(self, repeats: int = 2) -> float:
        """Probe every CPU ``repeats`` times; the mean of per-CPU minima
        sets :attr:`scale`."""
        home = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                durations = []
                for _ in range(repeats):
                    started = time.perf_counter()
                    _probe()
                    durations.append(time.perf_counter() - started)
                per_cpu.append(min(durations))
        finally:
            os.sched_setaffinity(0, home)
        probe_s = statistics.fmean(per_cpu)
        self.probes_s.append(probe_s)
        self.scale = probe_s / PROBE_REFERENCE_S
        self._next = time.perf_counter() + self.INTERVAL_S
        return self.scale

    def maybe_sample(self) -> None:
        """Probe again when :data:`INTERVAL_S` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may contain spaces; fields after the
        # closing parenthesis are fixed-position.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def peak_rss_mb(pids=()) -> float:
    """Largest peak RSS of this process, its reaped children and ``pids``."""
    return max([own_peak_rss_mb()] + [process_peak_rss_mb(pid) for pid in pids])


def shm_segments() -> set:
    """Names of the ``psm_*`` shared-memory segments currently present."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _child_pids() -> set:
    """Process ids of this process's living children, from ``/proc``."""
    pids = set()
    try:
        tasks = os.listdir(f"/proc/{os.getpid()}/task")
    except FileNotFoundError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/{os.getpid()}/task/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return pids


def stop_children(timeout_s: float = 10.0) -> List[str]:
    """Stop and reap every process this one started; name any that needed force.

    Joins the ``multiprocessing`` children, then stops the standard
    library's shared-memory resource tracker, which would otherwise
    outlive this process until it noticed the exit, and waits for it.
    Any other child left is terminated and reaped.  Safe to call twice.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    problems = []
    for child in multiprocessing.active_children():
        child.join(timeout=timeout_s)
        if child.is_alive():
            problems.append(f"process {child.name} still running; terminated")
            child.terminate()
            child.join(timeout=timeout_s)
            if child.is_alive():
                child.kill()
                child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        problems.append(f"child process {pid} still running; terminated")
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout_s
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:  # already reaped
            pass
    return problems


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record a note when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def record(self, attempted: int, failed: int, what: str) -> None:
        """Count a batch of operations, ``failed`` of which went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what} ({failed} of {attempted})")


#: Measuring time per latency bin (see :meth:`Window.latency_ms`).
LATENCY_BIN_S = 0.5


@dataclass
class Window:
    """One measured window: per-round rates and per-operation latencies."""

    #: Per-operation latencies, scaled to the reference host speed, in
    #: bins of about :data:`LATENCY_BIN_S` of measuring time each.
    latency_bins: List[List[float]] = field(default_factory=list)
    #: Work per second of each round, scaled to the reference host speed
    #: (throughput = their median).
    rates: List[float] = field(default_factory=list)
    #: CPU seconds this process spent in the window.
    cpu_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    _bin_end: float = float("-inf")

    def add_latency(self, latency_s: float) -> None:
        """Record one operation's scaled latency in the current bin."""
        now = time.perf_counter()
        if now >= self._bin_end:
            self.latency_bins.append([])
            self._bin_end = now + LATENCY_BIN_S
        self.latency_bins[-1].append(latency_s)

    def latency_ms(self, q: float) -> float:
        """The ``q``-quantile of each bin's latencies, median over the bins.

        A host stall that spans a few bins moves this no more than it moves
        the median of per-round rates; pooled over a whole run, the stalls
        of a busy minute on the host set the tail.
        """
        return statistics.median(quantile(bin_s, q) for bin_s in self.latency_bins) * 1e3

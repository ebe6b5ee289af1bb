"""Shared pieces of the benchmark: sizes, statistics, memory, metrics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for WAL directories and unix sockets, inside the
#: checkout (the benchmark reads and writes nothing outside it).
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seconds :func:`_reference_work` takes at the reference host speed.
#: The shared host's speed drifts by up to 2x within minutes, and every
#: timing swings with it, so each end-to-end timing is reported at this
#: reference speed (see :func:`host_speed`).  Measured as the typical
#: time on a 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids) host.
REFERENCE_S = 0.005

#: Traced passes a run makes at least, so exact counters can be
#: compared pass against pass.
MIN_TRACED_PASSES = 2


class BenchmarkFailure(RuntimeError):
    """An output check failed or a run could not complete."""


def scratch_dir(name: str) -> Path:
    """A fresh per-process scratch directory under :data:`SCRATCH`."""
    path = SCRATCH / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quantile(values, q: float) -> float:
    """Nearest-rank *q*-quantile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkFailure("no samples to take a quantile of")
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def _reference_work() -> int:
    """A fixed stretch of interpreter work that allocates nothing: loop
    counters and results stay small ints, which the interpreter keeps
    preallocated.  No collection can start inside it, so the program's
    heap and garbage do not enter its cost."""
    total = 0
    for outer in range(300):
        for inner in range(250):
            total = ((total ^ inner) + outer) & 255
    return total


def host_speed() -> float:
    """The host's speed now, relative to the reference speed: above 1
    when the host runs faster than it.

    The median of three timings of :func:`_reference_work` (about 15 ms
    in all), divided into :data:`REFERENCE_S`.  A time measured at
    speed *s* is reported at the reference speed as ``time * s``; a
    rate as ``rate / s``.
    """
    seconds = []
    for repeat in range(3):
        start = time.perf_counter()
        _reference_work()
        seconds.append(time.perf_counter() - start)
    return REFERENCE_S / median(seconds)


def timed_setups(build, close) -> tuple[float, float, object]:
    """Run *build* :data:`SETUP_REPEATS` times; keep the last result.

    Each earlier result is handed to *close* before the next build, so
    every repetition starts from the same state.  Returns the median
    build time at the reference speed (each build scaled by the mean
    of the host speeds sampled just before and after it), the median
    build time as measured, and the kept result.
    """
    seconds, raw = [], []
    result = None
    for repeat in range(SETUP_REPEATS):
        if result is not None:
            close(result)
        before = host_speed()
        start = time.perf_counter()
        result = build()
        raw.append(time.perf_counter() - start)
        seconds.append(raw[-1] * (before + host_speed()) / 2)
    return median(seconds), median(raw), result


def run_passes(run_pass, seconds: float) -> list:
    """Call *run_pass* until the summed ``wall`` of its results reaches
    *seconds*; returns the results.

    The host speed is sampled before the first pass and after each
    one, outside the passes; each result's ``speed`` is the mean of
    the samples on either side of its pass.
    """
    done = []
    speed = host_speed()
    while not done or sum(item["wall"] for item in done) < seconds:
        item = run_pass()
        after = host_speed()
        item["speed"] = (speed + after) / 2
        speed = after
        done.append(item)
    return done


def alternate(plain_pass, traced_pass, seconds: float) -> tuple[list, list]:
    """The traced run of a pass-based workload: untraced and traced
    passes alternate, so drift of the host affects both sides alike,
    until each side has measured half of *seconds* (and the traced side
    made :data:`MIN_TRACED_PASSES`)."""
    plain, traced = [], []
    while (sum(item["wall"] for item in plain) < seconds / 2
           or sum(item["wall"] for item in traced) < seconds / 2
           or len(traced) < MIN_TRACED_PASSES):
        plain.append(plain_pass())
        traced.append(traced_pass())
    return plain, traced


def hwm_kb(pid: int | None = None) -> int:
    """Peak resident set (VmHWM) of *pid*, in KiB (self when None)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError as error:
        raise BenchmarkFailure(
            f"cannot read the peak RSS of process {pid}: {error}")
    raise BenchmarkFailure(f"process {pid} reports no VmHWM")


def child_pids() -> list[int]:
    """Live multiprocessing children of this process."""
    import multiprocessing
    return [child.pid for child in multiprocessing.active_children()]

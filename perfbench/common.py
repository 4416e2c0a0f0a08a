"""Helpers shared by the workloads: statistics, start-up timing, machine
context, and the time-boxed SPMD block loop."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any, Callable, Sequence

clock = time.perf_counter

#: percentiles tried for a tail figure, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def quartile_spread(xs: Sequence[float]) -> float:
    """(Q3 − Q1) / median, as the acceptance rule computes it."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def tail(xs: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile that keeps at least
    ten samples beyond it (the median when there are too few samples)."""
    ordered = sorted(xs)
    n = len(ordered)
    for pct in _TAILS:
        if n * (1.0 - pct / 100.0) >= 10.0:
            idx = min(int(pct / 100.0 * n), n - 1)
            return pct, ordered[idx]
    return 50.0, median(ordered)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def machine_context() -> dict[str, Any]:
    """What a reader needs to compare runs: CPUs, interpreter, numpy."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


#: each run is cut into this many rounds; every phase of a workload runs a
#: slice of its share in each round, so each metric samples the whole run
#: rather than one stretch of it (the machine's speed drifts over seconds)
SLICES = 5


def interleave(seconds: float, phases: Sequence[tuple[float, Callable]]
               ) -> None:
    """Call each ``phase(slice_seconds)`` once per round, for
    :data:`SLICES` rounds; ``share * seconds`` is a phase's total time."""
    for _ in range(SLICES):
        for share, phase in phases:
            phase(share * seconds / SLICES)


def run_twins(seconds: float, setup: Callable[[], list],
              measure: Callable[[int, float], dict], share_p1: float,
              unit: str) -> dict:
    """A wrapped-vs-raw workload: start-ups plus timed units at p=1 and p=2.

    ``setup()`` returns a few start-up times; ``measure(p, seconds)``
    returns ``{"wrapped": [...], "raw": [...], "attempted", "failed"}``
    with seconds per unit.  Returns the end-to-end samples (µs per unit;
    closed loop, so a unit's latency is its wrapped time).
    """
    out: dict[str, Any] = {
        "setup_s": [], "wrapped_us": [], "raw_us": [], "wrapped_p1_us": [],
        "raw_p1_us": [], "attempted": 0, "failed": 0, "unit": unit}

    def at(p: int, suffix: str) -> Callable[[float], None]:
        def phase(secs: float) -> None:
            res = measure(p, secs)
            out["wrapped" + suffix] += [t * 1e6 for t in res["wrapped"]]
            out["raw" + suffix] += [t * 1e6 for t in res["raw"]]
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
        return phase

    def start_ups(_: float) -> None:
        out["setup_s"] += setup()

    interleave(seconds, [(0.0, start_ups), (share_p1, at(1, "_p1_us")),
                         (1.0 - share_p1, at(2, "_us"))])
    out["latency_ms"] = [t / 1e3 for t in out["wrapped_us"]]
    return out


def gather_checks(res) -> dict:
    """Rank 0's samples with every rank's check counts summed."""
    out = dict(res.values[0])
    out["attempted"] = sum(v["attempted"] for v in res.values)
    out["failed"] = sum(v["failed"] for v in res.values)
    return out


def timed(sink: list, fn: Callable, *args) -> Any:
    """Call ``fn(*args)``; append its wall time to ``sink``."""
    t0 = clock()
    out = fn(*args)
    sink.append(clock() - t0)
    return out


def both(first: Callable, second: Callable, swap: bool) -> tuple:
    """Run two timed blocks, the second one first when ``swap`` (so neither
    side always runs warm); results come back in argument order."""
    if swap:
        b = second()
        return first(), b
    return first(), second()


def spawn_seconds(backend_name: str, p: int, repeats: int) -> list[float]:
    """Seconds from handing a run to the backend until the first rank
    enters user code, once per spawn."""
    from repro.mpi.backends import resolve_backend

    backend = resolve_backend(backend_name)
    out = []
    for _ in range(repeats):
        t0 = clock()
        res = backend.run(entry_time, p)
        out.append(min(res.values) - t0)
    return out


def entry_time(comm) -> float:
    """A rank body that only says when it started."""
    return clock()


def block_loop(raw, seconds: float, block: Callable[[], None],
               quiet: Callable = nullcontext) -> None:
    """Run ``block`` on every rank until rank 0's time is up.

    Rank 0 decides when to stop and tells the others with an (untimed,
    untraced) raw broadcast before each round, so every rank runs the same
    number of rounds.
    """
    end = clock() + seconds
    while True:
        with quiet():
            go = raw.bcast(clock() < end if raw.rank == 0 else None, 0)
        if not go:
            return
        block()


def same(a: Any, b: Any) -> bool:
    """Bit-identical comparison of two results.

    Arrays must agree in dtype, shape and bytes.  Scalars are compared as
    the 64-bit values they carry: the raw runtime returns a reduction of
    Python ints as ``numpy.int64`` at p >= 2, while the bindings hand back
    the caller's scalar type, so the Python wrapper type is not compared.
    """
    import numpy as np

    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray) != isinstance(b, np.ndarray):
        return False
    x, y = np.asarray(a), np.asarray(b)
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())

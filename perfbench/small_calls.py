"""``small_calls``: tiny-payload wrapped calls against their raw twin.

One *step* is a fixed mix of wrapped calls — ``allgatherv`` with explicit
``recv_counts``, ``alltoallv`` with inferred counts, a scalar ``allreduce``,
``bcast(send_recv_buf)`` and a named-parameter ``send``/``recv`` ring shift.
The raw twin issues the same raw operations by hand, including the count
exchange the bindings infer.  Blocks of wrapped steps alternate with blocks
of raw steps inside one run (thread backend), so both sides see the same
machine.  Every wrapped result must be bit-identical to the raw twin's.
"""

from __future__ import annotations

import numpy as np

from common import (block_loop, both, clock, gather_checks, run_twins, same,
                    spawn_seconds)
from spans import quiet

#: steps per timed block (about 20 ms of work at either p)
BLOCK = {1: 100, 2: 20}
#: distinct seeded inputs per rank, cycled through the steps
VARIANTS = 16
#: wrapped calls per step (the mix below)
CALLS_PER_STEP = 6


def make_inputs(seed: int, rank: int, p: int) -> list[dict]:
    rng = np.random.default_rng([seed, rank, p])
    out = []
    for _ in range(VARIANTS):
        out.append({
            "v": rng.integers(-2**40, 2**40, size=4, dtype=np.int64),
            "a": rng.integers(-2**40, 2**40, size=2 * p, dtype=np.int64),
            "x": int(rng.integers(0, 2**30)),
            "b": int(rng.integers(0, 2**30)),
        })
    return out


def steps(comm, inputs):
    """``(wrapped_step, raw_step)`` closures over one rank's inputs."""
    from repro.core import (destination, op, recv_counts, send_buf,
                            send_counts, send_recv_buf, source)
    from repro.mpi import SUM

    raw = comm.raw
    p, rank = raw.size, raw.rank
    right, left = (rank + 1) % p, (rank - 1) % p
    counts = [4] * p
    scounts = [2] * p

    def shift(v):
        comm.send(send_buf(v), destination(right))
        return comm.recv(source(left))

    def wrapped(inp):
        return (
            comm.allgatherv(send_buf(inp["v"]), recv_counts(counts)),
            comm.alltoallv(send_buf(inp["a"]), send_counts(scounts)),
            comm.allreduce(send_buf(inp["x"]), op(SUM)),
            comm.bcast(send_recv_buf(inp["b"])),
            shift(inp["v"]),
        )

    def raw_step(inp):
        gathered = raw.allgatherv(inp["v"], counts)
        rcounts = raw.alltoall(list(scounts))
        exchanged = raw.alltoallv(inp["a"], scounts, rcounts)
        total = raw.allreduce(inp["x"], SUM)
        value = raw.bcast(inp["b"] if rank == 0 else None, 0)
        raw.send(inp["v"], right, 0)
        shifted, _ = raw.recv(left, 0)
        return gathered, exchanged, total, value, shifted

    return wrapped, raw_step


def _block(step, inputs, k: int, sink: list) -> list:
    """Run ``k`` steps over the cycled inputs; append seconds per step."""
    t0 = clock()
    outs = [step(inputs[i % VARIANTS]) for i in range(k)]
    sink.append((clock() - t0) / k)
    return outs


def mix_loop(raw, seed: int, seconds: float, tracer=None) -> dict:
    """Rank body: alternate timed wrapped and raw blocks for ``seconds``.

    Returns this rank's per-step block times (seconds) and check counts.
    """
    from repro.core import Communicator, PlanCache

    comm = Communicator(raw, plan_cache=PlanCache())
    inputs = make_inputs(seed, raw.rank, raw.size)
    wrapped, raw_step = steps(comm, inputs)
    k = BLOCK[min(raw.size, 2)]
    for inp in inputs:                       # fill the plan cache, warm up
        wrapped(inp)
        raw_step(inp)
    tw: list[float] = []
    tr: list[float] = []
    checks = {"attempted": 0, "failed": 0}

    def pair():
        w, r = both(lambda: _block(wrapped, inputs, k, tw),
                     lambda: _block(raw_step, inputs, k, tr), len(tw) % 2)
        with quiet(tracer):
            for a, b in zip(w, r):
                checks["attempted"] += 1
                checks["failed"] += 0 if same(list(a), list(b)) else 1

    block_loop(raw, seconds, pair, lambda: quiet(tracer))
    return {"wrapped": tw, "raw": tr, **checks}


def measure(seed: int, seconds: float, p: int, tracer=None) -> dict:
    from repro.mpi import run_mpi

    return gather_checks(run_mpi(mix_loop, p, args=(seed, seconds, tracer)))


def run(seed: int, seconds: float, tracer=None) -> dict:
    """The workload: p=1 and p=2 mixes, plus thread start-ups."""
    return run_twins(seconds, lambda: spawn_seconds("thread", 2, 21),
                     lambda p, secs: measure(seed, secs, p, tracer), 0.3,
                     "one mix step (6 wrapped calls)")


def wrapped_loop(raw, seed: int, seconds: float, tracer=None) -> list[float]:
    """Rank body: timed blocks of wrapped steps only (the ledger's view)."""
    from repro.core import Communicator, PlanCache

    inputs = make_inputs(seed, raw.rank, raw.size)
    wrapped, _ = steps(Communicator(raw, plan_cache=PlanCache()), inputs)
    k = BLOCK[min(raw.size, 2)]
    for inp in inputs:
        wrapped(inp)
    times: list[float] = []
    block_loop(raw, seconds, lambda: _block(wrapped, inputs, k, times),
               lambda: quiet(tracer))
    return times


def cache_loop(raw, seed: int, seconds: float) -> dict:
    """Rank body: the wrapped mix with the plan cache on and off, in
    alternating blocks; returns per-step times of each side."""
    from repro.core import Communicator, PlanCache

    inputs = make_inputs(seed, raw.rank, raw.size)
    on, _ = steps(Communicator(raw, plan_cache=PlanCache()), inputs)
    off, _ = steps(Communicator(raw, plan_cache=PlanCache(enabled=False)),
                   inputs)
    k = BLOCK[min(raw.size, 2)]
    for inp in inputs:
        on(inp)
        off(inp)
    times: dict[str, list] = {"on": [], "off": []}
    block_loop(raw, seconds, lambda: both(
        lambda: _block(on, inputs, k, times["on"]),
        lambda: _block(off, inputs, k, times["off"]), len(times["on"]) % 2))
    return times


def plan_cache_saving(seed: int, seconds: float) -> tuple[float, float]:
    """(median, quartile distance) of the per-pair step-time saving of the
    plan cache at p=1, in µs."""
    import statistics

    from repro.mpi import run_mpi

    times = run_mpi(cache_loop, 1, args=(seed, seconds)).values[0]
    saving = [(off - on) * 1e6 for on, off in zip(times["on"], times["off"])]
    q1, med, q3 = statistics.quantiles(saving, n=4)
    return med, q3 - q1


def tracing_cost(seed: int, seconds: float) -> float:
    """µs per wrapped p=2 step that ``run_mpi(trace=True)`` adds: runs
    alternate untraced and traced, and the medians are compared."""
    from repro.mpi import run_mpi

    from common import median

    off: list[float] = []
    on: list[float] = []
    for _ in range(2):
        off += run_mpi(wrapped_loop, 2, args=(seed, seconds / 4)).values[0]
        on += run_mpi(wrapped_loop, 2, args=(seed, seconds / 4),
                      trace=True).values[0]
    return (median(on) - median(off)) * 1e6

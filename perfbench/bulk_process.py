"""``bulk_process``: bulk payloads over the process backend's pipes.

One *unit* is one round on the process backend: for each of a 1 MiB and an
8 MiB int64 array, a wrapped ``alltoallv`` (even split, counts inferred)
and a wrapped ``send``/``recv`` ring shift.  The raw twin runs the same raw
operations with the explicit count exchange.  Pickling and the pipes do
nearly all the work, so this workload exercises the transport and bypasses
the binding.  Each received array must equal what its sender sent, and the
wrapped results must be bit-identical to the raw twin's.

``bandwidth_gbs`` is a pickle+pipe transport rate (payload bytes delivered
to other ranks per wall second), not a memory-bandwidth figure: the
payloads sit far below four times the last-level cache.
"""

from __future__ import annotations

import numpy as np

from common import (block_loop, both, gather_checks, run_twins, same,
                    spawn_seconds, timed)
from spans import quiet

MIB = 2 ** 20
SIZES = (1 * MIB, 8 * MIB)
#: distinct seeded arrays per (rank, size), cycled through the rounds
VARIANTS = 2


def make_arrays(seed: int, rank: int, p: int) -> dict[int, list]:
    out = {}
    for size in SIZES:
        rng = np.random.default_rng([seed, rank, p, size])
        out[size] = [rng.integers(-2 ** 62, 2 ** 62, size=size // 8,
                                  dtype=np.int64) for _ in range(VARIANTS)]
    return out


def delivered_bytes(p: int) -> int:
    """Payload bytes one round delivers to *other* ranks, all ranks summed."""
    if p == 1:
        return 0
    # alltoallv: each rank keeps 1/p of its buffer; send/recv: all of it
    return sum(size * (p - 1) + size * p for size in SIZES)


def round_loop(raw, seed: int, seconds: float, tracer=None) -> dict:
    """Rank body (runs in a child process): timed wrapped/raw rounds."""
    from repro.core import (Communicator, PlanCache, destination, send_buf,
                            send_counts, source)

    if tracer is not None:
        tracer.reset()              # forked: drop the parent's spans
    comm = Communicator(raw, plan_cache=PlanCache())
    p, rank = raw.size, raw.rank
    right, left = (rank + 1) % p, (rank - 1) % p
    senders = [make_arrays(seed, r, p) for r in range(p)]
    mine, theirs = senders[rank], senders[left]
    tw: list[float] = []
    tr: list[float] = []
    checks = {"attempted": 0, "failed": 0}

    def split(n):
        return [n // p + (1 if r < n % p else 0) for r in range(p)]

    def wrapped(i):
        outs = []
        for size in SIZES:
            a = mine[size][i]
            outs.append(comm.alltoallv(send_buf(a), send_counts(split(len(a)))))
            comm.send(send_buf(a), destination(right))
            outs.append(comm.recv(source(left)))
        return outs

    def raw_round(i):
        outs = []
        for size in SIZES:
            a = mine[size][i]
            scounts = split(len(a))
            rcounts = raw.alltoall(list(scounts))
            outs.append(raw.alltoallv(a, scounts, rcounts))
            raw.send(a, right, 0)
            outs.append(raw.recv(left, 0)[0])
        return outs

    def expected(i):
        outs = []
        for size in SIZES:
            n = size // 8
            pieces = []
            for r in range(p):
                counts = split(n)
                lo = sum(counts[:rank])
                pieces.append(senders[r][size][i][lo:lo + counts[rank]])
            outs.append(np.concatenate(pieces))
            outs.append(theirs[size][i])
        return outs

    def pair():
        i = len(tw) % VARIANTS
        w, r = both(lambda: timed(tw, wrapped, i),
                    lambda: timed(tr, raw_round, i), len(tw) % 2)
        with quiet(tracer):
            want = expected(i)
            for got in (w, r):
                checks["attempted"] += 1
                if not (same(got, want) and same(w, r)):
                    checks["failed"] += 1

    wrapped(0)
    raw_round(0)
    block_loop(raw, seconds, pair, lambda: quiet(tracer))
    out = {"wrapped": tw, "raw": tr, **checks}
    if tracer is not None:
        out["spans"] = tracer.snapshot()
    return out


def measure(seed: int, seconds: float, p: int, tracer=None) -> dict:
    from repro.mpi import run_mpi

    res = run_mpi(round_loop, p, args=(seed, seconds, tracer),
                  backend="process")
    if tracer is not None:
        for v in res.values:
            tracer.absorb(v["spans"])
    return gather_checks(res)


def run(seed: int, seconds: float, tracer=None) -> dict:
    return run_twins(seconds, lambda: spawn_seconds("process", 2, 13),
                     lambda p, secs: measure(seed, secs, p, tracer), 0.25,
                     "one round (alltoallv + send/recv of 1 MiB and 8 MiB)")


def _one_round(raw, seed: int) -> None:
    from repro.core import Communicator, PlanCache, send_buf, send_counts

    comm = Communicator(raw, plan_cache=PlanCache())
    p = raw.size
    for size in SIZES:
        a = make_arrays(seed, raw.rank, p)[size][0]
        comm.alltoallv(send_buf(a), send_counts([len(a) // p] * p))


def layer_metrics(seed: int, seconds: float, tracer) -> tuple[dict, dict]:
    """Process start-up, and the pipe's send and receive-wait cost per MiB
    as the children measured it."""
    from repro.mpi import run_mpi

    from common import median
    from spans import diff, layer_totals

    spawn = median(spawn_seconds("process", 2, 21)) * 1e3
    before = tracer.snapshot()
    res = measure(seed, seconds, 2, tracer)
    spans = diff(tracer.snapshot(), before)
    send = layer_totals(spans, "process", ("pipe_send",))
    mib = send[3] / MIB
    wait = layer_totals(spans, "p2p", ("wait",))
    virtual = run_mpi(_one_round, 2, args=(seed,), backend="process")
    return {
        "process.spawn_ms": spawn,
        "process.send_us_per_mib": send[1] * 1e6 / mib,
        "process.recv_wait_us_per_mib": wait[1] * 1e6 / mib,
        "virtual_s": virtual.max_time,
    }, {"attempted": res["attempted"], "failed": res["failed"]}

"""``samplesort``: the paper's Fig. 8 application on the thread backend.

One *unit* is one distributed sort of ``2**19`` seeded int64 keys per rank:
``sample_sort_kamping`` (about six wrapped calls) against its hand-written
twin ``sample_sort_mpi`` on the same fresh input.  Local sorting and bulk
payload copies dominate, so a binding change should not move this workload;
a payload-path change that costs the thread backend should.  Every sort is
checked: globally sorted, a permutation of the input (length plus two
wrapping checksums), and identical between the two implementations.
"""

from __future__ import annotations

import numpy as np

from common import (block_loop, both, gather_checks, run_twins, spawn_seconds,
                    timed)
from spans import quiet

KEYS_PER_RANK = 2 ** 19


def make_input(seed: int, rank: int, p: int, batch: int, i: int
               ) -> np.ndarray:
    rng = np.random.default_rng([seed, rank, p, batch, i])
    return rng.integers(-2 ** 62, 2 ** 62, size=KEYS_PER_RANK, dtype=np.int64)


def _digest(x: np.ndarray) -> tuple[int, int, int]:
    u = x.view(np.uint64)
    return len(x), int(np.sum(u, dtype=np.uint64)), int(
        np.sum(u * u, dtype=np.uint64))


def check_sort(raw, data: np.ndarray, out: np.ndarray) -> bool:
    """Globally sorted and a permutation of the input (untimed raw ops)."""
    local_ok = bool(len(out) == 0 or (np.diff(out) >= 0).all())
    ends = (int(out[0]), int(out[-1])) if len(out) else None
    rows = raw.allgather((local_ok, ends, _digest(data), _digest(out)))
    if raw.rank != 0:
        return True
    mask = 2 ** 64 - 1
    d_in = [sum(r[2][i] for r in rows) & mask for i in range(3)]
    d_out = [sum(r[3][i] for r in rows) & mask for i in range(3)]
    bounds = [r[1] for r in rows if r[1] is not None]
    ordered = all(a[1] <= b[0] for a, b in zip(bounds, bounds[1:]))
    return d_in == d_out and ordered and all(r[0] for r in rows)


def sort_loop(raw, seed: int, batch: int, seconds: float, tracer=None
              ) -> dict:
    """Rank body: alternate wrapped and raw sorts of fresh inputs."""
    from repro.apps.sorting.sample_sort import (sample_sort_kamping,
                                                sample_sort_mpi)
    from repro.core import Communicator, PlanCache
    from repro.mpi import MIN

    comm = Communicator(raw, plan_cache=PlanCache())
    p = raw.size
    tw: list[float] = []
    tr: list[float] = []
    checks = {"attempted": 0, "failed": 0}

    def pair():
        i = len(tw)
        with quiet(tracer):
            data = make_input(seed, raw.rank, p, batch, i)
        w, r = both(lambda: timed(tw, sample_sort_kamping, comm, data),
                    lambda: timed(tr, sample_sort_mpi, raw, data), i % 2)
        with quiet(tracer):
            twins = raw.allreduce(int(np.array_equal(w, r)), MIN)
            for out in (w, r):
                ok = check_sort(raw, data, out) and twins == 1
                if raw.rank == 0:
                    checks["attempted"] += 1
                    checks["failed"] += 0 if ok else 1

    sample_sort_kamping(comm, make_input(seed, raw.rank, p, 0, 0))  # warm-up
    block_loop(raw, seconds, pair, lambda: quiet(tracer))
    return {"wrapped": tw, "raw": tr, **checks}


def measure(seed: int, batch: int, seconds: float, p: int, tracer=None
            ) -> dict:
    """Sorts of the seeded inputs of ``batch`` at ``p`` ranks."""
    from repro.mpi import run_mpi

    return gather_checks(run_mpi(sort_loop, p,
                                 args=(seed, batch, seconds, tracer)))


def run(seed: int, seconds: float, tracer=None) -> dict:
    batches = iter(range(1, 2 ** 31))      # fresh inputs in every slice
    return run_twins(
        seconds, lambda: spawn_seconds("thread", 2, 21),
        lambda p, secs: measure(seed, next(batches), secs, p, tracer), 0.3,
        f"one sort of {KEYS_PER_RANK} keys per rank")


def _one_sort(raw, seed: int) -> np.ndarray:
    from repro.apps.sorting.sample_sort import sample_sort_kamping
    from repro.core import Communicator, PlanCache

    comm = Communicator(raw, plan_cache=PlanCache())
    return sample_sort_kamping(comm,
                               make_input(seed, raw.rank, raw.size, 0, 0))


def layer_metrics(seed: int, seconds: float, tracer) -> tuple[dict, dict]:
    """The sort helpers' time per sort (either implementation, per rank),
    and the exact bytes and virtual makespan of one seeded sort at p=2."""
    from repro.mpi import run_mpi

    from spans import diff, layer_totals

    before = tracer.snapshot()
    res = measure(seed, 0, seconds, 2, tracer)
    spans = diff(tracer.snapshot(), before)
    per_sort = 1.0 / (2 * (len(res["wrapped"]) + len(res["raw"])))

    def helper(*names):
        return layer_totals(spans, "samplesort", names)[1] * per_sort

    before = tracer.snapshot()
    exact = run_mpi(_one_sort, 2, args=(seed,))
    moved = layer_totals(diff(tracer.snapshot(), before), "p2p",
                         ("deposit",))[3]
    return {
        "samplesort.splitter_s": helper("draw_samples", "select_splitters"),
        "samplesort.bucket_s": helper("build_buckets"),
        "samplesort.local_sort_s": helper("local_sort"),
        "samplesort.exchange_s": layer_totals(spans, "rawcomm")[1] * per_sort,
        "samplesort.exchange_bytes": moved,
        "virtual_s": exact.max_time,
    }, {"attempted": res["attempted"], "failed": res["failed"]}

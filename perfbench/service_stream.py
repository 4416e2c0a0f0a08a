"""``service_stream``: a job stream through ``repro.service``.

A ``Cluster(2)`` serves one client thread.  The job mix is one third scalar
``submit_bcast``, one third ``submit_allreduce`` of 8 values and one third
``submit(fn)`` running a few wrapped collectives, in a seeded order.

- **Burst phase** (closed loop, ``hold_jobs=True`` then release): the
  dispatcher finds a full queue, so batching does most of the work.  One
  *unit* is one job of a drained burst (drain wall time / jobs).
- **Open-loop phase**: seeded Poisson arrivals at :data:`OPEN_RATE` jobs/s.
  Each job is timed from when it was due until it settled, and the
  generator's lateness is reported.  Few jobs find a companion in the queue,
  so batching rarely helps.
- **Raw twin**: the same job bodies run directly on the raw runtime in one
  ``run_mpi`` (no queue, lease or batching), closed loop.

Every job result must equal its expected value; a rejected submission
(``ClusterSaturated``) counts as a failure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from common import block_loop, clock, entry_time, interleave, median
from spans import quiet

#: open-loop arrival rate (jobs/s).  Measured on a 2-vCPU Xeon with the
#: process pinned to one CPU: a drained burst runs about 3400 jobs/s with
#: batching and about 1700 jobs/s with ``batch_limit=1``.  An open loop
#: rarely batches, so the capacity it meets is the unbatched one; at 1000
#: jobs/s it already sat at its knee (median latency 1.6-2.5 ms over five
#: seeds), while 400-700 jobs/s held steady (1.1-1.4 ms).  600 jobs/s is
#: about a third of the unbatched capacity.
OPEN_RATE = 600.0
#: jobs per drained burst
BURST = 96
#: jobs per raw-twin block
RAW_BLOCK = 60


def make_jobs(seed: int, n: int) -> list[tuple]:
    """A seeded job stream: ``("bcast", v)``, ``("allreduce", values)`` or
    ``("call", x)``, one third each."""
    rng = np.random.default_rng([seed, n])
    kinds = rng.permutation(np.arange(n) % 3)
    jobs = []
    for kind in kinds:
        if kind == 0:
            jobs.append(("bcast", int(rng.integers(0, 2 ** 40))))
        elif kind == 1:
            jobs.append(("allreduce", tuple(
                int(v) for v in rng.integers(0, 2 ** 40, size=8))))
        else:
            jobs.append(("call", int(rng.integers(0, 2 ** 20))))
    return jobs


def call_job(comm, x: int) -> int:
    """The ``submit(fn)`` job body: a few wrapped collectives."""
    from repro.core import op, send_buf
    from repro.mpi import SUM

    total = comm.allreduce(send_buf(x + comm.rank), op(SUM))
    gathered = comm.allgatherv(
        send_buf(np.array([x, comm.rank], dtype=np.int64)))
    return int(total) + int(gathered.sum())


def expected(job: tuple, p: int) -> int:
    kind, arg = job
    if kind == "bcast":
        return arg
    if kind == "allreduce":
        return sum(arg)
    ranks = p * (p - 1) // 2
    return 2 * p * arg + 2 * ranks


def submit(cluster, job: tuple):
    from repro.mpi import SUM

    kind, arg = job
    if kind == "bcast":
        return cluster.submit_bcast(arg)
    if kind == "allreduce":
        return cluster.submit_allreduce(arg, op=SUM)
    return cluster.submit(call_job, arg)


def _cluster(p: int, **kw):
    from repro.service import Cluster

    return Cluster(p, queue_depth=4096, **kw)


def setup_seconds(repeats: int) -> list[float]:
    """Cluster start until the first rank enters user code."""
    out = []
    for _ in range(repeats):
        t0 = clock()
        with _cluster(2) as cluster:
            entered = cluster.submit(entry_time).result(60)
        out.append(entered - t0)
    return out


def burst(seed: int, p: int, index: int, checks: dict) -> tuple[float, dict]:
    """Drain one held burst; returns (seconds per job, cluster stats)."""
    jobs = make_jobs(seed * 1000 + index, BURST)
    with _cluster(p, hold_jobs=True) as cluster:
        handles = [submit(cluster, job) for job in jobs]
        t0 = clock()
        cluster.release_jobs()
        for handle in handles:
            handle.exception(60)                    # wait until settled
        per_job = (clock() - t0) / len(jobs)
        stats = dict(cluster.stats)
        stats["virtual_s"] = max(c.now for c in cluster.machine.clocks)
    _count(checks, [h.exception() is None and h.result() == expected(j, p)
                    for h, j in zip(handles, jobs)])
    return per_job, stats


def _count(checks: dict, oks) -> None:
    for ok in oks:
        checks["attempted"] += 1
        checks["failed"] += 0 if ok else 1


def bursts(seed: int, p: int, seconds: float, checks: dict, first: int = 0
           ) -> tuple[list, int, int]:
    """Drain bursts ``first, first+1, ...`` for ``seconds`` (at least one);
    returns (seconds per job of each burst, jobs, groups)."""
    times, groups = [], 0
    end = clock() + seconds
    while clock() < end or not times:
        per_job, stats = burst(seed, p, first + len(times), checks)
        times.append(per_job)
        groups += stats["groups"]
    return times, BURST * len(times), groups


def open_loop(seed: int, seconds: float, checks: dict, part: int = 0) -> dict:
    """Seeded Poisson arrivals at :data:`OPEN_RATE` from one client thread;
    ``part`` numbers the stretches of one run's arrival stream."""
    from repro.service import ClusterSaturated

    rng = np.random.default_rng([seed, part, 7])
    n = max(int(OPEN_RATE * seconds), 20)
    gaps = rng.exponential(1.0 / OPEN_RATE, size=n)
    jobs = make_jobs(seed * 1000 + part, n)
    latency, lateness, rejected = [], [], 0
    with _cluster(2) as cluster:
        cluster.submit(entry_time).result(60)       # ranks are up
        due = clock() + 0.01 + np.cumsum(gaps)
        pending: list[tuple] = []                   # (due, job, handle)
        i = 0
        while i < n or pending:
            now = clock()
            if i < n and now >= due[i]:
                try:
                    handle = submit(cluster, jobs[i])
                except ClusterSaturated:
                    rejected += 1
                    _count(checks, [False])
                else:
                    pending.append((due[i], jobs[i], handle))
                lateness.append(clock() - due[i])
                i += 1
                continue
            wait = due[i] - now if i < n else 60.0
            if not pending:
                time.sleep(wait)
                continue
            try:
                pending[0][2].exception(wait)
            except TimeoutError:
                continue
            settled = clock()
            still = []
            for d, job, handle in pending:
                if handle.done():
                    latency.append(settled - d)
                    ok = (handle.exception() is None
                          and handle.result() == expected(job, 2))
                    _count(checks, [ok])
                else:
                    still.append((d, job, handle))
            pending = still
        stats = dict(cluster.stats)
    return {"latency": latency, "lateness": lateness, "rejected": rejected,
            "jobs_per_group": n / max(stats["groups"] - 1, 1)}


def raw_loop(raw, seed: int, seconds: float, tracer=None) -> dict:
    """Rank body: the job bodies on the raw runtime, closed loop."""
    from repro.mpi import SUM

    jobs = make_jobs(seed, RAW_BLOCK)
    p, rank = raw.size, raw.rank
    times: list[float] = []
    checks = {"attempted": 0, "failed": 0}

    def one(job):
        kind, arg = job
        if kind == "bcast":
            return raw.bcast(arg if rank == 0 else None, 0)
        if kind == "allreduce":
            return int(raw.allreduce(sum(arg[rank::p]), SUM))
        total = raw.allreduce(arg + rank, SUM)
        mine = np.array([arg, rank], dtype=np.int64)
        counts = raw.allgather(len(mine))
        gathered = raw.allgatherv(mine, counts)
        return int(total) + int(gathered.sum())

    def block():
        t0 = clock()
        results = [one(job) for job in jobs]
        times.append((clock() - t0) / len(jobs))
        if rank == 0:
            _count(checks, [r == expected(j, p)
                            for r, j in zip(results, jobs)])

    block()
    block_loop(raw, seconds, block, lambda: quiet(tracer))
    return {"raw": times[1:], **checks}


def raw_twin(seed: int, seconds: float, p: int, checks: dict,
             tracer=None) -> list[float]:
    from repro.mpi import run_mpi

    res = run_mpi(raw_loop, p, args=(seed, seconds, tracer))
    for v in res.values:
        checks["attempted"] += v["attempted"]
        checks["failed"] += v["failed"]
    return res.values[0]["raw"]


def run(seed: int, seconds: float, tracer=None) -> dict:
    checks = {"attempted": 0, "failed": 0}
    out = {"setup_s": [], "wrapped_us": [], "raw_us": [], "wrapped_p1_us": [],
           "raw_p1_us": [], "latency_ms": [], "lateness_ms": [],
           "rejected": 0, "burst": [0, 0], "open": [0, 0]}

    def setup(_):
        out["setup_s"] += setup_seconds(4)

    def drained(p, key):
        def phase(secs):
            times, jobs, groups = bursts(seed, p, secs, checks,
                                         first=len(out[key]))
            out[key] += [t * 1e6 for t in times]
            if p == 2:
                out["burst"][0] += jobs
                out["burst"][1] += groups
        return phase

    def raw(p, key):
        def phase(secs):
            out[key] += [t * 1e6 for t in
                         raw_twin(seed, secs, p, checks, tracer)]
        return phase

    def arrivals(secs):
        loop = open_loop(seed, secs, checks, part=out["open"][0])
        out["latency_ms"] += [t * 1e3 for t in loop["latency"]]
        out["lateness_ms"] += [t * 1e3 for t in loop["lateness"]]
        out["rejected"] += loop["rejected"]
        out["open"][0] += 1
        out["open"][1] += loop["jobs_per_group"]

    interleave(seconds, [(0.0, setup), (0.2, drained(2, "wrapped_us")),
                         (0.1, drained(1, "wrapped_p1_us")),
                         (0.1, raw(2, "raw_us")), (0.1, raw(1, "raw_p1_us")),
                         (0.45, arrivals)])
    out.update(checks)
    out["unit"] = "one job of a drained burst (open loop: due to settled)"
    out["burst_jobs_per_group"] = out["burst"][0] / out["burst"][1]
    out["open_jobs_per_group"] = out["open"][1] / out["open"][0]
    return out


@contextmanager
def job_clock():
    """Stamp each job when queued, popped and settled (traced runs only).

    Yields ``{"queued": {id: t}, "popped": {id: t}, "settled": {id: t}}``.
    """
    from repro.service import jobs as service_jobs

    stamps: dict[str, dict] = {"queued": {}, "popped": {}, "settled": {}}
    queue_submit = service_jobs.JobQueue.submit
    pop_group = service_jobs.JobQueue.pop_group
    settle = service_jobs.JobHandle._settle

    def stamped_submit(self, job):
        stamps["queued"][job.job_id] = clock()
        return queue_submit(self, job)

    def stamped_pop(self, *args, **kwargs):
        group = pop_group(self, *args, **kwargs)
        now = clock()
        for job in group:
            stamps["popped"][job.job_id] = now
        return group

    def stamped_settle(self, outcome):
        stamps["settled"].setdefault(self.job_id, clock())
        return settle(self, outcome)

    service_jobs.JobQueue.submit = stamped_submit
    service_jobs.JobQueue.pop_group = stamped_pop
    service_jobs.JobHandle._settle = stamped_settle
    try:
        yield stamps
    finally:
        service_jobs.JobQueue.submit = queue_submit
        service_jobs.JobQueue.pop_group = pop_group
        service_jobs.JobHandle._settle = settle


def job_phases(stamps: dict) -> tuple[float, float]:
    """Median (queue wait, run) in ms over the stamped jobs."""
    waits, runs = [], []
    for job_id, popped in stamps["popped"].items():
        queued = stamps["queued"].get(job_id)
        settled = stamps["settled"].get(job_id)
        if queued is not None and settled is not None:
            waits.append((popped - queued) * 1e3)
            runs.append((settled - popped) * 1e3)
    return median(waits), median(runs)


def layer_metrics(seed: int, seconds: float, tracer) -> tuple[dict, dict]:
    """Client submit cost, per-job queue wait and run time (open loop),
    batching ratio (burst), rejections, and the virtual makespan of one
    seeded burst."""
    from spans import diff, layer_totals

    checks = {"attempted": 0, "failed": 0}
    before = tracer.snapshot()
    with job_clock() as stamps:
        loop = open_loop(seed, 0.6 * seconds, checks)
    submit = layer_totals(diff(tracer.snapshot(), before), "service",
                          ("submit",))
    queue_wait, run_ms = job_phases(stamps)
    _, jobs, groups = bursts(seed, 2, 0.4 * seconds, checks)
    _, stats = burst(seed, 2, 0, checks)
    return {
        "service.submit_us": submit[1] * 1e6 / submit[0],
        "service.queue_wait_ms": queue_wait,
        "service.run_ms": run_ms,
        "service.jobs_per_group": jobs / groups,
        "service.rejected": loop["rejected"],
        "virtual_s": stats["virtual_s"],
    }, checks

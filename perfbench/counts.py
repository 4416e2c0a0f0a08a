"""Untimed exact-count pass over the ``small_calls`` mix.

At p ∈ {1, 2, 4, 8} (thread backend, no timing), a fixed number of wrapped
steps runs with a fresh plan cache and an engine that records every
:class:`~repro.mpi.engine.Decision`.  The pass counts raw operations per
wrapped call (the PMPI counters: the paper's "no hidden calls"), mailbox
messages and bytes per wrapped call, plan-cache hits and compilations, and
the engine's decision sources per operation.  It runs twice; any difference
between the two runs is a failure.  These are counts a later change may cite
as counts, not as speed-ups.
"""

from __future__ import annotations

from collections import Counter

from small_calls import CALLS_PER_STEP, VARIANTS, make_inputs, steps
from spans import diff, layer_totals

PS = (1, 2, 4, 8)


def _body(raw, seed: int, cache) -> None:
    from repro.core import Communicator

    comm = Communicator(raw, plan_cache=cache)
    inputs = make_inputs(seed, raw.rank, raw.size)
    wrapped, _ = steps(comm, inputs)
    for inp in inputs:
        wrapped(inp)


def count_once(seed: int, p: int, tracer) -> dict:
    from repro.core import PlanCache
    from repro.mpi import CollectiveEngine, run_mpi

    cache = PlanCache()
    engine = CollectiveEngine()
    engine.record_decisions = True
    before = tracer.snapshot()
    res = run_mpi(_body, p, args=(seed, cache), engine=engine)
    spans = diff(tracer.snapshot(), before)
    calls = VARIANTS * CALLS_PER_STEP * p
    deposits = layer_totals(spans, "p2p", ("deposit", "remote_deposit"))
    sources = Counter(f"{d.op}:{d.source}" for d in engine.decisions)
    raw_ops = sum(sum(c.values()) for c in res.counts)
    return {
        "raw_ops": raw_ops,
        "ops_per_call": raw_ops / calls,
        "messages_per_call": deposits[0] / calls,
        "bytes_per_call": deposits[3] / calls,
        "plan_hits": cache.hits,
        "plan_compilations": cache.compilations,
        "resolves_per_call": len(engine.decisions) / calls,
        "decision_sources": dict(sorted(sources.items())),
        "virtual_s": res.max_time,
    }


def count_pass(seed: int, tracer) -> tuple[dict[int, dict], int]:
    """Counts per p from the first run, and how many p disagreed between
    the two runs."""
    first = {p: count_once(seed, p, tracer) for p in PS}
    second = {p: count_once(seed, p, tracer) for p in PS}
    mismatches = sum(1 for p in PS if first[p] != second[p])
    return first, mismatches

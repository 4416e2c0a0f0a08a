"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions of each layer with timing
wrappers for the duration of a ``with tracer.installed():`` block and puts
the originals back afterwards, so nothing under ``src/`` changes.  Spans
nest per thread: a span's *self time* is its duration minus the time of the
spans it caused, which is what each layer metric reports.

Spans are aggregated as they close (per thread, no lock on the hot path):
for every ``(layer, name)`` the tracer keeps the call count, total and self
time, and the bytes the call carried when the layer has a size.  Process
backend children inherit the installed wrappers through ``fork``; a child
calls :meth:`LayerTracer.reset` on entry and returns :meth:`snapshot` to
the parent, which merges it with :meth:`absorb`.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Optional

_clock = time.perf_counter


def _array_bytes(obj: Any) -> int:
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    return 0


def _env_bytes(args: tuple) -> int:
    return args[1].nbytes           # Mailbox.deposit(self, envelope)


def _pipe_bytes(args: tuple) -> int:
    msg = args[2]                   # _Transport.send(self, world, msg)
    return msg[5] if msg[0] == "env" else 0


def _snapshot_bytes(args: tuple) -> int:
    return _array_bytes(args[0])


class LayerTracer:
    """Aggregating span recorder for one benchmark process."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._merged: dict[tuple[str, str], list] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._tls, "table", None)
        if table is None:
            table = self._tls.table = {}
            self._tls.stack = []
            self._tls.paused = False
            with self._lock:
                self._tables.append(table)
        return table

    def _wrap(self, fn: Callable, layer: str, name: str,
              size_of: Optional[Callable[[tuple], int]]) -> Callable:
        key = (layer, name)
        tls = self._tls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = getattr(tls, "table", None)
            if table is None:
                table = self._table()
            if tls.paused:
                return fn(*args, **kwargs)
            stack = tls.stack
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - child
                if size_of is not None:
                    row[3] += size_of(args)

        return traced

    def patch(self, owner: Any, attr: str, layer: str, *,
              name: Optional[str] = None,
              size_of: Optional[Callable[[tuple], int]] = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) in a span."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name or attr, size_of))

    @contextmanager
    def installed(self):
        """Install the spans of every layer a call crosses; undo on exit."""
        self._patch_layers()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch_layers(self) -> None:
        from repro.apps.sorting import common as sort_common
        from repro.core import communicator as core_comm
        from repro.core import plans
        from repro.mpi import context, datatypes, engine, p2p
        from repro.mpi.backends import process
        from repro.service import cluster

        for op in ("send", "recv", "bcast", "allgather", "allgatherv",
                   "alltoallv", "allreduce"):
            self.patch(core_comm.Communicator, op, "core")
        self.patch(plans.PlanCache, "lookup", "core.plan", name="lookup")
        self.patch(plans, "compile_plan", "core.plan", name="compile")
        self.patch(engine.CollectiveEngine, "resolve", "engine")
        for op in ("send", "recv", "bcast", "allgather", "allgatherv",
                   "alltoall", "alltoallv", "allreduce"):
            self.patch(context.RawComm, op, "rawcomm")
        self.patch(p2p.Mailbox, "deposit", "p2p", size_of=_env_bytes)
        self.patch(process._RemoteMailbox, "deposit", "p2p",
                   name="remote_deposit", size_of=_env_bytes)
        self.patch(p2p.Mailbox, "wait", "p2p")
        # RawComm binds ``snapshot`` at import: wrap the name it calls
        snap = datatypes.snapshot
        self._patches.append((context, "snapshot", snap))
        context.snapshot = self._wrap(snap, "datatypes", "snapshot",
                                      _snapshot_bytes)
        self.patch(process._Transport, "send", "process", name="pipe_send",
                   size_of=_pipe_bytes)
        for helper in ("draw_samples", "select_splitters", "build_buckets",
                       "local_sort"):
            self.patch(sort_common, helper, "samplesort")
        for submit in ("submit", "submit_bcast", "submit_allreduce"):
            self.patch(cluster.Cluster, submit, "service", name="submit")

    @contextmanager
    def paused(self):
        """Record nothing on this thread inside the block (harness work)."""
        self._table()
        was, self._tls.paused = self._tls.paused, True
        try:
            yield
        finally:
            self._tls.paused = was

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (used in forked children)."""
        with self._lock:
            for table in self._tables:
                table.clear()
            self._merged.clear()

    def snapshot(self) -> dict[tuple[str, str], list]:
        """``{(layer, name): [calls, total_s, self_s, bytes]}``, merged."""
        out: dict[tuple[str, str], list] = {
            key: list(row) for key, row in self._merged.items()}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.items()):
                acc = out.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return out

    def absorb(self, rows: dict[tuple[str, str], list]) -> None:
        """Merge a snapshot taken elsewhere (a forked child) into this one."""
        with self._lock:
            for key, row in rows.items():
                acc = self._merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]


def layer_totals(rows: dict, layer: str, names=None) -> list:
    """Sum ``[calls, total_s, self_s, bytes]`` over one layer's spans."""
    acc = [0, 0.0, 0.0, 0]
    for (lay, name), row in rows.items():
        if lay == layer and (names is None or name in names):
            for i in range(4):
                acc[i] += row[i]
    return acc


def diff(after: dict, before: dict) -> dict:
    """Spans recorded between two snapshots."""
    out = {}
    for key, row in after.items():
        base = before.get(key, [0, 0.0, 0.0, 0])
        delta = [row[i] - base[i] for i in range(4)]
        if delta[0]:
            out[key] = delta
    return out


def quiet(tracer: Optional[LayerTracer]):
    """``tracer.paused()``, or a no-op block when the run is untraced."""
    return tracer.paused() if tracer is not None else nullcontext()

"""The execution-backend contract.

A :class:`Backend` turns ``run_mpi(fn, p)`` into ``p`` concurrently-running
ranks and a :class:`~repro.mpi.machine.RunResult`.  The binding layers above
(:class:`~repro.mpi.context.RawComm` and everything in :mod:`repro.core`)
only consume MPI *semantics* — mailbox matching, collectives, communicator
management — so the same binding code must run unchanged over any backend
(the core/interface split KaMPIng argues for).  A backend supplies:

- a **machine** object satisfying the duck-typed contract of
  :class:`~repro.mpi.machine.Machine` (per-rank clocks/profiles, a tracer,
  a collective engine, a communicator registry, ``require()``);
- a **transport**: communicator states whose ``mailboxes[dest].deposit(env)``
  delivers envelopes to the destination rank and whose ``barrier`` supports
  the non-blocking-barrier arrival protocol (a mailbox class sets
  ``serializes_payload`` when ``deposit`` has copied the payload out by the
  time it returns, which spares the sender its send-time snapshot);
- **result marshalling** of per-rank values, virtual clocks, PMPI counters,
  and trace events back to the caller.

Features that a transport cannot provide must *fail loudly* by raising
:class:`~repro.mpi.errors.UnsupportedOnBackend` with an actionable message —
silent degradation is a conformance bug (the differential suite under
``tests/backends/`` checks observational equivalence of everything that is
supported).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.mpi.costmodel import CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.machine import RunResult
from repro.mpi.tracing import TraceRecorder


class Backend:
    """Abstract execution backend: spawn ranks, run ``fn``, collect results."""

    #: registry / ``REPRO_BACKEND`` name of the backend
    name: str = "abstract"

    def run(self, fn: Callable[..., Any], num_ranks: int, *,
            args: Sequence[Any] = (),
            cost_model: Optional[CostModel] = None,
            deadline: float = 120.0,
            timeout: Optional[float] = None,
            trace: bool | TraceRecorder = False,
            engine: Optional[CollectiveEngine] = None,
            sanitize: Optional[bool] = None,
            fuzz_seed: Optional[int] = None,
            faults: Any = None) -> RunResult:
        """Execute ``fn(comm, *args)`` on ``num_ranks`` ranks.

        The keyword surface is exactly :func:`repro.mpi.run_mpi`'s; a backend
        that cannot honor a *requested* feature (an explicit ``sanitize=True``
        rather than an ambient env default, a ``faults`` campaign, a
        ``timeout=`` watchdog, …) raises
        :class:`~repro.mpi.errors.UnsupportedOnBackend` before spawning
        anything.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

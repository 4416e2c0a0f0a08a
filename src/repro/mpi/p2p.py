"""Point-to-point matching engine.

Implements the classic MPI receive-side model: each (communicator, rank) pair
owns a :class:`Mailbox` with a *posted-receive queue* and an *unexpected
message queue*.  Incoming envelopes first try to match the oldest compatible
posted receive; receives first try to match the oldest compatible unexpected
envelope.  This preserves MPI's non-overtaking guarantee: messages from the
same sender with compatible tags are matched in send order.

Synchronous sends (``ssend``/``issend``) carry a match event; the sender only
completes once the receiver has matched the message, which is what the NBX
sparse all-to-all algorithm (plugins) relies on for its termination protocol.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.errors import RawDeadlockError, RawProcessFailure, RawUsageError
from repro.mpi.waiting import Backoff

_envelope_ids = itertools.count()


@dataclass
class Status:
    """Receive status (analog of ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: int

    def count(self, itemsize: int = 1) -> int:
        """Number of items of ``itemsize`` bytes in the message (``MPI_Get_count``)."""
        return self.nbytes // max(itemsize, 1)


@dataclass
class Envelope:
    """A message in flight."""

    source: int
    tag: int
    payload: Any
    nbytes: int
    #: virtual time at which the message is available at the receiver
    arrival_time: float
    #: set when a synchronous sender must learn about the match
    sync_event: Optional[threading.Event] = None
    #: receiver-side clock at match time (read by synchronous senders)
    match_clock: float = 0.0
    seq: int = field(default_factory=lambda: next(_envelope_ids))
    #: sender-side creation backtrace (sanitized runs only; see MPIsan)
    origin: tuple = ()

    def matches(self, source: int, tag: int) -> bool:
        return (source == ANY_SOURCE or source == self.source) and (
            tag == ANY_TAG or tag == self.tag
        )


class PendingRecv:
    """A posted receive waiting for a matching envelope."""

    __slots__ = ("source", "tag", "post_clock", "envelope", "event",
                 "cancelled", "origin")

    def __init__(self, source: int, tag: int, post_clock: float):
        self.source = source
        self.tag = tag
        self.post_clock = post_clock
        self.envelope: Optional[Envelope] = None
        self.event = threading.Event()
        self.cancelled = False
        #: creation backtrace (sanitized runs only; see MPIsan)
        self.origin: tuple = ()

    def complete(self, env: Envelope) -> None:
        self.envelope = env
        if env.sync_event is not None:
            env.match_clock = max(env.arrival_time, self.post_clock)
            env.sync_event.set()
        self.event.set()


class Mailbox:
    """Matching queues for one (communicator, rank) endpoint."""

    #: whether ``deposit`` serializes the payload before it returns (a remote
    #: mailbox does); the sender snapshots the payload only when it does not
    serializes_payload = False

    def __init__(self, deadline_seconds: float = 120.0):
        self._cond = threading.Condition()
        self._posted: list[PendingRecv] = []
        self._unexpected: list[Envelope] = []
        self._deadline = deadline_seconds
        #: callable returning the set of currently-failed peer world ranks
        self.failure_probe: Callable[[], frozenset[int]] = frozenset
        #: maps communicator-local source ranks to world ranks for failure checks
        self.source_to_world: Callable[[int], int] = lambda r: r
        #: callable reporting whether the owning communicator was revoked;
        #: blocked operations on a revoked communicator abort (ULFM semantics)
        self.revoke_probe: Callable[[], bool] = lambda: False
        #: schedule fuzzer of the owning machine (``None`` outside fuzzed runs);
        #: perturbs delivery timing and poll wakeups, never virtual time
        self.fuzz = None

    # -- sending ----------------------------------------------------------

    def deposit(self, env: Envelope) -> None:
        """Deliver an envelope, matching a posted receive if one is waiting."""
        if self.fuzz is not None:
            self.fuzz.pause("deposit")
        with self._cond:
            for i, pr in enumerate(self._posted):
                if pr_matches(pr, env):
                    del self._posted[i]
                    pr.complete(env)
                    self._cond.notify_all()
                    return
            self._unexpected.append(env)
            self._cond.notify_all()

    # -- receiving --------------------------------------------------------

    def post(self, source: int, tag: int, post_clock: float) -> PendingRecv:
        """Post a receive; matches an unexpected envelope immediately if present."""
        pr = PendingRecv(source, tag, post_clock)
        with self._cond:
            for i, env in enumerate(self._unexpected):
                if env.matches(source, tag):
                    del self._unexpected[i]
                    pr.complete(env)
                    return pr
            self._posted.append(pr)
        return pr

    def wait(self, pr: PendingRecv) -> Envelope:
        """Block until the posted receive completes.

        Raises :class:`RawProcessFailure` if the awaited source dies while the
        receive is pending, and :class:`RawDeadlockError` if the machine's
        deadlock deadline elapses.  On every error path the receive is first
        cancelled; if an envelope matched it in the meantime the receive has
        completed (``MPI_Cancel`` cannot undo a match) and the envelope is
        delivered instead of raising.
        """
        backoff = Backoff(self._deadline, fuzz=self.fuzz)
        while not pr.event.wait(timeout=backoff.next_timeout()):
            if self.revoke_probe():
                if not self.cancel(pr):
                    break  # matched concurrently: deliver, don't drop
                from repro.mpi.errors import RawCommRevoked

                raise RawCommRevoked("communicator revoked while receive pending")
            failed = self.failure_probe()
            if failed and self._source_failed(pr, failed):
                if not self.cancel(pr):
                    break
                raise RawProcessFailure(failed)
            if backoff.expired:
                if not self.cancel(pr):
                    break
                raise RawDeadlockError(
                    f"recv(source={pr.source}, tag={pr.tag}) exceeded the "
                    f"{self._deadline:.0f}s deadlock deadline"
                )
        if pr.envelope is None:
            # only reachable by waiting on a receive cancelled elsewhere
            raise RawUsageError("wait() on a cancelled receive")
        return pr.envelope

    def _source_failed(self, pr: PendingRecv, failed: frozenset[int]) -> bool:
        if pr.source == ANY_SOURCE:
            return True  # any failure may leave a wildcard recv stuck: report it
        return self.source_to_world(pr.source) in failed

    def cancel(self, pr: PendingRecv) -> bool:
        """Try to cancel a posted receive (``MPI_Cancel`` semantics).

        Returns ``True`` when the receive was still unmatched: it is removed
        from the posted queue and marked cancelled.  Returns ``False`` when an
        envelope already matched it — a matched receive must complete
        normally, so the caller has to consume ``pr.envelope`` (via ``wait``/
        ``test``) instead of treating the operation as cancelled.  The
        previous behaviour (cancel unconditionally) silently dropped the
        matched message and, for synchronous sends, left the sender convinced
        its message had been received.
        """
        with self._cond:
            if pr.envelope is not None:
                return False
            pr.cancelled = True
            try:
                self._posted.remove(pr)
            except ValueError:
                pass
            pr.event.set()  # wake any waiter; it observes the cancellation
            return True

    def test(self, pr: PendingRecv) -> Optional[Envelope]:
        """Non-blocking completion check for a posted receive."""
        if pr.event.is_set():
            return pr.envelope
        return None

    # -- probing ----------------------------------------------------------

    def iprobe(self, source: int, tag: int) -> Optional[Envelope]:
        """Check for a matching unexpected message without consuming it."""
        with self._cond:
            for env in self._unexpected:
                if env.matches(source, tag):
                    return env
        return None

    def probe(self, source: int, tag: int) -> Envelope:
        """Block until a matching message is available; do not consume it.

        Failure, revocation, and deadline checks run on every wakeup: a
        notified-but-unmatched wakeup (a message for a different receive)
        must not stall the deadline clock, which accounts real elapsed time.
        """
        backoff = Backoff(self._deadline, fuzz=self.fuzz)
        while True:
            with self._cond:
                for env in self._unexpected:
                    if env.matches(source, tag):
                        return env
                self._cond.wait(timeout=backoff.next_timeout())
            if self.revoke_probe():
                from repro.mpi.errors import RawCommRevoked

                raise RawCommRevoked("communicator revoked while probing")
            failed = self.failure_probe()
            if failed and (
                source == ANY_SOURCE or self.source_to_world(source) in failed
            ):
                raise RawProcessFailure(failed)
            if backoff.expired:
                raise RawDeadlockError(
                    f"probe(source={source}, tag={tag}) exceeded the "
                    f"{self._deadline:.0f}s deadlock deadline"
                )

    def pending_count(self) -> int:
        """Number of queued unexpected messages (diagnostics only)."""
        with self._cond:
            return len(self._unexpected)

    def audit_snapshot(self) -> tuple[tuple[PendingRecv, ...], tuple[Envelope, ...]]:
        """Consistent snapshot of both queues (MPIsan's finalize-time sweep)."""
        with self._cond:
            return tuple(self._posted), tuple(self._unexpected)


def pr_matches(pr: PendingRecv, env: Envelope) -> bool:
    """Does envelope ``env`` satisfy posted receive ``pr``?"""
    return (pr.source == ANY_SOURCE or pr.source == env.source) and (
        pr.tag == ANY_TAG or pr.tag == env.tag
    )

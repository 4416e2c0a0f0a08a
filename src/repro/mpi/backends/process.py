"""One-OS-process-per-rank execution backend.

Ranks are ``multiprocessing`` processes connected by per-pair duplex pipes;
envelopes cross rank boundaries as framed messages.  The entire binding
stack — mailbox matching, the collective algorithms, non-blocking
collectives, communicator split/dup, tracing, the virtual cost model — runs
unchanged on top: each rank builds a *rank-local replica* of the machine
(:class:`_ProcessMachine`) in which its own mailbox is the real
:class:`~repro.mpi.p2p.Mailbox` and every other rank's mailbox is a
:class:`_RemoteMailbox` proxy that ships the envelope down the pipe to the
peer, whose pump thread deposits it into the peer's real mailbox.  Because
matching, clocks, and algorithms are byte-for-byte the same code, a
wildcard-free program produces bit-identical results, virtual times, PMPI
counters, and traces on both backends (``tests/backends/`` enforces this).

Wire protocol (one frame per message tuple, FIFO per pair).  A frame is a
16-byte prefix (the byte lengths of the array table and of the header), then
the *array table* — a pickled list of ``(dtype, shape, order)`` (a builtin
dtype as its type string), one entry per plain ``np.ndarray`` in the tuple
(any dtype without Python objects), empty when there is none — then a
pickle-protocol-5 *header* of the tuple in which each such array is an
out-of-band buffer (protocol 5's ``NEXT_BUFFER``), then the raw bytes of
those arrays.  The sender writes the arrays' bytes straight from their
memory with ``os.writev``; the receiver's pump thread allocates the arrays
from the table, reads their bytes straight into them with ``os.readv`` (both
POSIX calls), and only then unpickles the header with ``pickle.loads(header,
buffers=arrays)`` — so a reconstructor or ``__setstate__`` that reads an
array while unpickling (``np.random.RandomState``, say) sees its data.  The
table and the header are pickled before the first byte is written, so a
payload that cannot be pickled leaves the pair's stream untouched.  Because
the bytes are on the wire before ``deposit`` returns, a remote deposit needs
no send-time snapshot (:attr:`_RemoteMailbox.serializes_payload`); the
receiver still gets what the snapshot would have made: a writable array,
C-ordered for an array payload, and with the C or Fortran order
``copy.deepcopy`` keeps for arrays nested in a container.  The tuples are:

- ``("env", comm_id, source, tag, payload, nbytes, arrival_time, token)`` —
  a message envelope; ``token`` is non-``None`` for synchronous sends and is
  echoed back as ``("ack", token, match_clock)`` when the receiver matches.
- ``("bar", comm_id, epoch, clock)`` / ``("bardone", comm_id, epoch, t)`` —
  the non-blocking-barrier arrival protocol, coordinated by the member with
  the lowest world rank (:class:`_PipeBarrier`).

The parent coordinates startup and teardown over a per-rank control pipe:
every child reports ``up``, the parent releases them all with ``start``
(so no rank runs user code before every pipe endpoint is live), each child
reports ``done`` with its marshalled result, and only when *all* ranks have
reported does the parent send ``exit`` — a late fire-and-forget send can
therefore never hit a closed pipe.

What this backend does **not** provide — and refuses loudly
(:class:`~repro.mpi.errors.UnsupportedOnBackend`) rather than emulating
badly — is everything built on a shared address space: MPIsan resource
auditing, the seeded schedule fuzzer, fault-injection campaigns, RMA
windows, and ULFM failure coordination.  Note the ambient ``REPRO_SANITIZE``
/ ``REPRO_FUZZ_SEED`` environment defaults are deliberately *ignored* here:
they opt the thread backend into extra checking, and honoring them would
make ``REPRO_BACKEND=process`` unrunnable under a sanitizing CI lane.  Only
an explicit ``sanitize=True`` / ``fuzz_seed=`` / ``faults=`` argument is an
error.

Constraints: ``fn``, ``args``, payloads, and return values must be
picklable.  The start method defaults to ``fork`` where available (so
closures and lambdas work, exactly like the thread backend); set
``REPRO_PROCESS_START=spawn`` (or pass ``ProcessBackend("spawn")``) to use a
spawn context, under which ``fn`` must be a module-level callable.
"""

from __future__ import annotations

import io
import itertools
import multiprocessing
import os
import pickle
import struct
import threading
import traceback
from collections import Counter
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from repro.mpi.backends.base import Backend
from repro.mpi.costmodel import Clock, CostModel
from repro.mpi.engine import CollectiveEngine
from repro.mpi.errors import (
    RawDeadlockError,
    RawUsageError,
    UnsupportedOnBackend,
)
from repro.mpi.machine import WORLD_ID, RunResult
from repro.mpi.p2p import Envelope, Mailbox
from repro.mpi.sanitizer import NULL_AUDITOR
from repro.mpi.tracing import NULL_TRACER, TraceRecorder
from repro.mpi.waiting import Backoff

#: extra real-time budget the parent allows beyond the machine deadline
#: before declaring the run hung and terminating the children
_COLLECT_GRACE = 60.0


def unsupported(feature: str, what: str) -> str:
    """The pinned message format for process-backend feature refusals."""
    return (
        f"{what} is not supported on the 'process' backend: it relies on "
        f"shared-process state ({feature}); run with backend='thread'"
    )


# ---------------------------------------------------------------------------
# framing: array table + pickled header + array bytes
# ---------------------------------------------------------------------------

#: frame prefix: byte lengths of the array table and of the pickled header
#: (a table length of 0: the frame names no arrays)
_PREFIX = struct.Struct("<QQ")
#: most buffers one ``os.readv``/``os.writev`` call accepts (``IOV_MAX`` on
#: Linux, macOS and the BSDs)
_IOV_MAX = 1024
#: pickles as protocol 5's NEXT_BUFFER opcode and nothing else: the loader
#: takes the frame's next out-of-band buffer in its place
_NEXT_BUFFER = pickle.PickleBuffer(bytearray())


def _in_band(buf: pickle.PickleBuffer) -> bool:
    """Pickler ``buffer_callback``: only the array placeholder goes out of
    band; a ``PickleBuffer`` some other type reduces to stays in-band."""
    return buf is not _NEXT_BUFFER


def _dtype_code(dtype: np.dtype):
    """``dtype`` as the array table stores it: its type string when that
    names this very dtype object (the builtin numeric ones), else the dtype
    itself, whose pickle costs several times more."""
    return dtype.str if np.dtype(dtype.str) is dtype else dtype


def _oob_array(arr: np.ndarray) -> np.ndarray:
    """Header entry of an out-of-band array.

    ``arr`` is what the receiver passed ``pickle.loads`` as the frame's
    next buffer: the array itself, allocated from the array table and
    filled before the header is unpickled.
    """
    return arr


class _Encoder:
    """Pickles message tuples into frames for one peer.

    One per peer, used under the peer's send lock.  It is reused because
    building a pickler per message cost as much as pickling a small
    envelope.  Nothing of a message outlives its ``encode`` call.
    """

    def __init__(self):
        self._file = io.BytesIO()
        # positional: ForkingPickler passes on no keyword arguments
        # (True is fix_imports, _in_band the buffer_callback)
        self._pickler = ForkingPickler(self._file, 5, True, _in_band)
        # exact type only: ndarray subclasses pickle in-band
        self._pickler.dispatch_table[np.ndarray] = self._reduce_array
        self._top: Any = None
        self._oob: list[tuple[np.ndarray, str]] = []

    def _reduce_array(self, arr: np.ndarray):
        """Header reduction of a plain array: it goes to ``_oob`` instead.

        ``_oob`` collects, in header order, ``(array, order)`` pairs, the
        array contiguous in the order it is delivered in (a copy only when
        it is not).  Delivered layouts match the send-time snapshot: the
        envelope payload itself (``_top``) arrives C-ordered like
        ``ndarray.copy``; a nested array keeps its C or Fortran order like
        ``copy.deepcopy``.  Arrays holding Python objects pickle in-band.
        """
        if arr.dtype.hasobject:
            return arr.__reduce_ex__(5)
        top = arr is self._top
        if not top and not (arr.flags.c_contiguous
                            or arr.flags.f_contiguous):
            arr = arr.copy(order="K")  # the layout deepcopy gives a view
        order = ("F" if not top and arr.flags.f_contiguous
                 and not arr.flags.c_contiguous else "C")
        self._oob.append((arr, order))
        return _oob_array, (_NEXT_BUFFER,)

    def encode(self, msg: tuple) -> list:
        """The buffers of ``msg``'s frame, ready to write.

        Everything that can fail is done here, before any byte is written.
        Subclasses pickle in-band, which keeps their order, so an envelope
        payload of one that is not C-contiguous is first copied C-ordered,
        as the send-time snapshot's ``ndarray.copy`` does.
        """
        top = msg[4] if msg[0] == "env" else None
        if (isinstance(top, np.ndarray) and type(top) is not np.ndarray
                and not top.flags.c_contiguous):
            top = top.copy()
            msg = msg[:4] + (top,) + msg[5:]
        self._top = top
        try:
            self._pickler.dump(msg)
            header = self._file.getvalue()
        finally:
            self._pickler.clear_memo()
            self._file.seek(0)
            self._file.truncate()
            oob, self._oob, self._top = self._oob, [], None
        table = (pickle.dumps([(_dtype_code(a.dtype), a.shape, order)
                               for a, order in oob], 5) if oob else b"")
        return [_PREFIX.pack(len(table), len(header)), table, header,
                *[a.ravel(order).view(np.uint8)
                  for a, order in oob if a.nbytes]]


def _vectored(call: Callable, fd: int, bufs: list) -> None:
    """Run ``os.writev``/``os.readv`` over ``bufs`` until all are done.

    Stream sockets transfer partially; a partly done buffer is resumed
    through a memoryview slice.  ``bufs`` is consumed.
    """
    i = 0
    while i < len(bufs):
        n = call(fd, bufs[i:i + _IOV_MAX])
        if n == 0:
            raise EOFError("peer closed the pipe")
        while i < len(bufs) and n >= len(bufs[i]):
            n -= len(bufs[i])
            i += 1
        if n:
            bufs[i] = memoryview(bufs[i])[n:]


def _recv_frame(fd: int) -> tuple:
    """Read one frame: the table and header, the arrays' bytes straight
    into arrays allocated from the table, and only then unpickle the
    header, so every array it names is filled when reconstructors run."""
    prefix = bytearray(_PREFIX.size)
    _vectored(os.readv, fd, [prefix])
    table_len, header_len = _PREFIX.unpack(prefix)
    table, header = bytearray(table_len), bytearray(header_len)
    _vectored(os.readv, fd, [table, header])
    arrays = ([np.empty(shape, dtype, order)
               for dtype, shape, order in pickle.loads(table)]
              if table else [])
    _vectored(os.readv, fd, [a.ravel("K").view(np.uint8)
                             for a in arrays if a.nbytes])
    return pickle.loads(header, buffers=arrays)


# ---------------------------------------------------------------------------
# transport: pipes, pump thread, sync-send acks
# ---------------------------------------------------------------------------


class _AckEvent:
    """Receiver-side stand-in for a synchronous send's match event.

    :meth:`~repro.mpi.p2p.PendingRecv.complete` stamps ``env.match_clock``
    and calls ``sync_event.set()``; here ``set()`` ships the ack back to the
    sender, whose transport completes the *sender's* local envelope (a real
    :class:`threading.Event`), unblocking its ``SyncSendRequest``.
    """

    __slots__ = ("_transport", "_peer_world", "_token", "env")

    def __init__(self, transport: "_Transport", peer_world: int, token):
        self._transport = transport
        self._peer_world = peer_world
        self._token = token
        self.env: Optional[Envelope] = None

    def set(self) -> None:
        self._transport.send(
            self._peer_world,
            ("ack", self._token, self.env.match_clock if self.env else 0.0),
        )


class _RemoteMailbox:
    """Send-side proxy for a peer rank's mailbox: ``deposit`` ships the
    envelope down the pipe; the peer's pump thread delivers it into the real
    :class:`~repro.mpi.p2p.Mailbox` over there.  Only ``deposit`` exists —
    probing and receiving always target the rank's own (local) mailbox.
    """

    __slots__ = ("_transport", "_comm_id", "_dest_world")

    #: the payload is on the wire before ``deposit`` returns, so the sender
    #: skips its send-time snapshot
    serializes_payload = True

    def __init__(self, transport: "_Transport", comm_id: Hashable,
                 dest_world: int):
        self._transport = transport
        self._comm_id = comm_id
        self._dest_world = dest_world

    def deposit(self, env: Envelope) -> None:
        token = None
        if env.sync_event is not None:
            token = self._transport.register_sync(env)
        try:
            self._transport.send(self._dest_world, (
                "env", self._comm_id, env.source, env.tag, env.payload,
                env.nbytes, env.arrival_time, token,
            ))
        except (pickle.PicklingError, TypeError, AttributeError,
                ValueError) as exc:
            raise RawUsageError(
                f"payload of type {type(env.payload).__name__} could not be "
                f"pickled for the process-backend transport: {exc}"
            ) from exc


class _PipeBarrier:
    """Pipe-based replica of :class:`~repro.mpi.requests.ArrivalBarrier`.

    The member with the lowest world rank coordinates: everyone else sends
    its arrival to the coordinator, which — once all ``size`` members of the
    epoch arrived — computes the completion time with the same formula as
    the thread backend's counter barrier and broadcasts it back.
    """

    def __init__(self, transport: "_Transport", comm_id: Hashable,
                 members: tuple[int, ...], my_world: int, alpha: float):
        self._transport = transport
        self._comm_id = comm_id
        self._members = members
        self._my = my_world
        self._coord = members[0]
        self._size = len(members)
        self._alpha = alpha
        self._cond = threading.Condition()
        self._arrivals: dict[int, int] = {}
        self._max_clock: dict[int, float] = {}
        self._complete_time: dict[int, float] = {}

    def arrive(self, epoch: int, clock_now: float) -> int:
        if self._my == self._coord:
            self._record(epoch, clock_now)
        else:
            self._transport.send(
                self._coord, ("bar", self._comm_id, epoch, clock_now)
            )
        return epoch

    def remote_arrive(self, epoch: int, clock_now: float) -> None:
        """A peer's arrival, delivered by the coordinator's pump thread."""
        self._record(epoch, clock_now)

    def remote_done(self, epoch: int, t: float) -> None:
        """Completion broadcast, delivered by a non-coordinator's pump."""
        with self._cond:
            self._complete_time[epoch] = t
            self._cond.notify_all()

    def _record(self, epoch: int, clock_now: float) -> None:
        with self._cond:
            n = self._arrivals.get(epoch, 0) + 1
            self._arrivals[epoch] = n
            self._max_clock[epoch] = max(
                self._max_clock.get(epoch, 0.0), clock_now
            )
            if n < self._size:
                return
            rounds = max((self._size - 1).bit_length(), 1)
            t = self._max_clock[epoch] + rounds * self._alpha
            self._complete_time[epoch] = t
            self._cond.notify_all()
        for w in self._members:
            if w != self._my:
                self._transport.send(w, ("bardone", self._comm_id, epoch, t))

    def is_complete(self, epoch: int) -> bool:
        with self._cond:
            return epoch in self._complete_time

    def completion_time(self, epoch: int) -> float:
        with self._cond:
            return self._complete_time[epoch]

    def wait_complete(self, epoch: int, deadline: float, fuzz=None) -> None:
        backoff = Backoff(deadline, fuzz=fuzz)
        with self._cond:
            while epoch not in self._complete_time:
                self._cond.wait(timeout=backoff.next_timeout())
                if epoch not in self._complete_time and backoff.expired:
                    raise RawDeadlockError("ibarrier never completed")


class _Transport:
    """One rank's pipe endpoints plus the pump thread that drains them.

    Frames are encoded and written under one lock per peer (the rank's
    main thread and the pump thread — acks, barrier broadcasts — both send,
    a frame may take several writes, and the peer's encoder is reused).  Messages for communicators this rank has not locally
    created yet are stashed under the registry lock and drained by
    ``get_or_create_comm``, preserving per-pair FIFO order.
    """

    def __init__(self, my_rank: int, peer_conns: dict[int, Any]):
        self._my = my_rank
        self._conns = peer_conns
        self._send_locks = {w: threading.Lock() for w in peer_conns}
        self._encoders = {w: _Encoder() for w in peer_conns}
        self._machine: Optional["_ProcessMachine"] = None
        self._stash: dict[Hashable, list[tuple]] = {}
        self._sync: dict[tuple, Envelope] = {}
        self._sync_lock = threading.Lock()
        self._sync_counter = itertools.count()

    # -- sending -----------------------------------------------------------

    def send(self, world: int, msg: tuple) -> None:
        with self._send_locks[world]:
            frame = self._encoders[world].encode(msg)
            _vectored(os.writev, self._conns[world].fileno(), frame)

    def register_sync(self, env: Envelope) -> tuple:
        token = (self._my, next(self._sync_counter))
        with self._sync_lock:
            self._sync[token] = env
        return token

    # -- receiving ---------------------------------------------------------

    def start(self, machine: "_ProcessMachine") -> None:
        self._machine = machine
        threading.Thread(
            target=self._pump, name=f"pump-{self._my}", daemon=True
        ).start()

    def _pump(self) -> None:
        conns = list(self._conns.values())
        while conns:
            for conn in mp_connection.wait(conns):
                try:
                    msg = _recv_frame(conn.fileno())
                except (EOFError, OSError):
                    conns.remove(conn)
                    continue
                self._dispatch(msg)

    def _dispatch(self, msg: tuple) -> None:
        machine = self._machine
        if msg[0] == "ack":
            _, token, match_clock = msg
            with self._sync_lock:
                env = self._sync.pop(token, None)
            if env is not None:
                env.match_clock = match_clock
                env.sync_event.set()
            return
        comm_id = msg[1]
        with machine._registry_lock:
            state = machine._comms.get(comm_id)
            if state is None:
                # communicator not created locally yet (e.g. a peer raced
                # ahead through a split): hold the message until it is
                self._stash.setdefault(comm_id, []).append(msg)
                return
        self._deliver(state, msg)

    def drain(self, state: "_ProcessCommState") -> None:
        """Deliver stashed messages for a just-created communicator.

        Called by ``get_or_create_comm`` while holding the registry lock, so
        stashed messages land before anything the pump routes afterwards.
        """
        for msg in self._stash.pop(state.comm_id, ()):
            self._deliver(state, msg)

    def _deliver(self, state: "_ProcessCommState", msg: tuple) -> None:
        kind = msg[0]
        if kind == "env":
            _, _, source, tag, payload, nbytes, arrival_time, token = msg
            sync = None
            if token is not None:
                sync = _AckEvent(self, state.members[source], token)
            env = Envelope(source=source, tag=tag, payload=payload,
                           nbytes=nbytes, arrival_time=arrival_time,
                           sync_event=sync)
            if sync is not None:
                sync.env = env
            state.mailboxes[state.local_of_world[self._my]].deposit(env)
        elif kind == "bar":
            state.barrier.remote_arrive(msg[2], msg[3])
        elif kind == "bardone":
            state.barrier.remote_done(msg[2], msg[3])


# ---------------------------------------------------------------------------
# the rank-local machine replica
# ---------------------------------------------------------------------------


class _ProcessCommState:
    """Rank-local view of one communicator (duck-types ``CommState``).

    This rank's own slot in ``mailboxes`` is a real matching
    :class:`~repro.mpi.p2p.Mailbox`; every peer slot is a
    :class:`_RemoteMailbox`.  ``revoked`` exists so ``_check_usable`` stays
    cheap, but setting it is guarded off via ``machine.require``.
    """

    def __init__(self, machine: "_ProcessMachine", comm_id: Hashable,
                 members: Sequence[int], topology=None):
        self.machine = machine
        self.comm_id = comm_id
        self.members: tuple[int, ...] = tuple(members)
        self.local_of_world = {w: i for i, w in enumerate(self.members)}
        self.mailboxes: dict[int, Any] = {}
        for local, world in enumerate(self.members):
            if world == machine.my_rank:
                mb = Mailbox(deadline_seconds=machine.deadline)
                mb.failure_probe = machine.failed_snapshot
                mb.source_to_world = (
                    lambda r, m=self.members: m[r] if 0 <= r < len(m) else -1
                )
                mb.revoke_probe = self._is_revoked
                self.mailboxes[local] = mb
            else:
                self.mailboxes[local] = _RemoteMailbox(
                    machine.transport, comm_id, world
                )
        self.barrier = _PipeBarrier(
            machine.transport, comm_id, self.members, machine.my_rank,
            machine.cost_model.alpha,
        )
        self.topology = topology
        self.revoked = threading.Event()

    def _is_revoked(self) -> bool:
        return self.revoked.is_set()

    @property
    def size(self) -> int:
        return len(self.members)


class _ProcessMachine:
    """Rank-local replica of :class:`~repro.mpi.machine.Machine`.

    Satisfies the same duck-typed contract the binding layer consumes —
    clocks, profiles, tracer, engine, communicator registry — but holds no
    cross-rank shared state: only this rank's clock/profile slots ever
    advance, and every shared-address-space feature is refused via
    :meth:`require`.
    """

    def __init__(self, my_rank: int, num_ranks: int, *,
                 cost_model: Optional[CostModel],
                 deadline: float,
                 tracer: Optional[TraceRecorder],
                 engine: Optional[CollectiveEngine],
                 transport: _Transport):
        self.my_rank = my_rank
        self.num_ranks = num_ranks
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.deadline = deadline
        self.auditor = NULL_AUDITOR
        self.fuzzer = None
        self.faults = None
        self.engine = (engine if engine is not None
                       else CollectiveEngine(self.cost_model))
        self.clocks = [Clock(self.cost_model) for _ in range(num_ranks)]
        self.profile: list[Counter] = [Counter() for _ in range(num_ranks)]
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.transport = transport
        self._registry_lock = threading.Lock()
        self._comms: dict[Hashable, _ProcessCommState] = {}
        self.world = self.get_or_create_comm(WORLD_ID, range(num_ranks))

    # -- backend feature contract ------------------------------------------

    def require(self, feature: str, what: str) -> None:
        raise UnsupportedOnBackend(unsupported(feature, what))

    # -- communicator registry ---------------------------------------------

    def get_or_create_comm(self, comm_id: Hashable, members: Sequence[int],
                           topology=None) -> _ProcessCommState:
        with self._registry_lock:
            state = self._comms.get(comm_id)
            if state is None:
                state = _ProcessCommState(self, comm_id, members, topology)
                self._comms[comm_id] = state
                self.transport.drain(state)
            elif state.members != tuple(members):
                raise RawUsageError(
                    f"communicator id {comm_id!r} re-created with different "
                    f"members"
                )
            return state

    # -- failures: nothing ever fails here; injection is thread-only -------

    def failed_snapshot(self) -> frozenset[int]:
        return frozenset()

    def alive_members(self, state: _ProcessCommState) -> tuple[int, ...]:
        return state.members

    def mark_failed(self, world_rank: int) -> None:
        self.require("failures", "failure injection")

    def shrink_rendezvous(self, state, generation, world_rank):
        self.require("ulfm", "ULFM shrink/agree coordination")


# ---------------------------------------------------------------------------
# child process entry point (module-level: importable under spawn)
# ---------------------------------------------------------------------------


def _child_main(rank: int, num_ranks: int, fn: Callable[..., Any],
                args: tuple, cfg: dict, peer_conns: dict[int, Any],
                parent_conn) -> None:
    from repro.mpi.context import RawComm

    tracer = TraceRecorder(num_ranks) if cfg["trace"] else None
    transport = _Transport(rank, peer_conns)
    machine = _ProcessMachine(
        rank, num_ranks, cost_model=cfg["cost_model"],
        deadline=cfg["deadline"], tracer=tracer, engine=cfg["engine"],
        transport=transport,
    )
    parent_conn.send(("up", rank, os.getpid()))
    parent_conn.recv()  # ("start",) — every rank's endpoints are live
    transport.start(machine)

    value: Any = None
    error: Optional[tuple[str, str, str]] = None
    try:
        comm = RawComm(machine, machine.world, rank)
        value = fn(comm, *args)
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        error = (type(exc).__name__, str(exc), traceback.format_exc())

    clock = machine.clocks[rank]
    report = {
        "value": value,
        "error": error,
        "time": clock.now,
        "comm_seconds": clock.comm_seconds,
        "compute_seconds": clock.compute_seconds,
        "counts": dict(machine.profile[rank]),
        "trace": list(tracer._events[rank]) if tracer is not None else None,
    }
    try:
        parent_conn.send(("done", rank, report))
    except Exception as exc:  # unpicklable return value: report that instead
        report["value"] = None
        report["error"] = (
            "RawUsageError",
            f"rank {rank} returned a value that could not be pickled back "
            f"to the parent: {exc}",
            traceback.format_exc(),
        )
        parent_conn.send(("done", rank, report))
    parent_conn.recv()  # ("exit",) — all ranks reported; safe to tear down


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class ProcessBackend(Backend):
    """Run each rank in its own OS process (GIL-free parallel execution)."""

    name = "process"

    def __init__(self, start_method: Optional[str] = None):
        self._start_method = start_method

    def _context(self):
        method = (self._start_method
                  or os.environ.get("REPRO_PROCESS_START", "").strip())
        if not method:
            method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
        return multiprocessing.get_context(method)

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
        if num_ranks < 1:
            raise RawUsageError(f"num_ranks must be >= 1, got {num_ranks}")
        # Explicit requests for thread-only features fail loudly up front.
        # sanitize=None means "env default", which this backend ignores (see
        # the module docstring); only a literal True is a hard request.
        if timeout is not None:
            # the watchdog's value is the per-rank stack dumps, and
            # sys._current_frames() cannot see another OS process's threads
            raise UnsupportedOnBackend(
                unsupported("timeout", "the run watchdog with per-rank "
                            "stack dumps (timeout=...)"))
        if sanitize:
            raise UnsupportedOnBackend(
                unsupported("sanitize", "MPIsan resource auditing "
                            "(sanitize=True)"))
        if fuzz_seed is not None:
            raise UnsupportedOnBackend(
                unsupported("fuzz_seed", "the seeded schedule fuzzer "
                            "(fuzz_seed=...)"))
        if faults is not None:
            raise UnsupportedOnBackend(
                unsupported("faults", "fault-injection campaigns "
                            "(faults=...)"))

        want_trace = bool(trace) or isinstance(trace, TraceRecorder)
        ctx = self._context()

        # per-pair duplex pipes + a control pipe per rank
        pair_conns: dict[int, dict[int, Any]] = {
            r: {} for r in range(num_ranks)
        }
        for i in range(num_ranks):
            for j in range(i + 1, num_ranks):
                ci, cj = ctx.Pipe(True)
                pair_conns[i][j] = ci
                pair_conns[j][i] = cj
        cfg = {"cost_model": cost_model, "deadline": deadline,
               "trace": want_trace, "engine": engine}
        ctl: dict[int, Any] = {}
        child_ends = []
        procs: dict[int, Any] = {}
        for r in range(num_ranks):
            parent_end, child_end = ctx.Pipe(True)
            ctl[r] = parent_end
            child_ends.append(child_end)
            procs[r] = ctx.Process(
                target=_child_main,
                args=(r, num_ranks, fn, tuple(args), cfg, pair_conns[r],
                      child_end),
                name=f"repro-rank-{r}", daemon=True,
            )
        try:
            for p in procs.values():
                p.start()
        except BaseException:
            self._terminate(procs)
            raise
        # drop the parent's copies so only the owning children hold them
        for conns in pair_conns.values():
            for conn in conns.values():
                conn.close()
        for child_end in child_ends:
            child_end.close()

        budget = Backoff(deadline + _COLLECT_GRACE)
        try:
            self._gather(ctl, procs, budget, "up")
            for conn in ctl.values():
                conn.send(("start",))
            reports = self._gather(ctl, procs, budget, "done")
            for conn in ctl.values():
                conn.send(("exit",))
        except BaseException:
            self._terminate(procs)
            raise
        finally:
            for p in procs.values():
                p.join(timeout=10.0)
            self._terminate(procs)
            for conn in ctl.values():
                conn.close()

        return self._assemble(reports, num_ranks, trace, want_trace)

    # -- parent-side collection --------------------------------------------

    def _gather(self, ctl: dict[int, Any], procs: dict[int, Any],
                budget: Backoff, kind: str) -> dict[int, Any]:
        """Collect one ``kind`` message per rank, watching for crashes."""
        pending = set(ctl)
        out: dict[int, Any] = {}
        sentinel_to_rank = {procs[r].sentinel: r for r in procs}
        while pending:
            if budget.expired:
                raise RawDeadlockError(
                    f"process backend: ranks {sorted(pending)} did not "
                    f"report '{kind}' within the deadline; terminating"
                )
            conns = [ctl[r] for r in pending]
            sentinels = [procs[r].sentinel for r in pending]
            ready = mp_connection.wait(conns + sentinels, timeout=0.2)
            # drain data first: a child may have reported and *then* died
            for obj in ready:
                if obj in sentinels:
                    continue
                try:
                    msg = obj.recv()
                except (EOFError, OSError):
                    continue  # the sentinel path below reports the death
                if msg[0] == kind:
                    out[msg[1]] = msg[2:]
                    pending.discard(msg[1])
            for obj in ready:
                rank = sentinel_to_rank.get(obj)
                if rank is not None and rank in pending:
                    procs[rank].join(timeout=5.0)  # reap so exitcode is set
                    code = procs[rank].exitcode
                    raise RuntimeError(
                        f"rank {rank} process died (exit code {code}) "
                        f"before reporting a result (process backend)"
                    )
        return out

    @staticmethod
    def _terminate(procs: dict[int, Any]) -> None:
        for p in procs.values():
            if p.is_alive():
                p.terminate()

    def _assemble(self, reports: dict[int, Any], num_ranks: int,
                  trace: bool | TraceRecorder, want_trace: bool) -> RunResult:
        by_rank = {r: payload[0] for r, payload in reports.items()}

        def _priority(item):
            # peers of a raising rank hit their deadlock deadline; surface
            # the root cause first (same policy as the thread backend)
            return 1 if item[1]["error"][0] == "RawDeadlockError" else 0

        raised = [(r, rep) for r, rep in sorted(by_rank.items())
                  if rep["error"] is not None]
        for rank, rep in sorted(raised, key=_priority):
            etype, emsg, tb = rep["error"]
            raise RuntimeError(
                f"rank {rank} raised {etype}: {emsg}\n"
                f"--- traceback from rank {rank} (process backend) ---\n{tb}"
            )

        tracer: Optional[TraceRecorder] = None
        if want_trace:
            tracer = (trace if isinstance(trace, TraceRecorder)
                      else TraceRecorder(num_ranks))
            for r in range(num_ranks):
                events = by_rank[r]["trace"]
                if events:
                    tracer._events[r].extend(events)

        return RunResult(
            values=[by_rank[r]["value"] for r in range(num_ranks)],
            times=[by_rank[r]["time"] for r in range(num_ranks)],
            counts=[Counter(by_rank[r]["counts"]) for r in range(num_ranks)],
            comm_seconds=[by_rank[r]["comm_seconds"]
                          for r in range(num_ranks)],
            compute_seconds=[by_rank[r]["compute_seconds"]
                             for r in range(num_ranks)],
            failed=frozenset(),
            machine=None,
            trace=tracer,
            leaks=None,
            backend=self.name,
        )

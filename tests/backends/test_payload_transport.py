"""What a payload looks like after crossing the process backend's pipes.

The process transport writes a plain array's bytes out of band, straight
from the sender's memory, and rebuilds the array on the receiver; a remote
deposit skips the send-time snapshot.  These tests pin what that must not
change:

- **layout parity** — dtype, shape, bytes, writeability and C/Fortran
  contiguity of every received payload are those the thread backend
  delivers, for point-to-point and collective paths alike, and objects
  whose reconstructors read an array while unpickling arrive intact;
- **buffered-send semantics** — mutating the send buffer right after
  ``send``/``isend``/``ssend`` returns never reaches the receiver;
- **stream integrity** — a payload that cannot be pickled leaves no partial
  frame on the pair's pipe.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.mpi import RawUsageError, run_mpi

pytestmark = [
    pytest.mark.slow,
    pytest.mark.filterwarnings("ignore:the matrix subclass"),
]

MIB = 2 ** 20


class Rebuilt:
    """Unpickled by a constructor that copies its array on arrival."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64)

    def __reduce__(self):
        return Rebuilt, (self.values,)


class Buffered:
    """Pickles its bytes as a ``PickleBuffer`` under protocol 5."""

    def __init__(self, data):
        self.data = bytes(data)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            return Buffered, (pickle.PickleBuffer(self.data),)
        return Buffered, (self.data,)


def _payloads() -> dict:
    grid = np.arange(24, dtype=np.int64).reshape(4, 6)
    fortran = np.asfortranarray(grid)
    strided = grid[:, ::2]
    shared = np.arange(5, dtype=np.float64)
    return {
        "readonly": np.frombuffer(bytes(range(16)), dtype=np.uint8),
        "fortran": fortran,
        "strided": strided,
        "fortran_strided": fortran[::2],
        "empty": np.empty((0, 3), dtype=np.float32),
        "structured": np.array([(1, 2.0), (3, 4.0)],
                               dtype=[("a", "<i4"), ("b", "<f8")]),
        "object": np.array([1, "x", None], dtype=object),
        "big_endian": np.arange(4, dtype=">i4"),
        "bytearray": bytearray(b"abc"),
        "list": [fortran, strided, np.frombuffer(b"ab", dtype=np.uint8)],
        "tuple": (fortran, strided.T, np.float32(1.5)),
        "dict": {"f": fortran, "s": strided, "e": np.empty(0)},
        "aliased": [shared, shared, fortran],
        "fortran_matrix": np.asmatrix(fortran),
        "random_state": np.random.RandomState(0),
        "rebuilt": Rebuilt(np.linspace(0.0, 1.0, 7)),
        "nested_objects": [np.random.default_rng(1), Rebuilt(fortran)],
        "pickle_buffer": [Buffered(b"xyz"), np.arange(3)],
    }


def _vector_payloads() -> dict:
    """1-D payloads, as the variable collectives take send buffers."""
    return {
        "readonly": np.frombuffer(bytes(range(16)), dtype=np.uint8),
        "strided": np.arange(24, dtype=np.int64)[::3],
        "empty": np.empty(0, dtype=np.float32),
        "structured": np.array([(1, 2.0), (3, 4.0)],
                               dtype=[("a", "<i4"), ("b", "<f8")]),
        "object": np.array([1, "x"], dtype=object),
    }


def layout(obj):
    """Everything a receiver can observe about a payload's memory."""
    if isinstance(obj, np.ndarray):
        data = (obj.tolist() if obj.dtype.hasobject else obj.tobytes())
        return (type(obj).__name__, str(obj.dtype), obj.shape, data,
                obj.flags.writeable, obj.flags.c_contiguous,
                obj.flags.f_contiguous)
    if isinstance(obj, np.random.RandomState):
        return ("RandomState", obj.random_sample(4).tolist())
    if isinstance(obj, np.random.Generator):
        return ("Generator", obj.random(4).tolist())
    if isinstance(obj, Rebuilt):
        return ("Rebuilt", layout(obj.values))
    if isinstance(obj, Buffered):
        return ("Buffered", obj.data)
    if isinstance(obj, dict):
        return {k: layout(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        aliases = tuple(j for j, x in enumerate(obj)
                        if any(x is y for y in obj[:j]))
        return (type(obj).__name__, aliases, [layout(v) for v in obj])
    return (type(obj).__name__, repr(obj))


def _p2p(comm):
    out = {}
    for name, payload in _payloads().items():
        if comm.rank == 0:
            comm.send(payload, 1, 0)
        else:
            out[name] = layout(comm.recv(0, 0)[0])
    return out


def _bcast(comm):
    return {name: layout(comm.bcast(payload if comm.rank == 0 else None))
            for name, payload in _payloads().items()}


def _allgatherv(comm):
    out = {}
    for name, vec in _vector_payloads().items():
        out[name] = layout(comm.allgatherv(vec, [len(vec)] * comm.size))
    return out


def _alltoallv(comm):
    out = {}
    for name, vec in _vector_payloads().items():
        counts = [len(vec) // comm.size] * comm.size
        counts[-1] += len(vec) - sum(counts)
        out[name] = layout(comm.alltoallv(vec, counts, counts))
    return out


@pytest.mark.parametrize("program", [_p2p, _bcast, _allgatherv, _alltoallv],
                         ids=["send_recv", "bcast", "allgatherv",
                              "alltoallv"])
def test_payload_layout_matches_thread_backend(program):
    got = run_mpi(program, 2, backend="process", deadline=30.0).values
    ref = run_mpi(program, 2, backend="thread", deadline=30.0).values
    for rank in range(2):
        for name in ref[rank]:
            assert got[rank][name] == ref[rank][name], (rank, name)


def _fresh(tag: int) -> np.ndarray:
    return np.arange(MIB // 8, dtype=np.int64) + tag


def _mutate_after_send(comm):
    sends = ("send", "isend", "ssend")
    if comm.rank == 0:
        for tag, op in enumerate(sends):
            a = _fresh(tag)
            getattr(comm, op)(a, 1, tag)
            a[:] = -1
            b = _fresh(tag)
            box = [b[::2], {"b": b}]
            getattr(comm, op)(box, 1, tag + len(sends))
            b[:] = -1
            box[0] = None
        return None
    ok = []
    for tag in range(len(sends)):
        ok.append(np.array_equal(comm.recv(0, tag)[0], _fresh(tag)))
    for tag in range(len(sends)):
        got, _ = comm.recv(0, tag + len(sends))
        ok.append(np.array_equal(got[0], _fresh(tag)[::2])
                  and np.array_equal(got[1]["b"], _fresh(tag)))
    return ok


def test_mutating_the_send_buffer_after_return_is_invisible():
    res = run_mpi(_mutate_after_send, 2, backend="process", deadline=30.0)
    assert res.values[1] == [True] * 6


def _unpicklable_then_valid(comm):
    valid = np.arange(MIB // 8, dtype=np.int64)
    if comm.rank == 0:
        # the array reaches the pickler before the lock fails it: nothing of
        # it may be on the pipe when the error surfaces
        with pytest.raises(RawUsageError, match="could not be pickled"):
            comm.send([np.ones(MIB // 8), threading.Lock()], 1, 7)
        comm.send({"valid": valid}, 1, 7)
        comm.barrier()
        return None
    got, _ = comm.recv(0, 7)
    comm.barrier()
    stray, _ = comm.iprobe(0)
    return np.array_equal(got["valid"], valid), stray


def test_unpicklable_payload_leaves_the_stream_intact():
    res = run_mpi(_unpicklable_then_valid, 2, backend="process",
                  deadline=30.0)
    assert res.values[1] == (True, False)

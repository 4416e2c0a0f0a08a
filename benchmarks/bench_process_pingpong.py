"""Process-backend ping-pong: the transport's latency and bandwidth at p=2.

Rank 0 sends a payload to rank 1, which sends it back; the half round trip
(one-way time) is the wall time of a block of round trips divided by twice
their number.  Payloads: a Python int (a message without arrays), and int64
arrays of 8 B, 1 MiB and 8 MiB.  Every returned payload is checked against
what was sent.  Reported: the median half round trip over the blocks, and
the one-way rate for the arrays.

    PYTHONPATH=src python -m benchmarks.bench_process_pingpong
"""

from __future__ import annotations

import time

import numpy as np

from repro.mpi import run_mpi

from benchmarks.conftest import report

MIB = 2 ** 20
#: (label, payload bytes or None for the int, round trips per block)
CASES = (("int", None, 2000), ("8 B", 8, 2000),
         ("1 MiB", MIB, 100), ("8 MiB", 8 * MIB, 20))
BLOCKS = 5


def _pingpong(raw, nbytes, trips, blocks):
    payload = (12345 if nbytes is None
               else np.arange(nbytes // 8, dtype=np.int64))
    other = 1 - raw.rank
    halves = []
    for _ in range(blocks + 1):  # the first block warms up
        t0 = time.perf_counter()
        for _ in range(trips):
            if raw.rank == 0:
                raw.send(payload, other, 0)
                back, _ = raw.recv(other, 0)
            else:
                back, _ = raw.recv(other, 0)
                raw.send(back, other, 0)
        halves.append((time.perf_counter() - t0) / (2 * trips))
        if not np.array_equal(back, payload):
            raise AssertionError("ping-pong payload came back changed")
    return float(np.median(halves[1:]))


def measure(blocks: int = BLOCKS) -> list[tuple[str, int | None, float]]:
    """``[(label, nbytes, median half round trip in s)]`` for every case."""
    rows = []
    for label, nbytes, trips in CASES:
        res = run_mpi(_pingpong, 2, args=(nbytes, trips, blocks),
                      backend="process")
        rows.append((label, nbytes, res.values[0]))
    return rows


def table(rows) -> str:
    lines = [f"{'payload':>8} {'half RTT':>12} {'one-way rate':>14}"]
    for label, nbytes, half in rows:
        rate = f"{nbytes / half / 1e9:10.2f} GB/s" if nbytes else ""
        lines.append(f"{label:>8} {half * 1e6:9.1f} us {rate:>14}")
    return "\n".join(lines)


def test_process_pingpong(benchmark):
    rows = benchmark.pedantic(measure, args=(2,), rounds=1, iterations=1)
    for label, _, half in rows:
        benchmark.extra_info[f"half_rtt_us[{label}]"] = half * 1e6
    report("Process-backend ping-pong (p=2, median half round trip)",
           table(rows))
    assert all(half > 0 for _, _, half in rows)


if __name__ == "__main__":
    print(table(measure()))

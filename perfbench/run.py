"""Wall-clock overhead ledger: the repository's benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload small_calls --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20      # every workload

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``small_calls``, ``samplesort``, ``bulk_process`` and ``service_stream``.
``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` is the separate traced run that reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every figure with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_calls", "samplesort", "bulk_process", "service_stream")
#: workloads whose ranks are threads of this process run pinned to one CPU.
#: The interpreter lock lets one rank thread run at a time anyway, and
#: cross-CPU wake-ups made the p=2 small_calls step vary threefold between
#: runs (962-3061 us over five seeds unpinned, 800-925 us pinned).  The
#: process backend's ranks need a CPU each, so bulk_process is not pinned.
PINNED = ("small_calls", "samplesort", "service_stream")


def contract() -> tuple[dict, dict]:
    """``({name: unit} end-to-end, {name: unit} per-layer)`` from
    ``BENCHMARK.json``, which names every metric a run must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"the program's sources are missing ({src}/repro); run from a "
              f"checkout of the repository")
    sys.path.insert(0, src)


def _module(workload: str):
    import importlib

    return importlib.import_module(workload)


# -- end-to-end --------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float,
               units: dict) -> tuple[dict, dict]:
    """Medians of the workload's samples, and peak resident memory."""
    from common import median, peak_rss_mb

    res = _module(workload).run(seed, seconds)
    values = {name: median(res[name]) for name in units
              if name != "peak_rss_mb"}
    values["peak_rss_mb"] = peak_rss_mb()
    return values, res


def report_end_to_end(workload: str, values: dict, res: dict,
                      units: dict) -> None:
    from common import median, quartile_spread, tail

    print(f"unit of work: {res['unit']}")
    for name, unit in units.items():
        samples = res.get(name)
        extra = ""
        if samples is not None:
            extra = (f"  (n={len(samples)}, in-run quartile spread "
                     f"{quartile_spread(samples):.3f})")
        print(f"  {name:<16} {values[name]:>14.4f} {unit}{extra}")
    named = _named(workload, values, res)
    print(f"{workload} figures by name:")
    for name, (value, unit) in named.items():
        print(f"  {name:<28} {value:>16.4f} {unit}")
    if workload == "service_stream":
        pct, value = tail(res["latency_ms"])
        n = len(res["latency_ms"])
        print(f"  job_latency_ms_p{pct:g}: {value:.3f} ms over {n} jobs "
              f"(open-loop tail: printed, not gated)")
        print(f"  generator lateness: median "
              f"{median(res['lateness_ms']):.3f} ms, max "
              f"{max(res['lateness_ms']):.3f} ms; jobs per group: burst "
              f"{res['burst_jobs_per_group']:.2f}, open loop "
              f"{res['open_jobs_per_group']:.2f}; rejected "
              f"{res['rejected']}")


def _named(workload: str, values: dict, res: dict) -> dict:
    """The figures each workload is known by, derived from its medians."""
    out = {"setup_s": (values["setup_s"], "s"),
           "peak_rss_mb": (values["peak_rss_mb"], "MB"),
           "failed_share": (res["failed"] / max(res["attempted"], 1),
                            "share")}
    if workload == "small_calls":
        out["wrapped_call_us.p1"] = (values["wrapped_p1_us"], "us")
        out["wrapped_call_us.p2"] = (values["wrapped_us"], "us")
        out["raw_call_us.p1"] = (values["raw_p1_us"], "us")
        out["raw_call_us.p2"] = (values["raw_us"], "us")
    elif workload == "samplesort":
        from samplesort import KEYS_PER_RANK

        out["sort_elems_per_s"] = (
            2 * KEYS_PER_RANK / (values["wrapped_us"] * 1e-6), "1/s")
    elif workload == "bulk_process":
        from bulk_process import delivered_bytes

        out["bandwidth_gbs"] = (
            delivered_bytes(2) / (values["wrapped_us"] * 1e-6) / 1e9,
            "GB/s (pickle+pipe transport rate)")
    else:
        out["jobs_per_s"] = (1e6 / values["wrapped_us"], "1/s")
        out["job_latency_ms"] = (values["latency_ms"], "ms")
    return out


# -- per-layer (the traced run) ------------------------------------------------

def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import bulk_process
    import samplesort
    import service_stream
    import small_calls
    from common import median, spawn_seconds
    from counts import count_pass
    from repro.mpi import run_mpi
    from spans import LayerTracer, diff

    mod = _module(workload)
    checks = {"attempted": 0, "failed": 0}

    def tally(res):
        checks["attempted"] += res["attempted"]
        checks["failed"] += res["failed"]

    base = mod.run(seed, 0.15 * seconds)
    tally(base)
    reference = run_mpi(small_calls.wrapped_loop, 2,
                        args=(seed, 0.05 * seconds)).values[0]
    tracer = LayerTracer()
    m: dict = {}
    with tracer.installed():
        before = tracer.snapshot()
        traced = mod.run(seed, 0.15 * seconds, tracer)
        tally(traced)
        m.update(_generic_layers(diff(tracer.snapshot(), before)))
        m["bench.trace_overhead"] = (median(traced["wrapped_us"])
                                     - median(base["wrapped_us"]))
        for family in (samplesort, bulk_process, service_stream):
            own = family is mod
            values, res = family.layer_metrics(
                seed, (0.15 if own else 0.03) * seconds, tracer)
            tally(res)
            virtual = values.pop("virtual_s")
            if own:
                m["virtual_s"] = virtual
            m.update(values)
        ledger = _ledger(seed, 0.05 * seconds, tracer)
        counts, mismatches = count_pass(seed, tracer)
    checks["attempted"] += len(counts)
    checks["failed"] += mismatches
    for p, row in counts.items():
        m[f"rawcomm.ops_per_wrapped_call.p{p}"] = row["ops_per_call"]
        m[f"p2p.messages_per_call.p{p}"] = row["messages_per_call"]
        m[f"p2p.bytes_per_call.p{p}"] = row["bytes_per_call"]
    m["core.plan_hits"] = counts[2]["plan_hits"]
    m["core.plan_compilations"] = counts[2]["plan_compilations"]
    m["core.plan_hit_ratio"] = counts[2]["plan_hits"] / (
        counts[2]["plan_hits"] + counts[2]["plan_compilations"])
    m["engine.resolves"] = counts[2]["resolves_per_call"]
    if workload == "small_calls":
        m["virtual_s"] = counts[2]["virtual_s"]
    m["core.overhead_ratio.p1"] = (median(base["wrapped_p1_us"])
                                   / median(base["raw_p1_us"]))
    m["thread.spawn_ms"] = median(spawn_seconds("thread", 2, 41)) * 1e3
    saving, saving_iqr = small_calls.plan_cache_saving(seed, 0.1 * seconds)
    m["core.plan_cache_saving_us"] = saving
    m["core.plan_cache_saving_iqr_us"] = saving_iqr
    m["tracing.on_us"] = small_calls.tracing_cost(seed, 0.1 * seconds)
    ledger["untraced_step_us"] = median(reference) * 1e6
    m["bench.span_coverage"] = sum(ledger["self_us"].values()) / ledger[
        "step_us"]
    return m, {"checks": checks, "counts": counts, "ledger": ledger}


def _generic_layers(spans: dict) -> dict:
    """Per-call times of the layers every workload crosses."""
    from spans import layer_totals

    def per_call(layer, names=None, column=1):
        row = layer_totals(spans, layer, names)
        return row[column] * 1e6 / row[0] if row[0] else 0.0

    snap = layer_totals(spans, "datatypes")
    mib = snap[3] / 2 ** 20
    return {
        "core.binding_us": per_call("core", column=2),
        "core.plan_lookup_us": per_call("core.plan", ("lookup",)),
        "engine.resolve_us": per_call("engine"),
        "rawcomm.op_us": per_call("rawcomm", column=2),
        "p2p.deposit_us": per_call("p2p", ("deposit", "remote_deposit"),
                                   column=2),
        "p2p.wait_us": per_call("p2p", ("wait",)),
        "datatypes.snapshot_us_per_mib": snap[1] * 1e6 / mib if mib else 0.0,
    }


#: layers whose self times make up a wrapped call, in call order
LEDGER_LAYERS = ("core", "core.plan", "engine", "rawcomm", "datatypes", "p2p")


def _ledger(seed: int, seconds: float, tracer) -> dict:
    """Self time per layer per wrapped p=2 step of the ``small_calls`` mix,
    and the traced step time they add up to."""
    from repro.mpi import run_mpi
    from small_calls import BLOCK, wrapped_loop
    from spans import diff, layer_totals

    before = tracer.snapshot()
    res = run_mpi(wrapped_loop, 2, args=(seed, seconds, tracer))
    spans = diff(tracer.snapshot(), before)
    times = res.values[0]
    steps = len(times) * BLOCK[2]
    wall_us = sum(times) * BLOCK[2] * 1e6 / steps
    per_step = {layer: layer_totals(spans, layer)[2] * 1e6 / (2 * steps)
                for layer in LEDGER_LAYERS}
    wait = layer_totals(spans, "p2p", ("wait",))[2] * 1e6 / (2 * steps)
    return {"step_us": wall_us, "self_us": per_step, "wait_us": wait}


def report_per_layer(metrics: dict, extra: dict, units: dict) -> None:
    ledger = extra["ledger"]
    accounted = sum(ledger["self_us"].values())
    print(f"ledger: one wrapped p=2 small_calls step, per rank: traced "
          f"{ledger['step_us']:.1f} us, untraced "
          f"{ledger['untraced_step_us']:.1f} us; the spans' self times add "
          f"up to {accounted:.1f} us of the traced step, and tracing adds "
          f"{ledger['step_us'] - ledger['untraced_step_us']:.1f} us")
    for layer, us in ledger["self_us"].items():
        note = (f"  (of which blocked in Mailbox.wait {ledger['wait_us']:.1f})"
                if layer == "p2p" else "")
        print(f"  self {layer:<10} {us:>10.1f} us{note}")
    print("exact counts (small_calls mix, untimed, two identical runs "
          "required):")
    for p, row in extra["counts"].items():
        print(f"  p={p}: raw ops {row['raw_ops']}, per wrapped call "
              f"{row['ops_per_call']:.4f}; messages/call "
              f"{row['messages_per_call']:.4f}; bytes/call "
              f"{row['bytes_per_call']:.2f}; plan hits {row['plan_hits']} / "
              f"compilations {row['plan_compilations']}; virtual "
              f"{row['virtual_s']!r} s")
        print(f"       engine decisions: {row['decision_sources']}")
    saving = metrics["core.plan_cache_saving_us"]
    iqr = metrics["core.plan_cache_saving_iqr_us"]
    verdict = ("less than that spread: this run does not resolve the "
               "cache's saving" if abs(saving) < iqr else
               "more than that spread")
    print(f"plan cache saving at p=1: {saving:.2f} us per step (median of "
          f"paired blocks); block-to-block quartile distance {iqr:.2f} us; "
          f"the saving is {verdict}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")


# -- command line ----------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    status = 0
    for workload in WORKLOADS:
        print(f"=== {workload} ===", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=os.getcwd(), check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (untraced), one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")

    from common import machine_context

    if args.workload in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"machine: {json.dumps(machine_context())}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    e2e_units, layer_units = contract()
    if args.trace:
        metrics, extra = per_layer(args.workload, args.seed, args.seconds)
        units = layer_units
        report_per_layer(metrics, extra, units)
        checks = extra["checks"]
    else:
        metrics, res = end_to_end(args.workload, args.seed, args.seconds,
                                  e2e_units)
        units = e2e_units
        report_end_to_end(args.workload, metrics, res, units)
        checks = res
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": int(checks["attempted"]),
        "failed": int(checks["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

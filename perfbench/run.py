#!/usr/bin/env python3
"""The repository benchmark: five workloads from the wire down to the macro.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire_small --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` splits the
measuring time into an untraced half and a traced half and reports the
per-layer metrics, the tracing overhead (traced against untraced cost per
unit of work) and the spans' coverage.  Metric names, units and
better-directions come from ``BENCHMARK.json``; which end-to-end metric
each layer metric should move is in :mod:`layers`.

The program under test is imported from ``src/`` of the checkout; a
directory without it makes the benchmark exit with status 2 before it
prints any result.  A human-readable report precedes the last line of
standard output, which is the one-line JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from common import HostSpeed, Outcome, own_peak_rss_mb, stop_children  # noqa: E402
from layers import LAYER_MAP  # noqa: E402
from spans import SpanRecorder, root_time_s, summarize  # noqa: E402

#: Set-ups per run, at least, and at least this much set-up time in all;
#: ``setup_s`` is their median.  The first one also pays the in-process
#: imports, which the median therefore leaves out.  A set-up of a few
#: milliseconds is repeated until the median is steady.
SETUP_REPEATS = 9
SETUP_MIN_TOTAL_S = 0.5

WORKLOADS = {
    "wire_small": ("wl_wire", "WireSmall"),
    "replay_diurnal": ("wl_cluster", "ReplayDiurnal"),
    "exact_multimodel": ("wl_cluster", "ExactMultimodel"),
    "fleet_exact": ("wl_cluster", "FleetExact"),
    "paper_kernels": ("wl_kernels", "PaperKernels"),
}


def provenance(seed: int, traced: bool) -> dict:
    """Where a result came from: code version, host and settings."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "traced": traced,
    }


def set_up(workload, seed: int, host: HostSpeed):
    """Set the workload up repeatedly (see ``SETUP_REPEATS``); keep the last."""
    durations = []
    problems = []
    spent = 0.0
    while True:
        host.sample()
        started = time.perf_counter()
        state = workload.setup(seed)
        took = time.perf_counter() - started
        durations.append(took / host.scale)
        spent += took
        if len(durations) >= SETUP_REPEATS and spent >= SETUP_MIN_TOTAL_S:
            return state, statistics.median(durations), problems
        problems += workload.close(state)


def run(workload, seed: int, seconds: float, traced: bool):
    """Set up, measure, check and tear down one workload."""
    outcome = Outcome()
    host = HostSpeed()
    state, setup_s, problems = set_up(workload, seed, host)
    layers = span_tables = None
    try:
        if traced:
            half = seconds / 2.0
            base = workload.measure(state, half, host)
            recorder = SpanRecorder()
            with workload.instrument(state, recorder):
                window = workload.measure(state, half, host)
            layers = workload.layers(state, window, recorder, base)
            layers.setdefault(
                "trace.overhead_frac",
                statistics.median(base.rates) / statistics.median(window.rates) - 1.0,
            )
            if "trace.coverage" not in layers:
                layers["trace.coverage"] = min(
                    1.0, root_time_s(recorder.spans) / window.cpu_s
                )
            recorder.write_jsonl(
                os.path.join(RESULTS, f"spans-{workload.name}-seed{seed}.jsonl"),
                "load",
            )
            span_tables = {"load": summarize(recorder.spans)}
            span_tables.update(getattr(state, "span_tables", {}))
        else:
            base = window = workload.measure(state, seconds, host)
        workload.check(state, outcome)
        # End-to-end figures always come from untraced measurement.
        end_to_end = workload.end_to_end(state, base)
        named_metrics = workload.report(state, base)
    finally:
        try:
            problems += workload.close(state)
        finally:
            problems += stop_children()
    # Teardown hygiene (every process stopped, no port or shared-memory
    # segment left) is checked by each workload's close() and by
    # stop_children(), which also reaps what close() left behind.
    outcome.record(1, len(problems), "; ".join(problems))
    end_to_end["setup_s"] = setup_s
    # Taken after a fixed amount of work where the workload records it:
    # a faster program must not look worse for having served more.
    end_to_end["peak_rss_mb"] = getattr(state, "peak_rss_mb", None) or own_peak_rss_mb()
    named_metrics.append(
        ("host_probe_ms", statistics.median(host.probes_s) * 1e3, "ms", "lower")
    )
    return outcome, end_to_end, layers, named_metrics, span_tables


def _metric_block(specs, values: dict) -> dict:
    block = {}
    for spec in specs:
        value = float(values[spec["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {spec['name']} is not finite: {value}")
        block[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program source not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    module_name, class_name = WORKLOADS[args.workload]
    workload = getattr(__import__(module_name), class_name)()
    traced = bool(args.trace)
    stamp = provenance(args.seed, traced)
    try:
        outcome, end_to_end, layers, named_metrics, span_tables = run(
            workload, args.seed, args.seconds, traced
        )
    finally:
        # A failed set-up or measurement must not leave workers behind.
        stop_children()

    print(f"workload {args.workload}: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    attempted = max(outcome.attempted, 1)
    print(f"  fail_frac = {outcome.failed / attempted:.6g} "
          f"({outcome.failed} of {attempted} operations)")
    for note in outcome.notes:
        print(f"  FAILED: {note}")
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    for name, value in end_to_end.items():
        unit, better = units[name]
        print(f"  {name:<34} {value:>14.6g} {unit:<8} ({better} is better)")
    for name, value, unit, better in named_metrics:
        print(f"  {name:<34} {value:>14.6g} {unit:<8} ({better} is better)")
    if traced:
        layer_units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        print("  per-layer (traced half):")
        for name in sorted(layer_units):
            unit, better = layer_units[name]
            moves = LAYER_MAP.get(name.rsplit(".", 1)[0], "")
            print(f"    {name:<40} {layers.get(name, 0.0):>14.6g} {unit:<6} "
                  f"({better}) {moves}")
        print("  spans (traced half): process / name / calls / total ms / self ms")
        for process, table in span_tables.items():
            for name, row in sorted(table.items()):
                print(f"    {process:<7} {name:<34} {row['calls']:>9.0f} "
                      f"{row['total_s'] * 1e3:>11.3f} {row['self_s'] * 1e3:>11.3f}")
        metrics = _metric_block(spec["per_layer"], {**dict.fromkeys(layer_units, 0.0), **layers})
    else:
        metrics = _metric_block(spec["end_to_end"], end_to_end)

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "provenance": stamp,
        "end_to_end": end_to_end,
        "named_metrics": {name: value for name, value, _, _ in named_metrics},
        "per_layer": layers,
        "attempted": attempted,
        "failed": outcome.failed,
        "failures": outcome.notes,
    }
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

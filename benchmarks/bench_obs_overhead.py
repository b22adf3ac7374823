"""Observability overhead: instrumented vs bare router replay, the 5% gate.

The ``repro.obs`` layer instruments the cluster through vectorized folds at
telemetry flush boundaries plus scrape-time collectors, with request spans
sampled deterministically (``request_id % sample_every == 0``).  The claim
that buys is "observability is cheap": a fully instrumented router —
metrics registry attached, tracer sampling at the default 1/1024 — must
replay the same trace at no more than ``OVERHEAD_GATE`` (5%) fewer
requests/sec than a bare router, while producing **bit-identical** cluster
ledgers and telemetry summaries (instrumentation must never perturb the
virtual-time simulation, only observe it).

Both sides run the columnar kernel in its aggregates-only deployment shape
on the same diurnal trace (10^5 requests by default, 10^4 in smoke mode).
Each side is replayed ``ROUNDS`` times and the best requests/sec is kept,
so a single scheduler hiccup cannot fail the gate; fidelity is compared on
every run, so a single divergence *does* fail it.

The instrumented run's final registry snapshot is written to
``benchmarks/results/metrics_snapshot.json`` — the ``metrics-snapshot``
CI artifact, and the demo input for ``python -m repro.obs report``.

Acceptance gates of the observability PR:

* ``overhead_fraction = 1 - instrumented_rps / bare_rps`` <= 5%,
* zero field mismatches between bare and instrumented summaries/ledgers
  (host-wall fields excluded),
* no requests lost on either side,
* the registry's ``cluster_requests_total`` agrees with the replay.

JSON lands in ``benchmarks/results/obs_overhead.json`` for the
bench-regression CI gate.
"""

import gc
import os

from repro.analysis.report import format_table
from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ClusterTelemetry,
    ExecutionMode,
    ForwardMemo,
    SLAScheduler,
    build_image_pool,
    diurnal_trace,
)
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.obs import MetricsRegistry, Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Same workload geometry as ``bench_event_kernel`` so the bare side here
#: is directly comparable to that bench's columnar runs.
IMAGE_SIZE = 24
IMAGE_COUNTS = (128, 192, 256)
NUM_MACROS = 8
HIDDEN_SIZES = (4,)
EPOCHS = 6
DRAIN_EVERY = 1_024

#: The ISSUE's 10^5-request overhead workload (10^4 in smoke mode).
REQUESTS = 10_000 if SMOKE else 100_000
#: Default trace sampling: one request in 1024 gets a full span tree.
SAMPLE_EVERY = 1_024
#: Maximum allowed throughput loss from full instrumentation.  The 5%
#: gate is defined on the full 10^5 replay; the ~20 ms smoke replay has
#: several percent of scheduler jitter even under the paired-median
#: estimator, so smoke gets headroom (it still catches a per-request
#: hot-path regression, which shows up as tens of percent).
OVERHEAD_GATE = 0.10 if SMOKE else 0.05
#: Timed bare/instrumented pairs (plus one untimed warm pair).
ROUNDS = 5

#: Host-wall fields excluded from the field-by-field fidelity comparison.
_WALL_FIELDS = ("wall_s", "requests_per_s", "images_per_s")


def _build_workload():
    dataset = make_pattern_image_dataset(
        samples=4 * max(IMAGE_COUNTS) + 400, size=IMAGE_SIZE, seed=13
    )
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=HIDDEN_SIZES, epochs=EPOCHS, seed=13
    )
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
    return cnn, pool


def _make_trace(requests: int):
    return diurnal_trace(
        requests,
        period_s=64.0,
        base_rate_rps=600.0,
        peak_rate_rps=2400.0,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix={"latency": 0.2, "throughput": 0.5, "best_effort": 0.3},
        deadline_s=1.0,
        seed=13,
    )


def _make_router(cnn, instrumented: bool):
    """A 2-node columnar router; node ids match on both sides so the
    ledger comparison is label-for-label identical."""
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"node-{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]
    metrics = MetricsRegistry() if instrumented else None
    tracer = Tracer(sample_every=SAMPLE_EVERY) if instrumented else None
    router = ClusterRouter(
        nodes,
        scheduler=SLAScheduler(),
        kernel="columnar",
        telemetry=ClusterTelemetry(retain_traces=False),
        retain_results=False,
        metrics=metrics,
        tracer=tracer,
    )
    router.register_model("cnn", cnn)
    return router, metrics, tracer


def _warm_up(router, pool) -> None:
    """Program weights on every node and populate the shared memo outside
    the timed loop (steady-state replay is what the bench measures)."""
    for node in router.nodes:
        for slots in pool.values():
            for digest, images in slots:
                node.execute("cnn", images, input_digest=digest)


def _run_once(cnn, pool, requests: int, instrumented: bool):
    """One measured replay, returning (comparable stats, registry, tracer)."""
    trace = _make_trace(requests)
    router, metrics, tracer = _make_router(cnn, instrumented)
    try:
        _warm_up(router, pool)
        # A GC pause mid-replay is a 10x outlier on a ~20 ms smoke replay;
        # collecting the warm-up garbage first keeps the timing comparable.
        gc.collect()
        stats = router.replay_trace(trace, pool, drain_every=DRAIN_EVERY)
        stats["completed"] = float(router.completed_requests)
        stats.update(router.telemetry.summary())
        ledger = router.ledger()
        stats["ledger_cycles"] = float(ledger.total_cycles)
        stats["ledger_energy_j"] = ledger.total_energy_j
        snapshot = metrics.snapshot() if metrics is not None else None
    finally:
        router.shutdown()
    return stats, snapshot, tracer


def _measure(cnn, pool, requests: int, rounds: int) -> dict:
    """Interleaved bare/instrumented replay pairs; median pair overhead.

    Two defenses against host noise on a ~0.3 s replay:

    * **pairing** — each round replays bare then instrumented back to
      back, so a round's overhead ratio compares two runs under the same
      few seconds of machine state (running all bare rounds first would
      fold machine-speed drift straight into the estimate);
    * **median** — the gate reads the median of the per-round overheads,
      so a single descheduled round cannot fail (or pass) the bench.

    One untimed warm pair runs first to absorb process-level warmup.
    Fidelity must hold on *every* run, including the warm pair.
    """
    bare_best = None
    instr_best = None
    snapshot = None
    tracer = None
    runs = []
    overheads = []
    for round_index in range(rounds + 1):
        bare_stats, _, _ = _run_once(cnn, pool, requests, False)
        instr_stats, instr_snapshot, instr_tracer = _run_once(
            cnn, pool, requests, True
        )
        runs.extend((bare_stats, instr_stats))
        if round_index == 0:
            continue  # warm pair: fidelity-checked, never timed
        overheads.append(
            1.0 - instr_stats["requests_per_s"] / bare_stats["requests_per_s"]
        )
        if bare_best is None or bare_stats["requests_per_s"] > bare_best["requests_per_s"]:
            bare_best = bare_stats
        if instr_best is None or instr_stats["requests_per_s"] > instr_best["requests_per_s"]:
            instr_best = instr_stats
            snapshot = instr_snapshot
            tracer = instr_tracer
    overheads.sort()
    return {
        "bare": bare_best,
        "instrumented": instr_best,
        "snapshot": snapshot,
        "tracer": tracer,
        "runs": runs,
        "round_overheads": overheads,
        "overhead_fraction": overheads[len(overheads) // 2],
    }


def _mismatched_fields(reference: dict, candidate: dict) -> list:
    return [
        key
        for key, value in reference.items()
        if key not in _WALL_FIELDS and candidate.get(key) != value
    ]


def _registry_request_count(snapshot: dict) -> float:
    family = snapshot.get("metrics", {}).get("cluster_requests_total", {})
    return float(sum(s["value"] for s in family.get("samples", ())))


def test_obs_overhead(benchmark, reporter, write_results_json):
    cnn, pool = _build_workload()

    measured = benchmark.pedantic(
        _measure,
        args=(cnn, pool, REQUESTS, ROUNDS),
        rounds=1,
        iterations=1,
    )
    bare = measured["bare"]
    instrumented = measured["instrumented"]
    snapshot = measured["snapshot"]
    tracer = measured["tracer"]

    # Fidelity: every run — bare or instrumented — must match the bare
    # reference field-for-field (the simulation is deterministic, so any
    # drift is a bug either way).
    mismatches = sorted(
        {
            key
            for candidate in measured["runs"]
            for key in _mismatched_fields(bare, candidate)
        }
    )

    overhead_fraction = measured["overhead_fraction"]
    counted = _registry_request_count(snapshot)
    sampled = float(tracer.sampled_requests)

    rows = [
        [
            "bare",
            int(bare["requests"]),
            f"{bare['requests_per_s']:.0f}",
            "—",
        ],
        [
            "instrumented",
            int(instrumented["requests"]),
            f"{instrumented['requests_per_s']:.0f}",
            f"{overhead_fraction * 100:+.2f}%",
        ],
    ]
    reporter(
        "Observability overhead: columnar replay, metrics+tracing attached",
        format_table(["router", "requests", "req/s", "overhead"], rows)
        + f"\nregistry counted {int(counted)} requests, "
        f"tracer sampled {int(sampled)} (1/{SAMPLE_EVERY})"
        + f"\nfidelity mismatches vs bare: "
        f"{mismatches if mismatches else 'none'}",
    )

    write_results_json(
        "obs_overhead",
        {
            "smoke": SMOKE,
            "image_size": IMAGE_SIZE,
            "image_counts": list(IMAGE_COUNTS),
            "num_macros": NUM_MACROS,
            "requests": REQUESTS,
            "sample_every": SAMPLE_EVERY,
            "rounds_per_side": ROUNDS,
            "bare": bare,
            "instrumented": instrumented,
            "overhead_fraction": overhead_fraction,
            "overhead_gate": OVERHEAD_GATE,
            "overhead_within_gate": 1.0 if overhead_fraction <= OVERHEAD_GATE else 0.0,
            "round_overheads": measured["round_overheads"],
            "registry_requests_total": counted,
            "registry_matches_replay": 1.0 if counted == instrumented["requests"] else 0.0,
            "tracer_sampled_requests": sampled,
            "ledger_bit_exact": 0.0 if mismatches else 1.0,
            "fidelity_mismatches": mismatches,
        },
    )
    # The metrics-snapshot CI artifact: the instrumented run's final
    # registry state, renderable via `python -m repro.obs report`.
    write_results_json("metrics_snapshot", snapshot)

    # Acceptance gates of the observability PR.
    assert not mismatches, f"instrumentation perturbed the replay: {mismatches}"
    assert overhead_fraction <= OVERHEAD_GATE
    assert bare["completed"] == bare["requests"]
    assert instrumented["completed"] == instrumented["requests"]
    assert counted == instrumented["requests"]
    assert sampled > 0

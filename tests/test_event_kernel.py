"""Differential suite: the columnar kernel's accelerators vs the one loop.

``ClusterRouter`` runs a single per-request serving loop on both kernels.
``kernel="columnar"`` adds two accelerators on top of it, and this suite
checks each against the plain ``kernel="object"`` router as the oracle:

* **turbo chunks vs the per-request loop** — steady-state
  ``replay_trace`` chunks replayed in batch by
  :class:`repro.cluster.EventKernel`, their engine charges deferred and
  folded at flush time (``TestTurboDifferential``; chunks that cannot
  take the turbo path fall back to the loop mid-replay);
* **turbo rows vs per-request rows** — the one trace log and its
  aggregates (``TestDifferentialOracle``, ``TestFaultDifferential``: the
  per-request loop on both kernels), plus span emission: exactly one span
  tree per sampled request on either kernel.

Every comparison replays one randomized workload through both kernels —
same nodes, same scheduler, same fault plan, same drain cadence — and
requires the *entire* observable state to match bit for bit:

* the merged cluster ledger and every per-node ledger,
* the per-request trace rows (ids, placements, virtual times, energies,
  flags), in their merged emission order,
* the deadline-miss set,
* request conservation (``completed == admitted``, no loss under faults),
* node telemetry, spot-check counters and the shared forward-memo state
  (hits, misses and LRU order — turbo chunks batch their LRU writes).

Hypothesis drives the workload space (poisson / diurnal / burst arrival
processes, SLA mixes, binned fleets, fault plans, coalescing on and off,
EXACT and ANALYTIC modes); the shared ``ci`` profile in ``conftest.py``
keeps CI runs derandomized and bounded, ``REPRO_HYPOTHESIS_PROFILE=nightly``
widens the sweep.  The heavyweight cases carry ``@pytest.mark.slow`` — the
per-PR CI matrix deselects them, tier-1 and the nightly tier run them.
``tests/test_cluster_golden.py`` pins the same observables to a recorded
corpus on both kernels.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ColumnarTelemetry,
    ExecutionMode,
    ForwardMemo,
    RequestTrace,
    SLAScheduler,
    build_image_pool,
    burst_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.obs import MetricsRegistry, Tracer
from repro.reliability import ChipBinner, FaultEvent, FaultKind, FaultPlan
from repro.utils.validation import check_ledger_conservation

NUM_MACROS = 4
IMAGE_SIZE = 16
IMAGE_COUNTS = (3, 5)

_TRACE_FIELDS = [field.name for field in dataclasses.fields(RequestTrace)]


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=260, size=IMAGE_SIZE, seed=3)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=4, seed=3
    )
    return dataset, cnn


@pytest.fixture(scope="module")
def pool(trained):
    dataset, _ = trained
    return build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)


#: Binned dice shared by every binned-fleet example (binning is seeded and
#: deterministic; building it once keeps hypothesis examples fast).
_BINS = ChipBinner(seed=2020, samples=128).bin_fleet(3)


def _make_trace(kind: str, requests: int, deadline_s, sla_mix, seed: int):
    if kind == "poisson":
        return poisson_trace(
            requests, rate_rps=400.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
            deadline_s=deadline_s, seed=seed,
        )
    if kind == "diurnal":
        return diurnal_trace(
            requests, period_s=0.25, base_rate_rps=300.0,
            peak_rate_rps=1200.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
            deadline_s=deadline_s, seed=seed,
        )
    return burst_trace(
        requests, base_rate_rps=300.0, burst_every_s=0.08,
        burst_duration_s=0.02, burst_multiplier=6.0, model_ids=("cnn",),
        image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
        deadline_s=deadline_s, seed=seed,
    )


def _fault_plan(fault: str, span_s: float) -> FaultPlan:
    if fault == "none":
        return FaultPlan()
    if fault == "crash":
        return FaultPlan.node_crash(
            "n0", at_s=span_s * 0.3, recover_at_s=span_s * 0.7
        )
    if fault == "degrade":
        return FaultPlan([
            FaultEvent(at_s=span_s * 0.2, kind=FaultKind.DEGRADE,
                       node_id="n1", factor=2.0),
            FaultEvent(at_s=span_s * 0.6, kind=FaultKind.RECOVER,
                       node_id="n1"),
        ])
    return FaultPlan([  # "mixed": a stall riding on a crash window
        FaultEvent(at_s=span_s * 0.25, kind=FaultKind.CRASH, node_id="n0"),
        FaultEvent(at_s=span_s * 0.4, kind=FaultKind.STALL, node_id="n1",
                   duration_s=span_s * 0.1),
        FaultEvent(at_s=span_s * 0.65, kind=FaultKind.RECOVER,
                   node_id="n0"),
    ])


def _run(cnn, pool, trace, kernel, *, mode, vdds, binned, coalesce, fault,
         drain_every, spot_check_every=0, aggregates_only=False, warm=False):
    """One replay; returns every observable the oracle comparison pins."""
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"n{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=mode,
            forward_memo=memo,
            spot_check_every=spot_check_every,
            bin=_BINS[index] if binned else None,
        )
        for index, vdd in enumerate(vdds)
    ]
    plan = _fault_plan(fault, trace.duration_s)
    router = ClusterRouter(
        nodes,
        scheduler=SLAScheduler(coalesce_affinity=coalesce),
        coalesce=coalesce,
        fault_plan=plan,
        kernel=kernel,
        telemetry=(
            ColumnarTelemetry() if kernel == "columnar" else None
        ),
        retain_results=not aggregates_only,
    )
    router.register_model("cnn", cnn)
    try:
        if warm:
            for node in nodes:
                for slots in pool.values():
                    for digest, images in slots:
                        node.execute("cnn", images, input_digest=digest)
        stats = router.replay_trace(trace, pool, drain_every=drain_every)
        rows = [
            tuple(getattr(t, f) for f in _TRACE_FIELDS)
            for t in router.telemetry.traces
        ]
        cluster = router.ledger()
        check_ledger_conservation(
            cluster, [node.ledger() for node in nodes]
        )
        assert stats["completed"] == stats["requests"]
        observed = {
            "rows": rows,
            "summary": router.telemetry.summary(),
            "cluster_ledger": (cluster.total_cycles, cluster.total_energy_j,
                               cluster.total_operations),
            "clock": router.clock_s,
            "completed": router.completed_requests,
            "requests": stats["requests"],
            "miss_set": {
                r[0] for r in rows if r[_TRACE_FIELDS.index("deadline_missed")]
            },
            "replayed_set": {
                r[0] for r in rows if r[_TRACE_FIELDS.index("replayed")]
            },
            "memo": (memo.hits, memo.misses, tuple(memo._entries.keys())),
        }
        for node in nodes:
            ledger = node.ledger()
            tel = node.telemetry
            observed[f"node:{node.node_id}"] = (
                ledger.total_cycles, ledger.total_energy_j,
                tel.dispatches, tel.images, tel.busy_s, tel.energy_j,
                tel.deadline_misses, tel.affinity_hits,
                tel.ewma_image_latency_s, node.spot_checks,
                node.state.value,
            )
    finally:
        router.shutdown()
    return observed


def _assert_identical(reference, columnar):
    """Every observable matches, reported field-by-field on divergence."""
    assert set(reference) == set(columnar)
    for key, value in reference.items():
        if key == "rows":
            assert len(columnar[key]) == len(value)
            for got, want in zip(columnar[key], value):
                assert got == want
        else:
            assert columnar[key] == value, f"diverged on {key}"


sla_mixes = st.sampled_from([
    None,
    {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3},
    {"latency": 1.0},
    {"throughput": 0.5, "best_effort": 0.5},
])


class TestDifferentialOracle:
    """Turbo rows vs per-request rows: the per-request loop on both
    kernels; rows, aggregates and ledgers match bit for bit."""

    @given(
        kind=st.sampled_from(["poisson", "diurnal", "burst"]),
        requests=st.integers(min_value=5, max_value=40),
        drain_every=st.sampled_from([1, 7, 64]),
        sla_mix=sla_mixes,
        deadline_scale=st.sampled_from([None, 0.5, 4.0]),
        binned=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_analytic_traces_match(
        self, trained, pool, kind, requests, drain_every, sla_mix,
        deadline_scale, binned, seed,
    ):
        _, cnn = trained
        deadline_s = None if deadline_scale is None else deadline_scale * 5e-4
        if deadline_s is None and sla_mix is not None and "latency" in sla_mix:
            # A latency share requires a deadline; keep the undeadlined
            # examples on the other two classes.
            sla_mix = {"throughput": 0.5, "best_effort": 0.5}
        trace = _make_trace(kind, requests, deadline_s, sla_mix, seed)
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6), binned=binned,
            coalesce=False, fault="none", drain_every=drain_every,
        )
        reference = _run(cnn, pool, trace, "object", **config)
        columnar = _run(cnn, pool, trace, "columnar", **config)
        _assert_identical(reference, columnar)

    @given(
        kind=st.sampled_from(["poisson", "burst"]),
        requests=st.integers(min_value=5, max_value=25),
        coalesce=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_exact_mode_and_coalescing_match(
        self, trained, pool, kind, requests, coalesce, seed,
    ):
        _, cnn = trained
        trace = _make_trace(
            kind, requests, 2e-3,
            {"latency": 0.2, "throughput": 0.5, "best_effort": 0.3}, seed,
        )
        config = dict(
            mode=ExecutionMode.EXACT, vdds=(1.0, 0.8), binned=False,
            coalesce=coalesce, fault="none", drain_every=16,
        )
        reference = _run(cnn, pool, trace, "object", **config)
        columnar = _run(cnn, pool, trace, "columnar", **config)
        _assert_identical(reference, columnar)


class TestFaultDifferential:
    """Fault plans (crash / degrade / stall + replay) across both kernels:
    replayed requests land in both kernels' trace logs identically."""

    @given(
        fault=st.sampled_from(["crash", "degrade", "mixed"]),
        kind=st.sampled_from(["poisson", "diurnal"]),
        requests=st.integers(min_value=10, max_value=40),
        drain_every=st.sampled_from([4, 32]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fault_plans_match_and_conserve(
        self, trained, pool, fault, kind, requests, drain_every, seed,
    ):
        _, cnn = trained
        trace = _make_trace(
            kind, requests, 1e-3,
            {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}, seed,
        )
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6, 0.8), binned=False,
            coalesce=False, fault=fault, drain_every=drain_every,
        )
        reference = _run(cnn, pool, trace, "object", **config)
        columnar = _run(cnn, pool, trace, "columnar", **config)
        # _run already asserted conservation per-side; the replayed request
        # set (crash re-placements) must also coincide.
        assert columnar["replayed_set"] == reference["replayed_set"]
        _assert_identical(reference, columnar)


@pytest.mark.slow
class TestTurboDifferential:
    """Turbo chunks vs the per-request loop at depth.

    Warm memoised fleets with spot checks on, hundreds of requests,
    drain chunks large enough that the columnar side takes its turbo
    admission/dispatch/flush path — the configuration the throughput
    benchmark measures.
    """

    @given(
        kind=st.sampled_from(["poisson", "diurnal", "burst"]),
        drain_every=st.sampled_from([64, 256]),
        deadline_scale=st.sampled_from([None, 2.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_turbo_matches_oracle(
        self, trained, pool, kind, drain_every, deadline_scale, seed,
    ):
        _, cnn = trained
        deadline_s = None if deadline_scale is None else deadline_scale * 5e-4
        sla_mix = (
            {"throughput": 0.5, "best_effort": 0.5}
            if deadline_s is None
            else {"latency": 0.25, "throughput": 0.5, "best_effort": 0.25}
        )
        trace = _make_trace(kind, 600, deadline_s, sla_mix, seed)
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6), binned=False,
            coalesce=False, fault="none", drain_every=drain_every,
            spot_check_every=100, warm=True,
        )
        reference = _run(cnn, pool, trace, "object", **config)
        columnar = _run(
            cnn, pool, trace, "columnar", aggregates_only=True, **config
        )
        _assert_identical(reference, columnar)

    def test_turbo_matches_oracle_with_faults_mid_trace(self, trained, pool):
        """Fault horizons force per-chunk fallback; mixing turbo chunks and
        per-request chunks in one replay must stay bit-exact."""
        _, cnn = trained
        trace = _make_trace(
            "diurnal", 800, 1e-3,
            {"latency": 0.25, "throughput": 0.5, "best_effort": 0.25}, 11,
        )
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6, 0.8), binned=True,
            coalesce=False, fault="crash", drain_every=128,
            spot_check_every=200, warm=True,
        )
        reference = _run(cnn, pool, trace, "object", **config)
        columnar = _run(
            cnn, pool, trace, "columnar", aggregates_only=True, **config
        )
        assert columnar["replayed_set"] == reference["replayed_set"]
        _assert_identical(reference, columnar)


class TestSpanEmission:
    """The per-request loop emits spans inline on both kernels; the
    telemetry fold emits them for turbo rows only.  Neither may trace a
    request twice."""

    @pytest.mark.parametrize("kernel", ["object", "columnar"])
    def test_one_span_tree_per_sampled_request(
        self, trained, pool, kernel, monkeypatch
    ):
        _, cnn = trained
        trace = _make_trace(
            "poisson", 256, None, {"throughput": 0.5, "best_effort": 0.5}, 5
        )
        memo = ForwardMemo()
        nodes = [
            ClusterNode(
                f"n{index}", vdd=vdd, num_macros=NUM_MACROS,
                max_batch_size=max(IMAGE_COUNTS),
                execution_mode=ExecutionMode.ANALYTIC, forward_memo=memo,
            )
            for index, vdd in enumerate((1.0, 0.6))
        ]
        tracer = Tracer(sample_every=4)
        columnar = kernel == "columnar"
        router = ClusterRouter(
            nodes,
            # A mid-trace degrade window forces the chunks around it onto
            # the per-request loop; the rest run as turbo chunks.
            fault_plan=_fault_plan("degrade", trace.duration_s),
            kernel=kernel,
            telemetry=ColumnarTelemetry(retain_traces=False) if columnar else None,
            retain_results=not columnar,
            metrics=MetricsRegistry(),
            tracer=tracer,
        )
        router.register_model("cnn", cnn)
        for node in nodes:
            for slots in pool.values():
                for digest, images in slots:
                    node.execute("cnn", images, input_digest=digest)
        fallback = []
        if columnar:
            submit = router._impl.submit

            def counting_submit(*args, **kwargs):
                fallback.append(args)
                return submit(*args, **kwargs)

            monkeypatch.setattr(router._impl, "submit", counting_submit)
        try:
            # Warm-up dispatches bypass the router: its ids run 0..len-1.
            router.replay_trace(trace, pool, drain_every=32)
            router.summary()  # a router-level read folds every row
        finally:
            router.shutdown()
        if columnar:
            assert 0 < len(fallback) < len(trace)
        roots = [span.trace_id for span in tracer.spans if span.name == "admission"]
        assert sorted(roots) == list(range(0, len(trace), 4))

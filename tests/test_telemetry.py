"""The fleet trace log (:class:`repro.cluster.ClusterTelemetry`) on its own.

Both router kernels record into the one class: the per-request loop
appends :class:`RequestTrace` objects, the columnar kernel's turbo chunks
append plain row tuples whose energies land later.  The numpy folds behind
its aggregates are checked here against an independent oracle: plain
Python left folds (``sum()``, ``sorted()``) over the traces a random
record sequence produced.  The suite also pins what the log accepts and
how the router drives it:

* out-of-range quantiles are refused where they enter;
* attaching observability twice still counts each request once;
* the object kernel runs with ``retain_results=False`` and
  ``retain_traces=False`` with bit-identical ledgers and aggregates.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ClusterTelemetry,
    ColumnarTelemetry,
    ExecutionMode,
    RequestTrace,
    SLAClass,
    build_image_pool,
    poisson_trace,
)
from repro.cluster.instrumentation import attach_cluster_observability
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer

_SLAS = ("latency", "throughput", "best_effort")
_MODELS = ("a", "b", "c")
WINDOW = 5


@st.composite
def _rows(draw):
    """One trace row in turbo-row order (request id assigned on record)."""
    arrival = draw(st.floats(min_value=0.0, max_value=1.0))
    start = arrival + draw(st.floats(min_value=0.0, max_value=1e-2))
    compute = draw(st.floats(min_value=1e-7, max_value=1e-2))
    finish = start + compute
    deadline = draw(st.none() | st.floats(min_value=1e-4, max_value=1e-2))
    missed = deadline is not None and finish - arrival > deadline
    return (
        None, draw(st.sampled_from(_MODELS)), draw(st.sampled_from(("n0", "n1"))),
        draw(st.sampled_from(_SLAS)), draw(st.integers(1, 8)), arrival, start,
        finish, compute, deadline, missed, draw(st.booleans()),
        draw(st.booleans()), draw(st.booleans()),
        draw(st.sampled_from(("exact", "analytic"))), draw(st.integers(1, 3)),
        draw(st.booleans()), draw(st.booleans()),
    )


_energies = st.floats(min_value=1e-12, max_value=1e-3)

#: One step of a record sequence: a per-request ``record``, a turbo
#: ``record_rows_batch`` (energies deferred), landing a prefix of the
#: deferred energies (``set_energy_batch``), an aggregate read (a flush
#: boundary) or a chunk-boundary ``maybe_fold``.
_ops = st.one_of(
    st.tuples(st.just("record"), _rows(), _energies),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(_rows(), _energies), min_size=1, max_size=9),
    ),
    st.tuples(st.just("land"), st.integers(0, 9)),
    st.tuples(st.just("read")),
    st.tuples(st.just("fold")),
)


class _Recorder:
    """Applies a record sequence the way the router and its kernel do.

    Turbo energies wait in ``pending`` until a ``land`` step or the
    telemetry's flush hook (the kernel's deferred-charge flush) sets them.
    """

    def __init__(self, retain_traces: bool) -> None:
        self.telemetry = ClusterTelemetry(window=WINDOW, retain_traces=retain_traces)
        self.telemetry._flush_hook = self.land_all
        self.pending = []

    def land(self, count: int) -> None:
        landed, self.pending = self.pending[:count], self.pending[count:]
        if landed:
            indexes, energies = zip(*landed)
            self.telemetry.set_energy_batch(indexes, energies)

    def land_all(self) -> None:
        self.land(len(self.pending))

    def apply(self, op, next_id: int) -> int:
        telemetry = self.telemetry
        if op[0] == "record":
            row, energy = op[1], op[2]
            telemetry.record(
                RequestTrace(next_id, *row[1:9], energy, *row[9:])
            )
            return next_id + 1
        if op[0] == "batch":
            rows = [(next_id + k,) + row[1:] for k, (row, _) in enumerate(op[1])]
            base = telemetry.record_rows_batch(rows)
            self.pending.extend(
                (base + k, energy) for k, (_, energy) in enumerate(op[1])
            )
            return next_id + len(rows)
        if op[0] == "land":
            self.land(op[1])
        elif op[0] == "read":
            telemetry.summary()
        else:
            telemetry.maybe_fold()
        return next_id


def _expected_traces(ops):
    """The sequence's traces with final energies, in record order."""
    traces = []
    for op in ops:
        if op[0] == "record":
            row, energy = op[1], op[2]
            traces.append(RequestTrace(len(traces), *row[1:9], energy, *row[9:]))
        elif op[0] == "batch":
            for row, energy in op[1]:
                traces.append(
                    RequestTrace(len(traces), *row[1:9], energy, *row[9:])
                )
    return traces


def _oracle(traces, sla):
    """Plain-Python left folds over (a class of) the traces."""
    chosen = [t for t in traces if sla is None or t.sla == sla]
    eligible = [t for t in chosen if t.deadline_s is not None]
    images = sum(t.images for t in chosen)
    return {
        "request_count": len(chosen),
        "deadline_miss_rate": (
            sum(t.deadline_missed for t in eligible) / len(eligible)
            if eligible else 0.0
        ),
        "energy_per_image_j": (
            sum(t.energy_j for t in chosen) / images if images else 0.0
        ),
        "mean_latency_s": (
            sum(t.latency_s for t in chosen) / len(chosen) if chosen else 0.0
        ),
    }


def _observed(telemetry, sla):
    return {
        "request_count": telemetry.request_count(sla),
        "deadline_miss_rate": telemetry.deadline_miss_rate(sla),
        "energy_per_image_j": telemetry.energy_per_image_j(sla),
        "mean_latency_s": telemetry.mean_latency_s(sla),
    }


def _summary_oracle(traces):
    n = len(traces)
    eligible = [t for t in traces if t.deadline_s is not None]
    return {
        "requests": float(n),
        "images": float(sum(t.images for t in traces)),
        "energy_j": sum(t.energy_j for t in traces),
        "mean_latency_s": sum(t.latency_s for t in traces) / n if n else 0.0,
        "deadline_miss_rate": (
            sum(t.deadline_missed for t in eligible) / len(eligible)
            if eligible else 0.0
        ),
        "affinity_hit_rate": (
            sum(t.affinity_hit for t in traces) / n if n else 0.0
        ),
        "programmed_dispatches": float(sum(t.programmed for t in traces)),
        "analytic_requests": float(
            sum(t.execution_mode == "analytic" for t in traces)
        ),
        "coalesced_requests": float(sum(t.coalesced > 1 for t in traces)),
        "spot_checked_requests": float(sum(t.spot_checked for t in traces)),
        "replayed_requests": float(sum(t.replayed for t in traces)),
    }


def _quantile_oracle(traces, quantiles, sla):
    latencies = sorted(t.latency_s for t in traces if sla is None or t.sla == sla)
    if not latencies:
        return {q: 0.0 for q in quantiles}
    last = len(latencies) - 1
    return {q: latencies[min(last, int(q * len(latencies)))] for q in quantiles}


class TestAggregateOracle:
    """Every aggregate equals a plain-Python left fold, bit for bit, in
    both retention modes, with aggregate-mode folds landing mid-sequence."""

    @given(ops=st.lists(_ops, max_size=40), flush_rows=st.integers(1, 12))
    def test_aggregates_match_python_folds(self, ops, flush_rows, monkeypatch):
        monkeypatch.setattr(ClusterTelemetry, "_AGG_FLUSH_ROWS", flush_rows)
        retained, aggregate = _Recorder(True), _Recorder(False)
        next_id = 0
        for op in ops:
            retained.apply(op, next_id)
            next_id = aggregate.apply(op, next_id)
        traces = _expected_traces(ops)
        recent = traces[-WINDOW:]
        quantiles = (0.0, 0.5, 0.9, 1.0)

        for side in (retained, aggregate):
            telemetry = side.telemetry
            assert telemetry.trace_count == len(traces)
            assert telemetry.summary() == _summary_oracle(traces)
            assert telemetry.total_energy_j() == sum(t.energy_j for t in traces)
            assert telemetry.deadline_trace_count == sum(
                t.deadline_s is not None for t in traces
            )
            for sla in (None,) + _SLAS:
                assert _observed(telemetry, sla) == _oracle(traces, sla)
                eligible = [
                    t for t in recent
                    if t.deadline_s is not None and (sla is None or t.sla == sla)
                ]
                assert telemetry.recent_deadline_miss_rate(sla) == (
                    sum(t.deadline_missed for t in eligible) / len(eligible)
                    if eligible else 0.0
                )
            for sla in _SLAS:
                assert telemetry.recent_has_sla(sla) == any(
                    t.sla == sla for t in recent
                )
            for model in _MODELS:
                assert telemetry.recent_model_dispatches(model) == sum(
                    t.model_id == model for t in recent
                )

        assert retained.telemetry.traces == traces
        for sla in (None,) + _SLAS:
            assert retained.telemetry.latency_quantiles_s(
                quantiles, sla=sla
            ) == _quantile_oracle(traces, quantiles, sla)
        with pytest.raises(ConfigurationError, match="retained traces"):
            aggregate.telemetry.traces


def _trace(request_id: int, latency_s: float) -> RequestTrace:
    return RequestTrace(
        request_id, "m", "n0", "throughput", 1, 0.0, 0.0, latency_s,
        latency_s, 1e-9, None, False, True, False, True,
    )


class TestLatencyQuantiles:
    @pytest.mark.parametrize("q", [-0.5, 1.5, math.nan, -math.inf])
    def test_out_of_range_quantile_refused(self, q):
        telemetry = ClusterTelemetry()
        for request_id, latency in enumerate((1.0, 2.0, 3.0)):
            telemetry.record(_trace(request_id, latency))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            telemetry.latency_quantiles_s((0.5, q))

    def test_refused_on_an_empty_log_too(self):
        with pytest.raises(ValueError):
            ClusterTelemetry().latency_quantiles_s((-0.5,))

    def test_bounds_are_inclusive(self):
        telemetry = ClusterTelemetry()
        for request_id, latency in enumerate((1.0, 2.0, 3.0)):
            telemetry.record(_trace(request_id, latency))
        assert telemetry.latency_quantiles_s((0.0, 1.0)) == {0.0: 1.0, 1.0: 3.0}


def test_columnar_name_is_the_one_class():
    assert ColumnarTelemetry is ClusterTelemetry


# ---------------------------------------------------------------------- #
# Router-level behaviour
# ---------------------------------------------------------------------- #
IMAGE_COUNTS = (1, 2)


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=90, size=8, seed=1)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=1
    )
    return dataset, cnn


def _router(cnn, kernel: str, **kwargs) -> ClusterRouter:
    nodes = [
        ClusterNode(f"n{index}", vdd=vdd, num_macros=4, max_batch_size=4,
                    execution_mode=ExecutionMode.ANALYTIC)
        for index, vdd in enumerate((1.0, 0.6))
    ]
    router = ClusterRouter(nodes, kernel=kernel, **kwargs)
    router.register_model("cnn", cnn)
    return router


@pytest.mark.parametrize("kernel", ["object", "columnar"])
def test_attaching_observability_twice_counts_each_request_once(
    trained, kernel
):
    dataset, cnn = trained
    router = _router(cnn, kernel)
    registry = MetricsRegistry()
    attach_cluster_observability(router, registry)
    attach_cluster_observability(router, registry)
    try:
        for index in range(5):
            router.submit(
                "cnn", dataset.test_images[index : index + 1],
                sla=SLAClass.THROUGHPUT,
            )
        router.drain()
        for _ in range(2):  # a second scrape folds nothing new
            samples = registry.snapshot()["metrics"]["cluster_requests_total"][
                "samples"
            ]
            assert sum(sample["value"] for sample in samples) == 5.0
    finally:
        router.shutdown()


@pytest.mark.parametrize("kernel", ["object", "columnar"])
def test_attached_tracer_traces_every_sampled_request(trained, kernel):
    dataset, cnn = trained
    router = _router(cnn, kernel)
    tracer = Tracer(sample_every=2)
    attach_cluster_observability(router, MetricsRegistry(), tracer=tracer)
    try:
        for index in range(5):
            router.submit(
                "cnn", dataset.test_images[index : index + 1],
                sla=SLAClass.THROUGHPUT,
            )
        router.drain()
        router.summary()  # a flush: the fold must not trace them again
    finally:
        router.shutdown()
    roots = [span.trace_id for span in tracer.spans if span.name == "admission"]
    assert sorted(roots) == [0, 2, 4]


class TestObjectKernelWithoutRetention:
    """``retain_results=False`` / ``retain_traces=False`` on the object
    kernel: the same replay, the same numbers, only the per-request reads
    refused."""

    def _replay(self, trained, retain_results, retain_traces):
        dataset, cnn = trained
        trace = poisson_trace(
            60, rate_rps=400.0, model_ids=("cnn",), image_counts=IMAGE_COUNTS,
            sla_mix={"latency": 0.3, "throughput": 0.4, "best_effort": 0.3},
            deadline_s=2e-3, seed=7,
        )
        pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
        router = _router(
            cnn, "object", coalesce=True, retain_results=retain_results,
            telemetry=ClusterTelemetry(retain_traces=retain_traces),
        )
        try:
            router.replay_trace(trace, pool, drain_every=16)
            ledger = router.ledger()
            observed = {
                "ledger": (ledger.total_cycles, ledger.total_energy_j,
                           ledger.total_operations),
                "summary": router.summary(),
                "conservation": (
                    router.completed_requests, router.failed_requests,
                    router.queue_depth(), router.replayed_requests,
                ),
                "requests": len(trace),
            }
        finally:
            router.shutdown()
        return router, observed

    def test_replay_is_bit_identical(self, trained):
        _, reference = self._replay(trained, True, True)
        assert reference["conservation"][0] == reference["requests"]
        for retain_results, retain_traces in ((False, True), (False, False)):
            _, observed = self._replay(trained, retain_results, retain_traces)
            assert observed == reference

    def test_per_request_reads_keep_their_errors(self, trained):
        router, _ = self._replay(trained, False, False)
        with pytest.raises(ConfigurationError, match="retain_results=False"):
            router.dispatch_next()
        with pytest.raises(ConfigurationError, match="not retained"):
            router.result(0)
        with pytest.raises(ConfigurationError, match="retain_results=False"):
            router.decision(0)
        assert router.drain() == []
        assert np.isfinite(router.telemetry.mean_latency_s())

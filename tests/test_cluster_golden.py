"""Golden corpus: the cluster router's observables, pinned bit for bit.

Every case replays one small deterministic workload through a
``ClusterRouter`` and reduces everything externally observable to a
canonical JSON form — merged and per-node ledgers (every opcode record),
trace rows, the deadline-miss set, placement decisions, the fault log,
node telemetry and the shared forward memo's hits, misses and LRU order.
Floats are stored as ``float.hex`` strings, so the comparison is exact.

``tests/data/cluster_golden.json`` holds one entry per case, recorded once
when both kernels agreed on it; each case runs on ``kernel="object"`` and
``kernel="columnar"`` and both must reproduce the entry unchanged.  The
matrix covers EXACT and ANALYTIC execution, coalescing on and off, three
fault plans (none, crash+recover, stall+degrade), a run under the
``ReactiveAutoscaler`` and a warm aggregates-only replay that takes the
columnar kernel's turbo chunks.

The model is built from seeded random layers (no training), so the
corpus does not depend on the host's BLAS.  Regenerate the file with
``PYTHONPATH=src python tests/test_cluster_golden.py`` only when a change
is meant to alter modeled results.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import sys

import numpy as np
import pytest

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ColumnarTelemetry,
    ExecutionMode,
    ForwardMemo,
    ReactiveAutoscaler,
    SLAScheduler,
    build_image_pool,
    burst_trace,
    poisson_trace,
)
from repro.dnn.conv import Conv2DLayer, QuantizedConv2DLayer
from repro.dnn.model import MLP, QuantizedMLP
from repro.dnn.pipeline import QuantizedCNN, make_pattern_image_dataset
from repro.reliability import FaultEvent, FaultKind, FaultPlan

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cluster_golden.json")

IMAGE_SIZE = 12
IMAGE_COUNTS = (1, 2)
NUM_MACROS = 4
KERNELS = ("object", "columnar")


def _model() -> QuantizedCNN:
    conv = Conv2DLayer.random(1, 1, kernel_size=3, seed=5)
    features = (IMAGE_SIZE - 2) ** 2
    head = MLP.create([features, 4, 4], seed=5)
    return QuantizedCNN(
        conv_layers=[QuantizedConv2DLayer(conv, weight_bits=8, activation_bits=8)],
        head=QuantizedMLP.from_float(head, weight_bits=8, activation_bits=8),
    )


def _pool():
    dataset = make_pattern_image_dataset(samples=40, size=IMAGE_SIZE, seed=7)
    return build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS, pool_slots=4)


def _fault_plan(fault: str, span_s: float) -> FaultPlan:
    if fault == "none":
        return FaultPlan()
    if fault == "crash":
        return FaultPlan.node_crash("n0", at_s=span_s * 0.3, recover_at_s=span_s * 0.7)
    return FaultPlan([  # "stall": a stall riding on a degrade window
        FaultEvent(at_s=span_s * 0.2, kind=FaultKind.DEGRADE, node_id="n0", factor=2.0),
        FaultEvent(at_s=span_s * 0.4, kind=FaultKind.STALL, node_id="n1",
                   duration_s=span_s * 0.15),
        FaultEvent(at_s=span_s * 0.7, kind=FaultKind.RESTORE, node_id="n0"),
    ])


def _case_names():
    names = [
        f"{mode}-{'coalesce' if coalesce else 'plain'}-{fault}"
        for mode in ("exact", "analytic")
        for coalesce in (False, True)
        for fault in ("none", "crash", "stall")
    ]
    return names + ["analytic-autoscaler", "analytic-turbo"]


def _canon(value):
    """JSON-able canonical form; floats become exact hex strings."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str) or value is None:
        return value
    if dataclasses.is_dataclass(value):
        return [_canon(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    return [_canon(v) for v in value]


def _ledger(stats):
    records = [
        [opcode.name, rec.invocations, rec.words, rec.cycles, rec.energy_j]
        for opcode, rec in stats.records.items()
    ]
    return _canon([records, stats.array_accesses, stats.disturb_events])


def run_case(name: str, kernel: str, pool=None, model=None) -> dict:
    """Replay one golden case; returns its canonical observables."""
    pool = _pool() if pool is None else pool
    model = _model() if model is None else model
    parts = name.split("-")
    mode = ExecutionMode.EXACT if parts[0] == "exact" else ExecutionMode.ANALYTIC
    coalesce = parts[1] == "coalesce"
    fault = parts[2] if len(parts) == 3 else "none"
    autoscaled = parts[1] == "autoscaler"
    turbo = parts[1] == "turbo"
    requests = 14 if mode is ExecutionMode.EXACT else 36
    sla_mix = {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}
    if autoscaled:
        trace = burst_trace(
            requests, base_rate_rps=20_000.0, burst_every_s=5e-4,
            burst_duration_s=2e-4, burst_multiplier=8.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix, deadline_s=3e-5, seed=4,
        )
    else:
        trace = poisson_trace(
            requests, rate_rps=150_000.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix, deadline_s=1.5e-5, seed=3,
        )
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"n{index}", vdd=vdd, num_macros=NUM_MACROS,
            max_batch_size=4, execution_mode=mode,
            forward_memo=memo, spot_check_every=5,
        )
        for index, vdd in enumerate((1.0, 0.6, 0.8))
    ]
    aggregates_only = turbo and kernel == "columnar"
    router = ClusterRouter(
        nodes,
        scheduler=SLAScheduler(coalesce_affinity=coalesce),
        coalesce=coalesce,
        fault_plan=_fault_plan(fault, trace.duration_s),
        kernel=kernel,
        telemetry=ColumnarTelemetry() if kernel == "columnar" else None,
        retain_results=not aggregates_only,
    )
    router.register_model("cnn", model)
    try:
        if turbo:
            for node in nodes:
                for slots in pool.values():
                    for digest, images in slots:
                        node.execute("cnn", images, input_digest=digest)
        autoscaler = None
        if autoscaled:
            nodes[2].park()
            autoscaler = ReactiveAutoscaler(router, wake_queue_depth=2, park_after_idle=2)
        stats = router.replay_trace(trace, pool, drain_every=12, autoscaler=autoscaler)
        traces = router.telemetry.traces
        observed = {
            "completed": [stats["completed"], router.completed_requests,
                          router.failed_requests, router.queue_depth()],
            "clock_s": router.clock_s,
            "replayed": [router.replayed_requests, router.replayed_placements],
            "cluster_ledger": _ledger(router.ledger()),
            "rows": [_canon(t) for t in traces],
            "miss_set": sorted(t.request_id for t in traces if t.deadline_missed),
            "fault_log": router.fault_log,
            "memo": [memo.hits, memo.misses, list(memo._entries.keys())],
            "telemetry_summary": router.telemetry.summary(),
        }
        if not aggregates_only:
            observed["decisions"] = [
                router.decision(rid) for rid in range(int(stats["requests"]))
            ]
        if autoscaler is not None:
            observed["autoscaler"] = autoscaler.actions
        for node in nodes:
            tel = node.telemetry
            observed[f"node:{node.node_id}"] = [
                _ledger(node.ledger()),
                [tel.dispatches, tel.images, tel.energy_j, tel.busy_s,
                 tel.deadline_misses, tel.affinity_hits,
                 tel.programmed_dispatches, tel.ewma_image_latency_s],
                node.spot_checks, node.state, node.vdd, node.available_s,
            ]
    finally:
        router.shutdown()
    return {key: _canon(value) for key, value in observed.items()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def inputs():
    return _pool(), _model()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", _case_names())
def test_golden_case(golden, inputs, case, kernel):
    pool, model = inputs
    observed = run_case(case, kernel, pool=pool, model=model)
    expected = dict(golden[case])
    if case == "analytic-turbo" and kernel == "columnar":
        # Aggregates-only routers keep no per-request placements.
        expected.pop("decisions")
    assert sorted(observed) == sorted(expected)
    for key in expected:
        assert observed[key] == expected[key], f"{case} [{kernel}] diverged on {key}"


def _regenerate() -> None:
    pool, model = _pool(), _model()
    corpus = {}
    for case in _case_names():
        reference = run_case(case, "object", pool=pool, model=model)
        columnar = run_case(case, "columnar", pool=pool, model=model)
        shared = {key: value for key, value in reference.items() if key in columnar}
        for key, value in shared.items():
            if columnar[key] != value:
                sys.exit(f"kernels disagree on {case}:{key}; not recording")
        corpus[case] = reference
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _regenerate()

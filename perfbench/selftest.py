"""The benchmark's own tests: span arithmetic, tiny workloads, failure counting.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at a tiny size through the same set-up / measure /
check / teardown sequence the benchmark uses, traced, so every per-layer
metric it reports is exercised too.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import wl_cluster  # noqa: E402
import wl_kernels  # noqa: E402
import wl_wire  # noqa: E402
from spans import SpanRecorder, patched, root_time_s, self_times, summarize  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("root", 0, 100, -1),
        ("child", 10, 30, 0),
        ("child", 20, 50, 0),  # overlaps the first child: counted once
        ("grandchild", 25, 35, 2),
        ("late", 90, 120, 0),  # runs past its parent: clipped at 100
        ("other", 200, 260, -1),
    ]
    assert self_times(spans) == [100 - 40 - 10, 20, 30 - 10, 10, 30, 60]
    table = summarize(spans)
    assert table["child"]["calls"] == 2
    assert table["child"]["total_s"] == pytest.approx(50e-9)
    assert root_time_s(spans) == pytest.approx(160e-9)


def test_recorder_nests_wrapped_calls_and_restores_names():
    class Target:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    target = Target()
    recorder = SpanRecorder()
    with patched(target, "outer", recorder.wrap(target.outer, "outer")), patched(
        target, "inner", recorder.wrap(target.inner, "inner", count=lambda n: n)
    ):
        assert target.outer(3) == 7
    assert "outer" not in vars(target) and "inner" not in vars(target)
    (outer, _, _, outer_parent), (inner, _, _, inner_parent) = recorder.spans
    assert (outer, outer_parent, inner, inner_parent) == ("outer", -1, "inner", 0)
    assert recorder.counts == {"inner": 3}


def test_iterator_wrapper_times_each_item_not_the_consumer():
    recorder = SpanRecorder()
    items = list(recorder.wrap_iterator(lambda: iter("abc"), "feed")())
    assert items == ["a", "b", "c"]
    assert [span[0] for span in recorder.spans] == ["feed"] * 3


def _tiny(workload):
    """Shrink a workload so a run takes a second or two."""
    if isinstance(workload, wl_cluster.ReplayDiurnal):
        workload.REQUESTS = 3 * workload.chunk
        workload.FIDELITY_REQUESTS = workload.chunk
    elif isinstance(workload, wl_cluster.ExactMultimodel):
        workload.REQUESTS = 4 * workload.chunk
    return workload


WORKLOADS = [
    wl_kernels.PaperKernels,
    wl_cluster.ReplayDiurnal,
    wl_cluster.ExactMultimodel,
    wl_cluster.FleetExact,
    wl_wire.WireSmall,
]


@pytest.mark.parametrize("factory", WORKLOADS, ids=lambda factory: factory.name)
def test_each_workload_runs_checks_and_traces_at_tiny_size(factory, monkeypatch):
    monkeypatch.setattr(wl_kernels, "LENGTH_RANGE", (64, 96))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    outcome, end_to_end, layers, named_metrics, span_tables = run.run(
        _tiny(factory()), seed=3, seconds=1.0, traced=True
    )
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    for name, value in end_to_end.items():
        assert math.isfinite(value) and value > 0, name
    assert named_metrics
    assert span_tables["load"] or span_tables.get("gateway")
    assert math.isfinite(layers["trace.overhead_frac"])
    assert 0 < layers["trace.coverage"] <= 1
    for name, value in layers.items():
        assert math.isfinite(value), name


def test_a_wrong_result_raises_fail_frac(monkeypatch):
    from repro.core.kernels import VectorKernels

    original = VectorKernels.add

    def off_by_one(self, a, b):
        result = original(self, a, b)
        result.values[0] += 1
        return result

    monkeypatch.setattr(wl_kernels, "LENGTH_RANGE", (64, 96))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(VectorKernels, "add", off_by_one)
    outcome, *_ = run.run(wl_kernels.PaperKernels(), seed=3, seconds=0.2, traced=False)
    assert outcome.failed > 0
    assert any("differs from numpy" in note for note in outcome.notes)


def test_a_diverging_fleet_ledger_is_counted_as_failed(monkeypatch):
    workload = _tiny(wl_cluster.FleetExact())
    state = workload.setup(3)
    try:
        workload.measure(state, 0.1, run.HostSpeed())
        # Stand-in for a fleet whose ledger drifted from the single process.
        state.first["ledger_energy_j"] *= 1.0 + 1e-12
        outcome = run.Outcome()
        workload.check(state, outcome)
    finally:
        workload.close(state)
    assert outcome.failed == 1
    assert any("single-process ledger" in note for note in outcome.notes)

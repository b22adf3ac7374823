"""In-process cluster workloads: ``replay_diurnal``, ``exact_multimodel``, ``fleet_exact``.

Each replays one seeded trace in fixed-size chunks through the router's
public trace API and keeps going, pass after pass (arrivals shifted so the
virtual clock stays monotone), until the measuring time is over.  One
chunk is one operation: its wall time is a latency sample and its work
per second one throughput sample (the median is reported).

The simulated figures (modeled energy, modeled latency, deadline misses)
are taken once, after the first complete pass, so they depend only on the
seed; they repeat exactly for a fixed seed whatever the host speed.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from contextlib import ExitStack
from types import SimpleNamespace

import numpy as np

from common import Window, peak_rss_mb, process_cpu_s, shm_segments
from spans import patched, summarize

SLA_MIX = {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}


def _sub_trace(trace, start: int, stop: int, offset_s: float):
    """Rows ``start:stop`` of a trace, arrivals shifted by ``offset_s``."""
    from repro.cluster.workload import WorkloadTrace

    return WorkloadTrace(
        scenario=trace.scenario,
        model_ids=trace.model_ids,
        arrivals_s=trace.arrivals_s[start:stop] + offset_s,
        image_counts=trace.image_counts[start:stop],
        model_indices=trace.model_indices[start:stop],
        sla_indices=trace.sla_indices[start:stop],
        deadlines_s=trace.deadlines_s[start:stop],
    )


def _slot_images(trace, start: int, stop: int, pool) -> list:
    """The images each request of one chunk replays with.

    Mirrors the round-robin pool-slot rotation of
    :func:`repro.cluster.workload.replay`, which restarts for every call.
    """
    cursor = {}
    images = []
    for index in range(start, stop):
        key = (trace.model_ids[trace.model_indices[index]], int(trace.image_counts[index]))
        slot = cursor.get(key, 0)
        cursor[key] = (slot + 1) % len(pool[key])
        images.append(pool[key][slot][1])
    return images


class _ChunkedReplay:
    """Shared measuring loop: chunk after chunk, pass after pass."""

    #: Requests per replayed chunk (one latency / throughput sample).
    chunk: int
    #: Whether a chunk's work is counted in images (else requests).
    count_images: bool

    def _replay_chunk(self, state, chunk) -> None:
        raise NotImplementedError

    def _first_pass(self, state) -> None:
        """Record the simulated figures once the first pass completed."""
        raise NotImplementedError

    def measure(self, state, seconds: float, host) -> Window:
        window = Window(extra={"requests": 0.0})
        trace = state.trace
        clock = time.perf_counter
        chunks = -(-len(trace) // self.chunk)
        cpu_start = time.process_time()
        deadline = clock() + seconds
        while clock() < deadline or state.first is None:
            passes, index = divmod(state.next_chunk, chunks)
            start = index * self.chunk
            stop = min(start + self.chunk, len(trace))
            sub = _sub_trace(trace, start, stop, passes * state.pass_offset_s)
            host.maybe_sample()
            began = clock()
            self._replay_chunk(state, sub)
            took = clock() - began
            units = sub.total_images if self.count_images else len(sub)
            window.add_latency(took / host.scale)
            window.rates.append(units / took * host.scale)
            window.extra["requests"] += len(sub)
            state.next_chunk += 1
            state.submitted += len(sub)
            if state.first is None and state.next_chunk == chunks:
                self._first_pass(state)
                state.peak_rss_mb = peak_rss_mb(
                    child.pid for child in multiprocessing.active_children()
                )
        window.cpu_s = time.process_time() - cpu_start
        return window

    def end_to_end(self, state, window: Window) -> dict:
        return {
            "throughput_per_s": statistics.median(window.rates),
            "latency_p50_ms": window.latency_ms(0.5),
            "latency_p90_ms": window.latency_ms(0.9),
            "sim_energy_j": state.first["energy_per_image_j"],
            "sim_latency_s": state.first["mean_latency_s"],
        }

    def _sim_report(self, state) -> list:
        return [
            ("sim_miss_rate", state.first["miss_rate"], "ratio", "lower"),
            ("sim_nj_per_image", state.first["energy_per_image_j"] * 1e9, "nJ", "lower"),
        ]


def _cluster_first_pass(router) -> dict:
    summary = router.telemetry.summary()
    ledger = router.ledger()
    return {
        "miss_rate": summary["deadline_miss_rate"],
        "energy_per_image_j": summary["energy_j"] / summary["images"],
        "mean_latency_s": summary["mean_latency_s"],
        "requests": summary["requests"],
        "ledger_cycles": ledger.total_cycles,
        "ledger_energy_j": ledger.total_energy_j,
    }


# ---------------------------------------------------------------------- #
# replay_diurnal
# ---------------------------------------------------------------------- #
class ReplayDiurnal(_ChunkedReplay):
    """Columnar ``replay_trace`` of a diurnal trace, aggregates only.

    Two analytic nodes (1.0 V / 0.6 V), 24x24 images, 128-256-image
    requests, forward memo warmed before timing.  The mean arrival rate
    (``RATE_RPS``) puts the seed's deadline-miss rate between 1 % and
    50 %; the turbo chunks, deferred charge buffers and telemetry folds
    do the work.
    """

    name = "replay_diurnal"
    chunk = 1024
    count_images = False
    REQUESTS = 100_000
    RATE_RPS = 330.0
    IMAGE_COUNTS = (128, 192, 256)
    #: Prefix replayed on both the per-request path and the turbo path.
    FIDELITY_REQUESTS = 2048

    def setup(self, seed: int):
        from repro.cluster import build_image_pool, diurnal_trace
        from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

        dataset = make_pattern_image_dataset(
            samples=4 * max(self.IMAGE_COUNTS) + 400, size=24, seed=seed
        )
        cnn, _ = train_pattern_cnn(
            dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=6, seed=seed
        )
        pool = build_image_pool({"cnn": dataset.test_images}, self.IMAGE_COUNTS)
        trace = diurnal_trace(
            self.REQUESTS,
            period_s=self.REQUESTS / (2 * self.RATE_RPS),
            base_rate_rps=0.4 * self.RATE_RPS,
            peak_rate_rps=1.6 * self.RATE_RPS,
            model_ids=("cnn",),
            image_counts=self.IMAGE_COUNTS,
            sla_mix={"latency": 0.2, "throughput": 0.5, "best_effort": 0.3},
            deadline_s=1.0,
            seed=seed,
        )
        router = self._router(cnn, pool, "columnar")
        return SimpleNamespace(
            cnn=cnn, pool=pool, trace=trace, router=router, next_chunk=0,
            submitted=0, completed=0, first=None,
            pass_offset_s=2.0 * trace.duration_s,
        )

    def _router(self, cnn, pool, kernel: str):
        from repro.cluster import (
            ClusterNode, ClusterRouter, ColumnarTelemetry, ExecutionMode, ForwardMemo,
        )

        memo = ForwardMemo()
        nodes = [
            ClusterNode(
                f"node-{index}", vdd=vdd, num_macros=8,
                max_batch_size=max(self.IMAGE_COUNTS),
                execution_mode=ExecutionMode.ANALYTIC, forward_memo=memo,
            )
            for index, vdd in enumerate((1.0, 0.6))
        ]
        columnar = kernel == "columnar"
        router = ClusterRouter(
            nodes, kernel=kernel,
            telemetry=ColumnarTelemetry(retain_traces=False) if columnar else None,
            retain_results=not columnar,
        )
        router.register_model("cnn", cnn)
        for node in nodes:
            for slots in pool.values():
                for digest, images in slots:
                    node.execute("cnn", images, input_digest=digest)
        return router

    def close(self, state) -> list:
        state.router.shutdown()
        return []

    def _replay_chunk(self, state, chunk) -> None:
        stats = state.router.replay_trace(chunk, state.pool, drain_every=self.chunk)
        state.completed += int(stats["completed"])

    def _first_pass(self, state) -> None:
        state.first = _cluster_first_pass(state.router)

    def instrument(self, state, recorder) -> ExitStack:
        router = state.router
        kernel = router._impl  # the columnar delegate has no public handle
        telemetry = router.telemetry
        stack = ExitStack()
        stack.enter_context(patched(
            router, "replay_trace",
            recorder.wrap(router.replay_trace, "cluster.kernel.replay_trace",
                          count=lambda trace, *a, **k: len(trace)),
        ))
        stack.enter_context(patched(
            kernel, "submit", recorder.wrap(kernel.submit, "cluster.kernel.submit"),
        ))
        stack.enter_context(patched(
            kernel, "flush_node",
            recorder.wrap(kernel.flush_node, "cluster.kernel.flush"),
        ))
        stack.enter_context(patched(
            telemetry, "maybe_fold",
            recorder.wrap(telemetry.maybe_fold, "cluster.telemetry.fold"),
        ))
        memo = router.nodes[0].forward_memo
        state.memo_before = (memo.hits, memo.misses)
        return stack

    def layers(self, state, window: Window, recorder, base: Window) -> dict:
        table = summarize(recorder.spans)
        requests = recorder.counts.get("cluster.kernel.replay_trace", 0.0)
        memo = state.router.nodes[0].forward_memo
        hits = memo.hits - state.memo_before[0]
        misses = memo.misses - state.memo_before[1]

        def total(name, key="total_s"):
            return table.get(name, {}).get(key, 0.0)

        return {
            "cluster.kernel.us_per_req": total("cluster.kernel.replay_trace") * 1e6 / requests,
            "cluster.kernel.turbo_share": 1.0 - table.get(
                "cluster.kernel.submit", {}).get("calls", 0.0) / requests,
            "cluster.kernel.flush_us_per_req": total("cluster.kernel.flush") * 1e6 / requests,
            "cluster.telemetry.fold_us_per_req": (
                total("cluster.telemetry.fold", "self_s") * 1e6 / requests
            ),
            "cluster.node.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    def check(self, state, outcome) -> None:
        outcome.record(
            state.submitted, state.submitted - state.completed,
            "replayed requests that did not complete",
        )
        outcome.check(
            state.first["requests"] == len(state.trace),
            f"first pass recorded {state.first['requests']} of {len(state.trace)}",
        )
        mismatches = self._fidelity_mismatches(state)
        outcome.check(
            not mismatches,
            f"turbo prefix differs from the per-request path in {mismatches}",
        )

    def _fidelity_mismatches(self, state) -> list:
        """Replay one prefix on both paths; list the fields that differ."""
        from repro.cluster.workload import replay

        prefix = state.trace.head(self.FIDELITY_REQUESTS)
        results = []
        for kernel in ("object", "columnar"):
            router = self._router(state.cnn, state.pool, kernel)
            try:
                if kernel == "object":
                    replay(router, prefix, state.pool, drain_every=self.chunk)
                else:
                    router.replay_trace(prefix, state.pool, drain_every=self.chunk)
                summary = dict(router.telemetry.summary())
                ledger = router.ledger()
                summary["ledger_cycles"] = ledger.total_cycles
                summary["ledger_energy_j"] = ledger.total_energy_j
                summary["completed"] = router.completed_requests
                results.append(summary)
            finally:
                router.shutdown()
        reference, turbo = results
        return [key for key, value in reference.items() if turbo.get(key) != value]

    def report(self, state, window: Window) -> list:
        return [
            ("replay_rps", statistics.median(window.rates), "req/s", "higher"),
        ] + self._sim_report(state)


# ---------------------------------------------------------------------- #
# exact_multimodel / fleet_exact
# ---------------------------------------------------------------------- #
#: Three CNNs of different sizes on 16x16 images: (conv channels, hidden).
#: Their tiles need 209, 409 and 801 array rows; a node's weight cache
#: holds 1000, so together they do not fit and layers are evicted and
#: re-programmed.
MODELS = {"small": ((1,), (2,)), "mid": ((1,), (4,)), "large": ((2,), (4,))}
EXACT_IMAGE_COUNTS = (1, 2, 4, 8)


def _exact_inputs(seed: int, requests: int):
    from repro.cluster import build_image_pool, poisson_trace
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    dataset = make_pattern_image_dataset(samples=200, size=16, seed=seed)
    models = {
        model_id: train_pattern_cnn(
            dataset, conv_channels=channels, hidden_sizes=hidden, epochs=3, seed=seed
        )[0]
        for model_id, (channels, hidden) in MODELS.items()
    }
    pool = build_image_pool(
        {model_id: dataset.test_images for model_id in models}, EXACT_IMAGE_COUNTS
    )
    trace = poisson_trace(
        requests,
        rate_rps=5000.0,
        model_ids=tuple(models),
        image_counts=EXACT_IMAGE_COUNTS,
        sla_mix=SLA_MIX,
        deadline_s=5e-5,
        seed=seed,
    )
    return models, pool, trace


def _exact_nodes():
    from repro.cluster import ClusterNode, ExecutionMode

    return [
        ClusterNode(
            f"node-{index}", vdd=vdd, num_macros=8, max_batch_size=64,
            execution_mode=ExecutionMode.EXACT,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]


def _miss_set(router, requests: int) -> set:
    return {
        trace.request_id
        for trace in router.telemetry.traces
        if trace.deadline_missed and trace.request_id < requests
    }


class ExactMultimodel(_ChunkedReplay):
    """Exact object router, coalescing on, three CNNs over the cache size.

    The per-request submit/drain loop (``workload.replay``) over a Poisson
    trace with mixed SLAs, 1-8-image requests on 16x16 images.  The
    bit-exact path dominates: dnn forward, ``TiledMatmulEngine.matmul``
    and ``program``, serve batching.
    """

    name = "exact_multimodel"
    #: Requests per ``replay`` call, and its drain cadence.
    chunk = 64
    count_images = True
    REQUESTS = 8000
    #: First-pass requests re-checked against the golden numpy forward: one
    #: in this many (those whose dispatch was not coalesced).
    GOLDEN_EVERY = 10

    def _build_router(self, models):
        from repro.cluster import ClusterRouter

        router = ClusterRouter(_exact_nodes(), coalesce=True)
        for model_id, model in models.items():
            router.register_model(model_id, model)
        return router

    def setup(self, seed: int):
        models, pool, trace = _exact_inputs(seed, self.REQUESTS)
        router = self._build_router(models)
        return SimpleNamespace(
            models=models, pool=pool, trace=trace, router=router, next_chunk=0,
            submitted=0, first=None, pass_offset_s=2.0 * trace.duration_s,
        )

    def close(self, state) -> list:
        state.router.shutdown()
        return []

    def _replay_chunk(self, state, chunk) -> None:
        from repro.cluster.workload import replay

        replay(state.router, chunk, state.pool, drain_every=self.chunk)

    def _first_pass(self, state) -> None:
        state.first = _cluster_first_pass(state.router)
        state.first["misses"] = _miss_set(state.router, self.REQUESTS)

    def instrument(self, state, recorder) -> ExitStack:
        router = state.router
        stack = ExitStack()

        def wrap(target, attribute, name, count=None):
            stack.enter_context(patched(
                target, attribute,
                recorder.wrap(getattr(target, attribute), name, count=count),
            ))

        wrap(router, "submit", "cluster.router.submit")
        wrap(router, "drain", "cluster.router.drain")
        wrap(router.scheduler, "choose", "cluster.scheduler.choose")
        state.cache_before = []
        for node in router.nodes:
            wrap(node, "execute", "cluster.node.execute",
                 count=lambda model_id, images, *a, **k: len(images))
            wrap(node, "execute_group", "cluster.node.execute",
                 count=lambda model_id, parts: sum(len(images) for images, _ in parts))
            wrap(node.engine, "matmul", "core.matmul.matmul")
            wrap(node.engine, "program", "core.matmul.program")
            for model_id in state.models:
                server = node.server_for(model_id)
                wrap(server, "serve_once", "serve.batch")
                wrap(server.model, "predict", "dnn.predict",
                     count=lambda images: len(images))
            cache = node.engine.cache
            state.cache_before.append((cache.hits, cache.misses, cache.evictions))
        return stack

    def layers(self, state, window: Window, recorder, base: Window) -> dict:
        table = summarize(recorder.spans)
        counts = recorder.counts
        requests = window.extra["requests"]

        def row(name):
            return table.get(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})

        def per_call_us(name):
            calls = row(name)["calls"]
            return row(name)["total_s"] * 1e6 / calls if calls else 0.0

        hits = misses = evictions = 0
        for node, before in zip(state.router.nodes, state.cache_before):
            cache = node.engine.cache
            hits += cache.hits - before[0]
            misses += cache.misses - before[1]
            evictions += cache.evictions - before[2]
        dispatches = row("cluster.node.execute")["calls"]
        batches = row("serve.batch")["calls"]
        images = counts.get("dnn.predict", 0.0)
        return {
            "cluster.router.submit_us": per_call_us("cluster.router.submit"),
            "cluster.router.drain_us_per_req": (
                row("cluster.router.drain")["total_s"] * 1e6 / requests
            ),
            "cluster.router.requests_per_dispatch": requests / dispatches,
            "cluster.scheduler.choose_us": per_call_us("cluster.scheduler.choose"),
            "cluster.node.execute_us": per_call_us("cluster.node.execute"),
            "cluster.node.images_per_dispatch": (
                counts.get("cluster.node.execute", 0.0) / dispatches
            ),
            "serve.batch_us": per_call_us("serve.batch"),
            "serve.images_per_batch": images / batches if batches else 0.0,
            "dnn.predict_us_per_image": (
                row("dnn.predict")["total_s"] * 1e6 / images if images else 0.0
            ),
            "core.matmul.matmul_us": per_call_us("core.matmul.matmul"),
            "core.matmul.program_us": per_call_us("core.matmul.program"),
            "core.matmul.calls": row("core.matmul.matmul")["calls"] / requests,
            "core.matmul.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.matmul.evictions": evictions / requests,
        }

    def check(self, state, outcome) -> None:
        from repro.dnn.imc_backend import NumpyIntBackend
        from repro.errors import ConfigurationError
        from repro.utils.validation import check_ledger_conservation

        router = state.router
        outcome.record(
            state.submitted, state.submitted - router.completed_requests,
            "admitted requests that did not complete",
        )
        try:
            check_ledger_conservation(router.ledger(), [node.ledger() for node in router.nodes])
            conserved = True
        except ConfigurationError:
            conserved = False
        outcome.check(conserved, "cluster ledger differs from the sum of its nodes")

        golden = {
            model_id: model.with_backend(NumpyIntBackend())
            for model_id, model in state.models.items()
        }
        trace = state.trace
        images = []
        for start in range(0, self.REQUESTS, self.chunk):
            images += _slot_images(
                trace, start, min(start + self.chunk, self.REQUESTS), state.pool
            )
        checked = wrong = 0
        for request_id in range(0, self.REQUESTS, self.GOLDEN_EVERY):
            result = router.result(request_id)
            if result.trace.coalesced != 1:
                # A coalesced batch quantises with its batchmates, so only
                # single-request dispatches have a standalone golden.
                continue
            model_id = trace.model_ids[trace.model_indices[request_id]]
            expected = golden[model_id].predict(images[request_id])
            checked += 1
            wrong += not np.array_equal(result.predictions, expected)
        outcome.record(checked, wrong, "predictions differ from the golden numpy forward")

    def report(self, state, window: Window) -> list:
        return [
            ("exact_images_per_s", statistics.median(window.rates), "images/s", "higher"),
        ] + self._sim_report(state)


class FleetExact(ExactMultimodel):
    """The ``exact_multimodel`` seed, trace and models through ``FleetCluster``.

    Two spawn workers execute the forwards; admission, scheduling and
    ledgers stay on the coordinator.  Ledger cycles and energy and the
    deadline-miss set of the first pass must equal the single process's.
    """

    name = "fleet_exact"
    WORKERS = 2

    def _build_router(self, models):
        from repro.fleet import FleetCluster

        self._segments_before = shm_segments()
        fleet = FleetCluster(_exact_nodes(), workers=self.WORKERS, coalesce=True)
        try:
            for model_id, model in models.items():
                fleet.register_model(model_id, model)
            fleet.sync()
        except BaseException:
            fleet.shutdown()
            raise
        return fleet

    def close(self, state) -> list:
        state.router.shutdown()
        alive = []
        for child in multiprocessing.active_children():
            child.join(timeout=10.0)
            if child.is_alive():
                alive.append(child.name)
                child.kill()
                child.join()
        problems = [f"fleet processes still running: {alive}"] if alive else []
        leaked = shm_segments() - self._segments_before
        if leaked:
            problems.append(f"leaked shared memory {sorted(leaked)[:3]}")
        return problems

    def instrument(self, state, recorder) -> ExitStack:
        fleet = state.router
        stack = ExitStack()
        for attribute, name in (
            ("submit", "fleet.submit"), ("drain", "fleet.drain"), ("sync", "fleet.sync"),
        ):
            stack.enter_context(patched(
                fleet, attribute, recorder.wrap(getattr(fleet, attribute), name),
            ))
        state.fleet_before = self._fleet_counters(fleet)
        stack.callback(self._close_window, state)
        return stack

    def _fleet_counters(self, fleet) -> dict:
        fleet_summary = fleet.summary()["fleet"]
        return {
            "cpu_s": time.process_time(),
            "worker_cpu_s": sum(
                process_cpu_s(child.pid) for child in multiprocessing.active_children()
            ),
            "groups": sum(fleet.sync()["dispatch_groups"].values()),
            "reuse_hits": fleet_summary["tensor_reuse_hits"],
            "placements": fleet_summary["tensor_reuse_hits"]
            + fleet_summary["tensor_segments"]
            + fleet_summary["inline_refs"],
        }

    def _close_window(self, state) -> None:
        # Runs while the wrappers are still in place, so this barrier is
        # one of the timed ``fleet.sync`` calls.
        state.fleet_after = self._fleet_counters(state.router)

    def layers(self, state, window: Window, recorder, base: Window) -> dict:
        table = summarize(recorder.spans)
        requests = window.extra["requests"]
        before, after = state.fleet_before, state.fleet_after
        delta = {key: after[key] - before[key] for key in before}
        sync = table.get("fleet.sync", {"calls": 0.0, "total_s": 0.0})
        return {
            "fleet.coordinator_cpu_us_per_req": delta["cpu_s"] * 1e6 / requests,
            "fleet.worker_cpu_us_per_req": delta["worker_cpu_s"] * 1e6 / requests,
            "fleet.drain_us_per_req": (
                table.get("fleet.drain", {}).get("total_s", 0.0) * 1e6 / requests
            ),
            "fleet.sync_ms": sync["total_s"] * 1e3 / sync["calls"] if sync["calls"] else 0.0,
            "fleet.requests_per_group": (
                requests / delta["groups"] if delta["groups"] else 0.0
            ),
            "fleet.tensor_reuse_ratio": (
                delta["reuse_hits"] / delta["placements"] if delta["placements"] else 0.0
            ),
        }

    def check(self, state, outcome) -> None:
        from repro.fleet import FleetError

        super().check(state, outcome)
        fleet = state.router
        try:
            audit = fleet.sync()
            audited = audit["audited_nodes"] == len(fleet.nodes)
        except FleetError:
            audited = False
        outcome.check(audited, "worker ledgers diverged from their shadows")
        outcome.check(fleet.worker_crashes == 0, f"{fleet.worker_crashes} worker crashes")
        # The single-process oracle replays the identical first pass.
        reference = ExactMultimodel()
        oracle = SimpleNamespace(**vars(state))
        oracle.router = reference._build_router(state.models)
        oracle.next_chunk, oracle.first = 0, None
        try:
            while oracle.first is None:
                start = oracle.next_chunk * self.chunk
                stop = min(start + self.chunk, self.REQUESTS)
                reference._replay_chunk(oracle, _sub_trace(state.trace, start, stop, 0.0))
                oracle.next_chunk += 1
                if stop == self.REQUESTS:
                    reference._first_pass(oracle)
        finally:
            oracle.router.shutdown()
        ours, theirs = state.first, oracle.first
        outcome.check(
            ours["ledger_cycles"] == theirs["ledger_cycles"]
            and ours["ledger_energy_j"] == theirs["ledger_energy_j"],
            "fleet ledger differs from the single-process ledger",
        )
        outcome.check(
            ours["misses"] == theirs["misses"],
            "fleet deadline-miss set differs from the single process",
        )

    def report(self, state, window: Window) -> list:
        return [
            ("fleet_images_per_s", statistics.median(window.rates), "images/s", "higher"),
        ] + self._sim_report(state)

"""``wire_small``: 1-image requests over the wire to a gateway process.

The gateway runs in its own process (:mod:`wire_server`): one analytic
node, coalescing on, the demo CNN on 8x8 images.  This process drives it
with the public :class:`~repro.gateway.client.AsyncGatewayClient` over two
connections, sending 1-image requests from a fixed pool of distinct images
(uploaded once, then sent by ``images_ref``) with a seeded SLA mix.

* Phase B (run first) is open loop: Poisson arrivals at ``RATE_RPS``,
  about a tenth of phase A's rate, low enough that the latency is the
  per-request path's and not a queue's.  Each latency is timed from the
  request's due time, so a stall also delays the requests queued behind
  it.  These are the report's ``wire_p50_ms`` / ``wire_p99_ms``; they do
  not repeat closely enough between runs on a shared two-CPU machine to
  gate on, so they are printed, not part of the result's metrics.
* Phase A is closed loop in bursts: ``BURST`` requests per connection
  sent together, the next burst once all are answered.  Its answered
  requests per second (median over ``LATENCY_BIN_S`` bins) is the
  throughput and the burst completion times are the result's latency
  figures (each quantile per bin, median over the bins): one
  operation is one burst, as one operation of the in-process workloads is
  one replayed chunk.  Per-request latency under a steady closed loop
  swung between two batching regimes from run to run; a burst forms the
  same batches every time.

Every response is checked against the model's local ``predict`` on the
batch the server actually formed: responses carry their router request id
and how many requests their dispatch coalesced, and coalesced requests
hold consecutive ids, which rebuilds each batch exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from common import LATENCY_BIN_S, Window, peak_rss_mb, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
BURST = 64
#: Offered open-loop rate on the reference host; a slower host is offered
#: proportionally less, so the server's utilisation stays the same.
RATE_RPS = 1000.0
#: Share of the measuring time spent in the closed-loop phase A.
CLOSED_SHARE = 0.7
POOL_IMAGES = 64
#: Host-speed probes during the open loop, and the margin around each
#: probe within which requests are not timed.
PROBE_EVERY_S = 1.0
PROBE_GUARD_S = 0.005
SLAS = ("latency", "throughput", "best_effort")
SLA_WEIGHTS = (0.2, 0.5, 0.3)
#: Modeled (virtual-time) deadline of latency-class requests.
DEADLINE_S = 0.002
REPLY_TIMEOUT_S = 60.0
#: Length of the seeded request plan (image, SLA) the run cycles through.
PLAN = 1 << 16


def _read_reply(process, timeout_s: float = REPLY_TIMEOUT_S) -> dict:
    """One JSON line from the server's stdout, or an error on timeout/EOF."""
    ready, _, _ = select.select([process.stdout], [], [], timeout_s)
    if not ready:
        raise RuntimeError(f"gateway process silent for {timeout_s}s")
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(f"gateway process exited (status {process.poll()})")
    return json.loads(line)


def _command(state, line: str) -> dict:
    state.process.stdin.write(line + "\n")
    state.process.stdin.flush()
    return _read_reply(state.process)


def _demo_model():
    """The demo CNN exactly as the gateway's demo fleet trains it."""
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    dataset = make_pattern_image_dataset(samples=150, size=8, seed=13)
    return train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=6, seed=13
    )[0]


class _Responses:
    """Every answered request, in flat arrays.

    Flat arrays hold no per-response Python objects, so the load process's
    garbage collector never has to walk them (a list of response objects
    grows to ~10^5 entries and its full collections show up as wire tail
    latency).
    """

    def __init__(self) -> None:
        self.ids = array("q")
        self.image = array("q")
        self.label = array("q")
        self.coalesced = array("q")
        self.energy_j = array("d")
        self.latency_s = array("d")

    def add(self, image: int, result) -> None:
        self.ids.append(result.request_id)
        self.image.append(image)
        self.label.append(int(result.predictions[0]))
        self.coalesced.append(int(result.trace["coalesced"]))
        self.energy_j.append(result.trace["energy_j"])
        self.latency_s.append(result.trace["latency_s"])


class WireSmall:
    name = "wire_small"

    def setup(self, seed: int):
        from repro.dnn.pipeline import make_pattern_image_dataset
        from repro.gateway.client import AsyncGatewayClient

        bank = make_pattern_image_dataset(samples=2 * POOL_IMAGES, size=8, seed=seed)
        images = np.concatenate([bank.train_images, bank.test_images])[:POOL_IMAGES]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [HERE, os.path.join(os.path.dirname(HERE), "src")]
        )
        rng = np.random.default_rng(seed)
        plan_images = rng.integers(POOL_IMAGES, size=PLAN)
        plan_slas = rng.choice(len(SLAS), size=PLAN, p=SLA_WEIGHTS)
        # Open-loop inter-arrival gaps, consumed in order across windows.
        gaps = rng.exponential(1.0 / RATE_RPS, size=PLAN)
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "wire_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        # One CPU each for the load and the gateway process (when there are
        # two): each always runs where the host probe measured it.
        affinity = os.sched_getaffinity(0)
        cpus = sorted(affinity)
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            os.sched_setaffinity(process.pid, {cpus[1]})
        state = SimpleNamespace(
            process=process, loop=asyncio.new_event_loop(), clients=[],
            images=images,
            seed=seed, sent=0, responses=_Responses(),
            errors=0, retries=0, marks={}, model=None,
            plan_images=plan_images.tolist(), plan_slas=plan_slas.tolist(),
            gaps=gaps, gap_cursor=0, affinity=affinity,
        )
        try:
            hello = _read_reply(process)
            state.port = hello["port"]
            state.model = _demo_model()
            state.loop.run_until_complete(self._connect(state, AsyncGatewayClient))
        except BaseException:
            self.close(state)
            raise
        return state

    async def _connect(self, state, client_cls) -> None:
        for index in range(CONNECTIONS):
            client = client_cls("127.0.0.1", state.port, rng=np.random.default_rng(index))
            await client.connect()
            state.clients.append(client)
        # Upload every pool image on every connection (the SDK sends the
        # tensor once per connection, then only its digest).
        await asyncio.gather(*(
            self._send(state, client, index)
            for client in state.clients
            for index in range(len(state.images))
        ))

    async def _send(self, state, client, index: int = None):
        """One request; returns its result, or None when it failed."""
        from repro.gateway.client import GatewayError

        step = state.sent % PLAN
        if index is None:
            index = state.plan_images[step]
        sla = SLAS[state.plan_slas[step]]
        state.sent += 1
        try:
            result = await client.predict(
                "cnn", state.images[index : index + 1], sla=sla,
                deadline_s=DEADLINE_S if sla == "latency" else None,
            )
        except GatewayError:
            state.errors += 1
            return None
        state.retries += result.attempts - 1
        state.responses.add(index, result)
        return result

    def _mark(self, state, name: str) -> None:
        state.marks[name] = _command(state, "mark")
        state.marks[name]["client_cpu_s"] = time.process_time()

    async def _closed_loop(self, state, seconds: float, host):
        """Answered requests per second, and burst latencies, per time bin.

        Each bin starts with both processes idle and the host probed, so
        each is scaled by the host speed measured right before it.
        """
        clock = time.perf_counter
        end = clock() + seconds
        rates = []
        bins = []
        while clock() < end:
            bursts = []
            scale = host.sample()
            started = clock()
            bin_end = started + LATENCY_BIN_S
            answered = 0
            while clock() < bin_end:
                sent = clock()
                results = await asyncio.gather(*(
                    self._send(state, client)
                    for client in state.clients
                    for _ in range(BURST)
                ))
                bursts.append((clock() - sent) / scale)
                answered += sum(result is not None for result in results)
            rates.append(answered / (clock() - started) * scale)
            bins.append(bursts)
        return rates, bins

    async def _open_loop(self, state, seconds: float, host):
        """Latency of each request from its due time, and the generator's lag.

        The host is probed every ``PROBE_EVERY_S``; a latency is scaled by
        the latest probe before its due time.  A probe stalls the load
        process and briefly shares the gateway's CPU, so requests due within
        ``PROBE_GUARD_S`` of one are answered and checked but not timed.
        """
        clock = time.perf_counter
        scale = host.sample()
        due_times = np.cumsum(np.roll(state.gaps, -state.gap_cursor)) * scale
        due_times = due_times[due_times < seconds]
        state.gap_cursor = (state.gap_cursor + len(due_times)) % PLAN
        latencies = [None] * len(due_times)
        scales = [scale] * len(due_times)
        lags = [0.0] * len(due_times)
        tasks = []
        guards = []

        async def one(position, due, client):
            if await self._send(state, client) is not None:
                latencies[position] = clock() - due

        started = clock()
        next_probe = started + PROBE_EVERY_S
        for position, offset in enumerate(due_times):
            due = started + offset
            if clock() >= next_probe:
                probe_started = clock()
                scale = host.sample()
                guards.append((probe_started - PROBE_GUARD_S, clock() + PROBE_GUARD_S))
                next_probe = clock() + PROBE_EVERY_S
            # The event loop's timers resolve to about a millisecond, which
            # is twice the mean gap: sleep through long waits, then keep
            # yielding (so replies are still read) until the request is due.
            while True:
                wait = due - clock()
                if wait <= 0:
                    break
                await asyncio.sleep(wait - 2e-3 if wait > 3e-3 else 0)
            lags[position] = clock() - due
            scales[position] = scale
            client = state.clients[position % len(state.clients)]
            tasks.append(asyncio.ensure_future(one(position, due, client)))
        await asyncio.gather(*tasks)
        timed, timed_lags = [], []
        for offset, latency, scale, lag in zip(due_times, latencies, scales, lags):
            due = started + offset
            if latency is not None and not any(low <= due <= high for low, high in guards):
                timed.append(latency / scale)
                timed_lags.append(lag)
        return timed, timed_lags

    def measure(self, state, seconds: float, host) -> Window:
        closed_s = seconds * CLOSED_SHARE
        window = Window()
        # The open-loop phase runs first: its work is fixed, so the memory
        # high-water mark read after it does not grow with speed.
        self._mark(state, "start")
        open_latencies, lags = state.loop.run_until_complete(
            self._open_loop(state, seconds - closed_s, host)
        )
        self._mark(state, "open")
        if not hasattr(state, "peak_rss_mb"):
            state.peak_rss_mb = peak_rss_mb([state.process.pid])
        # The closed loop's rate bins are its latency bins too.
        window.rates, window.latency_bins = state.loop.run_until_complete(
            self._closed_loop(state, closed_s, host)
        )
        self._mark(state, "closed")
        marks = state.marks
        first, last = marks["start"], marks["closed"]
        # The open loop spins between sends, so client CPU is taken over
        # the closed loop only.
        window.cpu_s = last["client_cpu_s"] - marks["open"]["client_cpu_s"]
        answered = last["responses_sent"] - first["responses_sent"]
        window.extra = {
            "lag_p99_s": quantile(lags, 0.99),
            "open_p50_s": quantile(open_latencies, 0.5),
            "open_p99_s": quantile(open_latencies, 0.99),
            "open_samples": float(len(open_latencies)),
            "server_cpu_per_req_s": (last["cpu_s"] - first["cpu_s"]) / answered,
            # Busy share at the open loop's fixed offered load.
            "server_busy_frac": (marks["open"]["cpu_s"] - first["cpu_s"])
            / (marks["open"]["wall_s"] - first["wall_s"]),
            "answered": float(answered),
            "answered_closed": float(
                last["responses_sent"] - marks["open"]["responses_sent"]
            ),
            "memo_hits": last["memo_hits"] - first["memo_hits"],
            "memo_misses": last["memo_misses"] - first["memo_misses"],
        }
        return window

    @contextmanager
    def instrument(self, state, recorder):
        _command(state, "trace")
        state.sent_before_trace = state.sent
        state.retries_before_trace = state.retries
        try:
            yield
        finally:
            path = os.path.join(
                HERE, "results", f"spans-{self.name}-seed{state.seed}-gateway.jsonl"
            )
            state.server_spans = _command(state, f"spans {path}")

    def layers(self, state, window: Window, recorder, base: Window) -> dict:
        table = state.server_spans["summary"]
        state.span_tables = {"gateway": table}
        counts = state.server_spans["counts"]
        extra = window.extra
        answered = extra["answered"]

        def row(name):
            return table.get(name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})

        def per_call_us(name):
            calls = row(name)["calls"]
            return row(name)["total_s"] * 1e6 / calls if calls else 0.0

        router_s = sum(
            row(f"cluster.router.{name}")["total_s"] for name in ("submit", "drain", "result")
        )
        protocol_s = row("gateway.protocol.encode")["total_s"] + row(
            "gateway.protocol.decode")["total_s"]
        traced_busy_s = extra["server_cpu_per_req_s"] * answered
        dispatches = row("cluster.node.execute")["calls"]
        sent = state.sent - state.sent_before_trace
        hits, misses = extra["memo_hits"], extra["memo_misses"]
        frames = row("gateway.protocol.encode")["calls"] + row(
            "gateway.protocol.decode")["calls"]
        return {
            "gateway.client.cpu_us_per_req": (
                window.cpu_s * 1e6 / window.extra["answered_closed"]
            ),
            "gateway.client.retries": (state.retries - state.retries_before_trace) / sent,
            "gateway.loadgen.lag_p99_ms": extra["lag_p99_s"] * 1e3,
            "gateway.protocol.encode_us": per_call_us("gateway.protocol.encode"),
            "gateway.protocol.decode_us": per_call_us("gateway.protocol.decode"),
            "gateway.protocol.frames": frames / answered,
            # Server CPU per request comes from the untraced half, so the
            # tracing cost does not inflate it; "other" is what the spans
            # of the traced half leave unexplained of that figure.
            "gateway.server.cpu_us_per_req": base.extra["server_cpu_per_req_s"] * 1e6,
            "gateway.server.router_us_per_req": router_s * 1e6 / answered,
            "gateway.server.other_us_per_req": (
                base.extra["server_cpu_per_req_s"] - (router_s + protocol_s) / answered
            ) * 1e6,
            "gateway.server.requests_per_drain": (
                answered / row("cluster.router.drain")["calls"]
                if row("cluster.router.drain")["calls"] else 0.0
            ),
            "gateway.server.busy_frac": base.extra["server_busy_frac"],
            "cluster.router.submit_us": per_call_us("cluster.router.submit"),
            "cluster.router.drain_us_per_req": (
                row("cluster.router.drain")["total_s"] * 1e6 / answered
            ),
            "cluster.router.requests_per_dispatch": (
                answered / dispatches if dispatches else 0.0
            ),
            "cluster.scheduler.choose_us": per_call_us("cluster.scheduler.choose"),
            "cluster.node.execute_us": per_call_us("cluster.node.execute"),
            "cluster.node.images_per_dispatch": (
                counts.get("cluster.node.execute", 0.0) / dispatches if dispatches else 0.0
            ),
            "cluster.node.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.coverage": min(1.0, (router_s + protocol_s) / traced_busy_s),
            # The server's work per request, traced against untraced (the
            # load process's wall time per request is set by the phases'
            # fixed offered load and would hide the difference).
            "trace.overhead_frac": (
                extra["server_cpu_per_req_s"] / base.extra["server_cpu_per_req_s"] - 1.0
            ),
        }

    def check(self, state, outcome) -> None:
        outcome.record(state.sent, state.errors, "requests refused, failed or timed out")
        responses = state.responses
        by_id = {request_id: row for row, request_id in enumerate(responses.ids)}
        ids = sorted(by_id)
        checked = wrong = 0
        position = 0
        # Coalesced requests hold consecutive router ids; rebuild each
        # dispatch's batch and predict it locally in one piece, as the node
        # does (a batch quantises its activations together).
        while position < len(ids):
            first = ids[position]
            size = responses.coalesced[by_id[first]]
            rows = [by_id.get(first + offset) for offset in range(size)]
            if any(row is None or responses.coalesced[row] != size for row in rows):
                checked += 1
                wrong += 1
                position += 1
                continue
            batch = np.concatenate(
                [state.images[responses.image[row] : responses.image[row] + 1] for row in rows]
            )
            expected = state.model.predict(batch)
            for row, label in zip(rows, expected):
                checked += 1
                wrong += int(responses.label[row] != label)
            position += size
        outcome.record(checked, wrong, "responses differ from the local predict")

    def end_to_end(self, state, window: Window) -> dict:
        return {
            "throughput_per_s": statistics.median(window.rates),
            "latency_p50_ms": window.latency_ms(0.5),
            "latency_p90_ms": window.latency_ms(0.9),
            "sim_energy_j": statistics.fmean(state.responses.energy_j),
            "sim_latency_s": statistics.fmean(state.responses.latency_s),
        }

    def report(self, state, window: Window) -> list:
        extra = window.extra
        samples = int(extra["open_samples"])
        return [
            ("wire_rps", statistics.median(window.rates), "req/s", "higher"),
            (f"wire_p50_ms (open loop, n={samples})", extra["open_p50_s"] * 1e3,
             "ms", "lower"),
            (f"wire_p99_ms (open loop, n={samples})", extra["open_p99_s"] * 1e3,
             "ms", "lower"),
            ("gateway_lag_p99_ms", extra["lag_p99_s"] * 1e3, "ms", "lower"),
        ]

    def close(self, state) -> list:
        problems = []
        os.sched_setaffinity(0, state.affinity)
        for client in state.clients:
            state.loop.run_until_complete(client.close())
        state.loop.close()
        process = state.process
        if process.poll() is None:
            try:
                process.stdin.write("quit\n")
                process.stdin.flush()
                process.stdin.close()
                process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                problems.append("gateway process did not stop on quit; killed")
                process.kill()
                process.wait(timeout=30)
        process.stdout.close()
        if process.returncode != 0:
            problems.append(f"gateway process exited with status {process.returncode}")
        port = getattr(state, "port", None)
        if port is not None:
            with socket.socket() as probe:
                if probe.connect_ex(("127.0.0.1", port)) == 0:
                    problems.append(f"port {port} still accepts connections")
        return problems

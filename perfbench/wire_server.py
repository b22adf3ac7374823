"""Gateway server process of the ``wire_small`` workload.

Serves the gateway's demo fleet reduced to one analytic node (coalescing
on, demo CNN on 8x8 images) on an ephemeral loopback port.  The load
process drives it over the wire and controls it through stdin, one
command per line, each answered by one JSON line on stdout:

* ``mark`` — process CPU seconds, wall clock and the server's counters;
* ``trace`` — start recording spans around the layers' public calls;
* ``spans PATH`` — stop recording, write the spans to PATH as JSONL and
  return their per-name summary;
* ``quit`` (or end of input) — drain gracefully and exit.

The first stdout line, ``{"ready": true, "port": ...}``, is the readiness
handshake: it is printed only once the socket listens.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from contextlib import ExitStack

from spans import SpanRecorder, patched, summarize


def _counters(server) -> dict:
    memo = server.router.nodes[0].forward_memo
    snapshot = server.snapshot()
    return {
        "cpu_s": time.process_time(),
        "wall_s": time.perf_counter(),
        "responses_sent": snapshot["responses_sent"],
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
    }


def _instrument(server, recorder) -> ExitStack:
    """Wrap the protocol, router, scheduler and node calls the server makes."""
    import repro.gateway.server as server_module
    from repro.gateway.protocol import FrameDecoder

    router = server.router
    stack = ExitStack()
    stack.enter_context(patched(
        server_module, "encode_frame",
        recorder.wrap(server_module.encode_frame, "gateway.protocol.encode"),
    ))
    stack.enter_context(patched(
        FrameDecoder, "feed",
        recorder.wrap_iterator(FrameDecoder.feed, "gateway.protocol.decode"),
    ))
    for attribute in ("submit", "drain", "result"):
        stack.enter_context(patched(
            router, attribute,
            recorder.wrap(getattr(router, attribute), f"cluster.router.{attribute}"),
        ))
    stack.enter_context(patched(
        router.scheduler, "choose",
        recorder.wrap(router.scheduler.choose, "cluster.scheduler.choose"),
    ))
    for node in router.nodes:
        stack.enter_context(patched(
            node, "execute",
            recorder.wrap(node.execute, "cluster.node.execute",
                          count=lambda model_id, images, *a, **k: len(images)),
        ))
        stack.enter_context(patched(
            node, "execute_group",
            recorder.wrap(node.execute_group, "cluster.node.execute",
                          count=lambda model_id, parts: sum(len(i) for i, _ in parts)),
        ))
    return stack


def main() -> int:
    from repro.gateway.__main__ import build_demo_router
    from repro.gateway.server import GatewayServer

    router = build_demo_router(nodes=1, num_macros=8, mode="analytic", coalesce=True)
    server = GatewayServer(router, port=0)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    loop.run_until_complete(server.start())
    stopped = asyncio.Event()
    tracing = {}

    async def handle(words):
        command = words[0]
        if command == "mark":
            return _counters(server)
        if command == "trace":
            tracing["recorder"] = SpanRecorder()
            tracing["stack"] = _instrument(server, tracing["recorder"])
            return {"tracing": True}
        if command == "spans":
            tracing.pop("stack").close()
            recorder = tracing.pop("recorder")
            recorder.write_jsonl(words[1], "gateway")
            return {"summary": summarize(recorder.spans), "counts": recorder.counts}
        if command == "quit":
            return {"quitting": True}
        return {"error": f"unknown command {command!r}"}

    def control() -> None:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            reply = asyncio.run_coroutine_threadsafe(handle(words), loop).result()
            print(json.dumps(reply), flush=True)
            if words[0] == "quit":
                break
        loop.call_soon_threadsafe(stopped.set)

    print(json.dumps({"ready": True, "port": server.port, "pid": os.getpid()}), flush=True)
    threading.Thread(target=control, name="control", daemon=True).start()
    try:
        loop.run_until_complete(stopped.wait())
        loop.run_until_complete(server.drain_and_stop())
    finally:
        router.shutdown()
        loop.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The gateway SDK's retry policy, driven without sockets.

Each case scripts the server's replies to a ``predict`` call and stubs the
client's transport, so the policy runs exactly: the backoff sleeps are
recorded instead of slept, the jitter RNG is seeded, and the REQUEST
payloads the client would have put on the wire are kept for inspection.
Hypothesis draws the reply scripts (RESPONSE, BUSY with a hint and a
draining flag, and the ERROR codes the policy branches on) together with
the client settings, and the invariants of PROTOCOL.md §6 are checked on
every draw.  Both clients drive one policy core, so the same script must
give the same sleeps, outcome, counters and payloads on either.
"""

import asyncio
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gateway import (
    AsyncGatewayClient,
    FrameType,
    GatewayBusyError,
    GatewayClient,
    GatewayError,
    GatewayRequestError,
    GatewayShedError,
    decode_frame,
    images_digest,
)

IMAGES = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
BASE_S = 0.01
CAP_S = 0.08
RESPONSE = (FrameType.RESPONSE, {"predictions": [1], "request_id": 7})


def busy(hint_s, draining):
    return FrameType.BUSY, {"retry_after_s": hint_s, "draining": draining}


def error(code):
    return FrameType.ERROR, {"code": code, "message": f"scripted {code}"}


REPLIES = st.one_of(
    st.just(RESPONSE),
    st.builds(busy, st.floats(0.0, 0.2), st.booleans()),
    st.sampled_from(
        ["unknown_images_ref", "shed", "malformed_frame", "bad_request"]
    ).map(error),
)
RNGS = {
    "random": random.Random,
    "numpy": np.random.default_rng,
}


class CeilingRng:
    """A jitter RNG pinned to the top of the window: the doubling schedule."""

    @staticmethod
    def uniform(_low, high):
        return high


def outcome_of(call):
    """A comparable summary of one call: the result or the typed error."""
    try:
        result = call()
    except GatewayError as failure:
        return (
            type(failure).__name__,
            getattr(failure, "retry_after_s", None),
            getattr(failure, "draining", None),
            getattr(failure, "code", None),
        )
    return ("result", result.attempts, None, None)


def run_sync(script, retries, retry_budget_s, rng, ref_known):
    """Drive ``GatewayClient.predict`` through ``script``.

    Returns:
        ``(outcome, sleeps, counters, payloads)`` — the payloads are the
        decoded REQUEST frames the client sent, one per reply consumed.
    """
    sleeps = []
    client = GatewayClient(
        "unused", 0, retries=retries, backoff_base_s=BASE_S,
        backoff_cap_s=CAP_S, retry_budget_s=retry_budget_s,
        sleep=sleeps.append, rng=rng,
    )
    replies = iter(script)
    payloads = []

    def roundtrip(frame):
        frame_type, payload = decode_frame(frame)
        assert frame_type is FrameType.REQUEST
        payloads.append(payload)
        return (*next(replies, RESPONSE), 0.001)

    client._roundtrip = roundtrip
    if ref_known:
        client._known_refs.add(images_digest(IMAGES))
    outcome = outcome_of(lambda: client.predict("cnn", IMAGES))
    return outcome, sleeps, dict(client.counters), payloads


def run_async(script, retries, retry_budget_s, rng, ref_known):
    """Drive ``AsyncGatewayClient.predict`` through ``script``; as :func:`run_sync`."""
    sleeps = []

    async def sleep(delay_s):
        sleeps.append(delay_s)

    client = AsyncGatewayClient(
        "unused", 0, retries=retries, backoff_base_s=BASE_S,
        backoff_cap_s=CAP_S, retry_budget_s=retry_budget_s, sleep=sleep, rng=rng,
    )
    replies = iter(script)
    payloads = []

    async def exchange(frame_type, payload):
        assert frame_type is FrameType.REQUEST
        payloads.append(payload)
        return next(replies, RESPONSE)

    client._exchange = exchange
    if ref_known:
        client._known_refs.add(images_digest(IMAGES))
    outcome = outcome_of(lambda: asyncio.run(client.predict("cnn", IMAGES)))
    return outcome, sleeps, dict(client.counters), payloads


def check_invariants(script, retries, retry_budget_s, ref_known, run):
    """The PROTOCOL.md §6 policy, checked on one driven call."""
    outcome, sleeps, counters, payloads = run
    consumed = (list(script) + [RESPONSE] * len(payloads))[: len(payloads)]
    frame_type, last = consumed[-1]
    hints = [reply["retry_after_s"] for kind, reply in consumed if kind is FrameType.BUSY]
    assert len(payloads) <= retries + 1 + int(ref_known)
    assert len(sleeps) <= retries
    if retry_budget_s is not None:
        assert sum(sleeps) <= retry_budget_s
    # Every sleep answers the BUSY before it, floored by its hint and capped.
    for delay_s, hint_s in zip(sleeps, hints):
        assert min(hint_s, CAP_S) <= delay_s <= CAP_S
    # Only the first attempt of a known digest goes by reference.
    assert ("images_ref" in payloads[0]) == ref_known
    assert all("images" in payload for payload in payloads[1:] if not ref_known)
    assert [payload["id"] for payload in payloads] == list(range(len(payloads)))
    kind = outcome[0]
    if kind == "result":
        assert frame_type is FrameType.RESPONSE
        assert outcome[1] == len(payloads)
    elif kind in ("GatewayBusyError", "RetryBudgetExceeded"):
        # A busy failure answers a BUSY, and carries that BUSY's hint.
        assert frame_type is FrameType.BUSY
        assert outcome[1:3] == (last["retry_after_s"], last["draining"])
    else:
        assert frame_type is FrameType.ERROR
        assert outcome[3] == last["code"]
        assert (kind == "GatewayShedError") == (last["code"] == "shed")
    retried_malformed = sum(
        reply.get("code") == "malformed_frame" for _, reply in consumed
    ) - int(outcome[3] == "malformed_frame")
    busy_failure = kind in ("GatewayBusyError", "RetryBudgetExceeded")
    assert counters["requests"] == 1
    assert counters["busy_retries"] == len(sleeps) == len(hints) - busy_failure
    assert counters["shed"] == int(kind == "GatewayShedError")
    assert counters["transport_errors"] == retried_malformed


CALLS = dict(
    script=st.lists(REPLIES, min_size=1, max_size=10),
    retries=st.integers(0, 5),
    retry_budget_s=st.one_of(st.none(), st.floats(0.0, 0.3)),
    rng_kind=st.sampled_from(sorted(RNGS)),
    seed=st.integers(0, 2**16),
    ref_known=st.booleans(),
)


class TestBothClients:
    @settings(max_examples=200)
    @given(**CALLS)
    def test_same_script_same_behaviour(
        self, script, retries, retry_budget_s, rng_kind, seed, ref_known
    ):
        runs = [
            run(script, retries, retry_budget_s, RNGS[rng_kind](seed), ref_known)
            for run in (run_sync, run_async)
        ]
        assert runs[0] == runs[1]
        check_invariants(script, retries, retry_budget_s, ref_known, runs[0])


@pytest.mark.parametrize("run", [run_sync, run_async])
class TestPolicyCases:
    def test_reupload_is_not_charged_against_retries(self, run):
        # The server lost the cached tensor; it never said BUSY, so the
        # call must not fail as busy even with no retries left.
        outcome, sleeps, _, payloads = run(
            [error("unknown_images_ref")], 0, None, random.Random(0), True
        )
        assert outcome == ("result", 2, None, None)
        assert sleeps == []
        assert ["images_ref" in payload for payload in payloads] == [True, False]

    def test_reupload_keeps_the_backoff_schedule(self, run):
        script = [busy(0.0, False), error("unknown_images_ref"), busy(0.0, False)]
        outcome, sleeps, counters, _ = run(script, 2, None, CeilingRng(), True)
        assert outcome == ("result", 4, None, None)
        assert sleeps == [BASE_S, 2 * BASE_S]
        assert counters["busy_retries"] == 2

    def test_full_upload_rejected_as_unknown_ref_is_a_request_error(self, run):
        outcome, sleeps, _, payloads = run(
            [error("unknown_images_ref")], 3, None, random.Random(0), False
        )
        assert outcome == ("GatewayRequestError", None, None, "unknown_images_ref")
        assert sleeps == [] and len(payloads) == 1

    def test_shed_maps_to_the_typed_error(self, run):
        outcome, _, counters, _ = run(
            [busy(0.0, False), error("shed")], 3, None, random.Random(0), False
        )
        assert outcome[0] == GatewayShedError.__name__
        assert issubclass(GatewayShedError, GatewayRequestError)
        assert counters["shed"] == 1 and counters["busy_retries"] == 1

    def test_exhausted_attempts_raise_busy_with_the_last_hint(self, run):
        outcome, sleeps, _, payloads = run(
            [busy(0.0, False), busy(0.03, True)], 1, None, random.Random(0), False
        )
        assert outcome == (GatewayBusyError.__name__, 0.03, True, None)
        assert len(sleeps) == 1 and len(payloads) == 2

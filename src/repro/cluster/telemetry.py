"""Telemetry of the multi-chip cluster: request traces and derived signals.

The cluster's control loops are *reactive*: the scheduler and the autoscaler
act on what recently happened, not on offline profiles.  This module is the
shared measurement substrate:

* :class:`RequestTrace` — the immutable record of one routed request
  (placement, modeled queue delay / compute time, energy, deadline outcome,
  whether the weights were already resident on the chosen node);
* :class:`NodeTelemetry` — per-node aggregates (dispatches, images, energy,
  modeled busy time, an EWMA of per-image latency) the scheduler reads when
  ranking candidates and the autoscaler reads when hunting idle nodes;
* :class:`ClusterTelemetry` — the fleet's one trace log, recorded by both
  router kernels.  The per-request loop appends the :class:`RequestTrace`
  it built; the columnar kernel's turbo chunks append plain row tuples
  whose energies land when their deferred charges flush.  Whole-history
  aggregates are strict left folds over the log (bit for bit what
  ``sum()`` over the trace list gives), ``retain_traces=False`` folds and
  drops rows for flat memory, and two *windowed* signals feed the control
  loops: the recent deadline-miss rate of the latency class and the recent
  per-model dispatch counts (a model whose recent count crosses the
  scheduler's threshold is "hot" and becomes eligible for replication onto
  additional nodes).

Everything here is measured in the cluster's *modeled* (virtual) time — the
chip delay/energy models drive the clock, so every signal is deterministic
and the scheduling tests can pin exact outcomes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RequestTrace", "NodeTelemetry", "ClusterTelemetry", "ColumnarTelemetry"]


@dataclass(frozen=True)
class RequestTrace:
    """Everything recorded about one routed request."""

    request_id: int
    model_id: str
    node_id: str
    sla: str
    images: int
    arrival_s: float
    start_s: float
    finish_s: float
    compute_s: float
    energy_j: float
    deadline_s: Optional[float]
    deadline_missed: bool
    affinity_hit: bool
    programmed: bool
    feasible_at_admission: bool
    #: Execution mode the dispatch ran under ("exact" / "analytic").
    execution_mode: str = "exact"
    #: How many requests shared the dispatch (1 = not coalesced).
    coalesced: int = 1
    #: Whether this dispatch's memoised predictions were spot-checked.
    spot_checked: bool = False
    #: Whether the request was re-placed after admission (its original node
    #: crashed or was parked before the dispatch could run).
    replayed: bool = False
    #: Root span id of the request's modeled-time span tree, when the run
    #: carried a :class:`repro.obs.Tracer` and this request was sampled
    #: (``request_id % sample_every == 0``); ``None`` otherwise.
    span_id: Optional[int] = None

    @property
    def queue_delay_s(self) -> float:
        """Modeled time the request waited behind the node's backlog."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Modeled end-to-end latency (queue delay + compute)."""
        return self.finish_s - self.arrival_s


@dataclass
class NodeTelemetry:
    """Aggregates of one node's dispatch history.

    ``ewma_image_latency_s`` tracks the per-image modeled compute latency
    with an exponential moving average — the cheap online signal of how fast
    this node currently is for the traffic it actually receives (the
    operating point sets the floor, batch composition moves it around).
    """

    node_id: str
    ewma_alpha: float = 0.3
    dispatches: int = 0
    images: int = 0
    energy_j: float = 0.0
    busy_s: float = 0.0
    deadline_misses: int = 0
    affinity_hits: int = 0
    programmed_dispatches: int = 0
    ewma_image_latency_s: float = 0.0

    def record(self, trace: RequestTrace) -> None:
        """Fold one routed request into the node's aggregates."""
        self.dispatches += 1
        self.images += trace.images
        self.energy_j += trace.energy_j
        self.busy_s += trace.compute_s
        if trace.deadline_missed:
            self.deadline_misses += 1
        if trace.affinity_hit:
            self.affinity_hits += 1
        if trace.programmed:
            self.programmed_dispatches += 1
        if trace.images:
            sample = trace.compute_s / trace.images
            if self.dispatches == 1:
                self.ewma_image_latency_s = sample
            else:
                self.ewma_image_latency_s += self.ewma_alpha * (
                    sample - self.ewma_image_latency_s
                )

    @property
    def energy_per_image_j(self) -> float:
        """Measured energy per served image (0 before the first dispatch)."""
        return self.energy_j / self.images if self.images else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat counters for reports."""
        return {
            "dispatches": float(self.dispatches),
            "images": float(self.images),
            "energy_j": self.energy_j,
            "energy_per_image_j": self.energy_per_image_j,
            "busy_s": self.busy_s,
            "deadline_misses": float(self.deadline_misses),
            "affinity_hits": float(self.affinity_hits),
            "programmed_dispatches": float(self.programmed_dispatches),
            "ewma_image_latency_s": self.ewma_image_latency_s,
        }


#: :class:`RequestTrace` fields in row order, minus ``energy_j`` (a parallel
#: column, filled late for turbo rows) and ``span_id``.  Turbo chunks append
#: their rows as plain tuples in this order.
_ROW_FIELDS = (
    "request_id", "model_id", "node_id", "sla", "images", "arrival_s",
    "start_s", "finish_s", "compute_s", "deadline_s", "deadline_missed",
    "affinity_hit", "programmed", "feasible_at_admission", "execution_mode",
    "coalesced", "spot_checked", "replayed",
)
_as_row = attrgetter(*_ROW_FIELDS)
_field_getters = [attrgetter(name) for name in _ROW_FIELDS]


def _fold(start: float, parts: List[np.ndarray]) -> float:
    """Strict sequential left fold ``start + p[0] + p[1] + ...`` (bit-exact).

    ``np.add.accumulate`` on float64 applies the same rounding sequence a
    Python ``+=`` loop does, so the result equals ``sum()`` over the same
    values, in the same order, bit for bit.
    """
    lead = np.empty(1, dtype=np.float64)
    lead[0] = start
    return float(np.add.accumulate(np.concatenate([lead] + parts))[-1])


class _Totals:
    """Running left-fold totals of one SLA class (key ``None``: all)."""

    __slots__ = ("requests", "images", "energy_j", "latency_s", "eligible", "missed")

    def __init__(self) -> None:
        self.requests = 0
        self.images = 0
        self.energy_j = 0.0
        self.latency_s = 0.0
        #: Deadline-carrying requests, and how many of them missed.
        self.eligible = 0
        self.missed = 0

    def add(self, images, energy, latency, has_deadline, missed) -> None:
        """Continue every fold with one chunk of rows, in row order."""
        self.requests += len(images)
        self.images += int(images.sum())
        self.energy_j = _fold(self.energy_j, [energy])
        self.latency_s = _fold(self.latency_s, [latency])
        self.eligible += int(np.count_nonzero(has_deadline))
        self.missed += int(np.count_nonzero(has_deadline & missed))


class ClusterTelemetry:
    """The fleet's trace log plus the windowed signals the control loops use.

    ``window`` bounds the reactive signals (deadline-miss rate, model heat,
    recent SLA presence) to the most recent traces, so the scheduler and
    autoscaler respond to the *current* traffic mix instead of the whole
    history.  They are maintained online and never need a flush.

    Rows are :class:`RequestTrace` objects (the per-request loop's
    :meth:`record`) or plain tuples in ``_ROW_FIELDS`` order (turbo chunks'
    :meth:`record_rows_batch`); a turbo row's energy lands later through
    :meth:`set_energy_batch`, and the row becomes a :class:`RequestTrace`
    only when :attr:`traces` is read.  Every whole-history aggregate first
    calls :meth:`flush`, which folds the rows recorded since the last flush
    into per-SLA running totals in row order.  With
    ``retain_traces=False`` the folded rows are dropped (flat memory); then
    only :attr:`traces`, :meth:`traces_for` and
    :meth:`latency_quantiles_s` are unavailable.
    """

    #: Rows buffered in aggregate mode before they are folded into the
    #: running totals and dropped (the flat-memory flush cadence).
    _AGG_FLUSH_ROWS = 65536

    def __init__(self, window: int = 32, retain_traces: bool = True) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.retain_traces = retain_traces
        self._rows: List[object] = []
        #: ``energy_j`` per row; ``None`` until a turbo row's energy lands.
        self._energy: List[Optional[float]] = []
        #: RequestTrace objects among the unfolded rows (picks how a flush
        #: transposes them).
        self._objects = 0
        #: Rows before this index are folded into the totals (and into the
        #: attached instrumentation).
        self._folded = 0
        #: Rows before this index are RequestTrace objects.
        self._built = 0
        #: Rows folded and dropped in aggregate mode.
        self._dropped = 0
        self._recent: Deque[Tuple[str, str, bool, bool]] = deque(maxlen=window)
        #: Per-model dispatch counts over the sliding window, maintained
        #: incrementally: the scheduler reads model heat on every admission,
        #: so the signal must not cost a window scan per request.
        self._recent_model_counts: Dict[str, int] = {}
        #: Lifetime count of deadline-carrying traces: the autoscaler's O(1)
        #: "any latency traffic yet?" probe, in either retention mode.
        self.deadline_trace_count = 0
        #: Run first by every flush: the columnar kernel installs its
        #: deferred-charge flush here, which lands turbo energies.
        self._flush_hook: Optional[Callable[[], None]] = None
        #: Optional :class:`repro.cluster.instrumentation.ClusterInstrumentation`
        #: folded into at flush boundaries (vectorised; never per-row).
        self.instrumentation = None
        #: request_id -> root span id of sampled turbo rows, kept until the
        #: row becomes a RequestTrace (retained mode only).
        self._turbo_spans: Dict[int, int] = {}
        self._totals: Dict[Optional[str], _Totals] = {None: _Totals()}
        self._counts: Dict[str, int] = dict.fromkeys(
            (
                "affinity_hits", "programmed_dispatches", "analytic_requests",
                "coalesced_requests", "spot_checked_requests",
                "replayed_requests",
            ),
            0,
        )

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _note(self, model_id: str, sla: str, has_deadline: bool, missed: bool) -> None:
        """Slide one trace into the window."""
        counts = self._recent_model_counts
        recent = self._recent
        if len(recent) == self.window:
            evicted = recent[0][0]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        recent.append((model_id, sla, has_deadline, missed))
        counts[model_id] = counts.get(model_id, 0) + 1
        if has_deadline:
            self.deadline_trace_count += 1

    def record(self, trace: RequestTrace) -> None:
        """Append one routed request (the per-request loop's entry)."""
        self._rows.append(trace)
        self._energy.append(trace.energy_j)
        self._objects += 1
        self._note(
            trace.model_id, trace.sla, trace.deadline_s is not None,
            trace.deadline_missed,
        )
        if not self.retain_traces and len(self._rows) >= self._AGG_FLUSH_ROWS:
            self.flush()

    def record_rows_batch(self, rows: List[tuple]) -> int:
        """Append a chunk of turbo rows (energies deferred); returns the
        index of the first appended row.

        The batch entry point of the kernel's turbo replay: one call per
        dispatch chunk instead of one per request.  The sliding window ends
        in the same state sequential :meth:`record` calls leave it in —
        when the chunk covers the whole window only the tail can survive,
        so the window is rebuilt from the tail directly.
        """
        base = len(self._rows)
        self._rows.extend(rows)
        self._energy.extend([None] * len(rows))
        if len(rows) >= self.window:
            recent = self._recent
            recent.clear()
            recent.extend(
                (r[1], r[3], r[9] is not None, r[10])
                for r in rows[len(rows) - self.window :]
            )
            counts: Dict[str, int] = {}
            for item in recent:
                counts[item[0]] = counts.get(item[0], 0) + 1
            self._recent_model_counts = counts
            self.deadline_trace_count += sum(
                1 for r in rows if r[9] is not None
            )
        else:
            for r in rows:
                self._note(r[1], r[3], r[9] is not None, r[10])
        return base

    def set_energy_batch(
        self, indexes: Sequence[int], energies: Sequence[float]
    ) -> None:
        """Fill many deferred turbo energies in one pass."""
        column = self._energy
        for index, energy in zip(indexes, energies):
            column[index] = energy

    def maybe_fold(self) -> None:
        """Fold-and-drop when the aggregate-mode row buffer grows large.

        Called at turbo dispatch-chunk boundaries (never mid-chunk: a flush
        lands the kernel's deferred energies, which must not run while a
        chunk is still appending its rows).  A no-op with retained traces
        or below the buffering threshold.
        """
        if not self.retain_traces and len(self._rows) >= self._AGG_FLUSH_ROWS:
            self.flush()

    # ------------------------------------------------------------------ #
    # Flush: the one fold boundary
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Land deferred energies, then fold the unfolded rows.

        The rows since the last flush continue every running total in row
        order and, when instrumentation is attached, go to its vectorised
        fold, which also emits the spans of sampled turbo rows.  In
        aggregate mode the folded rows are dropped.
        """
        if self._flush_hook is not None:
            self._flush_hook()
        rows = self._rows
        start = self._folded
        if len(rows) == start:
            return
        tail = rows[start:] if start else rows
        if not self._objects:
            cols = list(zip(*tail))
        elif self._objects == len(tail):
            # Per-request rows only: read each field off the traces, with
            # no per-row tuple copies.
            cols = [tuple(map(field, tail)) for field in _field_getters]
        else:
            cols = list(zip(*[
                r if r.__class__ is tuple else _as_row(r) for r in tail
            ]))
        energy = np.asarray(self._energy[start:], dtype=np.float64)
        images = np.asarray(cols[4], dtype=np.int64)
        arrival = np.asarray(cols[5], dtype=np.float64)
        finish = np.asarray(cols[7], dtype=np.float64)
        latency = finish - arrival
        missed = np.asarray(cols[10], dtype=bool)
        has_deadline = np.asarray([d is not None for d in cols[9]], dtype=bool)
        sla_arr = np.asarray(cols[3], dtype=object)
        sla_masks = {sla: sla_arr == sla for sla in sorted(set(cols[3]))}
        coalesced = len(tail) - cols[15].count(1)
        replayed = cols[17].count(True)
        if self.instrumentation is not None:
            spans = self.instrumentation.fold_columns(
                cols,
                tail,
                energy=energy,
                images=images,
                arrival=arrival,
                finish=finish,
                latency=latency,
                missed=missed,
                sla_masks=sla_masks,
                coalesced_n=coalesced,
                replayed_n=replayed,
            )
            if spans and self.retain_traces:
                self._turbo_spans.update(spans)
        totals = self._totals
        totals[None].add(images, energy, latency, has_deadline, missed)
        for sla, mask in sla_masks.items():
            sla_totals = totals.get(sla)
            if sla_totals is None:
                sla_totals = totals[sla] = _Totals()
            sla_totals.add(
                images[mask], energy[mask], latency[mask], has_deadline[mask],
                missed[mask],
            )
        counts = self._counts
        counts["affinity_hits"] += cols[11].count(True)
        counts["programmed_dispatches"] += cols[12].count(True)
        counts["analytic_requests"] += cols[14].count("analytic")
        counts["coalesced_requests"] += coalesced
        counts["spot_checked_requests"] += cols[16].count(True)
        counts["replayed_requests"] += replayed
        self._objects = 0
        if self.retain_traces:
            self._folded = len(rows)
        else:
            self._dropped += len(rows)
            self._rows = []
            self._energy = []

    def _need_rows(self, what: str) -> None:
        if not self.retain_traces:
            raise ConfigurationError(
                f"{what} needs retained traces; this telemetry was built "
                "with retain_traces=False (aggregates only)"
            )

    def _class_totals(self, sla: Optional[str]) -> _Totals:
        self.flush()
        totals = self._totals.get(sla)
        return totals if totals is not None else _Totals()

    # ------------------------------------------------------------------ #
    # Reactive signals (online; no flush needed)
    # ------------------------------------------------------------------ #
    def recent_deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Deadline-miss fraction over the sliding window.

        Only deadline-carrying traces count; ``sla`` restricts the window
        further (the autoscaler watches the latency class specifically).
        """
        eligible = [
            t for t in self._recent if t[2] and (sla is None or t[1] == sla)
        ]
        if not eligible:
            return 0.0
        return sum(t[3] for t in eligible) / len(eligible)

    def recent_model_dispatches(self, model_id: str) -> int:
        """How many of the last ``window`` dispatches served this model."""
        return self._recent_model_counts.get(model_id, 0)

    def recent_has_sla(self, sla: str) -> bool:
        """Whether any dispatch in the sliding window served this class.

        The autoscaler's retune-down guard: only fleets with no recent
        latency-class traffic shift capacity to the efficient rungs.
        """
        return any(t[1] == sla for t in self._recent)

    # ------------------------------------------------------------------ #
    # Whole-history aggregates
    # ------------------------------------------------------------------ #
    @property
    def trace_count(self) -> int:
        """Requests recorded so far (cheap; no flush)."""
        return self._dropped + len(self._rows)

    @property
    def traces(self) -> List[RequestTrace]:
        """The full trace log, oldest first (retained mode only)."""
        self._need_rows("traces")
        self.flush()
        rows = self._rows
        if self._built < len(rows):
            energy = self._energy
            spans = self._turbo_spans
            for i in range(self._built, len(rows)):
                r = rows[i]
                if r.__class__ is tuple:
                    rows[i] = RequestTrace(
                        *r[:9], energy[i], *r[9:], spans.pop(r[0], None)
                    )
            self._built = len(rows)
        return rows

    def traces_for(
        self, sla: Optional[str] = None, model_id: Optional[str] = None
    ) -> List[RequestTrace]:
        """Filtered view of the full trace log."""
        return [
            trace
            for trace in self.traces
            if (sla is None or trace.sla == sla)
            and (model_id is None or trace.model_id == model_id)
        ]

    def request_count(self, sla: Optional[str] = None) -> int:
        """Requests recorded so far, optionally restricted to one class."""
        if sla is None:
            return self.trace_count
        return self._class_totals(sla).requests

    def total_energy_j(self) -> float:
        """Total modeled energy over the full log."""
        return self._class_totals(None).energy_j

    def deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Lifetime deadline-miss fraction of deadline-carrying requests."""
        totals = self._class_totals(sla)
        return totals.missed / totals.eligible if totals.eligible else 0.0

    def energy_per_image_j(self, sla: Optional[str] = None) -> float:
        """Modeled energy per image over (a class of) the full log."""
        totals = self._class_totals(sla)
        return totals.energy_j / totals.images if totals.images else 0.0

    def mean_latency_s(self, sla: Optional[str] = None) -> float:
        """Mean modeled request latency over (a class of) the full log."""
        totals = self._class_totals(sla)
        return totals.latency_s / totals.requests if totals.requests else 0.0

    def latency_quantiles_s(
        self,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99, 0.999),
        sla: Optional[str] = None,
    ) -> Dict[float, float]:
        """Latency quantiles over (a class of) the full log.

        The deadline-miss CDF summary reliability studies report: where the
        latency distribution sits relative to the deadline shows *how badly*
        requests missed during a fault window, not just how many.  Each
        quantile must lie in ``[0, 1]``.
        """
        quantiles = tuple(quantiles)
        for q in quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantiles must lie in [0, 1], got {q!r}")
        latencies = sorted(trace.latency_s for trace in self.traces_for(sla=sla))
        if not latencies:
            return {q: 0.0 for q in quantiles}
        last = len(latencies) - 1
        return {
            q: latencies[min(last, int(q * len(latencies)))] for q in quantiles
        }

    def summary(self) -> Dict[str, float]:
        """Flat fleet-wide aggregates for reports."""
        totals = self._class_totals(None)
        requests = totals.requests
        counts = self._counts
        return {
            "requests": float(requests),
            "images": float(totals.images),
            "energy_j": totals.energy_j,
            "mean_latency_s": self.mean_latency_s(),
            "deadline_miss_rate": self.deadline_miss_rate(),
            "affinity_hit_rate": (
                counts["affinity_hits"] / requests if requests else 0.0
            ),
            "programmed_dispatches": float(counts["programmed_dispatches"]),
            "analytic_requests": float(counts["analytic_requests"]),
            "coalesced_requests": float(counts["coalesced_requests"]),
            "spot_checked_requests": float(counts["spot_checked_requests"]),
            "replayed_requests": float(counts["replayed_requests"]),
        }


#: The columnar kernel's former trace-log class, now the same class as the
#: object kernel's; the name stays importable for existing callers.
ColumnarTelemetry = ClusterTelemetry

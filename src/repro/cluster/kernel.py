"""Columnar accelerator for the cluster router: turbo replay + deferred charges.

``ClusterRouter(kernel="columnar")`` runs the router's one per-request
serving loop — admission, SLA placement, the lazy dispatch heap, fault
injection, parked-backlog replay, coalescing — and adds two things from
this module:

* **Turbo chunk replay.**  :meth:`EventKernel.replay_trace` runs each
  steady-state ``drain_every`` chunk of a workload trace (warm analytic
  fleet, stock scheduler, no coalescing, no fault due, no per-request
  results) as one batch admission+dispatch pass that reproduces the
  per-request loop's placements, virtual times and telemetry value for
  value.  Its trace rows go into the router's one
  :class:`~repro.cluster.telemetry.ClusterTelemetry` as plain tuples
  (``record_rows_batch``), energies deferred.  Every other chunk goes
  through the router's own ``submit``/``drain``.
* **Deferred charge replay.**  A turbo dispatch's engine charges are a
  fixed template per (model, slice size): the same
  :meth:`~repro.core.matmul.TiledMatmulEngine.charge_layers` rows in the
  same order.  The kernel buffers the per-node *sequence* of slice
  signatures and flushes it with ``np.add.accumulate`` folds — a strict
  sequential left fold, so every float accumulator receives the identical
  sequence of additions the per-request loop performs, add for add.
  Integer counters are batch-added (exact), LRU order is restored from
  last-touch order, and per-dispatch energies are recovered from the
  accumulator's slice boundaries exactly as ``ledger_since`` subtracts
  them, then handed to the telemetry (``set_energy_batch``).  The
  kernel's flush is the telemetry's flush hook, so every telemetry
  aggregate sees final energies.

The fidelity contract ("bit-identical" to ``kernel="object"``) covers every
externally observable number: merged ledgers (cycles *and* float energy),
per-request trace rows, telemetry aggregates, placement decisions, fault
logs, and request conservation counters.  A node's deferred charges are
flushed before the router executes on it, before it is retuned, and
before any router-level read (``ledger()``, ``summary()``, telemetry
aggregates); a direct ``node.ledger()`` read mid-replay may observe them
still pending.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.cluster.node import ClusterNode, ExecutionMode, NodeState
from repro.cluster.scheduler import SLAClass, SLAScheduler
from repro.cluster.telemetry import ClusterTelemetry, _fold
from repro.core import Opcode
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

#: ``sla_indices`` decoding used by workload traces (= workload.SLA_ORDER).
_SLA_VALUES = (
    SLAClass.LATENCY.value,
    SLAClass.THROUGHPUT.value,
    SLAClass.BEST_EFFORT.value,
)

__all__ = ["EventKernel"]


# ---------------------------------------------------------------------- #
# Deferred charge replay (the analytic fast path's ledger machinery)
# ---------------------------------------------------------------------- #
class _SliceSig:
    """Charge template of one ``charge_layers`` call: (model, slice size).

    Holds exactly the values the engine's per-row loop would add, laid out
    for vectorized sequential folds at flush time.  Built once per
    (node, model, geometry, slice size) from the *resident* cache entries,
    and discarded whenever the fleet version bumps (retune, programming).
    """

    __slots__ = (
        "e9", "n_rows", "per_macro", "macro_order", "critical", "mac_count",
        "n_layers", "layer_ids",
    )

    def __init__(self, node: ClusterNode, model_id: str, shape_tail: tuple,
                 size: int) -> None:
        engine = node.engine
        specs = node._layer_charge_specs(model_id, (size,) + shape_tail)
        rows_all: List[tuple] = []
        mac_count = 0
        layer_ids: List[str] = []
        for factor, _codes, layer_id in specs:
            batch = factor * size
            entry = engine.cache.peek(layer_id)
            rows_all.extend(engine._charge_rows_for(entry, batch))
            inner, outer = entry.shape
            mac_count += batch * inner * outer
            layer_ids.append(layer_id)
        self.e9 = np.array([r[9] for r in rows_all], dtype=np.float64)
        self.n_rows = len(rows_all)
        # Per-macro template, keyed in *first-touch* order (dict insertion
        # order), so flush can create stats records in the order the
        # object path's defaultdict would.
        per_macro: Dict[int, list] = {}
        for r in rows_all:
            d = per_macro.get(r[0])
            if d is None:
                # [mult_e list, add_e list, mult_inv, words, mult_cyc,
                #  add_cyc, access, cycsum]
                d = [[], [], 0, 0, 0, 0, 0, 0]
                per_macro[r[0]] = d
            d[0].append(r[4])
            d[1].append(r[6])
            d[2] += r[1]
            d[3] += r[2]
            d[4] += r[3]
            d[5] += r[5]
            d[6] += r[7]
            d[7] += r[8]
        self.per_macro = {
            m: (
                np.array(d[0], dtype=np.float64),
                np.array(d[1], dtype=np.float64),
                d[2], d[3], d[4], d[5], d[6], d[7],
            )
            for m, d in per_macro.items()
        }
        self.macro_order = list(per_macro)
        self.critical = max(
            (d[7] for d in self.per_macro.values()), default=0
        )
        self.mac_count = mac_count
        self.n_layers = len(specs)
        self.layer_ids = layer_ids


class _DispatchSig:
    """Slice sequence + cached compute time of one (model, total images)."""

    __slots__ = ("slices", "batches", "critical_total", "_compute", "_cycle")

    def __init__(self, slices: List[_SliceSig], cycle_time: float) -> None:
        self.slices = slices
        self.batches = len(slices)
        self.critical_total = sum(s.critical for s in slices)
        self._cycle = cycle_time
        self._compute: Dict[float, float] = {}

    def compute_s(self, degrade: float) -> float:
        """The exact ``compute += critical * cycle * degrade`` fold."""
        cached = self._compute.get(degrade)
        if cached is None:
            cached = 0.0
            cycle = self._cycle
            for s in self.slices:
                cached += s.critical * cycle * degrade
            self._compute[degrade] = cached
        return cached


class _ChargeBuffer:
    """Per-node deferred charge state: the slice-event sequence."""

    __slots__ = ("engine", "dispatches", "row_indexes", "ordinals", "macros_seen")

    def __init__(self, engine) -> None:
        self.engine = engine
        #: One entry per buffered dispatch: its ``_SliceSig`` pattern list
        #: (the dsig's own list object — distinct patterns are few, so the
        #: flush dedupes them by identity and replays vectorized).
        self.dispatches: List[List[_SliceSig]] = []
        #: Deferred telemetry rows, as parallel columns:
        #: row index / dispatch ordinal.
        self.row_indexes: List[int] = []
        self.ordinals: List[int] = []
        #: Macros whose MULT/ADD records were already created on this chip.
        self.macros_seen: Set[int] = set()

    def reset(self) -> None:
        self.dispatches = []
        self.row_indexes = []
        self.ordinals = []


def _flush_buffer(node: ClusterNode, buf: _ChargeBuffer, telemetry) -> None:
    """Apply a node's buffered charge sequence to its real ledgers.

    The buffer holds one slice-*pattern* reference per dispatch and the
    distinct patterns are few (one per warm (model, batch) pair), so the
    slice event sequence is never materialized: every float accumulator
    receives its additions through sequential ``np.add.accumulate`` folds
    over pattern segments gathered in dispatch order — the identical
    increment sequence, and therefore the identical rounding sequence, the
    object path's per-row ``+=`` loops apply — while integer counters are
    batch-added (exact) and LRU order is restored from the last-touch
    order of the event sequence.
    """
    dispatches = buf.dispatches
    if not dispatches:
        return
    engine = buf.engine
    if node.engine is not engine:  # pragma: no cover - guarded by hooks
        raise ConfigurationError(
            f"node {node.node_id!r} was retuned with deferred charges "
            "pending; retune through the router/autoscaler hooks"
        )
    # --- distinct patterns + per-dispatch pattern ids ------------------- #
    pattern_index: Dict[int, int] = {}
    patterns: List[list] = []
    pids: List[int] = []
    papp = pids.append
    for pattern in dispatches:
        i = pattern_index.get(id(pattern))
        if i is None:
            i = len(patterns)
            pattern_index[id(pattern)] = i
            patterns.append(pattern)
        papp(i)
    ndisp = len(pids)
    npat = len(patterns)
    pid_arr = np.asarray(pids, dtype=np.intp)
    pattern_counts = np.bincount(pid_arr, minlength=npat)
    _, first_disp = np.unique(pid_arr, return_index=True)
    _, rev = np.unique(pid_arr[::-1], return_index=True)
    last_disp = ndisp - 1 - rev

    def gather(flat: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Concatenate per-pattern ``flat`` segments in dispatch order."""
        base = np.concatenate(([0], np.cumsum(lens)[:-1]))
        counts = lens[pid_arr]
        total = int(counts.sum())
        ends = np.cumsum(counts)
        return flat[
            np.repeat(base[pid_arr] - (ends - counts), counts)
            + np.arange(total)
        ]

    # --- global energy accumulator + per-slice boundary deltas ---------- #
    empty_f = np.empty(0, dtype=np.float64)
    pat_e9 = [
        np.concatenate([s.e9 for s in p]) if p else empty_f
        for p in patterns
    ]
    e9_lens = np.array([len(v) for v in pat_e9], dtype=np.intp)
    e9_flat = np.concatenate(pat_e9) if npat > 1 else pat_e9[0]
    lead = np.empty(1, dtype=np.float64)
    lead[0] = engine._energy_acc
    full = np.add.accumulate(
        np.concatenate((lead, gather(e9_flat, e9_lens)))
    )
    engine._energy_acc = float(full[-1])
    pat_nrows = [
        np.array([s.n_rows for s in p], dtype=np.intp) for p in patterns
    ]
    nrows_lens = np.array([len(v) for v in pat_nrows], dtype=np.intp)
    nrows_flat = np.concatenate(pat_nrows) if npat > 1 else pat_nrows[0]
    slice_nrows = gather(nrows_flat, nrows_lens)
    slices_per_disp = nrows_lens[pid_arr]
    bounds = np.cumsum(slice_nrows)
    acc_at = full[bounds]
    prev = np.concatenate((full[:1], acc_at[:-1]))
    slice_deltas = acc_at - prev
    # --- per-record energy folds + record creation order ---------------- #
    macros = engine._macros
    mult_op = Opcode.MULT
    add_op = Opcode.ADD
    seen = buf.macros_seen
    macro_mult: Dict[int, list] = {}
    macro_add: Dict[int, list] = {}
    first_key: Dict[int, tuple] = {}
    for i, p in enumerate(patterns):
        fd = int(first_disp[i])
        # macro -> (mult arrays, add arrays), first-touch order & slice
        # order within this pattern.
        local: Dict[int, tuple] = {}
        for s in p:
            pm = s.per_macro
            for m in s.macro_order:
                d = pm[m]
                lists = local.get(m)
                if lists is None:
                    local[m] = ([d[0]], [d[1]])
                else:
                    lists[0].append(d[0])
                    lists[1].append(d[1])
        for pos, (m, lists) in enumerate(local.items()):
            key = (fd, pos)
            cur = first_key.get(m)
            if cur is None:
                first_key[m] = key
                macro_mult[m] = [empty_f] * npat
                macro_add[m] = [empty_f] * npat
            elif key < cur:
                first_key[m] = key
            macro_mult[m][i] = (
                np.concatenate(lists[0]) if len(lists[0]) > 1
                else lists[0][0]
            )
            macro_add[m][i] = (
                np.concatenate(lists[1]) if len(lists[1]) > 1
                else lists[1][0]
            )
    # First-ever touches create the MULT then ADD records exactly where
    # the object path's first row would have (global first-touch order).
    for _key, m in sorted(
        (key, m) for m, key in first_key.items() if m not in seen
    ):
        seen.add(m)
        stats = macros[m].stats
        stats.records[mult_op]
        stats.records[add_op]
    for m, mult_parts in macro_mult.items():
        stats = macros[m].stats
        lens = np.array([len(v) for v in mult_parts], dtype=np.intp)
        flat = np.concatenate(mult_parts) if npat > 1 else mult_parts[0]
        record = stats.records[mult_op]
        record.energy_j = _fold(record.energy_j, [gather(flat, lens)])
        add_parts = macro_add[m]
        lens = np.array([len(v) for v in add_parts], dtype=np.intp)
        flat = np.concatenate(add_parts) if npat > 1 else add_parts[0]
        record = stats.records[add_op]
        record.energy_j = _fold(record.energy_j, [gather(flat, lens)])
    # --- integer counters (order-free: batch by signature occurrence) --- #
    sig_counts: Dict[int, List] = {}
    for i, p in enumerate(patterns):
        c = int(pattern_counts[i])
        for s in p:
            item = sig_counts.get(id(s))
            if item is None:
                sig_counts[id(s)] = [s, c]
            else:
                item[1] += c
    acc = engine._macro_cycle_acc
    counters = engine.counters
    cache = engine.cache
    entries = cache._entries
    for s, count in sig_counts.values():
        for m, d in s.per_macro.items():
            stats = macros[m].stats
            record = stats.records[mult_op]
            record.invocations += d[2] * count
            record.words += d[3] * count
            record.cycles += d[4] * count
            record = stats.records[add_op]
            record.invocations += d[3] * count
            record.words += d[3] * count
            record.cycles += d[5] * count
            macros[m].array.access_count += d[6] * count
            acc[m] += d[7] * count
        counters.mac_count += s.mac_count * count
        counters.matmul_calls += s.n_layers * count
        cache.hits += s.n_layers * count
        for layer_id in s.layer_ids:
            entries[layer_id].hits += count
    for m in first_key:
        macros[m].stats.array_accesses = macros[m].array.access_count
    # --- LRU order: untouched entries keep their order, touched entries
    # move to the end in last-touch order (== replaying every lookup).
    # The global tick order is dispatch-major / in-pattern-minor, so a
    # layer's last touch is the max (last dispatch of a containing
    # pattern, position within that pattern) pair. ---------------------- #
    last_key: Dict[str, tuple] = {}
    for i, p in enumerate(patterns):
        ld = int(last_disp[i])
        pos = 0
        for s in p:
            for layer_id in s.layer_ids:
                key = (ld, pos)
                cur = last_key.get(layer_id)
                if cur is None or key > cur:
                    last_key[layer_id] = key
                pos += 1
    for layer_id, _ in sorted(last_key.items(), key=lambda kv: kv[1]):
        entries.move_to_end(layer_id)
    # --- per-dispatch energies -> deferred telemetry rows --------------- #
    # Per dispatch the object path folds its slice deltas left to right
    # from 0.0; replicate element-wise, one vector op per slice position.
    denergy = np.zeros(ndisp, dtype=np.float64)
    starts_s = np.cumsum(slices_per_disp) - slices_per_disp
    for step in range(int(slices_per_disp.max(initial=0))):
        mask = slices_per_disp > step
        denergy[mask] = denergy[mask] + slice_deltas[starts_s[mask] + step]
    row_indexes = buf.row_indexes
    if row_indexes:
        shares = denergy[np.asarray(buf.ordinals, dtype=np.intp)]
        telemetry.set_energy_batch(row_indexes, shares.tolist())
        node_tel = node.telemetry
        node_tel.energy_j = _fold(node_tel.energy_j, [shares])
    buf.reset()


class _NodeCache:
    """Per-node derived state, validated on access against the live node.

    ``engine``/``ptiles`` detect any (re-)programming or retune — evictions
    only happen inside inserts, so ``programmed_tiles`` versions the whole
    weight-cache content; ``degrade`` keys the estimate cache the same way
    the node's own estimate memo does.
    """

    __slots__ = (
        "engine", "ptiles", "degrade", "hazard", "cycle_time",
        "estimates", "fast_ok", "ssigs", "dsigs", "turbo",
    )


class EventKernel:
    """Turbo chunk replay and deferred charges for ``kernel="columnar"``.

    Every request that does not run in a turbo chunk takes the
    :class:`~repro.cluster.router.ClusterRouter`'s own per-request loop;
    the kernel reads and writes that router's clock, completion, request-id
    and counter state directly, so both paths share one virtual timeline.
    Turbo chunks buffer each node's engine charges as slice signatures,
    applied by :meth:`flush_node` before the router next executes on the
    node, before it is retuned, and before any router-level read.
    """

    def __init__(self, router) -> None:
        self.router = router
        self._ncache: Dict[str, _NodeCache] = {}
        self._buffers: Dict[str, _ChargeBuffer] = {}
        router.telemetry._flush_hook = self.flush_all
        for node in router.nodes:
            node._pre_mutate_hooks.append(
                lambda node_id=node.node_id: self.flush_node(node_id)
            )

    # ------------------------------------------------------------------ #
    # Deferred-state maintenance
    # ------------------------------------------------------------------ #
    def flush_node(self, node_id: str) -> None:
        """Apply one node's buffered charge sequence to its real ledgers."""
        buf = self._buffers.get(node_id)
        if buf is not None and buf.dispatches:
            router = self.router
            _flush_buffer(router._by_id[node_id], buf, router.telemetry)

    def flush_all(self) -> None:
        """Apply every node's buffered charges (router-level reads)."""
        for node in self.router.nodes:
            self.flush_node(node.node_id)

    def _node_cache(self, node: ClusterNode) -> _NodeCache:
        nc = self._ncache.get(node.node_id)
        engine = node.engine
        ptiles = engine.counters.programmed_tiles
        if nc is None or nc.engine is not engine or nc.ptiles != ptiles:
            if nc is None:
                nc = _NodeCache()
                nc.hazard = node.hazard
                self._ncache[node.node_id] = nc
            nc.engine = engine
            nc.ptiles = ptiles
            nc.degrade = node.degrade_factor
            nc.cycle_time = engine.chip.cycle_time_s()
            nc.estimates = {}
            nc.fast_ok = {}
            nc.ssigs = {}
            nc.dsigs = {}
            nc.turbo = {}
        elif nc.degrade != node.degrade_factor:
            nc.degrade = node.degrade_factor
            nc.estimates = {}
            nc.turbo = {}
        return nc

    def _fast_ok(self, node: ClusterNode, nc: _NodeCache, model_id: str) -> bool:
        ok = nc.fast_ok.get(model_id)
        if ok is None:
            ok = node.holds_model(model_id)
            nc.fast_ok[model_id] = ok
        return ok

    def _build_dsig(
        self, node: ClusterNode, nc: _NodeCache, model_id: str,
        shape_tail: tuple, total: int,
    ) -> _DispatchSig:
        step = node.max_batch_size
        slices: List[_SliceSig] = []
        start = 0
        while start < total:
            size = min(step, total - start)
            skey = (model_id, shape_tail, size)
            ssig = nc.ssigs.get(skey)
            if ssig is None:
                ssig = _SliceSig(node, model_id, shape_tail, size)
                nc.ssigs[skey] = ssig
            slices.append(ssig)
            start += size
        return _DispatchSig(slices, nc.cycle_time)

    def submit(self, model_id: str, images: np.ndarray, **kwargs) -> int:
        """Admit one request of a fallback (non-turbo) chunk.

        The router's own :meth:`~repro.cluster.router.ClusterRouter.submit`;
        kept as the kernel's entry so fallback admissions are countable.
        """
        return self.router.submit(model_id, images, **kwargs)

    # ------------------------------------------------------------------ #
    # Batch trace replay (the turbo path)
    # ------------------------------------------------------------------ #
    def replay_trace(
        self, trace, image_pool, drain_every: int = 64, autoscaler=None
    ) -> Dict[str, float]:
        """Stream a workload trace through the router in arrival order.

        Observable behaviour is identical to
        :func:`repro.cluster.workload.replay` over the router — same
        round-robin pool slots, same admission order, same drain cadence,
        same autoscaler observation points — but each ``drain_every`` chunk
        whose steady-state preconditions hold (stock scheduler, no
        coalescing, ``retain_results=False``, every chunk model warm and
        resident on every active node, all pool digests memoised, no fault
        due inside the chunk's horizon, no autoscaler) runs as a turbo
        chunk: array-backed reservation and completion chains, one
        telemetry append and one memo/ledger write-back per chunk instead
        of per request.  Chunks that fail a precondition take the router's
        per-request submit/drain loop, so mixing chunks preserves
        bit-exactness.
        """
        import time

        check_positive("drain_every", drain_every)
        from repro.cluster.workload import SLA_ORDER

        arr = trace.arrivals_s.tolist()
        cnt = trace.image_counts.tolist()
        mi = trace.model_indices.tolist()
        si = trace.sla_indices.tolist()
        deadlines = trace.deadlines_s
        dl = [
            None if nan else value
            for value, nan in zip(
                deadlines.tolist(), np.isnan(deadlines).tolist()
            )
        ]
        model_ids = trace.model_ids
        slot_cursor: Dict[Tuple[str, int], int] = {}
        requests = len(arr)
        router = self.router
        completed_before = router._completed_count
        turbo_ok = autoscaler is None
        start_wall = time.perf_counter()
        pos = 0
        while pos < requests:
            end = pos + drain_every
            if end > requests:
                end = requests
            ctx = (
                self._turbo_context(arr, cnt, mi, pos, end, model_ids,
                                    image_pool, slot_cursor)
                if turbo_ok
                else None
            )
            if ctx is not None:
                self._turbo_chunk(ctx, arr, si, dl, pos, end, slot_cursor)
            else:
                for i in range(pos, end):
                    model_id = model_ids[mi[i]]
                    ck = (model_id, cnt[i])
                    slots = image_pool[ck]
                    cursor = slot_cursor.get(ck, 0)
                    digest, images = slots[cursor]
                    slot_cursor[ck] = (cursor + 1) % len(slots)
                    self.submit(
                        model_id,
                        images,
                        sla=SLA_ORDER[si[i]],
                        deadline_s=dl[i],
                        arrival_s=arr[i],
                        input_digest=digest,
                    )
                if end - pos == drain_every:
                    # Observe *before* draining, exactly like replay().
                    if autoscaler is not None:
                        autoscaler.observe()
                    router.drain()
                    router.telemetry.maybe_fold()
            pos = end
        if autoscaler is not None:
            autoscaler.observe()
        router.drain()
        wall_s = time.perf_counter() - start_wall
        completed = router._completed_count - completed_before
        images_total = float(trace.total_images)
        return {
            "requests": float(requests),
            "completed": float(completed),
            "images": images_total,
            "wall_s": wall_s,
            "requests_per_s": requests / wall_s if wall_s > 0 else 0.0,
            "images_per_s": images_total / wall_s if wall_s > 0 else 0.0,
        }

    def _turbo_node_entry(self, node, nc, model_id, count, slots):
        """Admission/dispatch constants of one (node, model, count), or
        ``False`` when that combination cannot take the turbo path (not
        resident, not warm, or pool slots the generic path must validate).
        Cached on the node cache: any retune/programming rebuilds it."""
        shape = slots[0][1].shape
        for digest, images in slots:
            if (
                digest is None
                or images.ndim != 4
                or images.shape != shape
                or images.dtype != np.float64
            ):
                return False
        if shape[0] != count or count == 0:
            return False
        if not self._fast_ok(node, nc, model_id):
            return False
        ekey = (model_id, shape)
        est = nc.estimates.get(ekey)
        if est is None:
            est = node.estimate_request(model_id, slots[0][1])
            nc.estimates[ekey] = est
        if not est.resident:
            return False
        dkey = (model_id, shape[1:], count)
        dsig = nc.dsigs.get(dkey)
        if dsig is None:
            dsig = self._build_dsig(node, nc, model_id, dkey[1], count)
            nc.dsigs[dkey] = dsig
        return (
            est.latency_s,
            est.energy_j,
            est.energy_per_image_j,
            dsig.compute_s(node.degrade_factor),
            dsig.slices,
            dsig.batches,
        )

    def _turbo_context(
        self, arr, cnt, mi, pos, end, model_ids, image_pool, slot_cursor
    ):
        """Validate one chunk's turbo preconditions; returns the prepared
        per-chunk context, or ``None`` to take the per-request loop."""
        router = self.router
        if (
            router.retain_results
            or type(router.scheduler) is not SLAScheduler
            or router.coalesce
            or router.scheduler.coalesce_affinity
            or type(router.telemetry) is not ClusterTelemetry
        ):
            return None
        if router._stranded or router._queued_requests or arr[pos] < 0:
            return None
        router._sync_states()
        if router._queued_requests:
            return None
        active = [n for n in router.nodes if n.state is NodeState.ACTIVE]
        if not active:
            return None
        ncs = []
        for node in active:
            if node.execution_mode is not ExecutionMode.ANALYTIC:
                return None
            ncs.append(self._node_cache(node))
        hw = router.scheduler.hazard_weight
        risk = [1.0 + hw * nc.hazard for nc in ncs]
        hazard = [nc.hazard for nc in ncs]
        node_ids = [n.node_id for n in active]
        combos: Dict[tuple, list] = {}
        for i in range(pos, end):
            combos.setdefault((mi[i], cnt[i]), None)
        max_step = 0.0
        key_table: List[tuple] = []
        for mindex, count in combos:
            model_id = model_ids[mindex]
            ck = (model_id, count)
            slots = image_pool.get(ck)
            if slots is None:
                return None
            lat, energy, tkey0 = [], [], []
            compute, slices, batches = [], [], []
            for j, node in enumerate(active):
                nc = ncs[j]
                ent = nc.turbo.get(ck)
                if ent is None:
                    ent = self._turbo_node_entry(node, nc, model_id, count,
                                                 slots)
                    nc.turbo[ck] = ent
                if ent is False:
                    return None
                lat.append(ent[0])
                energy.append(ent[1])
                tkey0.append(ent[2] * risk[j])
                compute.append(ent[3])
                slices.append(ent[4])
                batches.append(ent[5])
                if ent[0] > max_step:
                    max_step = ent[0]
                if ent[3] > max_step:
                    max_step = ent[3]
            keys = [(model_id, digest) for digest, _ in slots]
            for node in active:
                entries = node.forward_memo._entries
                for key in keys:
                    if key not in entries:
                        return None
            # A strictly unique minimum of the primary throughput key picks
            # the same node regardless of finish-time tie-breaks.
            low = min(tkey0)
            static_t = -1
            if sum(1 for v in tkey0 if v == low) == 1:
                static_t = tkey0.index(low)
            key_base = len(key_table)
            key_table.extend(keys)
            combos[(mindex, count)] = [
                model_id, ck, lat, energy, tkey0, static_t, compute,
                slices, batches, keys, slots, len(slots),
                slot_cursor.get(ck, 0), key_base, count,
            ]
        if router._fault_cursor < len(router._fault_events):
            # Conservative horizon: the chunk's virtual time cannot pass
            # base + chunk_len * max_step, so a fault strictly beyond it
            # can never become due inside the chunk (on either path).
            base = arr[end - 1]
            if router.clock_s > base:
                base = router.clock_s
            for value in router._completed_s.values():
                if value > base:
                    base = value
            bound = base + (end - pos) * max_step
            if router._fault_events[router._fault_cursor].at_s <= bound:
                return None
        # One combo reference per request: an int-keyed lookup when the
        # chunk is single-model (the common replay shape), the full
        # (model, count) key otherwise.
        if len({key[0] for key in combos}) == 1:
            by_count = {key[1]: value for key, value in combos.items()}
            creq = [by_count[c] for c in cnt[pos:end]]
        else:
            creq = [combos[(m, c)] for m, c in zip(mi[pos:end], cnt[pos:end])]
        return (active, node_ids, combos, creq, risk, hazard, key_table)

    def _turbo_chunk(self, ctx, arr, si, dl, pos, end, slot_cursor):
        """One chunk of batch admission + per-node dispatch passes.

        Replicates the router's ``SLAScheduler.choose`` -> ``_enqueue`` ->
        ``_select_head`` -> ``node.execute`` value- and order-identically
        for the steady state the context validated.  Admission walks the
        chunk once with the same ranking keys, float op order and
        first-minimum tie-breaks as ``SLAScheduler.choose``.  Dispatch
        then runs one tight FIFO pass per node — each node's start/finish
        chain depends only on its own queue, not on the cross-node
        interleave — and recovers the heap's exact
        merged order, min ``(max(completed, arrival), node_id)``, with a
        stable lexsort over the per-node start times.  Telemetry rows,
        charge-buffer events, memo counters/LRU order and node aggregates
        are written back once per chunk.
        """
        active, node_ids, combos, creq, risk, hazard, key_table = ctx
        router = self.router
        nn = len(active)
        avail = [node.available_s for node in active]
        completed = router._completed_s
        comp = [completed[nid] for nid in node_ids]
        pend: List[list] = [[] for _ in range(nn)]
        appends = [p.append for p in pend]
        rid = router._next_request_id
        bk0 = bk1 = bk2 = bfin = None
        # --- admission: the scheduler's ranking over the chunk's table --- #
        for a, s, d, combo in zip(arr[pos:end], si[pos:end], dl[pos:end],
                                  creq):
            if s == 1:  # THROUGHPUT
                sj = combo[5]
                if sj >= 0:
                    bj = sj
                    av = avail[bj]
                    bfin = (av if av > a else a) + combo[2][bj]
                else:
                    lat = combo[2]
                    tkey0 = combo[4]
                    bj = -1
                    for j in range(nn):
                        k0 = tkey0[j]
                        av = avail[j]
                        fin_j = (av if av > a else a) + lat[j]
                        if bj < 0 or k0 < bk0:
                            take = True
                        elif k0 == bk0:
                            take = fin_j < bk1 or (
                                fin_j == bk1 and node_ids[j] < bk2
                            )
                        else:
                            take = False
                        if take:
                            bj, bk0, bk1, bk2 = j, k0, fin_j, node_ids[j]
                            bfin = fin_j
                feas = True
            elif s == 0:  # LATENCY
                if d is None or d <= 0:
                    raise ConfigurationError(
                        "latency-class requests need a positive deadline_s"
                    )
                lat = combo[2]
                any_f = False
                bj = -1
                for j in range(nn):
                    av = avail[j]
                    fin_j = (av if av > a else a) + lat[j]
                    lat_j = fin_j - a
                    feasible = lat_j <= d
                    if feasible and not any_f:
                        any_f = True
                        bj = -1
                    if any_f and not feasible:
                        continue
                    k0 = lat_j * risk[j]
                    if bj < 0 or k0 < bk0:
                        take = True
                    elif k0 == bk0:
                        e_j = combo[3][j]
                        take = e_j < bk1 or (
                            e_j == bk1 and node_ids[j] < bk2
                        )
                    else:
                        take = False
                    if take:
                        bj, bk0, bk1, bk2 = j, k0, combo[3][j], node_ids[j]
                        bfin = fin_j
                feas = any_f
            else:  # BEST_EFFORT
                lat = combo[2]
                bj = -1
                for j in range(nn):
                    av = avail[j]
                    st = av if av > a else a
                    k0 = (st - a) * risk[j]
                    if bj < 0 or k0 < bk0:
                        take = True
                    elif k0 == bk0:
                        h_j = hazard[j]
                        take = h_j < bk1 or (
                            h_j == bk1 and node_ids[j] < bk2
                        )
                    else:
                        take = False
                    if take:
                        bj, bk0, bk1, bk2 = j, k0, hazard[j], node_ids[j]
                        bfin = st + lat[j]
                feas = True
            avail[bj] = bfin
            cur = combo[12]
            combo[12] = 0 if cur + 1 == combo[11] else cur + 1
            appends[bj]((rid, a, d, feas, s, cur, combo))
            rid += 1
        for combo in combos.values():
            slot_cursor[combo[1]] = combo[12]
        # --- dispatch: one FIFO pass per node --------------------------- #
        telemetry = router.telemetry
        buffers = self._buffers
        n = end - pos
        sla_values = _SLA_VALUES
        mxfin = router.clock_s
        rank = sorted(range(nn), key=node_ids.__getitem__)
        order_of = [0] * nn
        for r, j in enumerate(rank):
            order_of[j] = r
        st_arr = np.empty(n)
        rk_arr = np.empty(n, dtype=np.intp)
        rows_cat: List[tuple] = []
        ids_cat: List[int] = []
        offsets = [0] * nn
        ord0s = [0] * nn
        filled = 0
        for j in range(nn):
            pj = pend[j]
            offsets[j] = filled
            if not pj:
                continue  # untouched node: leave its reservation alone
            node = active[j]
            buf = buffers.get(node.node_id)
            if buf is None:
                buf = _ChargeBuffer(node.engine)
                buffers[node.node_id] = buf
            elif not buf.dispatches and buf.engine is not node.engine:
                buf.engine = node.engine
                buf.macros_seen.clear()
            ord0s[j] = len(buf.dispatches)
            dapp = buf.dispatches.append
            ntel = node.telemetry
            comp_j = comp[j]
            busy_j = ntel.busy_s
            ewma_j = ntel.ewma_image_latency_s
            alpha_j = ntel.ewma_alpha
            first = ntel.dispatches == 0
            imgs_j = 0
            miss_j = 0
            sce_j = node.spot_check_every
            hs_j = node._memo_hits_since_check
            spots_j = 0
            memo = node.forward_memo
            nid = node_ids[j]
            sts_j: List[float] = []
            sapp = sts_j.append
            rapp = rows_cat.append
            iapp = ids_cat.append
            for e_rid, a, d, feas, s, slot, combo in pj:
                st = comp_j if comp_j > a else a
                compute_s = combo[6][j]
                fin = st + compute_s
                comp_j = fin
                dapp(combo[7][j])
                iapp(combo[13] + slot)
                spot = False
                if sce_j:
                    hs_j += 1
                    if hs_j >= sce_j:
                        hs_j = 0
                        spots_j += 1
                        key = combo[9][slot]
                        fresh = node._plain_forward(
                            combo[0], combo[10][slot][1]
                        )
                        if not np.array_equal(fresh, memo._entries[key]):
                            raise ConfigurationError(
                                f"analytic spot check failed on node "
                                f"{node.node_id!r} for model {combo[0]!r}: "
                                "memoised predictions diverge from a fresh "
                                "forward (input digests must uniquely "
                                "identify request images)"
                            )
                        spot = True
                count = combo[14]
                missed = d is not None and (fin - a) > d
                if missed:
                    miss_j += 1
                rapp((
                    e_rid, combo[0], nid, sla_values[s], count, a, st,
                    fin, compute_s, d, missed, True, False, feas,
                    "analytic", 1, spot, False,
                ))
                sapp(st)
                imgs_j += count
                busy_j += compute_s
                sample = compute_s / count
                if first:
                    ewma_j = sample
                    first = False
                else:
                    ewma_j = ewma_j + alpha_j * (sample - ewma_j)
            k = len(pj)
            st_arr[filled:filled + k] = sts_j
            rk_arr[filled:filled + k] = order_of[j]
            filled += k
            comp[j] = comp_j
            if comp_j > mxfin:
                mxfin = comp_j
            node.available_s = comp_j
            completed[nid] = comp_j
            ntel.dispatches += k
            ntel.images += imgs_j
            ntel.busy_s = busy_j
            ntel.deadline_misses += miss_j
            ntel.affinity_hits += k
            ntel.ewma_image_latency_s = ewma_j
            node._memo_hits_since_check = hs_j
            node.spot_checks += spots_j
        # --- merged order + chunk-boundary write-backs ------------------ #
        # Stable sort by (start, node rank) == the heap's pick order:
        # per-node starts are nondecreasing, so this *is* the k-way merge.
        order = np.lexsort((rk_arr, st_arr))
        rows = [rows_cat[k] for k in order.tolist()]
        base = telemetry.record_rows_batch(rows)
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n, dtype=np.intp)
        for j in range(nn):
            pj = pend[j]
            if not pj:
                continue
            ofs = offsets[j]
            k = len(pj)
            buf2 = buffers[node_ids[j]]
            buf2.row_indexes.extend((inv[ofs:ofs + k] + base).tolist())
            buf2.ordinals.extend(range(ord0s[j], ord0s[j] + k))
        # Memo hit counters and LRU order: one pass per distinct memo,
        # touching each *key* once (in last-touch order) instead of once
        # per dispatch.
        groups: Dict[int, list] = {}
        for j in range(nn):
            if pend[j]:
                groups.setdefault(
                    id(active[j].forward_memo), []
                ).append(j)
        ids_arr = np.asarray(ids_cat, dtype=np.intp)
        for members in groups.values():
            memo = active[members[0]].forward_memo
            memo.hits += sum(len(pend[j]) for j in members)
            last = np.full(len(key_table), -1, dtype=np.intp)
            if len(members) == 1:
                j = members[0]
                ofs = offsets[j]
                sl = slice(ofs, ofs + len(pend[j]))
                # Within one node positions are already ascending, so the
                # final assignment per key id is its last touch.
                last[ids_arr[sl]] = inv[sl]
            else:
                ids_g = np.concatenate(
                    [ids_arr[offsets[j]:offsets[j] + len(pend[j])]
                     for j in members]
                )
                pos_g = np.concatenate(
                    [inv[offsets[j]:offsets[j] + len(pend[j])]
                     for j in members]
                )
                srt = np.argsort(pos_g, kind="stable")
                last[ids_g[srt]] = pos_g[srt]
            touched = np.nonzero(last >= 0)[0]
            move = memo._entries.move_to_end
            ordered = touched[np.argsort(last[touched], kind="stable")]
            for kid in ordered.tolist():
                move(key_table[kid])
        last_arrival = arr[end - 1]
        router.clock_s = mxfin if mxfin > last_arrival else last_arrival
        router._completed_count += n
        router._next_request_id = rid
        telemetry.maybe_fold()

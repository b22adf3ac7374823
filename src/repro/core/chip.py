"""Sharded multi-macro execution engine (the chip level).

A production-scale bit-line-compute SRAM system composes many identically
configured macros behind one controller: each macro keeps its own column
periphery, so every macro can execute a full vector operation per
(multi-)cycle and an arbitrarily long workload is *sharded* across the
macros.  :class:`IMCChip` is that seam:

* it owns N :class:`repro.core.macro.IMCMacro` instances,
* splits arbitrarily long operand vectors into lane-batch-granular shards,
* dispatches every shard to its macro through the vectorized column-parallel
  execution path (:meth:`IMCMacro.elementwise_array`), and
* merges per-macro results and statistics ledgers into one chip-level
  accounting.

The chip deliberately mirrors the macro's vector-engine interface
(``elementwise`` / ``compute`` / ``stats`` / ``cycle_time_s`` / precision
management), so higher layers — :class:`repro.core.kernels.VectorKernels`,
:class:`repro.dnn.imc_backend.IMCMatmulBackend`, the experiment drivers —
accept either interchangeably.  With ``num_macros=1`` the chip degenerates
to exactly the single-macro behaviour: identical results *and* identical
statistics, which is what ``tests/test_chip.py`` pins down.

Two cycle notions coexist at the chip level:

* ``stats.total_cycles`` — the *sum* of cycles across macros (work done,
  the basis of energy and cycles/op accounting), and
* the *critical path* of a dispatch — the cycle count of the busiest macro,
  which is what wall-clock latency follows because shards execute in
  parallel.  :meth:`run_elementwise` reports both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MacroConfig
from repro.core.macro import IMCMacro
from repro.core.operations import Opcode
from repro.core.stats import MacroStatistics
from repro.errors import AddressError, OperandError
from repro.utils.validation import as_int_vector, check_positive

__all__ = ["ChipDispatchResult", "IMCChip"]


@dataclass(frozen=True)
class ChipDispatchResult:
    """Outcome of one sharded element-wise dispatch.

    ``critical_path_cycles`` is the cycle count of the busiest macro (shards
    run in parallel); ``total_cycles`` sums the work of every macro and is
    what the merged statistics ledger records.
    """

    opcode: Opcode
    precision_bits: int
    elements: int
    shard_sizes: Tuple[int, ...]
    values: np.ndarray
    total_cycles: int
    critical_path_cycles: int
    energy_j: float
    latency_s: float

    @property
    def parallel_speedup(self) -> float:
        """Work cycles over critical-path cycles (ideal = number of shards)."""
        if self.critical_path_cycles == 0:
            return 1.0
        return self.total_cycles / self.critical_path_cycles


class IMCChip:
    """N sharded IMC macros behind one controller."""

    def __init__(
        self,
        num_macros: int = 1,
        config: Optional[MacroConfig] = None,
        bin: Optional[object] = None,
    ) -> None:
        check_positive("num_macros", num_macros)
        self.config = config if config is not None else MacroConfig()
        # A variation bin (repro.reliability.ChipBin, duck-typed so the
        # core stays free of upward imports) derates the calibrated
        # constants before any model is built: this chip is one specific
        # die, not the nominal corner.
        self.bin = bin
        if bin is not None:
            self.config = bin.apply_to_config(self.config)
        self.num_macros = num_macros
        # Each shard gets its own RNG seed so stochastic behaviour (read
        # disturb injection) is decorrelated across macros; shard 0 keeps
        # the base seed, preserving the N=1 degenerate case exactly.
        self.macros: List[IMCMacro] = [
            IMCMacro(replace(self.config, seed=self.config.seed + index))
            for index in range(num_macros)
        ]
        # The delay model re-derives the frequency on every query (~10 us);
        # the operating point is fixed per chip, so cycle times are pure
        # functions of the precision and safe to memoise.  Serving charges
        # one cycle-time read per batch and the analytic cluster path one
        # per dispatch, which makes this cache a hot-path requirement.
        self._cycle_time_cache: dict = {}

    # ------------------------------------------------------------------ #
    # Macro access / delegated geometry
    # ------------------------------------------------------------------ #
    def macro(self, index: int) -> IMCMacro:
        """Access one macro shard."""
        if not 0 <= index < self.num_macros:
            raise AddressError(f"macro index {index} outside [0, {self.num_macros})")
        return self.macros[index]

    @property
    def _lead(self) -> IMCMacro:
        return self.macros[0]

    @property
    def precision_bits(self) -> int:
        """The currently configured operand precision (shared by all macros)."""
        return self._lead.precision_bits

    def set_precision(self, precision_bits: int) -> None:
        """Reconfigure the carry-chain cut of every macro."""
        for macro in self.macros:
            macro.set_precision(precision_bits)
        # The None key resolves against the configured precision.
        self._cycle_time_cache.pop(None, None)

    @property
    def layout(self):
        """Column layout of one macro shard."""
        return self._lead.layout

    @property
    def energy_model(self):
        """Calibrated energy model (shared configuration)."""
        return self._lead.energy_model

    @property
    def operating_point(self):
        """The supply/temperature/corner point every macro runs at.

        Exposed for the cluster layer: a DVFS-aware scheduler reads the
        operating point (and the cycle time / energy it implies) as a
        routing policy input rather than a mere reporting detail.
        """
        return self.config.operating_point

    def at_operating_point(self, point) -> "IMCChip":
        """A fresh chip of the same geometry retuned to another point.

        Array contents and ledgers start empty — retuning a real chip's
        supply rail invalidates its programmed state, so the cluster node
        that calls this must re-program (and re-charge) its weights.  The
        variation bin rides along as already-derated calibration (it is a
        property of the die, not of the operating point), so it is *not*
        re-applied.
        """
        retuned = IMCChip(self.num_macros, self.config.with_operating_point(point))
        retuned.bin = self.bin
        return retuned

    @property
    def capacity_bytes(self) -> int:
        """Total storage capacity across all macro shards."""
        return self.config.capacity_bytes * self.num_macros

    def words_per_row(self, precision_bits: Optional[int] = None) -> int:
        """Chip-level vector width: words per simultaneous row access."""
        return self._lead.words_per_row(precision_bits) * self.num_macros

    def mult_slots_per_row(self, precision_bits: Optional[int] = None) -> int:
        """Chip-level multiplication width across all macro shards."""
        return self._lead.mult_slots_per_row(precision_bits) * self.num_macros

    def lane_count(self, opcode: Opcode, precision_bits: Optional[int] = None) -> int:
        """Chip-level lanes of one parallel dispatch round."""
        return self._lead.lane_count(opcode, precision_bits) * self.num_macros

    def cycle_time_s(self, precision_bits: Optional[int] = None) -> float:
        """Minimum cycle time at the configured operating point (memoised)."""
        cached = self._cycle_time_cache.get(precision_bits)
        if cached is None:
            cached = self._lead.cycle_time_s(precision_bits)
            self._cycle_time_cache[precision_bits] = cached
        return cached

    def max_frequency_hz(self, precision_bits: Optional[int] = None) -> float:
        """Maximum clock frequency at the configured operating point."""
        return self._lead.max_frequency_hz(precision_bits)

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #
    def shard_slices(
        self, elements: int, opcode: Opcode, precision_bits: Optional[int] = None
    ) -> List[List[Tuple[int, int]]]:
        """Per-macro lists of (start, stop) input ranges.

        Work is cut into lane batches (one batch = one row access of one
        macro) and batches are dealt round-robin across the macros, so a
        ragged tail lands on the macro after the last full batch and the
        ``num_macros=1`` case reproduces the single-macro chunk order
        exactly.  :meth:`run_elementwise` deals the same batches with one
        permutation; this list form is the readable spec.
        """
        lanes = self._lead.lane_count(opcode, precision_bits)
        assignments: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_macros)]
        for batch, start in enumerate(range(0, elements, lanes)):
            stop = min(start + lanes, elements)
            assignments[batch % self.num_macros].append((start, stop))
        return assignments

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_elementwise(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> ChipDispatchResult:
        """Shard one element-wise operation across the macros.

        Returns the merged results in input order plus the dispatch-level
        accounting (total work cycles, critical-path cycles of the busiest
        macro, energy, and the wall-clock latency the critical path implies).

        The round-robin deal of :meth:`shard_slices` is applied as one
        stable permutation: sorting element indices by owning macro puts
        each macro's batches, in batch order, into one contiguous slice, so
        every macro is called once, in macro index order, and re-chunks its
        slice into exactly the row accesses the spec assigns it.
        """
        bits = self._lead._resolve_precision(precision_bits)
        if opcode.is_dual_wordline and b_values is None:
            raise OperandError(f"{opcode.name} needs two operand vectors")
        a = as_int_vector("a_values", a_values)
        b = as_int_vector("b_values", b_values) if b_values is not None else None
        if b is not None and b.size != a.size:
            raise OperandError("operand vectors must have the same length")
        elements = int(a.size)

        lanes = self._lead.lane_count(opcode, bits)
        owner = (np.arange(elements) // lanes) % self.num_macros
        order = np.argsort(owner, kind="stable")
        shard_sizes = np.bincount(owner, minlength=self.num_macros).tolist()
        a = a[order]
        b = b[order] if b is not None else None

        cycles_before = [macro.stats.total_cycles for macro in self.macros]
        energy_before = [macro.stats.total_energy_j for macro in self.macros]

        shards: List[np.ndarray] = []
        start = 0
        for macro, size in zip(self.macros, shard_sizes):
            if size == 0:
                continue
            stop = start + size
            # elementwise_array routes disturb-injecting configurations to
            # the per-lane reference path internally.
            shards.append(
                macro.elementwise_array(
                    opcode,
                    a[start:stop],
                    b[start:stop] if b is not None else None,
                    precision_bits=bits,
                )
            )
            start = stop

        if shards:
            values = np.empty(elements, dtype=shards[0].dtype)
            values[order] = np.concatenate(shards)
        else:
            values = np.zeros(0, dtype=np.int64)

        per_macro_cycles = [
            macro.stats.total_cycles - before
            for macro, before in zip(self.macros, cycles_before)
        ]
        total_cycles = int(sum(per_macro_cycles))
        critical = int(max(per_macro_cycles, default=0))
        energy = float(
            sum(
                macro.stats.total_energy_j - before
                for macro, before in zip(self.macros, energy_before)
            )
        )
        return ChipDispatchResult(
            opcode=opcode,
            precision_bits=bits,
            elements=elements,
            shard_sizes=tuple(shard_sizes),
            values=values,
            total_cycles=total_cycles,
            critical_path_cycles=critical,
            energy_j=energy,
            latency_s=critical * self.cycle_time_s(bits),
        )

    def elementwise_array(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> np.ndarray:
        """Sharded element-wise operation returning a numpy array."""
        return self.run_elementwise(opcode, a_values, b_values, precision_bits).values

    def elementwise(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> List[int]:
        """Sharded element-wise operation (macro-compatible list interface)."""
        return self.elementwise_array(opcode, a_values, b_values, precision_bits).tolist()

    def compute(
        self,
        opcode: Opcode,
        a: int,
        b: Optional[int] = None,
        precision_bits: Optional[int] = None,
    ) -> int:
        """Scalar operation (runs on the lead macro)."""
        return self._lead.compute(opcode, a, b, precision_bits)

    def reduce_add(self, values: Sequence[int], accumulator_bits: int) -> int:
        """Serial accumulation through the lead macro's accumulator.

        A reduction is a serial dependence chain through one accumulator, so
        it does not shard; the lead macro performs (and accounts) it.
        """
        return self._lead.reduce_add(values, accumulator_bits)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> MacroStatistics:
        """Merged chip-level statistics ledger (sum over all macros)."""
        merged = MacroStatistics()
        for macro in self.macros:
            merged.merge(macro.stats)
        return merged

    def statistics(self) -> MacroStatistics:
        """Alias of :attr:`stats` matching the bank-layer interface."""
        return self.stats

    def per_macro_statistics(self) -> List[MacroStatistics]:
        """The individual per-macro ledgers (for shard-balance inspection)."""
        return [macro.stats for macro in self.macros]

    def reset_stats(self) -> None:
        """Clear every macro's ledger."""
        for macro in self.macros:
            macro.reset_stats()

    def clear(self) -> None:
        """Erase the array contents of every macro (statistics are kept)."""
        for macro in self.macros:
            macro.clear()

    def geometry_summary(self) -> Tuple[int, int, int]:
        """(macros, rows x cols per macro, bytes per macro)."""
        return self.num_macros, self.config.rows * self.config.cols, self.config.capacity_bytes

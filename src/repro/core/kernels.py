"""Vector kernels built on top of the IMC macro.

The macro's native interface works on unsigned words in rows.  Real
applications (the paper's motivation: deep learning and streaming signal
processing) need a slightly higher-level vocabulary:

* element-wise operations on arbitrarily long **signed** vectors,
* multiply-accumulate style kernels (dot product, matrix-vector product,
  FIR filter), and
* reductions.

:class:`VectorKernels` provides exactly that, keeps the two's-complement /
sign-magnitude bookkeeping in one place, and accounts every in-memory
operation through the macro's statistics ledger so callers get honest
cycle/energy numbers for whole kernels.

Signed handling
---------------
Additions and subtractions use the macro's native modular arithmetic (two's
complement wraps around for free).  Multiplications run on magnitudes — the
macro's MULT produces the full 2N-bit unsigned product — and the sign is
re-applied by the near-memory logic, which is also how the paper's
column-peripheral multiplier would be used for signed operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.macro import IMCMacro
from repro.core.operations import Opcode
from repro.errors import OperandError, PrecisionError
from repro.utils.validation import as_int_vector

__all__ = ["KernelResult", "VectorKernels"]


@dataclass(frozen=True)
class KernelResult:
    """Result of a kernel plus the in-memory cost of producing it."""

    values: List[int]
    cycles: int
    energy_j: float
    operations: int

    @property
    def value(self) -> int:
        """First (or only) result value."""
        return self.values[0]

    @property
    def energy_per_result_j(self) -> float:
        """Energy divided by the number of produced results."""
        return self.energy_j / len(self.values) if self.values else 0.0


class VectorKernels:
    """Signed vector kernels executed with in-memory operations.

    ``macro`` may be a single :class:`~repro.core.macro.IMCMacro` or a
    sharded :class:`~repro.core.chip.IMCChip` — both expose the same vector
    engine interface (``elementwise`` / ``reduce_add`` / ``stats`` / layout
    and precision management), so every kernel transparently scales from one
    macro to a multi-macro chip.
    """

    def __init__(self, macro=None, precision_bits: Optional[int] = None) -> None:
        self.macro = macro if macro is not None else IMCMacro()
        self.precision_bits = (
            precision_bits if precision_bits is not None else self.macro.precision_bits
        )
        self.macro.set_precision(self.precision_bits)

    # ------------------------------------------------------------------ #
    # Signed encoding helpers
    # ------------------------------------------------------------------ #
    def _signed_limit(self) -> int:
        return (1 << (self.precision_bits - 1)) - 1

    def _check_signed(self, name: str, values: Sequence[int]) -> np.ndarray:
        array = as_int_vector(name, values)
        limit = self._signed_limit()
        if array.size and (array.min() < -limit - 1 or array.max() > limit):
            raise OperandError(
                f"{name} contains values outside the signed {self.precision_bits}-bit "
                f"range [{-limit - 1}, {limit}]"
            )
        return array

    def _check_pair(self, a: Sequence[int], b: Sequence[int]):
        array_a = self._check_signed("a", a)
        array_b = self._check_signed("b", b)
        if array_a.size != array_b.size:
            raise OperandError("operand vectors must have the same length")
        return array_a, array_b

    def _collect(
        self,
        values: List[int],
        stats_before: Dict[str, float],
        stats_after: Optional[Dict[str, float]] = None,
    ) -> KernelResult:
        summary = stats_after if stats_after is not None else self.macro.stats.summary()
        return KernelResult(
            values=values,
            cycles=int(summary["cycles"] - stats_before["cycles"]),
            energy_j=summary["energy_j"] - stats_before["energy_j"],
            operations=int(summary["operations"] - stats_before["operations"]),
        )

    # ------------------------------------------------------------------ #
    # Element-wise signed kernels
    # ------------------------------------------------------------------ #
    def _modular(self, opcode: Opcode, a: Sequence[int], b: Sequence[int]) -> KernelResult:
        """ADD/SUB on two's-complement bit patterns, decoded back to signed."""
        array_a, array_b = self._check_pair(a, b)
        before = self.macro.stats.summary()
        modulus_mask = (1 << self.precision_bits) - 1
        raw = self.macro.elementwise_array(
            opcode, array_a & modulus_mask, array_b & modulus_mask, self.precision_bits
        )
        half = 1 << (self.precision_bits - 1)
        values = np.where(raw >= half, raw - (half << 1), raw)
        return self._collect(values.tolist(), before)

    def add(self, a: Sequence[int], b: Sequence[int]) -> KernelResult:
        """Element-wise signed addition (wraps on overflow, like the hardware)."""
        return self._modular(Opcode.ADD, a, b)

    def subtract(self, a: Sequence[int], b: Sequence[int]) -> KernelResult:
        """Element-wise signed subtraction."""
        return self._modular(Opcode.SUB, a, b)

    def _products(self, array_a: np.ndarray, array_b: np.ndarray) -> np.ndarray:
        """Signed products: unsigned in-memory MULT of magnitudes, signs re-applied.

        Products wider than int64 (2N > 62 bits) arrive as an object array of
        Python ints, and the sign multiply keeps them exact.
        """
        magnitudes = self.macro.elementwise_array(
            Opcode.MULT, np.abs(array_a), np.abs(array_b), self.precision_bits
        )
        return np.sign(array_a) * np.sign(array_b) * magnitudes

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> KernelResult:
        """Element-wise signed multiplication (full double-width products)."""
        array_a, array_b = self._check_pair(a, b)
        before = self.macro.stats.summary()
        return self._collect(self._products(array_a, array_b).tolist(), before)

    def scale(self, a: Sequence[int], scalar: int) -> KernelResult:
        """Multiply every element by a signed scalar."""
        array_a = self._check_signed("a", a)
        return self.multiply(array_a, [scalar] * array_a.size)

    # ------------------------------------------------------------------ #
    # Reductions and MAC-style kernels
    # ------------------------------------------------------------------ #
    def _accumulator_bits(self) -> int:
        accumulator_bits = 32
        try:
            self.macro.layout.check_precision(accumulator_bits)
        except PrecisionError:
            accumulator_bits = self.precision_bits * 2
        return accumulator_bits

    def _accumulate(self, values: np.ndarray) -> int:
        """Serial reduction of (possibly wide) signed values via in-memory ADDs.

        The accumulator precision is the widest mode the macro supports so
        that dot products of realistic length do not overflow.  The engine's
        ``reduce_add`` models the serial one-ADD-per-element chain with
        batched accounting (and internally routes disturb-injecting
        configurations to the per-step on-array reference execution).
        """
        return self.macro.reduce_add(values, self._accumulator_bits())

    def sum(self, a: Sequence[int]) -> KernelResult:
        """Signed sum of a vector (in-memory accumulation)."""
        array_a = self._check_signed("a", a)
        before = self.macro.stats.summary()
        total = self._accumulate(array_a)
        return self._collect([total], before)

    def dot(self, a: Sequence[int], b: Sequence[int]) -> KernelResult:
        """Signed dot product: element-wise MULT + in-memory accumulation."""
        array_a, array_b = self._check_pair(a, b)
        before = self.macro.stats.summary()
        products = self._products(array_a, array_b)
        middle = self.macro.stats.summary()
        total = self._accumulate(products)
        head = self._collect([total], before, middle)
        tail = self._collect([total], middle)
        # Phase costs are summed (not read as one delta) so the float energy
        # equals the multiply kernel's energy plus the reduction's.
        return KernelResult(
            values=[total],
            cycles=head.cycles + tail.cycles,
            energy_j=head.energy_j + tail.energy_j,
            operations=head.operations + tail.operations,
        )

    def matvec(self, matrix: Sequence[Sequence[int]], vector: Sequence[int]) -> KernelResult:
        """Signed matrix-vector product, one dot product per output row."""
        rows = [list(row) for row in matrix]
        if not rows:
            raise OperandError("matrix must have at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise OperandError("matrix rows must all have the same length")
        if len(vector) != width:
            raise OperandError(
                f"vector length {len(vector)} does not match matrix width {width}"
            )
        values: List[int] = []
        cycles = 0
        energy = 0.0
        operations = 0
        for row in rows:
            result = self.dot(row, vector)
            values.append(result.value)
            cycles += result.cycles
            energy += result.energy_j
            operations += result.operations
        return KernelResult(
            values=values, cycles=cycles, energy_j=energy, operations=operations
        )

    def fir_filter(self, signal: Sequence[int], taps: Sequence[int]) -> KernelResult:
        """FIR filter: output[n] = sum_k taps[k] * signal[n - k].

        The signal is zero-padded at the left, so the output has the same
        length as the input.
        """
        signal_array = self._check_signed("signal", signal)
        taps_array = self._check_signed("taps", taps)
        if taps_array.size == 0:
            raise OperandError("the filter needs at least one tap")
        padded = np.concatenate([np.zeros(taps_array.size - 1, dtype=np.int64), signal_array])
        values: List[int] = []
        cycles = 0
        energy = 0.0
        operations = 0
        for index in range(signal_array.size):
            window = padded[index : index + taps_array.size][::-1]
            result = self.dot(window, taps_array)
            values.append(result.value)
            cycles += result.cycles
            energy += result.energy_j
            operations += result.operations
        return KernelResult(
            values=values, cycles=cycles, energy_j=energy, operations=operations
        )

    # ------------------------------------------------------------------ #
    # Cost reporting
    # ------------------------------------------------------------------ #
    def cost_summary(self) -> Dict[str, float]:
        """The macro's cumulative statistics (all kernels run so far)."""
        summary = self.macro.stats.summary()
        summary["cycle_time_s"] = self.macro.cycle_time_s(self.precision_bits)
        summary["execution_time_s"] = summary["cycles"] * summary["cycle_time_s"]
        return summary

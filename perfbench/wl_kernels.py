"""``paper_kernels``: the paper's own operations on an 8-macro chip.

Signed bit-parallel ``VectorKernels.add``, ``multiply`` and ``dot`` at 4,
8 and 16 bits, sharded across an :class:`~repro.core.chip.IMCChip`.  This
is the only workload that runs ``core.macro``, ``core.chip`` and
``core.kernels``: the serving engine charges tiles analytically and
multiplies with numpy, so without it a macro-level change could move no
metric.

One operation is one kernel call on a seeded operand pair; the nine
(kernel, precision) combinations run round-robin.  Every call's result is
compared with numpy two's-complement arithmetic.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from types import SimpleNamespace

import numpy as np

from common import Window
from spans import patched, summarize

PRECISIONS = (4, 8, 16)
KERNELS = ("add", "multiply", "dot")
NUM_MACROS = 8
#: Operand lengths are drawn per (kernel, precision) from this narrow
#: range: the modeled figures differ from seed to seed while the op mix,
#: and with it the host cost per operation, stays nearly the same.
LENGTH_RANGE = (1008, 1024)
#: Dot operands stay within +-2**(DOT_BITS-1) so a 1024-long sum of
#: products fits the 32-bit in-memory accumulator (an overflow raises).
DOT_BITS = 10


def _wrap_signed(values: np.ndarray, bits: int) -> np.ndarray:
    """Two's-complement wrap of int64 values to ``bits``."""
    half = 1 << (bits - 1)
    return ((values + half) % (half << 1)) - half


def _expected(kernel: str, a: np.ndarray, b: np.ndarray, bits: int) -> list:
    if kernel == "add":
        return _wrap_signed(a + b, bits).tolist()
    if kernel == "multiply":
        return (a * b).tolist()
    return [int(np.dot(a, b))]


class PaperKernels:
    name = "paper_kernels"

    def setup(self, seed: int):
        from repro.core.chip import IMCChip
        from repro.core.kernels import VectorKernels

        rng = np.random.default_rng(seed)
        chip = IMCChip(NUM_MACROS)
        kernels = {bits: VectorKernels(chip, precision_bits=bits) for bits in PRECISIONS}
        ops = []
        for bits in PRECISIONS:
            for kernel in KERNELS:
                length = int(rng.integers(LENGTH_RANGE[0], LENGTH_RANGE[1] + 1))
                limit = 1 << ((min(bits, DOT_BITS) if kernel == "dot" else bits) - 1)
                a = rng.integers(-limit, limit, length)
                b = rng.integers(-limit, limit, length)
                ops.append(
                    (kernel, bits, a.tolist(), b.tolist(), _expected(kernel, a, b, bits))
                )
        state = SimpleNamespace(chip=chip, kernels=kernels, ops=ops, bad=[])
        # One pass over the mix warms every code path and yields the
        # modeled figures: energy per in-memory operation and the critical
        # path (busiest macro) per kernel call.
        energy = operations = modeled_s = 0.0
        for kernel, bits, a, b, expected in ops:
            before = [macro.stats.total_cycles for macro in chip.macros]
            result = getattr(kernels[bits], kernel)(a, b)
            critical = max(
                macro.stats.total_cycles - start
                for macro, start in zip(chip.macros, before)
            )
            modeled_s += critical * chip.cycle_time_s(bits)
            energy += result.energy_j
            operations += result.operations
            if result.values != expected:
                state.bad.append(f"warm-up {kernel}@{bits}")
        state.sim_energy_j = energy / operations
        state.sim_latency_s = modeled_s / len(ops)
        state.calls = 0
        return state

    def close(self, state) -> list:
        return []

    def measure(self, state, seconds: float, host) -> Window:
        window = Window()
        clock = time.perf_counter
        ops = state.ops
        kernels = state.kernels
        cpu_start = time.process_time()
        deadline = clock() + seconds
        while clock() < deadline:
            # One round runs every (kernel, precision) pair once; the
            # median of per-round rates is the throughput.
            host.maybe_sample()
            round_s = round_ops = 0.0
            for kernel, bits, a, b, expected in ops:
                start = clock()
                result = getattr(kernels[bits], kernel)(a, b)
                took = clock() - start
                window.add_latency(took / host.scale)
                round_s += took
                round_ops += result.operations
                state.calls += 1
                if result.values != expected:
                    state.bad.append(f"{kernel}@{bits} call {state.calls}")
            window.rates.append(round_ops / round_s * host.scale)
        window.cpu_s = time.process_time() - cpu_start
        return window

    def instrument(self, state, recorder) -> ExitStack:
        stack = ExitStack()

        def first_len(*args, **kwargs):
            return len(args[0])

        def second_len(*args, **kwargs):
            return len(args[1])

        for vector_kernels in state.kernels.values():
            for kernel in KERNELS:
                stack.enter_context(
                    patched(
                        vector_kernels,
                        kernel,
                        recorder.wrap(
                            getattr(vector_kernels, kernel),
                            f"core.kernels.{kernel}",
                            count=first_len,
                        ),
                    )
                )
        chip = state.chip
        for method in ("elementwise", "reduce_add"):
            stack.enter_context(
                patched(
                    chip,
                    method,
                    recorder.wrap(
                        getattr(chip, method),
                        f"core.chip.{method}",
                        count=second_len if method == "elementwise" else first_len,
                    ),
                )
            )
        for macro in chip.macros:
            stack.enter_context(
                patched(
                    macro,
                    "elementwise_array",
                    recorder.wrap(
                        macro.elementwise_array,
                        "core.macro.elementwise_array",
                        count=second_len,
                    ),
                )
            )
        return stack

    def layers(self, state, window: Window, recorder, base: Window) -> dict:
        table = summarize(recorder.spans)
        counts = recorder.counts

        def ns_per_elem(name):
            row = table.get(name)
            return row["total_s"] * 1e9 / counts[name] if row else 0.0

        def us_per_call(name):
            row = table.get(name)
            return row["total_s"] * 1e6 / row["calls"] if row else 0.0

        kernel_names = [f"core.kernels.{kernel}" for kernel in KERNELS]
        roots = sum(
            (end - start) * 1e-9
            for name, start, end, parent in recorder.spans
            if parent < 0 and name in kernel_names
        )
        kernel_self = sum(table[name]["self_s"] for name in kernel_names if name in table)
        macro_calls = table.get("core.macro.elementwise_array", {}).get("calls", 0.0)
        return {
            "core.kernels.add_ns_per_elem": ns_per_elem("core.kernels.add"),
            "core.kernels.mult_ns_per_elem": ns_per_elem("core.kernels.multiply"),
            "core.kernels.dot_ns_per_elem": ns_per_elem("core.kernels.dot"),
            "core.kernels.outside_chip_share": kernel_self / roots if roots else 0.0,
            "core.chip.elementwise_us": us_per_call("core.chip.elementwise"),
            "core.macro.elementwise_array_us": us_per_call("core.macro.elementwise_array"),
            "core.macro.lanes_per_call": (
                counts.get("core.macro.elementwise_array", 0.0) / macro_calls
                if macro_calls
                else 0.0
            ),
        }

    def check(self, state, outcome) -> None:
        outcome.record(
            state.calls + len(state.ops),
            len(state.bad),
            "kernel result differs from numpy: " + ", ".join(state.bad[:3]),
        )

    def end_to_end(self, state, window: Window) -> dict:
        return {
            "throughput_per_s": statistics.median(window.rates),
            "latency_p50_ms": window.latency_ms(0.5),
            "latency_p90_ms": window.latency_ms(0.9),
            "sim_energy_j": state.sim_energy_j,
            "sim_latency_s": state.sim_latency_s,
        }

    def report(self, state, window: Window) -> list:
        return [
            ("kernel_mops", statistics.median(window.rates) / 1e6, "Mop/s", "higher"),
            ("sim_fj_per_op", state.sim_energy_j * 1e15, "fJ", "lower"),
        ]

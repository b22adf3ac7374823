"""Chip scaling — sharded multi-macro execution engine throughput.

Two measurements back the chip layer:

* **Scaling sweep** — 1/2/4/8 macros x vector lengths up to 64k elements of
  8-bit MULT: total work cycles stay constant while the critical path (and
  therefore the modelled wall-clock latency) shrinks ~1/N, and every point
  is verified bit-exactly against the per-lane reference execution.
* **Host speedup** — the vectorized column-parallel hot path against the
  seed's per-lane Python loop on a 4096-element 8-bit signed dot product
  (the acceptance gate of the chip PR: >= 5x; in practice it is orders of
  magnitude).  The absolute host wall time per macro count is written
  beside the ratios, so the trajectory also records what one dot costs.

The sweep is additionally written to ``benchmarks/results/chip_scaling.json``
so future PRs can diff the perf trajectory.
"""

import os
import time

import numpy as np

from repro.analysis import experiments
from repro.analysis.report import format_table
from repro.core import IMCChip, IMCMacro, MacroConfig, Opcode, VectorKernels

#: Smoke mode (the CI bench-regression job): a reduced sweep that still
#: produces every metric tracked by benchmarks/baselines.json.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

MACRO_COUNTS = (1, 2, 4, 8)
VECTOR_LENGTHS = (1024, 4096) if SMOKE else (1024, 4096, 16384, 65536)
DOT_ELEMENTS = 4096


def _render_sweep(result) -> str:
    rows = []
    for num_macros in sorted(result):
        for elements in sorted(result[num_macros]):
            point = result[num_macros][elements]
            rows.append(
                [
                    num_macros,
                    elements,
                    point.total_cycles,
                    point.critical_path_cycles,
                    point.parallel_speedup,
                    point.latency_s * 1e6,
                    point.wall_time_s * 1e3,
                    point.verified,
                ]
            )
    return format_table(
        [
            "macros",
            "elements",
            "work [cyc]",
            "critical path [cyc]",
            "speedup",
            "latency [us]",
            "host wall [ms]",
            "bit-exact",
        ],
        rows,
        title="Chip scaling — sharded 8-bit MULT across 1-8 macros",
    )


def _reference_dot(a, b) -> tuple[int, float]:
    """The seed's per-lane hot path: reference MULT loop + per-step adds."""
    macro = IMCMacro(MacroConfig())
    start = time.perf_counter()
    magnitudes = macro.elementwise_reference(
        Opcode.MULT, np.abs(a).tolist(), np.abs(b).tolist(), 8
    )
    signs = np.sign(a) * np.sign(b)
    products = [int(s) * int(m) for s, m in zip(signs, magnitudes)]
    total = macro.reduce_add_reference(products, 32)
    return total, time.perf_counter() - start


def _vectorized_dot(a, b, num_macros=1) -> tuple[int, float]:
    kernels = VectorKernels(IMCChip(num_macros), precision_bits=8)
    start = time.perf_counter()
    result = kernels.dot(a.tolist(), b.tolist())
    return result.value, time.perf_counter() - start


def test_chip_scaling_sweep(benchmark, reporter, write_results_json):
    result = benchmark.pedantic(
        experiments.chip_scaling_study,
        kwargs={"macro_counts": MACRO_COUNTS, "vector_lengths": VECTOR_LENGTHS},
        rounds=1,
        iterations=1,
    )
    reporter("Chip scaling — sharded multi-macro engine", _render_sweep(result))

    payload = {
        str(num_macros): {
            str(elements): {
                "total_cycles": point.total_cycles,
                "critical_path_cycles": point.critical_path_cycles,
                "parallel_speedup": point.parallel_speedup,
                "energy_j": point.energy_j,
                "latency_s": point.latency_s,
                "wall_time_s": point.wall_time_s,
                "verified": point.verified,
            }
            for elements, point in per_macros.items()
        }
        for num_macros, per_macros in result.items()
    }
    write_results_json("chip_scaling", payload)

    for per_macros in result.values():
        for point in per_macros.values():
            assert point.verified
    for elements in VECTOR_LENGTHS:
        # Work is conserved across shard counts...
        works = {n: result[n][elements].total_cycles for n in MACRO_COUNTS}
        assert len(set(works.values())) == 1
        # ...while the critical path shrinks ~1/N.
        criticals = [result[n][elements].critical_path_cycles for n in MACRO_COUNTS]
        assert all(a > b for a, b in zip(criticals, criticals[1:]))
        assert criticals[-1] * 6 < criticals[0]


def test_dot_product_speedup_vs_seed_loop(reporter, write_results_json):
    rng = np.random.default_rng(2020)
    a = rng.integers(-128, 128, size=DOT_ELEMENTS)
    b = rng.integers(-128, 128, size=DOT_ELEMENTS)

    reference_value, reference_wall = _reference_dot(a, b)
    rows = []
    speedups = {}
    walls = {}
    for num_macros in MACRO_COUNTS:
        value, wall = _vectorized_dot(a, b, num_macros)
        assert value == reference_value == int(np.dot(a, b))
        walls[num_macros] = wall
        speedups[num_macros] = reference_wall / wall
        rows.append([num_macros, wall * 1e3, speedups[num_macros]])
    rows.append(["per-lane seed loop", reference_wall * 1e3, 1.0])

    reporter(
        f"Vectorized {DOT_ELEMENTS}-element 8-bit dot product vs seed per-lane loop",
        format_table(["engine [macros]", "host wall [ms]", "speedup"], rows),
    )
    write_results_json(
        "chip_dot_speedup",
        {
            "elements": DOT_ELEMENTS,
            "reference_wall_s": reference_wall,
            "speedup_by_macros": {str(n): s for n, s in speedups.items()},
            "wall_s_by_macros": {str(n): w for n, w in walls.items()},
        },
    )
    # Acceptance gate of the chip PR: the vectorized hot path must beat the
    # seed per-lane loop by at least 5x on the 4096-element dot product.
    assert speedups[1] >= 5.0

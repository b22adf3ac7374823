"""Tests for the sharded multi-macro execution engine (repro.core.chip).

The contract pinned down here:

* the vectorized fast path is bit-exact against the per-lane reference
  execution for every opcode and precision,
* an ``IMCChip`` with N=1 reproduces the single-macro results *and*
  statistics exactly (the degenerate case),
* sharding across N macros preserves results, order and ragged tails, and
* the merged chip ledger equals the sum of the per-macro ledgers.
"""

import numpy as np
import pytest

from repro.core import IMCChip, IMCMacro, MacroConfig, Opcode, VectorKernels
from repro.errors import AddressError, OperandError

INT_KEYS = ("invocations", "operations", "cycles", "array_accesses", "disturb_events")


def _random_operands(n, bits, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << bits, size=n).tolist()
    b = rng.integers(0, 1 << bits, size=n).tolist()
    return a, b


def _assert_summaries_match(fast, reference):
    for key in INT_KEYS:
        assert fast[key] == reference[key], key
    assert fast["energy_j"] == pytest.approx(reference["energy_j"], rel=1e-12)


class TestVectorizedPathMatchesReference:
    @pytest.mark.parametrize("opcode", list(Opcode))
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_values_and_stats_bit_exact(self, opcode, bits):
        a, b = _random_operands(53, bits, seed=bits)
        b_arg = b if opcode.is_dual_wordline else None
        fast_macro = IMCMacro(MacroConfig())
        ref_macro = IMCMacro(MacroConfig())
        fast = fast_macro.elementwise(opcode, a, b_arg, precision_bits=bits)
        reference = ref_macro.elementwise_reference(opcode, a, b_arg, precision_bits=bits)
        assert fast == reference
        _assert_summaries_match(fast_macro.stats.summary(), ref_macro.stats.summary())

    def test_interleaved_opcodes_and_precisions_match_reference(self):
        # One macro serving a mix of opcodes and precisions must charge each
        # record the per-word energy of its own (opcode, precision).
        fast_macro = IMCMacro(MacroConfig())
        ref_macro = IMCMacro(MacroConfig())
        for round_index in range(2):
            for bits in (4, 8, 16):
                for opcode in (Opcode.ADD, Opcode.MULT, Opcode.SUB, Opcode.XOR):
                    a, b = _random_operands(19 + round_index, bits, seed=bits)
                    fast = fast_macro.elementwise(opcode, a, b, precision_bits=bits)
                    assert fast == ref_macro.elementwise_reference(
                        opcode, a, b, precision_bits=bits
                    )
        assert fast_macro.stats.records.keys() == ref_macro.stats.records.keys()
        for opcode, record in ref_macro.stats.records.items():
            fast_record = fast_macro.stats.records[opcode]
            assert (fast_record.invocations, fast_record.words, fast_record.cycles) == (
                record.invocations,
                record.words,
                record.cycles,
            )
            assert fast_record.energy_j == pytest.approx(record.energy_j, rel=1e-12)

    def test_empty_vector(self):
        macro = IMCMacro(MacroConfig())
        assert macro.elementwise(Opcode.ADD, [], []) == []
        assert macro.stats.total_invocations == 0

    def test_operand_validation(self):
        macro = IMCMacro(MacroConfig())
        with pytest.raises(OperandError):
            macro.elementwise(Opcode.ADD, [256], [0])
        with pytest.raises(OperandError):
            macro.elementwise(Opcode.ADD, [1, 2], [1])
        with pytest.raises(OperandError):
            macro.elementwise(Opcode.ADD, [1])

    def test_disturb_injection_keeps_reference_path(self):
        # With read-disturb injection the dispatcher must run the real
        # cell-level accesses (the fast path cannot flip cells).
        macro = IMCMacro(MacroConfig(inject_read_disturb=True))
        a, b = _random_operands(8, 8, seed=9)
        assert macro.elementwise(Opcode.ADD, a, b) == [(x + y) % 256 for x, y in zip(a, b)]


class TestSingleMacroDegenerateCase:
    @pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.SUB, Opcode.MULT, Opcode.XOR])
    def test_chip_n1_equals_macro(self, opcode):
        a, b = _random_operands(300, 8, seed=3)
        chip = IMCChip(1)
        macro = IMCMacro(MacroConfig())
        assert chip.elementwise(opcode, a, b) == macro.elementwise(opcode, a, b)
        _assert_summaries_match(chip.stats.summary(), macro.stats.summary())

    def test_chip_n1_equals_reference(self):
        a, b = _random_operands(100, 8, seed=4)
        chip = IMCChip(1)
        reference = IMCMacro(MacroConfig())
        assert chip.elementwise(Opcode.MULT, a, b) == reference.elementwise_reference(
            Opcode.MULT, a, b
        )

    def test_kernels_on_chip_match_kernels_on_macro(self):
        rng = np.random.default_rng(5)
        a = rng.integers(-100, 100, size=96).tolist()
        b = rng.integers(-100, 100, size=96).tolist()
        on_chip = VectorKernels(IMCChip(1), precision_bits=8)
        on_macro = VectorKernels(IMCMacro(MacroConfig()), precision_bits=8)
        chip_dot = on_chip.dot(a, b)
        macro_dot = on_macro.dot(a, b)
        assert chip_dot.value == macro_dot.value == int(np.dot(a, b))
        assert chip_dot.cycles == macro_dot.cycles
        assert chip_dot.operations == macro_dot.operations
        assert chip_dot.energy_j == pytest.approx(macro_dot.energy_j, rel=1e-12)


class TestSharding:
    @pytest.mark.parametrize("num_macros", [2, 3, 4, 8])
    @pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.MULT])
    def test_sharded_results_bit_exact(self, num_macros, opcode):
        a, b = _random_operands(1000, 8, seed=num_macros)
        chip = IMCChip(num_macros)
        single = IMCMacro(MacroConfig())
        assert chip.elementwise(opcode, a, b) == single.elementwise(opcode, a, b)

    def test_ragged_tail_shard(self):
        # 16 lanes per ADD batch at 8-bit: 35 elements = 2 full batches + 3.
        chip = IMCChip(2)
        lanes = chip.macro(0).lane_count(Opcode.ADD, 8)
        n = 2 * lanes + 3
        a, b = _random_operands(n, 8, seed=7)
        result = chip.run_elementwise(Opcode.ADD, a, b)
        assert result.values.tolist() == [(x + y) % 256 for x, y in zip(a, b)]
        assert sum(result.shard_sizes) == n
        # The ragged batch lands on macro 0 (third batch, round-robin).
        assert result.shard_sizes == (lanes + 3, lanes)

    def test_vector_shorter_than_one_batch(self):
        chip = IMCChip(4)
        result = chip.run_elementwise(Opcode.ADD, [1, 2], [3, 4])
        assert result.values.tolist() == [4, 6]
        assert result.shard_sizes == (2, 0, 0, 0)
        assert result.critical_path_cycles == result.total_cycles

    def test_merged_stats_equal_sum_of_per_macro_stats(self):
        chip = IMCChip(4)
        a, b = _random_operands(777, 8, seed=11)
        chip.elementwise(Opcode.MULT, a, b)
        merged = chip.stats
        per_macro = chip.per_macro_statistics()
        assert merged.total_cycles == sum(s.total_cycles for s in per_macro)
        assert merged.total_operations == sum(s.total_operations for s in per_macro)
        assert merged.total_invocations == sum(s.total_invocations for s in per_macro)
        assert merged.total_energy_j == pytest.approx(
            sum(s.total_energy_j for s in per_macro)
        )
        assert merged.total_operations == 777

    def test_work_spreads_across_all_macros(self):
        chip = IMCChip(4)
        a, b = _random_operands(1024, 8, seed=13)
        chip.elementwise(Opcode.ADD, a, b)
        assert all(s.total_invocations > 0 for s in chip.per_macro_statistics())

    def test_critical_path_shrinks_with_macros(self):
        a, b = _random_operands(4096, 8, seed=17)
        criticals = {}
        for n in (1, 2, 4, 8):
            chip = IMCChip(n)
            result = chip.run_elementwise(Opcode.MULT, a, b)
            criticals[n] = result.critical_path_cycles
            # Work is independent of the shard count.
            assert result.total_cycles == result.parallel_speedup * criticals[n]
        assert criticals[1] > criticals[2] > criticals[4] > criticals[8]
        # Work is conserved: N=8 critical path is ~1/8 of the N=1 one.
        assert criticals[8] == pytest.approx(criticals[1] / 8, rel=0.02)

    def test_dispatch_result_accounting(self):
        chip = IMCChip(2)
        a, b = _random_operands(64, 8, seed=19)
        chip.reset_stats()
        result = chip.run_elementwise(Opcode.ADD, a, b)
        assert result.total_cycles == chip.stats.total_cycles
        assert result.energy_j == pytest.approx(chip.stats.total_energy_j)
        assert result.latency_s == pytest.approx(
            result.critical_path_cycles * chip.cycle_time_s(8)
        )
        assert result.parallel_speedup == pytest.approx(2.0)


class TestChipInterface:
    def test_precision_reconfiguration(self):
        chip = IMCChip(2)
        chip.set_precision(4)
        assert chip.precision_bits == 4
        assert all(m.precision_bits == 4 for m in chip.macros)
        assert chip.elementwise(Opcode.MULT, [15, 14], [15, 13], precision_bits=4) == [225, 182]

    def test_aggregate_geometry(self):
        chip = IMCChip(4)
        single = IMCMacro(MacroConfig())
        assert chip.words_per_row(8) == 4 * single.words_per_row(8)
        assert chip.mult_slots_per_row(8) == 4 * single.mult_slots_per_row(8)
        assert chip.capacity_bytes == 4 * single.config.capacity_bytes

    def test_scalar_compute_delegates(self):
        chip = IMCChip(2)
        assert chip.compute(Opcode.ADD, 100, 55) == 155
        assert chip.macro(0).stats.total_invocations == 1
        assert chip.macro(1).stats.total_invocations == 0

    def test_reduce_add(self):
        chip = IMCChip(2)
        values = list(range(-50, 75))
        assert chip.reduce_add(values, 32) == sum(values)

    def test_macro_index_bounds(self):
        chip = IMCChip(2)
        with pytest.raises(AddressError):
            chip.macro(2)

    def test_reset_stats(self):
        chip = IMCChip(2)
        a, b = _random_operands(100, 8, seed=23)
        chip.elementwise(Opcode.ADD, a, b)
        chip.reset_stats()
        assert chip.stats.total_cycles == 0
        assert chip.stats.total_invocations == 0

    def test_dual_operand_required(self):
        chip = IMCChip(2)
        with pytest.raises(OperandError):
            chip.elementwise(Opcode.ADD, [1, 2])

    def test_empty_dispatch(self):
        chip = IMCChip(3)
        result = chip.run_elementwise(Opcode.ADD, [], [])
        assert result.values.size == 0
        assert result.total_cycles == 0
        assert result.critical_path_cycles == 0

    def test_wide_mult_products_exceed_int64(self):
        # 32-bit MULT products need 64 unsigned bits; the sharded dispatch
        # must carry them as exact Python integers (object dtype).
        config = MacroConfig(cols=256, precision_bits=32)
        chip = IMCChip(2, config)
        value = (1 << 32) - 1
        assert chip.elementwise(Opcode.MULT, [value, 3, value], [value, 5, value]) == [
            value * value,
            15,
            value * value,
        ]

    def test_wide_mult_with_disturb_injection(self):
        # The disturb-routed reference path must survive >int64 products too.
        config = MacroConfig(cols=256, precision_bits=32, inject_read_disturb=True)
        chip = IMCChip(2, config)
        value = (1 << 32) - 1
        assert chip.elementwise(Opcode.MULT, [value, 3], [value, 5]) == [value * value, 15]

    def test_disturb_chip_uses_decorrelated_macro_seeds(self):
        chip = IMCChip(3, MacroConfig(inject_read_disturb=True, seed=5))
        assert [m.config.seed for m in chip.macros] == [5, 6, 7]


def _replay_shard_slices(chip, opcode, a, b, bits):
    """Reference dispatch: the ``shard_slices`` spec, one gather per batch.

    Calls each macro's ``elementwise_array`` in macro index order on the
    concatenation of its round-robin batches and scatters the results back
    batch by batch, returning what ``run_elementwise`` should report.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64) if b is not None else None
    cycles_before = [macro.stats.total_cycles for macro in chip.macros]
    energy_before = [macro.stats.total_energy_j for macro in chip.macros]
    values = np.zeros(a.size, dtype=np.int64)
    shard_sizes = []
    for macro, ranges in zip(chip.macros, chip.shard_slices(a.size, opcode, bits)):
        shard_sizes.append(sum(stop - start for start, stop in ranges))
        if not ranges:
            continue
        gather_b = (
            np.concatenate([b[start:stop] for start, stop in ranges])
            if b is not None
            else None
        )
        shard = macro.elementwise_array(
            opcode,
            np.concatenate([a[start:stop] for start, stop in ranges]),
            gather_b,
            precision_bits=bits,
        )
        offset = 0
        for start, stop in ranges:
            values[start:stop] = shard[offset : offset + stop - start]
            offset += stop - start
    per_macro = [
        macro.stats.total_cycles - before
        for macro, before in zip(chip.macros, cycles_before)
    ]
    energy = float(
        sum(
            macro.stats.total_energy_j - before
            for macro, before in zip(chip.macros, energy_before)
        )
    )
    critical = max(per_macro, default=0)
    return {
        "opcode": opcode,
        "precision_bits": bits,
        "elements": int(a.size),
        "shard_sizes": tuple(shard_sizes),
        "values": values.tolist(),
        "total_cycles": sum(per_macro),
        "critical_path_cycles": critical,
        "energy_j": energy.hex(),
        "latency_s": (critical * chip.cycle_time_s(bits)).hex(),
    }


def _dispatch_fields(result):
    return {
        "opcode": result.opcode,
        "precision_bits": result.precision_bits,
        "elements": result.elements,
        "shard_sizes": result.shard_sizes,
        "values": result.values.tolist(),
        "total_cycles": result.total_cycles,
        "critical_path_cycles": result.critical_path_cycles,
        "energy_j": result.energy_j.hex(),
        "latency_s": result.latency_s.hex(),
    }


def _ledgers(chip):
    return [
        (
            {
                opcode: (rec.invocations, rec.words, rec.cycles, rec.energy_j.hex())
                for opcode, rec in macro.stats.records.items()
            },
            macro.stats.array_accesses,
        )
        for macro in chip.macros
    ]


class TestDispatchLedgerParity:
    """``run_elementwise`` equals a replay of ``shard_slices``, to the bit.

    Both chips run the same interleaved sequence of opcodes and lengths, so
    the per-macro float ledgers also pin down the order in which energy is
    accumulated and that per-word energy is never shared across opcodes.
    """

    @pytest.mark.parametrize("num_macros", [1, 3, 8])
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_run_elementwise_matches_shard_slices_replay(self, num_macros, bits):
        chip = IMCChip(num_macros)
        reference = IMCChip(num_macros)
        seed = 0
        for length_index in range(6):
            for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MULT, Opcode.NOT, Opcode.XOR):
                lanes = chip.macro(0).lane_count(opcode, bits)
                n = [0, 1, lanes - 1, lanes * num_macros + 1, 1023, 4096][length_index]
                seed += 1
                a, b = _random_operands(n, bits, seed=seed)
                b_arg = b if opcode.is_dual_wordline else None
                result = chip.run_elementwise(opcode, a, b_arg, precision_bits=bits)
                expected = _replay_shard_slices(reference, opcode, a, b_arg, bits)
                assert _dispatch_fields(result) == expected, (opcode, n)
                assert _ledgers(chip) == _ledgers(reference), (opcode, n)


class TestOperandValidation:
    def test_float_operands_rejected_not_truncated(self):
        macro = IMCMacro(MacroConfig())
        with pytest.raises(OperandError):
            macro.elementwise(Opcode.ADD, [1.9], [1.9], 8)
        with pytest.raises(OperandError):
            macro.elementwise_array(Opcode.ADD, np.array([1.0]), [1], 8)
        with pytest.raises(OperandError):
            IMCChip(2).run_elementwise(Opcode.ADD, [1.9], [1.9])
        with pytest.raises(OperandError):
            macro.reduce_add([1.5, 2], 32)

    def test_non_vector_operands_rejected(self):
        with pytest.raises(OperandError):
            IMCChip(2).run_elementwise(Opcode.ADD, [[1, 2]], [[1, 2]])
        with pytest.raises(OperandError):
            IMCChip(2).run_elementwise(Opcode.NOT, 5)
        with pytest.raises(OperandError):
            IMCMacro(MacroConfig()).elementwise_array(Opcode.ADD, [[1, 2]], [[1, 2]])
        disturbed = IMCMacro(MacroConfig(inject_read_disturb=True))
        with pytest.raises(OperandError):
            disturbed.elementwise_array(Opcode.ADD, [[1, 2]], [[1, 2]])

    def test_operands_beyond_int64_rejected(self):
        with pytest.raises(OperandError):
            IMCChip(2).run_elementwise(Opcode.ADD, [1 << 70], [1])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64])
    def test_numpy_integer_dtypes_accepted(self, dtype):
        a, b = _random_operands(100, 8, seed=29)
        chip = IMCChip(3)
        as_dtype = chip.elementwise(
            Opcode.ADD, np.array(a, dtype=dtype), np.array(b, dtype=dtype)
        )
        assert as_dtype == [(x + y) % 256 for x, y in zip(a, b)]
        assert all(type(value) is int for value in as_dtype)

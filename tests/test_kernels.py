"""Unit tests for the signed vector-kernel library (repro.core.kernels)."""

import numpy as np
import pytest

from repro.core import IMCChip, IMCMacro, MacroConfig
from repro.core.kernels import VectorKernels
from repro.errors import OperandError


@pytest.fixture(scope="module")
def kernels():
    return VectorKernels(IMCMacro(MacroConfig()), precision_bits=8)


class TestElementwiseSigned:
    def test_signed_add(self, kernels):
        result = kernels.add([1, -2, 100, -100], [3, -4, 27, -28])
        assert result.values == [4, -6, 127, -128]

    def test_signed_subtract(self, kernels):
        result = kernels.subtract([10, -10, 0], [3, -3, 5])
        assert result.values == [7, -7, -5]

    def test_signed_multiply(self, kernels):
        result = kernels.multiply([3, -3, -5, 0], [7, 7, -5, 9])
        assert result.values == [21, -21, 25, 0]

    def test_scale(self, kernels):
        result = kernels.scale([1, -2, 3], -4)
        assert result.values == [-4, 8, -12]

    def test_wraparound_matches_hardware(self, kernels):
        # 127 + 1 wraps to -128 in 8-bit two's complement.
        assert kernels.add([127], [1]).values == [-128]

    def test_out_of_range_operand_rejected(self, kernels):
        with pytest.raises(OperandError):
            kernels.add([200], [1])
        with pytest.raises(OperandError):
            kernels.multiply([-129], [1])

    def test_length_mismatch_rejected(self, kernels):
        with pytest.raises(OperandError):
            kernels.add([1, 2], [1])


class TestReductions:
    def test_sum(self, kernels):
        values = [5, -3, 100, -50, 17]
        assert kernels.sum(values).values == [sum(values)]

    def test_dot_product(self, kernels):
        a = [3, -7, 11, 0, 25]
        b = [5, 2, -8, 4, 3]
        expected = int(np.dot(a, b))
        result = kernels.dot(a, b)
        assert result.value == expected
        assert result.cycles > 0
        assert result.energy_j > 0

    def test_dot_of_large_magnitudes(self, kernels):
        a = [127, -128, 127]
        b = [127, 127, -128]
        assert kernels.dot(a, b).value == int(np.dot(a, b))

    def test_matvec(self, kernels):
        matrix = [[1, 2, 3], [-4, 5, -6], [7, 0, 1]]
        vector = [2, -1, 3]
        expected = (np.array(matrix) @ np.array(vector)).tolist()
        result = kernels.matvec(matrix, vector)
        assert result.values == expected

    def test_matvec_shape_checks(self, kernels):
        with pytest.raises(OperandError):
            kernels.matvec([[1, 2], [3]], [1, 2])
        with pytest.raises(OperandError):
            kernels.matvec([[1, 2]], [1, 2, 3])
        with pytest.raises(OperandError):
            kernels.matvec([], [1])

    def test_fir_filter(self, kernels):
        signal = [1, 2, 3, 4, 5, -5, -4, 0]
        taps = [2, -1, 1]
        expected = np.convolve(signal, taps)[: len(signal)].tolist()
        result = kernels.fir_filter(signal, taps)
        assert result.values == expected

    def test_fir_needs_taps(self, kernels):
        with pytest.raises(OperandError):
            kernels.fir_filter([1, 2, 3], [])


class TestAccounting:
    def test_kernel_result_reports_cost(self, kernels):
        result = kernels.multiply(list(range(-8, 8)), list(range(16, 0, -1)))
        assert result.operations >= 16
        assert result.cycles >= 10
        assert result.energy_per_result_j > 0

    def test_cost_summary_fields(self, kernels):
        kernels.add([1], [2])
        summary = kernels.cost_summary()
        for key in ("cycles", "energy_j", "cycle_time_s", "execution_time_s"):
            assert key in summary
        assert summary["execution_time_s"] > 0

    def test_dot_cost_is_sum_of_phases(self, kernels):
        macro = IMCMacro(MacroConfig())
        fresh = VectorKernels(macro, precision_bits=8)
        result = fresh.dot([1, 2, 3, 4], [5, 6, 7, 8])
        # 4 multiplications (2 slots per access -> 2 accesses) + 4 accumulate adds.
        assert result.cycles == macro.stats.total_cycles
        assert result.energy_j == pytest.approx(macro.stats.total_energy_j)

    def test_lower_precision_kernels_cost_less_energy(self):
        low = VectorKernels(IMCMacro(MacroConfig(precision_bits=4)), precision_bits=4)
        high = VectorKernels(IMCMacro(MacroConfig(precision_bits=8)), precision_bits=8)
        low_result = low.multiply([3, -5, 7], [2, 4, -6])
        high_result = high.multiply([3, -5, 7], [2, 4, -6])
        assert low_result.values == high_result.values
        assert low_result.energy_j < high_result.energy_j


class TestOperandTypes:
    @pytest.mark.parametrize("kernel", ["add", "subtract", "multiply", "dot"])
    def test_float_operands_rejected_not_truncated(self, kernel):
        kernels = VectorKernels(IMCChip(2), precision_bits=16)
        with pytest.raises(OperandError):
            getattr(kernels, kernel)([1.7], [2.2])
        with pytest.raises(OperandError):
            getattr(kernels, kernel)(np.array([1.0, 2.0]), [1, 2])

    def test_float_sum_and_scale_rejected(self, kernels):
        with pytest.raises(OperandError):
            kernels.sum([1.5, 2])
        with pytest.raises(OperandError):
            kernels.scale([1, 2], 1.5)

    def test_nested_operands_rejected(self, kernels):
        with pytest.raises(OperandError):
            kernels.add([[1, 2]], [[3, 4]])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8])
    def test_numpy_integer_dtypes_accepted(self, kernels, dtype):
        a = np.array([1, 2, 3], dtype=dtype)
        b = np.array([4, 5, 6], dtype=dtype)
        assert kernels.add(a, b).values == [5, 7, 9]
        assert kernels.multiply(a, b).values == [4, 10, 18]
        assert kernels.dot(a, b).value == 32

    def test_values_are_python_ints(self, kernels):
        result = kernels.multiply(np.array([3, -4]), np.array([-5, 6]))
        assert result.values == [-15, -24]
        assert all(type(value) is int for value in result.values)

    def test_wide_signed_products_stay_exact(self):
        # 32-bit magnitudes multiply into products the macro carries as
        # Python ints; the re-applied sign must keep them exact.
        kernels = VectorKernels(
            IMCChip(2, MacroConfig(cols=256, precision_bits=32)), precision_bits=32
        )
        a = [-(1 << 31), (1 << 31) - 1, 7]
        b = [-(1 << 31), -(1 << 31), -3]
        result = kernels.multiply(a, b)
        assert result.values == [x * y for x, y in zip(a, b)]
        assert all(type(value) is int for value in result.values)


class TestCostSummaryPrecision:
    def test_kernels_sharing_a_chip_report_their_own_cycle_time(self):
        chip = IMCChip(2)
        low = VectorKernels(chip, precision_bits=4)
        high = VectorKernels(chip, precision_bits=16)
        high.add([1, 2], [3, 4])
        assert chip.precision_bits == 16
        assert low.cost_summary()["cycle_time_s"] == chip.cycle_time_s(4)
        assert high.cost_summary()["cycle_time_s"] == chip.cycle_time_s(16)
        assert chip.cycle_time_s(4) < chip.cycle_time_s(16)

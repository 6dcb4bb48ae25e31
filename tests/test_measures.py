from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcurv import (
    Battery,
    Measure,
    measure_delta,
    measure_uniform,
    measure_uniform_on,
    sample_measures,
)
from graphcurv.measures import SAMPLE_WEIGHT_BITS, sample_weights
from graphcurv.rationals import INT64_MAX
from graphcurv.seeding import counter_offsets, counter_values_np, mix64_inplace
from oracles import counter_value, measure_fraction, sample_measures_fraction


class TestConstruction:
    def test_validates_nonneg(self):
        with pytest.raises(ValueError):
            Measure([Fraction(3, 2), Fraction(-1, 2)])

    def test_validates_sum(self):
        with pytest.raises(ValueError):
            Measure([Fraction(1, 2), Fraction(1, 3)])

    def test_validates_nonempty(self):
        with pytest.raises(ValueError):
            Measure([])

    @pytest.mark.parametrize("entries", [[0.5, 0.5], ["1/2", "1/2"], [Decimal("0.5")] * 2,
                                         [Fraction(1, 2), 0.5]])
    def test_rejects_floats_strings_and_decimals(self, entries):
        # as `from_weights` does: no float or parsed string reaches an exact measure
        with pytest.raises(TypeError, match="^Measure takes ints and Fractions only$"):
            Measure(entries)

    def test_support(self):
        assert measure_uniform_on(5, {1, 3}).support() == (1, 3)

    def test_integer_numerators_over_one_reduced_denominator(self):
        mu = Measure([Fraction(1, 6), Fraction(1, 3), Fraction(0), Fraction(1, 2)])
        assert (mu.q, mu.den) == ((1, 2, 0, 3), 6)
        assert mu.p == (Fraction(1, 6), Fraction(1, 3), 0, Fraction(1, 2))
        assert Measure.from_weights([0, 4, 2]).q == (0, 2, 1)
        assert Measure.from_weights([0, 4, 2]).den == 3


class TestFromWeights:
    @pytest.mark.parametrize("entries,weights", [
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [3, 2, 1]),
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [300, 200, 100]),
        ([0, 1, 0], [0, 7, 0]),
        ([Fraction(1, 4)] * 4, [2 ** 70] * 4),
        ([Fraction(1, 3), 0, Fraction(2, 3)], [5, 0, 10]),
    ])
    def test_equal_to_rational_construction(self, entries, weights):
        a, b = Measure(entries), Measure.from_weights(weights)
        assert a == b and hash(a) == hash(b)
        assert b.p == measure_fraction(entries)

    def test_scalings_are_equal(self):
        a, b = Measure.from_weights([1, 2, 3]), Measure.from_weights([4, 8, 12])
        assert a == b and hash(a) == hash(b)
        assert a != Measure.from_weights([1, 3, 2])

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="integers only"):
            Measure.from_weights([1, 0.5])

    @pytest.mark.parametrize("weights", [[], [2, -1], [0, 0, 0]])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError):
            Measure.from_weights(weights)


# weights near and past 2^62 and 2^63, where an int64 row sum wraps
WEIGHTS = st.one_of(
    st.integers(0, 3), st.booleans(), st.integers(0, 2 ** 65),
    st.sampled_from([2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, INT64_MAX, 2 ** 63, 2 ** 63 + 1, 2 ** 64]),
)


class TestKernel:
    """`Measure` and `Battery` build every measure through `reduce_weights`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WEIGHTS, min_size=1, max_size=6).filter(any))
    def test_constructors_agree_with_fraction_oracle(self, row):
        total = sum(row)
        mu = Measure.from_weights(row)
        assert mu.p == measure_fraction([Fraction(x, total) for x in row])
        assert all(type(x) is int for x in (*mu.q, mu.den))
        width = np.int64 if total <= INT64_MAX else object
        inputs = [[row]]
        if max(row) <= INT64_MAX:  # as the int64 matrix a caller may hold
            inputs.append(np.array([row], dtype=np.int64))
        for weights in inputs:
            battery = Battery(["a"], weights)
            assert battery[0] == ("a", mu)
            assert battery.num.dtype == battery.den.dtype == width

    def test_wide_row_sum_does_not_wrap(self):
        battery = Battery(["a"], np.array([[2 ** 62, 2 ** 62]]))
        assert battery.den == 2 and battery[0][1] == Measure.from_weights([2 ** 62, 2 ** 62])

    @pytest.mark.parametrize("row", [[1, 0.5], [1.0, 2.0], [Fraction(1), 1], [np.int64(1)]])
    def test_rejects_non_integers(self, row):
        for build in (Measure.from_weights, lambda r: Battery(["a"], [r])):
            with pytest.raises(TypeError, match="^Measure.from_weights takes integers only$"):
                build(row)

    def test_numpy_typed_weights(self):
        # numpy types [[2^63, 1]] as float64; as Python ints the row is a measure
        with pytest.raises(TypeError, match="integers only"):
            Battery(["a"], np.array([[2 ** 63, 1]]))
        assert Battery(["a"], [[2 ** 63, 1]])[0][1].den == 2 ** 63 + 1
        assert Battery(["a"], np.array([[2 ** 63, 2]], dtype=np.uint64))[0][1].q == (2 ** 62, 1)
        assert Battery(["a"], np.array([[True, False]]))[0][1].q == (1, 0)

    @pytest.mark.parametrize("row,error", [
        ([], "measure needs at least one entry"),
        ([2, -1], "measure entries must be non-negative"),
        ([1, -1], "measure entries must be non-negative"),
        ([0, 0, 0], "measure weights must not all be zero"),
        ([False], "measure weights must not all be zero"),
    ])
    def test_bad_rows_raise_one_error_in_order(self, row, error):
        for build in (Measure.from_weights, lambda r: Battery(["a"], [r])):
            with pytest.raises(ValueError) as exc:
                build(row)
            assert str(exc.value) == error

    @pytest.mark.parametrize("entries,error", [
        ([], "measure needs at least one entry"),
        ([2, -1], "measure entries must be non-negative"),
        ([-1, 0], "measure entries must be non-negative"),
        ([0, 0], "measure entries must sum to exactly 1"),
        ([Fraction(1, 2), Fraction(1, 3)], "measure entries must sum to exactly 1"),
    ])
    def test_rational_entries_checked_in_order(self, entries, error):
        with pytest.raises(ValueError) as exc:
            Measure(entries)
        assert str(exc.value) == error


class TestDelta:
    def test_examples(self):
        assert measure_delta(3, 0).p == (1, 0, 0)
        assert measure_delta(3, 2).p == (0, 0, 1)
        assert measure_delta(1, 0).p == (1,)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            measure_delta(3, 3)


class TestUniform:
    def test_uniform(self):
        assert measure_uniform(4).p == (Fraction(1, 4),) * 4

    def test_uniform_on_subset(self):
        assert measure_uniform_on(4, {1, 2, 3}).p == (0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_singleton_is_delta(self):
        assert measure_uniform_on(4, {2}) == measure_delta(4, 2)

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            measure_uniform_on(4, set())

    def test_subset_out_of_range(self):
        with pytest.raises(IndexError):
            measure_uniform_on(4, {4})


class TestSampling:
    def test_deterministic(self):
        assert sample_measures(3, 2, 42) == sample_measures(3, 2, 42)

    def test_seed_matters(self):
        assert sample_measures(3, 2, 42) != sample_measures(3, 2, 43)

    def test_prefix_stability(self):
        # sample i depends only on (seed, i): extending the count keeps a prefix
        assert sample_measures(5, 3, 7) == sample_measures(5, 10, 7)[:3]

    def test_entries_strictly_positive_with_floor(self):
        for mu in sample_measures(3, 20, 0):
            assert all(x >= Fraction(1, 3 * 2 ** 16) for x in mu.p)

    def test_exact_normalization(self):
        for mu in sample_measures(6, 20, 9):
            assert sum(mu.p) == 1

    def test_matches_fraction_oracle(self):
        for n, count, seed in [(1, 3, 0), (12, 20, 4), (60, 30, 1)]:
            got = [mu.p for mu in sample_measures(n, count, seed)]
            assert got == sample_measures_fraction(n, count, seed)

    @pytest.mark.parametrize("n,count,seed", [(1, 5, 0), (3, 10, 42), (12, 300, 1), (60, 130, 9),
                                              (120, 300, 2 ** 64 - 1)])
    def test_grid_draw_matches_per_sample_draw(self, n, count, seed):
        # count > n draws the grid in several blocks of n samples
        weights = sample_weights(n, count, seed)
        expected = [1 + counter_values_np(seed, np.arange(n), i) % (1 << SAMPLE_WEIGHT_BITS)
                    for i in range(count)]
        assert weights.dtype == np.int64
        assert weights.tolist() == [w.tolist() for w in expected]
        drawn = [mu.p for mu in sample_measures(n, count, seed)]
        assert drawn == sample_measures_fraction(n, count, seed)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_measures(3, 0, 0)

    def test_matches_scalar_generator(self):
        for n, count, seed in [(1, 3, 0), (7, 5, 11), (40, 4, 2 ** 64 - 1)]:
            for i, mu in enumerate(sample_measures(n, count, seed)):
                weights = [1 + counter_value(seed, i, j) % (1 << SAMPLE_WEIGHT_BITS)
                           for j in range(n)]
                assert mu.p == tuple(Fraction(x, sum(weights)) for x in weights)


class TestCounterValues:
    def test_splitmix64_reference_value(self):
        # the first SplitMix64 output from state 0
        assert int(counter_values_np(0, np.arange(1))[0]) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed,prefix,n", [
        (0, (), 5), (0, (3,), 17), (42, (0,), 120), (2 ** 64 - 1, (7,), 9),
        (12345, (1, 2), 33), (2 ** 63, (2 ** 40,), 64),
    ])
    def test_bit_identical_to_scalar(self, seed, prefix, n):
        got = counter_values_np(seed, np.arange(n), *prefix).tolist()
        assert got == [counter_value(seed, *prefix, j) for j in range(n)]

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_offsets_give_prefixed_values(self, seed):
        z = np.arange(9, dtype=np.uint64) + counter_offsets(seed, 4)[:, None]
        mix64_inplace(z)
        assert z.tolist() == [[counter_value(seed, i, j) for j in range(9)] for i in range(4)]

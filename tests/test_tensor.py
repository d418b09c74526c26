"""Kernel correctness against brute-force oracles and stated invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sentclass.tensor import (ShapeError, dropout_mask, gather_rows, row_sums, scatter_rows,
                              sigmoid, softmax_rows)

from oracles import SequenceTooShortError, conv1d_wgram, make_rng, max_pool_time, relu, softmax


# --- oracles -----------------------------------------------------------------


def conv_oracle(x, f, bias):
    n, d = x.shape
    o, _, w = f.shape
    out = np.zeros((n - w + 1, o))
    for t in range(n - w + 1):
        for i in range(o):
            acc = bias[i]
            for j in range(d):
                for k in range(w):
                    acc += f[i, j, k] * x[t + k, j]
            out[t, i] = acc
    return out


def sigmoid_oracle(z):
    """The two-branch logistic: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def same_bits(a, b):
    """Equal shapes and bytes: tells -0.0 from 0.0 and compares NaN payloads."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pool_oracle(y):
    rows, cols = y.shape
    pooled = np.empty(cols)
    argmax = np.empty(cols, dtype=int)
    for i in range(cols):
        best, best_t = y[0, i], 0
        for t in range(1, rows):
            if y[t, i] > best:
                best, best_t = y[t, i], t
        pooled[i], argmax[i] = best, best_t
    return pooled, argmax


class TestConv1dWgram:
    def test_full_width_window_single_row(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        f = rng.normal(size=(4, 2, 3))
        bias = rng.normal(size=4)
        out = conv1d_wgram(x, f, bias)
        assert out.shape == (1, 4)
        np.testing.assert_allclose(out, conv_oracle(x, f, bias), atol=1e-12)

    def test_zero_filter_gives_bias_rows(self):
        bias = np.array([1.5, -2.0, 0.25])
        out = conv1d_wgram(np.ones((5, 2)), np.zeros((3, 2, 2)), bias)
        assert out.shape == (4, 3)
        for row in out:
            np.testing.assert_array_equal(row, bias)

    def test_small_integer_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        f = np.array([[[1.0, -1.0], [2.0, 0.0]]])  # o=1, d=2, w=2
        bias = np.array([0.5])
        np.testing.assert_allclose(conv1d_wgram(x, f, bias), conv_oracle(x, f, bias),
                                   atol=1e-12)

    def test_too_short_sequence(self):
        with pytest.raises(SequenceTooShortError):
            conv1d_wgram(np.ones((2, 3)), np.ones((1, 3, 4)), np.zeros(1))

    def test_depth_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_wgram(np.ones((4, 3)), np.ones((1, 2, 2)), np.zeros(1))

    def test_exhaustive_small_shapes_match_oracle(self):
        # the full equivalence sweep (all n,d,o,w <= 6) runs in the
        # acceptance suite; this covers a seeded sample of it
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            w = int(rng.integers(1, n + 1))
            d = int(rng.integers(1, 7))
            o = int(rng.integers(1, 7))
            x = rng.normal(size=(n, d))
            f = rng.normal(size=(o, d, w))
            bias = rng.normal(size=o)
            np.testing.assert_allclose(conv1d_wgram(x, f, bias),
                                       conv_oracle(x, f, bias), atol=1e-10)


class TestRelu:
    def test_sign_cases(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_identity_on_nonnegative(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(relu(x), x)

    def test_random_against_scalar_max(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        out = relu(x)
        for i in range(4):
            for j in range(5):
                assert out[i, j] == max(x[i, j], 0.0)


class TestMaxPoolTime:
    def test_single_row(self):
        row = np.array([[3.0, -1.0, 2.0]])
        pooled, argmax = max_pool_time(row)
        np.testing.assert_array_equal(pooled, row[0])
        np.testing.assert_array_equal(argmax, [0, 0, 0])

    def test_hand_case(self):
        pooled, argmax = max_pool_time(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(pooled, [3.0, 5.0])
        np.testing.assert_array_equal(argmax, [1, 0])

    def test_tie_breaks_to_earliest(self):
        pooled, argmax = max_pool_time(np.full((4, 2), 7.0))
        np.testing.assert_array_equal(pooled, [7.0, 7.0])
        np.testing.assert_array_equal(argmax, [0, 0])

    def test_random_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            y = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            pooled, argmax = max_pool_time(y)
            want_pooled, want_arg = pool_oracle(y)
            np.testing.assert_array_equal(pooled, want_pooled)
            np.testing.assert_array_equal(argmax, want_arg)

    def test_value_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(6, 3))
        pooled, _ = max_pool_time(y)
        for _ in range(5):
            shuffled = y[rng.permutation(6)]
            np.testing.assert_array_equal(max_pool_time(shuffled)[0], pooled)


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.array([4.2, 4.2, 4.2])),
                                   np.full(3, 1 / 3), atol=1e-15)

    def test_stability_under_huge_logits(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_high_precision_values(self):
        # 60-digit Decimal evaluation of exp(i)/sum(exp) for logits [1,2,3]
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(softmax(np.array([1.0, 2.0, 3.0])), expected,
                                   atol=1e-12)

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.normal(scale=5.0, size=int(rng.integers(1, 10)))
            out = softmax(z)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(softmax(z + 123.456), out, atol=1e-12)

    def test_rows_match_single_softmax(self):
        rng = np.random.default_rng(16)
        z = rng.normal(scale=5.0, size=(7, 4))
        z[2] += 900.0  # one row that would overflow without its own max
        out = softmax_rows(z)
        for row, logits in zip(out, z):
            np.testing.assert_allclose(row, softmax(logits), atol=1e-15)

    def test_rows_need_rank_two(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros(3))


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_complement_identity(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=4.0, size=100)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_high_precision_value(self):
        np.testing.assert_allclose(sigmoid(np.array([1.0]))[0],
                                   0.7310585786300049, atol=1e-15)

    def test_range_is_open_unit_interval(self):
        z = np.linspace(-30, 30, 101)
        out = sigmoid(z)
        assert np.all(out > 0) and np.all(out < 1)

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0,
               37.0, -37.0, 1e-300, -1e-300, 5e-324, -5e-324]

    def test_bits_of_the_two_branch_formula(self):
        z = np.array(self.SPECIAL)
        assert same_bits(sigmoid(z), sigmoid_oracle(z))
        assert np.array_equal(sigmoid(z), sigmoid_oracle(z), equal_nan=True)
        big = np.random.default_rng(8).normal(scale=30.0, size=(128, 256))
        assert same_bits(sigmoid(big), sigmoid_oracle(big))

    def test_out_may_be_the_input_slice(self):
        z = np.random.default_rng(9).normal(scale=30.0, size=(16, 40))
        want = sigmoid_oracle(z[:, :30])
        got = sigmoid(z[:, :30], out=z[:, :30])
        assert np.shares_memory(got, z) and same_bits(z[:, :30], want)

    @settings(max_examples=200, deadline=None)
    @given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1,
                                                     max_side=6),
                        elements=st.floats(allow_nan=True, allow_infinity=True)),
           column=st.integers(0, 5))
    def test_property_matches_the_two_branch_formula(self, z, column):
        # any shape and value; ``out=`` a strided column slice of another array
        assert same_bits(sigmoid(z), sigmoid_oracle(z))
        flat = z.reshape(-1, z.shape[-1])
        column = min(column, flat.shape[1] - 1)
        host = np.full((flat.shape[0], flat.shape[1] + 2), 7.0)
        out = host[:, column:column + 1]
        sigmoid(flat[:, column:column + 1], out=out)
        assert same_bits(np.ascontiguousarray(out), sigmoid_oracle(flat[:, column:column + 1]))
        rest = np.delete(host, column, axis=1)
        assert np.all(rest == 7.0)  # nothing outside the slice is written


class TestDropoutMask:
    def test_p_zero_is_all_ones(self):
        mask = dropout_mask(16, 0.0, make_rng(0))
        np.testing.assert_array_equal(mask, np.ones(16))

    def test_fixed_seed_repeats(self):
        a = dropout_mask(8, 0.5, make_rng(123))
        b = dropout_mask(8, 0.5, make_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_zero_fraction_monte_carlo(self):
        mask = dropout_mask(100_000, 0.1, make_rng(42))
        zero_fraction = float((mask == 0.0).mean())
        assert abs(zero_fraction - 0.1) <= 0.01

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_unit_expectation(self, p):
        mask = dropout_mask(100_000, p, make_rng(9))
        assert abs(mask.mean() - 1.0) <= 0.02
        kept = mask[mask != 0.0]
        np.testing.assert_allclose(kept, 1.0 / (1.0 - p))

    def test_block_mask_draws_the_row_masks_in_turn(self):
        rng = make_rng(31)
        rows = [dropout_mask(5, 0.3, rng) for _ in range(4)]
        np.testing.assert_array_equal(dropout_mask((4, 5), 0.3, make_rng(31)),
                                      np.stack(rows))

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_invalid_probability(self, p):
        with pytest.raises(ValueError):
            dropout_mask(4, p, make_rng(0))


class TestGatherRows:
    def test_matches_one_hot_product(self):
        rng = np.random.default_rng(41)
        w = rng.normal(size=(6, 3))
        idx = np.array([[2, 0, -1], [5, 5, -1]])
        onehot = np.zeros((2, 3, 6))
        for (b, t), k in np.ndenumerate(idx):
            if k >= 0:
                onehot[b, t, k] = 1.0
        np.testing.assert_array_equal(gather_rows(w, idx), onehot @ w)

    @pytest.mark.parametrize("extra_axes", [0, 1])
    def test_empty_table_pads_with_zeros(self, extra_axes):
        shape = (0, 3) + (4,) * extra_axes
        got = gather_rows(np.zeros(shape), np.array([[-1, -1]]))
        assert same_bits(got, np.zeros((1, 2, *shape[1:])))
        with pytest.raises(IndexError):
            gather_rows(np.zeros(shape), np.array([[0, -1]]))

    def test_tables_side_by_side(self):
        # a table of column blocks side by side (the LSTM's gates) gathers
        # into the gathers of its blocks, side by side
        rng = np.random.default_rng(45)
        tables = [rng.normal(size=(9, k)) for k in (2, 3, 2)]
        idx = np.array([[4, -1, 0], [8, 4, -1]])
        got = gather_rows(np.concatenate(tables, axis=1), idx)
        assert same_bits(got, np.concatenate([gather_rows(t, idx) for t in tables], axis=2))
        assert same_bits(gather_rows(np.concatenate([t[:0] for t in tables], axis=1),
                                     np.array([[-1]])),
                         np.zeros((1, 1, 7)))

    def test_index_below_pad_is_refused(self):
        w = np.arange(12.0).reshape(4, 3)
        idx = np.array([[-2, -1, 0]])
        with pytest.raises(IndexError):
            gather_rows(w, idx)
        with pytest.raises(IndexError):
            scatter_rows(np.ones((1, 3, 3)), idx, w.shape)

    def test_result_is_fresh(self):
        w = np.random.default_rng(46).normal(size=(5, 3))
        got = gather_rows(w, np.array([[0, 1, 2, 3, 4]]))
        assert not np.shares_memory(got, w)

    def test_rows_of_a_bank(self):
        bank = np.random.default_rng(42).normal(size=(9, 3, 4))
        idx = np.array([[8, -1, 0, 8], [2, 2, -1, -1]])
        got = gather_rows(bank, idx)
        assert got.shape == (2, 4, 3, 4)
        for (b, t), k in np.ndenumerate(idx):
            want = bank[k] if k >= 0 else np.zeros((3, 4))
            np.testing.assert_array_equal(got[b, t], want)


class TestScatterRows:
    """The gradient of ``gather_rows``: row sums bit-for-bit those of a dense
    ``np.add.at`` over the full table, padding dropped."""

    @pytest.mark.parametrize("shape", [(10, 3), (10, 3, 4)])
    def test_matches_dense_scatter_add(self, shape):
        rng = np.random.default_rng(43)
        idx = np.array([[7, 1, -1, 7], [1, 7, 7, -1], [0, -1, -1, -1]])
        rest = shape[1:]
        values = rng.normal(size=(*idx.shape, *rest))
        g = scatter_rows(values, idx, shape)
        dense = np.zeros((shape[0] + 1, *rest))  # last row: the padding slot
        np.add.at(dense, np.where(idx >= 0, idx, shape[0]).reshape(-1),
                  values.reshape(idx.size, *rest))
        want = dense[:-1]
        np.testing.assert_array_equal(g.rows, [0, 1, 7])
        assert g.shape == shape
        assert np.array_equal(np.asarray(g), want)
        where = np.unravel_index(np.arange(want.size), shape)
        assert np.array_equal(g[where], want[where])

    @pytest.mark.parametrize("targets", [1, 4, 7, 1 << 15])
    def test_blocks_of_any_size_keep_the_bits(self, monkeypatch, targets):
        # np.add.at runs over blocks of entries; blocks that cut an entry's
        # slice or a row of idx must still add each bin's terms in input order
        monkeypatch.setattr("sentclass.tensor._SCATTER_TARGETS", targets)
        rng = np.random.default_rng(47)
        idx = rng.choice([2, 2, 2, 5, 0, -1], size=(6, 5))
        values = rng.normal(size=(6, 5, 2, 3))
        dense = np.zeros((7, 2, 3))  # last row: the padding slot
        np.add.at(dense, np.where(idx >= 0, idx, 6).reshape(-1), values.reshape(-1, 2, 3))
        g = scatter_rows(values, idx, (6, 2, 3))
        np.testing.assert_array_equal(g.rows, [0, 2, 5])
        assert g.values.tobytes() == dense[g.rows].tobytes()

    @pytest.mark.parametrize("idx", [np.full((3, 4), -1), np.zeros((0, 4), dtype=np.int64)],
                             ids=["all-pad", "empty"])
    def test_no_rows(self, idx):
        g = scatter_rows(np.ones((*idx.shape, 5)), idx, (8, 5))
        assert g.rows.size == 0 and g.values.shape == (0, 5) and g.shape == (8, 5)

    @pytest.mark.parametrize("targets", [1, 5, 64, 1 << 15])
    def test_row_sums_of_a_window_slice_keep_the_bits(self, monkeypatch, targets):
        # the CNN sums each offset k's windows through the strided slots[:, k:k+t]
        monkeypatch.setattr("sentclass.tensor._SCATTER_TARGETS", targets)
        rng = np.random.default_rng(48)
        slots = rng.integers(0, 4, size=(5, 7))
        values = rng.normal(size=(5, 5, 3))
        for k in range(3):
            window = slots[:, k:k + 5]
            assert not window.flags.c_contiguous
            dense = np.zeros((4, 3))
            np.add.at(dense, np.ascontiguousarray(window).reshape(-1), values.reshape(-1, 3))
            assert row_sums(values, window, 4).tobytes() == dense.tobytes()

    def test_is_the_adjoint_of_gather(self):
        # <gather(w), v> = <w, scatter(v)> for every w and v
        rng = np.random.default_rng(44)
        w = rng.normal(size=(12, 5))
        idx = rng.integers(-1, 12, size=(6, 4))
        v = rng.normal(size=(6, 4, 5))
        lhs = float(np.sum(gather_rows(w, idx) * v))
        rhs = float(np.sum(w * np.asarray(scatter_rows(v, idx, w.shape))))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRng:
    def test_same_seed_same_draws(self):
        a = make_rng(77).random(10)
        b = make_rng(77).random(10)
        np.testing.assert_array_equal(a, b)

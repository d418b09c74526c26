"""Loss, Adagrad/SGD steps and the L-BFGS routine."""

import math

import numpy as np
import pytest

from sentclass.optim import AdagradState, adagrad_step, lbfgs_minimize, sgd_step
from sentclass.tensor import ShapeError, scatter_rows

from oracles import cross_entropy


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_uniform_four_way(self):
        loss = cross_entropy(np.full(4, 0.25), 2)
        assert abs(loss - 1.3862943611198906) < 1e-15  # ln 4

    def test_hand_value(self):
        loss = cross_entropy(np.array([0.2, 0.8]), 0)
        assert abs(loss - 1.6094379124341003) < 1e-12  # -ln 0.2

    def test_clamp_avoids_infinity(self):
        loss = cross_entropy(np.array([0.0, 1.0]), 0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-15))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_nonnegative_and_zero_iff_certain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.dirichlet(np.ones(5))
            label = int(rng.integers(5))
            loss = cross_entropy(z, label)
            assert loss >= 0.0
            assert (loss == 0.0) == (z[label] >= 1.0)


class TestAdagrad:
    def test_first_step_closed_form(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, -0.25])}
        state = AdagradState.for_params(params, lr=0.1, decay=0.0)
        adagrad_step(state, params, grads)
        expected = np.array([1.0, -2.0]) - 0.1 * grads["w"] / np.sqrt(grads["w"] ** 2 + 1e-8)
        np.testing.assert_allclose(params["w"], expected, atol=1e-15)
        assert state.step == 1

    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.array([3.0])}
        state = AdagradState.for_params(params, lr=0.1, decay=1e-3)
        adagrad_step(state, params, {"w": np.zeros(1)})
        np.testing.assert_array_equal(params["w"], [3.0])
        np.testing.assert_array_equal(state.accum["w"], [0.0])

    def test_two_hand_steps_on_scalar(self):
        # lr 0.1, decay 0.5: step 0 rate 0.1, step 1 rate 0.1/1.5
        params = {"w": np.array([1.0])}
        state = AdagradState.for_params(params, lr=0.1, decay=0.5)
        adagrad_step(state, params, {"w": np.array([2.0])})
        w1 = 1.0 - 0.1 * 2.0 / math.sqrt(4.0 + 1e-8)
        np.testing.assert_allclose(params["w"], [w1], atol=1e-14)
        adagrad_step(state, params, {"w": np.array([1.0])})
        w2 = w1 - (0.1 / 1.5) * 1.0 / math.sqrt(4.0 + 1.0 + 1e-8)
        np.testing.assert_allclose(params["w"], [w2], atol=1e-14)
        assert state.step == 2

    def test_constant_gradient_steps_shrink(self):
        params = {"w": np.array([0.0])}
        state = AdagradState.for_params(params, lr=0.1, decay=1e-3)
        magnitudes = []
        for _ in range(10):
            before = params["w"].copy()
            adagrad_step(state, params, {"w": np.array([1.0])})
            magnitudes.append(abs(float(params["w"][0] - before[0])))
        assert all(b <= a + 1e-15 for a, b in zip(magnitudes, magnitudes[1:]))

    def test_accumulator_monotone(self):
        params = {"w": np.zeros(3)}
        state = AdagradState.for_params(params, lr=0.01, decay=0.0)
        rng = np.random.default_rng(1)
        last = np.zeros(3)
        for _ in range(20):
            adagrad_step(state, params, {"w": rng.normal(size=3)})
            assert np.all(state.accum["w"] >= last)
            last = state.accum["w"].copy()

    def test_step_magnitude_bound(self):
        # |update| <= rate * |g| / sqrt(eps) always (accumulator >= g^2 after
        # the first step makes the realistic bound far tighter)
        params = {"w": np.zeros(4)}
        state = AdagradState.for_params(params, lr=0.05, decay=1e-3)
        rng = np.random.default_rng(2)
        for step in range(15):
            g = rng.normal(size=4)
            rate = state.lr / (1.0 + state.decay * state.step)
            before = params["w"].copy()
            adagrad_step(state, params, {"w": g})
            bound = rate * np.abs(g) / np.sqrt(state.eps)
            assert np.all(np.abs(params["w"] - before) <= bound + 1e-15)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = AdagradState.for_params(params, lr=0.1, decay=0.0)
        with pytest.raises(ShapeError):
            adagrad_step(state, params, {"w": np.zeros(4)})


class TestSgd:
    def test_zero_lr_is_identity(self):
        params = {"w": np.array([1.0, 2.0])}
        sgd_step(params, {"w": np.array([5.0, -5.0])}, lr=0.0)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_scalar_arithmetic(self):
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([2.0])}, lr=0.1)
        np.testing.assert_allclose(params["w"], [0.8], atol=1e-15)

    def test_elementwise_hand_trace(self):
        params = {"w": np.array([1.0, -1.0, 0.5]), "b": np.array([0.0])}
        grads = {"w": np.array([0.2, 0.4, -0.6]), "b": np.array([1.0])}
        sgd_step(params, grads, lr=0.5)
        np.testing.assert_allclose(params["w"], [0.9, -1.2, 0.8], atol=1e-15)
        np.testing.assert_allclose(params["b"], [-0.5], atol=1e-15)


class TestRowSparseUpdates:
    """A ``RowGrad`` update must equal, bit for bit, the dense update from
    ``np.asarray`` of the same gradient, accumulators included."""

    CASES = {
        # a hashed one-hot input table: (dim, width), rows on axis 0
        "table-axis-0": ((8192, 256), (128, 20)),
        # a CNN filter bank (embed, window, filters), one row per embed index
        "bank": ((40, 3, 6), (5, 7)),
    }

    def batches(self, shape, idx_shape, steps, seed):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            # a small pool of indices makes repeats likely; -1 is padding
            pool = rng.integers(0, shape[0], size=12)
            idx = rng.choice(np.append(pool, -1), size=idx_shape)
            yield scatter_rows(rng.normal(size=(*idx_shape, *shape[1:])), idx, shape)

    @pytest.mark.parametrize("case", CASES)
    def test_adagrad_matches_dense(self, case):
        shape, idx_shape = self.CASES[case]
        start = np.random.default_rng(1).normal(size=shape)
        sparse, dense = {"w": start.copy()}, {"w": start.copy()}
        s_state = AdagradState.for_params(sparse, lr=0.1, decay=0.01)
        d_state = AdagradState.for_params(dense, lr=0.1, decay=0.01)
        for g in self.batches(shape, idx_shape, steps=4, seed=2):
            assert g.rows.min() >= 0 and len(np.unique(g.rows)) == len(g.rows)
            adagrad_step(s_state, sparse, {"w": g})
            adagrad_step(d_state, dense, {"w": np.asarray(g)})
        assert np.array_equal(sparse["w"], dense["w"])
        assert np.array_equal(s_state.accum["w"], d_state.accum["w"])
        assert s_state.step == d_state.step == 4

    @pytest.mark.parametrize("case", CASES)
    def test_sgd_matches_dense(self, case):
        shape, idx_shape = self.CASES[case]
        start = np.random.default_rng(3).normal(size=shape)
        sparse, dense = {"w": start.copy()}, {"w": start.copy()}
        for g in self.batches(shape, idx_shape, steps=4, seed=4):
            sgd_step(sparse, {"w": g}, 0.05)
            sgd_step(dense, {"w": np.asarray(g)}, 0.05)
        assert np.array_equal(sparse["w"], dense["w"])

    def test_shape_mismatch(self):
        g = scatter_rows(np.ones((2, 3)), np.array([0, 1]), (4, 3))
        with pytest.raises(ShapeError):
            sgd_step({"w": np.zeros((5, 3))}, {"w": g}, 0.1)


class TestLbfgs:
    def test_quadratic_converges_fast(self):
        center = np.array([3.0, -1.0, 2.5, 0.0])

        def objective(x):
            delta = x - center
            return float(delta @ delta), 2.0 * delta

        result = lbfgs_minimize(objective, np.zeros(4), m=5, max_iter=10, tol=1e-10)
        assert result.converged
        assert result.iterations <= 10
        np.testing.assert_allclose(result.x, center, atol=1e-8)

    def test_start_at_minimizer_returns_immediately(self):
        def objective(x):
            return float(x @ x), 2.0 * x

        result = lbfgs_minimize(objective, np.zeros(3), tol=1e-8)
        assert result.converged
        assert result.iterations == 0
        assert result.trajectory == []

    def test_rosenbrock(self):
        def objective(v):
            x, y = v
            f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
            g = np.array([
                -2.0 * (1 - x) - 400.0 * x * (y - x * x),
                200.0 * (y - x * x),
            ])
            return float(f), g

        result = lbfgs_minimize(objective, np.array([-1.2, 1.0]), m=10,
                                max_iter=100, tol=1e-10)
        final_f, _ = objective(result.x)
        assert final_f < 1e-6
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_armijo_descent_is_monotone(self):
        def objective(v):
            x, y = v
            f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
            g = np.array([
                -2.0 * (1 - x) - 400.0 * x * (y - x * x),
                200.0 * (y - x * x),
            ])
            return float(f), g

        result = lbfgs_minimize(objective, np.array([-1.2, 1.0]), max_iter=50,
                                tol=1e-12)
        losses = [f for f, _ in result.trajectory]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_line_search_failure_returns_status(self):
        # gradient points away from any descent: f grows in every direction
        def objective(x):
            return float(np.sum(np.abs(x))) + 1.0, -np.sign(x) - 0.5

        result = lbfgs_minimize(objective, np.array([1.0]), max_iter=5, tol=1e-12)
        assert result.status == "line_search_failed"
        assert isinstance(result.x, np.ndarray)

    def test_callback_sees_each_accepted_step(self):
        seen = []

        def objective(x):
            return float(x @ x), 2.0 * x

        lbfgs_minimize(objective, np.array([4.0, 4.0]), max_iter=10, tol=1e-10,
                       callback=lambda it, x, f, g: seen.append((it, f)))
        assert seen
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))

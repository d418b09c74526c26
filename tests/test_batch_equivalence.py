"""Batched training kernels must reproduce the per-example reference ops.

The trainer touches only the batched code; these tests pin its semantics
(losses, mean gradients, probabilities, shared dropout stream) to the
per-example forward/backward functions, the hashed one-hot fast path
to the dense one-hot path, and the FNN's index-carried counts to dense
count vectors.
"""

import numpy as np
import pytest

import sentclass.models as M
from sentclass.models.cnn import (
    _grads_from_conv,
    _hashed_conv,
    _pool_batch,
    _probs_from_conv,
    cnn_batch_grads,
    cnn_batch_grads_hashed,
    cnn_batch_probs,
    cnn_batch_probs_hashed,
)
from sentclass.models.fnn import fnn_batch_loss_grads, fnn_batch_probs
from sentclass.models.lstm import (lstm_batch_grads, lstm_batch_grads_hashed, lstm_batch_probs,
                                   lstm_batch_probs_hashed)
from sentclass.models.rnn import (rnn_batch_grads, rnn_batch_grads_hashed, rnn_batch_probs,
                                  rnn_batch_probs_hashed)
from sentclass.harness.data import Dataset
from sentclass.harness.run import CountEncoder
from sentclass.optim import cross_entropy, grad_check
from sentclass.tensor import RowGrad, make_rng, softmax_rows
from sentclass.text import build_vocabulary, count_vector


def mean_reference_grads(params, xs, labels, train=False, rng=None):
    """Average per-example backward results (the contractual semantics)."""
    total = None
    losses = []
    for x, label in zip(xs, labels):
        probs, trace = M.forward(params, x, train=train, rng=rng)
        losses.append(cross_entropy(probs, int(label)))
        grads = M.backward(params, trace, int(label))
        if total is None:
            total = {k: v.copy() for k, v in grads.items()}
        else:
            for k, v in grads.items():
                total[k] += v
    return np.array(losses), {k: v / len(labels) for k, v in total.items()}


def densify(idx, dim):
    """Explicit one-hot rows for index sequences (pad = -1)."""
    dense = np.zeros((*idx.shape, dim))
    rows, cols = np.nonzero(idx >= 0)
    dense[rows, cols, idx[rows, cols]] = 1.0
    return dense


def assert_grads_close(got, want, atol=1e-12):
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_allclose(np.asarray(got[key]), want[key], atol=atol, err_msg=key)


def random_indices(rng, batch, n, dim, min_len=1):
    """Index sequences with pad tails (-1)."""
    idx = np.full((batch, n), -1, dtype=np.int64)
    for i in range(batch):
        length = int(rng.integers(min_len, n + 1))
        idx[i, :length] = rng.integers(0, dim, size=length)
    return idx


class TestFnnBatch:
    """Index-carried count rows against per-example passes on ``count_vector`` rows."""

    DIM = 16

    def setup_method(self):
        self.params = M.init_params(M.FnnSpec((self.DIM, 5, 3)), 0)
        sentences = [["cue0", "cue0", "pad1", "pad2"], ["cue1", "pad1", "cue1", "cue1"],
                     ["rare"], ["pad2", "pad1", "cue0"], ["cue1", "pad2"],
                     ["once", "twice"], ["cue0", "pad1", "pad1", "pad1", "cue1"]]
        vocab = build_vocabulary(sentences, min_count=2)  # cuts rare, once, twice
        data = Dataset([(0, tokens) for tokens in sentences], ["a"])
        self.idx = CountEncoder(vocab, self.DIM).encode_many(data)
        self.xs = np.array([count_vector(vocab.keep(tokens), self.DIM) for tokens in sentences])
        self.labels = np.random.default_rng(1).integers(0, 3, size=len(sentences))
        assert np.all(self.idx[2] == -1) and np.all(self.idx[5] == -1)  # all-pad rows
        assert self.xs.max() == 3.0  # repeated tokens count

    def batches(self):
        """B=1 (an all-pad row among them) and the whole batch."""
        return [[0], [2], [6], list(range(len(self.labels)))]

    def test_probs_match_per_example(self):
        for params in (self.params, M.init_params(M.FnnSpec((self.DIM, 3)), 2)):
            for sel in self.batches():
                batch = fnn_batch_probs(params, self.idx[sel])
                for row, i in zip(batch, sel):
                    probs, _ = M.fnn_forward(params, self.xs[i])
                    np.testing.assert_allclose(row, probs, atol=1e-12)

    def test_loss_and_grads_match_mean(self):
        for params in (self.params, M.init_params(M.FnnSpec((self.DIM, 3)), 2)):
            for sel in self.batches():
                losses, want = mean_reference_grads(params, self.xs[sel], self.labels[sel])
                got_losses, got = fnn_batch_loss_grads(params, self.idx[sel], self.labels[sel])
                assert isinstance(got["w0"], RowGrad)
                np.testing.assert_array_equal(got["w0"].rows,
                                              np.unique(self.idx[sel][self.idx[sel] >= 0]))
                np.testing.assert_allclose(got_losses, losses, atol=1e-12)
                assert_grads_close(got, want)

    def test_weight_gradients_by_finite_differences(self):
        # criterion 1's bound, through the index route
        tensors = self.params.tensors()

        def loss_fn():
            return float(fnn_batch_loss_grads(self.params, self.idx, self.labels)[0].mean())

        def grad_fn():
            _, grads = fnn_batch_loss_grads(self.params, self.idx, self.labels)
            return {name: np.asarray(g) for name, g in grads.items()}

        assert grad_check(loss_fn, grad_fn, tensors, eps=1e-5, max_coords=10_000) < 1e-4


class TestCnnBatch:
    def setup_method(self):
        self.params = M.init_params(
            M.CnnSpec(embed_dim=4, classes=3, n_filters=5, window=3, hidden=4,
                      dropout=0.0), 2)
        rng = np.random.default_rng(3)
        self.xs = rng.normal(size=(6, 7, 4))
        self.labels = rng.integers(0, 3, size=6)

    def test_probs_match_per_example(self):
        batch = cnn_batch_probs(self.params, self.xs)
        for i, x in enumerate(self.xs):
            probs, _ = M.cnn_forward(self.params, x)
            np.testing.assert_allclose(batch[i], probs, atol=1e-12)

    def test_grads_match_mean(self):
        losses, want = mean_reference_grads(self.params, self.xs, self.labels)
        got_losses, got = cnn_batch_grads(self.params, self.xs, self.labels,
                                          train=False)
        np.testing.assert_allclose(got_losses, losses, atol=1e-12)
        assert_grads_close(got, want)

    def test_train_mode_dropout_stream_matches(self):
        params = M.init_params(
            M.CnnSpec(embed_dim=4, classes=3, n_filters=5, window=3, hidden=4,
                      dropout=0.3), 4)
        # identical generator state consumed batch-wise vs example-wise
        losses_ref, want = mean_reference_grads(params, self.xs, self.labels,
                                                train=True, rng=make_rng(99))
        got_losses, got = cnn_batch_grads(params, self.xs, self.labels,
                                          train=True, rng=make_rng(99))
        np.testing.assert_allclose(got_losses, losses_ref, atol=1e-12)
        assert_grads_close(got, want)

    def test_eval_pooling_is_bit_identical_to_the_argmax_route(self):
        # ties, signed zeros and a NaN: max then ReLU gives the bits that the
        # training path's argmax and take_along_axis give after ReLU
        rng = np.random.default_rng(8)
        conv_pre = rng.integers(-2, 3, size=(6, 5, 5)).astype(float)
        conv_pre[conv_pre == 0] = -0.0
        conv_pre[0, 2, 1] = np.nan
        conv_pre[1, :, 3] = -0.0
        conv_pre[2, :, 0] = [0.0, -0.0, 0.0, -0.0, -1.0]
        conv_pre[3, :, 2] = [-0.0, 0.0, -0.0, 0.0, -2.0]
        conv_pre[4, :, 4] = 2.0
        pooled, _ = _pool_batch(np.maximum(conv_pre, 0.0))
        p = self.params
        want = softmax_rows(np.maximum(pooled @ p.w_fc + p.b_fc, 0.0) @ p.w_out + p.b_out)
        got = _probs_from_conv(p, conv_pre)
        assert np.isnan(got[0]).all() and not np.isnan(got[1:]).any()
        assert got.tobytes() == want.tobytes()

    def test_input_gradient_by_finite_differences(self):
        losses, grads, dx = cnn_batch_grads(self.params, self.xs, self.labels,
                                            train=False, want_dx=True)
        eps = 1e-6
        xs = self.xs.copy()
        for probe in ((0, 1, 2), (3, 5, 0), (5, 6, 3)):
            b, t, j = probe
            xs[b, t, j] += eps
            up, _ = cnn_batch_grads(self.params, xs, self.labels, train=False)
            xs[b, t, j] -= 2 * eps
            down, _ = cnn_batch_grads(self.params, xs, self.labels, train=False)
            xs[b, t, j] += eps
            # dx carries the gradient of the MEAN loss, like the param grads
            numeric = (up.sum() - down.sum()) / (2 * eps) / len(self.labels)
            assert dx[b, t, j] == pytest.approx(numeric, abs=1e-6)


class TestCnnHashedPath:
    def setup_method(self):
        self.dim = 16
        self.params = M.init_params(
            M.CnnSpec(embed_dim=self.dim, classes=3, n_filters=5, window=3,
                      hidden=4, dropout=0.0), 5)
        rng = np.random.default_rng(6)
        # index sequences with pad tails (-1)
        self.idx = np.full((6, 8), -1, dtype=np.int64)
        for i in range(6):
            length = int(rng.integers(3, 9))
            self.idx[i, :length] = rng.integers(0, self.dim, size=length)

    def densify(self, idx):
        return densify(idx, self.dim)

    def test_probs_match_dense_path(self):
        hashed = cnn_batch_probs_hashed(self.params, self.idx)
        dense = cnn_batch_probs(self.params, self.densify(self.idx))
        np.testing.assert_allclose(hashed, dense, atol=1e-12)

    def test_grads_match_dense_path(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        h_losses, h_grads = cnn_batch_grads_hashed(self.params, self.idx, labels,
                                                   train=False)
        d_losses, d_grads = cnn_batch_grads(self.params, self.densify(self.idx),
                                            labels, train=False)
        np.testing.assert_allclose(h_losses, d_losses, atol=1e-12)
        assert_grads_close(h_grads, d_grads)

    def test_filter_grad_is_a_scatter_add_in_input_order(self):
        # indices at several offsets of one window and in many windows, so
        # each bin sums many terms and a change of order shows in the bits
        rng = np.random.default_rng(12)
        idx = rng.choice([3, 3, 5, 5, 0, 15, -1], size=(24, 8))
        idx[0] = [3, 3, 3, 5, 3, -1, -1, -1]
        labels = rng.integers(0, 3, size=24)
        conv_pre, _ = _hashed_conv(self.params, idx)
        _, _, d_conv = _grads_from_conv(self.params, conv_pre, labels, False, None)
        _, grads = cnn_batch_grads_hashed(self.params, idx, labels, train=False)
        g = grads["filters"]
        t_steps, (_, window, o) = d_conv.shape[1], self.params.filters.shape
        dense = np.zeros((self.dim + 1, window, o))  # last row: the padding slot
        for k in range(window):
            at = np.where(idx >= 0, idx, self.dim)[:, k:k + t_steps].reshape(-1)
            np.add.at(dense[:, k, :], at, d_conv.reshape(-1, o))
        assert isinstance(g, RowGrad) and g.shape == self.params.filters.shape
        np.testing.assert_array_equal(g.rows, [0, 3, 5, 15])
        assert np.array_equal(g.values, dense[g.rows])
        assert np.array_equal(np.asarray(g), dense[:-1])

    def test_train_mode_streams_match(self):
        params = M.init_params(
            M.CnnSpec(embed_dim=self.dim, classes=3, n_filters=5, window=3,
                      hidden=4, dropout=0.2), 7)
        labels = np.array([2, 1, 0, 2, 1, 0])
        h_losses, h_grads = cnn_batch_grads_hashed(params, self.idx, labels,
                                                   train=True, rng=make_rng(5))
        d_losses, d_grads = cnn_batch_grads(params, self.densify(self.idx),
                                            labels, train=True, rng=make_rng(5))
        np.testing.assert_allclose(h_losses, d_losses, atol=1e-12)
        assert_grads_close(h_grads, d_grads)


@pytest.mark.parametrize("spec,batch_grads,batch_probs,forward", [
    (M.RnnSpec(embed_dim=4, classes=3, hidden=5, dropout=0.0),
     rnn_batch_grads, rnn_batch_probs, M.rnn_forward),
    (M.LstmSpec(embed_dim=4, classes=3, hidden=5, dropout=0.0),
     lstm_batch_grads, lstm_batch_probs, M.lstm_forward),
])
class TestRecurrentBatch:
    def test_probs_match_per_example(self, spec, batch_grads, batch_probs, forward):
        params = M.init_params(spec, 8)
        xs = np.random.default_rng(9).normal(size=(5, 6, 4))
        batch = batch_probs(params, xs)
        for i, x in enumerate(xs):
            probs, _ = forward(params, x)
            np.testing.assert_allclose(batch[i], probs, atol=1e-12)

    def test_grads_match_mean(self, spec, batch_grads, batch_probs, forward):
        params = M.init_params(spec, 10)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(5, 6, 4))
        labels = rng.integers(0, 3, size=5)
        losses_ref, want = mean_reference_grads(params, xs, labels)
        losses, got = batch_grads(params, xs, labels, train=False)
        np.testing.assert_allclose(losses, losses_ref, atol=1e-12)
        assert_grads_close(got, want)

    def test_train_mode_dropout_stream(self, spec, batch_grads, batch_probs, forward):
        params = M.init_params(type(spec)(embed_dim=4, classes=3, hidden=5,
                                          dropout=0.25), 12)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(4, 5, 4))
        labels = rng.integers(0, 3, size=4)
        losses_ref, want = mean_reference_grads(params, xs, labels, train=True,
                                                rng=make_rng(77))
        losses, got = batch_grads(params, xs, labels, train=True, rng=make_rng(77))
        np.testing.assert_allclose(losses, losses_ref, atol=1e-12)
        assert_grads_close(got, want)

    def test_input_gradients_by_finite_differences(self, spec, batch_grads,
                                                   batch_probs, forward):
        params = M.init_params(spec, 14)
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(3, 4, 4))
        labels = rng.integers(0, 3, size=3)
        _, _, dx = batch_grads(params, xs, labels, train=False, want_dx=True)
        eps = 1e-6
        for probe in ((0, 0, 1), (1, 3, 2), (2, 2, 0)):
            b, t, j = probe
            xs[b, t, j] += eps
            up, _ = batch_grads(params, xs, labels, train=False)
            xs[b, t, j] -= 2 * eps
            down, _ = batch_grads(params, xs, labels, train=False)
            xs[b, t, j] += eps
            numeric = (up.sum() - down.sum()) / (2 * eps) / len(labels)
            assert dx[b, t, j] == pytest.approx(numeric, abs=1e-6)


@pytest.mark.parametrize("spec,dense_probs,hashed_probs", [
    (M.RnnSpec(embed_dim=16, classes=3, hidden=5), rnn_batch_probs, rnn_batch_probs_hashed),
    (M.LstmSpec(embed_dim=16, classes=3, hidden=5), lstm_batch_probs, lstm_batch_probs_hashed),
], ids=["rnn", "lstm"])
def test_recurrent_hashed_probs_match_dense_path(spec, dense_probs, hashed_probs):
    params = M.init_params(spec, 16)
    rng = np.random.default_rng(17)
    idx = np.full((6, 8), -1, dtype=np.int64)
    for i in range(6):
        length = int(rng.integers(1, 9))
        idx[i, :length] = rng.integers(0, 16, size=length)
    np.testing.assert_allclose(hashed_probs(params, idx),
                               dense_probs(params, densify(idx, 16)), atol=1e-12)


RECURRENT_HASHED = {
    "rnn": (M.RnnSpec, rnn_batch_grads, rnn_batch_grads_hashed),
    "lstm": (M.LstmSpec, lstm_batch_grads, lstm_batch_grads_hashed),
}


@pytest.mark.parametrize("arch", RECURRENT_HASHED)
class TestRecurrentHashedGrads:
    """Index kernels against the dense kernels on explicit one-hot rows."""

    @pytest.mark.parametrize("batch", [1, 6])
    def test_grads_match_dense_path(self, arch, batch):
        spec, dense_grads, hashed_grads = RECURRENT_HASHED[arch]
        params = M.init_params(spec(embed_dim=16, classes=3, hidden=5, dropout=0.0), 18)
        rng = np.random.default_rng(19)
        idx = random_indices(rng, batch, 8, 16)
        labels = rng.integers(0, 3, size=batch)
        h_losses, h_grads = hashed_grads(params, idx, labels, train=False)
        d_losses, d_grads = dense_grads(params, densify(idx, 16), labels, train=False)
        np.testing.assert_allclose(h_losses, d_losses, atol=1e-12)
        assert_grads_close(h_grads, d_grads)

    def test_train_mode_dropout_stream_matches(self, arch):
        spec, dense_grads, hashed_grads = RECURRENT_HASHED[arch]
        params = M.init_params(spec(embed_dim=16, classes=3, hidden=5, dropout=0.3), 20)
        rng = np.random.default_rng(21)
        idx = random_indices(rng, 5, 7, 16)
        labels = rng.integers(0, 3, size=5)
        h_losses, h_grads = hashed_grads(params, idx, labels, train=True, rng=make_rng(6))
        d_losses, d_grads = dense_grads(params, densify(idx, 16), labels, train=True,
                                        rng=make_rng(6))
        np.testing.assert_allclose(h_losses, d_losses, atol=1e-12)
        assert_grads_close(h_grads, d_grads)

    def test_grads_by_finite_differences(self, arch):
        # criterion 1's bound, through the route hashed training takes
        spec, _, hashed_grads = RECURRENT_HASHED[arch]
        params = M.init_params(spec(embed_dim=10, classes=3, hidden=4, dropout=0.0), 22)
        rng = np.random.default_rng(23)
        idx = random_indices(rng, 4, 5, 10)
        labels = rng.integers(0, 3, size=4)

        def loss_fn():
            return float(hashed_grads(params, idx, labels, train=False)[0].mean())

        def grad_fn():
            _, grads = hashed_grads(params, idx, labels, train=False)
            return {name: np.asarray(g) for name, g in grads.items()}

        assert grad_check(loss_fn, grad_fn, params.tensors(), max_coords=10_000) < 1e-4


class TestKernelsLeaveTheirInputs:
    """The recurrent kernels write their gates and hidden states in place, into
    buffers of their own: the gather and the input projection hand back fresh
    arrays, so no route writes through to the parameters, the batch or the
    encoder's embedding matrix."""

    @staticmethod
    def assert_untouched(arrays, call):
        before = [a.copy() for a in arrays]
        call()
        for was, now in zip(before, arrays):
            assert np.array_equal(now, was)

    def check_route(self, params, batch, labels, probs, grads, extra=()):
        arrays = [*params.tensors().values(), batch, *extra]
        self.assert_untouched(arrays, lambda: probs(params, batch))
        self.assert_untouched(arrays, lambda: grads(params, batch, labels, train=True,
                                                    rng=make_rng(3)))

    def test_fnn_counts(self):
        rng = np.random.default_rng(30)
        params = M.init_params(M.FnnSpec((16, 5, 3)), 31)
        idx = random_indices(rng, 5, 7, 16)
        self.check_route(params, idx, rng.integers(0, 3, size=5),
                         fnn_batch_probs, fnn_batch_loss_grads)

    @pytest.mark.parametrize("route", ["dense", "hashed"])
    @pytest.mark.parametrize("arch", ["cnn", "rnn", "lstm"])
    def test_sequence_kernels(self, arch, route):
        family = M.FAMILIES[arch]
        sizes = dict(n_filters=4) if arch == "cnn" else {}
        params = M.init_params(family.spec(embed_dim=12, classes=3, hidden=5, dropout=0.3,
                                           **sizes), 32)
        rng = np.random.default_rng(33)
        labels = rng.integers(0, 3, size=4)
        if route == "hashed":
            self.check_route(params, random_indices(rng, 4, 6, 12), labels,
                             family.hashed_probs, family.hashed_grads)
        else:
            def grads(*args, **kwargs):
                return family.grads(*args, want_dx=True, **kwargs)
            self.check_route(params, rng.normal(size=(4, 6, 12)), labels, family.probs, grads)

    @pytest.mark.parametrize("arch", ["cnn", "rnn", "lstm"])
    def test_fine_tuned_embedding_route(self, arch):
        from sentclass.embeddings import EmbeddingTable
        from sentclass.harness.run import DenseSequenceEncoder, RunConfig, _batch_functions
        rng = np.random.default_rng(34)
        table = EmbeddingTable(dim=6, entries={t: rng.normal(size=6) for t in "abcd"},
                               oov_policy="random-fixed", oov_seed=1)
        encoder = DenseSequenceEncoder(table, max_len=5)
        sentences = [["a", "b", "zz"], ["c", "a", "d", "b", "a"], ["d"], ["b", "yy", "c"]]
        idx = encoder.encode_many(Dataset([(0, t) for t in sentences], ["a"]))
        cfg = RunConfig(arch=arch, encoding="glove", fine_tune=True, hidden=5, dropout=0.3)
        sizes = dict(n_filters=4) if arch == "cnn" else {}
        params = M.init_params(M.FAMILIES[arch].spec(embed_dim=6, classes=3, hidden=5,
                                                     dropout=0.3, **sizes), 35)
        grads_fn, probs_fn = _batch_functions(cfg, encoder)
        labels = rng.integers(0, 3, size=len(sentences))
        arrays = [*params.tensors().values(), idx, encoder.matrix]
        self.assert_untouched(arrays, lambda: probs_fn(params, idx))
        self.assert_untouched(arrays, lambda: grads_fn(params, idx, labels, make_rng(4)))


# (batch, steps, hidden) at which one product over the four gates, or one over
# all steps, does not give the bits of per-gate, per-step products
LSTM_FUSED_SHAPES = [(1, 4, 17), (2, 4, 17), (7, 4, 17), (33, 4, 17),
                     (1, 5, 2), (1, 5, 3), (1, 5, 5), (1, 5, 6), (33, 20, 17)]


@pytest.mark.parametrize("batch,steps,hidden", LSTM_FUSED_SHAPES,
                         ids=[f"B{b}-n{n}-h{h}" for b, n, h in LSTM_FUSED_SHAPES])
class TestLstmFusedShapes:
    """Both LSTM routes against the per-example oracle (1e-12) and central
    differences (criterion 1's 1e-4) where the fused products move bits."""

    DIM = 6

    def case(self, batch, steps, hidden):
        params = M.init_params(M.LstmSpec(embed_dim=self.DIM, classes=3, hidden=hidden,
                                          dropout=0.0), hidden)
        rng = np.random.default_rng(batch * 100 + steps)
        idx = random_indices(rng, batch, steps, self.DIM)
        return params, idx, rng.integers(0, 3, size=batch)

    def test_routes_match_per_example(self, batch, steps, hidden):
        params, idx, labels = self.case(batch, steps, hidden)
        xs = np.random.default_rng(1).normal(size=(*idx.shape, self.DIM))
        for route, batch_in, inputs, probs, grads in (
                ("dense", xs, xs, lstm_batch_probs, lstm_batch_grads),
                ("hashed", idx, densify(idx, self.DIM), lstm_batch_probs_hashed,
                 lstm_batch_grads_hashed)):
            for got, x in zip(probs(params, batch_in), inputs):
                np.testing.assert_allclose(got, M.lstm_forward(params, x)[0], atol=1e-12)
            losses_ref, want = mean_reference_grads(params, inputs, labels)
            losses, got = grads(params, batch_in, labels, train=False)
            np.testing.assert_allclose(losses, losses_ref, atol=1e-12, err_msg=route)
            assert_grads_close(got, want)

    def test_grads_by_finite_differences(self, batch, steps, hidden):
        params, idx, labels = self.case(batch, steps, hidden)
        xs = np.random.default_rng(2).normal(size=(*idx.shape, self.DIM))
        for route, batch_in, grads in (("dense", xs, lstm_batch_grads),
                                       ("hashed", idx, lstm_batch_grads_hashed)):
            def loss_fn():
                return float(grads(params, batch_in, labels, train=False)[0].mean())

            def grad_fn():
                return {k: np.asarray(g) for k, g in grads(params, batch_in, labels,
                                                           train=False)[1].items()}

            worst = grad_check(loss_fn, grad_fn, params.tensors(), max_coords=120)
            assert worst < 1e-4, route

    def test_input_grads_by_finite_differences(self, batch, steps, hidden):
        params, idx, labels = self.case(batch, steps, hidden)
        xs = np.random.default_rng(3).normal(size=(*idx.shape, self.DIM))

        def loss_fn():
            return float(lstm_batch_grads(params, xs, labels, train=False)[0].mean())

        def grad_fn():
            return {"xs": lstm_batch_grads(params, xs, labels, train=False, want_dx=True)[2]}

        assert grad_check(loss_fn, grad_fn, {"xs": xs}, max_coords=120) < 1e-4

"""Forward-pass semantics for the four architectures.

Hand-trace tests recompute the expected values with plain scalar Python
(independent of the vectorized implementation paths).
"""

import dataclasses
import math

import numpy as np
import pytest

import sentclass.models as M
from sentclass.embeddings import EmbeddingTable
from sentclass.harness.data import Dataset
from sentclass.harness.run import CountEncoder, DenseSequenceEncoder, predict

import oracles
from oracles import SequenceTooShortError, embedding_rows, make_rng


def s(v):
    return 1.0 / (1.0 + math.exp(-v))


def softmax_list(values):
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


class TestFnnForward:
    def test_zero_params_give_uniform_output(self):
        params = M.FnnParams(
            weights=[np.zeros((4, 3)), np.zeros((3, 5))],
            biases=[np.zeros(3), np.zeros(5)],
        )
        probs, trace = oracles.fnn_forward(params, np.array([1.0, -2.0, 0.5, 3.0]))
        np.testing.assert_allclose(trace.activations[1], 0.5)
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-15)

    def test_single_layer_is_linear_softmax(self):
        rng = np.random.default_rng(0)
        w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        x = rng.normal(size=3)
        params = M.FnnParams(weights=[w], biases=[b])
        probs, _ = oracles.fnn_forward(params, x)
        np.testing.assert_allclose(probs, softmax_list(list(x @ w + b)), atol=1e-12)

    def test_hand_trace_2_3_2(self):
        w1 = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
        b1 = np.array([0.05, -0.05, 0.1])
        w2 = np.array([[1.0, -1.0], [0.5, 0.5], [-0.25, 0.75]])
        b2 = np.array([0.2, -0.1])
        x = np.array([2.0, -1.0])
        params = M.FnnParams(weights=[w1, w2], biases=[b1, b2])
        probs, trace = oracles.fnn_forward(params, x)
        # layer 1, neuron by neuron
        h = [
            s(2.0 * 0.1 + (-1.0) * 0.4 + 0.05),
            s(2.0 * (-0.2) + (-1.0) * 0.5 + (-0.05)),
            s(2.0 * 0.3 + (-1.0) * (-0.6) + 0.1),
        ]
        np.testing.assert_allclose(trace.activations[1], h, atol=1e-15)
        z = [
            h[0] * 1.0 + h[1] * 0.5 + h[2] * (-0.25) + 0.2,
            h[0] * (-1.0) + h[1] * 0.5 + h[2] * 0.75 + (-0.1),
        ]
        np.testing.assert_allclose(probs, softmax_list(z), atol=1e-15)

    def test_input_shape_checked(self):
        params = M.init_params(M.FnnSpec((3, 2)), 0)
        with pytest.raises(Exception, match="shape"):
            oracles.fnn_forward(params, np.zeros(4))


class TestCnnForward:
    def small_params(self, dropout=0.0):
        return M.CnnParams(
            filters=np.array([
                [[0.1, -0.1], [0.2, 0.3]],
                [[-0.4, 0.5], [0.6, -0.2]],
            ]).transpose(1, 2, 0),  # given as o=2, d=2, w=2; stored (d, w, o)
            conv_bias=np.array([0.05, -0.1]),
            w_fc=np.array([[0.3, -0.5], [0.7, 0.2]]),
            b_fc=np.array([0.1, 0.0]),
            w_out=np.array([[1.0, -1.0], [0.5, 0.25]]),
            b_out=np.array([0.0, 0.1]),
            dropout=dropout,
        )

    def test_zero_params_uniform(self):
        params = M.CnnParams(
            filters=np.zeros((2, 2, 3)), conv_bias=np.zeros(3),
            w_fc=np.zeros((3, 4)), b_fc=np.zeros(4),
            w_out=np.zeros((4, 5)), b_out=np.zeros(5), dropout=0.0,
        )
        probs, _ = oracles.cnn_forward(params, np.ones((6, 2)))
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-15)

    def test_eval_mode_is_deterministic(self):
        params = self.small_params(dropout=0.5)
        x = np.random.default_rng(1).normal(size=(5, 2))
        p1, _ = oracles.cnn_forward(params, x, train=False)
        p2, _ = oracles.cnn_forward(params, x, train=False)
        np.testing.assert_array_equal(p1, p2)

    def test_hand_instance_matches_chained_oracles(self):
        params = self.small_params()
        x = np.array([[1.0, 0.5], [-1.0, 2.0], [0.25, -0.75], [2.0, 1.0]])
        probs, trace = oracles.cnn_forward(params, x)
        # convolution by explicit quadruple loop
        n, d = x.shape
        _, w, o = params.filters.shape
        conv = np.zeros((n - w + 1, o))
        for t in range(n - w + 1):
            for i in range(o):
                acc = params.conv_bias[i]
                for j in range(d):
                    for k in range(w):
                        acc += params.filters[j, k, i] * x[t + k, j]
                conv[t, i] = acc
        relud = np.maximum(conv, 0.0)
        pooled = [max(relud[:, i]) for i in range(o)]
        fc = [max(0.0, sum(pooled[j] * params.w_fc[j, i] for j in range(o))
                  + params.b_fc[i]) for i in range(2)]
        logits = [sum(fc[j] * params.w_out[j, i] for j in range(2)) + params.b_out[i]
                  for i in range(2)]
        np.testing.assert_allclose(trace.pooled, pooled, atol=1e-12)
        np.testing.assert_allclose(probs, softmax_list(logits), atol=1e-12)

    def test_sequence_shorter_than_window_rejected(self):
        params = self.small_params()
        with pytest.raises(SequenceTooShortError):
            oracles.cnn_forward(params, np.ones((1, 2)))

    def test_training_mode_needs_rng(self):
        params = self.small_params(dropout=0.5)
        with pytest.raises(ValueError):
            oracles.cnn_forward(params, np.ones((4, 2)), train=True)

    def test_appending_zero_rows_keeps_eval_output(self):
        # constructed so old window maxima dominate rows that mix in padding:
        # non-negative filters constant across offsets, non-negative inputs
        rng = np.random.default_rng(3)
        g = rng.uniform(0.1, 1.0, size=(3, 2))
        params = M.CnnParams(
            filters=np.stack([g, g], axis=2).transpose(1, 2, 0),  # same slice at both offsets
            conv_bias=np.zeros(3),
            w_fc=rng.normal(size=(3, 4)), b_fc=rng.normal(size=4),
            w_out=rng.normal(size=(4, 2)), b_out=rng.normal(size=2),
            dropout=0.0,
        )
        x = rng.uniform(0.5, 2.0, size=(5, 2))
        base_probs, base_trace = oracles.cnn_forward(params, x)
        padded = np.vstack([x, np.zeros((3, 2))])
        probs, trace = oracles.cnn_forward(params, padded)
        np.testing.assert_allclose(trace.pooled, base_trace.pooled, atol=1e-12)
        np.testing.assert_allclose(probs, base_probs, atol=1e-12)


class TestRnnForward:
    def test_zero_weights_give_half_hidden(self):
        params = M.RnnParams(
            w_in=np.zeros((3, 4)), w_rec=np.zeros((4, 4)), b_rec=np.zeros(4),
            w_head=np.zeros((4, 2)), b_head=np.zeros(2), dropout=0.0,
        )
        probs, trace = oracles.rnn_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(trace.hiddens, 0.5)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_single_step_base_case(self):
        params = M.init_params(M.RnnSpec(embed_dim=3, classes=2, hidden=4, dropout=0.0), 7)
        x = np.random.default_rng(5).normal(size=(1, 3))
        _, trace = oracles.rnn_forward(params, x)
        manual = 1.0 / (1.0 + np.exp(-(x[0] @ params.w_in + params.b_rec)))
        np.testing.assert_allclose(trace.hiddens[0], manual, atol=1e-12)

    def test_hand_trace_three_steps(self):
        params = M.RnnParams(
            w_in=np.array([[0.5], [-0.25]]).T.reshape(1, 2) * 0 + np.array([[0.5, -0.25]]),
            w_rec=np.array([[0.1, 0.2], [-0.3, 0.4]]),
            b_rec=np.array([0.05, -0.05]),
            w_head=np.array([[1.0, -1.0], [0.5, 0.5]]),
            b_head=np.array([0.0, 0.2]),
            dropout=0.0,
        )
        x = np.array([[1.0], [-2.0], [0.5]])
        probs, trace = oracles.rnn_forward(params, x)
        h = [0.0, 0.0]
        per_step = []
        for t in range(3):
            pre0 = x[t, 0] * 0.5 + h[0] * 0.1 + h[1] * (-0.3) + 0.05
            pre1 = x[t, 0] * (-0.25) + h[0] * 0.2 + h[1] * 0.4 + (-0.05)
            h = [s(pre0), s(pre1)]
            per_step.append(list(h))
        np.testing.assert_allclose(trace.hiddens, per_step, atol=1e-12)
        logits = [h[0] * 1.0 + h[1] * 0.5, h[0] * (-1.0) + h[1] * 0.5 + 0.2]
        np.testing.assert_allclose(probs, softmax_list(logits), atol=1e-12)

    def test_exactly_n_steps_recorded(self):
        params = M.init_params(M.RnnSpec(embed_dim=2, classes=2, hidden=3, dropout=0.0), 1)
        _, trace = oracles.rnn_forward(params, np.ones((6, 2)))
        assert trace.hiddens.shape == (6, 3)

    def test_hashed_probs_keep_the_bits_of_the_all_states_buffer(self):
        # eval keeps one state; the gradient route builds every step's state
        from sentclass.models import rnn
        from sentclass.tensor import gather_rows, softmax_rows
        params = M.init_params(M.RnnSpec(embed_dim=64, classes=3, hidden=16, dropout=0.1), 2)
        rng = np.random.default_rng(3)
        for b, n in ((1, 1), (5, 7), (33, 20)):
            idx = rng.integers(-1, 64, (b, n))
            hs = rnn._batch_hiddens(params, gather_rows(params.w_in, idx.T))
            expected = softmax_rows(hs[-1] @ params.w_head + params.b_head)
            assert np.array_equal(rnn.rnn_batch_probs_hashed(params, idx), expected)


class TestLstmForward:
    def zero_params(self, d=3, h=4, k=2):
        return M.LstmParams(wx=np.zeros((d, 4 * h)), wh=np.zeros((h, 4 * h)), b=np.zeros(4 * h),
                            w_head=np.zeros((h, k)), b_head=np.zeros(k), dropout=0.0)

    def test_all_zero_parameters_collapse(self):
        params = self.zero_params()
        probs, trace = oracles.lstm_forward(params, np.ones((5, 3)))
        # gates 0.5, candidate tanh(0)=0, so cell and hidden stay 0
        np.testing.assert_allclose(trace.gate_i, 0.5)
        np.testing.assert_allclose(trace.cand, 0.0)
        np.testing.assert_allclose(trace.cell, 0.0)
        np.testing.assert_allclose(trace.hiddens, 0.0)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_saturated_gates_carry_memory(self):
        params = self.zero_params()
        b_i, b_f, _, _ = np.split(params.b, 4)
        b_f[:] = 50.0   # forget gate pinned at 1
        b_i[:] = -50.0  # input gate pinned at 0
        _, trace = oracles.lstm_forward(params, np.random.default_rng(2).normal(size=(6, 3)))
        # cell starts at zero and nothing can be written
        assert np.max(np.abs(trace.cell)) < 1e-12

    def test_hand_trace_two_steps(self):
        d, h = 1, 2
        vals = {
            "wx_i": [[0.3, -0.2]], "wh_i": [[0.1, 0.0], [0.2, -0.1]], "b_i": [0.05, 0.0],
            "wx_f": [[-0.4, 0.25]], "wh_f": [[0.0, 0.3], [-0.2, 0.1]], "b_f": [1.0, 1.0],
            "wx_o": [[0.5, 0.1]], "wh_o": [[0.2, 0.2], [0.0, -0.3]], "b_o": [0.0, -0.05],
            "wx_g": [[-0.1, 0.6]], "wh_g": [[0.4, -0.4], [0.1, 0.1]], "b_g": [0.0, 0.2],
        }
        # the stored tensors hold the gates side by side, in i, f, o, g order
        fields = {kind: np.concatenate([np.array(vals[f"{kind}_{gate}"], dtype=float)
                                        for gate in "ifog"], axis=-1)
                  for kind in ("wx", "wh", "b")}
        params = M.LstmParams(w_head=np.array([[1.0, -0.5], [0.25, 0.75]]),
                              b_head=np.array([0.1, -0.1]), dropout=0.0, **fields)
        x = np.array([[0.8], [-1.2]])
        probs, trace = oracles.lstm_forward(params, x)

        hh = [0.0, 0.0]
        cc = [0.0, 0.0]
        for t in range(2):
            xt = x[t, 0]
            gi = [s(xt * vals["wx_i"][0][j] + hh[0] * vals["wh_i"][0][j]
                    + hh[1] * vals["wh_i"][1][j] + vals["b_i"][j]) for j in range(h)]
            gf = [s(xt * vals["wx_f"][0][j] + hh[0] * vals["wh_f"][0][j]
                    + hh[1] * vals["wh_f"][1][j] + vals["b_f"][j]) for j in range(h)]
            go = [s(xt * vals["wx_o"][0][j] + hh[0] * vals["wh_o"][0][j]
                    + hh[1] * vals["wh_o"][1][j] + vals["b_o"][j]) for j in range(h)]
            gu = [math.tanh(xt * vals["wx_g"][0][j] + hh[0] * vals["wh_g"][0][j]
                            + hh[1] * vals["wh_g"][1][j] + vals["b_g"][j]) for j in range(h)]
            cc = [gi[j] * gu[j] + gf[j] * cc[j] for j in range(h)]
            hh = [go[j] * math.tanh(cc[j]) for j in range(h)]
            np.testing.assert_allclose(trace.gate_i[t], gi, atol=1e-12)
            np.testing.assert_allclose(trace.gate_f[t], gf, atol=1e-12)
            np.testing.assert_allclose(trace.gate_o[t], go, atol=1e-12)
            np.testing.assert_allclose(trace.cand[t], gu, atol=1e-12)
            np.testing.assert_allclose(trace.cell[t], cc, atol=1e-12)
            np.testing.assert_allclose(trace.hiddens[t], hh, atol=1e-12)
        logits = [hh[0] * 1.0 + hh[1] * 0.25 + 0.1,
                  hh[0] * (-0.5) + hh[1] * 0.75 - 0.1]
        np.testing.assert_allclose(probs, softmax_list(logits), atol=1e-12)

    def test_single_step_base_case(self):
        params = M.init_params(M.LstmSpec(embed_dim=2, classes=3, hidden=3, dropout=0.0), 9)
        x = np.random.default_rng(4).normal(size=(1, 2))
        _, trace = oracles.lstm_forward(params, x)
        wx_i, wx_f, wx_o, wx_g = np.split(params.wx, 4, axis=1)
        b_i, b_f, b_o, b_g = np.split(params.b, 4)
        gi = 1.0 / (1.0 + np.exp(-(x[0] @ wx_i + b_i)))
        gf = 1.0 / (1.0 + np.exp(-(x[0] @ wx_f + b_f)))
        go = 1.0 / (1.0 + np.exp(-(x[0] @ wx_o + b_o)))
        gu = np.tanh(x[0] @ wx_g + b_g)
        c1 = gi * gu  # forget term vanishes against the zero initial cell
        np.testing.assert_allclose(trace.cell[0], c1, atol=1e-12)
        np.testing.assert_allclose(trace.hiddens[0], go * np.tanh(c1), atol=1e-12)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        spec = M.LstmSpec(embed_dim=5, classes=3, hidden=4, dropout=0.1)
        a, b = M.init_params(spec, 42), M.init_params(spec, 42)
        for name, tensor in a.tensors().items():
            np.testing.assert_array_equal(tensor, b.tensors()[name])

    def test_lstm_gates_drawn_in_turn_then_set_side_by_side(self):
        # each gate's blocks are drawn in i, f, o, g order, as separate
        # per-gate tensors were, so a seed gives the same weights
        params = M.init_params(M.LstmSpec(embed_dim=3, classes=2, hidden=4), 7)
        rng = np.random.default_rng(7)
        wx, wh = [], []
        for _ in range(4):
            wx.append(rng.uniform(-np.sqrt(6 / 7), np.sqrt(6 / 7), (3, 4)))
            wh.append(rng.uniform(-np.sqrt(6 / 8), np.sqrt(6 / 8), (4, 4)))
        w_head = rng.uniform(-1.0, 1.0, (4, 2))
        assert np.array_equal(params.wx, np.concatenate(wx, axis=1))
        assert np.array_equal(params.wh, np.concatenate(wh, axis=1))
        assert np.array_equal(params.w_head, w_head)
        assert params.wx.flags.c_contiguous and params.wh.flags.c_contiguous

    def test_biases_zero_except_forget_gate(self):
        params = M.init_params(M.LstmSpec(embed_dim=3, classes=2, hidden=4), 0)
        b_i, b_f, b_o, b_g = np.split(params.b, 4)
        np.testing.assert_array_equal(b_f, np.ones(4))
        for bias in (b_i, b_o, b_g, params.b_head):
            np.testing.assert_array_equal(bias, 0.0)
        cnn = M.init_params(M.CnnSpec(embed_dim=3, classes=2), 0)
        for name in ("conv_bias", "b_fc", "b_out"):
            np.testing.assert_array_equal(cnn.tensors()[name], 0.0)

    def test_weight_moments(self):
        # uniform(-b, b) has mean 0 and sd b/sqrt(3); check the empirical
        # mean of a large draw against 3 sigma / sqrt(count)
        params = M.init_params(M.FnnSpec((100, 100, 2)), 123)
        w = params.weights[0].ravel()
        bound = np.sqrt(6.0 / 200)
        assert abs(w.mean()) < 3 * (bound / np.sqrt(3)) / np.sqrt(w.size)
        assert np.all(np.abs(w) <= bound)

    @pytest.mark.parametrize("n_filters", [16, 37])
    def test_cnn_bank_is_the_filter_major_draw_transposed(self, n_filters):
        # the bank is drawn in blocks of filters; 37 leaves a partial block
        params = M.init_params(M.CnnSpec(embed_dim=7, classes=3, n_filters=n_filters,
                                         window=3, hidden=4), 21)
        rng = np.random.default_rng(21)
        bound = np.sqrt(6.0 / (7 * 3 + n_filters))
        draw = rng.uniform(-bound, bound, (n_filters, 7, 3))
        assert params.filters.shape == (7, 3, n_filters) and params.filters.flags.c_contiguous
        assert np.array_equal(params.filters, draw.transpose(1, 2, 0))
        bound = np.sqrt(6.0 / (n_filters + 4))
        assert np.array_equal(params.w_fc, rng.uniform(-bound, bound, (n_filters, 4)))

    def test_glorot_bound_per_layer(self):
        params = M.init_params(M.CnnSpec(embed_dim=4, classes=3, n_filters=8,
                                         window=2, hidden=5), 3)
        assert np.max(np.abs(params.filters)) <= np.sqrt(6.0 / (4 * 2 + 8))
        assert np.max(np.abs(params.w_fc)) <= np.sqrt(6.0 / (8 + 5))


class TestTensorTable:
    @pytest.mark.parametrize("arch", ["cnn", "rnn", "lstm"])
    def test_dims_names_the_array_fields_in_order(self, arch):
        # a tensor missing from DIMS would drop from checkpoints and the optimizer
        cls = M.FAMILIES[arch].params
        arrays = [f.name for f in dataclasses.fields(cls) if f.type is np.ndarray]
        assert list(cls.DIMS) == arrays


class TestPredict:
    """The prediction rule of ``run.predict``, the route ``sentclass predict``
    and ``evaluate`` share."""

    def test_uniform_output_ties_to_class_zero(self):
        params = M.FnnParams(weights=[np.zeros((3, 4))], biases=[np.zeros(4)])
        # rows arrive encoded as hashed count indices; the encoder only names their carrier
        idx = np.array([[0, 1, 2], [2, 2, -1]])
        assert list(predict(params, idx, CountEncoder(None, 3))) == [0, 0]

    def test_argmax_of_probs(self):
        rng = np.random.default_rng(8)
        params = M.init_params(M.CnnSpec(embed_dim=3, classes=4, n_filters=5,
                                         window=2, hidden=4, dropout=0.0), 11)
        vocab = [f"w{i}" for i in range(12)]
        table = EmbeddingTable(dim=3, entries={t: rng.normal(size=3) for t in vocab[:8]},
                               oov_policy="random-fixed")
        encoder = DenseSequenceEncoder(table, 6)
        sentences = [[vocab[k] for k in rng.integers(0, 12, size=rng.integers(1, 8))]
                     for _ in range(10)]
        idx = encoder.encode_many(Dataset([(0, tokens) for tokens in sentences], ["a"]))
        want = [int(np.argmax(oracles.cnn_forward(params, embedding_rows(encoder, tokens))[0]))
                for tokens in sentences]
        assert list(predict(params, idx, encoder)) == want

    def test_invariant_under_monotone_logit_transform(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 3))
        idx = np.array([[3, 0, 3, 1, -1]])
        logits = np.array([1.0, 1.0, 0.0, 2.0]) @ w  # the counts of idx
        base = predict(M.FnnParams([w], [np.zeros(3)]), idx, CountEncoder(None, 4))[0]
        for transform in (lambda z: 2.0 * z + 1.0, np.exp, lambda z: z ** 3):
            shifted = transform(logits)
            e = np.exp(shifted - shifted.max())
            assert int(np.argmax(e / e.sum())) == base


class TestBackwardContracts:
    @pytest.mark.parametrize("spec,shape", [
        (M.FnnSpec((4, 3, 2)), (4,)),
        (M.CnnSpec(embed_dim=3, classes=2, n_filters=4, window=2, hidden=3,
                   dropout=0.0), (5, 3)),
        (M.RnnSpec(embed_dim=3, classes=2, hidden=4, dropout=0.0), (5, 3)),
        (M.LstmSpec(embed_dim=3, classes=2, hidden=4, dropout=0.0), (5, 3)),
    ])
    def test_gradient_shapes_match_parameters(self, spec, shape):
        params = M.init_params(spec, 21)
        x = np.random.default_rng(22).normal(size=shape)
        _, trace = oracles.forward(params, x)
        grads = oracles.backward(params, trace, 1)
        tensors = params.tensors()
        assert set(grads) == set(tensors)
        for name in tensors:
            assert grads[name].shape == tensors[name].shape

    def test_perfect_prediction_zeroes_logit_gradient(self):
        # drive the true-class probability to machine 1
        params = M.FnnParams(weights=[np.array([[200.0, -200.0]])],
                             biases=[np.zeros(2)])
        probs, trace = oracles.fnn_forward(params, np.array([1.0]))
        assert probs[0] == 1.0
        grads = oracles.fnn_backward(params, trace, 0)
        assert np.max(np.abs(grads["b0"])) < 1e-12

    def test_trace_mismatch_rejected(self):
        fnn = M.init_params(M.FnnSpec((3, 2)), 0)
        cnn = M.init_params(M.CnnSpec(embed_dim=3, classes=2), 0)
        _, trace = oracles.forward(fnn, np.zeros(3))
        with pytest.raises(TypeError):
            oracles.backward(cnn, trace, 0)

    def test_dropout_path_round_trips(self):
        params = M.init_params(M.LstmSpec(embed_dim=3, classes=2, hidden=4,
                                          dropout=0.4), 5)
        x = np.random.default_rng(6).normal(size=(4, 3))
        _, trace = oracles.lstm_forward(params, x, train=True, rng=make_rng(0))
        assert trace.drop_mask is not None
        grads = oracles.lstm_backward(params, trace, 1)
        assert set(grads) == set(params.tensors())

"""Analytic gradients against central finite differences."""

import numpy as np

import sentclass.models as M

import oracles
from oracles import cross_entropy, grad_check, make_rng


def model_checker(params, x, label):
    """loss/grad closures over the live parameter arrays (eval mode)."""

    def loss_fn():
        probs, _ = oracles.forward(params, x, train=False)
        return cross_entropy(probs, label)

    def grad_fn():
        _, trace = oracles.forward(params, x, train=False)
        return oracles.backward(params, trace, label)

    return loss_fn, grad_fn


def check_instance(spec, x, label, seed, eps=1e-5):
    params = M.init_params(spec, seed)
    loss_fn, grad_fn = model_checker(params, x, label)
    return grad_check(loss_fn, grad_fn, params.tensors(), eps=eps, max_coords=10_000)


class TestArchitectureGradients:
    """Small, fast spot checks; the acceptance suite runs the full
    10-instance sweep per architecture."""

    def test_fnn(self):
        rng = np.random.default_rng(100)
        for trial in range(3):
            x = rng.normal(size=4)
            err = check_instance(M.FnnSpec((4, 5, 3)), x, trial % 3, seed=trial)
            assert err < 1e-4

    def test_cnn(self):
        rng = np.random.default_rng(101)
        for trial in range(3):
            x = rng.normal(size=(6, 4))
            spec = M.CnnSpec(embed_dim=4, classes=3, n_filters=4, window=3,
                             hidden=5, dropout=0.0)
            err = check_instance(spec, x, trial % 3, seed=trial + 10)
            assert err < 1e-4

    def test_rnn(self):
        rng = np.random.default_rng(102)
        for trial in range(3):
            x = rng.normal(size=(5, 4))
            spec = M.RnnSpec(embed_dim=4, classes=3, hidden=5, dropout=0.0)
            err = check_instance(spec, x, trial % 3, seed=trial + 20)
            assert err < 1e-4

    def test_lstm(self):
        rng = np.random.default_rng(103)
        for trial in range(3):
            x = rng.normal(size=(5, 4))
            spec = M.LstmSpec(embed_dim=4, classes=3, hidden=5, dropout=0.0)
            err = check_instance(spec, x, trial % 3, seed=trial + 30)
            assert err < 1e-4


class TestGradCheckHarness:
    def test_linear_softmax_is_near_exact(self):
        rng = np.random.default_rng(104)
        params = M.init_params(M.FnnSpec((4, 3)), 0)
        x = rng.normal(size=4)
        loss_fn, grad_fn = model_checker(params, x, 2)
        assert grad_check(loss_fn, grad_fn, params.tensors(), eps=1e-5) < 1e-8

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(105)
        params = M.init_params(M.FnnSpec((4, 3)), 1)
        x = rng.normal(size=4)
        loss_fn, grad_fn = model_checker(params, x, 0)

        def corrupted():
            grads = grad_fn()
            grads["w0"] = grads["w0"].copy()
            grads["w0"].reshape(-1)[3] *= 2.0
            return grads

        assert grad_check(loss_fn, corrupted, params.tensors(), eps=1e-5) > 1e-1

    def test_subsampling_is_seeded(self):
        params = M.init_params(M.FnnSpec((40, 30, 3)), 2)
        x = np.random.default_rng(106).normal(size=40)
        loss_fn, grad_fn = model_checker(params, x, 1)
        a = grad_check(loss_fn, grad_fn, params.tensors(), max_coords=50, seed=9)
        b = grad_check(loss_fn, grad_fn, params.tensors(), max_coords=50, seed=9)
        assert a == b

    def test_dropout_gradients_consistent_with_fixed_mask(self):
        # with the mask held fixed in the trace, the train-mode backward
        # pass must match finite differences of the masked forward pass
        params = M.init_params(
            M.CnnSpec(embed_dim=3, classes=2, n_filters=4, window=2, hidden=5,
                      dropout=0.4), 3)
        x = np.random.default_rng(107).normal(size=(5, 3))
        _, trace = oracles.cnn_forward(params, x, train=True, rng=make_rng(12))
        mask = trace.drop_mask
        grads = oracles.cnn_backward(params, trace, 1)

        def loss_fn():
            probs, _tr = oracles.cnn_forward(params, x, train=False)
            head_in = _tr.fc_act * mask
            logits = head_in @ params.w_out + params.b_out
            e = np.exp(logits - logits.max())
            return cross_entropy(e / e.sum(), 1)

        err = grad_check(loss_fn, lambda: grads, params.tensors(), eps=1e-5,
                         max_coords=10_000)
        assert err < 1e-4

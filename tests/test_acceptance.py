"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 3 to 6 reproduce the published question-classification comparison
and need the public data files; they are skipped (with instructions) unless
a directory containing

    train_5500.label    TREC_10.label    glove.6B.300d.txt

is provided via SENTCLASS_DATA_DIR (default: ./data under the repo root).
Those runs train at full scale (100 epochs) and take up to a few hours in
total.  Everything else is hermetic; the synthetic benchmark (criterion 7)
is the longest hermetic piece: about 80 s of the suite's roughly 95 s on
a 2-vCPU machine.
"""

import os
import time
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

import sentclass.models as M
from sentclass.harness.cli import main as cli_main
from sentclass.harness.data import Dataset, load_uiuc, split, write_tsv
from sentclass.harness.run import RunConfig, train_run
from sentclass.harness.synth import (
    corpus_tokens,
    make_synthetic,
    write_embeddings_file,
)
from sentclass.optim import cross_entropy, grad_check, lbfgs_minimize
from sentclass.tensor import conv1d_wgram, max_pool_time, softmax
from sentclass.text import hash_index, murmur3_32

from test_hashing import PUBLISHED_VECTORS, reference_murmur3_32

DATA_DIR = Path(os.environ.get("SENTCLASS_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "data"))
UIUC_TRAIN = DATA_DIR / "train_5500.label"
UIUC_TEST = DATA_DIR / "TREC_10.label"
GLOVE_300 = DATA_DIR / "glove.6B.300d.txt"
HAVE_UIUC = UIUC_TRAIN.exists() and UIUC_TEST.exists() and GLOVE_300.exists()

requires_uiuc = pytest.mark.skipif(
    not HAVE_UIUC,
    reason=(f"public data files not found (expected {UIUC_TRAIN}, {UIUC_TEST} "
            f"and {GLOVE_300}; set SENTCLASS_DATA_DIR)"),
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


# --- shared UIUC state (each full run trains once, criteria share it) --------

_uiuc_cache: dict = {}


def uiuc_datasets():
    if "data" not in _uiuc_cache:
        train, test = load_uiuc(UIUC_TRAIN, UIUC_TEST)
        assert len(train) == 5452 and len(test) == 500
        assert len(train) + len(test) == 5952
        assert train.label_count == 50
        assert len({lab.split(":")[0] for lab in train.labels}) == 6
        _uiuc_cache["data"] = (train, test)
    return _uiuc_cache["data"]


def uiuc_run(key: str) -> float:
    """Best-epoch test accuracy for one Table-1 configuration (memoized)."""
    if key in _uiuc_cache:
        return _uiuc_cache[key]
    train, test = uiuc_datasets()
    common = dict(epochs=100, batch=128, max_len=20, seed=42,
                  lr=1e-2, decay=1e-3, dropout=0.1)
    configs = {
        "cnn-glove": RunConfig(arch="cnn", encoding="glove",
                               embeddings=str(GLOVE_300), window=3, filters=256,
                               hidden=128, **common),
        "cnn-onehot-1024": RunConfig(arch="cnn", encoding="onehot", dim=1024,
                                     window=3, filters=256, hidden=128, **common),
        "rnn-glove": RunConfig(arch="rnn", encoding="glove",
                               embeddings=str(GLOVE_300), hidden=256, **common),
        "lstm-glove": RunConfig(arch="lstm", encoding="glove",
                                embeddings=str(GLOVE_300), hidden=256, **common),
        "fnn-counts-8192": RunConfig(arch="fnn", encoding="counts", dim=8192,
                                     hidden=256, optimizer="lbfgs", min_count=2,
                                     epochs=100, max_len=20, seed=42),
    }
    _, curve = train_run(configs[key], train, test)
    _uiuc_cache[key] = curve.best_accuracy
    return _uiuc_cache[key]


# --- criterion 1: gradient correctness ---------------------------------------


def _cnn_fd_safe(params, x, eps) -> bool:
    """Central differences only estimate a derivative where the loss is
    differentiable: reject instances whose ReLU inputs sit near the kink or
    whose pooling columns have near-tied maxima."""
    _, trace = M.cnn_forward(params, x)
    margin = 200 * eps
    if np.min(np.abs(trace.conv_pre)) < margin:
        return False
    if np.min(np.abs(trace.fc_pre)) < margin:
        return False
    for col in range(trace.relu_out.shape[1]):
        top_two = np.sort(trace.relu_out[:, col])[::-1][:2]
        if len(top_two) > 1 and top_two[0] - top_two[1] < margin:
            return False
    return True


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    eps = 1e-5
    worst = {}
    redrawn = 0
    rng = np.random.default_rng(2026)
    for arch in ("fnn", "cnn", "rnn", "lstm"):
        errs = []
        seed = 1000
        while len(errs) < 10:
            n = int(rng.integers(3, 7))     # n <= 6
            d = int(rng.integers(2, 5))     # d <= 4
            h = int(rng.integers(2, 6))     # h <= 5
            k = int(rng.integers(2, 4))     # K <= 3
            label = int(rng.integers(k))
            if arch == "fnn":
                spec = M.FnnSpec((d, h, k))
                x = rng.normal(size=d)
            elif arch == "cnn":
                w = int(rng.integers(1, min(n, 3) + 1))
                spec = M.CnnSpec(embed_dim=d, classes=k, n_filters=h, window=w,
                                 hidden=h, dropout=0.0)
                x = rng.normal(size=(n, d))
            elif arch == "rnn":
                spec = M.RnnSpec(embed_dim=d, classes=k, hidden=h, dropout=0.0)
                x = rng.normal(size=(n, d))
            else:
                spec = M.LstmSpec(embed_dim=d, classes=k, hidden=h, dropout=0.0)
                x = rng.normal(size=(n, d))
            params = M.init_params(spec, seed)
            seed += 1
            if arch == "cnn" and not _cnn_fd_safe(params, x, eps):
                redrawn += 1
                continue

            def loss_fn():
                probs, _ = M.forward(params, x)
                return cross_entropy(probs, label)

            def grad_fn():
                _, trace = M.forward(params, x)
                return M.backward(params, trace, label)

            errs.append(grad_check(loss_fn, grad_fn, params.tensors(), eps=eps,
                                   max_coords=100_000))
        worst[arch] = max(errs)
    elapsed = time.perf_counter() - start
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 60.0
    detail = ("max relative gradient error vs central differences: "
              + ", ".join(f"{a}={e:.2e}" for a, e in worst.items())
              + f" (threshold 1e-4, {elapsed:.1f}s, {redrawn} kink-adjacent "
              "draws replaced)")
    report(1, ok, detail)


# --- criterion 2: oracle equivalence -----------------------------------------


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


def softmax_oracle(z):
    getcontext().prec = 50
    exps = [Decimal(float(v)).exp() for v in z]
    total = sum(exps)
    return np.array([float(e / total) for e in exps])


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    # convolution: every shape with n,d,o,w <= 6 and w <= n
    for n in range(1, 7):
        for w in range(1, n + 1):
            for d in range(1, 7):
                for o in range(1, 7):
                    x = rng.normal(size=(n, d))
                    f = rng.normal(size=(o, d, w))
                    b = rng.normal(size=o)
                    diff = np.max(np.abs(conv1d_wgram(x, f, b) - conv_oracle(x, f, b)))
                    worst = max(worst, diff)
    # pooling: every rows-by-cols shape <= 6
    for rows in range(1, 7):
        for cols in range(1, 7):
            y = rng.normal(size=(rows, cols))
            pooled, argmax = max_pool_time(y)
            for i in range(cols):
                col = list(y[:, i])
                worst = max(worst, abs(pooled[i] - max(col)))
                assert argmax[i] == col.index(max(col))
    # softmax and cross-entropy against 50-digit decimal evaluation
    getcontext().prec = 50
    for k in range(1, 7):
        for _ in range(20):
            z = rng.normal(scale=3.0, size=k)
            probs = softmax(z)
            want = softmax_oracle(z)
            worst = max(worst, float(np.max(np.abs(probs - want))))
            label = int(rng.integers(k))
            want_ce = float(-Decimal(float(max(want[label], 1e-15))).ln())
            worst = max(worst, abs(cross_entropy(probs, label) - want_ce) /
                        max(1.0, abs(want_ce)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    report(2, ok, f"max deviation from brute-force oracles {worst:.2e} "
                  f"(threshold 1e-10, {elapsed:.1f}s)")


# --- criteria 3-6: published comparison (requires public files) --------------


@requires_uiuc
def test_criterion_03_cnn_glove_reproduction():
    acc = uiuc_run("cnn-glove")
    report(3, acc >= 0.80,
           f"CNN + 300-dim vectors best accuracy {acc:.4f} "
           f"(needs >= 0.80; published score 0.8300)")


@requires_uiuc
def test_criterion_04_encoding_ordering():
    glove = uiuc_run("cnn-glove")
    onehot = uiuc_run("cnn-onehot-1024")
    margin = glove - onehot
    report(4, margin >= 0.02,
           f"CNN embedding vs one-hot margin {glove:.4f} - {onehot:.4f} "
           f"= {margin:.4f} (needs >= 0.02)")


@requires_uiuc
def test_criterion_05_architecture_ordering():
    cnn = uiuc_run("cnn-glove")
    lstm = uiuc_run("lstm-glove")
    rnn = uiuc_run("rnn-glove")
    ok = cnn > lstm > rnn
    report(5, ok, f"best-epoch ordering cnn={cnn:.4f} > lstm={lstm:.4f} "
                  f"> rnn={rnn:.4f} required strictly")


@requires_uiuc
def test_criterion_06_fnn_bag_of_words():
    acc = uiuc_run("fnn-counts-8192")
    report(6, abs(acc - 0.76) <= 0.03,
           f"FNN hashed-count accuracy {acc:.4f} (needs 0.76 +/- 0.03)")


# --- criterion 7: synthetic stand-in for the non-public corpus ---------------


def test_criterion_07_synthetic_benchmark(tmp_path):
    full = make_synthetic(n_sentences=20_000, n_classes=5, seed=13)
    train, test = split(full, 0.8, seed=13)
    assert len(train) == 16_000 and len(test) == 4_000

    cnn_common = dict(window=3, filters=256, hidden=128, dropout=0.1,
                      epochs=2, batch=128, max_len=20, seed=1)
    _, curve = train_run(RunConfig(arch="cnn", encoding="onehot", dim=8192,
                                   **cnn_common), train, test)
    cnn_onehot = curve.best_accuracy

    vectors = tmp_path / "synthetic-50d.txt"
    write_embeddings_file(vectors, corpus_tokens(full), dim=50, seed=7)
    _, curve = train_run(RunConfig(arch="cnn", encoding="glove",
                                   embeddings=str(vectors), **cnn_common),
                         train, test)
    cnn_embed = curve.best_accuracy

    _, curve = train_run(RunConfig(arch="fnn", encoding="counts", dim=8192,
                                   hidden=256, optimizer="lbfgs", epochs=40,
                                   seed=1), train, test)
    fnn = curve.best_accuracy

    best_cnn = max(cnn_onehot, cnn_embed)
    ok = cnn_onehot >= 0.95 and cnn_embed >= 0.95 and best_cnn - fnn >= 0.02
    report(7, ok,
           f"synthetic 16000/4000: cnn-onehot-8192 {cnn_onehot:.4f}, "
           f"cnn-embed-50 {cnn_embed:.4f} (both need >= 0.95); "
           f"fnn-8192 {fnn:.4f} trails best CNN by {best_cnn - fnn:.4f} "
           f"(needs >= 0.02)")


# --- criterion 8: L-BFGS sanity ----------------------------------------------


def test_criterion_08_lbfgs_sanity():
    center = np.array([2.0, -3.0, 0.5])

    def quadratic(x):
        delta = x - center
        return float(delta @ delta), 2.0 * delta

    quad = lbfgs_minimize(quadratic, np.zeros(3), m=10, max_iter=10, tol=1e-12)
    quad_ok = quad.iterations <= 10 and np.max(np.abs(quad.x - center)) < 1e-8

    def rosenbrock(v):
        x, y = v
        f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
        g = np.array([-2.0 * (1 - x) - 400.0 * x * (y - x * x),
                      200.0 * (y - x * x)])
        return float(f), g

    rosen = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), m=10,
                           max_iter=100, tol=1e-12)
    rosen_f, _ = rosenbrock(rosen.x)
    rosen_ok = rosen_f < 1e-6 and rosen.iterations <= 100

    # 50-example memorization: distinct hashed tokens, random labels
    dim = 512
    tokens, used = [], set()
    i = 0
    while len(tokens) < 50:
        tok = f"mem{i}"
        slot = hash_index(tok, dim)
        if slot not in used:
            used.add(slot)
            tokens.append(tok)
        i += 1
    rng = np.random.default_rng(3)
    data = Dataset([(int(rng.integers(5)), [tok, tok]) for tok in tokens],
                   [f"c{k}" for k in range(5)])
    cfg = RunConfig(arch="fnn", encoding="counts", dim=dim, hidden=32,
                    optimizer="lbfgs", epochs=300, min_count=1, seed=2)
    _, curve = train_run(cfg, data, data)
    losses = [p.train_loss for p in curve.points]
    memor_ok = losses[-1] < 1e-3 and all(b < a for a, b in zip(losses, losses[1:]))

    ok = quad_ok and rosen_ok and memor_ok
    report(8, ok,
           f"quadratic reached minimizer in {quad.iterations} iterations "
           f"(<= 10, error {np.max(np.abs(quad.x - center)):.1e}); "
           f"rosenbrock f={rosen_f:.1e} after {rosen.iterations} iterations "
           f"(< 1e-6 within 100); memorization loss {losses[-1]:.1e} "
           f"monotone={all(b < a for a, b in zip(losses, losses[1:]))}")


# --- criterion 9: end-to-end determinism -------------------------------------


def _strip_seconds(path: Path) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_criterion_09_determinism(tmp_path):
    rng = np.random.default_rng(0)
    examples = []
    for i in range(60):
        cls = i % 3
        tokens = [f"cue{cls}", f"cue{cls}"] \
            + [f"pad{int(j)}" for j in rng.integers(0, 6, size=3)]
        examples.append((cls, tokens))
    corpus = tmp_path / "corpus.tsv"
    write_tsv(Dataset(examples, ["a", "b", "c"]), corpus)

    invocations = {
        "cnn": ["train", "--arch", "cnn", "--encoding", "onehot", "--dim", "64",
                "--window", "2", "--hidden", "8", "--epochs", "3", "--batch", "16",
                "--max-len", "6", "--seed", "11", "--format", "tsv",
                "--train", str(corpus)],
        "fnn": ["train", "--arch", "fnn", "--encoding", "counts", "--dim", "64",
                "--optimizer", "lbfgs", "--epochs", "10", "--seed", "11",
                "--format", "tsv", "--train", str(corpus)],
    }
    identical = {}
    for name, args in invocations.items():
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        identical[name] = (
            (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
            and _strip_seconds(out_a / "curve.csv") == _strip_seconds(out_b / "curve.csv")
            and (out_a / "config.txt").read_text() == (out_b / "config.txt").read_text()
        )
    ok = all(identical.values())
    report(9, ok, "repeated train invocations bit-identical "
                  "(checkpoint, curve minus wall time, config echo): "
                  + ", ".join(f"{k}={v}" for k, v in identical.items()))


# --- criterion 10: hashing stability ------------------------------------------


def test_criterion_10_hashing_stability():
    published_ok = all(murmur3_32(data, seed) == expected
                       for data, seed, expected in PUBLISHED_VECTORS)
    empty_ok = murmur3_32(b"", 0) == 0
    fixtures = ["test", "Hello, world!", "caffeine", "hoc_sinh",
                "xin chào", "question classification", "marker0"]
    reference_ok = all(
        murmur3_32(text.encode("utf-8"), seed)
        == reference_murmur3_32(text.encode("utf-8"), seed)
        for text in fixtures for seed in (0, 1, 0x9747B28C)
    )
    ok = published_ok and empty_ok and reference_ok
    report(10, ok,
           f"murmur3 published vectors {len(PUBLISHED_VECTORS)}/"
           f"{len(PUBLISHED_VECTORS)} matched, empty/0 -> 0, "
           f"{len(fixtures)} fixture strings x 3 seeds agree with the "
           f"independent reference implementation")

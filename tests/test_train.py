"""Training-loop contracts, encoders, curve files, tables, checkpoints, evaluation."""

import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sentclass.models as M
from sentclass.embeddings import EmbeddingTable
from sentclass.harness.data import Dataset
from sentclass.harness.run import (
    ARCHS,
    ENCODINGS,
    ConfigError,
    CountEncoder,
    CurvePoint,
    DenseSequenceEncoder,
    HashedSequenceEncoder,
    LearningCurve,
    RunConfig,
    build_encoder,
    compare_table,
    config_to_text,
    emit_curve,
    evaluate,
    load_curve,
    parse_config_text,
    predict,
    train_run,
    _arch_spec,
    _batch_functions,
)
from sentclass.harness.synth import corpus_tokens, write_embeddings_file
from sentclass.harness.cli import main
from sentclass.models.checkpoint import (
    MAGIC,
    MAGIC_V1,
    MAGIC_V2,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from sentclass.optim import lbfgs_minimize
from sentclass.tensor import ShapeError, gather_rows
from sentclass.text import PAD_TOKEN, build_vocabulary, hash_index

import oracles
from oracles import count_vector, cross_entropy, lookup_matrix, pad_or_truncate

VALID_PAIRS = [(arch, encoding) for arch in ARCHS for encoding in ENCODINGS
               if (arch == "fnn") == (encoding == "counts")]


def tiny_dataset(n=24, classes=2, seed=0):
    """Linearly separable keyword corpus: class i sentences contain cue_i twice."""
    rng = np.random.default_rng(seed)
    fillers = [f"pad{i}" for i in range(6)]
    examples = []
    for i in range(n):
        cls = i % classes
        tokens = [f"cue{cls}", f"cue{cls}"] \
            + [fillers[int(j)] for j in rng.integers(0, 6, size=3)]
        rng.shuffle(tokens)
        examples.append((cls, list(tokens)))
    return Dataset(examples, [f"c{i}" for i in range(classes)])


def onehot_rows(tokens, dim):
    """Hashed one-hot rows built token by token, apart from the encoder."""
    out = np.zeros((len(tokens), dim))
    for i, token in enumerate(tokens):
        if token != PAD_TOKEN:
            out[i, hash_index(token, dim)] = 1.0
    return out


def vectors_file(tmp_path, encoding, data, dim=8):
    """A text (glove) or binary (word2vec) vector file for the data's tokens."""
    text = tmp_path / "vectors.txt"
    write_embeddings_file(text, corpus_tokens(data), dim=dim, seed=0)
    if encoding == "glove":
        return str(text)
    rows = [line.split() for line in text.read_text().splitlines()]
    blob = f"{len(rows)} {dim}\n".encode()
    for token, *values in rows:
        blob += token.encode() + b" " + struct.pack(f"<{dim}f", *map(float, values))
    binary = tmp_path / "vectors.bin"
    binary.write_bytes(blob)
    return str(binary)


class TestTrainRunContracts:
    def test_single_epoch_single_record(self):
        data = tiny_dataset()
        cfg = RunConfig(arch="fnn", encoding="counts", dim=64, epochs=1,
                        optimizer="sgd", lr=0.1, batch=8, seed=1)
        _, curve = train_run(cfg, data, data)
        assert len(curve) == 1
        assert curve.points[0].iteration == 1

    def test_iterations_strictly_increasing_from_one(self):
        data = tiny_dataset()
        cfg = RunConfig(arch="fnn", encoding="counts", dim=64, epochs=4,
                        optimizer="adagrad", seed=2, batch=8)
        _, curve = train_run(cfg, data, data)
        assert [p.iteration for p in curve.points] == [1, 2, 3, 4]

    def test_same_config_bit_identical(self):
        data = tiny_dataset(32)
        cfg = RunConfig(arch="cnn", encoding="onehot", dim=32, epochs=3,
                        filters=8, hidden=6, window=2, max_len=6, batch=8, seed=3)
        params_a, curve_a = train_run(cfg, data, data)
        params_b, curve_b = train_run(cfg, data, data)
        for name, tensor in params_a.tensors().items():
            np.testing.assert_array_equal(tensor, params_b.tensors()[name])
        assert [(p.iteration, p.train_loss, p.test_accuracy) for p in curve_a.points] \
            == [(p.iteration, p.train_loss, p.test_accuracy) for p in curve_b.points]

    def test_separable_fnn_reaches_perfect_accuracy(self):
        data = tiny_dataset(40)
        cfg = RunConfig(arch="fnn", encoding="counts", dim=128, epochs=20,
                        optimizer="lbfgs", seed=4)
        _, curve = train_run(cfg, data, data)
        assert curve.best_accuracy == 1.0

    def test_accuracy_in_unit_interval_and_finite_losses(self):
        data = tiny_dataset(30, classes=3)
        cfg = RunConfig(arch="rnn", encoding="onehot", dim=32, hidden=8,
                        epochs=3, max_len=6, batch=8, seed=5)
        _, curve = train_run(cfg, data, data)
        for p in curve.points:
            assert 0.0 <= p.test_accuracy <= 1.0
            assert np.isfinite(p.train_loss)

    def test_incompatible_encoding_rejected(self):
        data = tiny_dataset()
        with pytest.raises(ConfigError):
            train_run(RunConfig(arch="fnn", encoding="onehot"), data, data)
        with pytest.raises(ConfigError):
            train_run(RunConfig(arch="cnn", encoding="counts"), data, data)
        with pytest.raises(ConfigError):
            train_run(RunConfig(arch="cnn", encoding="glove", embeddings=None),
                      data, data)

    def test_divergence_reported_with_iteration(self):
        data = tiny_dataset()
        # a step this size overflows the weights to inf, so the next
        # forward pass produces NaN logits
        cfg = RunConfig(arch="fnn", encoding="counts", dim=32, epochs=10,
                        optimizer="sgd", lr=1e307, batch=8, seed=6)
        from sentclass.harness.run import DivergedError
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError, match="iteration"):
                train_run(cfg, data, data)

    def test_minibatch_divergence_names_the_batch(self):
        data = tiny_dataset()  # 24 examples: batches 1-3 of 8 per epoch
        cfg = RunConfig(arch="fnn", encoding="counts", dim=32, epochs=10,
                        optimizer="sgd", lr=1e307, batch=8, seed=6)
        from sentclass.harness.run import DivergedError
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError,
                               match=r"^training diverged at iteration 1, batch 2$") as info:
                train_run(cfg, data, data)
        assert (info.value.iteration, info.value.batch) == (1, 2)

    def test_embedding_encoding_end_to_end(self, tmp_path):
        data = tiny_dataset(30)
        vec_path = tmp_path / "vectors.txt"
        write_embeddings_file(vec_path, corpus_tokens(data), dim=8, seed=0)
        cfg = RunConfig(arch="lstm", encoding="glove", embeddings=str(vec_path),
                        hidden=6, epochs=3, max_len=6, batch=8, seed=7)
        params, curve = train_run(cfg, data, data)
        assert isinstance(params, M.LstmParams)
        assert len(curve) == 3

    def test_fine_tune_changes_embeddings_and_learns(self, tmp_path):
        data = tiny_dataset(30)
        vec_path = tmp_path / "vectors.txt"
        write_embeddings_file(vec_path, corpus_tokens(data), dim=8, seed=1)
        cfg = RunConfig(arch="cnn", encoding="glove", embeddings=str(vec_path),
                        filters=8, hidden=6, window=2, epochs=4, max_len=6,
                        batch=8, seed=8, fine_tune=True)
        encoder = build_encoder(cfg, data)
        before = encoder.table.vector("cue0").copy()
        params, curve = train_run(cfg, data, data, encoder=encoder)
        after = encoder.table.vector("cue0")
        assert np.any(before != after)
        assert curve.best_accuracy >= 0.9

    def test_fine_tune_embedding_gradient_matches_finite_differences(self, tmp_path):
        data = tiny_dataset(12)
        vec_path = tmp_path / "vectors.txt"
        write_embeddings_file(vec_path, corpus_tokens(data), dim=5, seed=2)
        cfg = RunConfig(arch="cnn", encoding="glove", embeddings=str(vec_path),
                        filters=4, hidden=4, window=2, max_len=6, seed=3,
                        dropout=0.0, fine_tune=True)
        encoder = build_encoder(cfg, data)
        idx = encoder.encode_many(data)
        grads_fn, _ = _batch_functions(cfg, encoder)
        params = M.init_params(
            M.CnnSpec(embed_dim=5, classes=2, n_filters=4, window=2, hidden=4,
                      dropout=0.0), 6)
        ys = np.array([label for label, _ in data.examples])

        def mean_loss():
            return grads_fn(params, idx, ys, np.random.default_rng(0))[0]

        grad = grads_fn(params, idx, ys, np.random.default_rng(0))[1]["embeddings"]
        matrix = encoder.matrix
        assert grad.shape == matrix.shape
        assert grad.rows.min() >= 0  # padding has no row to update
        # the rows of the first and fourth training tokens in sorted order
        tokens = sorted(encoder.row)
        eps = 1e-6
        for row, col in ((encoder.row[tokens[0]], 1), (encoder.row[tokens[3]], 2)):
            matrix[row, col] += eps
            up = mean_loss()
            matrix[row, col] -= 2 * eps
            down = mean_loss()
            matrix[row, col] += eps
            numeric = (up - down) / (2 * eps)
            assert grad[row, col] == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("oov_policy", ["zero", "random-fixed"])
    def test_fine_tune_leaves_test_only_rows_static(self, tmp_path, oov_policy):
        train = tiny_dataset(20)
        test = Dataset([(0, ["cue0", "seen", "unseen"]), (1, ["cue1", "seen", "pad0"])],
                       train.labels)
        vec_path = tmp_path / "vectors.txt"
        # "seen" is in the vector file and "unseen" is not; neither is in training
        write_embeddings_file(vec_path, corpus_tokens(train) + ["seen"], dim=6, seed=4)
        cfg = RunConfig(arch="cnn", encoding="glove", embeddings=str(vec_path),
                        filters=4, hidden=4, window=2, epochs=3, max_len=6, batch=4,
                        seed=5, oov_policy=oov_policy, fine_tune=True)
        encoder = build_encoder(cfg, train)
        loaded = {t: encoder.table.vector(t).copy() for t in ("seen", "unseen", "cue0")}
        train_run(cfg, train, test, encoder=encoder)
        for token in ("seen", "unseen"):
            assert np.array_equal(encoder.matrix[encoder.row[token]], loaded[token])
            assert np.array_equal(encoder.table.vector(token), loaded[token])
            assert token not in encoder.tuned[0]
        assert not np.array_equal(encoder.matrix[encoder.row["cue0"]], loaded["cue0"])
        assert np.array_equal(encoder.table.vector("cue0"), encoder.matrix[encoder.row["cue0"]])


class TestEvaluate:
    def test_oracle_lookup_scores_one(self):
        data = tiny_dataset(20)
        cfg = RunConfig(arch="fnn", encoding="counts", dim=128, epochs=15,
                        optimizer="lbfgs", seed=9)
        encoder = build_encoder(cfg, data)
        params, _ = train_run(cfg, data, data, encoder=encoder)
        assert evaluate(params, data, encoder) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        data = tiny_dataset(25, classes=5, seed=10)
        # zero parameters predict class 0 everywhere (argmax tie rule)
        params = M.FnnParams(weights=[np.zeros((16, 5))], biases=[np.zeros(5)])
        encoder = build_encoder(RunConfig(arch="fnn", encoding="counts", dim=16),
                                data)
        assert evaluate(params, data, encoder) == pytest.approx(0.2)

    @pytest.mark.parametrize("arch,encoding", VALID_PAIRS,
                             ids=[f"{arch}-{encoding}" for arch, encoding in VALID_PAIRS])
    def test_matches_manual_scoring(self, tmp_path, arch, encoding):
        data = tiny_dataset(10)
        embeddings = None
        if encoding in ("glove", "word2vec"):
            embeddings = vectors_file(tmp_path, encoding, data)
        cfg = RunConfig(arch=arch, encoding=encoding, embeddings=embeddings, dim=32,
                        filters=6, hidden=5, window=2, epochs=2, max_len=6, batch=4,
                        seed=11, optimizer="lbfgs" if arch == "fnn" else "adagrad")
        encoder = build_encoder(cfg, data)
        params, _ = train_run(cfg, data, data, encoder=encoder)
        # the per-example reference forward pass on independently built inputs
        oracle = []
        for _, tokens in data.examples:
            if encoding == "onehot":
                x = onehot_rows(pad_or_truncate(tokens, cfg.max_len), cfg.dim)
            elif encoding == "counts":
                x = oracles.counts(encoder, tokens)
            else:
                x = oracles.embedding_rows(encoder, tokens)
            probs, _ = oracles.forward(params, x)
            oracle.append(int(np.argmax(probs)))
        assert list(predict(params, encoder.encode_many(data), encoder)) == oracle
        hits = sum(label == want for (label, _), want in zip(data.examples, oracle))
        assert evaluate(params, data, encoder) == pytest.approx(hits / len(data))


class TestHashedEncoder:
    """Hashed one-hot rows, carried as indices (pad = -1)."""

    def rows(self, tokens, dim):
        encoder = HashedSequenceEncoder(dim, len(tokens))
        idx = encoder.encode_many(Dataset([(0, tokens)], ["a"]))[0]
        out = np.zeros((len(idx), dim))
        for i, k in enumerate(idx):
            if k >= 0:
                out[i, k] = 1.0
        return out

    def test_single_token_single_one(self):
        out = self.rows(["tok"], 16)
        assert out.shape == (1, 16)
        assert out.sum() == 1.0
        assert out[0, hash_index("tok", 16)] == 1.0

    def test_row_sums(self):
        out = self.rows(["a", PAD_TOKEN, "b"], 8)
        np.testing.assert_array_equal(out.sum(axis=1), [1.0, 0.0, 1.0])

    @settings(max_examples=150, deadline=None)
    @given(sentences=st.lists(st.lists(st.sampled_from(["a", "b", "cc", "déjà", "x y", PAD_TOKEN])
                                       | st.text(max_size=4), max_size=9), max_size=6),
           max_len=st.integers(1, 6), dim=st.integers(2, 40))
    @example(sentences=[[], [PAD_TOKEN] * 3, ["a", PAD_TOKEN, "a", "b"] * 3], max_len=4, dim=2)
    def test_property_batch_is_the_stacked_oracle_rows(self, sentences, max_len, dim):
        # empty, padded and over-long sentences; one hash per distinct token
        # per call must give the rows the oracle gives one by one
        encoder = HashedSequenceEncoder(dim, max_len)
        got = encoder.encode_many(Dataset([(0, tokens) for tokens in sentences], ["a"]))
        want = np.array([oracles.hashed_indices(encoder, tokens) for tokens in sentences],
                        dtype=np.int64).reshape(len(sentences), max_len)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_collision_rows_identical(self):
        # find two distinct tokens colliding at dim 2 via the hash oracle
        base = "tok0"
        partner = next(f"tok{i}" for i in range(1, 100)
                       if hash_index(f"tok{i}", 2) == hash_index(base, 2))
        out = self.rows([base, partner], 2)
        np.testing.assert_array_equal(out[0], out[1])


class TestEmbeddingEncoder:
    """Embedding inputs carried as index rows into the encoder's own matrix."""

    TOKEN = st.one_of(st.sampled_from(["a", "b", "c", "d", PAD_TOKEN]),
                      st.text(alphabet="abxyz", min_size=1, max_size=3))
    SENTENCES = st.lists(st.lists(TOKEN, max_size=9), max_size=5)

    @settings(max_examples=150, deadline=None)
    @given(first=SENTENCES, second=SENTENCES, max_len=st.integers(1, 7),
           oov_policy=st.sampled_from(["zero", "random-fixed"]),
           tuned=st.lists(TOKEN.filter(lambda t: t != PAD_TOKEN), max_size=3, unique=True))
    @example(first=[], second=[], max_len=3, oov_policy="zero", tuned=[])
    @example(first=[["a", PAD_TOKEN, "zz"]], second=[["new", "a"], []], max_len=2,
             oov_policy="random-fixed", tuned=["a", "new"])
    def test_gathered_rows_are_the_lookup_matrices(self, first, second, max_len,
                                                   oov_policy, tuned):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(dim=3, entries={t: rng.normal(size=3) for t in "abc"},
                               oov_policy=oov_policy, oov_seed=7)
        encoder = DenseSequenceEncoder(table, max_len)

        def check(sentences):
            idx = encoder.encode_many(Dataset([(0, t) for t in sentences], ["a"]))
            assert idx.dtype == np.int64 and idx.shape == (len(sentences), max_len)
            want = np.array([lookup_matrix(table, pad_or_truncate(t, max_len))
                             for t in sentences]).reshape(len(sentences), max_len, 3)
            # the route's gather, also while the matrix has no rows
            assert np.array_equal(gather_rows(encoder.matrix, idx), want)
            return idx

        def tune(tokens, scale):
            encoder.tune(tokens, scale * rng.normal(size=(len(tokens), 3)))

        tune(tuned[:1], 1.0)  # before the tokens are met
        idx = check(first)
        check(second)  # may bring new tokens
        tune(tuned, 2.0)  # after: their rows of the matrix follow
        assert np.array_equal(check(first), idx)  # a token keeps its row
        check(second)
        assert sorted(encoder.row.values()) == list(range(len(encoder.matrix)))


class TestCountEncoder:
    """Hashed counts carried as index rows: -1 pads, a repeated index counts."""

    @settings(max_examples=200, deadline=None)
    @given(sentences=st.lists(st.lists(st.one_of(st.sampled_from(["a", "b", "c", PAD_TOKEN]),
                                                 st.text(alphabet="abcxyz_", min_size=1,
                                                         max_size=3)),
                                       max_size=8), min_size=1, max_size=6),
           dim=st.integers(2, 64), min_count=st.integers(1, 4))
    @example(sentences=[["a", "a", "b"], ["b", "once", "twice"], ["once"]], dim=8, min_count=2)
    @example(sentences=[["once", "twice"], ["thrice"], []], dim=8, min_count=2)
    def test_bincount_of_a_row_is_its_count_vector(self, sentences, dim, min_count):
        vocab = build_vocabulary(sentences, min_count)
        idx = CountEncoder(vocab, dim).encode_many(Dataset([(0, t) for t in sentences], ["a"]))
        kept = [vocab.keep(tokens) for tokens in sentences]
        assert idx.dtype == np.int64
        assert idx.shape == (len(sentences),
                             max([1, *(sum(t != PAD_TOKEN for t in k) for k in kept)]))
        for row, tokens in zip(idx, kept):
            real = row[row >= 0]
            assert np.all(row[len(real):] == -1)  # padding only at the tail
            np.testing.assert_array_equal(np.bincount(real, minlength=dim),
                                          count_vector(tokens, dim))


class TestLbfgsTouchedRows:
    def test_untouched_rows_stay_and_the_rest_matches_full_vector_lbfgs(self):
        # every fourth label redrawn: the loss has a finite minimum, so the
        # weights stay moderate and the two runs' rounding does not blow up
        rng = np.random.default_rng(3)
        clean = tiny_dataset(24, classes=3, seed=5)
        data = Dataset([(int(rng.integers(3)) if i % 4 == 0 else label, tokens)
                        for i, (label, tokens) in enumerate(clean.examples)], clean.labels)
        cfg = RunConfig(arch="fnn", encoding="counts", dim=64, hidden=5, epochs=8,
                        optimizer="lbfgs", seed=6)
        encoder = build_encoder(cfg, data)
        spec = _arch_spec(cfg, cfg.dim, len(data.labels))
        initial = M.init_params(spec, np.random.SeedSequence(cfg.seed).spawn(3)[0])
        params, curve = train_run(cfg, data, data, encoder=encoder)
        assert curve.stop_reason == "max_iterations"

        xs = np.array([oracles.counts(encoder, tokens) for _, tokens in data.examples])
        ys = np.array([label for label, _ in data.examples])
        untouched = np.flatnonzero(xs.sum(axis=0) == 0)
        assert 0 < untouched.size < cfg.dim
        np.testing.assert_array_equal(params.weights[0][untouched],
                                      initial.weights[0][untouched])

        # full-vector L-BFGS from the same start, on an objective built from
        # dense per-example passes
        oracle = initial
        tensors = oracle.tensors()

        def unpack(vec):
            offset = 0
            for tensor in tensors.values():
                tensor[...] = vec[offset:offset + tensor.size].reshape(tensor.shape)
                offset += tensor.size

        def objective(vec):
            unpack(vec)
            loss, total = 0.0, {k: np.zeros_like(t) for k, t in tensors.items()}
            for x, y in zip(xs, ys):
                probs, trace = oracles.forward(oracle, x)
                loss += cross_entropy(probs, int(y))
                for k, g in oracles.backward(oracle, trace, int(y)).items():
                    total[k] += g
            return loss / len(ys), np.concatenate([total[k].ravel() / len(ys) for k in tensors])

        start = np.concatenate([t.ravel() for t in tensors.values()])
        result = lbfgs_minimize(objective, start, m=cfg.lbfgs_memory, max_iter=cfg.epochs,
                                tol=1e-10)
        unpack(result.x)
        assert result.status == curve.stop_reason
        for name, tensor in params.tensors().items():
            np.testing.assert_allclose(tensor, tensors[name], rtol=0, atol=1e-10, err_msg=name)


class TestCurveFiles:
    def curve(self):
        return LearningCurve([
            CurvePoint(1, 0.6931471805599453, 0.5, 0.124),
            CurvePoint(2, 0.25, 0.83, 0.25),
        ])

    def test_file_layout(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_curve(self.curve(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,train_loss,test_accuracy,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.6931471805599453,0.5000,")

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "curve.csv"
        original = self.curve()
        emit_curve(original, path)
        loaded = load_curve(path)
        for a, b in zip(original.points, loaded.points):
            assert a.iteration == b.iteration
            assert a.train_loss == b.train_loss
            assert a.test_accuracy == b.test_accuracy

    def test_accuracy_has_at_least_four_digits(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_curve(LearningCurve([CurvePoint(1, 0.1, 1.0, 0.0)]), path)
        accuracy_field = path.read_text().splitlines()[1].split(",")[2]
        assert accuracy_field == "1.0000"

    def test_awkward_accuracy_still_round_trips(self, tmp_path):
        value = 413 / 498  # needs more than four digits
        path = tmp_path / "curve.csv"
        emit_curve(LearningCurve([CurvePoint(1, 0.1, value, 0.0)]), path)
        assert load_curve(path).points[0].test_accuracy == value


class TestCompareTable:
    def test_single_run(self):
        table = compare_table([("cnn-glove", 0.83)])
        lines = table.splitlines()
        assert len(lines) == 2
        assert "83.00%" in lines[1]

    def test_sorted_descending_with_stable_ties(self):
        table = compare_table([("first", 0.5), ("best", 0.9), ("also", 0.5)])
        names = [line.split()[0] for line in table.splitlines()[1:]]
        assert names == ["best", "first", "also"]

    def test_hand_formatted(self):
        table = compare_table([("a", 0.8301), ("b", 0.7763)])
        assert table == "model  accuracy\na       83.01%\nb       77.63%\n"


class TestCheckpoints:
    @pytest.mark.parametrize("spec,x_shape", [
        (M.FnnSpec((6, 4, 3)), None),
        (M.CnnSpec(embed_dim=4, classes=3, n_filters=5, window=2, hidden=4,
                   dropout=0.2), None),
        (M.RnnSpec(embed_dim=4, classes=3, hidden=5, dropout=0.1), None),
        (M.LstmSpec(embed_dim=4, classes=3, hidden=5, dropout=0.1), None),
    ])
    def test_round_trip_is_bit_exact(self, tmp_path, spec, x_shape):
        params = M.init_params(spec, 13)
        path = tmp_path / "model.ckpt"
        meta = {"labels": ["a", "b", "c"], "encoding": "onehot"}
        save_checkpoint(path, params, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert type(loaded) is type(params)
        assert loaded_meta == meta
        for name, tensor in params.tensors().items():
            np.testing.assert_array_equal(tensor, loaded.tensors()[name])
        if hasattr(params, "dropout"):
            assert loaded.dropout == params.dropout
        # writing the loaded params again reproduces the bytes exactly
        second = tmp_path / "again.ckpt"
        save_checkpoint(second, loaded, loaded_meta)
        assert path.read_bytes() == second.read_bytes()

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header,floats", [
        ({"arch": "fnn", "hyper": {}, "meta": {}}, 0),
        ({"arch": "fnn", "fields": [["w0", "4x2"], ["b0", [2]]]}, 10),
        ({"arch": "fnn", "fields": [["w0", [4, 2]]]}, 8),
        ({"arch": "fnn", "fields": [["w0", [4, 2]], ["b0", [2]], ["w1", [2, 2]]]}, 14),
        ({"arch": "fnn", "fields": [["w0", [4, 2]], ["b0", [2]]], "hyper": [0.1]}, 10),
        ({"arch": "fnn", "fields": [["w0", [4, 2]], ["b0", [2]]], "arrays": [["r", 2]]}, 12),
    ], ids=["no-fields", "fields-not-pairs", "tensor-missing", "tensor-extra",
            "hyper-not-object", "arrays-not-pairs"])
    def test_malformed_header_detected(self, tmp_path, header, floats):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n"
                         + np.zeros(floats, dtype="<f8").tobytes())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec,name,shape", [
        (M.FnnSpec((6, 4, 3)), "w1", (5, 3)),
        (M.CnnSpec(embed_dim=4, classes=3, n_filters=5, window=2, hidden=4), "w_fc", (6, 4)),
        (M.RnnSpec(embed_dim=4, classes=3, hidden=4), "w_head", (5, 3)),
        (M.LstmSpec(embed_dim=4, classes=3, hidden=5), "b", (24,)),
    ], ids=["fnn", "cnn", "rnn", "lstm"])
    def test_disagreeing_tensor_shapes_detected(self, tmp_path, spec, name, shape):
        params = M.init_params(spec, 0)
        params = type(params).from_tensors({**params.tensors(), name: np.zeros(shape)})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {})
        with pytest.raises(CheckpointError, match=f"'{name}'"):
            load_checkpoint(path)

    def test_array_metadata_round_trips_bit_exact(self, tmp_path):
        params = M.init_params(M.FnnSpec((4, 2)), 0)
        rows = np.random.default_rng(5).normal(size=(3, 4)) * 1e-300
        rows[0, 0] = -0.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"labels": ["a", "b"], "rows": rows})
        _, meta = load_checkpoint(path)
        assert meta["labels"] == ["a", "b"]
        assert meta["rows"].tobytes() == rows.tobytes()
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated tensor 'rows'"):
            load_checkpoint(path)

    def test_truncated_tensor_detected(self, tmp_path):
        params = M.init_params(M.FnnSpec((4, 2)), 0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


class TestCheckpointV1:
    """Format v1 stored the CNN bank (filters, embed, window); v2 and v3
    store it (embed, window, filters) and read v1 files too."""

    # written by the v1 writer: `sentclass train` on a three-label TSV corpus
    # with arch=cnn encoding=onehot dim=64 filters=4 window=2 hidden=4
    # epochs=40 max_len=6 seed=5 batch=8 lr=0.1 dropout=0
    V1_CNN = Path(__file__).parent / "fixtures" / "cnn-v1.ckpt"
    # sentences the v1 model labelled, and the labels the v1 reader gave them
    LINES = ["where is the big city", "how many of the old", "who was a person",
             "the of a", "where city how many who person", "unseen words only here"]
    LABELS = ["loc", "num", "hum", "loc", "hum", "loc"]

    def predicted(self, path, capsys, monkeypatch):
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{x}\n" for x in self.LINES)))
        assert main(["predict", "--checkpoint", str(path)]) == 0
        return capsys.readouterr().out.split()

    def test_v1_bank_is_read_transposed(self):
        blob = self.V1_CNN.read_bytes()
        magic, header, body = blob.split(b"\n", 2)
        assert magic + b"\n" == MAGIC_V1
        name, shape = json.loads(header)["fields"][0]
        assert name == "filters" and shape == [4, 64, 2]
        stored = np.frombuffer(body[:8 * int(np.prod(shape))], dtype="<f8").reshape(shape)
        params, _ = load_checkpoint(self.V1_CNN)
        assert params.filters.flags.c_contiguous
        assert np.array_equal(params.filters, stored.transpose(1, 2, 0))

    def test_v2_round_trip_keeps_tensors_and_labels(self, tmp_path, capsys, monkeypatch):
        params, meta = load_checkpoint(self.V1_CNN)
        path = tmp_path / "v2.ckpt"
        save_checkpoint(path, params, meta)
        assert path.read_bytes().startswith(MAGIC)
        again, again_meta = load_checkpoint(path)
        assert again_meta == meta and again.dropout == params.dropout
        for name, tensor in params.tensors().items():
            assert np.array_equal(tensor, again.tensors()[name])
        assert self.predicted(self.V1_CNN, capsys, monkeypatch) == self.LABELS
        assert self.predicted(path, capsys, monkeypatch) == self.LABELS

    @pytest.mark.parametrize("spec", [
        M.FnnSpec((6, 4, 3)),
        M.RnnSpec(embed_dim=4, classes=3, hidden=5),
    ], ids=["fnn", "rnn"])
    def test_other_families_differ_in_the_magic_line_only(self, tmp_path, spec):
        params = M.init_params(spec, 2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"labels": ["a", "b", "c"]})
        for magic in (MAGIC_V1, MAGIC_V2):
            path.write_bytes(magic + path.read_bytes()[len(MAGIC):])
            loaded, meta = load_checkpoint(path)
            assert meta == {"labels": ["a", "b", "c"]}
            for name, tensor in params.tensors().items():
                assert np.array_equal(loaded.tensors()[name], tensor)

    @pytest.mark.parametrize("shape,problem", [
        ([2 ** 40, 2 ** 20], "truncated tensor 'w0'"),  # more bytes than the file holds
        ([0, 2 ** 70], "tensor 'w0'"),                  # no bytes, but no array either
    ], ids=["beyond-the-file", "unindexable"])
    def test_claimed_shape_is_checked_before_allocating(self, tmp_path, shape, problem):
        header = {"arch": "fnn", "fields": [["w0", shape], ["b0", [2]]]}
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + bytes(80))
        with pytest.raises(CheckpointError, match=problem):
            load_checkpoint(path)


def per_gate(params):
    """The twelve per-gate LSTM tensors of formats v1 and v2, in their field order."""
    columns = {kind: np.split(params.tensors()[kind], 4, axis=-1) for kind in ("wx", "wh", "b")}
    tensors = {f"{kind}_{gate}": np.ascontiguousarray(columns[kind][k])
               for k, gate in enumerate("ifog") for kind in ("wx", "wh", "b")}
    return {**tensors, "w_head": params.w_head, "b_head": params.b_head}


def write_raw_checkpoint(path, magic, arch, tensors, meta=None):
    header = {"arch": arch, "fields": [[name, list(t.shape)] for name, t in tensors.items()],
              "hyper": {"dropout": 0.0}, "meta": meta or {}}
    path.write_bytes(magic + json.dumps(header).encode() + b"\n"
                     + b"".join(np.asarray(t, dtype="<f8").tobytes() for t in tensors.values()))


class TestCheckpointV3:
    """Format v3 stores the LSTM gates side by side (``wx``, ``wh``, ``b``);
    v1 and v2 stored twelve per-gate tensors, and the reader sets each
    kind's four side by side."""

    # written by the v2 writer: `sentclass train` on a three-label TSV corpus
    # with arch=lstm encoding=onehot dim=64 hidden=4 epochs=40 max_len=6
    # seed=5 batch=8 lr=0.1 dropout=0
    V2_LSTM = Path(__file__).parent / "fixtures" / "lstm-v2.ckpt"
    LINES = TestCheckpointV1.LINES
    # the labels the v2 reader and kernels gave those sentences
    LABELS = ["loc", "num", "hum", "num", "loc", "hum"]
    predicted = TestCheckpointV1.predicted

    def stored(self):
        blob = self.V2_LSTM.read_bytes()
        magic, header, body = blob.split(b"\n", 2)
        assert magic + b"\n" == MAGIC_V2
        tensors, at = {}, 0
        for name, shape in json.loads(header)["fields"]:
            size = int(np.prod(shape))
            tensors[name] = np.frombuffer(body[at:at + 8 * size], dtype="<f8").reshape(shape)
            at += 8 * size
        return tensors

    def test_v2_gates_are_read_side_by_side(self):
        stored = self.stored()
        params, _ = load_checkpoint(self.V2_LSTM)
        for kind in ("wx", "wh", "b"):
            want = np.concatenate([stored[f"{kind}_{gate}"] for gate in "ifog"], axis=-1)
            assert np.array_equal(getattr(params, kind), want)
            assert getattr(params, kind).flags.c_contiguous
        assert np.array_equal(params.w_head, stored["w_head"])
        assert np.array_equal(params.b_head, stored["b_head"])

    def test_v2_labels_survive_the_v3_round_trip(self, tmp_path, capsys, monkeypatch):
        params, meta = load_checkpoint(self.V2_LSTM)
        path = tmp_path / "v3.ckpt"
        save_checkpoint(path, params, meta)
        assert path.read_bytes().startswith(b"#sentclass-checkpoint-v3\n")
        assert self.predicted(self.V2_LSTM, capsys, monkeypatch) == self.LABELS
        assert self.predicted(path, capsys, monkeypatch) == self.LABELS

    @pytest.mark.parametrize("magic", [MAGIC_V1, MAGIC_V2], ids=["v1", "v2"])
    def test_per_gate_files_convert(self, tmp_path, magic):
        params = M.init_params(M.LstmSpec(embed_dim=4, classes=3, hidden=5), 2)
        path = tmp_path / "model.ckpt"
        write_raw_checkpoint(path, magic, "lstm", per_gate(params), {"labels": ["a", "b", "c"]})
        loaded, meta = load_checkpoint(path)
        assert meta == {"labels": ["a", "b", "c"]}
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor)

    @pytest.mark.parametrize("change,problem", [
        ({"wh_o": None}, "no 'wh'"),                              # a gate missing
        ({"wx": np.zeros((4, 20))}, "no 'wx'"),                   # a v3 tensor as well
        ({"wx_f": np.zeros((4, 6))}, "have shapes"),              # widths disagree
        ({"wx_g": np.zeros((3, 5))}, "have shapes"),              # input widths disagree
        ({f"b_{g}": np.zeros(()) for g in "ifog"}, "rank >= 1"),  # nothing to set side by side
    ], ids=["missing", "v3-name", "gate-width", "embed-width", "scalar"])
    def test_broken_per_gate_files_are_refused(self, tmp_path, change, problem):
        tensors = per_gate(M.init_params(M.LstmSpec(embed_dim=4, classes=3, hidden=5), 2))
        tensors.update(change)
        tensors = {name: t for name, t in tensors.items() if t is not None}
        path = tmp_path / "model.ckpt"
        write_raw_checkpoint(path, MAGIC_V2, "lstm", tensors)
        with pytest.raises(CheckpointError, match=problem):
            load_checkpoint(path)

    def test_gate_axis_must_be_four_hidden_widths(self, tmp_path):
        # every tensor agrees on a gate axis of 24, but hidden 5 needs 20
        params = M.init_params(M.LstmSpec(embed_dim=4, classes=3, hidden=5), 2)
        tensors = {**params.tensors(), "wx": np.zeros((4, 24)), "wh": np.zeros((5, 24)),
                   "b": np.zeros(24)}
        with pytest.raises(ShapeError, match="4 x hidden"):
            M.LstmParams.from_tensors(tensors)
        path = tmp_path / "model.ckpt"
        write_raw_checkpoint(path, MAGIC, "lstm", tensors)
        with pytest.raises(CheckpointError, match="4 x hidden"):
            load_checkpoint(path)
        # per-gate (5, 6) recurrent blocks set side by side make the same wh
        legacy = {f"{kind}_{gate}": np.zeros(shape) for gate in "ifog"
                  for kind, shape in (("wx", (4, 6)), ("wh", (5, 6)), ("b", (6,)))}
        write_raw_checkpoint(path, MAGIC_V2, "lstm",
                             {**legacy, "w_head": np.zeros((5, 3)), "b_head": np.zeros(3)})
        with pytest.raises(CheckpointError, match="4 x hidden"):
            load_checkpoint(path)


class TestConfigText:
    def test_round_trip(self):
        cfg = RunConfig(arch="lstm", encoding="word2vec", embeddings="/tmp/v.bin",
                        hidden=64, dropout=0.2, fine_tune=True, seed=9)
        parsed = parse_config_text(config_to_text(cfg))
        rebuilt = RunConfig(**parsed)
        assert rebuilt == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config_text("mystery=1\n")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config_text("# a comment\n\nepochs=3  # trailing\n")
        assert parsed == {"epochs": 3}

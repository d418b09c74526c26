"""Command-line flows and exit codes."""

import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentclass.models as M
from sentclass.harness import cli
from sentclass.harness.cli import main
from sentclass.harness.run import (_EVAL_CHUNK, OPTIMIZERS, ConfigError, RunConfig, _arch_spec,
                                   load_curve, parse_config_text)
from sentclass.embeddings import load_text_vectors
from sentclass.harness.synth import write_embeddings_file
from sentclass.models.checkpoint import MAGIC, MAGIC_V2, load_checkpoint, save_checkpoint


# the twelve per-gate tensor shapes of a v1/v2 lstm checkpoint (embed 32, hidden 4)
LEGACY_LSTM = {f"{kind}_{gate}": shape for gate in "ifog"
               for kind, shape in (("wx", (32, 4)), ("wh", (4, 4)), ("b", (4,)))}


def train_args(corpus_file, out_dir, *extra):
    return ["train", "--arch", "cnn", "--encoding", "onehot", "--dim", "32",
            "--window", "2", "--hidden", "6", "--epochs", "2", "--batch", "8",
            "--max-len", "6", "--seed", "5", "--format", "tsv",
            "--train", str(corpus_file), "--out", str(out_dir), *extra]


class TestTrainCommand:
    def test_successful_run_writes_outputs(self, corpus_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir)) == 0
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "curve.csv").exists()
        assert (out_dir / "config.txt").exists()
        assert "best accuracy" in capsys.readouterr().out
        assert len(load_curve(out_dir / "curve.csv")) == 2

    def test_config_file_with_flag_override(self, corpus_file, tmp_path):
        out_dir = tmp_path / "run"
        config = tmp_path / "base.cfg"
        config.write_text("arch=cnn\nencoding=onehot\ndim=32\nwindow=2\n"
                          "hidden=6\nepochs=5\nbatch=8\nmax_len=6\nseed=5\n")
        args = ["train", "--config", str(config), "--epochs", "2",
                "--format", "tsv", "--train", str(corpus_file),
                "--out", str(out_dir)]
        assert main(args) == 0
        assert "epochs=2" in (out_dir / "config.txt").read_text()

    def test_lbfgs_stop_reason_printed(self, corpus_file, tmp_path, capsys):
        args = ["train", "--arch", "fnn", "--encoding", "counts", "--dim", "64",
                "--optimizer", "lbfgs", "--epochs", "3", "--format", "tsv",
                "--train", str(corpus_file), "--out", str(tmp_path / "fnn")]
        assert main(args) == 0
        assert "L-BFGS stopped: max_iterations" in capsys.readouterr().out.splitlines()
        assert main(train_args(corpus_file, tmp_path / "cnn")) == 0
        assert "L-BFGS" not in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        assert main(["train", "--arch", "nonsense"]) == 1

    def test_config_error_exit_code(self, corpus_file, tmp_path, capsys):
        # fnn cannot take one-hot sequences
        args = ["train", "--arch", "fnn", "--encoding", "onehot",
                "--format", "tsv", "--train", str(corpus_file),
                "--out", str(tmp_path / "x")]
        assert main(args) == 1

    @pytest.mark.parametrize("setting", ["window=0", "filters=0", "hidden=0", "lbfgs_memory=0",
                                         "min_count=-3", "lr=-1", "decay=-5", "lr=nan",
                                         "decay=inf"])
    def test_out_of_range_setting_is_config_error(self, corpus_file, tmp_path, capsys,
                                                  setting):
        # the fnn route reads lbfgs_memory and min_count, the cnn route the rest
        route = ("arch=fnn\nencoding=counts\noptimizer=lbfgs\n"
                 if setting.startswith(("lbfgs_memory", "min_count"))
                 else "arch=cnn\nencoding=onehot\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"{route}dim=32\nepochs=1\nmax_len=6\n{setting}\n")
        args = ["train", "--config", str(config), "--format", "tsv",
                "--train", str(corpus_file), "--out", str(tmp_path / "run")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert setting.partition("=")[0] in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        args = ["train", "--arch", "cnn", "--encoding", "onehot",
                "--format", "tsv", "--train", str(tmp_path / "missing.tsv"),
                "--out", str(tmp_path / "x")]
        assert main(args) == 2

    def test_non_finite_vector_is_data_error(self, corpus_file, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cue0 0.5 0.25\ncue1 nan 0.25\n")
        args = train_args(corpus_file, tmp_path / "run", "--encoding", "glove",
                          "--embeddings", str(vectors))
        assert main(args) == 2
        assert f"{vectors}: line 2: non-finite component" in capsys.readouterr().err

    def test_diverged_exit_code(self, corpus_file, tmp_path, capsys):
        args = ["train", "--arch", "fnn", "--encoding", "counts", "--dim", "32",
                "--optimizer", "sgd", "--lr", "1e307", "--epochs", "10",
                "--batch", "8", "--format", "tsv", "--train", str(corpus_file),
                "--out", str(tmp_path / "x")]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args) == 3

    def test_determinism_across_invocations(self, corpus_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(corpus_file, out_a)) == 0
        assert main(train_args(corpus_file, out_b)) == 0
        assert (out_a / "checkpoint.bin").read_bytes() \
            == (out_b / "checkpoint.bin").read_bytes()

        def strip_seconds(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_seconds(out_a / "curve.csv") == strip_seconds(out_b / "curve.csv")
        assert (out_a / "config.txt").read_text() == (out_b / "config.txt").read_text()


def assert_eval_matches_curve(out_dir, corpus_file, capsys):
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
            "--test", str(corpus_file), "--format", "tsv"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    final = load_curve(out_dir / "curve.csv").points[-1].test_accuracy
    assert f"accuracy {final:.4f}" in printed


class TestEvalAndPredict:
    def test_eval_matches_training_accuracy(self, corpus_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        # explicit --test so the curve and eval score the same examples
        assert main(train_args(corpus_file, out_dir, "--epochs", "6",
                               "--test", str(corpus_file))) == 0
        assert_eval_matches_curve(out_dir, corpus_file, capsys)

    @pytest.mark.parametrize("arch", ["cnn", "lstm"])
    def test_eval_matches_training_accuracy_fine_tuned(self, corpus_file, tmp_path, capsys,
                                                       arch):
        vectors = tmp_path / "vectors.txt"
        write_embeddings_file(vectors, [f"cue{c}" for c in range(2)]
                              + [f"pad{j}" for j in range(5)], dim=6, seed=4)
        config = tmp_path / "fine.cfg"
        config.write_text(f"arch={arch}\nencoding=glove\nembeddings={vectors}\n"
                          "fine_tune=true\nwindow=2\nhidden=6\nepochs=4\nbatch=8\n"
                          "max_len=6\nseed=5\nlr=0.3\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--format", "tsv",
                     "--train", str(corpus_file), "--test", str(corpus_file),
                     "--out", str(out_dir)]) == 0
        assert_eval_matches_curve(out_dir, corpus_file, capsys)
        # the tuned rows moved away from the file's vectors
        _, meta = load_checkpoint(out_dir / "checkpoint.bin")
        table = load_text_vectors(vectors)
        assert sorted(meta["tuned_tokens"]) == meta["tuned_tokens"]
        assert any(np.any(row != table.vector(token))
                   for token, row in zip(meta["tuned_tokens"], meta["tuned_rows"]))

    def test_predict_labels_lines(self, corpus_file, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir, "--epochs", "6")) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 cue0 pad1\ncue1 cue1 pad2\n"))
        args = ["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["alpha", "beta"]

    def test_predict_counts_checkpoint_round_trip(self, corpus_file, tmp_path,
                                                  capsys, monkeypatch):
        out_dir = tmp_path / "run"
        args = ["train", "--arch", "fnn", "--encoding", "counts", "--dim", "64",
                "--optimizer", "lbfgs", "--epochs", "15", "--format", "tsv",
                "--train", str(corpus_file), "--out", str(out_dir)]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("cue1 pad0\n"))
        assert main(["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]) == 0
        assert capsys.readouterr().out.splitlines() == ["beta"]

    def test_blank_prediction_line_is_data_error(self, corpus_file, tmp_path,
                                                 capsys, monkeypatch):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir)) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        assert main(["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]) == 2

    def test_lines_before_a_blank_line_are_labelled(self, corpus_file, tmp_path,
                                                    capsys, monkeypatch):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir, "--epochs", "6")) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 cue0 pad1\n\ncue1 cue1 pad2\n"))
        assert main(["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]) == 2
        assert capsys.readouterr().out.splitlines() == ["alpha"]

    def test_input_longer_than_one_chunk_keeps_order(self, corpus_file, tmp_path,
                                                     capsys, monkeypatch):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir, "--epochs", "6")) == 0
        capsys.readouterr()
        classes = [int(i % 3 == 0 or i % 7 == 0) for i in range(_EVAL_CHUNK + 5)]
        text = "".join(f"cue{c} cue{c} pad{1 + c}\n" for c in classes)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]) == 0
        assert capsys.readouterr().out.splitlines() == [["alpha", "beta"][c] for c in classes]

    def test_disagreeing_tensor_shapes_are_data_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "checkpoint.bin"
        params = M.init_params(M.RnnSpec(embed_dim=32, classes=2, hidden=4), 0)
        params.w_head = np.zeros((5, 2))
        meta = {"labels": ["alpha", "beta"], "encoding": "onehot", "dim": 32, "max_len": 6}
        save_checkpoint(path, params, meta)
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 pad1\n"))
        assert main(["predict", "--checkpoint", str(path)]) == 2
        assert "w_head" in capsys.readouterr().err

    @pytest.mark.parametrize("magic,shapes,problem", [
        (MAGIC, {"wx": (32, 20), "wh": (4, 20), "b": (20,)}, "4 x hidden"),
        (MAGIC_V2, {k: v for k, v in LEGACY_LSTM.items() if k != "wh_o"}, "no 'wh'"),
        (MAGIC_V2, {**LEGACY_LSTM, "wx_g": (32, 5)}, "have shapes"),
    ], ids=["v3-gate-axis", "v2-missing-gate", "v2-gate-shapes"])
    def test_broken_lstm_checkpoints_are_data_error(self, corpus_file, tmp_path, capsys,
                                                    magic, shapes, problem):
        tensors = {name: np.zeros(shape) for name, shape in shapes.items()}
        tensors.update(w_head=np.zeros((4, 2)), b_head=np.zeros(2))
        header = {"arch": "lstm", "fields": [[k, list(t.shape)] for k, t in tensors.items()],
                  "meta": {"labels": ["alpha", "beta"], "encoding": "onehot", "dim": 32,
                           "max_len": 6}}
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(magic + json.dumps(header).encode() + b"\n"
                         + b"".join(t.astype("<f8").tobytes() for t in tensors.values()))
        args = ["eval", "--checkpoint", str(path), "--test", str(corpus_file), "--format", "tsv"]
        assert main(args) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        M.FnnSpec((32, 4, 2)),
        M.CnnSpec(embed_dim=32, classes=2, n_filters=4, window=2, hidden=3),
        M.RnnSpec(embed_dim=32, classes=2, hidden=4),
        M.LstmSpec(embed_dim=32, classes=2, hidden=4),
    ], ids=["fnn", "cnn", "rnn", "lstm"])
    def test_encoder_width_disagreeing_with_model_is_data_error(self, tmp_path, monkeypatch,
                                                                capsys, spec):
        path = tmp_path / "checkpoint.bin"
        meta = {"labels": ["alpha", "beta"], "dim": 16, "max_len": 6}
        if spec.arch == "fnn":
            meta.update(encoding="counts", vocab=[["cue0", 2], ["pad1", 2]], min_count=2)
        else:
            meta.update(encoding="onehot")
        save_checkpoint(path, M.init_params(spec, 0), meta)
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 pad1\n"))
        assert main(["predict", "--checkpoint", str(path)]) == 2
        assert "input width 32" in capsys.readouterr().err

    def test_vectors_narrower_than_the_model_are_data_error(self, tmp_path, monkeypatch,
                                                           capsys):
        vectors = tmp_path / "vectors.txt"
        write_embeddings_file(vectors, ["cue0", "pad1"], dim=4, seed=0)
        path = tmp_path / "checkpoint.bin"
        meta = {"labels": ["alpha", "beta"], "encoding": "glove", "dim": 8, "max_len": 6,
                "oov_policy": "zero", "seed": 1}
        save_checkpoint(path, M.init_params(M.RnnSpec(embed_dim=8, classes=2, hidden=4), 0),
                        meta)
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 pad1\n"))
        assert main(["predict", "--checkpoint", str(path), "--embeddings", str(vectors)]) == 2
        assert "4-wide" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["encoding", "labels", "dim", "max_len"])
    def test_metadata_without_key_is_data_error(self, tmp_path, monkeypatch, key):
        path = tmp_path / "checkpoint.bin"
        meta = {"labels": ["alpha", "beta"], "encoding": "onehot", "dim": 32, "max_len": 6}
        del meta[key]
        save_checkpoint(path, M.init_params(M.RnnSpec(embed_dim=32, classes=2, hidden=4), 0),
                        meta)
        monkeypatch.setattr("sys.stdin", io.StringIO("cue0 pad1\n"))
        assert main(["predict", "--checkpoint", str(path)]) == 2


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a typed error naming the input and line."""

    def test_vector_file_is_data_error(self, corpus_file, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"cue0 0.5 0.25\ncue\xff1 0.5 0.25\n")
        args = train_args(corpus_file, tmp_path / "run", "--encoding", "glove",
                          "--embeddings", str(vectors))
        assert main(args) == 2
        assert f"{vectors}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_tsv_file_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"alpha\tcue0 pad1\nbeta\tcue1 \xff pad2\n")
        assert main(train_args(corpus, tmp_path / "run")) == 2
        assert f"{corpus}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_config_file_is_config_error(self, corpus_file, tmp_path, capsys):
        config = tmp_path / "base.cfg"
        config.write_bytes(b"epochs=2\n# caf\xe9\n")
        args = ["train", "--config", str(config), "--format", "tsv",
                "--train", str(corpus_file), "--out", str(tmp_path / "run")]
        assert main(args) == 1
        assert f"{config}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_grid_file_is_config_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_bytes(b"one arch=cnn\ntw\xff arch=rnn\n")
        assert main(["bench", "--grid", str(grid)]) == 1
        assert f"{grid}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_grid_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("one arch=cnn\ntwo dim=x\n")
        assert main(["bench", "--grid", str(grid)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {grid}: line 2: ")

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_predict_line_is_data_error(self, corpus_file, tmp_path, capsys, monkeypatch,
                                        errors):
        out_dir = tmp_path / "run"
        assert main(train_args(corpus_file, out_dir, "--epochs", "6")) == 0
        capsys.readouterr()
        stdin = io.TextIOWrapper(io.BytesIO(b"cue0 cue0 pad1\ncue1 \xff pad2\ncue1\n"),
                                 encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["predict", "--checkpoint", str(out_dir / "checkpoint.bin")]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == ["alpha"]  # the lines before it are labelled
        assert "stdin: line 2: not valid UTF-8" in err


class TestBench:
    def test_grid_runs_and_table(self, corpus_file, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "cnn-onehot arch=cnn encoding=onehot dim=32 window=2 hidden=6 epochs=2\n"
            "fnn-counts arch=fnn encoding=counts dim=64 optimizer=lbfgs epochs=8\n"
        )
        base = tmp_path / "base.cfg"
        base.write_text(f"batch=8\nmax_len=6\nseed=3\ntrain={corpus_file}\nformat=tsv\n")
        out_dir = tmp_path / "bench"
        args = ["bench", "--grid", str(grid), "--config", str(base),
                "--out", str(out_dir)]
        assert main(args) == 0
        table = (out_dir / "table.txt").read_text()
        assert table.splitlines()[0].startswith("model")
        assert "cnn-onehot" in table and "fnn-counts" in table
        assert (out_dir / "cnn-onehot" / "curve.csv").exists()
        assert (out_dir / "fnn-counts" / "checkpoint.bin").exists()
        assert "%" in capsys.readouterr().out

    def test_empty_grid_rejected(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("# nothing here\n")
        assert main(["bench", "--grid", str(grid)]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1


# config text: a valid route, in-range values for some fields, then up to
# two fields set to anything (out of range, not finite, of the wrong type);
# integers stay small, so no spec that passes validation allocates much
_ROUTES = ([{"arch": a, "encoding": e, "optimizer": o} for a in ("cnn", "rnn", "lstm")
            for e in ("glove", "word2vec", "onehot") for o in ("adagrad", "sgd")]
           + [{"arch": "fnn", "encoding": "counts", "optimizer": o} for o in OPTIMIZERS])
_SMALL = st.integers(1, 8).map(str)
_IN_RANGE = {**{name: _SMALL for name in ("window", "filters", "batch", "epochs", "max_len",
                                          "min_count", "seed", "lbfgs_memory")},
             "dim": st.integers(2, 8).map(str), "hidden": _SMALL | st.just(""),
             "dropout": st.sampled_from(["0", "0.1", "0.5"]),
             "lr": st.sampled_from(["1e-3", "0.5", "2.5"]),
             "decay": st.sampled_from(["0", "1e-3", "1"]),
             "split_ratio": st.sampled_from(["0.5", "0.8"]),
             "oov_policy": st.sampled_from(["zero", "random-fixed"]),
             "fine_tune": st.sampled_from(["true", "false"]),
             "embeddings": st.just("vectors.txt")}
_ANY = st.sampled_from(["-2", "-1", "0", "1", "2.5", "nan", "inf", "-inf", "", "x", "1.5",
                        "other"])


@st.composite
def config_mappings(draw):
    mapping = {**draw(st.sampled_from(_ROUTES)),
               **draw(st.fixed_dictionaries({}, optional=_IN_RANGE))}
    for name in draw(st.lists(st.sampled_from([f.name for f in fields(RunConfig)]),
                              max_size=2)):
        mapping[name] = draw(_ANY)
    return mapping


def check_config(build):
    """A config either is refused with ``ConfigError`` (exit 1) or gives a
    spec that builds."""
    try:
        cfg = build()
        cfg.validate()
    except ConfigError:
        return
    M.init_params(_arch_spec(cfg, 8, 2), 0)


class TestConfigProperty:
    @settings(max_examples=500, deadline=None)
    @given(mapping=config_mappings())
    def test_config_text_is_refused_or_builds(self, mapping):
        text = "".join(f"{key}={value}\n" for key, value in mapping.items())
        check_config(lambda: RunConfig(**parse_config_text(text)))

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(config_mappings(), min_size=1, max_size=3))
    def test_grid_runs_are_refused_or_build(self, tmp_path_factory, runs):
        grid = tmp_path_factory.getbasetemp() / "property.grid"
        grid.write_text("".join(
            " ".join([f"run{i}", *(f"{k}={v}" for k, v in mapping.items())]) + "\n"
            for i, mapping in enumerate(runs)))
        try:
            entries = cli._parse_grid(grid, {})
        except ConfigError:
            return
        for _, mapping in entries:
            check_config(lambda: cli._split_mapping(mapping)[0])

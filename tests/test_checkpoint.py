"""The checkpoint file: its padded header, atomic replace, the copy-on-write
map of a hashed model's input table, and a reader that never trusts a file."""

import functools
import gc
import io
import json
import mmap
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentclass.models as M
from sentclass.harness.cli import main
from sentclass.harness.synth import write_embeddings_file
from sentclass.models import checkpoint
from sentclass.models.checkpoint import (ALIGN, MAGIC, CheckpointError, load_checkpoint,
                                         save_checkpoint)

FIXTURES = Path(__file__).parent / "fixtures"
LINES = ["cue0 cue0 pad1", "cue1 pad2 cue1", "pad3 pad4", "cue0 cue1 unseen"]
# one hashed-input configuration per family, small enough to train in a blink
HASHED = {
    "cnn": ["--arch", "cnn", "--encoding", "onehot", "--dim", "64", "--window", "2"],
    "rnn": ["--arch", "rnn", "--encoding", "onehot", "--dim", "64"],
    "lstm": ["--arch", "lstm", "--encoding", "onehot", "--dim", "64"],
    "fnn": ["--arch", "fnn", "--encoding", "counts", "--dim", "64"],
}
MMAP = mmap.mmap  # the type, also while a test makes mapping fail


def is_mapped(tensor) -> bool:
    """Whether ``tensor``'s memory is a map of a file rather than its own."""
    while isinstance(tensor, np.ndarray):
        tensor = tensor.base
    return isinstance(getattr(tensor, "obj", tensor), MMAP)


def maps_of(path) -> int:
    """How many of this process's memory maps name ``path``."""
    name = os.path.realpath(path)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sum(line.rstrip("\n").endswith(" " + name) for line in fh)


def tensor_starts(blob: bytes) -> list[int]:
    """The offset of each tensor in a checkpoint's bytes, and of its end."""
    header_end = blob.index(b"\n", len(MAGIC)) + 1
    header = json.loads(blob[len(MAGIC):header_end])
    at = [header_end]
    for _, shape in header["fields"] + header.get("arrays", []):
        at.append(at[-1] + 8 * int(np.prod(shape)))
    return at


def train(corpus_file, out_dir, *flags) -> Path:
    assert main(["train", *flags, "--hidden", "6", "--epochs", "2", "--batch", "8",
                 "--max-len", "6", "--seed", "5", "--format", "tsv",
                 "--train", str(corpus_file), "--out", str(out_dir)]) == 0
    return out_dir / "checkpoint.bin"


def outputs(path, corpus_file, capsys, monkeypatch) -> tuple[str, str]:
    """What ``sentclass predict`` and ``sentclass eval`` print for ``path``."""
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{x}\n" for x in LINES)))
    assert main(["predict", "--checkpoint", str(path)]) == 0
    predicted = capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(path), "--test", str(corpus_file),
                 "--format", "tsv"]) == 0
    return predicted, capsys.readouterr().out


def read_path_only(monkeypatch):
    """Make every map fail, as on a file system without mmap."""
    def refuse(*args, **kwargs):
        raise OSError("mmap refused")
    monkeypatch.setattr(checkpoint.mmap, "mmap", refuse)


class TestPaddedHeader:
    @pytest.mark.parametrize("arch", sorted(HASHED))
    def test_tensors_start_on_the_boundary(self, tmp_path, arch):
        family = M.FAMILIES[arch]
        spec = (M.FnnSpec((40, 3, 2)) if arch == "fnn"
                else family.spec(embed_dim=40, classes=2, hidden=3))
        path = tmp_path / "model.ckpt"
        params = M.init_params(spec, 1)
        rows = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]  # strided, float32
        save_checkpoint(path, params, {"encoding": "onehot", "labels": ["a"], "rows": rows})
        blob = path.read_bytes()
        start = tensor_starts(blob)[0]
        assert blob.startswith(MAGIC) and start % ALIGN == 0
        assert blob[start - 1:start] == b"\n" and blob[:start - 1].rstrip(b" ")[-1:] == b"}"
        tensors = (*params.tensors().values(), rows)
        assert blob[start:] == b"".join(t.astype("<f8").tobytes() for t in tensors)

    def test_unpadded_v3_file_reads_the_same(self, tmp_path):
        # the same header without padding: what a writer before the padding made
        params = M.init_params(M.CnnSpec(embed_dim=16, classes=2, n_filters=3, window=2,
                                         hidden=3), 4)
        meta = {"encoding": "onehot", "labels": ["a", "b"]}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta)
        blob = path.read_bytes()
        start = tensor_starts(blob)[0]
        head = blob[:start - 1].rstrip(b" ")
        for spaces in range(8):
            # offsets 8-aligned or not: mapped or read, the same tensors
            path.write_bytes(head + b" " * spaces + b"\n" + blob[start:])
            loaded, loaded_meta = load_checkpoint(path)
            assert loaded_meta == meta
            assert is_mapped(loaded.filters) == ((len(head) + spaces + 1) % 8 == 0)
            for name, tensor in params.tensors().items():
                assert np.array_equal(loaded.tensors()[name], tensor)


class TestAtomicSave:
    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = M.init_params(M.FnnSpec((6, 4, 3)), 0)
        save_checkpoint(path, params, {"labels": ["a", "b", "c"]})
        before = path.read_bytes()
        # the header and every tensor are written before this array fails to convert
        with pytest.raises(ValueError):
            save_checkpoint(path, params, {"rows": np.array(["not a number"], dtype=object)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_saving_over_a_mapped_file_leaves_the_loaded_tensors(self, tmp_path):
        path = tmp_path / "model.ckpt"
        meta = {"encoding": "onehot", "labels": ["a", "b"]}
        spec = M.CnnSpec(embed_dim=512, classes=2, n_filters=8, window=2, hidden=3)
        save_checkpoint(path, M.init_params(spec, 1), meta)
        loaded, _ = load_checkpoint(path)
        assert is_mapped(loaded.filters)
        kept = {name: t.copy() for name, t in loaded.tensors().items()}
        other = M.init_params(spec, 2)
        save_checkpoint(path, other, meta)
        for name, tensor in loaded.tensors().items():
            assert np.array_equal(tensor, kept[name])
        again, _ = load_checkpoint(path)
        for name, tensor in other.tensors().items():
            assert np.array_equal(again.tensors()[name], tensor)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


class TestMappedInputTable:
    @pytest.mark.parametrize("arch", sorted(HASHED))
    def test_hashed_table_is_mapped_and_outputs_match_the_read_path(
            self, corpus_file, tmp_path, capsys, monkeypatch, arch):
        path = train(corpus_file, tmp_path / "run", *HASHED[arch])
        params, _ = load_checkpoint(path)
        table = M.FAMILIES[arch].input_table
        assert [name for name, t in params.tensors().items() if is_mapped(t)] == [table]
        mapped = outputs(path, corpus_file, capsys, monkeypatch)
        with monkeypatch.context() as patch:
            read_path_only(patch)
            read, _ = load_checkpoint(path)
            assert not any(is_mapped(t) for t in read.tensors().values())
            for name, tensor in params.tensors().items():
                assert np.array_equal(read.tensors()[name], tensor)
            assert outputs(path, corpus_file, capsys, monkeypatch) == mapped

    def test_writes_to_a_loaded_table_never_reach_the_file(self, corpus_file, tmp_path):
        path = train(corpus_file, tmp_path / "run", *HASHED["cnn"])
        before = path.read_bytes()
        params, _ = load_checkpoint(path)
        assert is_mapped(params.filters) and params.filters.flags.writeable
        stored = params.filters.copy()
        params.filters[...] = 7.0
        params.filters[0, 0, 0] += 1.0
        assert path.read_bytes() == before
        assert np.array_equal(load_checkpoint(path)[0].filters, stored)

    def test_no_map_is_left_once_the_params_are_dropped(self, corpus_file, tmp_path):
        path = train(corpus_file, tmp_path / "run", *HASHED["cnn"])
        params, meta = load_checkpoint(path)
        assert maps_of(path) >= 1
        del params, meta
        gc.collect()
        assert maps_of(path) == 0

    @pytest.mark.parametrize("fixture", ["cnn-v1.ckpt", "lstm-v2.ckpt"])
    def test_older_formats_are_read(self, fixture):
        # hashed one-hot models written before format v3; test_train.py checks
        # that `predict` still gives these files' labels
        params, meta = load_checkpoint(FIXTURES / fixture)
        assert meta["encoding"] == "onehot"
        assert not any(is_mapped(t) for t in params.tensors().values())

    def test_dense_input_model_is_read(self, corpus_file, tmp_path, capsys, monkeypatch):
        vectors = tmp_path / "vectors.txt"
        write_embeddings_file(vectors, ["cue0", "cue1", "pad0", "pad1", "pad2"], dim=6, seed=4)
        path = train(corpus_file, tmp_path / "run", "--arch", "cnn", "--encoding", "glove",
                     "--embeddings", str(vectors), "--window", "2")
        params, meta = load_checkpoint(path)
        assert meta["encoding"] == "glove"
        assert not any(is_mapped(t) for t in params.tensors().values())
        read = outputs(path, corpus_file, capsys, monkeypatch)
        with monkeypatch.context() as patch:
            read_path_only(patch)
            assert outputs(path, corpus_file, capsys, monkeypatch) == read


@functools.cache
def valid_blob() -> bytes:
    """A padded v3 file of a hashed CNN with the metadata ``predict`` needs;
    its input table is not the last tensor, so truncations can cut after it."""
    params = M.init_params(M.CnnSpec(embed_dim=32, classes=2, n_filters=3, window=2,
                                     hidden=3), 6)
    meta = {"encoding": "onehot", "labels": ["a", "b"], "dim": 32, "max_len": 6,
            "rows": np.arange(6.0).reshape(2, 3)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, params, meta)
        return path.read_bytes()


def loads_or_refuses(blob: bytes) -> bool:
    """Whether a file holding ``blob`` loads.  The reader returns parameters
    or raises CheckpointError, and where it refuses the file ``sentclass
    predict`` exits 2 (a data error)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(blob)
        try:
            params, _ = load_checkpoint(path)
        except CheckpointError:
            assert main(["predict", "--checkpoint", str(path)]) == 2
            return False
        for tensor in params.tensors().values():
            float(tensor.sum())  # every byte of every tensor is there to read
        return True


class TestReaderProperties:
    def test_every_truncation_at_a_tensor_boundary_is_refused(self):
        blob = valid_blob()
        starts = tensor_starts(blob)
        assert starts[-1] == len(blob)
        for cut in [0, len(MAGIC), starts[0] - 1, *starts[:-1],
                    *(at + 8 for at in starts[:-1]), len(blob) - 1]:
            assert not loads_or_refuses(blob[:cut])
        assert loads_or_refuses(blob)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_truncations_are_refused(self, data):
        blob = valid_blob()
        cut = data.draw(st.integers(0, len(blob) - 1))
        assert not loads_or_refuses(blob[:cut])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_claimed_shapes_larger_than_the_file(self, data):
        blob = valid_blob()
        start = tensor_starts(blob)[0]
        header = json.loads(blob[len(MAGIC):start])
        key = data.draw(st.sampled_from(["fields", "arrays"]))
        field = data.draw(st.integers(0, len(header[key]) - 1))
        shape = data.draw(st.lists(st.integers(0, 2 ** 62), min_size=0, max_size=4))
        header[key][field][1] = shape
        head = MAGIC + json.dumps(header).encode()
        loads_or_refuses(head + b"\n" + blob[start:])
        # padded as the writer pads, so the input table's offset stays aligned
        loads_or_refuses(head + b" " * (-(len(head) + 1) % ALIGN) + b"\n" + blob[start:])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_header_bytes(self, data):
        blob = bytearray(valid_blob())
        start = tensor_starts(bytes(blob))[0]
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, start - 1))
            blob[at] = data.draw(st.integers(0, 255))
        loads_or_refuses(bytes(blob))


"""Vector file loaders, OOV policies and lookup matrices."""

import struct

import numpy as np
import pytest

from sentclass.embeddings import (
    OOV_RANDOM,
    EmbeddingFormatError,
    EmbeddingTable,
    load_binary_vectors,
    load_text_vectors,
    lookup_matrix,
)
from sentclass.text import PAD_TOKEN


def binary_bytes(entries, dim, header_count=None, record_newline=False):
    count = len(entries) if header_count is None else header_count
    blob = f"{count} {dim}\n".encode()
    for token, values in entries:
        blob += token.encode() + b" "
        blob += struct.pack(f"<{dim}f", *values)
        if record_newline:
            blob += b"\n"
    return blob


class TestTextLoader:
    def test_one_line_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n")
        table = load_text_vectors(path)
        assert table.dim == 2
        np.testing.assert_array_equal(table.entries["a"], [1.0, 2.0])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_text_vectors(path)

    def test_unreadable_float_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 1.0 oops\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_text_vectors(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_reports_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1.0 2.0\nb 1.0 {value}\n")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
            load_text_vectors(path)

    def test_three_line_round_trip(self, tmp_path):
        rows = {"red": [1.0, 0.0, 0.5], "green": [0.25, -1.5, 2.0],
                "blue": [-0.125, 3.0, 0.0]}
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{t} {' '.join(map(str, v))}\n" for t, v in rows.items()))
        table = load_text_vectors(path)
        for token, values in rows.items():
            np.testing.assert_array_equal(lookup_matrix(table, [token])[0], values)

    def test_expect_dim_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n")
        with pytest.raises(EmbeddingFormatError, match="expected dimension 3"):
            load_text_vectors(path, expect_dim=3)

    def test_duplicate_keeps_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\na 9.0 9.0\n")
        np.testing.assert_array_equal(load_text_vectors(path).entries["a"], [1.0, 2.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError):
            load_text_vectors(path)


class TestBinaryLoader:
    def test_hand_assembled_record(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(binary_bytes([("hi", [1.5, -2.0])], dim=2))
        table = load_binary_vectors(path)
        assert table.dim == 2
        assert len(table) == 1
        np.testing.assert_allclose(table.entries["hi"], [1.5, -2.0])

    def test_zero_vocab_count(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(b"0 7\n")
        table = load_binary_vectors(path)
        assert table.dim == 7 and len(table) == 0

    def test_truncated_mid_record(self, tmp_path):
        path = tmp_path / "vec.bin"
        blob = binary_bytes([("hi", [1.5, -2.0]), ("yo", [0.0, 1.0])], dim=2)
        path.write_bytes(blob[:-5])
        with pytest.raises(EmbeddingFormatError, match="record 1"):
            load_binary_vectors(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_component_reports_record(self, tmp_path, value):
        path = tmp_path / "vec.bin"
        path.write_bytes(binary_bytes([("a", [1.0, 2.0]), ("b", [value, 0.5])], 2))
        with pytest.raises(EmbeddingFormatError, match="record 1: non-finite"):
            load_binary_vectors(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(b"not a header\n")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_binary_vectors(path)

    def test_newline_after_records_tolerated(self, tmp_path):
        path = tmp_path / "vec.bin"
        path.write_bytes(binary_bytes([("a", [1.0]), ("b", [2.0])], dim=1,
                                      record_newline=True))
        table = load_binary_vectors(path)
        assert set(table.entries) == {"a", "b"}

    def test_text_and_binary_loads_agree_to_float32(self, tmp_path):
        values = {"one": [0.1, 0.2, 0.3], "two": [-1.0, 2.5, 0.125]}
        f32 = {t: np.array(v, dtype=np.float32) for t, v in values.items()}
        text_path = tmp_path / "v.txt"
        text_path.write_text("".join(
            f"{t} {' '.join(repr(float(x)) for x in vec)}\n" for t, vec in f32.items()))
        bin_path = tmp_path / "v.bin"
        bin_path.write_bytes(binary_bytes([(t, [float(x) for x in vec])
                                           for t, vec in f32.items()], dim=3))
        from_text = load_text_vectors(text_path)
        from_binary = load_binary_vectors(bin_path)
        for token in values:
            np.testing.assert_allclose(from_text.entries[token],
                                       from_binary.entries[token], atol=1e-7)


class TestLookupMatrix:
    def table(self, policy="zero"):
        return EmbeddingTable(dim=2, entries={"a": np.array([1.0, 2.0]),
                                              "b": np.array([3.0, 4.0])},
                              oov_policy=policy, oov_seed=5)

    def test_known_tokens(self):
        out = lookup_matrix(self.table(), ["a", "b", "a"])
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])

    def test_all_oov_zero_policy(self):
        out = lookup_matrix(self.table(), ["x", "y"])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_padding_rows_are_zero(self):
        out = lookup_matrix(self.table(OOV_RANDOM), ["a", PAD_TOKEN])
        np.testing.assert_array_equal(out[1], [0.0, 0.0])

    def test_random_fixed_is_stable(self):
        table = self.table(OOV_RANDOM)
        first = lookup_matrix(table, ["a", "mystery", "b", "enigma"])
        second = lookup_matrix(table, ["a", "mystery", "b", "enigma"])
        np.testing.assert_array_equal(first, second)
        assert np.any(first[1] != 0.0)
        assert np.all(np.abs(first[1]) <= 0.25)

    def test_random_fixed_is_order_and_instance_independent(self):
        one = lookup_matrix(self.table(OOV_RANDOM), ["enigma", "mystery"])
        other = lookup_matrix(self.table(OOV_RANDOM), ["mystery", "enigma"])
        np.testing.assert_array_equal(one[0], other[1])
        np.testing.assert_array_equal(one[1], other[0])

    def test_shape_is_n_by_d_regardless_of_oov(self):
        out = lookup_matrix(self.table(), ["q", "a", "zz", "b", "w"])
        assert out.shape == (5, 2)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            lookup_matrix(self.table(), [])

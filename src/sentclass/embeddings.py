"""Pre-trained word vectors: text and binary loaders, sequence lookup.

Text format: one entry per line, token followed by d space-separated
decimal floats, UTF-8.  Binary format: ASCII header ``<vocab_count> <dim>\\n``
then records of token bytes, one space, and dim little-endian float32
values (an optional newline between records is tolerated; both dialects
circulate).  Values are widened to float64 on load.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from .text import PAD_TOKEN, murmur3_32, undecodable

OOV_ZERO = "zero"
OOV_RANDOM = "random-fixed"

_OOV_SCALE = 0.25


class EmbeddingFormatError(ValueError):
    """Vector file violates its declared format."""


@dataclass
class EmbeddingTable:
    """Token-to-vector map with a fixed dimension and an out-of-vocabulary policy.

    ``zero`` maps unseen tokens to the zero row; ``random-fixed`` draws one
    uniform(-0.25, 0.25) vector per unseen token, derived from (oov_seed,
    token hash) so it is identical across runs and lookup orders.  The table
    is immutable after load; the OOV cache insertion is lock-protected so
    concurrent lookups are safe.
    """

    dim: int
    entries: dict[str, np.ndarray]
    oov_policy: str = OOV_ZERO
    oov_seed: int = 0
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _oov_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"embedding dimension must be at least 1, got {self.dim}")
        if self.oov_policy not in (OOV_ZERO, OOV_RANDOM):
            raise ValueError(f"unknown OOV policy {self.oov_policy!r}")

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def vector(self, token: str) -> np.ndarray:
        """Embedding row for one token; padding always maps to the zero row."""
        if token == PAD_TOKEN:
            return np.zeros(self.dim)
        stored = self.entries.get(token)
        if stored is not None:
            return stored
        if self.oov_policy == OOV_ZERO:
            return np.zeros(self.dim)
        return self._oov_vector(token)

    def _oov_vector(self, token: str) -> np.ndarray:
        with self._oov_lock:
            vec = self._oov_cache.get(token)
            if vec is None:
                seq = np.random.SeedSequence(
                    [self.oov_seed, murmur3_32(token.encode("utf-8"))]
                )
                vec = np.random.default_rng(seq).uniform(-_OOV_SCALE, _OOV_SCALE, self.dim)
                self._oov_cache[token] = vec
            return vec


def load_text_vectors(path, expect_dim: int | None = None) -> EmbeddingTable:
    """Parse a text-format vector file; dimension is inferred from the first line.

    Duplicate tokens keep their first occurrence.  Raises
    EmbeddingFormatError with the offending line number on ragged rows,
    bytes that are not UTF-8, and unreadable or non-finite floats.
    """
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if undecodable(line):
                raise EmbeddingFormatError(f"{path}: line {lineno}: not valid UTF-8")
            parts = line.split()
            if not parts:
                raise EmbeddingFormatError(f"{path}: malformed line {lineno}: empty line")
            token, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise EmbeddingFormatError(
                        f"{path}: malformed line {lineno}: no vector components"
                    )
                dim = len(values)
                if expect_dim is not None and dim != expect_dim:
                    raise EmbeddingFormatError(
                        f"{path}: line {lineno}: expected dimension {expect_dim}, found {dim}"
                    )
            elif len(values) != dim:
                raise EmbeddingFormatError(
                    f"{path}: malformed line {lineno}: expected {dim} components, "
                    f"found {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}: parse error at line {lineno}: unreadable float"
                ) from None
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}: line {lineno}: non-finite component")
            entries.setdefault(token, vec)
    if dim is None:
        raise EmbeddingFormatError(f"{path}: empty vector file")
    return EmbeddingTable(dim=dim, entries=entries)


def load_binary_vectors(path) -> EmbeddingTable:
    """Parse a binary-format vector file (header plus float32 records).

    Raises EmbeddingFormatError naming the record on a truncated record, a
    token that is not UTF-8 or a non-finite component.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}: header is not two integers: {header!r}")
        try:
            vocab_count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(
                f"{path}: header is not two integers: {header!r}"
            ) from None
        if vocab_count < 0 or dim < 1:
            raise EmbeddingFormatError(
                f"{path}: header values out of range: count={vocab_count} dim={dim}"
            )
        entries: dict[str, np.ndarray] = {}
        for record in range(vocab_count):
            token_bytes = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise EmbeddingFormatError(
                        f"{path}: unexpected end of file in record {record}"
                    )
                if ch == b" ":
                    break
                if ch == b"\n" and not token_bytes:
                    continue  # optional newline separating records
                token_bytes += ch
            raw = fh.read(4 * dim)
            if len(raw) != 4 * dim:
                raise EmbeddingFormatError(
                    f"{path}: unexpected end of file in record {record}"
                )
            try:
                token = token_bytes.decode("utf-8")
            except UnicodeDecodeError:
                raise EmbeddingFormatError(
                    f"{path}: record {record}: token is not valid UTF-8"
                ) from None
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}: record {record}: non-finite component")
            entries.setdefault(token, vec)
    return EmbeddingTable(dim=dim, entries=entries)


def lookup_matrix(table: EmbeddingTable, tokens: list[str]) -> np.ndarray:
    """Stack embedding rows for a token sequence into an n-by-d matrix."""
    if not tokens:
        raise ValueError("token sequence is empty")
    out = np.zeros((len(tokens), table.dim), dtype=np.float64)
    for i, token in enumerate(tokens):
        out[i] = table.vector(token)
    return out

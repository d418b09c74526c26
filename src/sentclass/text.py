"""Raw sentences to model-ready tokens.

Covers the whole preprocessing path: whitespace/punctuation tokenizer,
frequency-cutoff vocabulary, hashed count vectors, 32-bit MurmurHash3
feature hashing, fixed-length padding and the underscore normalization
used for pre-segmented Vietnamese words.
"""

import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
UNK_INDEX = 1

# Lowercase ASCII only; non-ASCII text passes through verbatim so the byte
# encoding fed to the hash is stable across platforms.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
# Underscore is not a separator: it joins multi-syllable words into one token.
_PUNCT = frozenset(string.punctuation) - {"_"}

_M32 = 0xFFFFFFFF


class EmptySentenceError(ValueError):
    """Input text contains no tokens."""


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """32-bit MurmurHash3 (x86 variant) of a byte string."""
    h = seed & _M32
    n = len(data)
    nblocks = n // 4
    for i in range(nblocks):
        k = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k = (k * 0xCC9E2D51) & _M32
        k = ((k << 15) | (k >> 17)) & _M32
        k = (k * 0x1B873593) & _M32
        h ^= k
        h = ((h << 13) | (h >> 19)) & _M32
        h = (h * 5 + 0xE6546B64) & _M32
    tail = data[4 * nblocks :]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * 0xCC9E2D51) & _M32
        k = ((k << 15) | (k >> 17)) & _M32
        k = (k * 0x1B873593) & _M32
        h ^= k
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    h ^= h >> 16
    return h


def hash_index(token: str, dim: int) -> int:
    """Hashed feature slot for a token: murmur3 of its UTF-8 bytes, mod dim."""
    if dim < 2:
        raise ValueError(f"hash dimension must be at least 2, got {dim}")
    return murmur3_32(token.encode("utf-8")) % dim


def undecodable(line: str) -> bool:
    """Whether a line read with ``errors="surrogateescape"`` held bytes that
    are not UTF-8: each such byte decodes to a lone surrogate."""
    return re.search("[\udc80-\udcff]", line) is not None


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, peeling leading/trailing punctuation
    off each chunk as standalone tokens.  Interior punctuation (hyphens,
    apostrophes, underscores) stays attached.
    """
    tokens: list[str] = []
    for chunk in text.translate(_ASCII_LOWER).split():
        lead: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    if not tokens:
        raise EmptySentenceError(f"no tokens in input {text!r}")
    return tokens


def normalize_vietnamese(tokens: list[str]) -> list[str]:
    """Join multi-syllable words: spaces inside a token become underscores."""
    return [token.replace(" ", "_") for token in tokens]


@dataclass
class Vocabulary:
    """Token index space with reserved slots: 0 for padding, 1 for unknown.

    Immutable after construction; safe for concurrent readers.
    """

    token_to_index: dict[str, int]
    index_to_token: list[str]
    index_to_freq: list[int]
    min_count: int = 1

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    def token(self, index: int) -> str:
        return self.index_to_token[index]

    def frequency(self, token: str) -> int:
        return self.index_to_freq[self.token_to_index[token]] if token in self else 0

    def keep(self, tokens: list[str]) -> list[str]:
        """Drop tokens that did not survive the frequency cutoff."""
        return [t for t in tokens if t in self.token_to_index]

    def items(self):
        """Kept (token, frequency) pairs in index order, reserved slots excluded."""
        return [
            (self.index_to_token[i], self.index_to_freq[i])
            for i in range(2, len(self.index_to_token))
        ]

    @classmethod
    def from_items(cls, items, min_count: int = 1) -> "Vocabulary":
        """Rebuild a vocabulary from ``items()`` output (checkpoint round-trip)."""
        tokens = [token for token, _ in items]
        return cls(
            token_to_index={t: i + 2 for i, t in enumerate(tokens)},
            index_to_token=[PAD_TOKEN, UNK_TOKEN, *tokens],
            index_to_freq=[0, 0, *(int(freq) for _, freq in items)],
            min_count=min_count,
        )


def build_vocabulary(corpus: list[list[str]], min_count: int = 1) -> Vocabulary:
    """Vocabulary over a token corpus, keeping tokens seen at least min_count times.

    Indices start at 2 and are assigned by descending frequency with
    lexicographic tie-break, so rebuilding from the same corpus (in any
    order) gives the identical assignment.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    index_to_token = [PAD_TOKEN, UNK_TOKEN, *kept]
    index_to_freq = [0, 0, *(counts[t] for t in kept)]
    token_to_index = {t: i + 2 for i, t in enumerate(kept)}
    return Vocabulary(token_to_index, index_to_token, index_to_freq, min_count)


def count_vector(tokens: list[str], dim: int) -> np.ndarray:
    """Hashed unigram counts: slot hash_index(token, dim) incremented per token.

    Padding tokens do not contribute.
    """
    if dim < 2:
        raise ValueError(f"count vector dimension must be at least 2, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        if token != PAD_TOKEN:
            vec[hash_index(token, dim)] += 1.0
    return vec


def pad_or_truncate(tokens: list[str], max_len: int) -> list[str]:
    """Force a sequence to exactly max_len tokens.

    Longer sequences keep their head (question cues cluster at the start);
    shorter ones are right-padded.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if len(tokens) >= max_len:
        return list(tokens[:max_len])
    return list(tokens) + [PAD_TOKEN] * (max_len - len(tokens))

"""Labeled corpus ingestion and splitting.

Two carriers: the question-classification format (one line per question,
``COARSE:fine`` label then the text) and a generic TSV format
(``label<TAB>sentence``).  Question files circulate in Latin-1; TSV files
are read as UTF-8.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ..text import tokenize, undecodable

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Corpus file violates its format; message carries the line number."""


class EmptyDatasetError(ValueError):
    """Corpus file contains no examples."""


@dataclass
class Dataset:
    """Examples as (label index, token list) against an ordered label catalog."""

    examples: list[tuple[int, list[str]]]
    labels: list[str]
    source: str = ""

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def label_count(self) -> int:
        return len(self.labels)

    def label_name(self, index: int) -> str:
        return self.labels[index]


def _parse_question_line(line: str, path, lineno: int) -> tuple[str, list[str]]:
    head, _, rest = line.partition(" ")
    if head.count(":") != 1 or not rest.strip():
        raise DataFormatError(
            f"{path}: line {lineno}: expected 'COARSE:fine question text', got {line!r}"
        )
    return head, tokenize(rest)


def _read_question_file(path, label_index: dict[str, int], labels: list[str],
                        extend: bool) -> list[tuple[int, list[str]]]:
    """Parse one file; with ``extend`` unseen labels join the catalog, else they error."""
    examples = []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            label, tokens = _parse_question_line(line, path, lineno)
            if label not in label_index:
                if not extend:
                    raise DataFormatError(
                        f"{path}: line {lineno}: label {label!r} does not appear "
                        "in the training set"
                    )
                label_index[label] = len(labels)
                labels.append(label)
            examples.append((label_index[label], tokens))
    if not examples:
        raise EmptyDatasetError(f"{path}: no examples found")
    return examples


def load_uiuc(train_path, test_path) -> tuple[Dataset, Dataset]:
    """Load the question-classification training and test files.

    Fine-grained labels are the full ``COARSE:fine`` strings; the catalog is
    built from the training file in first-appearance order, and every test
    label must already be in it.
    """
    labels: list[str] = []
    label_index: dict[str, int] = {}
    train_examples = _read_question_file(train_path, label_index, labels, extend=True)
    test_examples = _read_question_file(test_path, label_index, labels, extend=False)
    return (
        Dataset(train_examples, list(labels), source=str(train_path)),
        Dataset(test_examples, list(labels), source=str(test_path)),
    )


def load_uiuc_file(path) -> Dataset:
    """Load a single question file with its own first-appearance label catalog."""
    labels: list[str] = []
    label_index: dict[str, int] = {}
    examples = _read_question_file(path, label_index, labels, extend=True)
    return Dataset(examples, labels, source=str(path))


def load_tsv(path) -> Dataset:
    """Load ``label<TAB>sentence`` lines; labels indexed in first-appearance order."""
    labels: list[str] = []
    index: dict[str, int] = {}
    examples = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if undecodable(raw):
                raise DataFormatError(f"{path}: line {lineno}: not valid UTF-8")
            line = raw.rstrip("\n")
            if not line:
                continue
            label, tab, sentence = line.partition("\t")
            if not tab or not label or not sentence.strip():
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 'label<TAB>sentence', got {line!r}"
                )
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            examples.append((index[label], tokenize(sentence)))
    if not examples:
        raise EmptyDatasetError(f"{path}: no examples found")
    return Dataset(examples, labels, source=str(path))


def write_tsv(dataset: Dataset, path) -> None:
    """Inverse of load_tsv for tokenized corpora (tokens joined by spaces)."""
    with open(path, "w", encoding="utf-8") as fh:
        for label_idx, tokens in dataset.examples:
            fh.write(f"{dataset.labels[label_idx]}\t{' '.join(tokens)}\n")


def split(data: Dataset, ratio: float, seed) -> tuple[Dataset, Dataset]:
    """Seeded shuffle then prefix split; both parts keep the full label catalog."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie strictly between 0 and 1, got {ratio}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data.examples))
    cut = int(round(ratio * len(data.examples)))
    train_examples = [data.examples[i] for i in order[:cut]]
    test_examples = [data.examples[i] for i in order[cut:]]
    seen = {idx for idx, _ in train_examples}
    missing = [data.labels[i] for i in range(len(data.labels)) if i not in seen]
    if missing:
        log.warning("labels absent from the training part after split: %s",
                    ", ".join(missing))
    return (
        Dataset(train_examples, list(data.labels), source=data.source),
        Dataset(test_examples, list(data.labels), source=data.source),
    )


def align_labels(reference: Dataset, other: Dataset) -> Dataset:
    """Re-index ``other`` into the reference catalog; unknown labels are errors."""
    if other.labels == reference.labels:
        return other
    index = {lab: i for i, lab in enumerate(reference.labels)}
    remapped = []
    for label_idx, tokens in other.examples:
        name = other.labels[label_idx]
        if name not in index:
            raise DataFormatError(
                f"{other.source or 'dataset'}: label {name!r} does not appear "
                "in the training set"
            )
        remapped.append((index[name], tokens))
    return Dataset(remapped, list(reference.labels), source=other.source)

"""Fixtures shared by the command-line and checkpoint tests."""

import numpy as np
import pytest

from sentclass.harness.data import Dataset, write_tsv


@pytest.fixture()
def corpus_file(tmp_path):
    """A 40-sentence, two-label TSV corpus: each label's cue word twice,
    then three of five shared pad words."""
    rng = np.random.default_rng(0)
    examples = []
    for i in range(40):
        cls = i % 2
        tokens = [f"cue{cls}", f"cue{cls}"] \
            + [f"pad{int(j)}" for j in rng.integers(0, 5, size=3)]
        examples.append((cls, tokens))
    path = tmp_path / "corpus.tsv"
    write_tsv(Dataset(examples, ["alpha", "beta"]), path)
    return path

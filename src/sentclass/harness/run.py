"""Experiment configuration and the train/evaluate loop.

A run is fully determined by (config, data files): parameter init, epoch
shuffling and dropout all draw from generators spawned off the run seed, so
identical invocations produce identical checkpoints and learning curves.
"""

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .. import models
from ..embeddings import (
    OOV_RANDOM,
    OOV_ZERO,
    load_binary_vectors,
    load_text_vectors,
    lookup_matrix,
)
from ..optim import AdagradState, adagrad_step, lbfgs_minimize, sgd_step
from ..tensor import gather_rows, scatter_rows
from ..text import (
    PAD_TOKEN,
    Vocabulary,
    build_vocabulary,
    count_vector,
    hash_index,
    pad_or_truncate,
    undecodable,
)
from .data import Dataset, align_labels

ARCHS = ("fnn", "cnn", "rnn", "lstm")
ENCODINGS = ("glove", "word2vec", "onehot", "counts")
OPTIMIZERS = ("adagrad", "sgd", "lbfgs")

_EVAL_CHUNK = 1024


class ConfigError(ValueError):
    """Run configuration is inconsistent or incomplete."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss: at ``iteration`` (an epoch, or an
    L-BFGS iteration) and, in minibatch training, at its 1-based ``batch``."""

    def __init__(self, iteration: int, batch: int | None = None):
        where = "" if batch is None else f", batch {batch}"
        super().__init__(f"training diverged at iteration {iteration}{where}")
        self.iteration = iteration
        self.batch = batch


@dataclass
class RunConfig:
    """Everything a training run depends on besides the data itself."""

    arch: str = "cnn"
    encoding: str = "glove"
    embeddings: str | None = None   # vector file for glove/word2vec encodings
    dim: int = 1024                 # hashed feature-space size (onehot/counts)
    window: int = 3
    filters: int = 256              # convolution output frame size
    hidden: int | None = None       # None: 128 for cnn, 256 otherwise
    dropout: float = 0.1
    optimizer: str = "adagrad"
    lr: float = 1e-2
    decay: float = 1e-3
    batch: int = 128
    epochs: int = 100
    max_len: int = 20
    min_count: int = 2              # count-vector frequency cutoff
    seed: int = 42
    split_ratio: float = 0.8
    oov_policy: str = OOV_ZERO
    fine_tune: bool = False
    lbfgs_memory: int = 10

    @property
    def resolved_hidden(self) -> int:
        if self.hidden is not None:
            return self.hidden
        return 128 if self.arch == "cnn" else 256

    def validate(self) -> None:
        problems = []
        if self.arch not in ARCHS:
            problems.append(f"unknown arch {self.arch!r}")
        if self.encoding not in ENCODINGS:
            problems.append(f"unknown encoding {self.encoding!r}")
        if self.optimizer not in OPTIMIZERS:
            problems.append(f"unknown optimizer {self.optimizer!r}")
        if self.arch == "fnn" and self.encoding != "counts":
            problems.append("fnn takes count vectors only")
        if self.arch != "fnn" and self.encoding == "counts":
            problems.append("count vectors feed the fnn only")
        if self.optimizer == "lbfgs" and self.arch != "fnn":
            problems.append("lbfgs is the full-batch fnn optimizer")
        if self.encoding in ("glove", "word2vec") and not self.embeddings:
            problems.append(f"encoding {self.encoding!r} needs an embeddings file")
        if self.encoding in ("onehot", "counts") and self.dim < 2:
            problems.append(f"hashed dimension must be at least 2, got {self.dim}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            problems.append(f"epochs must be at least 1, got {self.epochs}")
        if self.batch < 1:
            problems.append(f"batch must be at least 1, got {self.batch}")
        if self.max_len < 1:
            problems.append(f"max_len must be at least 1, got {self.max_len}")
        if self.max_len < self.window and self.arch == "cnn":
            problems.append(f"max_len {self.max_len} is below the window {self.window}")
        if not 0.0 < self.split_ratio < 1.0:
            problems.append(f"split ratio must lie in (0, 1), got {self.split_ratio}")
        if self.oov_policy not in (OOV_ZERO, OOV_RANDOM):
            problems.append(f"unknown OOV policy {self.oov_policy!r}")
        if self.fine_tune and self.encoding not in ("glove", "word2vec"):
            problems.append("fine_tune applies to embedding-lookup encodings only")
        if problems:
            raise ConfigError("; ".join(problems))


# ---------------------------------------------------------------------------
# Encoders: token sequences to model inputs.
# ---------------------------------------------------------------------------


class DenseSequenceEncoder:
    """Padded token sequence to index rows (pad = -1) into the embedding
    ``matrix`` it owns.  ``encode_many`` looks each distinct token up once,
    the first time it meets it, and appends its vector (loaded, or the OOV
    policy's) to ``matrix``; ``encode`` is the per-example oracle.
    Fine-tuning trains ``matrix`` in place."""

    kind = "embedding"

    def __init__(self, table, max_len: int):
        self.table = table
        self.max_len = max_len
        self.row: dict[str, int] = {}    # token to its row of ``matrix``, in row order
        self.matrix = np.zeros((0, table.dim))
        self.tuned = None  # (tokens, rows) once fine-tuned rows replaced their vectors

    @property
    def dim(self) -> int:
        return self.table.dim

    def tune(self, tokens, rows) -> None:
        """Replace the vectors and ``matrix`` rows of ``tokens`` by the tuned ``rows``."""
        rows = np.array(rows, dtype=np.float64)
        for token, row in zip(tokens, rows):
            self.table.entries[token] = row
            if token in self.row:
                self.matrix[self.row[token]] = row
        self.tuned = (list(tokens), rows)

    def encode(self, tokens) -> np.ndarray:
        return lookup_matrix(self.table, pad_or_truncate(tokens, self.max_len))

    def encode_many(self, dataset: Dataset) -> np.ndarray:
        out = np.full((len(dataset.examples), self.max_len), -1, dtype=np.int64)
        new = []
        for i, (_, tokens) in enumerate(dataset.examples):
            for j, token in enumerate(tokens[:self.max_len]):
                if token == PAD_TOKEN:
                    continue
                k = self.row.get(token)
                if k is None:
                    k = self.row[token] = len(self.row)
                    new.append(self.table.vector(token))
                out[i, j] = k
        if new:
            self.matrix = np.vstack([self.matrix, *new])
        return out


class HashedSequenceEncoder:
    """Padded token sequence to hashed one-hot rows, carried as indices
    (pad = -1).  ``encode_many`` hashes each distinct token once per call;
    ``indices`` is the per-example oracle."""

    kind = "hashed"

    def __init__(self, dim: int, max_len: int):
        self._dim = dim
        self.max_len = max_len

    @property
    def dim(self) -> int:
        return self._dim

    def indices(self, tokens) -> np.ndarray:
        padded = pad_or_truncate(tokens, self.max_len)
        return np.array(
            [-1 if t == PAD_TOKEN else hash_index(t, self._dim) for t in padded],
            dtype=np.int64,
        )

    def encode_many(self, dataset: Dataset) -> np.ndarray:
        slots = {PAD_TOKEN: -1}
        out = np.full((len(dataset.examples), self.max_len), -1, dtype=np.int64)
        for i, (_, tokens) in enumerate(dataset.examples):
            row = tokens[:self.max_len]
            for token in row:
                if token not in slots:
                    slots[token] = hash_index(token, self._dim)
            out[i, :len(row)] = [slots[t] for t in row]
        return out


class CountEncoder:
    """Whole sentence to hashed unigram counts (cutoff applied first).

    ``encode`` gives one dense count vector; ``encode_many`` carries a batch
    as index rows: each entry is the hashed slot of a kept token, a repeated
    slot is a count, and -1 pads every row to the longest (at least 1).
    """

    kind = "counts"

    def __init__(self, vocab: Vocabulary, dim: int):
        self.vocab = vocab
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def encode(self, tokens) -> np.ndarray:
        return count_vector(self.vocab.keep(tokens), self._dim)

    def encode_many(self, dataset: Dataset) -> np.ndarray:
        slots: dict[str, int] = {}  # each kept token is hashed once per call
        rows = []
        for _, tokens in dataset.examples:
            kept = [t for t in self.vocab.keep(tokens) if t != PAD_TOKEN]
            for token in kept:
                if token not in slots:
                    slots[token] = hash_index(token, self._dim)
            rows.append([slots[t] for t in kept])
        out = np.full((len(rows), max([1, *map(len, rows)])), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            out[i, :len(row)] = row
        return out


def build_encoder(cfg: RunConfig, train: Dataset):
    """Construct the encoder a config calls for, fitting on the training data."""
    if cfg.encoding in ("glove", "word2vec"):
        loader = load_text_vectors if cfg.encoding == "glove" else load_binary_vectors
        table = loader(cfg.embeddings)
        table.oov_policy = cfg.oov_policy
        table.oov_seed = cfg.seed
        return DenseSequenceEncoder(table, cfg.max_len)
    if cfg.encoding == "onehot":
        return HashedSequenceEncoder(cfg.dim, cfg.max_len)
    vocab = build_vocabulary([tokens for _, tokens in train.examples], cfg.min_count)
    return CountEncoder(vocab, cfg.dim)


def _arch_spec(cfg: RunConfig, input_dim: int, classes: int):
    """The spec of ``cfg.arch``, each of its fields taken from the config."""
    hidden = cfg.resolved_hidden
    values = {"layer_sizes": (input_dim, hidden, classes), "embed_dim": input_dim,
              "classes": classes, "n_filters": cfg.filters, "window": cfg.window,
              "hidden": hidden, "dropout": cfg.dropout}
    spec = models.FAMILIES[cfg.arch].spec
    return spec(**{f.name: values[f.name] for f in fields(spec)})


# ---------------------------------------------------------------------------
# Learning curves and result tables.
# ---------------------------------------------------------------------------


@dataclass
class CurvePoint:
    iteration: int
    train_loss: float
    test_accuracy: float
    seconds: float


@dataclass
class LearningCurve:
    points: list[CurvePoint] = field(default_factory=list)
    # why L-BFGS stopped (an ``LbfgsResult.status``); None for minibatch
    # runs and curves read back from a file, which does not store it
    stop_reason: str | None = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def best_accuracy(self) -> float:
        return max(p.test_accuracy for p in self.points)

    @property
    def final_accuracy(self) -> float:
        return self.points[-1].test_accuracy


def _format_accuracy(value: float) -> str:
    text = f"{value:.4f}"  # at least four digits
    return text if float(text) == value else repr(value)


def emit_curve(curve: LearningCurve, path) -> None:
    """Write the per-iteration records as CSV (accuracy round-trips exactly)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,train_loss,test_accuracy,seconds\n")
        for p in curve.points:
            fh.write(f"{p.iteration},{p.train_loss!r},"
                     f"{_format_accuracy(p.test_accuracy)},{p.seconds:.3f}\n")


def load_curve(path) -> LearningCurve:
    curve = LearningCurve()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "iteration,train_loss,test_accuracy,seconds":
            raise ValueError(f"{path}: unexpected curve header {header!r}")
        for line in fh:
            it, loss, acc, sec = line.strip().split(",")
            curve.points.append(CurvePoint(int(it), float(loss), float(acc), float(sec)))
    return curve


def compare_table(runs: list[tuple[str, float]]) -> str:
    """Accuracy table sorted best-first; ties keep their input order."""
    ordered = sorted(runs, key=lambda r: -r[1])
    width = max([len("model")] + [len(name) for name, _ in ordered])
    lines = [f"{'model':<{width}}  accuracy"]
    for name, accuracy in ordered:
        lines.append(f"{name:<{width}}  {accuracy * 100:6.2f}%")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def _batch_functions(cfg, encoder):
    """(grads_fn, probs_fn) for ``cfg.arch`` on the encoder's input carrier.

    ``cfg`` is a RunConfig or a parameter set; both carry the arch tag.
    ``grads_fn(params, xs, ys, rng)`` returns the mean training loss and the
    batch-mean gradients; ``probs_fn(params, xs)`` returns eval-mode class
    distributions.  Every carrier is index rows (pad = -1).  Hashed one-hot
    and count rows go to the family's index kernels.  Embedding rows gather
    ``encoder.matrix`` (read at each call) for the dense kernels; with
    ``cfg.fine_tune`` the matrix is one more tensor, ``embeddings``, whose
    ``RowGrad`` scatters the input gradient the kernels give for ``want_dx``.
    """
    family = models.FAMILIES[cfg.arch]
    batch_grads, batch_probs = family.grads, family.probs
    if encoder.kind == "hashed":
        batch_grads, batch_probs = family.hashed_grads, family.hashed_probs
    elif encoder.kind == "embedding":
        fine_tune = getattr(cfg, "fine_tune", False)

        def batch_probs(params, idx):
            return family.probs(params, gather_rows(encoder.matrix, idx))

        def batch_grads(params, idx, ys, train, rng):
            losses, grads, *dx = family.grads(params, gather_rows(encoder.matrix, idx), ys,
                                              train=train, rng=rng, want_dx=fine_tune)
            if fine_tune:  # dx already carries the mean-loss scale, like the param grads
                grads = dict(grads, embeddings=scatter_rows(dx[0], idx, encoder.matrix.shape))
            return losses, grads

    def grads_fn(params, xs, ys, rng):
        losses, grads = batch_grads(params, xs, ys, train=True, rng=rng)
        return float(losses.mean()), grads
    return grads_fn, batch_probs


def _classes(probs_fn, params, xs) -> np.ndarray:
    """Most probable class of each input, scored in chunks of ``_EVAL_CHUNK``;
    ties go to the smallest class index."""
    out = np.empty(len(xs), dtype=np.int64)
    for lo in range(0, len(xs), _EVAL_CHUNK):
        out[lo:lo + _EVAL_CHUNK] = probs_fn(params, xs[lo:lo + _EVAL_CHUNK]).argmax(axis=1)
    return out


def _accuracy(probs_fn, params, x_test, y_test) -> float:
    return int((_classes(probs_fn, params, x_test) == y_test).sum()) / len(y_test)


def train_run(cfg: RunConfig, train: Dataset, test: Dataset, encoder=None):
    """Train one model; returns (params, learning curve).

    Records train loss (mean over the pass) and test accuracy after every
    full pass over the training data; aborts with DivergedError on a
    non-finite loss.  Bit-deterministic given the config seed.
    """
    cfg.validate()
    if len(train.examples) == 0:
        raise ConfigError("training set is empty")
    test = align_labels(train, test)
    if encoder is None:
        encoder = build_encoder(cfg, train)
    classes = len(train.labels)
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    init_seq, shuffle_seq, dropout_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    params = models.init_params(_arch_spec(cfg, encoder.dim, classes), init_seq)
    y_train = np.array([label for label, _ in train.examples], dtype=np.int64)
    y_test = np.array([label for label, _ in test.examples], dtype=np.int64)
    # both splits are encoded before any optimizer state exists, so a
    # fine-tuned embedding matrix is not reallocated while it trains
    x_train = encoder.encode_many(train)
    x_test = encoder.encode_many(test)
    grads_fn, probs_fn = _batch_functions(cfg, encoder)
    curve = LearningCurve()
    start = time.perf_counter()
    if cfg.optimizer == "lbfgs":
        _train_lbfgs(cfg, params, grads_fn, probs_fn, x_train, y_train, x_test, y_test,
                     curve, start)
        return params, curve
    tensors = params.tensors()
    if cfg.fine_tune:
        tensors = dict(tensors, embeddings=encoder.matrix)
    state = None
    if cfg.optimizer == "adagrad":
        state = AdagradState.for_params(tensors, cfg.lr, cfg.decay)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    n = len(y_train)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch, lo in enumerate(range(0, n, cfg.batch), start=1):
            sel = order[lo:lo + cfg.batch]
            mean_loss, grads = grads_fn(params, x_train[sel], y_train[sel], dropout_rng)
            if not np.isfinite(mean_loss):
                raise DivergedError(epoch, batch)
            if state is not None:
                adagrad_step(state, tensors, grads)
            else:
                sgd_step(tensors, grads, cfg.lr)
            loss_sum += mean_loss * len(sel)
        train_loss = loss_sum / n
        if not np.isfinite(train_loss):
            raise DivergedError(epoch)
        accuracy = _accuracy(probs_fn, params, x_test, y_test)
        curve.points.append(
            CurvePoint(epoch, train_loss, accuracy, time.perf_counter() - start))
    if cfg.fine_tune:
        # the rows the training set touched go back to the table, by token
        tokens = list(encoder.row)
        rows = sorted(np.unique(x_train[x_train >= 0]), key=tokens.__getitem__)
        encoder.tune([tokens[k] for k in rows], encoder.matrix[rows])
    return params, curve


def _train_lbfgs(cfg, params, grads_fn, probs_fn, x_train, y_train, x_test, y_test,
                 curve, start):
    """Full-batch L-BFGS over the rows of ``w0`` the training inputs touch
    and every other tensor whole.

    The objective has no penalty term, so the gradient of an untouched row
    is identically zero; L-BFGS would keep it, and each direction and
    curvature pair, at zero there, so those rows keep their initial values.
    """
    tensors = params.tensors()
    touched = np.unique(x_train[x_train >= 0])
    at = {name: touched if name == "w0" else slice(None) for name in tensors}
    shapes = {name: tensors[name][at[name]].shape for name in tensors}
    sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}

    def pack(values: dict) -> np.ndarray:
        return np.concatenate([values[k].ravel() for k in tensors])

    def unpack(vec: np.ndarray) -> None:
        offset = 0
        for name, tensor in tensors.items():
            tensor[at[name]] = vec[offset:offset + sizes[name]].reshape(shapes[name])
            offset += sizes[name]

    def objective(vec):
        unpack(vec)
        loss, grads = grads_fn(params, x_train, y_train, None)
        if not np.isfinite(loss):
            raise DivergedError(len(curve.points) + 1)
        assert np.array_equal(grads["w0"].rows, touched)
        return loss, pack(dict(grads, w0=grads["w0"].values))

    def record(iteration, vec, loss, _gnorm):
        unpack(vec)
        accuracy = _accuracy(probs_fn, params, x_test, y_test)
        curve.points.append(
            CurvePoint(iteration, loss, accuracy, time.perf_counter() - start))

    x0 = pack({name: tensor[at[name]] for name, tensor in tensors.items()})
    result = lbfgs_minimize(objective, x0, m=cfg.lbfgs_memory,
                            max_iter=cfg.epochs, tol=1e-10, callback=record)
    unpack(result.x)
    curve.stop_reason = result.status


def evaluate(params, test: Dataset, encoder) -> float:
    """Fraction of test examples whose predicted class matches the gold label."""
    if len(test.examples) == 0:
        raise ValueError("test set is empty")
    y_test = np.array([label for label, _ in test.examples], dtype=np.int64)
    bad = y_test[(y_test < 0) | (y_test >= len(test.labels))]
    if bad.size:
        raise ValueError(f"label index {int(bad[0])} outside the catalog")
    _, probs_fn = _batch_functions(params, encoder)
    return _accuracy(probs_fn, params, encoder.encode_many(test), y_test)


def predict(params, xs, encoder) -> np.ndarray:
    """Class index of each row of an ``encoder.encode_many`` batch: the
    argmax that ``evaluate`` scores, ties going to the smallest index."""
    _, probs_fn = _batch_functions(params, encoder)
    return _classes(probs_fn, params, xs)


# ---------------------------------------------------------------------------
# Flat key=value config carrier (files and echo output).
# ---------------------------------------------------------------------------

_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}

# keys a config file may carry beyond RunConfig fields (data paths etc.)
EXTRA_CONFIG_KEYS = ("train", "test", "format", "out", "name")


def coerce_config_value(name: str, text: str):
    """Parse one config value by the type of its RunConfig field."""
    spec = {f.name: f.type for f in fields(RunConfig)}
    text = text.strip()
    if name in EXTRA_CONFIG_KEYS:
        return text
    if name not in spec:
        raise ConfigError(f"unknown config key {name!r}")
    kind = spec[name]
    if kind == (str | None):
        return text or None
    if kind == (int | None):
        return int(text) if text else None
    if kind is str:
        return text
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is bool:
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"config key {name!r} expects a boolean, got {text!r}")
    raise ConfigError(f"config key {name!r} has unsupported type")


def parse_config_text(text: str) -> dict:
    """Parse ``key=value`` lines (# comments allowed) into config fields."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if undecodable(raw):
            raise ConfigError(f"line {lineno}: not valid UTF-8")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        try:
            out[key.strip()] = coerce_config_value(key.strip(), value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def read_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            return parse_config_text(fh.read())
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def config_to_text(cfg: RunConfig) -> str:
    """Echo a config as re-parseable key=value lines."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            value = ""
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"

"""Command-line surface.

Subcommands: ``train`` (fit one model, write checkpoint/curve/config files),
``eval`` (accuracy of a checkpoint on a test file), ``predict`` (label one
sentence per stdin line, scoring the lines in batched chunks through the
route ``eval`` uses), ``bench`` (run a grid file and print the accuracy
table).  Config precedence: built-in defaults, then --config file values,
then explicit flags.  Exit codes: 0 success, 1 usage or config error,
2 data error, 3 diverged training.
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from ..embeddings import (
    OOV_RANDOM,
    OOV_ZERO,
    EmbeddingFormatError,
    load_binary_vectors,
    load_text_vectors,
)
from ..models import input_width
from ..models.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from ..text import EmptySentenceError, Vocabulary, tokenize, undecodable
from .data import (
    DataFormatError,
    Dataset,
    EmptyDatasetError,
    align_labels,
    load_tsv,
    load_uiuc,
    load_uiuc_file,
    split,
)
from .run import (
    _EVAL_CHUNK,
    ARCHS,
    ConfigError,
    CountEncoder,
    DenseSequenceEncoder,
    DivergedError,
    ENCODINGS,
    HashedSequenceEncoder,
    OPTIMIZERS,
    RunConfig,
    build_encoder,
    coerce_config_value,
    compare_table,
    config_to_text,
    emit_curve,
    evaluate,
    predict,
    read_config_file,
    train_run,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

_DATA_ERRORS = (DataFormatError, EmptyDatasetError, EmbeddingFormatError,
                CheckpointError, EmptySentenceError, FileNotFoundError,
                IsADirectoryError, PermissionError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sentclass",
                     description="Train and compare sentence classifiers.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="train one model")
    train.add_argument("--config", help="key=value config file (flags override)")
    train.add_argument("--arch", choices=ARCHS)
    train.add_argument("--encoding", choices=ENCODINGS)
    train.add_argument("--embeddings", help="pre-trained vector file")
    train.add_argument("--dim", type=int, help="hashed feature dimension")
    train.add_argument("--window", type=int)
    train.add_argument("--hidden", type=int)
    train.add_argument("--dropout", type=float)
    train.add_argument("--optimizer", choices=OPTIMIZERS)
    train.add_argument("--lr", type=float)
    train.add_argument("--decay", type=float)
    train.add_argument("--batch", type=int)
    train.add_argument("--epochs", type=int)
    train.add_argument("--max-len", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--train", dest="train_path")
    train.add_argument("--test", dest="test_path")
    train.add_argument("--format", choices=("uiuc", "tsv"))
    train.add_argument("--out", help="output directory")
    train.set_defaults(func=_cmd_train)

    evl = sub.add_parser("eval", help="accuracy of a checkpoint on a test file")
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--test", dest="test_path", required=True)
    evl.add_argument("--format", choices=("uiuc", "tsv"), default="uiuc")
    evl.add_argument("--embeddings", help="override the embeddings path in the checkpoint")
    evl.set_defaults(func=_cmd_eval)

    pred = sub.add_parser("predict", help="label one sentence per stdin line")
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--embeddings", help="override the embeddings path in the checkpoint")
    pred.set_defaults(func=_cmd_predict)

    bench = sub.add_parser("bench", help="run a config grid and print a table")
    bench.add_argument("--grid", required=True, help="one run per line: name key=value...")
    bench.add_argument("--config", help="base config shared by all grid runs")
    bench.add_argument("--out", help="output directory (one subdirectory per run)")
    bench.set_defaults(func=_cmd_bench)
    return parser


_FLAG_KEYS = ("arch", "encoding", "embeddings", "dim", "window", "hidden",
              "dropout", "optimizer", "lr", "decay", "batch", "epochs",
              "max_len", "seed")


def _effective_mapping(args) -> dict:
    mapping = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    for flag, key in (("train_path", "train"), ("test_path", "test"),
                      ("format", "format"), ("out", "out")):
        value = getattr(args, flag, None)
        if value is not None:
            mapping[key] = value
    return mapping


def _split_mapping(mapping: dict):
    config_fields = {f.name for f in RunConfig.__dataclass_fields__.values()}
    cfg = RunConfig(**{k: v for k, v in mapping.items() if k in config_fields})
    data = {k: mapping.get(k) for k in ("train", "test", "format", "out")}
    data["format"] = data["format"] or "uiuc"
    return cfg, data


def _load_datasets(cfg: RunConfig, data: dict):
    if data["format"] not in ("uiuc", "tsv"):
        raise ConfigError(f"unknown data format {data['format']!r}")
    if not data["train"]:
        raise ConfigError("a training file is required (--train)")
    if data["format"] == "uiuc":
        if not data["test"]:
            raise ConfigError("uiuc format needs a test file (--test)")
        return load_uiuc(data["train"], data["test"])
    full = load_tsv(data["train"])
    if data["test"]:
        return full, load_tsv(data["test"])
    return split(full, cfg.split_ratio, cfg.seed)


def _pipeline_meta(cfg: RunConfig, train: Dataset, encoder) -> dict:
    meta = {
        "labels": list(train.labels),
        "encoding": cfg.encoding,
        "dim": encoder.dim,
        "max_len": cfg.max_len,
        "embeddings": cfg.embeddings,
        "oov_policy": cfg.oov_policy,
        "seed": cfg.seed,
        "min_count": cfg.min_count,
    }
    if isinstance(encoder, CountEncoder):
        meta["vocab"] = [[t, f] for t, f in encoder.vocab.items()]
    if isinstance(encoder, DenseSequenceEncoder) and encoder.tuned is not None:
        meta["tuned_tokens"], meta["tuned_rows"] = encoder.tuned
    return meta


# checkpoint metadata each encoding needs beyond labels, dim and max_len
_META_KEYS = {"glove": ("oov_policy", "seed"), "word2vec": ("oov_policy", "seed"),
              "onehot": (), "counts": ("vocab",)}


def _encoder_from_meta(meta: dict, params, embeddings_override=None):
    """The encoder a checkpoint's metadata describes for the model ``params``."""
    encoding = meta.get("encoding")
    if encoding not in _META_KEYS:
        raise CheckpointError(f"checkpoint metadata names no known encoding: {encoding!r}")
    missing = [k for k in ("labels", "dim", "max_len", *_META_KEYS[encoding]) if k not in meta]
    if missing:
        raise CheckpointError(f"checkpoint metadata lacks {', '.join(missing)}")
    width = input_width(params)
    if not (isinstance(meta["dim"], int) and meta["dim"] == width):
        raise CheckpointError(f"checkpoint metadata dim {meta['dim']!r} does not match "
                              f"the model's input width {width}")
    problem = _meta_problem(meta, params, encoding)
    if problem:
        raise CheckpointError(f"checkpoint metadata {problem}")
    if encoding in ("glove", "word2vec"):
        path = embeddings_override or meta.get("embeddings")
        if not path:
            raise ConfigError("checkpoint has no embeddings path; pass --embeddings")
        if not isinstance(path, str):
            raise CheckpointError(f"checkpoint metadata embeddings {path!r} is not a path")
        loader = load_text_vectors if encoding == "glove" else load_binary_vectors
        table = loader(path)
        if table.dim != width:
            raise CheckpointError(f"{path} holds {table.dim}-wide vectors; "
                                  f"the model reads {width}")
        table.oov_policy = meta["oov_policy"]
        table.oov_seed = meta["seed"]
        encoder = DenseSequenceEncoder(table, meta["max_len"])
        if "tuned_tokens" in meta or "tuned_rows" in meta:
            encoder.tune(*_tuned_rows(meta, table.dim))
        return encoder
    if encoding == "onehot":
        return HashedSequenceEncoder(meta["dim"], meta["max_len"])
    vocab = Vocabulary.from_items(meta["vocab"], meta.get("min_count", 1))
    return CountEncoder(vocab, meta["dim"])


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _meta_problem(meta: dict, params, encoding: str) -> str | None:
    """What is wrong with the metadata values the ``encoding`` reads, or None."""
    labels = meta["labels"]
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)
            and len(set(labels)) == len(labels) == params.classes):
        return f"labels {labels!r} are not {params.classes} distinct strings"
    least = params.window if params.arch == "cnn" else 1
    if not _is_int(meta["max_len"], least):
        return f"max_len {meta['max_len']!r} is not an integer of at least {least}"
    if encoding in ("glove", "word2vec"):
        if not _is_int(meta["seed"], 0):
            return f"seed {meta['seed']!r} is not a non-negative integer"
        if meta["oov_policy"] not in (OOV_ZERO, OOV_RANDOM):
            return f"names no known OOV policy: {meta['oov_policy']!r}"
    if encoding == "counts":
        vocab = meta["vocab"]
        if not (isinstance(vocab, list) and all(
                isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
                and _is_int(item[1], 0) for item in vocab)):
            return "vocab is not a list of [token, count] pairs"
        if "min_count" in meta and not _is_int(meta["min_count"], 1):
            return f"min_count {meta['min_count']!r} is not an integer of at least 1"
    return None


def _tuned_rows(meta: dict, dim: int):
    """The fine-tuned (tokens, rows) a checkpoint stores for a ``dim``-wide table."""
    tokens, rows = meta.get("tuned_tokens"), meta.get("tuned_rows")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and isinstance(rows, np.ndarray) and rows.shape == (len(tokens), dim)):
        raise CheckpointError(f"checkpoint metadata holds no {dim}-wide rows for its tuned tokens")
    return tokens, rows


def _run_one(cfg: RunConfig, data: dict, out_dir: Path):
    cfg.validate()
    train_ds, test_ds = _load_datasets(cfg, data)
    encoder = build_encoder(cfg, train_ds)
    params, curve = train_run(cfg, train_ds, test_ds, encoder=encoder)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.bin", params,
                    _pipeline_meta(cfg, train_ds, encoder))
    emit_curve(curve, out_dir / "curve.csv")
    echo = config_to_text(cfg)
    for key in ("train", "test", "format"):
        if data.get(key):
            echo += f"{key}={data[key]}\n"
    (out_dir / "config.txt").write_text(echo, encoding="utf-8")
    return curve


def _cmd_train(args) -> int:
    cfg, data = _split_mapping(_effective_mapping(args))
    out_dir = Path(data["out"] or "sentclass-run")
    curve = _run_one(cfg, data, out_dir)
    print(f"best accuracy {curve.best_accuracy:.4f} "
          f"(final {curve.final_accuracy:.4f}) over {len(curve)} iterations")
    if curve.stop_reason is not None:
        print(f"L-BFGS stopped: {curve.stop_reason}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    params, meta = load_checkpoint(args.checkpoint)
    encoder = _encoder_from_meta(meta, params, args.embeddings)
    loader = load_uiuc_file if args.format == "uiuc" else load_tsv
    reference = Dataset([], list(meta["labels"]))
    test_ds = align_labels(reference, loader(args.test_path))
    print(f"accuracy {evaluate(params, test_ds, encoder):.4f}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    params, meta = load_checkpoint(args.checkpoint)
    encoder = _encoder_from_meta(meta, params, args.embeddings)
    labels = meta["labels"]
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")  # bad bytes reach the line check
    numbered = enumerate(sys.stdin, start=1)
    while lines := list(itertools.islice(numbered, _EVAL_CHUNK)):
        # lines before the first blank or undecodable one are still labelled
        stop = next((i for i, (_, line) in enumerate(lines)
                     if not line.strip() or undecodable(line)), len(lines))
        chunk = Dataset([(0, tokenize(line)) for _, line in lines[:stop]], labels)
        for index in predict(params, encoder.encode_many(chunk), encoder):
            print(labels[index])
        if stop < len(lines):
            lineno, line = lines[stop]
            problem = "not valid UTF-8" if line.strip() else "blank line cannot be classified"
            raise DataFormatError(f"stdin: line {lineno}: {problem}")
    return EXIT_OK


def _parse_grid(path, base: dict) -> list[tuple[str, dict]]:
    entries = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if undecodable(raw):
                raise ConfigError(f"{path}: line {lineno}: not valid UTF-8")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, *pairs = line.split()
            entry = dict(base)
            for pair in pairs:
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ConfigError(
                        f"{path}: line {lineno}: expected key=value, got {pair!r}")
                try:
                    entry[key] = coerce_config_value(key, value)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            entries.append((name, entry))
    if not entries:
        raise ConfigError(f"{path}: grid file defines no runs")
    return entries


def _cmd_bench(args) -> int:
    base = read_config_file(args.config) if args.config else {}
    out_root = Path(args.out or "sentclass-bench")
    results = []
    for name, mapping in _parse_grid(args.grid, base):
        cfg, data = _split_mapping(mapping)
        curve = _run_one(cfg, data, out_root / name)
        results.append((name, curve.best_accuracy))
        print(f"[{name}] best accuracy {curve.best_accuracy:.4f}")
    table = compare_table(results)
    (out_root / "table.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

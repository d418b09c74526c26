"""The four benchmark workloads.

Every workload trains one model on the seeded synthetic corpus with the
paper defaults (window 3, 256 filters, hidden 128 for the CNN and 256
otherwise, dropout 0.1, batch 128, max_len 20, lr 1e-2, decay 1e-3), then
scores it through ``evaluate`` and through ``sentclass predict``.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict           # RunConfig fields besides seed, epochs and embeddings
    sentences: int         # corpus size before the 80/20 split
    passes: int            # epochs, or accepted L-BFGS iterations
    predict_lines: int     # test sentences sent through `sentclass predict`
    vectors_dim: int = 0   # synthetic pre-trained vectors, 0 for hashed inputs
    # the spans the layer note ties to this workload's end-to-end metrics
    focus: tuple[str, ...] = field(default=())


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cnn-onehot",
            why="cnn on hashed one-hot rows, dim 8192, Adagrad: the memory-heavy "
                "case; time goes to the scatter, dense Adagrad and gather tables",
            config=dict(arch="cnn", encoding="onehot", dim=8192),
            sentences=640, passes=4, predict_lines=48,
            focus=("cnn.batch_grads_hashed", "optim.adagrad_step",
                   "cnn.gather_tables", "cnn.hashed_conv",
                   "cnn.batch_probs_hashed", "cnn.forward",
                   "tensor.conv1d_wgram"),
        ),
        Workload(
            name="lstm-embed",
            why="lstm on 50-d loaded vectors, Adagrad: recurrence-bound, small "
                "parameters, no hashed or row-sparse path",
            config=dict(arch="lstm", encoding="glove"),
            sentences=640, passes=4, predict_lines=128, vectors_dim=50,
            focus=("lstm.batch_cell", "tensor.sigmoid", "lstm.batch_grads",
                   "optim.adagrad_step", "lstm.batch_probs", "lstm.forward",
                   "embeddings.load_text_vectors"),
        ),
        Workload(
            name="rnn-onehot",
            why="rnn on hashed one-hot rows, dim 1024, Adagrad: the recurrent "
                "one-hot route through densify",
            config=dict(arch="rnn", encoding="onehot", dim=1024),
            sentences=1280, passes=4, predict_lines=200,
            focus=("rnn.batch_hiddens", "rnn.batch_grads", "run.densify",
                   "tensor.sigmoid", "optim.adagrad_step", "rnn.batch_probs",
                   "rnn.forward"),
        ),
        Workload(
            name="fnn-lbfgs",
            why="fnn on hashed counts, dim 8192, full-batch L-BFGS: the dense "
                "design matrix and the line search, no minibatch code",
            config=dict(arch="fnn", encoding="counts", dim=8192, hidden=256,
                        optimizer="lbfgs"),
            sentences=800, passes=8, predict_lines=160,
            focus=("fnn.batch_loss_grads", "optim.lbfgs_minimize",
                   "optim.two_loop_direction", "fnn.batch_probs",
                   "run.encode_many", "text.count_vector", "fnn.forward"),
        ),
    )
}

# Sizes for the self-test: every phase and check runs, in a few seconds.
TINY = dict(sentences=120, passes=2, predict_lines=6)

# Spans present on every workload under one name.  ``arch.<role>`` is the
# workload's own model module; the first candidate that recorded calls is
# reported (the later ones stand in if a refactor removes the first).
ROLES = {
    "batch_grads": {
        "cnn": ("cnn.batch_grads_hashed", "cnn.batch_grads"),
        "rnn": ("rnn.batch_grads",),
        "lstm": ("lstm.batch_grads",),
        "fnn": ("fnn.batch_loss_grads",),
    },
    "batch_probs": {
        "cnn": ("cnn.batch_probs_hashed", "cnn.batch_probs"),
        "rnn": ("rnn.batch_probs",),
        "lstm": ("lstm.batch_probs",),
        "fnn": ("fnn.batch_probs",),
    },
    "forward": {arch: (f"{arch}.forward",) for arch in ("cnn", "rnn", "lstm", "fnn")},
}

# Layers reported on every workload ("arch" is the workload's model module;
# ``embeddings`` is not, because the count encoding never reaches it).
LAYER_METRICS = ("text", "tensor", "optim", "models", "arch", "checkpoint", "run", "cli")

# Spans reported on every workload, by the end-to-end metric they feed.
SPAN_METRICS = (
    "run.build_encoder", "run.encode_many", "models.init_params",       # setup_s
    "run.train_run", "arch.batch_grads",                               # train
    "run.evaluate", "run.accuracy", "arch.batch_probs",                # eval
    "cli.main", "cli.cmd_predict", "cli.encoder_from_meta",            # predict
    "checkpoint.load_checkpoint", "text.tokenize", "run.encode",
    "models.predict", "models.forward", "arch.forward", "tensor.softmax",
)

"""One workload: set up, train, evaluate and predict, with correctness checks.

Untraced runs give the end-to-end metrics; traced runs give the per-layer
metrics from traced repetitions of each phase, next to untraced repetitions
of the same phase that give the tracing overhead.
"""

import contextlib
import ctypes
import functools
import glob
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from sentclass import models
from sentclass.harness import cli, run
from sentclass.harness.data import Dataset, load_tsv, split
from sentclass.harness.synth import corpus_tokens, make_synthetic, write_embeddings_file
from sentclass.models.checkpoint import load_checkpoint

from spans import PRIVATE, Tracer, span_name
from workloads import LAYER_METRICS, ROLES, SPAN_METRICS, TINY, WORKLOADS

CLASSES = 5
SPLIT = 0.8
REFERENCE_SEED = 0     # corpus, split and model seed of the reference run
GRAD_BATCH = 128       # reference training sentences in the gradient check
GRAD_ENTRIES = 4096    # entries of each tensor the check perturbs
GRAD_EPS = 1e-6
GRAD_RTOL = 1e-2
# share of --seconds each phase gets, and its minimum number of repetitions
SHARE = {"setup": 0.08, "train": 0.52, "eval": 0.1, "predict": 0.3}
MIN_REPS = {"setup": 7, "train": 2, "eval": 3, "predict": 2}
TRACED_REPS = 2        # traced repetitions of each phase in a traced run

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "eval_sentences_per_s": "sentences/s",
    "predict_sentences_per_s": "sentences/s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
    "train_loss": "nats",
    "ok_share": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in (*LAYER_METRICS, *SPAN_METRICS):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["optim.param_bytes"] = "bytes"
    units["run.encode_many.bytes"] = "bytes"
    units["optim.evals_per_update"] = "ratio"
    for phase in ("setup", "train", "eval", "predict"):
        units[f"trace.{phase}_slowdown"] = "ratio"
    units["trace.unobserved_spans"] = "count"
    units["trace.absent_spans"] = "count"
    return units


class Bench:
    """State of one workload run: inputs, the trained model, the tallies."""

    def __init__(self, workload_name: str, seed: int, workdir: Path, tiny: bool):
        w = WORKLOADS[workload_name]
        self.workload = w
        self.workdir = workdir
        self.sizes = {"sentences": w.sentences, "passes": w.passes,
                      "predict_lines": w.predict_lines, **(TINY if tiny else {})}
        self.passes = self.sizes["passes"]
        self.train, self.test, self.cfg = self._inputs(seed)
        lines = self.test.examples[:self.sizes["predict_lines"]]
        self.predict_tokens = [tokens for _, tokens in lines]
        self.predict_input = "".join(" ".join(t) + "\n" for t in self.predict_tokens)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.absent: list[str] = []     # helpers used here, missing at this commit
        self.arch_spec = self._private(run, "_arch_spec")
        self.lbfgs = None
        if self.cfg.optimizer == "lbfgs":
            self.lbfgs = self._private(run, "lbfgs_minimize")
        self.encoder = None
        self.params = None
        self.curve = None
        self.first = None           # (losses, accuracies) of the first training run
        self.predicted = None       # labels of the first predict pass
        self.quality = None         # (test accuracy, train loss) of the reference run
        self.checkpoint = None      # written by `sentclass train` in the reference run
        self.model = None           # (encoder, labels) of that checkpoint
        self.input_bytes = 0
        self.param_bytes = 0

    def _inputs(self, seed: int):
        """(train split, test split, run config) generated from ``seed``."""
        w = self.workload
        corpus = make_synthetic(n_sentences=self.sizes["sentences"], n_classes=CLASSES,
                                seed=seed)
        train, test = split(corpus, SPLIT, seed)
        embeddings = None
        if w.vectors_dim:
            embeddings = str(self.workdir / f"vectors-{seed}.txt")
            write_embeddings_file(embeddings, corpus_tokens(corpus), dim=w.vectors_dim,
                                  seed=seed)
        cfg = run.RunConfig(**w.config, embeddings=embeddings, seed=seed,
                            epochs=self.passes)
        return train, test, cfg

    # -- bookkeeping ---------------------------------------------------------

    def tally(self, operations: int, failures: int, problem: str) -> None:
        self.attempted += operations
        if failures:
            self.failed += failures
            self.problems.append(problem)

    def _private(self, module, name: str):
        """A helper of the program the benchmark calls or wraps, or None if it
        is gone at this commit; a missing one is listed in ``absent`` and its
        use skipped."""
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{name}")
        return fn

    # -- the untimed reference run --------------------------------------------

    def reference_run(self) -> None:
        """Train on the reference corpus through ``sentclass train``.

        Its checkpoint is the model ``sentclass predict`` loads.  Its final
        test accuracy and train loss do not depend on the run's seed, so they
        are identical on every run of the same code and move only when the
        numerics do.  The model's batch gradient is checked at its weights.
        """
        train, test, cfg = self._inputs(REFERENCE_SEED)
        out = self.workdir / "reference"
        out.mkdir()
        paths = {}
        for part, dataset in (("train", train), ("test", test)):
            paths[part] = out / f"{part}.tsv"
            paths[part].write_text("".join(f"{dataset.labels[label]}\t{' '.join(tokens)}\n"
                                           for label, tokens in dataset.examples))
        (out / "config.txt").write_text(run.config_to_text(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(out / "config.txt"), "--format", "tsv",
                             "--train", str(paths["train"]), "--test", str(paths["test"]),
                             "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"sentclass train exited {code} on the reference corpus")
        points = run.load_curve(out / "curve.csv").points
        ok = len(points) == self.passes and all(math.isfinite(p.train_loss) for p in points)
        self.tally(1, not ok, "reference training run is short or not finite")
        self.quality = points[-1].test_accuracy, points[-1].train_loss
        self.checkpoint = out / "checkpoint.bin"
        train = load_tsv(paths["train"])        # the label order `sentclass train` saw
        encoder = run.build_encoder(cfg, train)
        self.model = encoder, list(train.labels)
        self._gradient_check(cfg, load_checkpoint(self.checkpoint)[0], encoder, train)

    def _gradient_check(self, cfg, params, encoder, train: Dataset) -> None:
        """Training-path batch gradient against central differences of its loss.

        For each tensor a random set of entries moves along a random
        direction; the loss's slope along it must match the gradient's.
        The dropout mask is drawn from the same seed on every evaluation.
        """
        batch_functions = self._private(run, "_batch_functions")
        if batch_functions is None:
            return
        grads_fn, _ = batch_functions(cfg, encoder)
        examples = Dataset(train.examples[:GRAD_BATCH], train.labels)
        xs = encoder.encode_many(examples)
        ys = np.array([label for label, _ in examples.examples], dtype=np.int64)

        def evaluate():
            return grads_fn(params, xs, ys, np.random.default_rng(REFERENCE_SEED))

        _, grads = evaluate()
        rng = np.random.default_rng(REFERENCE_SEED)
        for name, tensor in params.tensors().items():
            where = np.unravel_index(np.unique(rng.integers(tensor.size, size=GRAD_ENTRIES)),
                                     tensor.shape)
            step = rng.standard_normal(len(where[0]))
            saved = tensor[where].copy()
            tensor[where] = saved + GRAD_EPS * step
            up = evaluate()[0]
            tensor[where] = saved - GRAD_EPS * step
            down = evaluate()[0]
            tensor[where] = saved
            numeric = (up - down) / (2 * GRAD_EPS)
            analytic = float(grads[name][where] @ step)
            wrong = abs(numeric - analytic) > GRAD_RTOL * max(abs(numeric), abs(analytic), 1e-6)
            self.tally(1, wrong, f"gradient of {name}: slope {numeric!r} by central "
                                 f"differences, {analytic!r} from the gradient")

    # -- phases: each returns its samples -------------------------------------

    def setup(self) -> list[float]:
        """Seconds from the corpus in memory to the first training step.

        It repeats ``train_run``'s own prologue: encoder, encoded inputs and
        initial weights.
        """
        start = time.perf_counter()
        encoder = run.build_encoder(self.cfg, self.train)
        x_train = encoder.encode_many(self.train)
        x_test = encoder.encode_many(self.test)
        if self.arch_spec is not None:
            spec = self.arch_spec(self.cfg, encoder.dim, len(self.train.labels))
            models.init_params(spec, np.random.SeedSequence(self.cfg.seed).spawn(3)[0])
        elapsed = time.perf_counter() - start
        self.encoder = encoder
        self.input_bytes = x_train.nbytes + x_test.nbytes
        return [elapsed]

    def train_once(self) -> list[float]:
        """Training examples per second of each pass but the first.

        On L-BFGS a pass is one objective evaluation over the training set,
        and each accepted iteration but the first gives a sample over the
        evaluations it made: how many an iteration needs depends on the
        seed's corpus, the cost of one does not.
        """
        marks = []                  # objective evaluations at each accepted iteration
        if self.lbfgs is not None:
            lbfgs = run.lbfgs_minimize          # the tracer's wrapper in a traced run
            run.lbfgs_minimize = _counting(lbfgs, marks)
        try:
            params, curve = run.train_run(self.cfg, self.train, self.test,
                                          encoder=self.encoder)
        finally:
            if self.lbfgs is not None:
                run.lbfgs_minimize = lbfgs
        points = curve.points
        outcome = ([p.train_loss for p in points], [p.test_accuracy for p in points])
        problem = None
        if len(points) != self.passes:
            problem = f"curve has {len(points)} points, expected {self.passes}"
        elif not all(math.isfinite(v) for v in outcome[0]):
            problem = "non-finite training loss"
        elif self.first is not None and outcome != self.first:
            problem = "training run differs from the first run of this seed"
        self.tally(1, problem is not None, problem)
        if self.first is None:
            if problem is not None:
                raise RuntimeError(f"first training run unusable: {problem}")
            self.first = outcome
            self.params, self.curve = params, curve
            self.param_bytes = sum(t.nbytes for t in params.tensors().values())
        n = len(self.train.examples)
        passes = [m2 - m1 for m1, m2 in zip(marks, marks[1:])] or [1] * (len(points) - 1)
        return [n * k / (b.seconds - a.seconds)
                for k, a, b in zip(passes, points, points[1:])]

    def eval_once(self) -> list[float]:
        """Test sentences per second through ``evaluate``."""
        start = time.perf_counter()
        accuracy = run.evaluate(self.params, self.test, self.encoder)
        elapsed = time.perf_counter() - start
        expected = self.curve.final_accuracy
        self.tally(1, accuracy != expected,
                   f"evaluate gives {accuracy!r}, training reported {expected!r}")
        return [len(self.test.examples) / elapsed]

    def predict_once(self) -> list[float]:
        """Sentences per second through ``sentclass predict`` of the reference
        checkpoint over this seed's test sentences, checkpoint load included."""
        out = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(self.predict_input)
        try:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = cli.main(["predict", "--checkpoint", str(self.checkpoint)])
                elapsed = time.perf_counter() - start
        finally:
            sys.stdin = stdin
        labels = out.getvalue().splitlines()
        lines = len(self.predict_tokens)
        if code != 0 or len(labels) != lines:
            self.tally(lines, lines, f"predict exited {code} with {len(labels)} of {lines} labels")
        elif self.predicted is None:
            self.tally(lines, self._disagreements(labels),
                       "predict labels differ from the batched evaluate argmax")
            self.predicted = labels
        else:
            wrong = sum(a != b for a, b in zip(labels, self.predicted))
            self.tally(lines, wrong, "predict labels differ between passes")
        return [lines / elapsed]

    def _disagreements(self, labels: list[str]) -> int:
        """Lines whose label is not the argmax of the batched evaluate path
        for the same checkpoint.

        The sentences are relabelled with the predicted labels, so
        ``evaluate`` scores exactly the lines on which both paths agree.
        """
        encoder, names = self.model
        index = {name: i for i, name in enumerate(names)}
        unknown = sum(label not in index for label in labels)
        if unknown:
            return len(labels)
        relabelled = Dataset([(index[label], tokens)
                              for label, tokens in zip(labels, self.predict_tokens)], names)
        params, _ = load_checkpoint(self.checkpoint)
        agree = run.evaluate(params, relabelled, encoder) * len(labels)
        return len(labels) - round(agree)


def _counting(lbfgs_minimize, marks: list[int]):
    """``lbfgs_minimize`` that appends to ``marks`` the number of objective
    evaluations so far each time an iteration is accepted."""
    evaluations = 0

    @functools.wraps(lbfgs_minimize)
    def counted(objective, x0, *args, callback=None, **kwargs):
        def counted_objective(x):
            nonlocal evaluations
            evaluations += 1
            return objective(x)

        def counted_callback(*cb_args):
            marks.append(evaluations)
            if callback is not None:
                callback(*cb_args)

        return lbfgs_minimize(counted_objective, x0, *args, callback=counted_callback,
                              **kwargs)
    return counted


def interleave(phases: dict, seconds: float) -> dict[str, list[float]]:
    """Every phase's samples from repetitions interleaved over ``seconds``.

    Each phase runs once in order (set-up and training provide what the
    later phases use).  After that, the phase furthest behind its share of
    the time runs next, so every phase samples the whole run rather than
    one stretch of it.  The run ends when the next repetition would not fit
    and every phase has its minimum count.
    """
    start = time.perf_counter()
    samples = {phase: fn() for phase, fn in phases.items()}
    count = dict.fromkeys(phases, 1)
    spent = dict.fromkeys(phases, 0.0)
    while True:
        short = [p for p in phases if count[p] < MIN_REPS[p]]
        phase = min(short or phases, key=lambda p: spent[p] / SHARE[p])
        if not short:
            typical = spent[phase] / max(1, count[phase] - 1)
            if time.perf_counter() - start + typical > seconds:
                return samples
        began = time.perf_counter()
        samples[phase] += phases[phase]()
        spent[phase] += time.perf_counter() - began
        count[phase] += 1


def _phases(bench: Bench) -> dict:
    return {"setup": bench.setup, "train": bench.train_once,
            "eval": bench.eval_once, "predict": bench.predict_once}


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run: (end-to-end metrics, every sample)."""
    bench.reference_run()
    samples = interleave(_phases(bench), seconds)
    accuracy, loss = bench.quality
    values = {
        "setup_s": statistics.median(samples["setup"]),
        "train_examples_per_s": statistics.median(samples["train"]),
        "eval_sentences_per_s": statistics.median(samples["eval"]),
        "predict_sentences_per_s": statistics.median(samples["predict"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": accuracy,
        "train_loss": loss,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, samples


def _traced(tracer: Tracer, fn) -> list[float]:
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    """Traced run: (per-layer metrics, span detail).

    Each phase runs untraced, traced, traced, untraced, so a steady drift
    in machine speed cancels out of the tracing overhead.  The per-layer
    numbers are per traced repetition: one set-up, one training run, one
    eval call and one predict pass.
    """
    bench.reference_run()
    tracer = Tracer()
    slowdown = {}
    for phase, fn in _phases(bench).items():
        plain = fn()
        traced = _traced(tracer, fn) + _traced(tracer, fn)
        plain += fn()
        ratio = statistics.median(traced) / statistics.median(plain)
        slowdown[phase] = ratio if phase == "setup" else 1.0 / ratio  # setup is seconds
    arch = bench.cfg.arch
    spans = dict(tracer.spans)
    for role, candidates in ROLES.items():
        present = [n for n in candidates[arch] if n in spans]
        observed = [n for n in present if spans[n].calls]
        spans[f"arch.{role}"] = spans.get((observed or present or [None])[0])
    layers = tracer.layer_totals()
    layers["arch"] = layers.get(arch)
    metrics = {}
    for name, stat in [*((n, layers.get(n)) for n in LAYER_METRICS),
                       *((n, spans.get(n)) for n in SPAN_METRICS)]:
        metrics[f"{name}.calls"] = stat.calls // TRACED_REPS if stat else 0
        metrics[f"{name}.busy_s"] = stat.busy / TRACED_REPS if stat else 0.0
        metrics[f"{name}.self_s"] = stat.self_time / TRACED_REPS if stat else 0.0
    steps = sum(spans[n].calls for n in ("optim.adagrad_step", "optim.sgd_step") if n in spans)
    updates = steps or TRACED_REPS * len(bench.curve.points)   # L-BFGS: accepted iterations
    grads = spans["arch.batch_grads"]
    unobserved = sorted(n for n, s in tracer.spans.items() if s.calls == 0)
    absent = sorted({*bench.absent, *(n for n in _expected_spans() if n not in tracer.spans)})
    metrics.update({
        "optim.param_bytes": bench.param_bytes,
        "run.encode_many.bytes": bench.input_bytes,
        "optim.evals_per_update": (grads.calls if grads else 0) / updates,
        "trace.unobserved_spans": len(unobserved),
        "trace.absent_spans": len(absent),
        **{f"trace.{phase}_slowdown": v for phase, v in slowdown.items()},
    })
    units = per_layer_units()
    def per_rep(stat):
        return [stat.calls // TRACED_REPS, stat.busy / TRACED_REPS,
                stat.self_time / TRACED_REPS]

    detail = {
        "spans": {n: per_rep(s) for n, s in sorted(tracer.spans.items()) if s.calls},
        "focus": {n: per_rep(spans[n]) if n in spans else None
                  for n in bench.workload.focus},
        "unobserved": unobserved,
        "absent": absent,
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def _expected_spans() -> set[str]:
    """Span names this benchmark refers to; any missing one is absent."""
    names = {n for w in WORKLOADS.values() for n in w.focus}
    names.update(n for n in SPAN_METRICS if not n.startswith("arch."))
    names.update(n for role in ROLES.values() for c in role.values() for n in c[:1])
    names.update(span_name(layer, attr) for layer, attrs in PRIVATE.items() for attr in attrs)
    return names


# -- provenance --------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the environment's setting."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path):
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }

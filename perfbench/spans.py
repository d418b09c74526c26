"""Per-layer spans recorded from outside the program.

A layer is one module of the package.  ``Tracer.install`` wraps the
functions of every layer and replaces each module attribute that refers to
an original function, so the program's own name lookups
(``harness.run.adagrad_step``, ``harness.cli.predict_class``, ...) reach
the wrapper.  Nothing in the
program changes; ``uninstall`` puts every original back.

Each span adds up, per name: calls, busy time (inclusive wall time) and
self time (busy time minus the time covered by wrapped callees).  Each layer
adds up calls, self time and busy time, where a layer's busy time counts
only its outermost spans, so a layer calling itself is not counted twice.
"""

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# layer name -> module
LAYERS = {
    "text": "sentclass.text",
    "embeddings": "sentclass.embeddings",
    "tensor": "sentclass.tensor",
    "optim": "sentclass.optim",
    "models": "sentclass.models",
    "cnn": "sentclass.models.cnn",
    "rnn": "sentclass.models.rnn",
    "lstm": "sentclass.models.lstm",
    "fnn": "sentclass.models.fnn",
    "checkpoint": "sentclass.models.checkpoint",
    "run": "sentclass.harness.run",
    "cli": "sentclass.harness.cli",
}
ARCH_LAYERS = ("cnn", "rnn", "lstm", "fnn")

# private helpers worth a span of their own; one missing at the measured
# commit is skipped here and reported as absent
PRIVATE = {
    "cnn": ("_gather_tables", "_hashed_conv", "_pool_batch", "_unpool_batch",
            "_batch_head", "_batch_head_backward"),
    "rnn": ("_batch_hiddens",),
    "lstm": ("_batch_cell",),
    "optim": ("_two_loop_direction",),
    "run": ("_accuracy", "_train_lbfgs"),
    "cli": ("_cmd_predict", "_encoder_from_meta"),
}
# methods of classes defined in the layer (all encoders share one span name)
METHODS = {
    "run": ("encode", "encode_many", "indices", "densify"),
    "embeddings": ("vector",),
    "text": ("keep",),
}


def span_name(layer: str, name: str) -> str:
    """``cnn`` + ``_gather_tables`` -> ``cnn.gather_tables``;
    ``lstm`` + ``lstm_batch_grads`` -> ``lstm.batch_grads``."""
    name = name.lstrip("_")
    if layer in ARCH_LAYERS and name.startswith(layer + "_"):
        name = name[len(layer) + 1:]
    return f"{layer}.{name}"


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


@dataclass
class _LayerStat(Stat):
    depth: int = 0


class Tracer:
    """Wraps the layer functions; records only while installed."""

    def __init__(self):
        self.spans: dict[str, Stat] = {}
        self.layers: dict[str, _LayerStat] = {}
        self._targets = self._discover()
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    def _discover(self):
        """(layer, span name, owner, attribute, function) for each target."""
        targets = []
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    targets.append((layer, span_name(layer, attr), module, attr, obj))
            for attr in PRIVATE.get(layer, ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj):     # else absent at this commit
                    targets.append((layer, span_name(layer, attr), module, attr, obj))
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == modname):
                    continue
                for attr in METHODS.get(layer, ()):
                    obj = vars(cls).get(attr)
                    if inspect.isfunction(obj):
                        targets.append((layer, f"{layer}.{attr}", cls, attr, obj))
        for layer, name, *_ in targets:
            self.spans.setdefault(name, Stat())
            self.layers.setdefault(layer, _LayerStat())
        return targets

    def _wrap(self, name: str, layer: str, fn):
        stat = self.spans[name]
        lay = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            lay.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                lay.depth -= 1
                if lay.depth == 0:
                    lay.busy += elapsed
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def install(self) -> None:
        """Point every lookup site of every target at its wrapper."""
        wrappers = {}       # id of original -> wrapper; the originals stay alive
        for layer, name, owner, attr, fn in self._targets:
            wrappers[id(fn)] = wrapper = self._wrap(name, layer, fn)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sentclass" or n.startswith("sentclass.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, Stat]:
        """Per layer: calls and self time summed over its spans, busy time
        over its outermost spans."""
        out = {layer: Stat(busy=stat.busy) for layer, stat in self.layers.items()}
        names = {(layer, name) for layer, name, *_ in self._targets}
        for layer, name in names:
            out[layer].calls += self.spans[name].calls
            out[layer].self_time += self.spans[name].self_time
        return out

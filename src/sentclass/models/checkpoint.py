"""Self-describing checkpoint files.

Layout: a magic line, one JSON header line (architecture tag, ordered field
names and shapes, non-tensor hyperparameters, arbitrary caller metadata),
then the parameter tensors concatenated as little-endian float64 in header
order.  Metadata values that are arrays follow the parameters in the same
encoding, listed under the header's ``arrays`` key.  Writing and re-reading
a checkpoint is bit-exact.

Format v3 stores the LSTM's four gates side by side: ``wx`` (embed, 4h),
``wh`` (hidden, 4h) and ``b`` (4h), in ``lstm._GATES`` order.  The reader
also takes v1 and v2 files, whose LSTM has twelve per-gate tensors
(``wx_i`` ... ``b_g``), and sets each kind's four side by side.  Format v2
stores the CNN filter bank as (embed, window, filters); v1 stored it
(filters, embed, window), and the reader transposes it.  For fnn and rnn
the three formats differ in the magic line only.
"""

import json
import math
import os

import numpy as np

from . import FAMILIES, ModelParams
from .lstm import _GATES

MAGIC = b"#sentclass-checkpoint-v3\n"
MAGIC_V2 = b"#sentclass-checkpoint-v2\n"
MAGIC_V1 = b"#sentclass-checkpoint-v1\n"


class CheckpointError(ValueError):
    """File is not a readable checkpoint."""


def _hyper(params) -> dict:
    dropout = getattr(params, "dropout", None)
    return {} if dropout is None else {"dropout": dropout}


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    """Write params and optional metadata to ``path``: JSON-serializable
    values, or numpy arrays stored as float64 tensors."""
    tensors = params.tensors()
    meta = dict(meta or {})
    arrays = {k: meta.pop(k) for k, v in list(meta.items()) if isinstance(v, np.ndarray)}
    header = {
        "arch": params.arch,
        "fields": [[name, list(t.shape)] for name, t in tensors.items()],
        "hyper": _hyper(params),
        "meta": meta,
    }
    if arrays:
        header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for tensor in (*tensors.values(), *arrays.values()):
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint back into a parameter set and its metadata."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic not in (MAGIC, MAGIC_V2, MAGIC_V1):
            raise CheckpointError(f"{path}: not a checkpoint file")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        arch = header.get("arch")
        family = FAMILIES.get(arch)
        if family is None:
            raise CheckpointError(f"{path}: unknown architecture {arch!r}")
        fields, arrays = header.get("fields"), header.get("arrays", [])
        for key, value in (("fields", fields), ("arrays", arrays)):
            if not (isinstance(value, list) and all(_is_field(f) for f in value)):
                raise CheckpointError(f"{path}: header {key} are not a list of [name, shape] pairs")
        if len({name for name, _ in fields}) != len(fields):
            raise CheckpointError(f"{path}: header fields repeat a name")
        hyper, meta = header.get("hyper", {}), header.get("meta", {})
        if not (isinstance(hyper, dict) and isinstance(meta, dict)):
            raise CheckpointError(f"{path}: header hyper and meta must be JSON objects")
        tensors = _read_tensors(fh, fields, path)
        meta.update(_read_tensors(fh, arrays, path))
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError(f"{path}: trailing bytes after tensors")
    if magic == MAGIC_V1 and arch == "cnn" and np.ndim(tensors.get("filters")) == 3:
        # v1 stored the bank (filters, embed, window)
        tensors["filters"] = np.ascontiguousarray(tensors["filters"].transpose(1, 2, 0))
    if magic != MAGIC and arch == "lstm":
        tensors = _gates_side_by_side(tensors, path)
    try:
        params = family.params.from_tensors(tensors, **hyper)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: tensors do not make {arch} parameters: {exc!r}") from None
    names = sorted(tensors)
    if sorted(params.tensors()) != names:
        raise CheckpointError(f"{path}: tensors {names} do not make {arch} parameters")
    problem = _shape_problem(params)
    if problem:
        raise CheckpointError(f"{path}: {problem}")
    return params, meta


def _read_tensors(fh, fields, path) -> dict[str, np.ndarray]:
    """Each field's tensor, read from ``fh`` straight into its own array."""
    tensors = {}
    for name, shape in fields:
        size = 8 * math.prod(shape)
        # a header can claim any shape: allocate no more than the file holds
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        try:
            tensor = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # a dimension numpy cannot index
            raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from None
        if fh.readinto(tensor.reshape(-1).view(np.uint8)) != size:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        tensors[name] = tensor
    return tensors


def _gates_side_by_side(tensors, path) -> dict[str, np.ndarray]:
    """A v1/v2 LSTM's twelve per-gate tensors as v3's ``wx``, ``wh`` and ``b``."""
    tensors = dict(tensors)
    for kind in ("wx", "wh", "b"):
        names = [f"{kind}_{gate}" for gate in _GATES]
        if kind in tensors or not all(name in tensors for name in names):
            raise CheckpointError(f"{path}: a v1/v2 lstm file holds the tensors {names} "
                                  f"and no {kind!r}")
        gates = [tensors.pop(name) for name in names]
        if len({g.shape for g in gates}) > 1 or not gates[0].ndim:
            raise CheckpointError(f"{path}: lstm tensors {names} have shapes "
                                  f"{[list(g.shape) for g in gates]}, not one shape of rank >= 1")
        tensors[kind] = np.concatenate(gates, axis=-1)
    return tensors


def _shape_problem(params) -> str | None:
    """Why the tensor shapes of ``params`` do not fit together, or None.

    ``params.dims()`` names each tensor's axes; axes with one name must have
    one size, and every size is at least 1.
    """
    tensors = params.tensors()
    sizes: dict[str, int] = {}
    for name, axes in params.dims().items():
        shape = tensors[name].shape
        if len(shape) != len(axes):
            return f"tensor {name!r} has shape {list(shape)}, expected axes {list(axes)}"
        for axis, size in zip(axes, shape):
            if size < 1:
                return f"tensor {name!r} has an empty {axis} axis"
            if sizes.setdefault(axis, size) != size:
                return (f"tensor {name!r} has {axis} size {size}, "
                        f"other tensors have {sizes[axis]}")
    return None


def _is_field(field) -> bool:
    """One header field: a [name, shape] pair with a non-negative integer shape."""
    return (isinstance(field, list) and len(field) == 2 and isinstance(field[0], str)
            and isinstance(field[1], list)
            and all(isinstance(n, int) and n >= 0 for n in field[1]))

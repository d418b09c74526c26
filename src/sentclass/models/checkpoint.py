"""Self-describing checkpoint files.

Layout: a magic line, one JSON header line (architecture tag, ordered field
names and shapes, non-tensor hyperparameters, arbitrary caller metadata),
then the parameter tensors concatenated as little-endian float64 in header
order.  Metadata values that are arrays follow the parameters in the same
encoding, listed under the header's ``arrays`` key.  Writing and re-reading
a checkpoint is bit-exact.

The writer pads the header line with spaces before its newline, so the
tensors start on a 64-byte boundary, and writes a temporary file in the
same directory that replaces ``path`` only once it is complete.  For a model
on hashed inputs (``meta.encoding`` onehot or counts) the reader maps the
input table (``Family.input_table``) into memory copy-on-write instead of
reading it: a batch that gathers a few of its rows touches only their pages,
and writes to the array never reach the file.  Every other tensor, and any
tensor of a v1/v2 file or at an offset that is not 8-byte aligned, is read.

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
import mmap
import os
import secrets

import numpy as np

from . import FAMILIES, ModelParams
from .lstm import _GATES

MAGIC = b"#sentclass-checkpoint-v3\n"
MAGIC_V2 = b"#sentclass-checkpoint-v2\n"
MAGIC_V1 = b"#sentclass-checkpoint-v1\n"
ALIGN = 64  # byte boundary the tensors start on
# encodings whose inputs pick rows of the input table rather than multiply all of it
_HASHED = ("onehot", "counts")


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
    head = MAGIC + json.dumps(header, sort_keys=True).encode("utf-8")
    head += b" " * (-(len(head) + 1) % ALIGN) + b"\n"
    # a process may have ``path`` mapped: replace the file, never write into it.
    # open(..., "xb") gives the file the umask's mode, where mkstemp's is 0600.
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(head)
            for tensor in (*tensors.values(), *arrays.values()):
                fh.write(np.ascontiguousarray(tensor, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
        hashed = magic == MAGIC and meta.get("encoding") in _HASHED
        tensors = _read_tensors(fh, fields, path, family.input_table if hashed else None)
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


def _read_tensors(fh, fields, path, mapped=None) -> dict[str, np.ndarray]:
    """Each field's tensor, read from ``fh`` straight into its own array;
    the field named ``mapped`` is mapped instead, when it can be."""
    tensors = {}
    for name, shape in fields:
        size = 8 * math.prod(shape)
        # a header can claim any shape: allocate or map no more than the file holds
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        tensor = _mapped(fh, shape, size) if name == mapped else None
        if tensor is not None:
            tensors[name] = tensor
            continue
        try:
            tensor = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # a dimension numpy cannot index
            raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from None
        if fh.readinto(tensor.reshape(-1).view(np.uint8)) != size:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        tensors[name] = tensor
    return tensors


def _mapped(fh, shape, size) -> np.ndarray | None:
    """The tensor of ``shape`` at ``fh``'s position as a private copy-on-write
    map of the file, ``fh`` moved past it; None where it cannot be mapped."""
    at = fh.tell()
    if not size or at % 8:
        return None
    start = at - at % mmap.ALLOCATIONGRANULARITY  # a map's offset is granule-aligned
    try:
        view = mmap.mmap(fh.fileno(), at + size - start, offset=start, access=mmap.ACCESS_COPY)
    except (OSError, ValueError):  # no mmap here, or the file shrank since the size check
        return None
    fh.seek(size, os.SEEK_CUR)
    return np.frombuffer(view, dtype="<f8", count=size // 8, offset=at - start).reshape(shape)


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

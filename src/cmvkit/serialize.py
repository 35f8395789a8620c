"""JSON and CSV schemas for the package's value types.

Conventions: complex numbers as [re, im] pairs, floats printed with 17
significant digits so that files round-trip bit for bit, all files UTF-8.

The writers do their per-float work inside C-level `%` operations, one
per block of CSV rows or of JSON array values: dump_json writes the
bytes of json.dump(obj, fh, indent=1) plus a newline, and the CSV
writers write format(x, ".17g") for every float.  A list of objects
that share one layout, such as a trajectory's states or the coefficient
draws of `cmv sample --coeffs-out`, is passed as Records, whose layout
is built once and repeated; coefficient_records gives the {"n", "alpha"}
objects of coefficient rows.  tests/oracles.py keeps the per-float loops
they are compared with.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .alflows import Trajectory
from .core import SpectralMeasureCircle, VerblunskySet
from .errors import InvalidParams


CSV_BLOCK = 4096  # rows formatted per write, so that memory stays bounded
JSON_CHUNK = 65536  # array values formatted per JSON write, rounded up to whole arrays


def _pairs(z: np.ndarray) -> np.ndarray:
    """[re, im] pairs of a complex array: a float array of its shape + (2,)."""
    return np.stack([z.real, z.imag], axis=-1)


def verblunsky_to_obj(v: VerblunskySet) -> dict:
    return {"n": int(v.n), "alpha": _pairs(v.alpha).tolist()}


def verblunsky_from_obj(obj: dict) -> VerblunskySet:
    return VerblunskySet(_coefficients([obj])[0])


def _coefficients(objs) -> np.ndarray:
    """The (T, n) coefficients of T coefficient objects, read in one
    np.asarray and kept as written; InvalidParams unless each holds an
    integer n and n [re, im] pairs of numbers, n the same for all."""
    try:
        pairs, sizes = np.asarray([s["alpha"] for s in objs]), [s["n"] for s in objs]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed coefficient object: {exc!r}") from exc
    if pairs.size == 0:  # n = 0: VerblunskySet and Trajectory raise their own error
        pairs = pairs.reshape(len(sizes), 0, 2)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise InvalidParams("expected every coefficient object to hold [re, im] pairs of numbers, as many in each")
    if not all(isinstance(n, int) and n == pairs.shape[1] for n in sizes):
        raise InvalidParams(f"expected n = {pairs.shape[1]}, the number of coefficient pairs, in every object")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def circle_measure_to_obj(mu: SpectralMeasureCircle) -> dict:
    return {
        "points": [
            {"theta": float(t), "weight": float(w)} for t, w in zip(mu.theta, mu.weights)
        ]
    }


def circle_measure_from_obj(obj: dict) -> SpectralMeasureCircle:
    try:
        pts = obj["points"]
        theta, weights = [float(p["theta"]) for p in pts], [float(p["weight"]) for p in pts]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed measure object: {exc!r}") from exc
    return SpectralMeasureCircle(theta, weights)


@dataclass(frozen=True)
class Records:
    """A JSON list of objects with the keys of fields: object i holds row i
    of every float64 array field and the value of every other field.
    dump_json builds the layout of one object once and repeats it."""

    fields: dict

    def __post_init__(self):
        arrays = [v for v in self.fields.values() if isinstance(v, np.ndarray)]
        if not arrays or any(a.dtype != np.float64 or a.ndim == 0 or len(a) != len(arrays[0]) for a in arrays):
            raise TypeError("Records needs float64 arrays of one shared number of rows")

    def __len__(self) -> int:
        return next(len(v) for v in self.fields.values() if isinstance(v, np.ndarray))

    def tolist(self) -> list:
        rows = {k: v.tolist() for k, v in self.fields.items() if isinstance(v, np.ndarray)}
        return [{k: rows[k][i] if k in rows else v for k, v in self.fields.items()} for i in range(len(self))]


def coefficient_records(alpha: np.ndarray) -> Records:
    """One {"n", "alpha"} coefficient object per row of alpha (T, n)."""
    return Records({"n": alpha.shape[-1], "alpha": _pairs(alpha)})


def trajectory_to_obj(traj: Trajectory) -> dict:
    """The trajectory's JSON object: times, one {"n", "alpha"} and one
    {"eig_drift", "unitarity"} object per state."""
    return {
        "times": traj.times,
        "states": coefficient_records(traj.alpha),
        "diagnostics": Records({"eig_drift": traj.eig_drift, "unitarity": traj.unitarity}),
    }


def trajectory_from_obj(obj: dict) -> Trajectory:
    try:
        times, states = np.asarray(obj["times"], dtype=float), obj["states"]
        diag = np.asarray([[d["eig_drift"], d["unitarity"]] for d in obj["diagnostics"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed trajectory object: {exc!r}") from exc
    return Trajectory(times, _coefficients(states), *diag.reshape(-1, 2).T)


def dump_json(obj, path) -> None:
    """Write obj as json.dump(obj, fh, indent=1) does, then a newline.

    Float ndarrays and Records are written as the nested lists of their
    .tolist().  The tree is walked once into a `%` template with a %s per
    value of its float64 arrays, which is formatted and written in pieces
    that end after a whole array or block of Records objects."""
    parts, leaves = [], []
    _template(obj, 0, parts, leaves, {})
    flat = np.concatenate([a.ravel() for _, a in leaves] + [np.empty(0)])
    part = value = 0
    with _writing(path) as fh:
        for (mark, _), end in zip(leaves, np.cumsum([a.size for _, a in leaves])):
            if end - value >= JSON_CHUNK:
                fh.write("".join(parts[part:mark]) % _texts(flat[value:end]))
                part, value = mark, end
        fh.write("".join(parts[part:]) % _texts(flat[value:]))
        fh.write("\n")


def _texts(values: np.ndarray) -> tuple:
    """The %s arguments of a piece: its floats (str is repr), or if one is
    NaN or infinite, the _float_text of each."""
    return tuple(values.tolist() if np.isfinite(values).all() else map(_float_text, values.tolist()))


def _float_text(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _array_template(shape: tuple, depth: int) -> str:
    """The indent=1 layout of an array of this shape whose opening bracket
    sits at depth, with one %s per element."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    row = _array_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([row] * shape[0]) + "\n" + " " * depth + "]"


def _template(obj, depth: int, parts: list, leaves: list, templates: dict) -> None:
    """Append obj's indent=1 JSON text at depth to parts, literal % escaped
    as %%, with a %s for each value of a float64 array; leaves gets
    (len(parts), array) after each array's layout.  templates caches the
    layouts of one dump by (shape, depth)."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj).replace("%", "%%"))
    elif obj is None:
        parts.append("null")
    elif obj is True or obj is False:
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, Records):
        if not len(obj):
            _template(obj.tolist(), depth, parts, leaves, templates)
            return
        layout = []  # of one object, whose arrays have the row shapes
        proto = {k: np.empty(v.shape[1:]) if isinstance(v, np.ndarray) else v for k, v in obj.fields.items()}
        _template(proto, depth + 1, layout, [], templates)
        record = "".join(layout)
        values = np.concatenate([v.reshape(len(obj), -1) for v in obj.fields.values() if isinstance(v, np.ndarray)], 1)
        pad, per = "\n" + " " * (depth + 1), max(JSON_CHUNK // max(values.shape[1], 1), 1)
        parts.append("[")
        for s in range(0, len(obj), per):
            block = values[s : s + per]
            parts.append(("," if s else "") + pad + ("," + pad).join([record] * len(block)))
            leaves.append((len(parts), block))
        parts.append("\n" + " " * depth + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64:
            _template(obj.tolist(), depth, parts, leaves, templates)
            return
        key = (obj.shape, depth)
        if key not in templates:
            templates[key] = _array_template(obj.shape, depth)
        parts.append(templates[key])
        leaves.append((len(parts), obj))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            parts.append("{}" if isinstance(obj, dict) else "[]")
            return
        pad = "\n" + " " * (depth + 1)
        parts.append("{" if isinstance(obj, dict) else "[")
        if isinstance(obj, dict):
            for i, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(("," + pad if i else pad) + encode_basestring_ascii(key).replace("%", "%%") + ": ")
                _template(value, depth + 1, parts, leaves, templates)
        else:
            for i, value in enumerate(obj):
                parts.append("," + pad if i else pad)
                _template(value, depth + 1, parts, leaves, templates)
        parts.append("\n" + " " * depth + ("}" if isinstance(obj, dict) else "]"))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@contextmanager
def _reading(path):
    """path opened as UTF-8 text; InvalidParams naming it when it cannot be
    opened or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidParams(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParams(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


@contextmanager
def _writing(path):
    """path opened for UTF-8 text as open(path, "w") opens it; InvalidParams
    naming it when it cannot be opened or written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidParams(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_json(path):
    """The JSON value in path; InvalidParams naming it when unreadable or invalid."""
    with _reading(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"{path}: not valid JSON ({exc})") from exc


def write_samples_csv(path, rows: np.ndarray) -> None:
    """One sample per row, columns sorted, 17 significant digits."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with _writing(path) as fh:
        _write_rows(fh, rows)


def _write_rows(fh, rows: np.ndarray) -> None:
    """Each row of the 2-D float array as format(x, ".17g") joined by
    commas, one %-template per block of CSV_BLOCK rows."""
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], CSV_BLOCK):
        block = rows[start : start + CSV_BLOCK]
        fh.write(template * block.shape[0] % tuple(block.ravel().tolist()))


def read_samples_csv(path) -> np.ndarray:
    """The rows of a sample CSV as a (rows, columns) array; InvalidParams
    when it cannot be read, on rows of unequal length and on tokens that
    are not finite numbers."""
    with _reading(path) as fh:
        rows = [line for line in (raw.strip() for raw in fh.read().split("\n")) if line]
    if not rows:
        return np.empty((0, 0))
    if len({line.count(",") for line in rows}) > 1:
        raise InvalidParams(f"{path}: rows of unequal length")
    try:
        # numpy casts each str with float(): the same tokens, the same message
        data = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), -1)
    except ValueError as exc:
        raise InvalidParams(f"{path}: {exc}") from exc
    finite = np.isfinite(data)
    if not finite.all():
        row = finite.all(axis=1).argmin() + 1
        raise InvalidParams(f"{path}: row {row} holds {data[~finite][0]}, not a finite number")
    return data


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    """Rows of bin_left, bin_right, count; bins half-open, last closed."""
    edges = np.asarray(edges, dtype=float)
    # a count prints as its integer: counts stay far below 2^53
    rows = np.column_stack([edges[:-1], edges[1:], np.asarray(counts, dtype=float)])
    with _writing(path) as fh:
        _write_rows(fh, rows)

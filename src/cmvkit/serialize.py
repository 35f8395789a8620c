"""JSON and CSV schemas for the package's value types.

Conventions: complex numbers as [re, im] pairs, matrices as row-major
lists of pairs, floats printed with 17 significant digits so that files
round-trip bit for bit, all files UTF-8.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .alflows import Trajectory
from .core import SpectralMeasureCircle, SpectralMeasureLine, VerblunskySet
from .errors import InvalidParams


def _pairs(z: np.ndarray) -> list:
    """[re, im] pairs of a complex array, as nested lists of its shape."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def verblunsky_to_obj(v: VerblunskySet) -> dict:
    return {"n": int(v.n), "alpha": _pairs(v.alpha)}


def _complex(pair) -> complex:
    """The complex number of an [re, im] pair of exactly two numbers."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(isinstance(x, (int, float)) for x in pair)):
        raise InvalidParams(f"expected an [re, im] pair of two numbers, got {pair!r}")
    return complex(pair[0], pair[1])


def verblunsky_from_obj(obj: dict) -> VerblunskySet:
    try:
        n = obj["n"]
        pairs = list(obj["alpha"])
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed coefficient object: {exc!r}") from exc
    if not isinstance(n, int) or len(pairs) != n:
        raise InvalidParams(f"expected an integer n and n coefficient pairs, got n = {n!r} and {len(pairs)} pairs")
    return VerblunskySet(np.array([_complex(p) for p in pairs]))


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": _pairs(m.reshape(-1).astype(complex)),
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise InvalidParams("matrix entry count does not match its shape")
    flat = np.array([_complex(p) for p in entries])
    return flat.reshape(rows, cols)


def circle_measure_to_obj(mu: SpectralMeasureCircle) -> dict:
    return {
        "points": [
            {"theta": float(t), "weight": float(w)} for t, w in zip(mu.theta, mu.weights)
        ]
    }


def _points(obj: dict, key: str) -> tuple[list, list]:
    """The (key, weight) values of a measure object's points, as floats."""
    try:
        pts = obj["points"]
        return [float(p[key]) for p in pts], [float(p["weight"]) for p in pts]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed measure object: {exc!r}") from exc


def circle_measure_from_obj(obj: dict) -> SpectralMeasureCircle:
    return SpectralMeasureCircle(*_points(obj, "theta"))


def line_measure_to_obj(nu: SpectralMeasureLine) -> dict:
    return {"points": [{"x": float(x), "weight": float(w)} for x, w in zip(nu.x, nu.weights)]}


def line_measure_from_obj(obj: dict) -> SpectralMeasureLine:
    return SpectralMeasureLine(*_points(obj, "x"))


def trajectory_to_obj(traj: Trajectory) -> dict:
    n = int(traj.n)
    return {
        "times": traj.times.tolist(),
        "states": [{"n": n, "alpha": alpha} for alpha in _pairs(traj.alpha_matrix())],
        "diagnostics": [
            {"eig_drift": d, "unitarity": u}
            for d, u in zip(traj.eig_drift.tolist(), traj.unitarity.tolist())
        ],
    }


def trajectory_from_obj(obj: dict) -> Trajectory:
    states = tuple(verblunsky_from_obj(s) for s in obj["states"])
    diag = obj["diagnostics"]
    return Trajectory(
        np.asarray(obj["times"], dtype=float),
        states,
        np.array([d["eig_drift"] for d in diag]),
        np.array([d["unitarity"] for d in diag]),
    )


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


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
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row))
            fh.write("\n")


def read_samples_csv(path) -> np.ndarray:
    """The rows of a sample CSV as a (rows, columns) array; InvalidParams
    when it cannot be read, on rows of unequal length and on tokens that
    are not finite numbers."""
    with _reading(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 0))
    try:
        data = np.array([[float(tok) for tok in line.split(",")] for line in rows])
    except ValueError as exc:
        ragged = len({line.count(",") for line in rows}) > 1
        raise InvalidParams(f"{path}: {'rows of unequal length' if ragged else exc}") from exc
    finite = np.isfinite(data)
    if not finite.all():
        row = finite.all(axis=1).argmin() + 1
        raise InvalidParams(f"{path}: row {row} holds {data[~finite][0]}, not a finite number")
    return data


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    """Rows of bin_left, bin_right, count; bins half-open, last closed."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, c in enumerate(counts):
            left = format(edges[i], ".17g")
            right = format(edges[i + 1], ".17g")
            fh.write(f"{left},{right},{int(c)}\n")

"""JSON and CSV schemas for the package's value types.

Conventions: complex numbers as [re, im] pairs, matrices as row-major
lists of pairs, floats printed with 17 significant digits so that files
round-trip bit for bit, all files UTF-8.
"""

from __future__ import annotations

import json

import numpy as np

from .alflows import Trajectory
from .core import SpectralMeasureCircle, SpectralMeasureLine, VerblunskySet
from .errors import InvalidParams


def _pairs(z: np.ndarray) -> list:
    """[re, im] pairs of a complex array, as nested lists of its shape."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def verblunsky_to_obj(v: VerblunskySet) -> dict:
    return {"n": int(v.n), "alpha": _pairs(v.alpha)}


def verblunsky_from_obj(obj: dict) -> VerblunskySet:
    try:
        n = int(obj["n"])
        pairs = obj["alpha"]
    except (KeyError, TypeError) as exc:
        raise InvalidParams(f"malformed coefficient object: {exc}") from exc
    if len(pairs) != n:
        raise InvalidParams(f"expected exactly {n} coefficient pairs, got {len(pairs)}")
    alpha = np.array([complex(p[0], p[1]) for p in pairs])
    return VerblunskySet(alpha)


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
    flat = np.array([complex(p[0], p[1]) for p in entries])
    return flat.reshape(rows, cols)


def circle_measure_to_obj(mu: SpectralMeasureCircle) -> dict:
    return {
        "points": [
            {"theta": float(t), "weight": float(w)} for t, w in zip(mu.theta, mu.weights)
        ]
    }


def circle_measure_from_obj(obj: dict) -> SpectralMeasureCircle:
    pts = obj["points"]
    return SpectralMeasureCircle(
        [p["theta"] for p in pts], [p["weight"] for p in pts]
    )


def line_measure_to_obj(nu: SpectralMeasureLine) -> dict:
    return {"points": [{"x": float(x), "weight": float(w)} for x, w in zip(nu.x, nu.weights)]}


def line_measure_from_obj(obj: dict) -> SpectralMeasureLine:
    pts = obj["points"]
    return SpectralMeasureLine([p["x"] for p in pts], [p["weight"] for p in pts])


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


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_samples_csv(path, rows: np.ndarray) -> None:
    """One sample per row, columns sorted, 17 significant digits."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row))
            fh.write("\n")


def read_samples_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 0))
    return np.array([[float(tok) for tok in line.split(",")] for line in rows])


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    """Rows of bin_left, bin_right, count; bins half-open, last closed."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, c in enumerate(counts):
            left = format(edges[i], ".17g")
            right = format(edges[i + 1], ".17g")
            fh.write(f"{left},{right},{int(c)}\n")

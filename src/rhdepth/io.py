"""CSV/JSON interchange and atomic file writes.

Curve CSV format: first row holds the grid points, each subsequent row one
curve; UTF-8 with '.' decimals. Labels CSV: index,label rows with a header.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .funspace import EigenSystem, FunctionalSample, Grid, make_uniform_grid


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The file gets mode 0o666 less the umask, as open() would give it;
    mkstemp alone creates it 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        umask = os.umask(0)  # the only way to read it; restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_row(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def sample_to_csv(sample: FunctionalSample) -> str:
    lines = [_format_row(sample.grid.points)]
    lines.extend(_format_row(row) for row in sample.values)
    return "\n".join(lines) + "\n"


def write_sample(path: str, sample: FunctionalSample) -> None:
    atomic_write_text(path, sample_to_csv(sample))


def _read_csv(path: str) -> list:
    """All rows of a CSV file; a malformed one (say, a field over the csv
    module's size limit) raises ValueError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_sample(path: str) -> FunctionalSample:
    """Load a curve CSV; the grid gets trapezoidal weights."""
    rows = [row for row in _read_csv(path) if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a grid row and at least one curve row")
    points = np.array([float(v) for v in rows[0]])
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    p = points.size
    if p < 2:
        raise ValueError(f"{path}: the grid needs at least 2 points, got {p}")
    if not np.isfinite(points).all():
        raise ValueError(f"{path}: grid points must be finite")
    if p == 2:
        weights = np.array([0.5, 0.5]) * (points[1] - points[0])
    else:
        gaps = np.diff(points)
        weights = np.empty(p)
        weights[0] = gaps[0] / 2
        weights[-1] = gaps[-1] / 2
        weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2
    if np.allclose(points, np.linspace(points[0], points[-1], p)) and np.isclose(
        points[0], 0.0
    ) and np.isclose(points[-1], 1.0):
        grid = make_uniform_grid(p)
    else:
        grid = Grid(points, weights)
    return FunctionalSample(grid, values)


def labels_to_csv(labels) -> str:
    lines = ["index,label"]
    lines.extend(f"{i},{lab}" for i, lab in enumerate(labels))
    return "\n".join(lines) + "\n"


def write_labels(path: str, labels) -> None:
    atomic_write_text(path, labels_to_csv(labels))


def read_labels(path: str) -> list:
    rows = _read_csv(path)
    if not rows or rows[0] != ["index", "label"]:
        raise ValueError(f"{path}: expected 'index,label' header")
    body = rows[1:]
    if any(len(row) != 2 for row in body):
        raise ValueError(f"{path}: each row must be index,label")
    try:
        indices = [int(idx) for idx, _ in body]
    except ValueError:
        raise ValueError(f"{path}: label indices must be integers") from None
    if sorted(indices) != list(range(len(body))):
        raise ValueError(f"{path}: label indices must be 0..{len(body) - 1}, each once")
    labels = [None] * len(body)
    for idx, (_, lab) in zip(indices, body):
        labels[idx] = lab
    return labels


def eigensystem_to_json(eig: EigenSystem) -> str:
    payload = {
        "grid_points": eig.grid.points.tolist(),
        "mean": eig.mean.tolist(),
        "eigenvalues": eig.eigenvalues.tolist(),
        "eigenfunctions": eig.eigenfunctions.tolist(),
        "scores": eig.scores.tolist(),
        "usable_rank": eig.usable_rank,
    }
    return json.dumps(payload, indent=2, allow_nan=False)


def write_json(path: str, payload: dict) -> None:
    """Write strict JSON: a NaN or infinite float raises ValueError."""
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")

"""CSV/JSON interchange and atomic file writes.

Curve CSV format: first row holds the grid points, each subsequent row one
curve; UTF-8 with '.' decimals, any line ending (LF, CRLF or CR). NumPy's C
parser reads it: fields may be double-quoted and padded with spaces, and a
number is a Python float literal without underscores and in ASCII digits
(so `+1.5`, `1.`, `.5`, `1E5`, `nan` and `inf` are accepted). Empty lines
are skipped; there are no comment lines. Labels CSV: index,label rows with
a header, read by the csv module.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings

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
    module's size limit, or bytes that are not UTF-8) raises ValueError
    naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# Longest reader message kept whole. loadtxt quotes the field it could not
# convert, which may be a whole file long.
_MESSAGE_CHARS = 200


def _shortened(message: str) -> str:
    """The message, or its head and tail (where the field's row and column
    are) when it is longer than _MESSAGE_CHARS."""
    if len(message) <= _MESSAGE_CHARS:
        return message
    half = _MESSAGE_CHARS // 2
    return f"{message[:half]} ... {message[-half:]}"


def read_sample(path: str) -> FunctionalSample:
    """Load a curve CSV; the grid gets trapezoidal weights. A file that holds
    no usable sample raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
            # loadtxt warns on a file without data; the row count refuses it.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
        return _sample_from_table(table)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {_shortened(str(exc))}") from None


def _sample_from_table(table: np.ndarray) -> FunctionalSample:
    if len(table) < 2:
        raise ValueError("need a grid row and at least one curve row")
    points, values = table[0], table[1:]
    p = points.size
    if p < 2:
        raise ValueError(f"the grid needs at least 2 points, got {p}")
    if not np.isfinite(points).all():
        raise ValueError("grid points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        span = points[-1] - points[0]
        gaps = np.diff(points)
        weights = np.concatenate(([gaps[0]], gaps[:-1] + gaps[1:], [gaps[-1]])) / 2
    if not np.isfinite(span):
        raise ValueError("the grid span overflows")
    if np.allclose(points, np.linspace(points[0], points[-1], p)) and np.isclose(
        points[0], 0.0
    ) and np.isclose(points[-1], 1.0):
        grid = make_uniform_grid(p)
    else:
        grid = Grid(points, weights)
    sample = FunctionalSample(grid, values)
    with np.errstate(over="ignore"):
        # FPCA squares the centered curves scaled by sqrt(w) and sums the
        # squares: a centered square is at most 4x the largest uncentered
        # one, and the centered sum at most the uncentered sum.
        energy = 4 * np.sum(grid.weights * np.square(sample.values))
    if not np.isfinite(energy):
        raise ValueError("curve values are too large: their weighted squares overflow")
    return sample


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

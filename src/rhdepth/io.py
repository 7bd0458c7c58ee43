"""CSV/JSON interchange and atomic file writes.

Every output is written by `atomic_write_text`: to a temp file that open()
creates exclusively in the target's directory, with the mode the umask
gives it (the umask is never changed), then renamed onto the target.

Every CSV output is written by `csv_text`, each field by str(): a float as
its shortest round-trip repr, so a curve file reads back exactly. The depth
command hands it one pre-joined depth,normalized_rank,lambda_used text per
distinct depth, itself written by csv_text. Every JSON output is written by
`json_text`: the bytes of json.dumps(payload, indent=2, allow_nan=False),
built with one str.join per container instead of the pure-Python encoder
that indenting selects. Its writers, keyed by exact type, take what the
program writes; json.dumps itself writes, or refuses, the rest: a non-str
key, a subclass such as np.float64, a NaN or an infinity, a type json
cannot write. Two kinds of list take one pass instead of a writer call per
item: all exact ints or all finite exact floats, by one map of the type's
repr; and records, exact dicts that share one tuple of str keys (the fence
records), a column of values at a time into one text template.

Curve CSV format: first row holds the grid points, which become a Grid as
read (the Grid derives its quadrature weights), each subsequent row one
curve; UTF-8 with '.' decimals, any line ending (LF, CRLF or CR). NumPy's C
parser reads it: fields may be double-quoted and padded with spaces, and a
number is a Python float literal without underscores and in ASCII digits
(so `+1.5`, `1.`, `.5`, `1E5`, `nan` and `inf` are accepted). Empty lines
are skipped; there are no comment lines. The reader checks only that there
is a grid row and a curve row: the Grid and FunctionalSample refuse the
rest, and read_sample names the file in the message. Labels CSV:
index,label rows with a header, read by the csv module. Both readers skip a
leading UTF-8 byte-order mark.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import warnings
from math import isfinite

import numpy as np

from .funspace import EigenSystem, FunctionalSample, Grid


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The temp file, under a random name, is created exclusively by open(),
    so it gets mode 0o666 less the umask; the umask is never changed. An
    OSError names path, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    name = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    tmp = None  # set once this call has created the file
    try:
        with open(name, "x", encoding="utf-8", newline="") as handle:
            tmp = name
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def csv_text(rows) -> str:
    """One comma-separated line per row, each value written by str()."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def sample_to_csv(sample: FunctionalSample) -> str:
    # One row's list at a time: a whole-array tolist() would hold every
    # curve's Python floats at once.
    rows = (row.tolist() for row in sample.values)
    return csv_text(itertools.chain([sample.grid.points.tolist()], rows))


def write_sample(path: str, sample: FunctionalSample) -> None:
    atomic_write_text(path, sample_to_csv(sample))


def _read_csv(path: str) -> list:
    """All rows of a CSV file; a malformed one (say, a field over the csv
    module's size limit, or bytes that are not UTF-8) raises ValueError
    naming the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return list(csv.reader(handle))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_sample(path: str) -> FunctionalSample:
    """Load a curve CSV: its first row is the Grid, the rest the curves. A
    file that holds no usable sample raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as handle, warnings.catch_warnings():
            # loadtxt warns on a file without data; the row count refuses it.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
        return _sample_from_table(table)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _sample_from_table(table: np.ndarray) -> FunctionalSample:
    """The Grid of the table's first row and the curves of the rest; the
    Grid and FunctionalSample refuse what they cannot hold."""
    if len(table) < 2:
        raise ValueError("need a grid row and at least one curve row")
    return FunctionalSample(Grid(table[0]), table[1:])


def labels_to_csv(labels) -> str:
    return csv_text([("index", "label"), *enumerate(labels)])


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


def eigensystem_payload(eig: EigenSystem) -> dict:
    """The eigensystem as a JSON payload for write_json."""
    return {
        "grid_points": eig.grid.points.tolist(),
        "mean": eig.mean.tolist(),
        "eigenvalues": eig.eigenvalues.tolist(),
        "eigenfunctions": eig.eigenfunctions.tolist(),
        "scores": eig.scores.tolist(),
        "usable_rank": eig.usable_rank,
    }


def _float_text(value: float, indent: str) -> str:
    """A finite float's shortest round-trip repr; json.dumps refuses the rest."""
    return float.__repr__(value) if isfinite(value) else _dumps_text(value, indent)


def _list_text(items, indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(_item_texts(items, inner)) + indent + "]"


def _item_texts(items, indent: str) -> list:
    """The text of each item, at indent. Items all of one exact type take one
    pass: int, finite float, or dict records sharing their keys (see
    _record_texts); anything else takes its own writer, item by item."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return list(map(int.__repr__, items))
    if kinds == {float} and all(map(isfinite, items)):
        return list(map(float.__repr__, items))
    if kinds == {dict}:
        texts = _record_texts(items, indent)
        if texts is not None:
            return texts
    return [_WRITERS.get(type(v), _dumps_text)(v, indent) for v in items]


def _record_texts(records, indent: str):
    """Records that share one non-empty tuple of str keys, written a column
    of values at a time into one template; None for other records, and for
    records holding a value json refuses, so that the item-by-item writers
    raise json's error for the first such value in document order."""
    keys = tuple(records[0])
    if not keys or any(type(k) is not str for k in keys):
        return None
    if any(tuple(r) != keys for r in records):
        return None
    inner = indent + "  "
    try:
        columns = [_item_texts(c, inner) for c in zip(*map(dict.values, records))]
    except (TypeError, ValueError):
        return None
    fields = ("," + inner).join(_quoted(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + inner + fields + indent + "}"
    return [template % row for row in zip(*columns)]


def _dict_text(mapping, indent: str) -> str:
    if not mapping:
        return "{}"
    inner = indent + "  "
    try:
        texts = [
            _quoted(k) + ": " + _WRITERS.get(type(v), _dumps_text)(v, inner)
            for k, v in mapping.items()
        ]
    except TypeError:  # a key that is not a str, or json's own refusal below
        return _dumps_text(mapping, indent)
    return "{" + inner + ("," + inner).join(texts) + indent + "}"


def _dumps_text(value, indent: str) -> str:
    """json.dumps's own text, or its error, for what no writer of _WRITERS
    takes. ensure_ascii escapes every newline inside a string, so each
    newline of the text starts a line, which takes the indent of its place."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", indent)


_quoted = json.encoder.encode_basestring_ascii
# Writers by exact type, each taking (value, indent): the indent is "\n"
# and two spaces per level, the text that precedes the value's own items.
_WRITERS = {
    float: _float_text,
    int: lambda value, _: int.__repr__(value),
    str: lambda value, _: _quoted(value),
    bool: lambda value, _: "true" if value else "false",
    type(None): lambda value, _: "null",
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
}


def json_text(payload) -> str:
    """The text json.dumps(payload, indent=2, allow_nan=False) returns, byte
    for byte, and its ValueError or TypeError for what it refuses.
    Containers that the writers take are not checked for cycles."""
    return _WRITERS.get(type(payload), _dumps_text)(payload, "\n")


def write_json(path: str, payload: dict) -> None:
    """Write strict JSON, two-space indented, with a final newline: a NaN
    or infinite float raises ValueError."""
    atomic_write_text(path, json_text(payload) + "\n")

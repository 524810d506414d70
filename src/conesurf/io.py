"""File emission helpers: OBJ meshes, JSON reports, CSV tables."""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import IoError

# OBJ records per format call in write_obj.  One call per record block
# would hold every coordinate of a large mesh as a Python object at once,
# and the process keeps that memory after it is freed.
OBJ_CHUNK = 1024


def _open_out(path):
    path = Path(path)
    if not path.parent.exists():
        raise IoError(path, f"output directory does not exist: {path.parent}")
    return path


def write_obj(path, vertices, triangles):
    """OBJ with `v x y z` and 1-based CCW `f i j k` records."""
    path = _open_out(path)
    X = np.asarray(vertices, dtype=float)
    T = np.asarray(triangles, dtype=int) + 1
    with open(path, "w") as fh:
        for fmt, rows in (("v %.17g %.17g %.17g\n", X), ("f %d %d %d\n", T)):
            for start in range(0, len(rows), OBJ_CHUNK):
                block = rows[start:start + OBJ_CHUNK]
                fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def _numbers(text, n, dtype):
    """The (n, 3) array of the 3 n number tokens of the one line `text`, by
    numpy's C parser; ValueError for a token that is not a number of the
    dtype, or for another token count."""
    if n == 0:
        return np.empty((0, 3), dtype=dtype)
    values = np.loadtxt([text], dtype=dtype, comments=None, ndmin=1)
    if len(values) != 3 * n:
        raise ValueError(f"{len(values)} fields for {n} records")
    return values.reshape(n, 3)


def _first_failing(text, cut, dtype):
    """Index of the first record of `text` that _numbers rejects, by
    bisection over its prefixes; record i ends at cut[i], and the whole
    text is rejected."""
    good, bad = 0, len(cut)  # records [0, good) parse, [0, bad) do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _numbers(text[:cut[mid - 1]], mid, dtype)
            good = mid
        except ValueError:
            bad = mid
    return good


def read_obj(path):
    """(X, triangles) of an OBJ file: the `v` records give X (nv, 3), and
    the first index of each of the first three corners of an `f` record
    (`i`, `i/j` or `i/j/k`) gives the 0-based triangles (nt, 3).  Other
    records and blank lines are skipped; a record's fields are separated by
    ASCII whitespace, and lines end in LF, CRLF or CR.  A `v` or `f` record
    with fewer than three fields, a `v` coordinate that is not a number or
    not finite (`nan`, `inf`), or an `f` corner that is not an integer
    raises IoError naming the record's line; a short record anywhere is
    reported first.

    One pass over the file's bytes finds the tokens, their lines and the
    records.  The first three fields of every record of a kind are then cut
    out of the bytes as one line of numbers, with each corner's `/...` tail
    dropped, and converted by numpy's C parser in one call per kind."""
    path = Path(path)
    if not path.exists():
        raise IoError(path, f"surface artifact not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = fh.read().encode() + b"\n"
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(path, f"{path}: unreadable surface artifact: {exc}") from exc
    b = np.frombuffer(data, dtype=np.uint8)
    # tokens [start, end) are the runs between the separators of
    # bytes.split(); the data ends in one, so every token has an end
    space = (b == 32) | ((b >= 9) & (b <= 13))
    edge = np.diff(space.view(np.int8), prepend=np.int8(1))
    starts, ends = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    # per line: its first token (a line without one points past its end),
    # its token count, and its keyword byte when that token is one byte long
    first = np.searchsorted(starts, np.concatenate([[0], np.flatnonzero(b[:-1] == 10) + 1]))
    count = np.diff(first, append=len(starts))
    head = np.append(starts, 0)[first]
    one = np.append(ends, 0)[first] - head == 1
    key = np.where((count > 0) & one, b[head], 0)
    records = np.flatnonzero((key == ord("v")) | (key == ord("f")))  # lines
    short = records[count[records] < 4]
    if len(short):
        raise IoError(path, f"{path}:{short[0] + 1}: short {chr(key[short[0]])!r} record")

    # label each record's first three fields and the separator after them
    # with its keyword byte, and every other byte 0
    tag = key[records].astype(np.uint8)
    bounds = np.stack([starts[first[records] + 1], ends[first[records] + 3] + 1], axis=1)
    label = np.repeat(np.append(np.stack([np.zeros_like(tag), tag], axis=1), np.uint8(0)),
                      np.diff(np.append(bounds, len(b)), prepend=0))
    if b"/" in data:  # drop each 'f' corner's tail from its first '/'
        at = np.arange(len(b))
        tail = (np.maximum.accumulate(np.where(b == 47, at, -1))
                >= np.maximum.accumulate(np.where(edge == -1, at, -1))) & ~space
        label[tail & (label == ord("f"))] = 0
    out = []
    for kind, dtype in (("v", float), ("f", int)):
        keep = label == ord(kind)
        rows = records[tag == ord(kind)]
        text = b[keep].tobytes().replace(b"\n", b" ")
        try:
            out.append(_numbers(text, len(rows), dtype))
        except ValueError as exc:
            # the length of text up to the end of each record
            cut = np.cumsum(keep)[bounds[tag == ord(kind), 1] - 1]
            line = rows[_first_failing(text, cut, dtype)] + 1
            raise IoError(path, f"{path}:{line}: malformed {kind!r} record") from exc
    X, triangles = out
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise IoError(path, f"{path}:{records[tag == ord('v')][bad[0]] + 1}: non-finite 'v' record")
    return X, triangles - 1


def write_json(path, payload):
    path = _open_out(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _unique_keys(pairs):
    """The object of a JSON object's (key, value) pairs; a key given twice
    raises ValueError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(path):
    """The JSON document at path.  A file that cannot be read, is not
    UTF-8 or is not JSON, or an object that gives a key twice, raises
    IoError."""
    path = Path(path)
    if not path.exists():
        raise IoError(path, f"file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise IoError(path, f"{path}: unreadable JSON: {exc}") from exc


def write_csv(path, header, rows):
    path = _open_out(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

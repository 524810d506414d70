"""File emission helpers: OBJ meshes, JSON reports, CSV tables."""

import csv
import json
import re
from pathlib import Path

import numpy as np

from .errors import IoError

_CORNER_TAIL = re.compile(r"/\S*")   # texture/normal indices of an OBJ corner

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


def read_obj(path):
    """(X, triangles) of an OBJ file: the `v` records give X (nv, 3), and
    the first index of each of the first three corners of an `f` record
    (`i`, `i/j` or `i/j/k`) gives the 0-based triangles (nt, 3).  Other
    records and blank lines are skipped.  A `v` record with fewer than three
    coordinates or a coordinate that is not finite (`nan`, `inf`), an `f`
    record with fewer than three corners or a token that is not a number
    raises IoError."""
    path = Path(path)
    if not path.exists():
        raise IoError(path, f"surface artifact not found: {path}")
    coords, corners, vertex_lines = [], [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                parts = line.split()
                if not parts or parts[0] not in ("v", "f"):
                    continue
                if len(parts) < 4:
                    raise IoError(path, f"{path}:{n}: short {parts[0]!r} record")
                if parts[0] == "v":
                    coords += parts[1:4]
                    vertex_lines.append(n)
                else:
                    corners += parts[1:4]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(path, f"{path}: unreadable surface artifact: {exc}") from exc
    faces = " ".join(corners)
    if "/" in faces:
        corners = _CORNER_TAIL.sub("", faces).split()
    try:
        X = np.array(coords, dtype=float).reshape(-1, 3)
        triangles = np.array(corners, dtype=int).reshape(-1, 3) - 1
    except ValueError as exc:
        raise IoError(path, f"{path}: malformed surface artifact: {exc}") from exc
    bad = np.nonzero(~np.isfinite(X).all(axis=1))[0]
    if len(bad):
        raise IoError(path, f"{path}:{vertex_lines[bad[0]]}: non-finite 'v' record")
    return X, triangles


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

import numpy as np
import pytest

import conesurf as cs
from conesurf import io
from conesurf.errors import IoError


def read_obj_per_line(path):
    """Reference reader: one float/int conversion per record."""
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                tris.append([int(x.split("/")[0]) - 1 for x in parts[1:4]])
    return np.asarray(verts, dtype=float), np.asarray(tris, dtype=int)


def write_obj_per_line(path, vertices, triangles):
    """Reference writer: one f-string per record."""
    with open(path, "w") as fh:
        for v in np.asarray(vertices, dtype=float):
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in np.asarray(triangles, dtype=int):
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def assert_same_as_reference(path):
    X, tris = io.read_obj(path)
    X_ref, tris_ref = read_obj_per_line(path)
    assert X.dtype == X_ref.dtype and tris.dtype == tris_ref.dtype
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(tris, tris_ref)
    return X, tris


class TestReadObj:
    def test_written_surface_bit_identical(self, tmp_path):
        mesh = cs.build_disk_mesh(12, 24)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        X = np.column_stack([u, v, 2.0 + np.sin(3.0 * u) * v / 7.0])
        io.write_obj(tmp_path / "s.obj", X, mesh.triangles)
        X_read, tris = assert_same_as_reference(tmp_path / "s.obj")
        np.testing.assert_array_equal(X_read, X)
        np.testing.assert_array_equal(tris, mesh.triangles)

    def test_slash_faces_comments_and_other_records(self, tmp_path):
        path = tmp_path / "mixed.obj"
        path.write_text(
            "# a comment with v 9 9 9 and f 9 9 9\n"
            "o patch\n"
            "\n"
            "v 0 0 1.5\n"
            "v 1.0e0 0 2 1.0\n"
            "vt 0.5 0.5\n"
            "vn 0 0 1\n"
            "   \n"
            "v\t0 1 2\n"
            "v -1 -1 3.25\n"
            "f 1/1/1 2/2/1 3/3/1\n"
            "f 1//1 3//1 4//1\n"
            "s off\n"
            "f 2/7 4/8 3/9\n"
            "f 4 3 1 2\n"
        )
        X, tris = assert_same_as_reference(path)
        np.testing.assert_array_equal(
            X, [[0, 0, 1.5], [1, 0, 2], [0, 1, 2], [-1, -1, 3.25]])
        np.testing.assert_array_equal(tris, [[0, 1, 2], [0, 2, 3], [1, 3, 2], [3, 2, 0]])

    @pytest.mark.parametrize("text", [
        "v 1 2\nv 0 0 0\nv 1 1 1\nf 1 2 3\n",     # short vertex record
        "v 1 2 3\nv 0 0 0\nv 1 1 1\nf 1 2\n",     # short face record
        "v 1 2 x\nv 0 0 0\nv 1 1 1\nf 1 2 3\n",   # non-numeric coordinate
        "v 1 2 3\nv 0 0 0\nv 1 1 1\nf 1 2 a\n",   # non-numeric corner
        "v 1 2 3\nv 0 0 0\nv 1 1 1\nf 1 2 3.5\n", # non-integer corner
        "v 1 2 3\nv 0 0 0\nv 1 1 1\nf /1 2 3\n",  # corner without a vertex
        "v 1 nan 3\nv 0 0 0\nv 1 1 1\nf 1 2 3\n", # nan coordinate
        "v inf 0 0\nv 0 0 0\nv 1 1 1\nf 1 2 3\n", # infinite coordinate
    ])
    def test_malformed_file_is_typed(self, tmp_path, text):
        path = tmp_path / "bad.obj"
        path.write_text(text)
        with pytest.raises(IoError):
            io.read_obj(path)

    def test_non_finite_vertex_names_its_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("# surface\nv 0 0 1\nv 1 0 -inf\nv 0 1 1\nf 1 2 3\n")
        with pytest.raises(IoError, match=r"bad\.obj:3: non-finite 'v' record"):
            io.read_obj(path)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(IoError):
            io.read_obj(tmp_path / "absent.obj")

    def test_leading_whitespace(self, tmp_path):
        path = tmp_path / "indented.obj"
        path.write_text("  v 0 0 1\n\tv 1 0 1\n \t v 0 1 1.5\n\t f 1 2 3\n   f 3 2 1\n")
        X, tris = assert_same_as_reference(path)
        np.testing.assert_array_equal(X, [[0, 0, 1], [1, 0, 1], [0, 1, 1.5]])
        np.testing.assert_array_equal(tris, [[0, 1, 2], [2, 1, 0]])

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_line_endings(self, tmp_path, newline):
        mesh = cs.build_disk_mesh(4, 8)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        X = np.column_stack([u, v, 1.0 + u * v / 3.0])
        io.write_obj(tmp_path / "lf.obj", X, mesh.triangles)
        path = tmp_path / "other.obj"
        path.write_bytes((tmp_path / "lf.obj").read_bytes().replace(b"\n", newline))
        X_read, tris = assert_same_as_reference(path)
        np.testing.assert_array_equal(X_read, X)
        np.testing.assert_array_equal(tris, mesh.triangles)

    def test_record_followed_by_comment(self, tmp_path):
        path = tmp_path / "commented.obj"
        path.write_text("v 0 0 1 # the first vertex\nv 1 0 1 #\nv 0 1 1\t# tab\n"
                        "f 1 2 3 # a face\nf 1/4 3/5 2/6 # slashed, then a comment\n")
        X, tris = assert_same_as_reference(path)
        np.testing.assert_array_equal(X, [[0, 0, 1], [1, 0, 1], [0, 1, 1]])
        np.testing.assert_array_equal(tris, [[0, 1, 2], [0, 2, 1]])

    @pytest.mark.parametrize("record,message", [
        ("v 0.5 0.25", "short 'v' record"),
        ("f 7 8", "short 'f' record"),
        ("v 0.5 x 0.25", "malformed 'v' record"),
        ("v 0.5 1/2 0.25", "malformed 'v' record"),
        ("f 7 8 nine", "malformed 'f' record"),
        ("f 7 8 9.0", "malformed 'f' record"),
        ("f 7 /8 9", "malformed 'f' record"),
        ("v 0.5 inf 0.25", "non-finite 'v' record"),
    ])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_bad_record_in_a_written_surface_names_its_line(self, tmp_path, record, message,
                                                            place):
        # the (12, 24) surface has 289 'v' lines, then 552 'f' lines; the
        # bad record replaces the first, a middle or the last of its kind
        mesh = cs.build_disk_mesh(12, 24)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        io.write_obj(tmp_path / "s.obj", np.column_stack([u, v, 2.0 + u * v]), mesh.triangles)
        lines = (tmp_path / "s.obj").read_text().splitlines(keepends=True)
        block = {"v": (1, 289), "f": (290, 841)}[record[0]]
        line = {"first": block[0], "middle": (block[0] + block[1]) // 2, "last": block[1]}[place]
        lines[line - 1] = record + "\n"
        path = tmp_path / "bad.obj"
        path.write_text("".join(lines))
        with pytest.raises(IoError, match=rf"bad\.obj:{line}: {message}$"):
            io.read_obj(path)

    def test_first_bad_record_is_named(self, tmp_path):
        text = "v 0 0 1\nv 1 0 x\nv 0 1 y\nv 1 1 1\nf 1 2 3\nf 2 3\n"
        path = tmp_path / "bad.obj"
        path.write_text(text)
        # a short record is reported before a malformed one
        with pytest.raises(IoError, match=r"bad\.obj:6: short 'f' record"):
            io.read_obj(path)
        path.write_text(text.replace("f 2 3\n", "f 2 3 4\n"))
        with pytest.raises(IoError, match=r"bad\.obj:2: malformed 'v' record"):
            io.read_obj(path)


class TestWriteObj:
    def assert_same_bytes(self, tmp_path, X, tris):
        io.write_obj(tmp_path / "block.obj", X, tris)
        write_obj_per_line(tmp_path / "line.obj", X, tris)
        assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "line.obj").read_bytes()

    def test_extreme_values(self, tmp_path):
        X = np.array([[-0.0, 1e-300, 1e300], [0.1, -1e-300, -1e300],
                      [np.pi, 5e-324, 1.7976931348623157e308]])
        self.assert_same_bytes(tmp_path, X, np.array([[0, 1, 2]]))
        assert (tmp_path / "block.obj").read_text().startswith("v -0 1e-300 ")

    def test_chunk_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "OBJ_CHUNK", 2)
        X = np.arange(15.0).reshape(5, 3) / 7.0
        self.assert_same_bytes(tmp_path, X, np.array([[0, 1, 2], [2, 3, 4]]))

    def test_surface_48_96(self, tmp_path):
        mesh = cs.build_disk_mesh(48, 96)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        X = np.column_stack([u, v, 2.0 + np.sin(3.0 * u) * v / 7.0])
        self.assert_same_bytes(tmp_path, X, mesh.triangles)

    def test_empty(self, tmp_path):
        self.assert_same_bytes(tmp_path, np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        assert (tmp_path / "block.obj").read_bytes() == b""


# (reader, file name, bytes, message) of a file each reader must refuse with
# IoError; bytes None makes the path a directory
UNREADABLE = [
    (io.read_json, "config.json", None, "config.json"),
    (io.read_json, "config.json", b'{"cone": {"beta": 1.0, "delta": "\xff"}}', "config.json"),
    (io.read_json, "config.json", b'{"cone": {"beta": 1.0', "config.json"),
    (io.read_json, "config.json", b'{"cone": {"beta": 1.0}, "cone": {"beta": 0.5}}',
     "duplicate key 'cone'"),
    (io.read_json, "config.json", b'{"mesh": {"n_r": 12, "n_theta": 24, "n_r": 16}}',
     "duplicate key 'n_r'"),
    (io.read_obj, "surface.obj", None, "surface.obj"),
    (io.read_obj, "surface.obj", b"v 0 0 1\n# \xff\nv 1 0 1\nv 0 1 1\nf 1 2 3\n",
     "surface.obj"),
]


class TestReadErrors:
    @pytest.mark.parametrize("reader,name,content,message", UNREADABLE,
                             ids=["json_dir", "json_not_utf8", "json_truncated",
                                  "json_duplicate_root_key", "json_duplicate_nested_key",
                                  "obj_dir", "obj_not_utf8"])
    def test_unreadable_file_is_typed(self, tmp_path, reader, name, content, message):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(IoError, match=message):
            reader(path)

"""Cloud file format tests: PLY, XYZN, and transform files."""

import numpy as np
import pytest

from p2plreg import fileio
from p2plreg.cloud import PointCloud
from p2plreg.fileio import ParseError, load_scores_csv
from p2plreg.geometry import RigidTransform, random_rotation


def _random_cloud(seed, n=40, with_normals=True):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3)) * 2.5
    if not with_normals:
        return PointCloud(pts)
    nrm = rng.standard_normal((n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


# A one-vertex PLY file, header and body.
PLY = [
    "ply", "format ascii 1.0", "element vertex 1",
    "property float x", "property float y", "property float z", "end_header", "1 2 3",
]


class TestPly:
    def test_save_load_save_byte_identical(self, tmp_path):
        cloud = _random_cloud(1)
        p1 = tmp_path / "a.ply"
        p2 = tmp_path / "b.ply"
        fileio.save(p1, cloud)
        fileio.save(p2, fileio.load(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_within_format_precision(self, tmp_path):
        cloud = _random_cloud(2)
        path = tmp_path / "c.ply"
        fileio.save(path, cloud)
        back = fileio.load(path)
        np.testing.assert_allclose(back.positions, cloud.positions, rtol=1e-8)
        np.testing.assert_allclose(back.normals, cloud.normals, atol=1e-8)

    def test_ply_without_normals(self, tmp_path):
        cloud = _random_cloud(3, with_normals=False)
        path = tmp_path / "nonorm.ply"
        fileio.save(path, cloud)
        back = fileio.load(path)
        assert back.normals is None
        np.testing.assert_allclose(back.positions, cloud.positions, rtol=1e-8)

    def test_vertex_count_mismatch_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(ParseError, match="declares 3"):
            fileio.load(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "bad2.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 zero 0\n"
        )
        with pytest.raises(ParseError) as err:
            fileio.load(path)
        assert err.value.line == 8

    def test_non_integer_element_count_reports_line(self, tmp_path):
        path = tmp_path / "bad3.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face abc\nend_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="face") as err:
            fileio.load(path)
        assert err.value.line == 7

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "notply.ply"
        path.write_text("plyx\n")
        with pytest.raises(ParseError):
            fileio.load(path)

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ParseError, match="ascii"):
            fileio.load(path)

    def test_comment_and_blank_header_lines_skipped(self, tmp_path):
        path = tmp_path / "comment.ply"
        path.write_text("\n".join(PLY[:2] + ["comment written by hand", ""] + PLY[2:]) + "\n")
        np.testing.assert_array_equal(fileio.load(path).positions, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("lines, message, line", [
        (PLY[:2] + ["element vertex"] + PLY[3:], "malformed element declaration", 3),
        (PLY[:6] + ["element face 2", "property list uchar int vertex_indices"] + PLY[6:],
         "unsupported non-empty element 'face'", 7),
        (PLY[:6] + ["property uchar red"] + PLY[6:], "unsupported vertex property", 7),
        (PLY[:6] + ["property float"] + PLY[6:], "unsupported vertex property", 7),
        (PLY[:2] + ["obj_info scanner"] + PLY[2:], "unexpected header token 'obj_info'", 3),
        (PLY[:6], "missing end_header", 6),
        (PLY[:2] + PLY[6:], "missing 'element vertex' declaration", 3),
        (PLY[:3] + ["property float y", "property float x"] + PLY[5:],
         "vertex properties must start with x y z", 7),
    ], ids=["malformed-element", "non-empty-face", "uchar-property", "short-property",
            "unknown-token", "no-end-header", "no-vertex-element", "y-before-x"])
    def test_bad_header_reports_line(self, tmp_path, lines, message, line):
        path = tmp_path / "bad_head.ply"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=message) as err:
            fileio.load(path)
        assert err.value.line == line


class TestXyzn:
    def test_round_trip_byte_identical(self, tmp_path):
        cloud = _random_cloud(4)
        p1 = tmp_path / "a.xyzn"
        p2 = tmp_path / "b.xyzn"
        fileio.save(p1, cloud)
        fileio.save(p2, fileio.load(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_width_reports_line(self, tmp_path):
        path = tmp_path / "bad.xyzn"
        path.write_text("0 0 0 0 0 1\n1 2 3\n")
        with pytest.raises(ParseError) as err:
            fileio.load(path)
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyzn"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="line 1: empty cloud file"):
            fileio.load(path)

    def test_xyzn_requires_normals_to_save(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.save(tmp_path / "x.xyzn", _random_cloud(5, with_normals=False))


class TestTransformFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        path = tmp_path / "gt.txt"
        fileio.save_transform(path, t)
        back = fileio.load_transform(path)
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)

    def test_layout_three_rows_of_four(self, tmp_path):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "gt.txt"
        fileio.save_transform(path, t)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3
        assert all(len(r.split()) == 4 for r in rows)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 0 0\n0 1 0 0\n0 0 1 0\n")
        with pytest.raises(ParseError):
            fileio.load_transform(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 0 0 0\n0 1 x 0\n0 0 1 0\n")
        with pytest.raises(ParseError) as err:
            fileio.load_transform(path)
        assert err.value.line == 2

    def test_non_finite_entry_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("nan 0 0 0\n0 1 0 0\n0 0 1 0\n")
        with pytest.raises(ValueError, match="finite"):
            fileio.load_transform(path)


def _one_value_per_call(rows, fmt):
    """Text of ``rows`` with each value formatted by its own ``%`` call."""
    return "\n".join(" ".join(fmt % v for v in row) for row in rows) + "\n"


# Values at the edges of %g: signed zero, the smallest subnormal, exponents
# far from zero, integers, and more digits than %.9g keeps.
STRESS_POSITIONS = np.array([
    [-0.0, 5e-324, 1e-300],
    [1e300, 3.0, -7.0],
    [123456789.123, -123456789.123, 0.1],
])
STRESS_NORMALS = np.array([[-0.0, 0.0, 1.0], [5e-324, -1.0, -0.0], [0.6, 0.0, -0.8]])


class TestWriterBytes:
    """Every writer formats a block of rows per ``%`` call; its bytes equal
    formatting each value on its own."""

    def _cloud(self, n, with_normals):
        rng = np.random.default_rng(n)
        pos = rng.standard_normal((n, 3)) * 2.5
        nrm = rng.standard_normal((n, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        k = min(n, len(STRESS_POSITIONS))
        pos[:k] = STRESS_POSITIONS[:k]
        nrm[:k] = STRESS_NORMALS[:k]
        return PointCloud(pos, nrm if with_normals else None)

    # (rows per block, rows): one row; exactly one block; one row past a
    # block; several blocks and a partial one; one row past the real block.
    @pytest.mark.parametrize("block, n", [
        (None, 1), (4, 4), (4, 5), (4, 11), (None, fileio._BLOCK_ROWS + 1),
    ])
    @pytest.mark.parametrize("suffix, with_normals", [
        (".ply", True), (".ply", False), (".xyzn", True),
    ], ids=["ply-normals", "ply", "xyzn"])
    def test_cloud(self, tmp_path, monkeypatch, block, n, suffix, with_normals):
        if block is not None:
            monkeypatch.setattr(fileio, "_BLOCK_ROWS", block)
        cloud = self._cloud(n, with_normals)
        data = np.hstack([cloud.positions, cloud.normals]) if with_normals else cloud.positions
        expect = _one_value_per_call(data, fileio.FLOAT_FMT)
        if suffix == ".ply":
            header = ["ply", "format ascii 1.0", f"element vertex {n}"]
            header += [f"property float {c}" for c in ("x", "y", "z")]
            if with_normals:
                header += [f"property float {c}" for c in ("nx", "ny", "nz")]
            expect = "\n".join(header + ["end_header"]) + "\n" + expect
        path = tmp_path / f"c{suffix}"
        fileio.save(path, cloud)
        assert path.read_bytes() == expect.encode()

    @pytest.mark.parametrize("rotation, translation", [
        (np.array([[1.0, -0.0, 0.0], [-0.0, -1.0, 0.0], [0.0, -0.0, -1.0]]),
         np.array([5e-324, 1e300, 123456789.123])),
        (random_rotation(np.random.default_rng(8)), np.array([-0.0, 1e-300, -7.0])),
    ], ids=["signed-zeros", "random"])
    def test_transform(self, tmp_path, rotation, translation):
        t = RigidTransform(rotation, translation)
        path = tmp_path / "gt.txt"
        fileio.save_transform(path, t)
        rows = np.hstack([t.rotation, t.translation.reshape(3, 1)])
        assert path.read_bytes() == _one_value_per_call(rows, fileio.EXACT_FMT).encode()


class TestErrorsNameTheFile:
    """Every ValueError from a reader puts the file's path first; a
    ParseError keeps its line after it."""

    def test_cloud(self, tmp_path):
        path = tmp_path / "source.ply"
        path.write_text("\n".join(PLY + ["0 zero 0"]) + "\n")
        with pytest.raises(ParseError) as err:
            fileio.load(path)
        assert str(err.value) == f"{path}: line 9: non-numeric value"
        assert (err.value.line, err.value.path) == (9, path)

    def test_weights(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1.0,1.0\n")
        with pytest.raises(ParseError) as err:
            fileio.load_weights(str(path))
        assert str(err.value) == f"{path}: line 1: expected 1 values per line, found 2"
        assert err.value.line == 1

    def test_transform(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n")
        with pytest.raises(ParseError) as err:
            fileio.load_transform(path)
        assert str(err.value) == f"{path}: line 3: expected 3 rows, found 2"

    # A value the file parses but its container rejects, and bytes that are
    # not UTF-8, are named too; each used to raise with no path.
    @pytest.mark.parametrize("name, data, read, message", [
        ("source.ply", "\n".join(PLY[:-1] + ["1 nan 3"]).encode(), fileio.load,
         "positions must be finite"),
        ("c.xyzn", b"0 0 0 0 0 2\n", fileio.load,
         "normals must be unit length (worst deviation 1.000e+00)"),
        ("gt.txt", b"1 0 0 inf\n0 1 0 0\n0 0 1 0\n", fileio.load_transform,
         "translation must be finite"),
        ("s.csv", b"1,\xff\xfe,2\n", load_scores_csv, "can't decode byte 0xff"),
    ], ids=["ply-nan", "xyzn-non-unit", "gt-inf", "scores-non-utf8"])
    def test_invalid_value(self, tmp_path, name, data, read, message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        fileio.load("/nonexistent/cloud.ply")


# The body reader has a one-pass fast path (_fast_rows) and a line-by-line
# loop (_checked_rows), the only path that raises ParseError. Where the fast
# path reads a file, the loop must read the same bits; where the loop
# rejects a file, the fast path must decline it.


def _fast_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fast path declined a well-formed file")

    monkeypatch.setattr(fileio, "_checked_rows", refuse)


def _loop_only(monkeypatch):
    monkeypatch.setattr(fileio, "_fast_rows", lambda lines, width, sep: None)


def _arrays(value):
    """The float arrays a reader returned, for bitwise comparison."""
    if isinstance(value, PointCloud):
        return [value.positions] + ([] if value.normals is None else [value.normals])
    if isinstance(value, RigidTransform):
        return [value.rotation, value.translation]
    return [value]


def _outcome(read, path):
    """("ok", array bytes and shapes) or (error type, message, line)."""
    try:
        value = read(path)
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    return "ok", [(a.shape, a.tobytes()) for a in _arrays(value)]


@pytest.fixture(scope="module")
def synth_pairs(tmp_path_factory):
    from p2plreg.cli import main

    out = tmp_path_factory.mktemp("synth") / "pairs"
    assert main(["synth", "--pairs", "8", "--seed", "7", "--out", str(out)]) == 0
    return out


def test_fast_path_reads_synth_files_as_the_loop_does(synth_pairs, monkeypatch):
    files = sorted(synth_pairs.rglob("*.ply")) + sorted(synth_pairs.rglob("gt.txt"))
    assert len(files) == 8 * 5

    def read(path):
        return fileio.load(path) if path.suffix == ".ply" else fileio.load_transform(path)

    with monkeypatch.context() as patch:
        _fast_only(patch)
        fast = [_outcome(read, path) for path in files]
    with monkeypatch.context() as patch:
        _loop_only(patch)
        loop = [_outcome(read, path) for path in files]
    assert all(kind == "ok" for kind, *_ in fast)
    assert fast == loop


def _ply_text(body):
    head = ["ply", "format ascii 1.0", f"element vertex {len(body)}"]
    head += [f"property float {c}" for c in ("x", "y", "z", "nx", "ny", "nz")]
    return head + ["end_header"] + body


def _rows(n, width, sep=" ", unit_rows=False):
    rng = np.random.default_rng(n * 10 + width)
    data = rng.standard_normal((n, width))
    if unit_rows:
        data[:, 3:] /= np.linalg.norm(data[:, 3:], axis=1, keepdims=True)
    return [sep.join(repr(float(v)) for v in row) for row in data]


# format -> (lines of a well-formed file, first body line index, the
# reader's value separator (None: whitespace), reader, file name)
_FORMATS = {
    "ply": (_ply_text(_rows(6, 6, unit_rows=True)), 10, None, fileio.load, "c.ply"),
    "xyzn": (_rows(6, 6, unit_rows=True), 0, None, fileio.load, "c.xyzn"),
    "gt": (["1 0 0 0.5", "0 1 0 -2", "0 0 1 3.25"], 0, None, fileio.load_transform, "gt.txt"),
    "scores": (_rows(5, 4, sep=","), 0, ",", load_scores_csv, "s.csv"),
    "weights": (_rows(6, 1, sep=","), 0, ",", fileio.load_weights, "w.csv"),
}


def _token(line, sep, k, token):
    values = line.split(sep)
    values[k] = token
    return sep.join(values)


# mutation -> function of (lines, first body index, separator written) ->
# lines; None marks the line-ending change, applied when the file is written.
_MUTATIONS = {
    "plain": lambda lines, b, sep: lines,
    "crlf": None,
    "blank_line": lambda lines, b, sep: lines[: b + 1] + [""] + lines[b + 1 :],
    "whitespace_line": lambda lines, b, sep: lines[: b + 2] + [" \t "] + lines[b + 2 :],
    "hash_token": lambda lines, b, sep: lines[: b + 1] + [lines[b + 1] + sep + "#"]
    + lines[b + 2 :],
    "hash_line": lambda lines, b, sep: lines[: b + 1] + ["# comment"] + lines[b + 1 :],
    "underscore": lambda lines, b, sep: lines[:b] + [_token(lines[b], sep, 0, "1_0")]
    + lines[b + 1 :],
    "nan": lambda lines, b, sep: lines[: b + 1] + [_token(lines[b + 1], sep, 0, "nan")]
    + lines[b + 2 :],
    "inf": lambda lines, b, sep: lines[: b + 1] + [_token(lines[b + 1], sep, 0, "-inf")]
    + lines[b + 2 :],
    "width_change": lambda lines, b, sep: lines[: b + 2] + [lines[b + 2] + sep + "1"]
    + lines[b + 3 :],
    "row_count": lambda lines, b, sep: lines[:-1],
    "every_row_wide": lambda lines, b, sep: lines[:b] + [line + sep + "1" for line in lines[b:]],
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_fast_path_and_loop_agree_on_token_corpus(fmt, mutation, tmp_path, monkeypatch):
    lines, body, sep, read, name = _FORMATS[fmt]
    edit = _MUTATIONS[mutation]
    path = tmp_path / name
    if edit is None:
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    else:
        path.write_text("\n".join(edit(lines, body, sep or " ")) + "\n", encoding="utf-8")
    both = _outcome(read, path)
    with monkeypatch.context() as patch:
        _loop_only(patch)
        loop = _outcome(read, path)
    assert both == loop
    # The fast path alone never accepts what the loop rejects, and reads
    # what it accepts to the same bits.
    text = path.read_text(encoding="utf-8").splitlines()[body:]
    width = len(lines[body].split(sep))
    fast = fileio._fast_rows(text, width, sep)
    try:
        slow = fileio._checked_rows(text, width, body + 1, sep)
    except ParseError:
        assert fast is None
    else:
        assert fast is None or (fast.shape, fast.tobytes()) == (slow.shape, slow.tobytes())

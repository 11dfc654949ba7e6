"""Cloud file format tests: PLY, XYZN, and transform files."""

import numpy as np
import pytest

from p2plreg import fileio
from p2plreg.cloud import PointCloud
from p2plreg.fileio import ParseError
from p2plreg.geometry import RigidTransform, random_rotation


def _random_cloud(seed, n=40, with_normals=True):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3)) * 2.5
    if not with_normals:
        return PointCloud(pts)
    nrm = rng.standard_normal((n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


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


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        fileio.load("/nonexistent/cloud.ply")

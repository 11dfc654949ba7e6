"""Point-cloud container checks."""

import numpy as np
import pytest

from p2plreg.cloud import PointCloud


class TestPointCloud:
    @pytest.mark.parametrize("positions", [np.zeros((4, 2)), np.zeros(3), np.zeros((2, 3, 1))])
    def test_rejects_bad_shape(self, positions):
        with pytest.raises(ValueError, match=r"positions must have shape \(N, 3\), got"):
            PointCloud(positions)

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError, match="point cloud must contain at least one point"):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_normals_of_wrong_length(self):
        with pytest.raises(ValueError, match="normals and positions must have matching length"):
            PointCloud(np.zeros((3, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_normals(self, value):
        # A NaN length passes the unit-length test, so it needs its own.
        normals = np.array([[value, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="normals must be finite"):
            PointCloud(np.zeros((2, 3)), normals)

    def test_non_unit_normals_report_worst_deviation(self):
        normals = np.tile([0.0, 0.0, 1.0], (3, 1))
        normals[1] *= 1.5
        normals[2] *= 0.9
        with pytest.raises(ValueError, match=r"unit length \(worst deviation 5\.000e-01\)"):
            PointCloud(np.zeros((3, 3)), normals)

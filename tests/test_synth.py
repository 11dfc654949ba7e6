"""Shape synthesis, pair protocol, and normal estimation tests."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from p2plreg.cloud import PointCloud
from p2plreg.geometry import apply_transform
from p2plreg.metrics import euler_zyx_angles
from p2plreg.synth import (
    InsufficientPoints,
    SynthConfig,
    estimate_normals,
    make_cpu_pair,
    synth_shape,
)


class TestShapes:
    def test_sphere_normals_radial(self):
        cloud = synth_shape("sphere", 200, seed=1)
        np.testing.assert_array_equal(cloud.normals, cloud.positions)
        np.testing.assert_allclose(np.linalg.norm(cloud.positions, axis=1), 1.0, atol=1e-12)

    def test_cube_normals_axis_aligned(self):
        cloud = synth_shape("cube", 300, seed=2)
        mags = np.abs(cloud.normals)
        assert np.all(np.sum(mags == 1.0, axis=1) == 1)
        assert np.all(np.sum(mags == 0.0, axis=1) == 2)

    def test_torus_normals_orthogonal_to_tangents(self):
        # Recover the angle parameters from positions, build analytic
        # tangents, check n . tangent == 0.
        cloud = synth_shape("torus", 500, seed=3)
        p = cloud.positions
        u = np.arctan2(p[:, 1], p[:, 0])
        ring = np.hypot(p[:, 0], p[:, 1])
        v = np.arctan2(p[:, 2] / 0.35, (ring - 1.0) / 0.35)
        du = np.stack([-np.sin(u) * ring, np.cos(u) * ring, np.zeros_like(u)], axis=1)
        dv = np.stack(
            [-0.35 * np.sin(v) * np.cos(u), -0.35 * np.sin(v) * np.sin(u), 0.35 * np.cos(v)],
            axis=1,
        )
        assert np.max(np.abs(np.einsum("ni,ni->n", cloud.normals, du))) <= 1e-9 * np.max(
            np.linalg.norm(du, axis=1)
        )
        assert np.max(np.abs(np.einsum("ni,ni->n", cloud.normals, dv))) <= 1e-9

    def test_blob_normals_match_fd_of_surface(self):
        # The normal must be orthogonal to numeric surface tangents obtained
        # by re-evaluating the same blob at perturbed directions.
        from p2plreg.seeding import derived_rng
        from p2plreg.synth import _blob

        rng = derived_rng(9, "shape", "blob")
        cloud = _blob(rng, 64)
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_shape("plane", 64, seed=0)

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            synth_shape("sphere", 4, seed=0)

    def test_deterministic(self):
        a = synth_shape("blob", 128, seed=7)
        b = synth_shape("blob", 128, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.normals, b.normals)


class TestMakeCpuPair:
    @pytest.mark.parametrize("trans_max", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_trans_max(self, trans_max):
        # Both used to pass the `< 0` check and overflow in draw_rigid.
        with pytest.raises(ValueError, match="trans_max must be finite"):
            SynthConfig(trans_max=trans_max)

    def test_config_rejects_negative_trans_max(self):
        with pytest.raises(ValueError, match="trans_max must be nonnegative"):
            SynthConfig(trans_max=-0.1)

    def test_rejects_empty_shapes(self):
        with pytest.raises(ValueError, match="shapes must be nonempty"):
            make_cpu_pair([], SynthConfig(n_sample=64, n_partial=64))

    @pytest.mark.parametrize("sizes, compose, message", [
        ([100, 300], 2, "shape 0 has 100 points, need at least 256"),
        ([300], 1, "composite has 300 points, unduplicated sampling needs 512"),
    ], ids=["per-shape", "composite"])
    def test_insufficient_points_named(self, sizes, compose, message):
        shapes = [synth_shape("blob", n, seed=11) for n in sizes]
        cfg = SynthConfig(seed=11, n_sample=256, n_partial=128, compose_count=compose)
        with pytest.raises(InsufficientPoints, match=message):
            make_cpu_pair(shapes, cfg)

    def test_unduplicated_sources_disjoint(self):
        shape = synth_shape("blob", 2048, seed=6)
        cfg = SynthConfig(seed=6, n_sample=512, n_partial=384)
        pair = make_cpu_pair([shape], cfg)
        moved = apply_transform(pair.gt, pair.source)
        d, _ = cKDTree(pair.target.positions).query(moved.positions, k=1)
        assert np.min(d) > 0.0

    def test_gt_within_bounds_100_seeds(self):
        shape = synth_shape("blob", 1024, seed=8)
        for seed in range(100):
            cfg = SynthConfig(seed=seed, n_sample=256, n_partial=192,
                              rot_max_deg=30.0, trans_max=0.4)
            pair = make_cpu_pair([shape], cfg)
            angles = euler_zyx_angles(pair.gt.rotation)
            assert np.all(angles >= -1e-9) and np.all(angles <= 30.0 + 1e-9)
            assert np.max(np.abs(pair.gt.translation)) <= 0.4

    def test_chamfer_floor_at_gt(self):
        # At the true transform the clean clouds interleave on the same
        # surface; chamfer must sit at the sampling floor measured by an
        # exhaustive nearest-neighbor scan.
        from p2plreg.metrics import chamfer

        shape = synth_shape("blob", 4096, seed=9)
        cfg = SynthConfig(seed=9, n_sample=512, n_partial=384)
        pair = make_cpu_pair([shape], cfg)
        cd = chamfer(pair.gt, pair)

        moved = apply_transform(pair.gt, pair.clean_source).positions
        tgt = pair.clean_target.positions
        d2 = np.sum((moved[:, None, :] - tgt[None, :, :]) ** 2, axis=2)
        floor = 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
        assert cd == pytest.approx(floor, rel=1e-12)
        # Sampling floor for 512 draws from this surface, measured by the
        # oracle above; far below any misalignment signal.
        assert cd <= 0.05

    def test_partial_keeps_subset(self):
        shape = synth_shape("blob", 1024, seed=10)
        cfg = SynthConfig(seed=10, n_sample=256, n_partial=128)
        pair = make_cpu_pair([shape], cfg)
        assert len(pair.source) == 128
        assert len(pair.clean_source) == 256
        clean_set = {tuple(p) for p in pair.clean_source.positions}
        assert all(tuple(p) in clean_set for p in pair.source.positions)

    def test_insufficient_points(self):
        shape = synth_shape("blob", 100, seed=11)
        cfg = SynthConfig(seed=11, n_sample=256, n_partial=128)
        with pytest.raises(InsufficientPoints):
            make_cpu_pair([shape], cfg)

    def test_bit_identical_given_config(self):
        shape = synth_shape("torus", 1024, seed=12)
        cfg = SynthConfig(seed=13, n_sample=256, n_partial=192)
        a = make_cpu_pair([shape], cfg)
        b = make_cpu_pair([shape], cfg)
        np.testing.assert_array_equal(a.source.positions, b.source.positions)
        np.testing.assert_array_equal(a.target.positions, b.target.positions)
        np.testing.assert_array_equal(a.gt.rotation, b.gt.rotation)


class TestEstimateNormals:
    def test_planar_cloud(self):
        rng = np.random.default_rng(14)
        pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), np.zeros(200)])
        cloud = estimate_normals(PointCloud(pts), k=8, seed=0)
        dots = np.abs(cloud.normals[:, 2])
        assert np.all(dots >= 1.0 - 1e-6)

    def test_dense_sphere_radial(self):
        base = synth_shape("sphere", 2000, seed=15)
        est = estimate_normals(PointCloud(base.positions), k=16, seed=1)
        radial = base.positions / np.linalg.norm(base.positions, axis=1, keepdims=True)
        dots = np.abs(np.einsum("ni,ni->n", est.normals, radial))
        assert np.mean(dots >= 0.99) >= 0.95

    def test_sign_is_only_randomness(self):
        base = synth_shape("blob", 400, seed=16)
        a = estimate_normals(PointCloud(base.positions), k=12, seed=100)
        b = estimate_normals(PointCloud(base.positions), k=12, seed=200)
        agree = np.einsum("ni,ni->n", a.normals, b.normals)
        np.testing.assert_allclose(np.abs(agree), 1.0, atol=1e-9)

    def test_unit_length(self):
        base = synth_shape("torus", 500, seed=17)
        est = estimate_normals(PointCloud(base.positions), k=10, seed=2)
        np.testing.assert_allclose(np.linalg.norm(est.normals, axis=1), 1.0, atol=1e-9)

    def test_degenerate_neighborhood_flagged(self):
        # Collinear points: covariance rank 1.
        line = np.linspace(0.0, 1.0, 50)[:, None] * np.array([1.0, 0.0, 0.0])
        cloud, flags = estimate_normals(PointCloud(line), k=5, seed=3, return_flags=True)
        assert flags.all()
        assert cloud.normals.shape == (50, 3)

    def test_degenerate_neighborhoods_logged(self, caplog):
        # Collinear points: every neighborhood is rank 1; one warning counts them.
        line = np.linspace(0.0, 1.0, 50)[:, None] * np.array([1.0, 0.0, 0.0])
        with caplog.at_level("WARNING", logger="p2plreg.synth"):
            estimate_normals(PointCloud(line), k=5, seed=3)
        assert [r.getMessage() for r in caplog.records] == [
            "estimate_normals: 50 degenerate neighborhoods"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="p2plreg.synth"):
            estimate_normals(PointCloud(synth_shape("sphere", 200, seed=5).positions), k=8, seed=3)
        assert caplog.records == []

    def test_returned_flags_are_left_to_the_caller(self, caplog):
        # The caller that takes the mask reports it, knowing the cloud's source.
        line = np.linspace(0.0, 1.0, 50)[:, None] * np.array([1.0, 0.0, 0.0])
        with caplog.at_level("WARNING", logger="p2plreg.synth"):
            _, flags = estimate_normals(PointCloud(line), k=5, seed=3, return_flags=True)
        assert flags.all()
        assert caplog.records == []

    def test_consistent_orientation_flag(self):
        base = synth_shape("sphere", 600, seed=18)
        est = estimate_normals(PointCloud(base.positions), k=12, seed=4, random_flip=False)
        outward = np.einsum("ni,ni->n", est.normals, base.positions)
        assert np.mean(outward > 0) >= 0.99

    def test_k_bounds(self):
        base = synth_shape("sphere", 50, seed=19)
        with pytest.raises(ValueError):
            estimate_normals(base, k=2, seed=0)
        with pytest.raises(ValueError):
            estimate_normals(base, k=50, seed=0)

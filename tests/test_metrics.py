"""Metric tests: Euler residuals, pooled statistics, chamfer distance."""

import math

import numpy as np
import pytest

from p2plreg.cloud import PointCloud, RegistrationPair
from p2plreg.geometry import (
    RigidTransform,
    euler_zyx_to_rotation,
    random_rotation,
    rodrigues,
)
from p2plreg.metrics import batch_stats, chamfer, euler_zyx_angles, rotation_errors
from p2plreg.synth import synth_shape


def _transform(rng):
    return RigidTransform(random_rotation(rng), rng.standard_normal(3))


class TestRotationErrors:
    def test_equal_transforms_zero(self):
        rng = np.random.default_rng(1)
        t = _transform(rng)
        err = rotation_errors(t, t)
        np.testing.assert_array_equal(err.per_axis_deg, np.zeros(3))
        assert err.geodesic_deg == 0.0

    def test_pure_yaw_composition(self):
        rng = np.random.default_rng(2)
        gt = RigidTransform(
            euler_zyx_to_rotation(0.4, 0.2, -0.3), np.zeros(3)
        )
        est = RigidTransform(
            rodrigues(np.array([0.0, 0.0, math.radians(5.0)])) @ gt.rotation, np.zeros(3)
        )
        err = rotation_errors(est, gt)
        assert err.per_axis_deg[2] == pytest.approx(5.0, abs=1e-9)
        np.testing.assert_allclose(err.per_axis_deg[:2], 0.0, atol=1e-9)

    def test_euler_extraction_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = rng.uniform(-80, 80, 3)
            r = euler_zyx_to_rotation(*np.radians(angles[::-1]))
            np.testing.assert_allclose(euler_zyx_angles(r), angles, atol=1e-9)

    def test_geodesic_matches_trace_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            est, gt = _transform(rng), _transform(rng)
            rel = est.rotation.T @ gt.rotation
            expect = math.degrees(math.acos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
            err = rotation_errors(est, gt)
            assert err.geodesic_deg == pytest.approx(expect, abs=1e-9)

    def test_geodesic_bi_invariant(self):
        rng = np.random.default_rng(5)
        est, gt = _transform(rng), _transform(rng)
        base = rotation_errors(est, gt).geodesic_deg
        for _ in range(20):
            q = random_rotation(rng)
            est_q = RigidTransform(q @ est.rotation @ q.T, est.translation)
            gt_q = RigidTransform(q @ gt.rotation @ q.T, gt.translation)
            assert rotation_errors(est_q, gt_q).geodesic_deg == pytest.approx(base, abs=1e-9)

    def test_gimbal_lock_flagged(self):
        r = euler_zyx_to_rotation(0.3, math.pi / 2, 0.1)
        err = rotation_errors(RigidTransform(r, np.zeros(3)), RigidTransform.identity())
        assert err.gimbal_lock


class TestBatchStats:
    def test_zero_residuals_perfect_r2(self):
        rng = np.random.default_rng(6)
        gt = rng.uniform(-30, 30, (10, 3))
        stats = batch_stats(np.zeros((10, 3)), gt)
        assert stats.mse == 0.0 and stats.rmse == 0.0 and stats.mae == 0.0
        assert stats.r2 == 1.0

    def test_zero_predictor_not_better_than_mean(self):
        rng = np.random.default_rng(7)
        gt = rng.uniform(-30, 30, (20, 3))
        stats = batch_stats(gt, gt)  # estimates identically zero
        assert stats.r2 is not None and stats.r2 <= 0.0

    def test_matches_textbook_formulas(self):
        rng = np.random.default_rng(8)
        res = rng.standard_normal((30, 3))
        gt = rng.uniform(-10, 10, (30, 3))
        stats = batch_stats(res, gt)
        flat = res.reshape(-1)
        assert stats.mse == pytest.approx(np.mean(flat**2), rel=1e-12)
        assert stats.rmse == pytest.approx(math.sqrt(np.mean(flat**2)), rel=1e-12)
        assert stats.mae == pytest.approx(np.mean(np.abs(flat)), rel=1e-12)
        ss_res = np.sum(flat**2)
        ss_tot = sum(np.sum((gt[:, j] - gt[:, j].mean()) ** 2) for j in range(3))
        assert stats.r2 == pytest.approx(1 - ss_res / ss_tot, rel=1e-12)
        # One component given as (C,) vectors is the (C, 1) case.
        assert batch_stats(res[:, 0], gt[:, 0]) == batch_stats(res[:, :1], gt[:, :1])

    def test_internal_consistency(self):
        rng = np.random.default_rng(9)
        stats = batch_stats(rng.standard_normal((15, 3)), rng.uniform(-5, 5, (15, 3)))
        assert stats.rmse**2 == pytest.approx(stats.mse, rel=1e-12)
        assert stats.mae <= stats.rmse + 1e-15

    def test_constant_target_undefined_r2(self):
        stats = batch_stats(np.ones((5, 3)), np.zeros((5, 3)))
        assert stats.r2 is None

    @pytest.mark.parametrize("gt_shape", [(10, 2), (10,), (9, 3)])
    def test_rejects_shape_mismatch(self, gt_shape):
        with pytest.raises(ValueError, match="residuals and ground-truth values must have equal"):
            batch_stats(np.zeros((10, 3)), np.zeros(gt_shape))

    def test_requires_two_cases(self):
        with pytest.raises(ValueError):
            batch_stats(np.zeros((1, 3)), np.zeros((1, 3)))


class TestChamfer:
    def test_single_points_distance_squared(self):
        pair = RegistrationPair(
            PointCloud(np.zeros((1, 3))), PointCloud(np.array([[0.0, 0.0, 2.0]]))
        )
        assert chamfer(RigidTransform.identity(), pair) == pytest.approx(4.0, abs=1e-15)

    def test_alignment_beats_identity(self):
        rng = np.random.default_rng(10)
        cloud = synth_shape("blob", 256, seed=10)
        from p2plreg.geometry import apply_transform
        from p2plreg.synth import draw_rigid

        gt = draw_rigid(rng, 30.0, 2.0)
        pair = RegistrationPair(cloud, apply_transform(gt, cloud), gt)
        assert chamfer(gt, pair) < chamfer(RigidTransform.identity(), pair)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        src = PointCloud(rng.standard_normal((40, 3)))
        tgt = PointCloud(rng.standard_normal((55, 3)))
        pair = RegistrationPair(src, tgt)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        moved = src.positions @ t.rotation.T + t.translation
        d2 = np.sum((moved[:, None, :] - tgt.positions[None, :, :]) ** 2, axis=2)
        expect = 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
        assert chamfer(t, pair) == pytest.approx(expect, rel=1e-12)

    def test_prefers_clean_clouds_when_present(self):
        rng = np.random.default_rng(12)
        full = PointCloud(rng.standard_normal((60, 3)))
        partial = PointCloud(full.positions[:20])
        pair_clean = RegistrationPair(partial, partial, None, full, full)
        pair_raw = RegistrationPair(partial, partial)
        assert chamfer(RigidTransform.identity(), pair_clean) == pytest.approx(0.0, abs=1e-15)
        assert chamfer(RigidTransform.identity(), pair_raw) == pytest.approx(0.0, abs=1e-15)
        # A transform separates the clean sets differently from the partial ones.
        t = RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0]))
        assert chamfer(t, pair_clean) != chamfer(t, pair_raw)

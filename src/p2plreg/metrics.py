"""Evaluation metrics over batches of estimated vs ground-truth transforms.

Rotation statistics use intrinsic Z-Y-X Euler residuals in degrees, with a
convention-free geodesic angle carried alongside as a cross-check. The
determination coefficient follows the predicted = truth - residual
convention, pooled across the three components of each quantity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .cloud import RegistrationPair
from .geometry import RigidTransform, apply_transform, rotation_angle

# |pitch| this close to 90 degrees marks the Euler extraction as unstable.
GIMBAL_TOL_DEG = 1e-6
# Spread below this leaves the determination coefficient undefined.
CONSTANT_TARGET_TOL = 1e-18


def euler_zyx_angles(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """Intrinsic Z-Y-X angles (roll_x, pitch_y, yaw_z) in degrees."""
    r = np.asarray(r, dtype=np.float64)
    pitch = math.asin(-min(1.0, max(-1.0, float(r[2, 0]))))
    roll = math.atan2(r[2, 1], r[2, 2])
    yaw = math.atan2(r[1, 0], r[0, 0])
    return np.degrees(np.array([roll, pitch, yaw]))


def geodesic_angle_deg(est_rot: NDArray[np.float64], gt_rot: NDArray[np.float64]) -> float:
    """Angle of est^T gt: Euler-convention-free rotation discrepancy."""
    return math.degrees(rotation_angle(np.asarray(est_rot).T @ np.asarray(gt_rot)))


@dataclass(frozen=True)
class RotationErrors:
    """Per-axis Euler residuals (degrees) plus the geodesic cross-check."""

    per_axis_deg: NDArray[np.float64]  # (3,) roll/pitch/yaw residuals
    geodesic_deg: float
    gimbal_lock: bool


def rotation_errors(est: RigidTransform, gt: RigidTransform) -> RotationErrors:
    e = euler_zyx_angles(est.rotation)
    g = euler_zyx_angles(gt.rotation)
    gimbal = bool(
        min(abs(abs(e[1]) - 90.0), abs(abs(g[1]) - 90.0)) <= GIMBAL_TOL_DEG
    )
    return RotationErrors(e - g, geodesic_angle_deg(est.rotation, gt.rotation), gimbal)


@dataclass(frozen=True)
class QuantityStats:
    """MSE/RMSE/MAE/R^2 pooled over all residual components."""

    mse: float
    rmse: float
    mae: float
    r2: float | None  # None when the ground truth has no spread


def batch_stats(residuals, gt_values) -> QuantityStats:
    """Statistics over (C, k) or (C,) residuals against ground-truth values
    of the same shape.

    R^2 compares predicted = truth - residual to the per-component truth
    means, with the component sums pooled into one coefficient.
    """
    res = np.asarray(residuals, dtype=np.float64)
    gt = np.asarray(gt_values, dtype=np.float64)
    if res.shape != gt.shape:
        raise ValueError("residuals and ground-truth values must have equal shapes")
    if res.shape[0] < 2:
        raise ValueError("at least 2 cases are required")
    mse = float(np.mean(res**2))
    mae = float(np.mean(np.abs(res)))
    ss_res = float(np.sum(res**2))
    ss_tot = float(np.sum((gt - gt.mean(axis=0)) ** 2))
    r2 = None if ss_tot < CONSTANT_TARGET_TOL else 1.0 - ss_res / ss_tot
    return QuantityStats(mse=mse, rmse=math.sqrt(mse), mae=mae, r2=r2)


def chamfer(est: RigidTransform, pair: RegistrationPair) -> float:
    """Symmetric mean of squared nearest-neighbor distances after alignment.

    Uses the pre-partial clouds when the pair retains them, so partiality
    does not dominate the measure.
    """
    src = pair.clean_source if pair.clean_source is not None else pair.source
    tgt = pair.clean_target if pair.clean_target is not None else pair.target
    moved = apply_transform(est, src).positions
    d_fwd, _ = cKDTree(tgt.positions).query(moved, k=1)
    d_bwd, _ = cKDTree(moved).query(tgt.positions, k=1)
    return 0.5 * (float(np.mean(d_fwd**2)) + float(np.mean(d_bwd**2)))


def summary(rot_residuals, gt_eulers, trans_residuals, gt_translations, chamfers) -> dict:
    """The ``summary.json`` record of a run: rotation (``_r``) and
    translation (``_t``) statistics of ``batch_stats``, the mean chamfer
    distance and the case count."""
    ch = np.asarray(chamfers, dtype=np.float64)
    out: dict = {"cases": int(ch.shape[0]), "chamfer_mean": float(ch.mean())}
    for suffix, res, gt in (
        ("r", rot_residuals, gt_eulers), ("t", trans_residuals, gt_translations)
    ):
        stats = asdict(batch_stats(res, gt))
        out.update({f"{name}_{suffix}": value for name, value in stats.items()})
    return out

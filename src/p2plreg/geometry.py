"""Rigid-motion primitives: rotations, composition, and cloud transforms.

Rotations are plain (3, 3) float64 arrays; a rigid transform is a frozen
dataclass pairing a rotation with a translation. The 12-vector flattening
(row-major rotation entries followed by the translation) is fixed
project-wide; every 12-dimensional Jacobian in the gradient module assumes
this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

Mat3 = NDArray[np.float64]
Vec3 = NDArray[np.float64]

# Below this angle rodrigues returns the identity; avoids 0/0 in a / theta.
SMALL_ANGLE = 1e-12


def _vec3(v, name: str = "vector") -> Vec3:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def skew(w) -> Mat3:
    """Cross-product matrix K with K @ v == np.cross(w, v)."""
    x, y, z = _vec3(w, "w")
    return np.array(
        [
            [0.0, -z, y],
            [z, 0.0, -x],
            [-y, x, 0.0],
        ]
    )


def rodrigues(axis_angle) -> Mat3:
    """Rotation matrix for the axis-angle vector theta * w.

    Exact formula I + sin(theta) K + (1 - cos(theta)) K^2 on the unit-axis
    cross matrix K. Angles below SMALL_ANGLE return the identity.
    """
    a = _vec3(axis_angle, "axis_angle")
    theta = float(np.linalg.norm(a))
    if theta < SMALL_ANGLE:
        return np.eye(3)
    k = skew(a / theta)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def rodrigues_batch(axis_angles: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vectorized rodrigues for (B, 3) input, returning (B, 3, 3)."""
    a = np.asarray(axis_angles, dtype=np.float64)
    theta = np.linalg.norm(a, axis=-1)
    safe = np.where(theta < SMALL_ANGLE, 1.0, theta)
    w = a / safe[..., None]
    b = a.shape[0]
    k = np.zeros((b, 3, 3))
    k[:, 0, 1] = -w[:, 2]
    k[:, 0, 2] = w[:, 1]
    k[:, 1, 0] = w[:, 2]
    k[:, 1, 2] = -w[:, 0]
    k[:, 2, 0] = -w[:, 1]
    k[:, 2, 1] = w[:, 0]
    sin_t = np.sin(theta)[:, None, None]
    cos_t = np.cos(theta)[:, None, None]
    out = np.eye(3)[None] + sin_t * k + (1.0 - cos_t) * (k @ k)
    out[theta < SMALL_ANGLE] = np.eye(3)
    return out


def log_rotation(r: Mat3) -> Vec3:
    """Axis-angle vector of a rotation matrix, with theta in [0, pi].

    Near theta == pi the off-diagonal extraction degenerates, so the axis is
    recovered from the largest diagonal entry of (R + I) / 2 instead.
    """
    r = np.asarray(r, dtype=np.float64)
    trace = float(np.trace(r))
    cos_theta = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    theta = math.acos(cos_theta)
    if theta < SMALL_ANGLE:
        return np.zeros(3)
    if math.pi - theta < 1e-6:
        # (R + I) / 2 = w w^T + cos-ish remainder; its largest diagonal
        # pins the dominant axis component away from cancellation.
        b = 0.5 * (r + np.eye(3))
        i = int(np.argmax(np.diag(b)))
        axis = np.empty(3)
        axis[i] = math.sqrt(max(b[i, i], 0.0))
        for j in range(3):
            if j != i:
                axis[j] = b[i, j] / axis[i]
        axis = axis / np.linalg.norm(axis)
        # Fix the sign using the skew part when it is not fully degenerate.
        sine_vec = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        if float(sine_vec @ axis) < 0.0:
            axis = -axis
        return theta * axis
    scale = theta / (2.0 * math.sin(theta))
    return scale * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation matrix plus translation vector, applied as R p + t."""

    rotation: Mat3 = field(default_factory=lambda: np.eye(3))
    translation: Vec3 = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = _vec3(self.translation, "translation")
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Transform equal to applying ``inner`` first, then ``outer``."""
    return RigidTransform(
        outer.rotation @ inner.rotation,
        outer.rotation @ inner.translation + outer.translation,
    )


def apply_transform(t: RigidTransform, cloud):
    """Map a cloud through a rigid transform.

    Positions map as R p + t; normals rotate only, which keeps them unit
    length and preserves every inner product n . (p - q).
    """
    from .cloud import PointCloud

    pos = cloud.positions @ t.rotation.T + t.translation
    nrm = None if cloud.normals is None else cloud.normals @ t.rotation.T
    return PointCloud(pos, nrm)


def to_gvector(t: RigidTransform) -> NDArray[np.float64]:
    """Flatten to the project-wide 12-vector: row-major R, then t."""
    return np.concatenate([t.rotation.reshape(9), t.translation])


def from_gvector(g) -> RigidTransform:
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    if g.shape != (12,):
        raise ValueError(f"transform vector must have length 12, got {g.shape}")
    return RigidTransform(g[:9].reshape(3, 3), g[9:])


def euler_zyx_to_rotation(yaw: float, pitch: float, roll: float) -> Mat3:
    """Intrinsic Z-Y-X rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll). Radians."""
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Uniform random rotation via the QR sign trick."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q

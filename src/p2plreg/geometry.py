"""Rigid-motion primitives: rotations, composition, and cloud transforms.

Rotations are plain (3, 3) float64 arrays; a rigid transform is a frozen
dataclass pairing a rotation with a translation. The exponential map from
axis-angle vectors to rotation matrices (``rodrigues_batch``) is closed
form, through the unit quaternion; the logarithm map (``log_rotation``)
comes from ``scipy.spatial.transform.Rotation``. The 12-vector flattening
(row-major rotation entries followed by the translation) is fixed
project-wide; every 12-dimensional Jacobian in the gradient module assumes
this ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.spatial.transform import Rotation

from .cloud import PointCloud, _read_only

Mat3 = NDArray[np.float64]
Vec3 = NDArray[np.float64]

# Below this angle rodrigues returns exactly the identity.
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

    The exponential map of ``rodrigues_batch``. Angles below SMALL_ANGLE
    return the identity.
    """
    return rodrigues_batch(_vec3(axis_angle, "axis_angle")[None])[0]


def _norm3(v0, v1, v2):
    """|v| of three entries, Python floats or (B,) rows, summed left to
    right as ``np.add.reduce`` sums three rows."""
    s = v0 * v0 + v1 * v1 + v2 * v2
    return math.sqrt(s) if isinstance(s, float) else np.sqrt(s)


def _exp_entries(a):
    """|a| and the nine row-major entries of exp([a]) from a's three entries.

    The entries are Python floats, for one rotation, or (B,) rows, for a
    batch, as the solver's 6x6 kernels take them. Entry (i, j) is
    (2 v_i) v_j plus cos(theta) on the diagonal and +-2 w v_k off it, for
    the unit quaternion (v, w) of ``rodrigues_batch``. Every step is one
    elementwise IEEE operation or a sqrt, sin or cos of one value, so a
    rotation is bitwise the same alone or in any batch, as long as math's
    sin and cos round as numpy's do (``tests/test_geometry.py`` checks it).
    """
    a0, a1, a2 = a
    theta = _norm3(a0, a1, a2)
    half = 0.5 * theta
    if isinstance(theta, float):
        k = math.sin(half) / theta if theta >= SMALL_ANGLE else 0.0
        c, cw = math.cos(theta), 2.0 * math.cos(half)
    else:
        k = np.divide(np.sin(half), theta, out=np.zeros_like(theta), where=theta >= SMALL_ANGLE)
        c, cw = np.cos(theta), 2.0 * np.cos(half)
    v0, v1, v2 = a0 * k, a1 * k, a2 * k
    d0, d1, d2 = v0 * cw, v1 * cw, v2 * cw
    t0, t1, t2 = v0 + v0, v1 + v1, v2 + v2
    return theta, (
        t0 * v0 + c, t0 * v1 - d2, t0 * v2 + d1,
        t1 * v0 + d2, t1 * v1 + c, t1 * v2 - d0,
        t2 * v0 - d1, t2 * v1 + d0, t2 * v2 + c,
    )


def rodrigues_batch(axis_angles: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vectorized rodrigues for (B, 3) input, returning (B, 3, 3).

    exp([a]) = cos(theta) I + 2 v v^T + 2 w [v] for the unit quaternion
    (v, w) = (sin(theta/2) a / theta, cos(theta/2)); it matches
    ``scipy.spatial.transform.Rotation.from_rotvec(a).as_matrix()``, which
    forms the same terms, within a few ulps at every angle. Below
    SMALL_ANGLE v is 0 and cos(theta) rounds to 1, which gives exactly the
    identity. The entries come from ``_exp_entries`` on one row per
    component across the batch, so no step mixes items.
    """
    at = np.asarray(axis_angles, dtype=np.float64).T
    _, entries = _exp_entries(tuple(at))
    return np.stack(entries, axis=-1).reshape(-1, 3, 3)


def log_rotation(r: Mat3) -> Vec3:
    """Axis-angle vector of a rotation matrix, with theta in [0, pi].

    The logarithm map from ``scipy.spatial.transform.Rotation``, which goes
    through a unit quaternion and so stays accurate up to theta == pi.
    """
    return Rotation.from_matrix(np.asarray(r, dtype=np.float64)).as_rotvec()


def rotation_angle(r: Mat3) -> float:
    """Rotation angle theta in [0, pi] of a rotation matrix, |log_rotation(r)|.

    atan2 of 2 sin(theta) = |vee(R - R^T)| and 2 cos(theta) = tr R - 1,
    accurate at every angle (arccos of the trace alone loses every digit
    below about 1e-8) and exactly 0 at the identity.
    """
    r = np.asarray(r, dtype=np.float64)
    sin2 = math.hypot(r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1])
    return math.atan2(sin2, r[0, 0] + r[1, 1] + r[2, 2] - 1.0)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation matrix plus translation vector, applied as R p + t.

    Both are held as read-only views, as ``PointCloud`` holds its arrays.
    """

    rotation: Mat3 = field(default_factory=lambda: np.eye(3))
    translation: Vec3 = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = _vec3(self.translation, "translation")
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("rotation must be finite")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", _read_only(r))
        object.__setattr__(self, "translation", _read_only(t))

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
    length and preserves every inner product n . (p - q). The returned
    cloud passes the ``PointCloud`` checks.
    """
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


def _coeff_rows(xt, nt, out) -> None:
    """Write the 12 coefficient rows of ``residual_coeffs`` pair-minor into
    the (12, N) out, from (3, N) rows xt of x and nt of n: row 3 a + b is
    n_a x_b, one product per entry, and rows 9-11 are n. Each product is
    of two (N,) rows; a broadcast one would make numpy buffer its inputs."""
    for a in range(3):
        for b in range(3):
            np.multiply(nt[a], xt[b], out=out[3 * a + b])
    out[9:] = nt


def residual_coeffs(x: NDArray[np.float64], n: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-pair 12-vectors d with d . g == (R x + t) . n for any g.

    d = (n_0 x, n_1 x, n_2 x, n); rows are the gradients of the plane
    residuals in transform coordinates. Returns a C-ordered (N, 12) array.
    """
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    d = np.empty((x.shape[0], 12))
    _coeff_rows(x.T, n.T, d.T)
    return d


# The (p, j, m) where the Levi-Civita eps[p, j, m] is nonzero, and whether
# it is -1 there.
_EPS_TERMS = ((0, 1, 2, False), (1, 2, 0, False), (2, 0, 1, False),
              (0, 2, 1, True), (1, 0, 2, True), (2, 1, 0, True))


def _step_picks():
    """Where each step_jacobian entry sits in (row-major R, t, -R, -t, 0, 1).

    Column j < 3 is e_j x v for v each column of R and for t, so row p of
    it is eps[p, j, m] v_m, a signed copy of v_m; column 3 + j is (0, e_j).
    """
    pick = np.full((12, 6), 24)
    for p, j, m, negative in _EPS_TERMS:
        neg = 12 * negative
        pick[[3 * p, 3 * p + 1, 3 * p + 2, 9 + p], j] = [
            neg + 3 * m, neg + 3 * m + 1, neg + 3 * m + 2, neg + 9 + m]
    pick[[9, 10, 11], [3, 4, 5]] = 25
    return pick


_STEP_PICK = _step_picks()
_ZERO_ONE = np.array([0.0, 1.0])


def _rotation_picks(base):
    """(rows, columns, e) of J's rows 0-8 that pick base + e, e < 9: R's
    copies at base 0 and its negations at base 12."""
    entry = _STEP_PICK[:9] - base
    rows, cols = np.nonzero((entry >= 0) & (entry < 9))
    return rows, cols, entry[rows, cols]


_COPY_PICKS, _NEGATE_PICKS = _rotation_picks(0), _rotation_picks(12)


def _fill_rotation(jac, rot) -> None:
    """Write R's signed entries of ``step_jacobian(rot, 0)`` into jac's
    leading (B, 12, 6), sign bits included; no other J entry depends on R."""
    flat = rot.reshape(-1, 9)
    rows, cols, entry = _COPY_PICKS
    jac[:, rows, cols] = flat[:, entry]
    rows, cols, entry = _NEGATE_PICKS
    jac[:, rows, cols] = np.negative(flat[:, entry])


def step_jacobian(rot, trans) -> NDArray[np.float64]:
    """(..., 12, 6) Jacobian of the 12-vector along the solver's step chart.

    The chart is R' = exp([a]) R, t' = exp([a]) (t - p) + p + delta, a step
    that rotates about the pivot p, with ``trans`` = t - p. At
    (a, delta) = 0 column j < 3 is the change ([e_j] R, e_j x trans) and
    column 3 + j is (0, e_j). The solver pivots about the moved source
    centroid t_c = t + R mu: the Jacobian is ``step_jacobian(R, 0)`` in its
    centred coordinates (R, t_c) and ``step_jacobian(R, -R mu)`` in (R, t).
    Takes (..., 3, 3) rotations and (..., 3) translations; the 27 nonzero
    entries are signed copies of R, ``trans`` and 1.
    """
    rot = np.asarray(rot, dtype=np.float64)
    lead = rot.shape[:-2]
    ext = np.empty(lead + (26,))
    ext[..., :9] = rot.reshape(lead + (9,))
    ext[..., 9:12] = trans
    np.negative(ext[..., :12], out=ext[..., 12:24])
    ext[..., 24:] = _ZERO_ONE
    return ext[..., _STEP_PICK]


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

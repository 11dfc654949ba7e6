"""Synthetic shapes, normal estimation, and the compose/partial/unduplicated
pair protocol.

Every random draw flows from ``SynthConfig.seed`` through named
``SeedSequence`` children, so the same config always produces bit-identical
pairs regardless of how many pairs are generated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from . import eig3
from .cloud import PointCloud, RegistrationPair
from .geometry import RigidTransform, apply_transform, euler_zyx_to_rotation
from .seeding import derived_rng

SHAPE_KINDS = ("cube", "sphere", "torus", "blob")


class InsufficientPoints(ValueError):
    """A shape has fewer points than the requested sample count."""


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the compose/partial/unduplicated pair protocol."""

    seed: int = 0
    n_sample: int = 1024
    n_partial: int = 768
    rot_max_deg: float = 45.0
    trans_max: float = 0.5
    compose_count: int = 3

    def __post_init__(self):
        if self.n_partial > self.n_sample:
            raise ValueError("n_partial must not exceed n_sample")
        if not 0.0 <= self.rot_max_deg <= 180.0:
            raise ValueError("rot_max_deg must be in [0, 180]")
        if self.trans_max < 0.0:
            raise ValueError("trans_max must be nonnegative")
        if not math.isfinite(self.trans_max):
            raise ValueError(f"trans_max must be finite, got {self.trans_max}")
        if self.compose_count < 1:
            raise ValueError("compose_count must be at least 1")


def _unit_sphere(rng: np.random.Generator, n: int) -> NDArray[np.float64]:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def synth_shape(kind: str, n: int, seed: int) -> PointCloud:
    """Sample ``n`` surface points with analytically correct unit normals."""
    if n < 8:
        raise ValueError("n must be at least 8")
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind '{kind}', expected one of {SHAPE_KINDS}")
    rng = derived_rng(seed, "shape", kind)
    if kind == "sphere":
        u = _unit_sphere(rng, n)
        return PointCloud(u, u.copy())
    if kind == "cube":
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        axis = face // 2
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        pos = np.empty((n, 3))
        nrm = np.zeros((n, 3))
        for a in range(3):
            m = axis == a
            others = [o for o in range(3) if o != a]
            pos[m, a] = sign[m]
            pos[m, others[0]] = uv[m, 0]
            pos[m, others[1]] = uv[m, 1]
            nrm[m, a] = sign[m]
        return PointCloud(pos, nrm)
    if kind == "torus":
        major, minor = 1.0, 0.35
        u = rng.uniform(0.0, 2.0 * math.pi, size=n)
        v = rng.uniform(0.0, 2.0 * math.pi, size=n)
        ring = major + minor * np.cos(v)
        pos = np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)
        nrm = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
        return PointCloud(pos, nrm)
    return _blob(rng, n)


def _blob(rng: np.random.Generator, n: int) -> PointCloud:
    """Star-convex bumpy sphere with normals from the implicit gradient.

    Radius field rho(u) = 1 + sum_k a_k exp(kappa_k (u . w_k - 1)) over a
    few random bumps; the surface is p = rho(u) u and the normal is the
    normalized gradient of F(p) = |p| - rho(p / |p|).
    """
    n_bumps = 6
    bump_dirs = _unit_sphere(rng, n_bumps)
    amps = rng.uniform(0.08, 0.25, size=n_bumps)
    sharps = rng.uniform(2.0, 6.0, size=n_bumps)

    u = _unit_sphere(rng, n)
    act = np.exp(sharps[None, :] * (u @ bump_dirs.T - 1.0))  # (n, n_bumps)
    rho = 1.0 + act @ amps
    pos = rho[:, None] * u

    grad_rho = (act * (amps * sharps)[None, :]) @ bump_dirs  # d rho / d u
    tangential = grad_rho - (np.sum(grad_rho * u, axis=1, keepdims=True)) * u
    nrm = u - tangential / rho[:, None]
    nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pos, nrm)


def draw_rigid(rng: np.random.Generator, rot_max_deg: float, trans_max: float) -> RigidTransform:
    """Per-axis rotations uniform in [0, rot_max_deg], translation uniform
    in [-trans_max, trans_max]^3."""
    angles = np.radians(rng.uniform(0.0, rot_max_deg, size=3))
    r = euler_zyx_to_rotation(angles[2], angles[1], angles[0])
    t = rng.uniform(-trans_max, trans_max, size=3)
    return RigidTransform(r, t)


def _partial_scan(cloud: PointCloud, n_partial: int, rng: np.random.Generator) -> PointCloud:
    """Keep the n_partial points nearest to a virtual sensor placed at twice
    the bounding radius in a random direction."""
    if n_partial == len(cloud):
        return cloud
    centroid = cloud.positions.mean(axis=0)
    radius = float(np.max(np.linalg.norm(cloud.positions - centroid, axis=1)))
    sensor = centroid + 2.0 * radius * _unit_sphere(rng, 1)[0]
    d = np.linalg.norm(cloud.positions - sensor, axis=1)
    keep = np.sort(np.argsort(d, kind="stable")[:n_partial])
    normals = None if cloud.normals is None else cloud.normals[keep]
    return PointCloud(cloud.positions[keep], normals)


def make_cpu_pair(shapes: list[PointCloud], cfg: SynthConfig) -> RegistrationPair:
    """Build a compose/partial/unduplicated registration pair.

    Steps: compose the shapes under independent random rigid transforms,
    draw the pair transform, sample ``n_sample`` source points and
    ``n_sample`` target points from the indices the source left unused, and
    partial-scan each side down to ``n_partial`` points. The ground truth
    and the pre-partial clouds are recorded on the returned pair.

    Unduplicated sampling puts no point of one set exactly on a point of the
    other after alignment, and needs a composite of 2 * n_sample points.
    """
    if not shapes:
        raise ValueError("shapes must be nonempty")
    for i, shape in enumerate(shapes):
        if len(shape) < cfg.n_sample:
            raise InsufficientPoints(
                f"shape {i} has {len(shape)} points, need at least {cfg.n_sample}"
            )
    total = sum(len(shapes[i % len(shapes)]) for i in range(cfg.compose_count))
    if total < 2 * cfg.n_sample:
        raise InsufficientPoints(
            f"composite has {total} points, unduplicated sampling needs {2 * cfg.n_sample}"
        )

    parts = []
    for i in range(cfg.compose_count):
        shape = shapes[i % len(shapes)]
        t = draw_rigid(derived_rng(cfg.seed, "compose", i), cfg.rot_max_deg, cfg.trans_max)
        parts.append(apply_transform(t, shape))
    x_all = PointCloud(
        np.vstack([p.positions for p in parts]),
        np.vstack([p.require_normals() for p in parts]),
    )

    gt = draw_rigid(derived_rng(cfg.seed, "pair"), cfg.rot_max_deg, cfg.trans_max)
    y_all = apply_transform(gt, x_all)

    src_rng = derived_rng(cfg.seed, "sample", 0)
    src_idx = src_rng.choice(len(x_all), size=cfg.n_sample, replace=False)
    remaining = np.setdiff1d(np.arange(len(x_all)), src_idx, assume_unique=False)
    tgt_rng = derived_rng(cfg.seed, "sample", 1)
    tgt_idx = tgt_rng.choice(remaining, size=cfg.n_sample, replace=False)
    clean_source = PointCloud(x_all.positions[src_idx], x_all.require_normals()[src_idx])
    clean_target = PointCloud(y_all.positions[tgt_idx], y_all.require_normals()[tgt_idx])

    source = _partial_scan(clean_source, cfg.n_partial, derived_rng(cfg.seed, "partial", 0))
    target = _partial_scan(clean_target, cfg.n_partial, derived_rng(cfg.seed, "partial", 1))
    return RegistrationPair(source, target, gt, clean_source, clean_target)


def estimate_normals(
    cloud: PointCloud,
    k: int,
    seed: int,
    *,
    random_flip: bool = True,
    return_flags: bool = False,
):
    """Per-point normals from the smallest eigenvector of the k-NN covariance.

    The neighborhood is the query point plus its k - 1 nearest neighbors.
    Signs are flipped by a seeded coin per point, deliberately reproducing
    the directional ambiguity of normals estimated from positions alone;
    ``random_flip=False`` orients them outward from the centroid instead.

    With ``return_flags=True`` also returns a boolean mask marking
    degenerate (rank < 2) neighborhoods, whose normals are still computed
    from the smallest eigenvector but should not be trusted.
    """
    n = len(cloud)
    if k < 3:
        raise ValueError("k must be at least 3")
    if k >= n:
        raise ValueError("k must be smaller than the cloud size")

    tree = cKDTree(cloud.positions)
    _, idx = tree.query(cloud.positions, k=k)
    hoods = cloud.positions[idx]  # (n, k, 3)
    centered = hoods - hoods.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k

    normals, lams = eig3.smallest_direction(cov)
    scale = np.maximum(lams[:, 0], 1e-300)
    degenerate = lams[:, 1] <= 1e-12 * scale

    if random_flip:
        signs = np.where(derived_rng(seed, "flip").random(n) < 0.5, -1.0, 1.0)
    else:
        outward = cloud.positions - cloud.positions.mean(axis=0)
        signs = np.where(np.sum(normals * outward, axis=1) < 0.0, -1.0, 1.0)
    normals = normals * signs[:, None]

    result = cloud.with_normals(normals)
    if return_flags:
        return result, degenerate
    return result

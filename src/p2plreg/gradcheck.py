"""Finite-difference oracle for the input-to-transform map.

The oracle re-runs the forward accumulation on centrally perturbed copies
of each input coordinate and differences the resulting transform vectors.
It shares the solver's batched kernel, so a perturbed solve follows
exactly the same arithmetic as the solve under test, while the derivative
estimate itself never touches the analytic backward formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet
from .gradient import GradientBundle, chain_blocks, chain_loss
from .seeding import derived_rng
from .solver import _accumulate_batch
from .synth import draw_rigid, synth_shape

INPUT_KINDS = ("x", "y", "n", "zeta")


@dataclass(frozen=True)
class FDConfig:
    """Central-difference settings for the oracle."""

    step: float = 1e-5
    scheme: str = "central"
    n_iters_forward: int = 10

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.scheme != "central":
            raise ValueError("only the central scheme is supported")


@dataclass(frozen=True)
class FDBlocks:
    """Finite-difference Jacobians for every per-pair input."""

    wrt_x: NDArray[np.float64]  # (N, 12, 3)
    wrt_y: NDArray[np.float64]  # (N, 12, 3)
    wrt_n: NDArray[np.float64]  # (N, 12, 3)
    wrt_zeta: NDArray[np.float64]  # (N, 12)


@dataclass
class GradErrorReport:
    """Error of analytic chained gradients against the oracle."""

    mse: float
    rel_mse: float
    per_input: dict = field(default_factory=dict)  # kind -> (mse, rel_mse)
    n_iters: int = 0


def _solve_batch_g(x, y, n, zeta, n_iters: int) -> NDArray[np.float64]:
    rot, trans, _, _, _ = _accumulate_batch(x, y, n, zeta, n_iters)
    b = rot.shape[0]
    return np.concatenate([rot.reshape(b, 9), trans], axis=1)


def _batch_arrays(corr: CorrespondenceSet, source: PointCloud, b: int):
    def rep(a):
        return np.repeat(a[None], b, axis=0)

    return (
        rep(source.positions),
        rep(corr.targets),
        rep(corr.normals),
        rep(corr.weights),
    )


def fd_jacobian(
    corr: CorrespondenceSet,
    source: PointCloud,
    which: str,
    index: int,
    cfg: FDConfig,
    *,
    project_normals: bool = False,
) -> NDArray[np.float64]:
    """Central differences of the solved transform for one pair's input.

    Returns a (12, 3) block, or (12, 1) for the scalar reliability weight.
    Perturbed normals are fed to the solver as raw coordinates, matching
    the unconstrained derivative; ``project_normals`` renormalizes them
    instead, for sensitivity studies only.
    """
    if which not in INPUT_KINDS:
        raise ValueError(f"which must be one of {INPUT_KINDS}")
    h = cfg.step
    width = 1 if which == "zeta" else 3
    x, y, n, zeta = _batch_arrays(corr, source, 2 * width)
    for c in range(width):
        if which == "x":
            x[2 * c, index, c] += h
            x[2 * c + 1, index, c] -= h
        elif which == "y":
            y[2 * c, index, c] += h
            y[2 * c + 1, index, c] -= h
        elif which == "n":
            n[2 * c, index, c] += h
            n[2 * c + 1, index, c] -= h
        else:
            zeta[2 * c, index] += h
            zeta[2 * c + 1, index] -= h
    if which == "n" and project_normals:
        n /= np.linalg.norm(n, axis=2, keepdims=True)
    g = _solve_batch_g(x, y, n, zeta, cfg.n_iters_forward)
    return (g[0::2] - g[1::2]).T / (2.0 * h)


def fd_bundle(
    corr: CorrespondenceSet,
    source: PointCloud,
    cfg: FDConfig,
    *,
    chunk_elems: int = 300_000,
) -> FDBlocks:
    """Oracle Jacobians for all pairs and all inputs at once.

    Needs 2 (9 N + N) perturbed solves; they run as one batched job,
    chunked so intermediate arrays stay within ``chunk_elems`` elements.
    """
    n_pairs = len(corr)
    h = cfg.step
    specs: list[tuple[str, int, int]] = []
    for kind in INPUT_KINDS:
        width = 1 if kind == "zeta" else 3
        for i in range(n_pairs):
            for c in range(width):
                specs.append((kind, i, c))

    total = 2 * len(specs)
    chunk = max(2, 2 * max(1, chunk_elems // (6 * max(n_pairs, 1))))
    g_all = np.empty((total, 12))
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        x, y, n, zeta = _batch_arrays(corr, source, stop - start)
        for row in range(start, stop):
            kind, i, c = specs[row // 2]
            sign = 1.0 if row % 2 == 0 else -1.0
            b = row - start
            if kind == "x":
                x[b, i, c] += sign * h
            elif kind == "y":
                y[b, i, c] += sign * h
            elif kind == "n":
                n[b, i, c] += sign * h
            else:
                zeta[b, i] += sign * h
        g_all[start:stop] = _solve_batch_g(x, y, n, zeta, cfg.n_iters_forward)

    diffs = (g_all[0::2] - g_all[1::2]) / (2.0 * h)  # (len(specs), 12)
    blocks = {
        "x": np.zeros((n_pairs, 12, 3)),
        "y": np.zeros((n_pairs, 12, 3)),
        "n": np.zeros((n_pairs, 12, 3)),
        "zeta": np.zeros((n_pairs, 12)),
    }
    for row, (kind, i, c) in enumerate(specs):
        if kind == "zeta":
            blocks[kind][i] = diffs[row]
        else:
            blocks[kind][i, :, c] = diffs[row]
    return FDBlocks(blocks["x"], blocks["y"], blocks["n"], blocks["zeta"])


def compare(
    analytic: GradientBundle,
    fd: FDBlocks,
    loss_direction,
    n_iters: int = 0,
) -> GradErrorReport:
    """Chained-gradient errors of the analytic bundle against the oracle.

    Errors are measured on per-point loss gradients, with the oracle's
    per-input mean square as the relative normalizer.
    """
    v = np.asarray(loss_direction, dtype=np.float64).reshape(12)
    a = chain_loss(v, analytic)
    f = chain_blocks(v, fd.wrt_x, fd.wrt_y, fd.wrt_n, fd.wrt_zeta)

    per_input: dict[str, tuple[float, float]] = {}
    sq_sum = 0.0
    ref_sum = 0.0
    count = 0
    for kind in INPUT_KINDS:
        ref_grad = getattr(f, f"wrt_{kind}")
        diff = getattr(a, f"wrt_{kind}") - ref_grad
        sq = float(np.sum(diff * diff))
        ref = float(np.sum(ref_grad * ref_grad))
        m = diff.size
        mse = sq / m
        if ref > 0.0:
            rel = sq / ref
        else:
            rel = 0.0 if sq == 0.0 else float("inf")
        per_input[kind] = (mse, rel)
        sq_sum += sq
        ref_sum += ref
        count += m
    rel_all = sq_sum / ref_sum if ref_sum > 0.0 else (0.0 if sq_sum == 0.0 else float("inf"))
    return GradErrorReport(mse=sq_sum / count, rel_mse=rel_all, per_input=per_input, n_iters=n_iters)


def make_instance(
    seed: int,
    n_pairs: int = 64,
    *,
    noise: float = 1e-3,
    rot_max_deg: float = 45.0,
    trans_max: float = 0.5,
    anisotropy: tuple[float, float, float] = (1.0, 1.0, 1.0),
    weighted: bool = True,
):
    """Seeded correspondence instance for gradient checks and benchmarks.

    A blob surface provides rich normals; the ground-truth transform moves
    it, targets and normals get small Gaussian noise, and reliabilities are
    drawn away from 1 so every input kind has a live gradient. Anisotropic
    axis scales squeeze the normal distribution to slow convergence down.

    Returns (corr, source, gt).
    """
    rng = derived_rng(seed, "instance")
    cloud = synth_shape("blob", n_pairs, seed)
    scale = np.asarray(anisotropy, dtype=np.float64)
    if np.any(scale != 1.0):
        pos = cloud.positions * scale
        nrm = cloud.require_normals() / scale
        nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(pos, nrm)

    gt = draw_rigid(rng, rot_max_deg, trans_max)
    y = cloud.positions @ gt.rotation.T + gt.translation
    n = cloud.require_normals() @ gt.rotation.T
    if noise > 0.0:
        y = y + noise * rng.standard_normal(y.shape)
        n = n + noise * rng.standard_normal(n.shape)
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
    zeta = rng.uniform(0.5, 1.5, size=n_pairs) if weighted else np.ones(n_pairs)
    corr = CorrespondenceSet(y, n, zeta)
    return corr, cloud, gt

"""Finite-difference oracle for the input-to-transform map.

The oracle re-runs the forward accumulation on centrally perturbed copies
of each input coordinate and differences the resulting transform vectors.
A copy differs from the problem in one pair, so its 12x12 moments are the
problem's moments with that pair's term swapped out and the perturbed term
swapped in, a rank-two update; the copies then run through the solver's
batched kernel, whose rounds never touch the points. No round depends on
the iteration count, so one pass to the largest count also yields the
differences at every smaller count, read as the kernel passes it
(``fd_bundle(..., also_at=...)``). The unperturbed problem rides in the
first batched job as one more item, so the same pass also yields the
forward transform at each of those counts (``FDBlocks.transforms``),
bitwise what ``register_p2pl`` returns. The derivative estimate itself
never touches the analytic backward formulas; only its record,
``gradient.PerInput``, is shared with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet
from .geometry import RigidTransform
from .gradient import GradientBundle, PerInput, chain_blocks
from .seeding import derived_rng
from .solver import _Moments, _accumulate_batch, _check_sizes, _moment_rows, _moments, _world
from .synth import draw_rigid, synth_shape

INPUT_KINDS = ("x", "y", "n", "zeta")
# Columns of each input kind in the oracle's (N, 10) input table.
_COLUMNS = (slice(0, 3), slice(3, 6), slice(6, 9), 9)
# Moment elements (perturbed copies x 144) per batched job of the oracle.
CHUNK_ELEMS = 300_000


@dataclass(frozen=True)
class FDConfig:
    """Central-difference settings for the oracle."""

    step: float = 1e-5
    n_iters_forward: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError("step must be finite and positive")
        if self.n_iters_forward < 1:
            raise ValueError("n_iters_forward must be at least 1")


@dataclass
class GradErrorReport:
    """Error of analytic chained gradients against the oracle."""

    mse: float
    rel_mse: float
    per_input: dict = field(default_factory=dict)  # kind -> (mse, rel_mse)
    n_iters: int = 0


def _perturbed_moments(moments, table, pairs, cols, h: float, with_base: bool = False):
    """``_Moments`` of the 2 len(pairs) centrally perturbed copies.

    ``moments`` is ``_moments`` of the unperturbed inputs, whose (N, 10)
    ``table`` holds x, y, n and zeta as its columns (``_COLUMNS``). Copy 2 r
    adds +h to column ``cols[r]`` of row ``pairs[r]``, copy 2 r + 1 adds -h.
    Each copy changes one pair, so its moments are the base ones with that
    pair's term swapped for the perturbed one, a rank-two update; all copies
    share the base centroid, broadcast, and have no rows. ``with_base``
    appends the base moments as one more item, after the copies.
    """
    mu, m, q0, base_rows = moments
    n_copies = 2 * len(pairs)
    pert = np.repeat(table[pairs], 2, axis=0)
    r = np.arange(len(pairs))[:, None]
    pert.reshape(len(pairs), 2, -1)[r, [0, 1], cols[:, None]] += [h, -h]
    rows = _moment_rows(*(pert[:, c] for c in _COLUMNS), mu)
    # The outer products below read each copy's 12 entries together.
    new_u, new_s = np.ascontiguousarray(rows[:12].T), rows[12]
    old_u = np.repeat(base_rows[:12, pairs].T, 2, axis=0)
    old_s = np.repeat(base_rows[12, pairs], 2)
    m_out = np.empty((n_copies + with_base, 12, 12))
    m_out[n_copies:] = m
    m_pert = m_out[:n_copies]
    np.multiply(new_u[:, :, None], new_u[:, None, :], out=m_pert)
    # The old term leaves column by column, so no second (B, 12, 12)
    # outer product is allocated; each entry is the same product.
    for j in range(12):
        m_pert[:, :, j] -= old_u * old_u[:, j, None]
    m_pert += m
    q_out = np.empty((n_copies + with_base, 12))
    q_out[n_copies:] = q0
    q_pert = q_out[:n_copies]
    np.multiply(new_s[:, None], new_u, out=q_pert)
    q_pert -= old_s[:, None] * old_u
    q_pert += q0
    return _Moments(np.broadcast_to(mu, (len(m_out), 3)), m_out, q_out, None)


@dataclass(frozen=True)
class FDBlocks(PerInput):
    """Oracle blocks at ``FDConfig.n_iters_forward``; ``also`` maps each
    ``also_at`` round count of ``fd_bundle`` to the blocks at that count.
    ``transforms`` maps each of those counts and ``n_iters_forward`` to the
    unperturbed forward transform, bitwise
    ``register_p2pl(corr, source, n_iters=count).transform``."""

    also: dict[int, PerInput] = field(default_factory=dict)
    transforms: dict[int, RigidTransform] = field(default_factory=dict)


def _blocks(diffs: NDArray[np.float64]) -> PerInput:
    """Rows (pair, column) -> blocks (pair, 12, column) of each input kind."""
    d = diffs.reshape(-1, 10, 12).transpose(0, 2, 1)
    return PerInput(*(np.ascontiguousarray(d[..., c]) for c in _COLUMNS))


def fd_bundle(
    corr: CorrespondenceSet, source: PointCloud, cfg: FDConfig, *, also_at=()
) -> FDBlocks:
    """Oracle (N, 12, 3) and (N, 12) Jacobians for all pairs and inputs at once.

    The inputs x, y, n and zeta are the columns of one (N, 10) table, and
    row 10 i + c perturbs its column c of pair i by +h and -h, h =
    ``cfg.step``. The moments are formed once; the
    2 (9 N + N) perturbed solves are rank-two updates of them and run as
    batched jobs of at most CHUNK_ELEMS moment elements. Each job runs its
    rounds once, to ``cfg.n_iters_forward``, and writes the differences at
    each count in ``also_at`` (at most that many rounds) as the kernel
    reaches it; those blocks, bitwise equal to a separate call at that count,
    are returned in the result's ``also``. The first job also carries the
    unperturbed moments as one more item, so the result's ``transforms``
    holds the forward transform at each of those counts; as the kernel
    solves each item as it would alone, each is bitwise the transform
    ``register_p2pl`` returns for that count.

    Perturbed normals are fed to the solver as raw coordinates, matching the
    unconstrained derivative. The derivative along the unit sphere is its
    tangent projection: ``fd_bundle(corr, source, cfg).wrt_n[i] @ (I - n_i n_i^T)``.
    """
    _check_sizes(corr, source)
    top = cfg.n_iters_forward
    bad = [c for c in also_at if not 1 <= c <= top]
    if bad:
        raise ValueError(f"also_at counts must be in [1, {top}], got {bad}")
    pairs = np.repeat(np.arange(len(corr)), 10)
    cols = np.tile(np.arange(10), len(corr))
    h = cfg.step
    arrays = (source.positions, corr.targets, corr.normals, corr.weights)
    table = np.column_stack(arrays)
    moments = _moments(*arrays)
    per_job = max(1, CHUNK_ELEMS // (2 * moments.m.size))
    diffs = {count: np.empty((len(pairs), 12)) for count in {top, *also_at}}
    transforms = {}
    for start in range(0, len(pairs), per_job):
        sl = slice(start, start + per_job)
        base = start == 0
        job = _perturbed_moments(moments, table, pairs[sl], cols[sl], h, with_base=base)
        n_copies = len(job.m) - base

        def write(k, rot, centre, delta):
            if k in diffs:
                world = _world(rot, centre, job.mu)
                g = np.concatenate([rot.reshape(-1, 9), world], axis=1)
                diffs[k][sl] = (g[0:n_copies:2] - g[1:n_copies:2]) / (2.0 * h)
                if base:
                    transforms[k] = RigidTransform(rot[-1].copy(), world[-1].copy())

        _accumulate_batch(job, top, emit=write)
    blocks = {count: _blocks(d) for count, d in diffs.items()}
    return FDBlocks(
        **vars(blocks[top]), also={c: blocks[c] for c in also_at}, transforms=transforms
    )


def _relative(sq: float, ref: float) -> float:
    """sq / ref, with 0 / 0 read as 0 and x / 0 as inf."""
    if ref > 0.0:
        return sq / ref
    return 0.0 if sq == 0.0 else float("inf")


def compare(
    analytic: GradientBundle,
    fd: PerInput,
    loss_direction,
    n_iters: int = 0,
) -> GradErrorReport:
    """Chained-gradient errors of the analytic bundle against the oracle.

    Errors are measured on per-point loss gradients, with the oracle's
    per-input mean square as the relative normalizer. Both sides chain their
    per-pair Jacobian blocks through the same contraction, so the analytic
    blocks of ``analytic.jacobians()`` are what is compared.
    """
    v = np.asarray(loss_direction, dtype=np.float64).reshape(12)
    a = chain_blocks(v, analytic.jacobians())
    f = chain_blocks(v, fd)

    per_input: dict[str, tuple[float, float]] = {}
    sq_sum = 0.0
    ref_sum = 0.0
    count = 0
    for kind in INPUT_KINDS:
        ref_grad = getattr(f, f"wrt_{kind}")
        diff = getattr(a, f"wrt_{kind}") - ref_grad
        sq = float(np.sum(diff * diff))
        ref = float(np.sum(ref_grad * ref_grad))
        per_input[kind] = (sq / diff.size, _relative(sq, ref))
        sq_sum += sq
        ref_sum += ref
        count += diff.size
    return GradErrorReport(sq_sum / count, _relative(sq_sum, ref_sum), per_input, n_iters)


def make_instance(seed: int, n_pairs: int = 64, *, noise: float = 1e-3):
    """Seeded correspondence instance for gradient checks and benchmarks.

    A blob surface provides rich normals; a ground-truth transform (per-axis
    rotations up to 45 deg, translation up to 0.5) moves it, targets and
    normals get Gaussian noise of scale ``noise``, and reliabilities are
    drawn last, uniform in [0.5, 1.5] and so away from 1, so every input kind
    has a live gradient.

    Returns (corr, source, gt). Raises ValueError unless ``noise`` is finite
    and non-negative.
    """
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    rng = derived_rng(seed, "instance")
    cloud = synth_shape("blob", n_pairs, seed)
    gt = draw_rigid(rng, 45.0, 0.5)
    y = cloud.positions @ gt.rotation.T + gt.translation
    n = cloud.require_normals() @ gt.rotation.T
    if noise > 0.0:
        y = y + noise * rng.standard_normal(y.shape)
        n = n + noise * rng.standard_normal(n.shape)
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
    corr = CorrespondenceSet(y, n, rng.uniform(0.5, 1.5, size=n_pairs))
    return corr, cloud, gt

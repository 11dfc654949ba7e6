"""Correspondence machinery: hard nearest neighbors, score-driven soft and
hard pointers, reliability weights, and keypoint selection.

Score matrices are the exchange format between external feature pipelines
and this kernel: any caller-supplied (N, M) array of pre-softmax assignment
scores works. Target normal directions are averaged as outer-product
tensors rather than vectors, so randomly flipped normal signs cannot cancel
each other out.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import eig3
from .cloud import UNIT_NORMAL_TOL, PointCloud, _read_only
from .geometry import RigidTransform, apply_transform

logger = logging.getLogger(__name__)

# Scores are clamped here before exponentiation to keep weights finite.
SCORE_CLAMP = 80.0
# Top-two eigenvalue gap below which a pointed direction is ill-defined.
DEGENERATE_TENSOR_GAP = 1e-9
# Exponents below this give subnormal floats. Such weights are flushed to
# exactly 0: they sit below the rounding of any sum they enter, and
# subnormal operands make the BLAS products ~5x slower.
LOG_TINY = math.log(np.finfo(np.float64).tiny)
# The score passes run over row blocks of about this many doubles (256 KiB)
# and at least one row, so each block's passes run while it sits in the L2
# cache and no (N, M) temporary is formed.
_BLOCK_ELEMS = 1 << 15
# soft_pointers averages 3 position columns and the 6 unique entries
# n_a n_b of each normal tensor; _TENSOR_COLS maps all 9 entries (a, b) to
# their column.
_TENSOR_A = np.array([0, 1, 2, 0, 0, 1])
_TENSOR_B = np.array([0, 1, 2, 1, 2, 2])
_TENSOR_COLS = 3 + np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


@dataclass(frozen=True)
class CorrespondenceSet:
    """Per-source-point target position, target normal, and reliability.

    The three validated arrays are held as read-only views. ``degenerate``
    optionally marks indices whose pointed direction came from a
    (numerically) repeated top eigenvalue.
    """

    targets: NDArray[np.float64]  # (N, 3) pointed positions
    normals: NDArray[np.float64]  # (N, 3) pointed unit normals
    weights: NDArray[np.float64]  # (N,) nonnegative reliabilities
    degenerate: NDArray[np.bool_] | None = None

    def __post_init__(self):
        y = np.ascontiguousarray(self.targets, dtype=np.float64)
        n = np.ascontiguousarray(self.normals, dtype=np.float64)
        z = np.ascontiguousarray(self.weights, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != 3 or n.shape != y.shape or z.shape != (y.shape[0],):
            raise ValueError("inconsistent correspondence array shapes")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(n))):
            raise ValueError("correspondence arrays must be finite")
        if np.any(np.abs(np.linalg.norm(n, axis=1) - 1.0) > UNIT_NORMAL_TOL):
            raise ValueError("pointed normals must be unit length")
        _check_weights(z)
        object.__setattr__(self, "targets", _read_only(y))
        object.__setattr__(self, "normals", _read_only(n))
        object.__setattr__(self, "weights", _read_only(z))

    @classmethod
    def _derived(cls, targets, normals, weights) -> "CorrespondenceSet":
        """A set of arrays derived from validated ones, built without the
        checks: the caller vouches for contiguous float64 arrays of matching
        shapes, finite rows and unit normals (rows of a validated cloud,
        say) and weights that pass ``_check_weights``."""
        corr = object.__new__(cls)
        object.__setattr__(corr, "targets", _read_only(targets))
        object.__setattr__(corr, "normals", _read_only(normals))
        object.__setattr__(corr, "weights", _read_only(weights))
        object.__setattr__(corr, "degenerate", None)
        return corr

    def __len__(self) -> int:
        return int(self.targets.shape[0])


def _check_weights(z: NDArray[np.float64]) -> None:
    """Raise ValueError unless the reliabilities z are finite, nonnegative
    and not all zero."""
    if not np.all(np.isfinite(z)):
        raise ValueError("correspondence arrays must be finite")
    if np.any(z < 0.0):
        raise ValueError("reliability weights must be nonnegative")
    if not np.any(z > 0.0):
        raise ValueError("at least one reliability weight must be positive")


def nn_correspond(source: PointCloud, target: PointCloud) -> CorrespondenceSet:
    """Euclidean nearest-neighbor correspondences with unit reliabilities.

    Exact ties resolve to the lowest target index.
    """
    return _nn_matcher(target)(source.positions)


def _nn_matcher(target: PointCloud):
    """``nn_correspond`` against one kd-tree of ``target``, built here.

    Returns match(points, weights=None), the correspondences of the (N, 3)
    points with unit reliabilities or the given (N,) weights, so a caller
    that re-matches moved points (ICP) builds the tree once. The sets hold
    rows of the validated target and are built unchecked, so given weights
    must be contiguous float64 that pass ``_check_weights``.
    """
    normals = target.require_normals()
    m = len(target)
    tree = cKDTree(target.positions)

    def match(points, weights=None) -> CorrespondenceSet:
        d, nbr = tree.query(points, k=2)
        idx = nbr[:, 0].copy()
        # Rows whose two nearest distances tie are queried again with a
        # doubling k until the last neighbor returned is strictly farther,
        # so every target at the nearest distance has been seen. With one
        # target the second distance is infinite, so no row ties.
        rows = np.flatnonzero(d[:, 0] == d[:, 1])
        k = 2
        while rows.size:
            k = min(2 * k, m)
            d, nbr = tree.query(points[rows], k=k)
            tied = d == d[:, :1]
            idx[rows] = np.where(tied, nbr, m).min(axis=1)
            rows = rows[tied[:, -1]] if k < m else rows[:0]
        if weights is None:
            weights = np.ones(len(points))
        return CorrespondenceSet._derived(target.positions[idx], normals[idx], weights)

    return match


def exact_correspond(source: PointCloud, gt: RigidTransform, weights=None) -> CorrespondenceSet:
    """Noise-free correspondences obtained by pushing the source through a
    known transform. Test and benchmark fixture helper."""
    moved = apply_transform(gt, source)
    w = np.ones(len(source)) if weights is None else np.asarray(weights, dtype=np.float64)
    return CorrespondenceSet(moved.positions, moved.require_normals(), w)


def match_matrix(
    source: PointCloud,
    target: PointCloud,
    t: RigidTransform,
    alpha: float,
    beta: float,
) -> NDArray[np.float64]:
    """Pre-softmax assignment scores u_ij = -beta |R x_i + t - y_j|^2 + alpha.

    Row softmax of the result gives the normalized soft-assignment weights;
    beta controls hardness and alpha shifts rows without changing them.
    Raises ValueError unless beta is finite and positive and alpha finite.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    # cdist forms the squared distances coordinate by coordinate, which
    # keeps the exact zero at coincident points that the
    # |a|^2 + |b|^2 - 2ab GEMM expansion loses. cdist sums columns left to
    # right, so the order (0, 2, 1) adds (x^2 + z^2) + y^2, the order numpy's
    # einsum uses for the broadcast (N, M, 3) formula; the two agree bitwise.
    cols = [0, 2, 1]
    a = (source.positions @ t.rotation.T + t.translation)[:, cols]
    b = target.positions[:, cols]
    u = np.empty((len(a), len(b)))
    for rows, _ in _blocks(u):
        block = u[rows]
        cdist(a[rows], b, "sqeuclidean", out=block)
        block *= -beta
        block += alpha
    return u


def _row_blocks(u: np.ndarray) -> list[slice]:
    """Slices of u's rows, each block of about _BLOCK_ELEMS entries and at
    least one row."""
    n = len(u)
    # _BLOCK_ELEMS // (entries per row), without dividing by zero.
    step = max(1, _BLOCK_ELEMS * n // max(u.size, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _blocks(u: np.ndarray, *dtypes):
    """Walk u's row blocks: yield each block's slice and a list of one
    uninitialized scratch view per dtype, shaped like the block. The scratch
    arrays are sized for the first (largest) block and reused by the rest."""
    blocks = _row_blocks(u)
    shape = (blocks[0].stop if blocks else 0, *u.shape[1:])
    scratch = [np.empty(shape, dtype) for dtype in dtypes]
    for rows in blocks:
        yield rows, [s[: rows.stop - rows.start] for s in scratch]


def _masked_exp(x: NDArray[np.float64], keep: NDArray[np.bool_]) -> None:
    """In place: x = exp(x) where keep, else 0.

    Entries outside keep are set to 0 before np.exp, which is ~10x slower
    on inputs below about -708; the clamp first keeps -inf entries from
    turning into NaN.
    """
    np.maximum(x, LOG_TINY, out=x)
    x *= keep
    np.exp(x, out=x)
    x *= keep


def _softmax_rows(
    u: NDArray[np.float64], c: NDArray[np.float64], keep: NDArray[np.bool_]
) -> None:
    """Write ``row_softmax(u)`` into c, using keep, a bool array of u's
    shape, as scratch."""
    np.subtract(u, u.max(axis=1, keepdims=True), out=c)
    np.greater_equal(c, LOG_TINY, out=keep)
    _masked_exp(c, keep)
    c /= c.sum(axis=1, keepdims=True)
    # Division by row sums in [1, M] can still push entries below tiny.
    np.greater_equal(c, np.finfo(np.float64).tiny, out=keep)
    c *= keep


def row_softmax(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise softmax whose entries are each exactly 0 or >= finfo.tiny.

    Entries the plain formula would make subnormal are flushed to 0; every
    other entry equals the plain formula's.
    """
    u = np.asarray(u, dtype=np.float64)
    c = np.empty(u.shape)
    for rows, (keep,) in _blocks(u, bool):
        _softmax_rows(u[rows], c[rows], keep)
    return c


def soft_pointers(scores: NDArray[np.float64], target: PointCloud) -> CorrespondenceSet:
    """Score-weighted pointers: positions as softmax averages, directions as
    the principal axis of softmax-averaged normal tensors.

    Indices whose top two tensor eigenvalues coincide within
    DEGENERATE_TENSOR_GAP are flagged in ``degenerate``; a deterministic
    eigenvector is still returned for them. The scores are read in row
    blocks, and no (N, M) array is formed.
    """
    u = np.asarray(scores, dtype=np.float64)
    normals = target.require_normals()
    if u.ndim != 2 or u.shape[1] != len(target):
        raise ValueError("score matrix columns must match the target size")

    # One GEMM per row block gives the averaged positions and the 6 unique
    # entries of each averaged normal tensor.
    cols = np.empty((len(target), 9))
    cols[:, :3] = target.positions
    cols[:, 3:] = normals[:, _TENSOR_A] * normals[:, _TENSOR_B]
    avg = np.empty((u.shape[0], 9))
    for rows, (c, keep) in _blocks(u, np.float64, bool):
        if not np.isfinite(u[rows], out=keep).all():
            raise ValueError("score matrix must be finite")
        _softmax_rows(u[rows], c, keep)
        np.matmul(c, cols, out=avg[rows])
    y = avg[:, :3]
    tensors = avg[:, _TENSOR_COLS]
    n, _, gap = eig3.principal_direction(tensors)
    degenerate = gap <= DEGENERATE_TENSOR_GAP
    if np.any(degenerate):
        logger.warning("soft_pointers: %d degenerate normal tensors", int(degenerate.sum()))
    return CorrespondenceSet(y, n, np.ones(u.shape[0]), degenerate=degenerate)


def naive_vector_pointers(scores: NDArray[np.float64], target: PointCloud):
    """Softmax average of normal *vectors*; the sign-fragile baseline.

    Returns the unnormalized averages so callers can observe how short the
    resultants become under antipodal normals.
    """
    c = row_softmax(np.asarray(scores, dtype=np.float64))
    return c @ target.require_normals()


def gumbel_hard_weights(scores: NDArray[np.float64], seed: int) -> NDArray[np.float64]:
    """One-hot rows at argmax_j (u_ij + q_ij) with standard Gumbel noise q.

    A temperature would only rescale the softmax inside the argmax, so the
    hard sample takes none.
    """
    u = np.asarray(scores, dtype=np.float64)
    # Clamp away from 0 and 1 so the double log stays finite.
    draw = np.clip(np.random.default_rng(seed).random(u.shape), 1e-12, 1.0 - 1e-12)
    q = -np.log(-np.log(draw))
    pick = np.argmax(u + q, axis=1)
    out = np.zeros_like(u)
    out[np.arange(u.shape[0]), pick] = 1.0
    return out


def reliability_weights(scores: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row sums of exponentiated scores, clamped at SCORE_CLAMP.

    Terms that would be subnormal are flushed to 0. Rows that underflow to
    zero are kept (and logged); downstream weighted solves treat them as
    zero-confidence pairs. A NaN score raises ``ValueError``: it survives the
    masked exp into its row sum, so the check reads the (N,) sums. The
    scores are read in row blocks, and no (N, M) array is formed.
    """
    u = np.asarray(scores, dtype=np.float64)
    zeta = np.empty(u.shape[0])
    for rows, (e, keep) in _blocks(u, np.float64, bool):
        np.greater_equal(u[rows], LOG_TINY, out=keep)
        np.minimum(u[rows], SCORE_CLAMP, out=e)
        _masked_exp(e, keep)
        e.sum(axis=1, out=zeta[rows])
    if np.isnan(zeta).any():
        raise ValueError("score matrix must not contain NaN")
    dead = zeta == 0.0
    if np.any(dead):
        logger.warning("reliability_weights: %d rows underflowed to zero", int(dead.sum()))
    return zeta


def topk_keypoints(feature_norms, k: int, *, order: str = "asc") -> NDArray[np.intp]:
    """Indices of the k smallest (``asc``) or largest (``desc``) saliencies.

    Stable: equal values keep their original relative order.
    """
    norms = np.asarray(feature_norms, dtype=np.float64).reshape(-1)
    if not 0 <= k <= norms.shape[0]:
        raise ValueError("k must lie between 0 and the number of features")
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc'")
    key = norms if order == "asc" else -norms
    return np.argsort(key, kind="stable")[:k]


"""Forward registration solvers.

The point-to-plane path linearizes a rotation about the moved source
centroid, solves a 6x6 normal system for an axis-angle/translation step,
re-maps the step through the exact rotation formula, and accumulates steps
into the running transform. Rotating about the centroid, not the world
origin, keeps the system's rotation columns from lining up with its
translation columns however far the scene sits from the origin.
Correspondences stay fixed for the whole accumulation; the classic ICP
wrapper re-derives them between accumulations.

The plane residuals are linear in the 12 transform entries, so one pass
over the points forms their 12x12 moments (``_moments``) and every round
after that builds its 6x6 system from the moments alone
(``_system_from_moments``) before one damped 6x6 solve (``_solve_batch``):
a round costs O(1) in the number of pairs. The kernel is batched over
independent problems; the finite-difference oracle feeds it B perturbed
copies whose moments are rank-two updates of the base ones.

The 6x6 solve is one Cholesky factor written out entry by entry
(``_cholesky6``), the pivot rule on its squared pivots (``_pivot_rule``),
then forward and back substitution (``_substitute6``). At B = 1 the
entries are Python floats; at B > 1 each is a (B,) vector, so a batch
costs about 170 vector operations whatever B is, and no LAPACK call is
made per system. Every operation is elementwise IEEE arithmetic, so a
system's solution does not depend on the batch it is solved in. The
backward checks its chart Hessian with the same factor and rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet, _nn_matcher
from .geometry import (
    RigidTransform,
    apply_transform,
    compose,
    residual_coeffs,
    rodrigues_batch,
    rotation_angle,
    step_jacobian,
)

# Accumulation steps below this magnitude count as converged.
STEP_TOL = 1e-10
# A pivot this far below the largest one marks the system as singular.
PIVOT_RATIO = 1e-14
# Condition estimate beyond this sets the report's warning flag.
CONDITION_LIMIT = 1e12

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


class SingularSystem(np.linalg.LinAlgError):
    """The 6x6 normal system is rank deficient (degenerate geometry)."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class DegenerateConfiguration(ValueError):
    """Procrustes cross-covariance has rank < 2 (collinear points)."""


@dataclass
class SolveReport:
    """Outcome of an accumulation run (or an ICP outer loop)."""

    transform: RigidTransform
    energy_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    condition_warning: bool = False
    # ICP's matches at the returned transform; None from register_p2pl.
    correspondences: CorrespondenceSet | None = None


def _check_sizes(corr: CorrespondenceSet, source: PointCloud) -> None:
    if len(corr) != len(source):
        raise ValueError(
            f"correspondence count {len(corr)} does not match source size {len(source)}"
        )


def _plane_offsets(
    corr: CorrespondenceSet, source: PointCloud, t: RigidTransform
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(N, 3) offsets w_i = R x_i + t - y_i and (N,) plane residuals w_i . n_i."""
    offsets = source.positions @ t.rotation.T + t.translation - corr.targets
    return offsets, np.einsum("ni,ni->n", offsets, corr.normals)


def energy(corr: CorrespondenceSet, source: PointCloud, t: RigidTransform) -> float:
    """Weighted point-to-plane energy sum zeta_i ((R x_i + t - y_i) . n_i)^2."""
    _check_sizes(corr, source)
    _, res = _plane_offsets(corr, source, t)
    return float(np.sum(corr.weights * res * res))


def _moments(x, y, n, zeta):
    """Moments of the plane residuals of (N, 3) inputs and (N,) weights.

    The residuals are linear in the transform vector g = (row-major R, t_c)
    of the source centered at its weighted centroid mu: r_i = d_i . (g - g0)
    + r0_i, with d_i = ``residual_coeffs(x_i - mu, n_i)``, g0 = (I, mu) the
    identity and r0_i = (x_i - y_i) . n_i taken in point form, so an aligned
    problem has exact zero residuals. Returns (mu, u, s, m, q0) with the
    weighted rows u_i = sqrt(zeta_i) d_i (the coefficients of the weighted
    normal, as d is linear in n) and s_i = sqrt(zeta_i) r0_i, the 12x12
    m = u^T u = sum zeta_i d_i d_i^T, a Gram product and so symmetric
    bitwise, and q0 = u^T s = sum zeta_i r0_i d_i.
    """
    mu = (zeta @ x) / zeta.sum()
    u, s = _moment_rows(x, y, n, zeta, mu)
    return mu, u, s, u.T @ u, s @ u


def _moment_rows(x, y, n, zeta, mu):
    """Weighted rows (u, s) of ``_moments`` for pairs centered at mu.

    u_i = ``residual_coeffs(x_i - mu, sqrt(zeta_i) n_i)`` and
    s_i = sqrt(zeta_i) (x_i - y_i) . n_i.
    """
    root = np.sqrt(zeta)
    u = residual_coeffs(x - mu, root[:, None] * n)
    s = root * np.einsum("ni,ni->n", x - y, n)
    return u, s


def _deflated(rot, centre, mu, out):
    """Write g - g0 of (rot, centre) into the (B, 12) out: R - I, then
    t_c - mu."""
    np.subtract(rot.reshape(-1, 9), _EYE3.reshape(9), out=out[:, :9])
    np.subtract(centre, mu, out=out[:, 9:])


def _system_from_moments(m, q0, mu, rot, centre):
    """6x6 systems (B, 6, 6), (B, 6) of the linearized step at (rot, centre).

    The state is R and the moved centroid t_c = t + R mu, and the step
    R' = exp([a]) R, t_c' = t_c + delta rotates about t_c, so the chart's
    12x6 Jacobian J is ``step_jacobian(R, 0)`` and the system is
    A = sym(J^T m J), b = -J^T (m (g - g0) + q0): the normal equations of
    the per-point rows [R (x_i - mu) x n_i; n_i]. Also returns the deflated
    g - g0, (B, 12).
    """
    # Columns 0-5 hold J, column 6 holds g - g0.
    jg = np.empty((rot.shape[0], 12, 7))
    _deflated(rot, centre, mu, jg[..., 6])
    jg[..., :6] = step_jacobian(rot, 0.0)
    mjg = m @ jg
    mjg[..., 6] += q0
    ab = jg[..., :6].swapaxes(1, 2) @ mjg
    # Free the (B, 12, 7) product before the symmetrized copy is formed.
    del mjg
    a = ab[..., :6]
    return 0.5 * (a + a.swapaxes(1, 2)), -ab[..., 6], jg[..., 6]


def _singular(iteration: int | None, what: str) -> SingularSystem:
    where = f" at iteration {iteration}" if iteration is not None else ""
    return SingularSystem(f"singular 6x6 system{where} ({what})", iteration)


def _root(p: float) -> float:
    """Square root of a float pivot; NaN for a non-positive or NaN one, which
    the pivot rule then rejects (``math.sqrt`` would raise)."""
    return math.sqrt(p) if p > 0.0 else math.nan


def _cholesky6(a, root):
    """Lower Cholesky factor of a symmetric 6x6, entry by entry.

    ``a[i][j]`` is a float, or a (B,) vector holding entry (i, j) of B
    systems, and ``root`` the matching square root. The entries meet only
    elementwise IEEE + - * / and the root, so a system's factor is bitwise
    the same alone or in any batch. Returns the rows of L (row i holds its
    entries 0..i) and the six squared pivots.
    """
    rows, piv = [], []
    for i in range(6):
        row = []
        for j in range(i + 1):
            lj = rows[j] if j < i else row
            s = a[i][j]
            for k in range(j):
                s = s - row[k] * lj[k]
            if j < i:
                row.append(s / lj[j])
            else:
                piv.append(s)
                row.append(root(s))
        rows.append(row)
    return rows, piv


def _substitute6(rows, b):
    """Entries of the solution x of L L^T x = b, by forward and back
    substitution on the rows of ``_cholesky6`` and b's six entries."""
    y = []
    for i, row in enumerate(rows):
        s = b[i]
        for k in range(i):
            s = s - row[k] * y[k]
        y.append(s / row[i])
    x = [None] * 6
    for i in range(5, -1, -1):
        s = y[i]
        for k in range(i + 1, 6):
            s = s - rows[k][i] * x[k]
        x[i] = s / rows[i][i]
    return x


def _pivot_rule(piv, iteration: int | None) -> bool:
    """Check the squared pivots of ``_cholesky6`` and return the condition flag.

    Raises SingularSystem naming the first batch item with a non-positive
    or NaN pivot, then when any item's smallest pivot falls below
    PIVOT_RATIO times its largest. The flag is set when any item's largest
    pivot exceeds CONDITION_LIMIT times its smallest.
    """
    if isinstance(piv[0], float):
        if not all(p > 0.0 for p in piv):
            raise _singular(iteration, "batch item 0")
        lo, hi = min(piv), max(piv)
        if lo < PIVOT_RATIO * hi:
            raise _singular(iteration, "tiny pivot")
        return hi / lo > CONDITION_LIMIT
    p = np.stack(piv)
    positive = np.logical_and.reduce(p > 0.0, axis=0)
    if not positive.all():
        raise _singular(iteration, f"batch item {int(np.argmin(positive))}")
    lo = np.minimum.reduce(p, axis=0)
    hi = np.maximum.reduce(p, axis=0)
    if np.logical_or.reduce(lo < PIVOT_RATIO * hi):
        raise _singular(iteration, "tiny pivot")
    return bool(np.logical_or.reduce(hi / lo > CONDITION_LIMIT))


def _entries(x):
    """Entries of a batch for the 6x6 kernels: nested floats at B = 1, else
    (B,) views with the batch axis moved last."""
    return x[0].tolist() if len(x) == 1 else x.transpose(*range(1, x.ndim), 0)


def _factor(a, iteration: int | None):
    """Cholesky rows of the (B, 6, 6) systems a and their condition flag.

    Raises SingularSystem under ``_pivot_rule``. At B > 1 a bad item takes
    the root of its negative pivot and divides by its NaN root before the
    rule sees it, so numpy's warnings are off while the factor is formed.
    """
    if len(a) == 1:
        rows, piv = _cholesky6(_entries(a), _root)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            rows, piv = _cholesky6(_entries(a), np.sqrt)
    return rows, _pivot_rule(piv, iteration)


def _check_damping(damping: float) -> None:
    if not (math.isfinite(damping) and damping >= 0.0):
        raise ValueError(f"damping must be finite and non-negative, got {damping}")


def _solve_batch(a, b, damping: float, iteration: int | None):
    """Solutions (B, 6) of the damped systems (a + damping I) s = b, plus
    the condition flag of ``_factor``: one Cholesky factor per system,
    checked by the pivot rule, then forward and back substitution. Each
    system's solution is bitwise independent of the batch it is in."""
    if damping:
        a = a + damping * _EYE6
    rows, condition = _factor(a, iteration)
    x = _substitute6(rows, _entries(b))
    return np.array(x).reshape(6, -1).T, condition


def _world(rot, centre, mu):
    """World translations t = t_c - R mu of the (B, 3) moved centroids."""
    return centre - (rot @ mu[..., None])[..., 0]


def _accumulate_batch(
    m: NDArray[np.float64],
    q0: NDArray[np.float64],
    mu: NDArray[np.float64],
    n_iters: int,
    damping: float = 0.0,
    want_trace: bool = False,
    at=(),
    emit=None,
):
    """Iterative accumulation over a batch of independent problems, from moments.

    Inputs are the (B, 12, 12) m, (B, 12) q0 and (B, 3) mu of
    ``_moments``; no round touches the points. Each round steps R and the
    moved centroid t_c = t + R mu (``_system_from_moments``); the world
    t = t_c - R mu is formed only for a transform the kernel hands out.
    After round k, for every count k in ``at``, ``emit(k, rotations,
    translations)`` receives the transform that ``n_iters = k`` returns,
    bitwise, since no round depends on ``n_iters``; the kernel keeps
    nothing of it after the call. Returns (rotations (B, 3, 3), translations (B, 3), g - g0 before
    every round and after the last (B, n_iters+1, 12) or None, converged
    (B,), condition_warning bool). Runs exactly ``n_iters`` iterations;
    convergence is informational.
    """
    _check_damping(damping)
    b_dim = m.shape[0]
    rot = np.empty((b_dim, 3, 3))
    rot[:] = _EYE3
    centre = mu
    converged = np.zeros(b_dim, dtype=bool)
    condition = False
    deltas = np.empty((b_dim, n_iters + 1, 12)) if want_trace else None

    for k in range(n_iters):
        a_mat, b_vec, delta = _system_from_moments(m, q0, mu, rot, centre)
        if want_trace:
            deltas[:, k] = delta
        sol, cond_k = _solve_batch(a_mat, b_vec, damping, k)
        condition = condition or cond_k
        rot = rodrigues_batch(sol[:, :3]) @ rot
        centre = centre + sol[:, 3:]
        # |a| + |delta|, each summed in the order of np.linalg.norm.
        step = np.sqrt(np.add.reduce((sol * sol).reshape(b_dim, 2, 3), axis=-1))
        converged |= np.add.reduce(step, axis=-1) < STEP_TOL
        # Only rot and centre carry over: the next round's system is formed
        # without this round's (delta is a view of the whole system buffer).
        del a_mat, b_vec, delta, sol, step
        if k + 1 in at:
            emit(k + 1, rot, _world(rot, centre, mu))
    if want_trace:
        _deflated(rot, centre, mu, deltas[:, n_iters])

    return rot, _world(rot, centre, mu), deltas, converged, condition


def register_p2pl(
    corr: CorrespondenceSet,
    source: PointCloud,
    n_iters: int = 10,
    damping: float = 0.0,
) -> SolveReport:
    """Point-to-plane registration by iterative accumulation.

    Runs exactly ``n_iters`` linearize/solve/compose rounds on the fixed
    correspondences; ten rounds are enough for the energies this module
    produces, and a fixed count keeps the input-to-transform map smooth for
    the finite-difference oracle. The moments are formed once, so each
    round costs O(1) in the number of pairs.
    """
    _check_sizes(corr, source)
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    mu, u, s, m, q0 = _moments(source.positions, corr.targets, corr.normals, corr.weights)
    rot, trans, deltas, converged, condition = _accumulate_batch(
        m[None], q0[None], mu[None], n_iters, damping, want_trace=True
    )
    # Row k holds sqrt(zeta_i) r_i before round k, r_i = d_i . (g - g0) + r0_i.
    res = deltas[0] @ u.T
    res += s
    trace = np.einsum("kn,kn->k", res, res)
    return SolveReport(
        transform=RigidTransform(rot[0], trans[0]),
        energy_trace=[float(e) for e in trace],
        iterations=n_iters,
        converged=bool(converged[0]),
        condition_warning=condition,
    )


def register_procrustes(corr: CorrespondenceSet, source: PointCloud) -> RigidTransform:
    """Weighted point-to-point alignment via SVD of the cross-covariance.

    Minimizes sum zeta_i |R x_i + t - y_i|^2; the determinant of the
    returned rotation is corrected to +1.
    """
    _check_sizes(corr, source)
    if len(source) < 3:
        raise DegenerateConfiguration("at least 3 pairs are required")
    w = corr.weights / corr.weights.sum()
    cs = w @ source.positions
    ct = w @ corr.targets
    h = (source.positions - cs).T @ ((corr.targets - ct) * w[:, None])
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise DegenerateConfiguration("cross-covariance rank < 2")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, ct - r @ cs)


def icp(
    source: PointCloud,
    target: PointCloud,
    method: str = "p2pl",
    max_outer: int = 30,
    inner_iters: int = 10,
    damping: float = 0.0,
    source_weights=None,
) -> SolveReport:
    """Classic ICP: alternate nearest-neighbor matching with registration.

    ``method`` selects the per-round estimator: "p2p" (Procrustes) or
    "p2pl" (iterative accumulation with ``inner_iters`` rounds). Stops
    after ``max_outer`` rounds or when the update step drops below the
    convergence threshold. ``source_weights`` optionally fixes per-source
    reliabilities used by every round's estimator. The report carries the
    correspondences matched at the returned transform. Raises ValueError
    on a negative ``max_outer`` and, for "p2pl", on ``inner_iters`` below
    1 or a negative or non-finite ``damping``, even when no round runs.
    """
    if method not in ("p2p", "p2pl"):
        raise ValueError("method must be 'p2p' or 'p2pl'")
    if max_outer < 0:
        raise ValueError(f"max_outer must be at least 0, got {max_outer}")
    if method == "p2pl":
        if inner_iters < 1:
            raise ValueError(f"inner_iters must be at least 1, got {inner_iters}")
        _check_damping(damping)
    if source_weights is not None:
        source_weights = np.asarray(source_weights, dtype=np.float64).reshape(-1)
        if source_weights.shape[0] != len(source):
            raise ValueError("source_weights length must match the source size")
    # One kd-tree of the target serves every round's matching.
    match = _nn_matcher(target)

    running = RigidTransform.identity()
    trace: list[float] = []
    converged = False
    condition = False
    iterations = 0

    def objective(moved: PointCloud, corr: CorrespondenceSet) -> float:
        if method == "p2pl":
            return energy(corr, source, running)
        diff = moved.positions - corr.targets
        return float(np.sum(corr.weights * np.einsum("ni,ni->n", diff, diff)))

    moved = source
    corr = match(moved.positions, source_weights)
    trace.append(objective(moved, corr))

    for _ in range(max_outer):
        if method == "p2p":
            delta = register_procrustes(corr, moved)
        else:
            inner = register_p2pl(corr, moved, n_iters=inner_iters, damping=damping)
            condition = condition or inner.condition_warning
            delta = inner.transform
        running = compose(delta, running)
        iterations += 1

        moved = apply_transform(running, source)
        corr = match(moved.positions, source_weights)
        trace.append(objective(moved, corr))

        step = rotation_angle(delta.rotation) + float(np.linalg.norm(delta.translation))
        if step < STEP_TOL:
            converged = True
            break

    return SolveReport(
        transform=running,
        energy_trace=trace,
        iterations=iterations,
        converged=converged,
        condition_warning=condition,
        correspondences=corr,
    )

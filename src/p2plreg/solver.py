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
over the points forms their 12x12 moments and every round after that
builds its 6x6 system from the moments alone before one damped 6x6 solve:
a round costs O(1) in the number of pairs. The kernel is batched over
independent problems, whose moments it takes as one record (``_Moments``),
as the backward does; the finite-difference oracle feeds it B perturbed
copies whose moments are rank-two updates of the base ones.

A run keeps one (B, 12, 7) buffer of [J | g - g0] (``_step_buffer``):
J's constant entries are written once, and each round's system
(``_chart_system``) writes R's signed entries through ``step_jacobian``'s
pick table (``geometry._fill_rotation``) and the deflated transform
g - g0, then reads the lower triangle of the symmetrized A and -b as
entries off the (B, 6, 7) product J^T [m J | m (g - g0) + q0]; at B > 1
no (B, 6, 6) array is formed. The backward reads its chart Hessian off the
same entries, from one B = 1 call on a buffer of its own.

The 6x6 solve is one Cholesky factor written out entry by entry
(``_cholesky6``), the pivot rule on its squared pivots (``_pivot_rule``),
then forward and back substitution (``_substitute6``). At B = 1 the
entries are Python floats; at B > 1 each is a (B,) vector, so a batch
costs about 170 vector operations whatever B is, and no LAPACK call is
made per system. Every operation is elementwise IEEE arithmetic, so a
system's solution does not depend on the batch it is solved in. The
backward checks its chart Hessian with the same factor and rule. The
round's exponential map (``geometry._exp_entries``), step norms, converged
flag and centroid update take the solution in the same entry form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet, _check_weights, _nn_matcher
from .geometry import (
    RigidTransform,
    _coeff_rows,
    _exp_entries,
    _fill_rotation,
    _norm3,
    apply_transform,
    compose,
    rotation_angle,
    step_jacobian,
)

# Accumulation steps below this magnitude count as converged.
STEP_TOL = 1e-10
# A pivot this far below the largest one marks the system as singular.
PIVOT_RATIO = 1e-14
# Condition estimate beyond this sets the report's warning flag.
CONDITION_LIMIT = 1e12

# register_p2pl's energy trace runs through a buffer of at most this many
# doubles (64 KiB).
_TRACE_ELEMS = 1 << 13

_EYE3 = np.eye(3)
# step_jacobian(R, 0) at R = I; _accumulate_batch's buffer starts from it.
_J_IDENTITY = step_jacobian(_EYE3, 0.0)


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


class _Moments(NamedTuple):
    """The moments of a batch of B problems (``_moments``): (B, 3) centroids
    mu, (B, 12, 12) m and (B, 12) q0, and the (13, N) rows [u^T; s] of a
    problem formed from its pairs, else None."""

    mu: NDArray[np.float64]
    m: NDArray[np.float64]
    q0: NDArray[np.float64]
    rows: NDArray[np.float64] | None


def _moments(x, y, n, zeta) -> _Moments:
    """Moments of the plane residuals of (N, 3) inputs and (N,) weights.

    The residuals are linear in the transform vector g = (row-major R, t_c)
    of the source centered at its weighted centroid mu: r_i = d_i . (g - g0)
    + r0_i, with d_i = ``residual_coeffs(x_i - mu, n_i)``, g0 = (I, mu) the
    identity and r0_i = (x_i - y_i) . n_i taken in point form, so an aligned
    problem has exact zero residuals. Returns the record of one problem
    (B = 1): its rows are the pair-minor (13, N) buffer of ``_moment_rows``,
    whose columns hold the weighted rows u_i = sqrt(zeta_i) d_i (the
    coefficients of the weighted normal, as d is linear in n) above
    s_i = sqrt(zeta_i) r0_i. With u = ``rows[:12].T`` and s = ``rows[12]``,
    m = u^T u = sum zeta_i d_i d_i^T, a Gram product and so symmetric
    bitwise, and q0 = u^T s = sum zeta_i r0_i d_i.
    """
    # Formed with their batch axis: views would add to the oracle's peak.
    mu = (zeta @ x)[None] / zeta.sum()
    rows = _moment_rows(x, y, n, zeta, mu)
    u, s = rows[:12].T, rows[12]
    return _Moments(mu, u.T[None] @ u, s[None] @ u, rows)


def _moment_rows(x, y, n, zeta, mu):
    """Weighted rows of ``_moments`` for pairs centered at (1, 3) mu, pair-minor.

    Returns one C-ordered (13, N) buffer: rows 0-11 hold u^T, the rows of
    ``geometry._coeff_rows`` for x - mu and sqrt(zeta) n, so column i is
    u_i = ``residual_coeffs(x_i - mu, sqrt(zeta_i) n_i)``, and row 12 holds
    s_i = sqrt(zeta_i) (x_i - y_i) . n_i. Each row is formed from
    contiguous (N,) rows; no (N, 3, 3) product or concatenated copy is made.
    """
    root = np.sqrt(zeta)
    buf = np.empty((13, root.shape[0]))
    # s first, and root freed, before the (3, N) input of the rows exists.
    # sqrt(zeta) n is formed in place as rows 9-11, which ``_coeff_rows``
    # then copies onto themselves (numpy skips that copy): the peak is the
    # buffer and one (3, N) row, about 16 N doubles.
    s = buf[12]
    np.einsum("ni,ni->n", x - y, n, out=s)
    s *= root
    nt = np.multiply(n.T, root, out=buf[9:12])
    del root
    _coeff_rows(np.subtract(x.T, mu.T, order="C"), nt, buf[:12])
    return buf


def _deflated(rot, centre, mu, out):
    """Write g - g0 of (rot, centre) into the (B, 12) out: R - I, then
    t_c - mu."""
    np.subtract(rot.reshape(-1, 9), _EYE3.reshape(9), out=out[:, :9])
    np.subtract(centre, mu, out=out[:, 9:])


def _step_buffer(b_dim: int):
    """A (B, 12, 7) [J | g - g0] buffer for ``_chart_system``, holding the
    entries of ``step_jacobian(R, 0)`` that do not depend on R."""
    jg = np.empty((b_dim, 12, 7))
    jg[..., :6] = _J_IDENTITY
    return jg


def _chart_system(moments: _Moments, rot, centre, jg):
    """6x6 systems of the linearized step at (rot, centre), as entries.

    The state is R and the moved centroid t_c = t + R mu, and the step
    R' = exp([a]) R, t_c' = t_c + delta rotates about t_c, so the chart's
    12x6 Jacobian J is ``step_jacobian(R, 0)`` and the system is
    A = sym(J^T m J), b = -J^T (m (g - g0) + q0): the normal equations of
    the per-point rows [R (x_i - mu) x n_i; n_i]. Writes R's entries and
    g - g0 into jg, a buffer of ``_step_buffer``, and reads the system off
    the (B, 6, 7) product ab = J^T [m J | m (g - g0) + q0] in the 6x6
    kernels' entry form (``_entries``): A's lower triangle, which the factor
    reads, each entry its own (ab_ij + ab_ji) / 2, and b's entries -ab_i6.
    At B > 1 each entry is one (B,) row, so no (B, 6, 6) array is made.
    """
    _deflated(rot, centre, moments.mu, jg[..., 6])
    _fill_rotation(jg, rot)
    mjg = moments.m @ jg
    mjg[..., 6] += moments.q0
    ab = jg[..., :6].swapaxes(1, 2) @ mjg
    # The oracle peaks here. mjg goes before the entries are read, and plain
    # loops read e: a comprehension would make e a closure cell on entry.
    del mjg
    e = _entries(ab)
    lower = [[] for _ in range(6)]
    for i in range(6):
        for j in range(i + 1):
            lower[i].append(0.5 * (e[i][j] + e[j][i]))
    return lower, [-row[6] for row in e]


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


def _factor_entries(a, iteration: int | None):
    """Cholesky rows and condition flag of systems in entry form: ``a[i][j]``
    for j <= i, floats or (B,) rows.

    Raises SingularSystem under ``_pivot_rule``. At B > 1 a bad item takes
    the root of its negative pivot and divides by its NaN root before the
    rule sees it, so numpy's warnings are off while the factor is formed.
    """
    if isinstance(a[0][0], float):
        rows, piv = _cholesky6(a, _root)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            rows, piv = _cholesky6(a, np.sqrt)
    return rows, _pivot_rule(piv, iteration)


def _check_damping(damping: float) -> None:
    if not (math.isfinite(damping) and damping >= 0.0):
        raise ValueError(f"damping must be finite and non-negative, got {damping}")


def _solve_lower(a, b, damping: float, iteration: int | None):
    """Entries of the solutions of (a + damping I) s = b, from a[i][j] for
    j <= i and b's six entries, and the condition flag of
    ``_factor_entries``. Damping adds damping to each diagonal entry and
    +0 to each other one, as adding damping I does. Each system's solution
    is bitwise independent of the batch it is in."""
    if damping:
        a = [[v + (damping if j == i else 0.0) for j, v in enumerate(row[: i + 1])]
             for i, row in enumerate(a)]
    rows, condition = _factor_entries(a, iteration)
    return _substitute6(rows, b), condition


def _batch(entries):
    """(B, len(entries)) C-ordered array of kernel entries, the inverse of
    ``_entries`` for a batch of vectors."""
    return np.ascontiguousarray(np.array(entries).reshape(len(entries), -1).T)


def _world(rot, centre, mu):
    """World translations t = t_c - R mu of the (B, 3) moved centroids."""
    return centre - (rot @ mu[..., None])[..., 0]


def _accumulate_batch(moments: _Moments, n_iters: int, damping: float = 0.0, emit=None):
    """Iterative accumulation over a batch of independent problems, from moments.

    ``moments`` is the ``_Moments`` of B problems; no round touches the
    points. Each round steps R and the moved centroid t_c = t + R mu, with
    the system of ``_chart_system`` on one [J | g - g0] buffer kept for the
    run; the world t = t_c - R mu is formed only for the returned transform.
    For every k = 0..n_iters, ``emit(k, rotations, centres, deltas)``
    receives the state after k rounds (bitwise what ``n_iters = k`` ends
    in, since no round depends on ``n_iters``) and its deflated g - g0
    (B, 12), as the kernel's own arrays: copy what is kept. Returns
    (rotations (B, 3, 3), translations (B, 3), converged (B,),
    condition_warning bool). Runs exactly ``n_iters`` iterations;
    convergence is informational.
    """
    _check_damping(damping)
    mu = centre = moments.mu
    b_dim = len(mu)
    rot = np.empty((b_dim, 3, 3))
    rot[:] = _EYE3
    converged = False
    condition = False
    # [J | g - g0], kept for the run: each round rewrites only its R
    # entries and g - g0.
    jg = _step_buffer(b_dim)
    delta = jg[..., 6]

    for k in range(n_iters):
        a_low, b_vec = _chart_system(moments, rot, centre, jg)
        if emit is not None:
            emit(k, rot, centre, delta)
        # The system, solution, exp map and step norms stay in the 6x6
        # kernels' entry form: Python floats at B = 1, (B,) rows at B > 1.
        x, cond_k = _solve_lower(a_low, b_vec, damping, k)
        condition = condition or cond_k
        theta, exp = _exp_entries(x[:3])
        rot = _batch(exp).reshape(b_dim, 3, 3) @ rot
        centre = centre + _batch(x[3:])
        converged = converged | (theta + _norm3(*x[3:]) < STEP_TOL)
        # Only rot, centre and the [J | g - g0] buffer carry over.
        del a_low, b_vec, x, exp
    if emit is not None:
        _deflated(rot, centre, mu, delta)
        emit(n_iters, rot, centre, delta)

    return rot, _world(rot, centre, mu), np.full(b_dim, converged), condition


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
    moments = _moments(source.positions, corr.targets, corr.normals, corr.weights)
    # Row k holds (g - g0, 1) before round k, so row k of deltas @ rows is
    # sqrt(zeta_i) r_i, r_i = d_i . (g - g0) + r0_i, where rows is the
    # record's (13, N) buffer [u^T; s] (see ``_moments``).
    deltas = np.ones((n_iters + 1, 13))

    def record(k, rot, centre, delta):
        deltas[k, :12] = delta[0]

    rot, trans, converged, condition = _accumulate_batch(moments, n_iters, damping, record)
    # The trace is summed over column blocks of the pairs through one
    # reused buffer of at most _TRACE_ELEMS doubles, so no (n_iters + 1, N)
    # block is formed.
    rows = moments.rows
    n = rows.shape[1]
    width = max(1, _TRACE_ELEMS // len(deltas))
    buf = np.empty((len(deltas), min(width, n)))
    trace = np.zeros(len(deltas))
    for a in range(0, n, width):
        res = buf[:, : min(width, n - a)]
        np.matmul(deltas, rows[:, a : a + width], out=res)
        trace += np.einsum("kn,kn->k", res, res)
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
    on a negative ``max_outer``, on ``source_weights`` of the wrong length
    or that are not finite, nonnegative and not all zero, and, for "p2pl",
    on ``inner_iters`` below 1 or a negative or non-finite ``damping``,
    even when no round runs.
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
        source_weights = np.ascontiguousarray(source_weights, dtype=np.float64).reshape(-1)
        if source_weights.shape[0] != len(source):
            raise ValueError("source_weights length must match the source size")
        _check_weights(source_weights)
    # One kd-tree of the target serves every round's matching. Its sets
    # derive from inputs checked once, here and at construction, so no
    # round checks them again. Neither round estimator reads the source's
    # normals, so the source moves as bare positions.
    match = _nn_matcher(target)
    bare = PointCloud(source.positions)

    running = RigidTransform.identity()
    converged = False
    condition = False

    def objective(moved: PointCloud, corr: CorrespondenceSet) -> float:
        # moved holds the bits of energy's R x + t, so it is not formed again.
        diff = moved.positions - corr.targets
        if method == "p2pl":
            res = np.einsum("ni,ni->n", diff, corr.normals)
            return float(np.sum(corr.weights * res * res))
        return float(np.sum(corr.weights * np.einsum("ni,ni->n", diff, diff)))

    moved = bare
    corr = match(moved.positions, source_weights)
    trace = [objective(moved, corr)]

    for _ in range(max_outer):
        if method == "p2p":
            delta = register_procrustes(corr, moved)
        else:
            inner = register_p2pl(corr, moved, n_iters=inner_iters, damping=damping)
            condition = condition or inner.condition_warning
            delta = inner.transform
        running = compose(delta, running)

        moved = apply_transform(running, bare)
        corr = match(moved.positions, source_weights)
        trace.append(objective(moved, corr))

        step = rotation_angle(delta.rotation) + float(np.linalg.norm(delta.translation))
        if step < STEP_TOL:
            converged = True
            break

    return SolveReport(
        transform=running,
        energy_trace=trace,
        iterations=len(trace) - 1,
        converged=converged,
        condition_warning=condition,
        correspondences=corr,
    )

"""Closed-form Jacobians of the solved transform with respect to inputs.

The forward solver steps in a 6-dof chart that rotates about the moved
source centroid t_c = t + R mu: R' = exp([a]) R and t_c' = t_c + delta.
The backward differentiates the minimality condition of the plane energy
in that same chart: with J the 12x6 Jacobian of the chart at the solved g
(``geometry.step_jacobian(R, -R mu)``) and H = J^T H_data J the 6x6
Gauss-Newton Hessian, every per-pair input u (target position, target
normal, source position, reliability) gives

    d g* / d u  =  -J H^{-1} J^T (d^2 E / d u d g)

One 6x6 inverse is shared across all N pairs, so the backward cost does
not depend on how many accumulation rounds produced the transform, and
J H^{-1} J^T does not depend on the chart's pivot. H is twice the 6x6
system the forward would factor next at g, that is at (R, t + R mu)
(``solver._moments`` and ``solver._system_from_moments``), checked by the
forward's own Cholesky factor and pivot rule (``solver._factor``), so the
two passes share one chart, one Hessian formula and one singularity
criterion.

``backward`` forms the moments, H and the lifted inverse J H^{-1} J^T and
stops there: its one O(N) pass is the moments. The bundle keeps the inputs
and the solved transform it was built from. Every per-pair derivative is a
product p @ d(grad_g E)/du, for a (k, 12) matrix p, from one builder,
``_mixed_blocks``, which forms the offsets and residuals at g in its own
pass through the solver's one plane-residual helper,
``solver._plane_offsets``, as ``energy_gradient`` and ``solver.energy`` do:

- ``cross_derivs`` uses p = I;
- ``GradientBundle.jacobians`` uses p = -J H^{-1} J^T, 120 N doubles per
  call;
- ``chain_loss`` is the vector-Jacobian product, the one row
  p = -v^T J H^{-1} J^T, 10 N doubles.

The row uses the explicit lifted inverse, not a solve with H, so the VJP
and the materialized blocks apply the same matrix and agree to rounding.
All three, and the oracle's blocks, are ``PerInput`` records.

The orthogonality penalty (``penalty``, its gradient and curvature, and the
``lam`` argument of ``hessian`` and ``energy_gradient``) defines a 12x12
penalized energy whose stiff-penalty limit is the chart form above; it is
kept as an oracle for tests, independent of ``backward`` and the moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet
from .geometry import RigidTransform, from_gvector, residual_coeffs, step_jacobian
from .solver import (
    SingularSystem,
    _check_sizes,
    _factor,
    _moments,
    _plane_offsets,
    _system_from_moments,
)


class SingularHessian(np.linalg.LinAlgError):
    """The 6x6 chart Hessian of the plane energy is singular.

    Raised under the forward solver's own Cholesky factor and pivot rule
    (``solver._factor``): the geometry leaves a step direction
    unconstrained, for example planar points whose normals are all
    parallel. H is formed from the pairs at the solved transform and never
    sees the forward's damping, so solving again with damping cannot help:
    damping regularizes the forward solve only, and a singular H means the
    pairs do not fix the transform in that direction.
    """


def _as_transform(g) -> RigidTransform:
    """g as given if it is a RigidTransform, else a copy of the 12-vector read
    by ``from_gvector``, so an in-place update of g after ``backward`` does
    not reach the bundle."""
    return g if isinstance(g, RigidTransform) else from_gvector(np.array(g, dtype=np.float64))


def rotation_row_matrix(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """9x9 matrix with entry (3p+q, 3u+s) = R[p, s] (rows replicated)."""
    r = np.asarray(r, dtype=np.float64)
    return np.repeat(np.tile(r, (1, 3)), 3, axis=0)


def penalty(r: NDArray[np.float64]) -> float:
    """Orthogonality penalty |R^T R - I|_F^2."""
    r = np.asarray(r, dtype=np.float64)
    c = r.T @ r - np.eye(3)
    return float(np.sum(c * c))


def penalty_gradient(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-major gradient of the orthogonality penalty: 4 R (R^T R - I).

    This is the derivative the penalty Hessian integrates; finite
    differences of ``penalty`` pin the product order.
    """
    r = np.asarray(r, dtype=np.float64)
    return (4.0 * r @ (r.T @ r - np.eye(3))).reshape(9)


def penalty_curvature(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """9x9 second derivative of the orthogonality penalty divided by 4."""
    r = np.asarray(r, dtype=np.float64)
    rhat = rotation_row_matrix(r)
    eye3 = np.eye(3)
    return (
        rhat * rhat.T
        + np.eye(9)
        + np.kron(r @ r.T - eye3, eye3)
        + np.kron(eye3, r.T @ r - eye3)
    )


def energy_gradient(
    corr: CorrespondenceSet, source: PointCloud, g, lam: float = 0.0
) -> NDArray[np.float64]:
    """Gradient of the penalized energy in the 12 transform coordinates."""
    _check_sizes(corr, source)
    t = _as_transform(g)
    _, residuals = _plane_offsets(corr, source, t)
    grad = 2.0 * ((corr.weights * residuals) @ residual_coeffs(source.positions, corr.normals))
    grad[:9] += lam * penalty_gradient(t.rotation)
    return grad


def hessian(corr: CorrespondenceSet, source: PointCloud, g, lam: float) -> NDArray[np.float64]:
    """12x12 second derivative of the penalized energy at g.

    The data term is the per-point Gram product 2 sum_i zeta_i d_i d_i^T of
    the residual gradients d_i, independent of the forward's moments.
    """
    _check_sizes(corr, source)
    rot = _as_transform(g).rotation
    # sqrt-weighted Gram product keeps the result symmetric bitwise
    rd = residual_coeffs(source.positions, corr.normals) * np.sqrt(corr.weights)[:, None]
    h = 2.0 * rd.T @ rd
    h[:9, :9] += 4.0 * lam * penalty_curvature(rot)
    return h


@dataclass(frozen=True)
class PerInput:
    """One array per per-pair input: source position x, target position y,
    target normal n and reliability zeta.

    Holds (N, 12, 3) and (N, 12) blocks (mixed derivatives d(grad_g E)/du or
    Jacobians d g*/du), or chained loss gradients (N, 3) and (N,).
    """

    wrt_x: NDArray[np.float64]
    wrt_y: NDArray[np.float64]
    wrt_n: NDArray[np.float64]
    wrt_zeta: NDArray[np.float64]


def _add_outer(out: NDArray[np.float64], a: NDArray[np.float64], b: NDArray[np.float64]) -> None:
    """out[i] += a_i b_i^T for (N, 12) a and (N, 3) b, one column at a time
    (faster than a (N, 12, 1) x (N, 1, 3) broadcast and no (N, 12, 3) temporary)."""
    for s in range(3):
        out[:, :, s] += a * b[:, s, None]


def _mixed_blocks(
    corr: CorrespondenceSet, source: PointCloud, t: RigidTransform, p: NDArray[np.float64]
) -> PerInput:
    """p @ d(grad_g E)/du for every per-pair input u and a (k, 12) matrix p.

    With grad_g E = sum_i 2 zeta_i r_i d_i, the mixed derivatives are

        y:    -2 zeta_i d_i n_i^T
        n:     2 zeta_i (d_i w_i^T + r_i dd_i/dn_i)
        x:     2 zeta_i (d_i (R^T n_i)^T + r_i dd_i/dx_i)
        zeta:  2 r_i d_i

    with w_i the offset. The coefficient Jacobians dd_i/dn_i and dd_i/dx_i
    are sparse lifts of x_i and n_i, so p applied to them for all i is one
    (N, 4) x (4, 3k) and one (N, 3) x (3, 3k) product, written straight into
    the output arrays. As d_i is linear in n_i, p d_i is the row dot product
    of n_i with p dd_i/dn_i, so no (N, 12) d_i is formed; the d_i terms are
    then accumulated in place. Blocks are (N, k, 3) and (N, k).
    """
    x, n, zeta = source.positions, corr.normals, corr.weights
    offsets, residuals = _plane_offsets(corr, source, t)
    n_pts = residuals.shape[0]
    k = p.shape[0]
    # One allocation holds all four blocks. With glibc malloc, separate ~1 MB
    # blocks freed together went back to the OS and were page-faulted in
    # again on every call (~1200 minor faults per call at N=4096, about half
    # the backward time); one block of the combined size stays in the heap.
    store = np.empty(10 * k * n_pts)
    wrt_y, wrt_n, wrt_x = store[: 9 * k * n_pts].reshape(3, n_pts, k, 3)
    wrt_zeta = store[9 * k * n_pts :].reshape(n_pts, k)

    p_rot = p[:, :9].reshape(k, 3, 3)  # (k, a, b) -> p[k, 3a + b]
    # (p dd_i/dn_i)[k, s] = sum_q p[k, 3s + q] x_q + p[k, 9 + s]
    lift_x = np.concatenate([x, np.ones((n_pts, 1))], axis=1)
    to_n = np.concatenate(
        [p_rot.transpose(2, 0, 1).reshape(3, 3 * k), p[:, 9:].reshape(1, 3 * k)]
    )
    np.matmul(lift_x, to_n, out=wrt_n.reshape(n_pts, 3 * k))
    pd = np.einsum("nks,ns->nk", wrt_n, n)  # rows p d_i
    np.multiply((2.0 * residuals)[:, None], pd, out=wrt_zeta)
    zeta2 = 2.0 * zeta
    pd *= zeta2[:, None]
    zr2 = zeta2 * residuals
    wrt_n *= zr2[:, None, None]
    _add_outer(wrt_n, pd, offsets)
    # (p dd_i/dx_i)[k, s] = sum_a p[k, 3a + s] n_a
    to_x = p_rot.transpose(1, 0, 2).reshape(3, 3 * k)
    np.matmul(zr2[:, None] * n, to_x, out=wrt_x.reshape(n_pts, 3 * k))
    _add_outer(wrt_x, pd, n @ t.rotation)

    for s in range(3):
        np.multiply(pd, -n[:, s, None], out=wrt_y[:, :, s])
    return PerInput(wrt_x=wrt_x, wrt_y=wrt_y, wrt_n=wrt_n, wrt_zeta=wrt_zeta)


def cross_derivs(corr: CorrespondenceSet, source: PointCloud, g) -> PerInput:
    _check_sizes(corr, source)
    return _mixed_blocks(corr, source, _as_transform(g), np.eye(12))


@dataclass(frozen=True)
class GradientBundle:
    """Jacobians of the solved transform vector for every per-pair input,
    held as their factors.

    Holds the inputs and the solved transform it was built from, the 6x6
    chart Hessian H (twice the forward's system at g), the lifted inverse
    J H^{-1} J^T and the solver's condition flag for H; no field has N rows.
    The inputs are held, not copied: the cloud, correspondence and
    transform arrays are read-only views, and a 12-vector g is read into a
    transform of its own. A view shares memory with a contiguous float64
    array the caller passed in, so editing that array in place after
    ``backward`` still changes what the bundle reads.
    """

    correspondences: CorrespondenceSet
    source: PointCloud
    transform: RigidTransform  # the solved g
    h_inv: NDArray[np.float64]  # (12, 12) J H^{-1} J^T
    hessian: NDArray[np.float64]  # (6, 6) chart Hessian H
    condition_warning: bool  # pivot ratio of H above solver.CONDITION_LIMIT

    def jacobians(self) -> PerInput:
        """The (N, 12, 3) and (N, 12) blocks d g*/d u = -J H^{-1} J^T
        d(grad_g E)/du, formed on every call; ``chain_loss`` needs none."""
        return _mixed_blocks(self.correspondences, self.source, self.transform, -self.h_inv)


def backward(corr: CorrespondenceSet, source: PointCloud, g) -> GradientBundle:
    """Factor the Jacobians of the solved transform for every per-pair input.

    Differentiates the minimality condition in the forward's own step chart,
    which rotates about the moved centroid t_c = t + R mu of the source
    (J = ``step_jacobian(R, -R mu)``, 12x6 at g): H = J^T H_data J is the
    Gauss-Newton Hessian of the plane energy in the six step coordinates,
    and the bundle keeps J H^{-1} J^T. H is twice the forward's own 6x6
    system at (R, t_c), checked by the forward's pivot rule. Its one O(N)
    pass forms the moments; the per-pair Jacobians are formed only by
    ``GradientBundle.jacobians``. g is a RigidTransform or its 12-vector.
    """
    _check_sizes(corr, source)
    t = _as_transform(g)
    mu, _, _, m, q0 = _moments(source.positions, corr.targets, corr.normals, corr.weights)
    r_mu = t.rotation @ mu
    a, _, _ = _system_from_moments(
        m[None], q0[None], mu[None], t.rotation[None], (t.translation + r_mu)[None]
    )
    h = 2.0 * a[0]
    jac = step_jacobian(t.rotation, -r_mu)
    try:
        _, condition = _factor(h[None], None)
    except SingularSystem as exc:
        raise SingularHessian(f"chart Hessian: {exc}") from None
    # The explicit inverse, not a solve: chain_loss and the materialized
    # blocks then apply the same matrix and agree to rounding.
    h_inv = jac @ np.linalg.inv(h) @ jac.T
    return GradientBundle(corr, source, t, h_inv, h, condition)


def chain_blocks(d_loss_d_g, blocks: PerInput) -> PerInput:
    """Chain a loss gradient in g through per-pair (N, 12, 3) and (N, 12)
    Jacobian blocks."""
    v = np.asarray(d_loss_d_g, dtype=np.float64).reshape(12)
    # (N, 36) x (36, 3) product: entry ((k, j), j') of the right factor is
    # v[k] when j == j', so row i contracts v with block i over k.
    v_blocks = (v[:, None, None] * np.eye(3)).reshape(36, 3)
    return PerInput(
        wrt_x=blocks.wrt_x.reshape(-1, 36) @ v_blocks,
        wrt_y=blocks.wrt_y.reshape(-1, 36) @ v_blocks,
        wrt_n=blocks.wrt_n.reshape(-1, 36) @ v_blocks,
        wrt_zeta=blocks.wrt_zeta @ v,
    )


def chain_loss(d_loss_d_g, bundle: GradientBundle) -> PerInput:
    """Chain a loss gradient v in g down to every per-pair input.

    A vector-Jacobian product through the bundle's factors: the one row
    -v^T J H^{-1} J^T goes through the mixed-derivative builder with the
    bundle's inputs, so no per-pair Jacobian is formed. Raises ValueError
    unless v is finite.
    """
    v = np.asarray(d_loss_d_g, dtype=np.float64).reshape(12)
    if not np.isfinite(v).all():
        raise ValueError("d_loss_d_g must be finite")
    row = _mixed_blocks(
        bundle.correspondences, bundle.source, bundle.transform, -(v @ bundle.h_inv)[None]
    )
    return PerInput(row.wrt_x[:, 0], row.wrt_y[:, 0], row.wrt_n[:, 0], row.wrt_zeta[:, 0])


def rigid_motion_loss(g, gt: RigidTransform):
    """Rotation/translation supervision loss and its exact gradient in g.

    loss = |R^T R_gt - I|_F^2 + |t - t_gt|^2.
    """
    t = _as_transform(g)
    c = t.rotation.T @ gt.rotation - np.eye(3)
    dt = t.translation - gt.translation
    loss = float(np.sum(c * c) + dt @ dt)
    grad_rot = 2.0 * gt.rotation @ c.T
    grad = np.concatenate([grad_rot.reshape(9), 2.0 * dt])
    return loss, grad

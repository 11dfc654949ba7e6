"""Closed-form Jacobians of the solved transform with respect to inputs.

The solved transform is treated as the minimizer of the plane energy over
the 12 entries of (rotation, translation), with a quadratic orthogonality
penalty completing the curvature across the rotation-constraint directions.
Differentiating the minimality condition then gives, for every per-pair
input u (target position, target normal, source position, reliability):

    d g* / d u  =  -(d^2 E_hat / d g^2)^{-1} (d^2 E_hat / d u d g)

One 12x12 inverse is shared across all N pairs, so the backward cost does
not depend on how many accumulation rounds produced the transform.

``backward`` is one pass over one workspace (``build_workspace``) that
``hessian``, ``penalty_lambda``, ``energy_gradient`` and ``cross_derivs``
read too, so each formula exists once; ``cross_derivs`` is the Jacobian
builder with the identity in place of -H^{-1}. The per-pair Jacobians come
from a few (N, 12) x (12, 12) and (N, 4) x (4, 36) matrix products written
into one allocation, a handful of passes over the 120 N output doubles. At
N = 4096 that is about half the time of a 10-iteration forward solve (ratio
0.54 in the benchmark's traced sweep on a 2-vCPU Xeon VM, one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cloud import PointCloud
from .correspond import CorrespondenceSet
from .geometry import RigidTransform, to_gvector

# Penalty-gradient norms below this are treated as exactly orthogonal.
LAMBDA_DENOM_FLOOR = 1e-24
# Penalty weight band used by backward(), relative to the mean data
# curvature: large enough to pin the constraint directions, small enough
# to keep the 12x12 solve well conditioned in double precision.
LAMBDA_REL_FLOOR = 1e6
LAMBDA_REL_CAP = 1e8


class SingularHessian(np.linalg.LinAlgError):
    """Penalized energy Hessian is not invertible (degenerate geometry).

    Callers can retry after solving with damping to regularize the forward
    geometry.
    """


def _as_gvector(g) -> NDArray[np.float64]:
    if isinstance(g, RigidTransform):
        return to_gvector(g)
    arr = np.asarray(g, dtype=np.float64).reshape(-1)
    if arr.shape != (12,):
        raise ValueError("expected a RigidTransform or a 12-vector")
    return arr


def position_lift(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """(N, 12) vectors (x, x, x, 1, 1, 1) pairing positions with g."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.tile(x, (1, 3)), np.ones((x.shape[0], 3))], axis=1)


def normal_lift(n: NDArray[np.float64]) -> NDArray[np.float64]:
    """(N, 12) vectors (n0,n0,n0, n1,n1,n1, n2,n2,n2, n) pairing normals with g."""
    n = np.asarray(n, dtype=np.float64)
    return np.concatenate([np.repeat(n, 3, axis=1), n], axis=1)


def residual_coeffs(x: NDArray[np.float64], n: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-pair 12-vectors d with d . g == (R x + t) . n for any g.

    Equal to the elementwise product of the two lifts; rows are the
    gradients of the plane residuals in transform coordinates.
    """
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    top = (n[:, :, None] * x[:, None, :]).reshape(x.shape[0], 9)
    return np.concatenate([top, n], axis=1)


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


@dataclass(frozen=True)
class GradWorkspace:
    """Per-pair quantities shared by every energy-derivative formula."""

    positions: NDArray[np.float64]  # (N, 3) source positions x_i
    normals: NDArray[np.float64]  # (N, 3) target normals n_i
    weights: NDArray[np.float64]  # (N,) reliabilities zeta_i
    coeffs: NDArray[np.float64]  # (N, 12) residual gradients in g
    residuals: NDArray[np.float64]  # (N,) plane residuals at g
    offsets: NDArray[np.float64]  # (N, 3) R x_i + t - y_i
    rotation: NDArray[np.float64]  # (3, 3)
    curvature: NDArray[np.float64]  # (9, 9) penalty curvature block


def build_workspace(
    corr: CorrespondenceSet, source: PointCloud, g
) -> GradWorkspace:
    gv = _as_gvector(g)
    rot = gv[:9].reshape(3, 3)
    x = source.positions
    n = corr.normals
    offsets = x @ rot.T + gv[9:] - corr.targets
    residuals = np.einsum("ni,ni->n", offsets, n)
    return GradWorkspace(
        x, n, corr.weights, residual_coeffs(x, n), residuals, offsets, rot, penalty_curvature(rot)
    )


def _data_gradient(ws: GradWorkspace) -> NDArray[np.float64]:
    """Gradient of the plane energy sum_i zeta_i r_i^2 in g."""
    return 2.0 * ((ws.weights * ws.residuals) @ ws.coeffs)


def energy_gradient(
    corr: CorrespondenceSet, source: PointCloud, g, lam: float = 0.0
) -> NDArray[np.float64]:
    """Gradient of the penalized energy in the 12 transform coordinates."""
    ws = build_workspace(corr, source, g)
    grad = _data_gradient(ws)
    grad[:9] += lam * penalty_gradient(ws.rotation)
    return grad


def _fit_lambda(ws: GradWorkspace) -> float:
    d_p = penalty_gradient(ws.rotation)
    denom = float(d_p @ d_p)
    if denom < LAMBDA_DENOM_FLOOR:
        return 0.0
    return abs(float(d_p @ _data_gradient(ws)[:9])) / denom


def penalty_lambda(corr: CorrespondenceSet, source: PointCloud, g) -> float:
    """Least-squares penalty weight |dP . dE| / (dP . dP) on the rotation
    entries, zero when the rotation is numerically orthogonal (0/0 case)."""
    return _fit_lambda(build_workspace(corr, source, g))


def _data_hessian(ws: GradWorkspace) -> NDArray[np.float64]:
    # sqrt-weighted Gram product keeps the result symmetric bitwise
    rd = ws.coeffs * np.sqrt(ws.weights)[:, None]
    return 2.0 * rd.T @ rd


def _add_penalty(h: NDArray[np.float64], ws: GradWorkspace, lam: float) -> NDArray[np.float64]:
    h[:9, :9] += 4.0 * lam * ws.curvature
    return h


def hessian(corr: CorrespondenceSet, source: PointCloud, g, lam: float) -> NDArray[np.float64]:
    """12x12 second derivative of the penalized energy at g."""
    ws = build_workspace(corr, source, g)
    return _add_penalty(_data_hessian(ws), ws, lam)


@dataclass(frozen=True)
class CrossDerivatives:
    """Per-pair mixed second derivatives of the energy, d(grad_g E)/d(input)."""

    wrt_y: NDArray[np.float64]  # (N, 12, 3)
    wrt_n: NDArray[np.float64]  # (N, 12, 3)
    wrt_x: NDArray[np.float64]  # (N, 12, 3)
    wrt_zeta: NDArray[np.float64]  # (N, 12)


def _add_outer(out: NDArray[np.float64], a: NDArray[np.float64], b: NDArray[np.float64]) -> None:
    """out[i] += a_i b_i^T for (N, 12) a and (N, 3) b, one column at a time
    (faster than a (N, 12, 1) x (N, 1, 3) broadcast and no (N, 12, 3) temporary)."""
    for s in range(3):
        out[:, :, s] += a * b[:, s, None]


def _mixed_blocks(ws: GradWorkspace, p: NDArray[np.float64]) -> CrossDerivatives:
    """p @ d(grad_g E)/du for every per-pair input u and a 12x12 matrix p.

    With grad_g E = sum_i 2 zeta_i r_i d_i, the mixed derivatives are

        y:    -2 zeta_i d_i n_i^T
        n:     2 zeta_i (d_i w_i^T + r_i dd_i/dn_i)
        x:     2 zeta_i (d_i (R^T n_i)^T + r_i dd_i/dx_i)
        zeta:  2 r_i d_i

    with w_i the offset. The coefficient Jacobians dd_i/dn_i and dd_i/dx_i
    are sparse lifts of x_i and n_i, so p applied to them for all i is one
    (N, 4) x (4, 36) and one (N, 3) x (3, 36) product, written straight into
    the output arrays; the d_i terms are then accumulated in place.
    """
    n_pts = ws.residuals.shape[0]
    # One allocation holds all four blocks. With glibc malloc, separate ~1 MB
    # blocks freed together went back to the OS and were page-faulted in
    # again on every call (~1200 minor faults per call at N=4096, about half
    # the backward time); one block of the combined size stays in the heap.
    store = np.empty(120 * n_pts)
    wrt_y, wrt_n, wrt_x = store[: 108 * n_pts].reshape(3, n_pts, 12, 3)
    wrt_zeta = store[108 * n_pts :].reshape(n_pts, 12)
    pd = ws.coeffs @ p.T  # rows p d_i
    np.multiply((2.0 * ws.residuals)[:, None], pd, out=wrt_zeta)
    zeta2 = 2.0 * ws.weights
    pd *= zeta2[:, None]
    zr2 = zeta2 * ws.residuals

    p_rot = p[:, :9].reshape(12, 3, 3)  # (k, a, b) -> p[k, 3a + b]
    # (p dd_i/dn_i)[k, s] = sum_q p[k, 3s + q] x_q + p[k, 9 + s]
    lift_x = np.concatenate([ws.positions, np.ones((n_pts, 1))], axis=1) * zr2[:, None]
    to_n = np.concatenate([p_rot.transpose(2, 0, 1).reshape(3, 36), p[:, 9:].reshape(1, 36)])
    np.matmul(lift_x, to_n, out=wrt_n.reshape(n_pts, 36))
    _add_outer(wrt_n, pd, ws.offsets)
    # (p dd_i/dx_i)[k, s] = sum_a p[k, 3a + s] n_a
    to_x = p_rot.transpose(1, 0, 2).reshape(3, 36)
    np.matmul(zr2[:, None] * ws.normals, to_x, out=wrt_x.reshape(n_pts, 36))
    _add_outer(wrt_x, pd, ws.normals @ ws.rotation)

    for s in range(3):
        np.multiply(pd, -ws.normals[:, s, None], out=wrt_y[:, :, s])
    return CrossDerivatives(wrt_y, wrt_n, wrt_x, wrt_zeta)


def cross_derivs(corr: CorrespondenceSet, source: PointCloud, g) -> CrossDerivatives:
    return _mixed_blocks(build_workspace(corr, source, g), np.eye(12))


@dataclass(frozen=True)
class GradientBundle:
    """Jacobians of the solved transform vector for every per-pair input."""

    d_g_d_x: NDArray[np.float64]  # (N, 12, 3)
    d_g_d_y: NDArray[np.float64]  # (N, 12, 3)
    d_g_d_n: NDArray[np.float64]  # (N, 12, 3)
    d_g_d_zeta: NDArray[np.float64]  # (N, 12)
    lam: float
    hessian: NDArray[np.float64]  # (12, 12)


def backward(corr: CorrespondenceSet, source: PointCloud, g) -> GradientBundle:
    """Assemble all per-pair Jacobians of the solved transform.

    The penalty weight from the least-squares fit is clipped into a band
    relative to the data curvature: the fit degenerates to 0/0 at the
    (numerically orthogonal) rotations the forward solver produces, while
    the constraint directions still need a stiff penalty block for the
    minimizer map to be the one the solver realizes. The clip bounds keep
    the factorization accurate in double precision.
    """
    ws = build_workspace(corr, source, g)
    h = _data_hessian(ws)
    scale = float(np.trace(h)) / 12.0
    if not np.isfinite(scale) or scale <= 0.0:
        raise SingularHessian("data curvature vanished; no usable pairs")
    lam = float(np.clip(_fit_lambda(ws), LAMBDA_REL_FLOOR * scale, LAMBDA_REL_CAP * scale))
    _add_penalty(h, ws, lam)
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian(f"12x12 Hessian solve failed: {exc}") from None

    # d g*/d u = -H^{-1} d(grad_g E)/d u for every input u.
    jac = _mixed_blocks(ws, -h_inv)
    return GradientBundle(jac.wrt_x, jac.wrt_y, jac.wrt_n, jac.wrt_zeta, lam, h)


@dataclass(frozen=True)
class PointGradients:
    """Loss gradients chained down to the per-pair inputs."""

    wrt_x: NDArray[np.float64]  # (N, 3)
    wrt_y: NDArray[np.float64]  # (N, 3)
    wrt_n: NDArray[np.float64]  # (N, 3)
    wrt_zeta: NDArray[np.float64]  # (N,)


def chain_blocks(d_loss_d_g, wrt_x, wrt_y, wrt_n, wrt_zeta) -> PointGradients:
    """Chain a loss gradient in g through per-pair (N, 12, 3) and (N, 12)
    Jacobian blocks."""
    v = np.asarray(d_loss_d_g, dtype=np.float64).reshape(12)
    # (N, 36) x (36, 3) product: entry ((k, j), j') of the right factor is
    # v[k] when j == j', so row i contracts v with block i over k.
    v_blocks = (v[:, None, None] * np.eye(3)).reshape(36, 3)
    return PointGradients(
        wrt_x=wrt_x.reshape(-1, 36) @ v_blocks,
        wrt_y=wrt_y.reshape(-1, 36) @ v_blocks,
        wrt_n=wrt_n.reshape(-1, 36) @ v_blocks,
        wrt_zeta=wrt_zeta @ v,
    )


def chain_loss(d_loss_d_g, bundle: GradientBundle) -> PointGradients:
    """Chain a loss gradient in g through every per-pair Jacobian."""
    return chain_blocks(
        d_loss_d_g, bundle.d_g_d_x, bundle.d_g_d_y, bundle.d_g_d_n, bundle.d_g_d_zeta
    )


def rigid_motion_loss(g, gt: RigidTransform):
    """Rotation/translation supervision loss and its exact gradient in g.

    loss = |R^T R_gt - I|_F^2 + |t - t_gt|^2.
    """
    gv = _as_gvector(g)
    rot = gv[:9].reshape(3, 3)
    trans = gv[9:]
    c = rot.T @ gt.rotation - np.eye(3)
    dt = trans - gt.translation
    loss = float(np.sum(c * c) + dt @ dt)
    grad_rot = 2.0 * gt.rotation @ c.T
    grad = np.concatenate([grad_rot.reshape(9), 2.0 * dt])
    return loss, grad

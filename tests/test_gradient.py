"""Backward-pass tests: penalty terms, Hessian, cross-derivatives, chaining."""

import numpy as np
import pytest

from p2plreg.cloud import PointCloud
from p2plreg.correspond import CorrespondenceSet, exact_correspond
from p2plreg.geometry import RigidTransform, random_rotation, to_gvector
from p2plreg.gradcheck import make_instance
from p2plreg.gradient import (
    SingularHessian,
    backward,
    build_workspace,
    chain_loss,
    cross_derivs,
    energy_gradient,
    hessian,
    normal_lift,
    penalty,
    penalty_curvature,
    penalty_gradient,
    penalty_lambda,
    position_lift,
    residual_coeffs,
    rigid_motion_loss,
)
from p2plreg.solver import energy, register_p2pl
from p2plreg.synth import draw_rigid, synth_shape
from p2plreg.seeding import derived_rng


def _random_g(rng):
    return np.concatenate([rng.standard_normal(9), rng.standard_normal(3)])


class TestWorkspace:
    def test_lift_product_reproduces_plane_term(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        n = rng.standard_normal((20, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        coeffs = residual_coeffs(x, n)
        np.testing.assert_array_equal(coeffs, position_lift(x) * normal_lift(n))
        for _ in range(10):
            g = _random_g(rng)
            rot, trans = g[:9].reshape(3, 3), g[9:]
            expect = np.einsum("ni,ni->n", x @ rot.T + trans, n)
            np.testing.assert_allclose(coeffs @ g, expect, atol=1e-12)

    def test_residuals_match_energy(self):
        corr, cloud, gt = make_instance(2, 32, noise=1e-3)
        g = to_gvector(gt)
        ws = build_workspace(corr, cloud, g)
        np.testing.assert_allclose(
            float(np.sum(corr.weights * ws.residuals**2)),
            energy(corr, cloud, gt),
            rtol=1e-12,
        )

    def test_curvature_symmetric(self):
        rng = np.random.default_rng(3)
        corr, cloud, _ = make_instance(3, 8)
        m = build_workspace(corr, cloud, to_gvector(RigidTransform.identity())).curvature
        np.testing.assert_array_equal(m, m.T)
        m2 = penalty_curvature(rng.standard_normal((3, 3)))
        np.testing.assert_allclose(m2, m2.T, atol=1e-12)


class TestPenalty:
    def test_rotation_matrices_are_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert penalty(random_rotation(rng)) <= 1e-18

    def test_doubled_identity(self):
        assert penalty(2.0 * np.eye(3)) == pytest.approx(27.0, abs=1e-13)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal((3, 3))
        c = r.T @ r - np.eye(3)
        expect = sum(c[i, j] ** 2 for i in range(3) for j in range(3))
        assert penalty(r) == pytest.approx(expect, rel=1e-14)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((3, 3)) * 0.6 + np.eye(3)
        grad = penalty_gradient(r)
        h = 1e-6
        for k in range(9):
            rp, rm = r.flatten(), r.flatten()
            rp[k] += h
            rm[k] -= h
            fd = (penalty(rp.reshape(3, 3)) - penalty(rm.reshape(3, 3))) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_curvature_matches_fd_of_gradient(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((3, 3)) * 0.5 + np.eye(3)
        m = 4.0 * penalty_curvature(r)
        h = 1e-6
        fd = np.zeros((9, 9))
        for k in range(9):
            rp, rm = r.flatten(), r.flatten()
            rp[k] += h
            rm[k] -= h
            fd[:, k] = (penalty_gradient(rp.reshape(3, 3)) - penalty_gradient(rm.reshape(3, 3))) / (2 * h)
        np.testing.assert_allclose(m, fd, rtol=1e-5, atol=1e-7)

    def test_curvature_at_orthogonal_r_drops_kron_terms(self):
        from p2plreg.gradient import rotation_row_matrix

        rng = np.random.default_rng(8)
        q = random_rotation(rng)
        rhat = rotation_row_matrix(q)
        np.testing.assert_allclose(
            penalty_curvature(q), rhat * rhat.T + np.eye(9), atol=1e-12
        )


class TestEnergyGradient:
    def test_matches_fd_of_energy(self):
        corr, cloud, _ = make_instance(9, 24, noise=5e-3)
        rng = np.random.default_rng(9)
        g = to_gvector(draw_rigid(rng, 25.0, 0.3)) + 1e-3 * rng.standard_normal(12)
        lam = 0.42
        grad = energy_gradient(corr, cloud, g, lam)
        h = 1e-6

        def e_of(gv):
            t = RigidTransform(gv[:9].reshape(3, 3), gv[9:])
            return energy(corr, cloud, t) + lam * penalty(gv[:9].reshape(3, 3))

        for k in range(12):
            gp, gm = g.copy(), g.copy()
            gp[k] += h
            gm[k] -= h
            fd = (e_of(gp) - e_of(gm)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestPenaltyLambda:
    def test_orthogonal_zero_residual_clamps_to_zero(self):
        cloud = synth_shape("blob", 64, seed=10)
        gt = draw_rigid(derived_rng(10, "gt"), 30.0, 0.3)
        corr = exact_correspond(cloud, gt)
        rep = register_p2pl(corr, cloud, n_iters=10)
        assert penalty_lambda(corr, cloud, to_gvector(rep.transform)) == 0.0

    def test_perturbed_rotation_finite_nonnegative(self):
        corr, cloud, gt = make_instance(11, 48, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        g[:9] += 1e-6 * derived_rng(11, "perturb").standard_normal(9)
        lam = penalty_lambda(corr, cloud, g)
        assert np.isfinite(lam) and lam >= 0.0

    def test_matches_least_squares_oracle(self):
        corr, cloud, gt = make_instance(12, 48, noise=1e-3)
        rng = derived_rng(12, "perturb")
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        g[:9] += 1e-5 * rng.standard_normal(9)
        lam = penalty_lambda(corr, cloud, g)

        ws = build_workspace(corr, cloud, g)
        d_e = 2.0 * np.einsum("n,n,nk->k", corr.weights, ws.residuals, ws.coeffs[:, :9])
        d_p = penalty_gradient(ws.rotation)
        # 1-D least squares: argmin over s of |d_e + s d_p|^2.
        s_fit = -float(d_p @ d_e) / float(d_p @ d_p)
        assert lam == pytest.approx(abs(s_fit), rel=1e-12)


class TestHessian:
    def test_data_term_psd_and_symmetric(self):
        corr, cloud, _ = make_instance(13, 48, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        h = hessian(corr, cloud, g, 0.0)
        np.testing.assert_array_equal(h, h.T)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-10

    def test_matches_fd_of_gradient(self):
        corr, cloud, _ = make_instance(14, 24, noise=5e-3)
        rng = np.random.default_rng(14)
        g = to_gvector(draw_rigid(rng, 30.0, 0.3)) + 1e-3 * rng.standard_normal(12)
        lam = 0.37
        h_analytic = hessian(corr, cloud, g, lam)
        step = 1e-5
        fd = np.zeros((12, 12))
        for k in range(12):
            gp, gm = g.copy(), g.copy()
            gp[k] += step
            gm[k] -= step
            fd[:, k] = (
                energy_gradient(corr, cloud, gp, lam) - energy_gradient(corr, cloud, gm, lam)
            ) / (2 * step)
        assert np.linalg.norm(h_analytic - fd) / np.linalg.norm(fd) <= 1e-5


class TestCrossDerivs:
    def test_zero_residual_drops_second_terms(self):
        # Targets offset tangentially: w = x - y is orthogonal to n, so the
        # residual factor vanishes while the offset itself does not.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((10, 3))
        n = rng.standard_normal((10, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        tangent = np.cross(n, rng.standard_normal((10, 3)))
        y = x + tangent
        corr = CorrespondenceSet(y, n, np.ones(10))
        blocks = cross_derivs(corr, PointCloud(x), to_gvector(RigidTransform.identity()))
        d = residual_coeffs(x, n)
        np.testing.assert_allclose(
            blocks.wrt_n, 2.0 * d[:, :, None] * (x - y)[:, None, :], atol=1e-12
        )
        np.testing.assert_allclose(
            blocks.wrt_x, 2.0 * d[:, :, None] * n[:, None, :], atol=1e-12
        )
        np.testing.assert_allclose(blocks.wrt_zeta, 0.0, atol=1e-14)

    def test_blocks_match_fd_of_gradient(self):
        corr, cloud, _ = make_instance(16, 12, noise=5e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=5).transform)
        blocks = cross_derivs(corr, cloud, g)
        step = 1e-5

        def grad_with(y=None, n=None, x=None, z=None):
            c = CorrespondenceSet(
                corr.targets if y is None else y,
                corr.normals if n is None else n,
                corr.weights if z is None else z,
            )
            s = cloud if x is None else PointCloud(x)
            return energy_gradient(c, s, g, 0.0)

        for i in (0, 5, 11):
            for c in range(3):
                yp, ym = corr.targets.copy(), corr.targets.copy()
                yp[i, c] += step
                ym[i, c] -= step
                fd = (grad_with(y=yp) - grad_with(y=ym)) / (2 * step)
                np.testing.assert_allclose(blocks.wrt_y[i, :, c], fd, rtol=1e-5, atol=1e-9)

                xp, xm = cloud.positions.copy(), cloud.positions.copy()
                xp[i, c] += step
                xm[i, c] -= step
                fd = (grad_with(x=xp) - grad_with(x=xm)) / (2 * step)
                np.testing.assert_allclose(blocks.wrt_x[i, :, c], fd, rtol=1e-5, atol=1e-8)

            zp, zm = corr.weights.copy(), corr.weights.copy()
            zp[i] += step
            zm[i] -= step
            fd = (grad_with(z=zp) - grad_with(z=zm)) / (2 * step)
            np.testing.assert_allclose(blocks.wrt_zeta[i], fd, rtol=1e-5, atol=1e-9)

    def test_normal_block_matches_fd_without_validation(self):
        # Normal perturbations leave the unit sphere, so the FD evaluates
        # the raw quadratic energy instead of building a validated set.
        corr, cloud, _ = make_instance(17, 10, noise=5e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=5).transform)
        blocks = cross_derivs(corr, cloud, g)
        step = 1e-6

        def raw_grad(n):
            d = residual_coeffs(cloud.positions, n)
            res = d @ g - np.einsum("ni,ni->n", corr.targets, n)
            return 2.0 * np.einsum("n,n,nk->k", corr.weights, res, d)

        for i in (0, 4, 9):
            for c in range(3):
                np1, nm1 = corr.normals.copy(), corr.normals.copy()
                np1[i, c] += step
                nm1[i, c] -= step
                fd = (raw_grad(np1) - raw_grad(nm1)) / (2 * step)
                np.testing.assert_allclose(blocks.wrt_n[i, :, c], fd, rtol=1e-5, atol=1e-8)

    def test_weight_scaling_is_exact(self):
        corr, cloud, _ = make_instance(18, 16, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=5).transform)
        doubled = CorrespondenceSet(corr.targets, corr.normals, 2.0 * corr.weights)
        a = cross_derivs(corr, cloud, g)
        b = cross_derivs(doubled, cloud, g)
        np.testing.assert_array_equal(b.wrt_y, 2.0 * a.wrt_y)
        np.testing.assert_array_equal(b.wrt_n, 2.0 * a.wrt_n)
        np.testing.assert_array_equal(b.wrt_x, 2.0 * a.wrt_x)
        np.testing.assert_array_equal(b.wrt_zeta, a.wrt_zeta)


class TestBackward:
    def test_bundle_shapes_and_invariants(self):
        corr, cloud, _ = make_instance(19, 32, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        assert bundle.d_g_d_x.shape == (32, 12, 3)
        assert bundle.d_g_d_zeta.shape == (32, 12)
        assert bundle.lam >= 0.0
        assert np.linalg.norm(bundle.hessian - bundle.hessian.T) <= 1e-10
        assert np.all(np.isfinite(bundle.d_g_d_n))

    def test_matches_fd_oracle_at_ten_iterations(self):
        from p2plreg.gradcheck import FDConfig, compare, fd_bundle

        for seed in (20, 21):
            corr, cloud, gt = make_instance(seed, 48, noise=1e-4)
            rep = register_p2pl(corr, cloud, n_iters=10)
            g = to_gvector(rep.transform)
            bundle = backward(corr, cloud, g)
            fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10))
            _, dldg = rigid_motion_loss(g, gt)
            report = compare(bundle, fd, dldg, 10)
            assert report.rel_mse <= 1e-4

    def test_singular_geometry_raises(self):
        rng = np.random.default_rng(22)
        pts = np.column_stack([rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20), np.zeros(20)])
        normals = np.tile([0.0, 0.0, 1.0], (20, 1))
        corr = CorrespondenceSet(pts, normals, np.ones(20))
        with pytest.raises(SingularHessian):
            backward(corr, PointCloud(pts), to_gvector(RigidTransform.identity()))

    def test_jacobians_consistent_under_conjugation(self):
        # Rotating every input by Q rotates the solution as (Q R Q^T, Q t);
        # the chained gradients of the rotated problem must again match the
        # end-to-end FD oracle of the rotated problem.
        from p2plreg.gradcheck import FDConfig, compare, fd_bundle

        corr, cloud, gt = make_instance(28, 48, noise=1e-4)
        q = random_rotation(np.random.default_rng(28))
        cloud_q = PointCloud(cloud.positions @ q.T, cloud.require_normals() @ q.T)
        corr_q = CorrespondenceSet(corr.targets @ q.T, corr.normals @ q.T, corr.weights)
        gt_q = RigidTransform(q @ gt.rotation @ q.T, q @ gt.translation)

        rep = register_p2pl(corr_q, cloud_q, n_iters=10)
        g = to_gvector(rep.transform)
        bundle = backward(corr_q, cloud_q, g)
        fd = fd_bundle(corr_q, cloud_q, FDConfig(n_iters_forward=10))
        _, dldg = rigid_motion_loss(g, gt_q)
        assert compare(bundle, fd, dldg, 10).rel_mse <= 1e-4


    @pytest.mark.parametrize("n_pts", [32, 1024])
    def test_matches_explicit_solve_of_cross_derivatives(self, n_pts):
        # Textbook form: d g*/d u = -H^{-1} d(grad_g E)/du, one solve per block.
        corr, cloud, _ = make_instance(29, n_pts, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        h = hessian(corr, cloud, g, bundle.lam)
        blocks = cross_derivs(corr, cloud, g)
        pairs = [
            (bundle.d_g_d_y, -np.linalg.solve(h, blocks.wrt_y)),
            (bundle.d_g_d_n, -np.linalg.solve(h, blocks.wrt_n)),
            (bundle.d_g_d_x, -np.linalg.solve(h, blocks.wrt_x)),
            (bundle.d_g_d_zeta, -np.linalg.solve(h, blocks.wrt_zeta.T).T),
        ]
        np.testing.assert_array_equal(bundle.hessian, h)
        for got, expect in pairs:
            np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12 * np.abs(expect).max())

    def test_peak_memory_within_twice_the_bundle(self):
        import tracemalloc

        corr, cloud, gt = make_instance(30, 4096, noise=1e-4)
        g = to_gvector(gt)
        backward(corr, cloud, g)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            bundle = backward(corr, cloud, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(
            a.nbytes
            for a in (bundle.d_g_d_x, bundle.d_g_d_y, bundle.d_g_d_n, bundle.d_g_d_zeta, bundle.hessian)
        )
        assert peak <= 2.0 * returned


class TestChainLoss:
    def test_matches_explicit_contraction(self):
        corr, cloud, gt = make_instance(31, 64, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        _, v = rigid_motion_loss(g, gt)
        out = chain_loss(v, bundle)
        for got, jac in (
            (out.wrt_x, bundle.d_g_d_x),
            (out.wrt_y, bundle.d_g_d_y),
            (out.wrt_n, bundle.d_g_d_n),
        ):
            expect = np.einsum("k,nkj->nj", v, jac)
            np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())
        expect = np.einsum("k,nk->n", v, bundle.d_g_d_zeta)
        np.testing.assert_allclose(
            out.wrt_zeta, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max()
        )

    def test_zero_direction_gives_zeros(self):
        corr, cloud, _ = make_instance(23, 16, noise=1e-3)
        bundle = backward(corr, cloud, register_p2pl(corr, cloud, n_iters=5).transform)
        out = chain_loss(np.zeros(12), bundle)
        assert not out.wrt_x.any() and not out.wrt_zeta.any()

    def test_exactly_linear(self):
        corr, cloud, _ = make_instance(24, 16, noise=1e-3)
        bundle = backward(corr, cloud, register_p2pl(corr, cloud, n_iters=5).transform)
        rng = np.random.default_rng(24)
        u, v = rng.standard_normal(12), rng.standard_normal(12)
        a, b = 1.75, -0.5
        combo = chain_loss(a * u + b * v, bundle)
        cu, cv = chain_loss(u, bundle), chain_loss(v, bundle)
        np.testing.assert_allclose(combo.wrt_x, a * cu.wrt_x + b * cv.wrt_x, atol=1e-12)
        np.testing.assert_allclose(combo.wrt_zeta, a * cu.wrt_zeta + b * cv.wrt_zeta, atol=1e-12)


class TestRigidMotionLoss:
    def test_zero_at_truth(self):
        gt = draw_rigid(derived_rng(25, "gt"), 30.0, 0.4)
        loss, grad = rigid_motion_loss(to_gvector(gt), gt)
        assert loss <= 1e-28
        np.testing.assert_allclose(grad[9:], 0.0, atol=1e-14)

    def test_translation_offset_contributes_quarter(self):
        gt = draw_rigid(derived_rng(26, "gt"), 30.0, 0.4)
        g = to_gvector(gt).copy()
        g[11] += 0.5
        loss, _ = rigid_motion_loss(g, gt)
        assert loss == pytest.approx(0.25, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(27)
        gt = draw_rigid(rng, 30.0, 0.4)
        g = to_gvector(draw_rigid(rng, 30.0, 0.4)) + 0.01 * rng.standard_normal(12)
        _, grad = rigid_motion_loss(g, gt)
        h = 1e-6
        for k in range(12):
            gp, gm = g.copy(), g.copy()
            gp[k] += h
            gm[k] -= h
            fd = (rigid_motion_loss(gp, gt)[0] - rigid_motion_loss(gm, gt)[0]) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-7, abs=1e-10)

"""Backward-pass tests: penalty terms, Hessian, cross-derivatives, chaining."""

import numpy as np
import pytest

from p2plreg.cloud import PointCloud
from p2plreg.correspond import CorrespondenceSet
from p2plreg.geometry import (
    RigidTransform,
    from_gvector,
    random_rotation,
    step_jacobian,
    to_gvector,
)
from p2plreg.gradcheck import FDConfig, fd_bundle, make_instance
from p2plreg.gradient import (
    SingularHessian,
    _plane_offsets,
    backward,
    chain_loss,
    cross_derivs,
    energy_gradient,
    hessian,
    penalty,
    penalty_curvature,
    penalty_gradient,
    residual_coeffs,
    rigid_motion_loss,
)
from p2plreg.solver import CONDITION_LIMIT, _moments, energy, register_p2pl
from p2plreg.synth import draw_rigid
from p2plreg.seeding import derived_rng
# The forward's system as whole arrays, the reference the solver tests pin
# the kernel's rounds to.
from test_solver import _assert_same_bits, _whole_system


def _random_g(rng):
    return np.concatenate([rng.standard_normal(9), rng.standard_normal(3)])


class TestWorkspace:
    def test_lift_product_reproduces_plane_term(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        n = rng.standard_normal((20, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        coeffs = residual_coeffs(x, n)
        for _ in range(10):
            g = _random_g(rng)
            rot, trans = g[:9].reshape(3, 3), g[9:]
            expect = np.einsum("ni,ni->n", x @ rot.T + trans, n)
            np.testing.assert_allclose(coeffs @ g, expect, atol=1e-12)

    def test_residuals_match_energy(self):
        corr, cloud, gt = make_instance(2, 32, noise=1e-3)
        _, residuals = _plane_offsets(corr, cloud, gt)
        np.testing.assert_allclose(
            float(np.sum(corr.weights * residuals**2)),
            energy(corr, cloud, gt),
            rtol=1e-12,
        )

    def test_curvature_symmetric(self):
        rng = np.random.default_rng(3)
        m = penalty_curvature(np.eye(3))
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

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_builder_applies_any_p_to_the_formula_blocks(self, k):
        # The four mixed-derivative formulas of the builder's docstring,
        # spelled out per pair with explicit residual gradients d_i, at a
        # general g (not a rotation) so every residual term is live.
        from p2plreg.gradient import _mixed_blocks

        corr, cloud, gt = make_instance(40 + k, 50, noise=1e-3)
        rng = np.random.default_rng(40 + k)
        g = to_gvector(gt) + 0.1 * rng.standard_normal(12)
        p = rng.standard_normal((k, 12))
        x, y, n, zeta = cloud.positions, corr.targets, corr.normals, corr.weights
        rot = g[:9].reshape(3, 3)
        w = x @ rot.T + g[9:] - y
        r = np.einsum("ni,ni->n", w, n)
        d = residual_coeffs(x, n)
        dd_dn = np.stack(
            [np.vstack([np.kron(np.eye(3), xi[:, None]), np.eye(3)]) for xi in x]
        )
        dd_dx = np.stack(
            [np.vstack([np.kron(ni[:, None], np.eye(3)), np.zeros((3, 3))]) for ni in n]
        )
        zr2 = (2.0 * zeta * r)[:, None, None]
        formulas = {
            "wrt_y": -2.0 * zeta[:, None, None] * d[:, :, None] * n[:, None, :],
            "wrt_n": 2.0 * zeta[:, None, None] * d[:, :, None] * w[:, None, :] + zr2 * dd_dn,
            "wrt_x": 2.0 * zeta[:, None, None] * d[:, :, None] * (n @ rot)[:, None, :]
            + zr2 * dd_dx,
        }
        got = _mixed_blocks(corr, cloud, from_gvector(g), p)
        for name, blocks in formulas.items():
            expect = np.einsum("kj,njs->nks", p, blocks)
            assert np.abs(getattr(got, name) - expect).max() <= 1e-13 * np.abs(expect).max()
        expect = (2.0 * r[:, None] * d) @ p.T
        assert np.abs(got.wrt_zeta - expect).max() <= 1e-13 * np.abs(expect).max()

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
        jac = bundle.jacobians()
        assert jac.wrt_x.shape == (32, 12, 3)
        assert jac.wrt_zeta.shape == (32, 12)
        assert bundle.hessian.shape == (6, 6)
        np.testing.assert_allclose(
            bundle.hessian, bundle.hessian.T, rtol=0, atol=1e-13 * np.abs(bundle.hessian).max()
        )
        assert bundle.condition_warning is False
        assert np.all(np.isfinite(jac.wrt_n))

    def test_bundle_keeps_inputs_and_factors_only(self):
        corr, cloud, _ = make_instance(41, 32, noise=1e-3)
        t = register_p2pl(corr, cloud, n_iters=10).transform
        bundle = backward(corr, cloud, t)
        assert bundle.correspondences is corr and bundle.source is cloud
        assert bundle.h_inv.shape == (12, 12)
        assert bundle.hessian.shape == (6, 6)
        held = [v for v in vars(bundle).values() if isinstance(v, np.ndarray)]
        assert held and all(len(v) != len(corr) for v in held)
        v = np.random.default_rng(41).standard_normal(12)
        by_transform = chain_loss(v, bundle)
        by_vector = chain_loss(v, backward(corr, cloud, to_gvector(t)))
        for name in ("wrt_x", "wrt_y", "wrt_n", "wrt_zeta"):
            np.testing.assert_array_equal(getattr(by_transform, name), getattr(by_vector, name))

    def test_in_place_update_of_g_does_not_reach_bundle(self):
        corr, cloud, gt = make_instance(43, 32, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        before = chain_loss(np.ones(12), bundle).wrt_x
        g += 0.1
        np.testing.assert_array_equal(chain_loss(np.ones(12), bundle).wrt_x, before)

    def test_inputs_cannot_change_in_place_after_backward(self):
        corr, cloud, _ = make_instance(44, 32, noise=1e-3)
        positions = np.array(cloud.positions)
        cloud = PointCloud(positions, cloud.normals)
        t = register_p2pl(corr, cloud, n_iters=10).transform
        bundle = backward(corr, cloud, t)
        before = chain_loss(np.ones(12), bundle).wrt_x
        arrays = (cloud.positions, cloud.normals, corr.targets, corr.normals, corr.weights,
                  t.rotation, t.translation)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[:] += 0.1
        np.testing.assert_array_equal(chain_loss(np.ones(12), bundle).wrt_x, before)
        positions[0] += 0.1  # the caller's own array stays writable
        assert positions.flags.writeable

    @pytest.mark.parametrize(
        "call",
        [
            lambda corr, src, g: backward(corr, src, g),
            lambda corr, src, g: cross_derivs(corr, src, g),
            lambda corr, src, g: energy_gradient(corr, src, g),
            lambda corr, src, g: hessian(corr, src, g, 0.0),
            lambda corr, src, g: fd_bundle(corr, src, FDConfig(n_iters_forward=2)),
        ],
        ids=["backward", "cross_derivs", "energy_gradient", "hessian", "fd_bundle"],
    )
    def test_size_mismatch_rejected(self, call):
        corr, cloud, gt = make_instance(45, 16, noise=1e-3)
        short = PointCloud(cloud.positions[:10], cloud.normals[:10])
        with pytest.raises(ValueError, match="correspondence count 16 does not match source size 10"):
            call(corr, short, to_gvector(gt))

    def test_short_transform_vector_rejected(self):
        corr, cloud, gt = make_instance(42, 16, noise=1e-3)
        g = to_gvector(gt)[:11]
        for call in (
            lambda: backward(corr, cloud, g),
            lambda: cross_derivs(corr, cloud, g),
            lambda: energy_gradient(corr, cloud, g),
            lambda: hessian(corr, cloud, g, 0.0),
            lambda: rigid_motion_loss(g, gt),
        ):
            with pytest.raises(ValueError, match="length 12"):
                call()

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
        with pytest.raises(SingularHessian, match="chart Hessian: singular 6x6 system"):
            backward(corr, PointCloud(pts), to_gvector(RigidTransform.identity()))

    def test_non_finite_transform_vector_rejected(self):
        corr, cloud, gt = make_instance(22, 16, noise=1e-3)
        g = to_gvector(gt)
        g[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            backward(corr, cloud, g)

    @pytest.mark.parametrize("seed", [38, 39])
    @pytest.mark.parametrize("n_pts", [64, 1024])
    def test_is_the_stiff_penalty_limit(self, n_pts, seed):
        # The penalized 12x12 form at a penalty weight 1e6 times the mean
        # data curvature tends to J (J^T H_data J)^{-1} J^T as the weight grows.
        corr, cloud, _ = make_instance(seed, n_pts, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        lam = 1e6 * float(np.trace(hessian(corr, cloud, g, 0.0))) / 12.0
        h = hessian(corr, cloud, g, lam)
        blocks = cross_derivs(corr, cloud, g)
        jac = bundle.jacobians()
        for got, expect in (
            (jac.wrt_y, -np.linalg.solve(h, blocks.wrt_y)),
            (jac.wrt_n, -np.linalg.solve(h, blocks.wrt_n)),
            (jac.wrt_x, -np.linalg.solve(h, blocks.wrt_x)),
            (jac.wrt_zeta, -np.linalg.solve(h, blocks.wrt_zeta.T).T),
        ):
            assert np.abs(got - expect).max() <= 2e-6 * np.abs(expect).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fd_oracle_far_from_origin(self, seed):
        # The step chart rotates about the moved centroid, so a scene offset
        # leaves H as well conditioned as at the origin, even where a chart
        # about the world origin is singular (1e3 and beyond): the condition
        # flag stays clear, and the chained gradients must match the oracle.
        from p2plreg.gradcheck import FDConfig, compare, fd_bundle

        for scale in (0.0, 3e2, 1e3, 1e5):
            c = scale * np.array([1.0, -2.0, 0.5])
            corr, cloud, gt = make_instance(seed, 64, noise=1e-4)
            cloud = PointCloud(cloud.positions + c, cloud.normals)
            corr = CorrespondenceSet(corr.targets + c, corr.normals, corr.weights)
            gt = RigidTransform(gt.rotation, gt.translation + c - gt.rotation @ c)
            g = to_gvector(register_p2pl(corr, cloud, n_iters=30).transform)
            bundle = backward(corr, cloud, g)
            assert bundle.condition_warning is False
            fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=30))
            _, dldg = rigid_motion_loss(g, gt)
            assert compare(bundle, fd, dldg, 30).rel_mse <= 1e-4

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


    @pytest.mark.parametrize("n_pts", [16, 32, 64, 1024])
    @pytest.mark.parametrize("noise", [0.0, 1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("n_iters", [1, 10])
    def test_matches_explicit_solve_of_cross_derivatives(self, n_iters, noise, n_pts):
        # Textbook form in the step chart: d g*/d u = -J H^{-1} J^T
        # d(grad_g E)/du with H = J^T H_data J, one solve per block. The
        # chart rotates about the moved centroid t_c = t + R mu, so J is
        # step_jacobian(R, -R mu) in g = (R, t). The bundle's H is twice the
        # forward's own 6x6 system at t_c, sign bits included, which agrees
        # with the textbook H to rounding.
        corr, cloud, _ = make_instance(29, n_pts, noise=noise)
        t = register_p2pl(corr, cloud, n_iters=n_iters).transform
        g = to_gvector(t)
        bundle = backward(corr, cloud, g)
        moments = _moments(cloud.positions, corr.targets, corr.normals, corr.weights)
        r_mu = t.rotation @ moments.mu[0]
        forward_a = _whole_system(moments, t.rotation[None], (t.translation + r_mu)[None])[0][0]
        jac = step_jacobian(t.rotation, -r_mu)
        h = jac.T @ hessian(corr, cloud, g, 0.0) @ jac
        blocks = cross_derivs(corr, cloud, g)

        def solved(b):
            return -jac @ np.linalg.solve(h, jac.T @ b)

        jacobians = bundle.jacobians()
        pairs = [
            (jacobians.wrt_y, solved(blocks.wrt_y)),
            (jacobians.wrt_n, solved(blocks.wrt_n)),
            (jacobians.wrt_x, solved(blocks.wrt_x)),
            (jacobians.wrt_zeta, solved(blocks.wrt_zeta.T).T),
        ]
        _assert_same_bits(bundle.hessian, 2.0 * forward_a)
        pivots = np.linalg.cholesky(bundle.hessian).diagonal() ** 2
        assert bundle.condition_warning == (pivots.max() / pivots.min() > CONDITION_LIMIT)
        np.testing.assert_allclose(bundle.hessian, h, rtol=0, atol=1e-14 * np.abs(h).max())
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
        jac = bundle.jacobians()
        returned = sum(
            a.nbytes for a in (jac.wrt_x, jac.wrt_y, jac.wrt_n, jac.wrt_zeta, bundle.hessian)
        )
        assert peak <= 2.0 * returned


class TestLazyJacobians:
    def test_jacobians_is_one_mixed_blocks_call(self, monkeypatch):
        from p2plreg import gradient

        calls = []
        real = gradient._mixed_blocks

        def counting(corr, source, t, p):
            calls.append(p.shape)
            return real(corr, source, t, p)

        monkeypatch.setattr(gradient, "_mixed_blocks", counting)
        corr, cloud, _ = make_instance(32, 48, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        assert calls == []
        jac = bundle.jacobians()
        assert calls == [(12, 12)]
        expect = real(corr, cloud, from_gvector(g), -bundle.h_inv)
        for got, want in (
            (jac.wrt_x, expect.wrt_x),
            (jac.wrt_y, expect.wrt_y),
            (jac.wrt_n, expect.wrt_n),
            (jac.wrt_zeta, expect.wrt_zeta),
        ):
            np.testing.assert_array_equal(got, want)

    def test_chain_loss_reads_no_jacobian(self, monkeypatch):
        from p2plreg import gradient

        calls = []
        real = gradient._mixed_blocks
        monkeypatch.setattr(
            gradient,
            "_mixed_blocks",
            lambda corr, source, t, p: calls.append(p.shape) or real(corr, source, t, p),
        )
        corr, cloud, gt = make_instance(33, 32, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        _, v = rigid_motion_loss(g, gt)
        chain_loss(v, backward(corr, cloud, g))
        assert calls == [(1, 12)]

    def test_compare_sees_scaled_position_block(self, monkeypatch):
        from p2plreg.gradcheck import FDConfig, compare, fd_bundle
        from p2plreg.gradient import GradientBundle, PerInput

        corr, cloud, gt = make_instance(34, 24, noise=1e-4)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10))
        _, v = rigid_motion_loss(g, gt)
        honest = compare(bundle, fd, v, 10)
        real = GradientBundle.jacobians

        def scaled(self):
            jac = real(self)
            return PerInput(1.1 * jac.wrt_x, jac.wrt_y, jac.wrt_n, jac.wrt_zeta)

        monkeypatch.setattr(GradientBundle, "jacobians", scaled)
        corrupted = compare(bundle, fd, v, 10)
        assert corrupted.rel_mse > honest.rel_mse
        assert corrupted.per_input["x"][1] > honest.per_input["x"][1]
        assert corrupted.per_input["y"] == honest.per_input["y"]


class TestChainLoss:
    @pytest.mark.parametrize("seed", [31, 35, 36, 37])
    @pytest.mark.parametrize("n_pts", [64, 4096])
    def test_vjp_matches_einsum_over_materialized_blocks(self, n_pts, seed):
        corr, cloud, gt = make_instance(seed, n_pts, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        _, v = rigid_motion_loss(g, gt)
        out = chain_loss(v, bundle)
        jac = bundle.jacobians()
        for got, blocks in (
            (out.wrt_x, jac.wrt_x),
            (out.wrt_y, jac.wrt_y),
            (out.wrt_n, jac.wrt_n),
        ):
            expect = np.einsum("k,nkj->nj", v, blocks)
            np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())
        expect = np.einsum("k,nk->n", v, jac.wrt_zeta)
        np.testing.assert_allclose(
            out.wrt_zeta, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max()
        )

    def test_peak_memory_below_half_the_jacobians(self):
        import tracemalloc

        n_pts = 4096
        corr, cloud, gt = make_instance(30, n_pts, noise=1e-4)
        g = to_gvector(gt)
        v = np.ones(12)
        chain_loss(v, backward(corr, cloud, g))  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            chain_loss(v, backward(corr, cloud, g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The four per-pair Jacobians hold 120 N doubles.
        assert peak <= 0.5 * 120 * n_pts * 8

    def test_zero_direction_gives_zeros(self):
        corr, cloud, _ = make_instance(23, 16, noise=1e-3)
        bundle = backward(corr, cloud, register_p2pl(corr, cloud, n_iters=5).transform)
        out = chain_loss(np.zeros(12), bundle)
        assert not out.wrt_x.any() and not out.wrt_zeta.any()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, value):
        # NaN used to give NaN gradients, and inf gradients with a warning.
        corr, cloud, _ = make_instance(23, 16, noise=1e-3)
        bundle = backward(corr, cloud, register_p2pl(corr, cloud, n_iters=5).transform)
        v = np.ones(12)
        v[7] = value
        with pytest.raises(ValueError, match="d_loss_d_g must be finite"):
            chain_loss(v, bundle)

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

    @pytest.mark.parametrize("n_pts", [16, 64, 1024])
    @pytest.mark.parametrize("n_iters", [1, 2, 10])
    def test_target_shift_identity(self, n_iters, n_pts):
        # Shifting every target by c shifts the minimizer to (R, t + c):
        # sum_i d g*/d y_i is [0; I], with no oracle. The sum of the mixed
        # blocks is minus the data Hessian's translation columns, which
        # J H^{-1} J^T maps onto themselves, so this holds at any round
        # count, converged or not. Measured worst: 1.1e-13 max|v| here.
        rng = np.random.default_rng(n_iters * 10_000 + n_pts)
        for seed in range(5):
            for noise in (0.0, 1e-4, 1e-2):
                corr, cloud, _ = make_instance(seed, n_pts, noise=noise)
                t = register_p2pl(corr, cloud, n_iters=n_iters).transform
                v = rng.standard_normal(12)
                got = chain_loss(v, backward(corr, cloud, t)).wrt_y.sum(0)
                err = np.max(np.abs(got - v[9:]))
                assert err <= 1e-12 * np.max(np.abs(v)), (seed, noise, err)


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

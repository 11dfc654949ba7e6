"""Forward solver tests: energy, the 6x6 system, accumulation, ICP."""

import numpy as np
import pytest

from p2plreg.cloud import PointCloud
from p2plreg.correspond import CorrespondenceSet, exact_correspond, nn_correspond
from p2plreg.geometry import (
    RigidTransform,
    apply_transform,
    log_rotation,
    random_rotation,
    rodrigues,
    to_gvector,
)
from p2plreg.solver import (
    CONDITION_LIMIT,
    DegenerateConfiguration,
    SingularSystem,
    _accumulate_batch,
    _factor,
    _moments,
    _solve_batch,
    _system_from_moments,
    energy,
    icp,
    register_p2pl,
    register_procrustes,
)
from p2plreg.gradcheck import make_instance
from p2plreg.synth import SynthConfig, draw_rigid, make_cpu_pair, synth_shape
from p2plreg.seeding import derived_rng


def _identity():
    return RigidTransform.identity()


def _system_at_identity(corr, source):
    """The kernel's 6x6 system (A, b) before its first round: R = I and the
    moved centroid t_c at the weighted source centroid mu."""
    mu, _, _, m, q0 = _moments(source.positions, corr.targets, corr.normals, corr.weights)
    a, b, _ = _system_from_moments(m[None], q0[None], mu[None], np.eye(3)[None], mu[None])
    return a[0], b[0]


def _one_step(corr, source, damping=0.0):
    """One accumulation round from the identity."""
    return register_p2pl(corr, source, n_iters=1, damping=damping).transform


def _per_point_register(corr, source, n_iters):
    """Reference accumulation: every round rebuilds the 6x6 system point by
    point from the moved source, rows [p_i x n_i; n_i] at p_i = R x_i + t."""
    rot, trans = np.eye(3), np.zeros(3)
    for _ in range(n_iters):
        a = np.zeros((6, 6))
        b = np.zeros(6)
        for x, y, n, z in zip(source.positions, corr.targets, corr.normals, corr.weights):
            p = rot @ x + trans
            v = np.concatenate([np.cross(p, n), n])
            a += z * np.outer(v, v)
            b += z * v * ((y - p) @ n)
        sol = np.linalg.solve(a, b)
        step = rodrigues(sol[:3])
        rot = step @ rot
        trans = step @ trans + sol[3:]
    return rot, trans


class TestEnergy:
    def test_aligned_is_zero(self):
        cloud = synth_shape("blob", 64, seed=1)
        corr = exact_correspond(cloud, _identity())
        assert energy(corr, cloud, _identity()) == 0.0

    def test_single_pair_quarter(self):
        source = PointCloud(np.zeros((1, 3)))
        corr = CorrespondenceSet(
            np.array([[0.0, 0.0, 0.5]]), np.array([[0.0, 0.0, 1.0]]), np.ones(1)
        )
        assert energy(corr, source, _identity()) == pytest.approx(0.25, abs=1e-15)

    def test_linear_in_weights(self):
        cloud = synth_shape("blob", 32, seed=2)
        gt = draw_rigid(derived_rng(2, "gt"), 20.0, 0.2)
        corr = exact_correspond(cloud, gt)
        base = energy(corr, cloud, _identity())
        scaled = CorrespondenceSet(corr.targets, corr.normals, 3.0 * corr.weights)
        assert energy(scaled, cloud, _identity()) == pytest.approx(3.0 * base, rel=1e-12)


class TestAssemble:
    def test_aligned_rhs_zero(self):
        cloud = synth_shape("blob", 48, seed=3)
        corr = exact_correspond(cloud, _identity())
        _, b = _system_at_identity(corr, cloud)
        np.testing.assert_array_equal(b, np.zeros(6))

    def test_plane_is_rank_deficient(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), np.zeros(50)])
        normals = np.tile([0.0, 0.0, 1.0], (50, 1))
        corr = CorrespondenceSet(pts, normals, np.ones(50))
        a, _ = _system_at_identity(corr, PointCloud(pts))
        assert np.linalg.matrix_rank(a, tol=1e-10) <= 3

    def test_matches_per_term_oracle(self):
        rng = np.random.default_rng(5)
        cloud = synth_shape("blob", 40, seed=5)
        gt = draw_rigid(derived_rng(5, "gt"), 25.0, 0.3)
        corr = exact_correspond(cloud, gt, weights=rng.uniform(0.2, 2.0, 40))
        got_a, got_b = _system_at_identity(corr, cloud)

        # Rows [(x_i - mu) x n_i; n_i]: the step rotates about the centroid.
        mu = corr.weights @ cloud.positions / corr.weights.sum()
        a = np.zeros((6, 6))
        b = np.zeros(6)
        for i in range(40):
            v = np.concatenate(
                [np.cross(cloud.positions[i] - mu, corr.normals[i]), corr.normals[i]]
            )
            a += corr.weights[i] * np.outer(v, v)
            b += corr.weights[i] * v * ((corr.targets[i] - cloud.positions[i]) @ corr.normals[i])
        np.testing.assert_allclose(got_a, a, atol=1e-12)
        np.testing.assert_allclose(got_b, b, atol=1e-12)

    def test_symmetric_and_psd(self):
        cloud = synth_shape("blob", 100, seed=6)
        corr = exact_correspond(cloud, draw_rigid(derived_rng(6, "gt"), 30.0, 0.3))
        a, _ = _system_at_identity(corr, cloud)
        np.testing.assert_array_equal(a, a.T)
        assert np.min(np.linalg.eigvalsh(a)) >= -1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        cloud = synth_shape("blob", 2000, seed=7)
        corr = exact_correspond(cloud, draw_rigid(derived_rng(7, "gt"), 30.0, 0.3))
        perm = rng.permutation(2000)
        shuffled_cloud = PointCloud(cloud.positions[perm], cloud.normals[perm])
        shuffled = CorrespondenceSet(
            corr.targets[perm], corr.normals[perm], corr.weights[perm]
        )
        a1, _ = _system_at_identity(corr, cloud)
        a2, _ = _system_at_identity(shuffled, shuffled_cloud)
        np.testing.assert_allclose(a1, a2, atol=1e-12)


class TestSolveStep:
    """One accumulation round from the identity: ``register_p2pl`` with
    n_iters=1."""

    def test_zero_rhs_gives_identity(self):
        cloud = synth_shape("blob", 48, seed=8)
        corr = exact_correspond(cloud, _identity())
        t = _one_step(corr, cloud)
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, np.zeros(3))

    def test_small_rotation_one_step(self):
        # One linearized step carries an O(theta^2) error; at 0.2 degrees it
        # recovers the motion to 1e-4 rad (measured ~3e-5 over these seeds).
        for seed in range(5):
            cloud = synth_shape("blob", 256, seed=seed)
            axis = derived_rng(seed, "axis").standard_normal(3)
            axis /= np.linalg.norm(axis)
            gt = RigidTransform(rodrigues(np.radians(0.2) * axis), np.zeros(3))
            corr = exact_correspond(cloud, gt)
            step = _one_step(corr, cloud)
            err = np.linalg.norm(log_rotation(step.rotation.T @ gt.rotation))
            assert err <= 1e-4

    def test_one_step_error_is_second_order(self):
        # Error ratio between 2 deg and 0.2 deg fixtures is ~100x.
        errs = {}
        for deg in (2.0, 0.2):
            worst = 0.0
            for seed in range(5):
                cloud = synth_shape("blob", 256, seed=seed)
                axis = derived_rng(seed, "axis").standard_normal(3)
                axis /= np.linalg.norm(axis)
                gt = RigidTransform(rodrigues(np.radians(deg) * axis), np.zeros(3))
                corr = exact_correspond(cloud, gt)
                step = _one_step(corr, cloud)
                worst = max(worst, np.linalg.norm(log_rotation(step.rotation.T @ gt.rotation)))
            errs[deg] = worst
        assert errs[2.0] <= 1e-2
        assert 30.0 <= errs[2.0] / errs[0.2] <= 300.0

    def test_two_steps_at_two_degrees(self):
        for seed in range(5):
            cloud = synth_shape("blob", 256, seed=seed)
            axis = derived_rng(seed, "axis").standard_normal(3)
            axis /= np.linalg.norm(axis)
            gt = RigidTransform(rodrigues(np.radians(2.0) * axis), np.zeros(3))
            corr = exact_correspond(cloud, gt)
            rep = register_p2pl(corr, cloud, n_iters=2)
            err = np.linalg.norm(log_rotation(rep.transform.rotation.T @ gt.rotation))
            assert err <= 1e-4

    def test_plane_only_raises(self):
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), np.zeros(30)])
        normals = np.tile([0.0, 0.0, 1.0], (30, 1))
        corr = CorrespondenceSet(pts + [0, 0, 0.1], normals, np.ones(30))
        with pytest.raises(SingularSystem):
            _one_step(corr, PointCloud(pts))

    def test_damping_rescues_plane(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), np.zeros(30)])
        normals = np.tile([0.0, 0.0, 1.0], (30, 1))
        corr = CorrespondenceSet(pts + [0, 0, 0.1], normals, np.ones(30))
        t = _one_step(corr, PointCloud(pts), damping=1e-6)
        assert np.isfinite(t.translation).all()


@pytest.mark.parametrize("damping", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("solve", ["register_p2pl", "icp", "icp_no_rounds"])
def test_invalid_damping_rejected(solve, damping):
    # icp checks damping at entry, so a run of zero rounds cannot hide it.
    cloud = synth_shape("blob", 64, seed=5)
    corr = exact_correspond(cloud, draw_rigid(derived_rng(5, "gt"), 15.0, 0.1))
    call = {
        "register_p2pl": lambda: register_p2pl(corr, cloud, n_iters=3, damping=damping),
        "icp": lambda: icp(cloud, cloud, method="p2pl", max_outer=2, damping=damping),
        "icp_no_rounds": lambda: icp(cloud, cloud, method="p2pl", max_outer=0, damping=damping),
    }[solve]
    with pytest.raises(ValueError, match="damping must be finite and non-negative"):
        call()


class TestRegisterP2pl:
    def test_identity_converges_immediately(self):
        cloud = synth_shape("blob", 64, seed=11)
        corr = exact_correspond(cloud, _identity())
        rep = register_p2pl(corr, cloud, n_iters=5)
        np.testing.assert_allclose(rep.transform.rotation, np.eye(3), atol=1e-15)
        assert rep.converged
        assert rep.energy_trace[1] <= 1e-28
        assert len(rep.energy_trace) == rep.iterations + 1

    def test_recovers_full_strength_transform(self):
        for seed in range(10):
            cloud = synth_shape("blob", 256, seed=seed)
            gt = draw_rigid(derived_rng(seed, "gt"), 45.0, 0.5)
            corr = exact_correspond(cloud, gt)
            rep = register_p2pl(corr, cloud, n_iters=10)
            r_err = np.linalg.norm(log_rotation(rep.transform.rotation.T @ gt.rotation))
            t_err = np.linalg.norm(rep.transform.translation - gt.translation)
            assert r_err < 1e-6 and t_err < 1e-6

    def test_energy_trace_never_ends_higher_200_cases(self):
        from p2plreg.gradcheck import make_instance

        for seed in range(200):
            corr, cloud, _ = make_instance(seed, 48, noise=2e-3)
            rep = register_p2pl(corr, cloud, n_iters=10)
            assert rep.energy_trace[-1] <= rep.energy_trace[0]

    def test_uniform_weight_consistency(self):
        cloud = synth_shape("blob", 128, seed=12)
        gt = draw_rigid(derived_rng(12, "gt"), 30.0, 0.4)
        corr1 = exact_correspond(cloud, gt)
        corr7 = CorrespondenceSet(corr1.targets, corr1.normals, 7.0 * corr1.weights)
        g1 = to_gvector(register_p2pl(corr1, cloud, n_iters=10).transform)
        g7 = to_gvector(register_p2pl(corr7, cloud, n_iters=10).transform)
        np.testing.assert_allclose(g1, g7, atol=1e-12)

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(13)
        from p2plreg.gradcheck import make_instance

        corr, cloud, _ = make_instance(13, 96, noise=1e-3)
        base = register_p2pl(corr, cloud, n_iters=10).transform
        for _ in range(10):
            q = random_rotation(rng)
            cloud_q = PointCloud(cloud.positions @ q.T, cloud.require_normals() @ q.T)
            corr_q = CorrespondenceSet(corr.targets @ q.T, corr.normals @ q.T, corr.weights)
            out = register_p2pl(corr_q, cloud_q, n_iters=10).transform
            np.testing.assert_allclose(out.rotation, q @ base.rotation @ q.T, atol=1e-8)
            np.testing.assert_allclose(out.translation, q @ base.translation, atol=1e-8)

    def test_rotation_invariants_hold(self):
        from p2plreg.gradcheck import make_instance

        for seed in range(20):
            corr, cloud, _ = make_instance(seed, 48, noise=5e-3)
            r = register_p2pl(corr, cloud, n_iters=10).transform.rotation
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (3e2, -6e2, 1.5e2)])
    def test_matches_per_point_reference(self, offset):
        # The moment kernel forms its 12x12 moments once; the reference
        # re-assembles from the moved points every round. Far from the
        # origin the first rounds overshoot, so compare converged solves.
        from p2plreg.gradcheck import make_instance

        offset = np.asarray(offset)
        scale = max(1.0, float(np.linalg.norm(offset)))
        for seed in range(4):
            corr, cloud, _ = make_instance(seed, 96, noise=1e-3)
            cloud = PointCloud(cloud.positions + offset, cloud.normals)
            corr = CorrespondenceSet(corr.targets + offset, corr.normals, corr.weights)
            got = register_p2pl(corr, cloud, n_iters=10).transform
            rot, trans = _per_point_register(corr, cloud, 10)
            assert np.max(np.abs(got.rotation - rot)) <= 1e-12
            assert np.max(np.abs(got.translation - trans)) <= 1e-12 * scale

    @pytest.mark.parametrize("scale", [3e2, 1e3, 1e5])
    def test_far_from_origin_matches_unshifted_solve(self, scale):
        # Shifting the scene by c moves the solution to (R, t + c - R c).
        # The step rotates about the moved centroid, so the system stays as
        # well conditioned as at the origin. Shifting the inputs rounds them
        # by eps |c|; R inherits that, and t inherits R's error times |c|.
        from p2plreg.gradcheck import make_instance

        c = scale * np.array([1.0, -2.0, 0.5])
        size = float(np.linalg.norm(c))
        for seed in range(8):
            corr, cloud, _ = make_instance(seed, 512)
            base = register_p2pl(corr, cloud, n_iters=10).transform
            shifted = register_p2pl(
                CorrespondenceSet(corr.targets + c, corr.normals, corr.weights),
                PointCloud(cloud.positions + c, cloud.normals),
                n_iters=10,
            )
            assert not shifted.condition_warning
            got = shifted.transform
            want_t = base.translation + c - base.rotation @ c
            assert np.max(np.abs(got.rotation - base.rotation)) <= 1e-15 * size
            assert np.max(np.abs(got.translation - want_t)) <= 1e-15 * size * size

    def test_energy_trace_is_point_form_energy(self):
        # The trace comes from deflated residuals; it must be the plane
        # energy of the moved source after every round.
        from p2plreg.gradcheck import make_instance

        corr, cloud, _ = make_instance(5, 200, noise=1e-3)
        rep = register_p2pl(corr, cloud, n_iters=4)
        for k in range(5):
            t = register_p2pl(corr, cloud, n_iters=k).transform if k else _identity()
            want = energy(corr, cloud, t)
            assert rep.energy_trace[k] == pytest.approx(want, rel=1e-9)

    def test_singular_error_carries_iteration(self):
        rng = np.random.default_rng(14)
        pts = np.column_stack([rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), np.zeros(30)])
        normals = np.tile([0.0, 0.0, 1.0], (30, 1))
        corr = CorrespondenceSet(pts + [0, 0, 0.1], normals, np.ones(30))
        with pytest.raises(SingularSystem) as err:
            register_p2pl(corr, PointCloud(pts), n_iters=3)
        assert err.value.iteration == 0


class TestReportedCounts:
    # _accumulate_batch can report the transform after chosen round counts;
    # asking for them must not change the run, and each report must be the
    # transform a run of that many rounds returns.

    @staticmethod
    def _stacked_moments(seeds, n_pairs=96):
        parts = []
        for seed in seeds:
            corr, cloud, _ = make_instance(seed, n_pairs, noise=1e-3)
            parts.append(_moments(cloud.positions, corr.targets, corr.normals, corr.weights))
        mu, _, _, m, q0 = (np.stack(a) for a in zip(*parts))
        return m, q0, mu

    @pytest.mark.parametrize("seeds", [(0,), (1, 2, 3, 4, 5, 6)], ids=["B=1", "B=6"])
    def test_reports_match_separate_runs(self, seeds):
        m, q0, mu = self._stacked_moments(seeds)
        seen = {}

        def record(count, rot, trans):
            assert count not in seen
            seen[count] = (rot.copy(), trans.copy())

        swept = _accumulate_batch(m, q0, mu, 7, 1e-6, True, at=(1, 3, 7), emit=record)
        plain = _accumulate_batch(m, q0, mu, 7, 1e-6, True)
        for got, want in zip(swept, plain):
            np.testing.assert_array_equal(got, want)
        assert sorted(seen) == [1, 3, 7]
        for count, (rot, trans) in seen.items():
            alone = _accumulate_batch(m, q0, mu, count, 1e-6)
            np.testing.assert_array_equal(rot, alone[0])
            np.testing.assert_array_equal(trans, alone[1])

    def test_register_p2pl_and_icp_unchanged_by_reports(self, monkeypatch):
        # register_p2pl, and icp through it, run the shared kernel; a kernel
        # asked to report every round must return the same results bitwise.
        import p2plreg.solver as solver

        base = synth_shape("blob", 1024, seed=22)
        cfg = SynthConfig(seed=22, n_sample=256, n_partial=192, rot_max_deg=30.0,
                          trans_max=0.2, compose_count=1)
        pair = make_cpu_pair([base], cfg)
        corr, cloud, _ = make_instance(3, 128, noise=1e-3)
        runs = []
        for sweep in (False, True):
            if sweep:
                kernel = solver._accumulate_batch

                def every_round(m, q0, mu, n_iters, *args, **kwargs):
                    at, emit = range(1, n_iters + 1), lambda *_: None
                    return kernel(m, q0, mu, n_iters, *args, **kwargs, at=at, emit=emit)

                monkeypatch.setattr(solver, "_accumulate_batch", every_round)
            reg = register_p2pl(corr, cloud, n_iters=10)
            rep = icp(pair.source, pair.target, max_outer=30)
            runs.append((reg, rep))
        (reg_a, icp_a), (reg_b, icp_b) = runs
        for a, b in ((reg_a, reg_b), (icp_a, icp_b)):
            np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
            np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
            assert a.energy_trace == b.energy_trace
            assert (a.iterations, a.converged) == (b.iterations, b.converged)


def _ldl_batch(rng, pivots):
    """Symmetric systems L D L^T, one per row of the (B, 6) ``pivots``, with
    a random unit lower L: their squared Cholesky pivots are D up to
    rounding."""
    b_dim = pivots.shape[0]
    low = np.tril(rng.uniform(-1.0, 1.0, (b_dim, 6, 6)), -1) + np.eye(6)
    a = (low * pivots[:, None, :]) @ low.swapaxes(1, 2)
    return 0.5 * (a + a.swapaxes(1, 2))


def _gram_batch(rng, b_dim):
    """Well-conditioned symmetric positive definite systems and right-hand
    sides: Gram matrices of (20, 6) Gaussian rows."""
    rows = rng.standard_normal((b_dim, 20, 6))
    a = rows.swapaxes(1, 2) @ rows
    return 0.5 * (a + a.swapaxes(1, 2)), rng.standard_normal((b_dim, 6))


@pytest.mark.filterwarnings("error")
class TestCholeskySolve:
    # The 6x6 solve is one entry-wise Cholesky factor, the pivot rule and
    # two substitutions; warnings are errors, so a bad pivot must not reach
    # a square root that warns.

    @pytest.mark.parametrize("b_dim", [1, 7, 1280])
    def test_matches_lapack_solve(self, b_dim):
        # The Gram systems have condition numbers below 30; Cholesky and
        # LU then agree to a few eps of |x| (measured 1.1e-15 at B = 1280).
        a, b = _gram_batch(np.random.default_rng(b_dim), b_dim)
        got, condition = _solve_batch(a, b, 0.0, 0)
        want = np.linalg.solve(a, b[..., None])[..., 0]
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-14
        assert condition is False

    def test_solution_independent_of_batch(self):
        # Bitwise, for any BLAS thread count: the kernel makes no LAPACK call.
        a, b = _gram_batch(np.random.default_rng(3), 1280)
        whole, _ = _solve_batch(a, b, 1e-6, 0)
        for i in range(1280):
            alone, _ = _solve_batch(a[i : i + 1], b[i : i + 1], 1e-6, 0)
            np.testing.assert_array_equal(alone[0], whole[i])
        for start in range(0, 1280, 7):
            part, _ = _solve_batch(a[start : start + 7], b[start : start + 7], 1e-6, 0)
            np.testing.assert_array_equal(part, whole[start : start + 7])

    def test_register_p2pl_is_its_batch_item(self):
        seeds = range(6)
        m, q0, mu = TestReportedCounts._stacked_moments(seeds)
        rot, trans, _, _, _ = _accumulate_batch(m, q0, mu, 10)
        for k, seed in enumerate(seeds):
            corr, cloud, _ = make_instance(seed, 96, noise=1e-3)
            got = register_p2pl(corr, cloud, n_iters=10).transform
            np.testing.assert_array_equal(got.rotation, rot[k])
            np.testing.assert_array_equal(got.translation, trans[k])

    @pytest.mark.parametrize("b_dim", [1, 7, 1280])
    @pytest.mark.parametrize("spread", [1e6, 1e13])
    def test_condition_flag_matches_lapack(self, b_dim, spread):
        # Squared pivots spread 1e6 (clear) and 1e13 (flagged, yet above
        # the tiny-pivot cut at 1e14); at B > 1 only item 2 has the spread.
        rng = np.random.default_rng(b_dim)
        pivots = np.exp(rng.uniform(-1.0, 1.0, (b_dim, 6)))
        item = 0 if b_dim == 1 else 2
        pivots[item, rng.permutation(6)[:2]] = (1.0, 1.0 / spread)
        a = _ldl_batch(rng, pivots)
        diag = np.linalg.cholesky(a).diagonal(axis1=-2, axis2=-1) ** 2
        lapack = bool(np.any(diag.max(axis=-1) / diag.min(axis=-1) > CONDITION_LIMIT))
        _, condition = _factor(a, 0)
        assert condition == lapack == (spread > CONDITION_LIMIT)

    @pytest.mark.parametrize("b_dim, bad", [(1, (0,)), (7, (4,)), (1280, (911, 1200))])
    def test_indefinite_item_named(self, b_dim, bad):
        rng = np.random.default_rng(b_dim)
        pivots = np.exp(rng.uniform(-1.0, 1.0, (b_dim, 6)))
        pivots[list(bad), 3] = -1.0
        a = _ldl_batch(rng, pivots)
        where = f"at iteration 5 \\(batch item {bad[0]}\\)"
        with pytest.raises(SingularSystem, match=where) as err:
            _solve_batch(a, np.ones((b_dim, 6)), 0.0, 5)
        assert err.value.iteration == 5

    @pytest.mark.parametrize("b_dim, bad", [(1, 0), (7, 6), (1280, 37)])
    def test_nan_item_named(self, b_dim, bad):
        a, b = _gram_batch(np.random.default_rng(b_dim), b_dim)
        a[bad, 2, 4] = a[bad, 4, 2] = np.nan
        with pytest.raises(SingularSystem, match=f"batch item {bad}\\)") as err:
            _solve_batch(a, b, 0.0, 2)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("b_dim", [1, 7])
    def test_rank_deficient_is_tiny_pivot(self, b_dim):
        # The sixth direction is 1e-16 times as stiff as the others, below
        # working precision; its pivot is that entry exactly.
        a, b = _gram_batch(np.random.default_rng(11), b_dim)
        a[:, 5, :] = a[:, :, 5] = 0.0
        a[:, 5, 5] = 1e-16 * a[:, 0, 0]
        with pytest.raises(SingularSystem, match="tiny pivot") as err:
            _solve_batch(a, b, 0.0, 1)
        assert err.value.iteration == 1


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        cloud = synth_shape("blob", 64, seed=15)
        corr = exact_correspond(cloud, _identity())
        t = register_procrustes(corr, cloud)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, np.zeros(3), atol=1e-12)

    def test_exact_recovery(self):
        for seed in range(10):
            cloud = synth_shape("blob", 128, seed=seed)
            gt = draw_rigid(derived_rng(seed, "pgt"), 40.0, 0.5)
            corr = exact_correspond(cloud, gt)
            t = register_procrustes(corr, cloud)
            assert np.linalg.norm(t.rotation - gt.rotation) <= 1e-10
            assert np.linalg.norm(t.translation - gt.translation) <= 1e-10

    def test_mirrored_coplanar_det_corrected(self):
        rng = np.random.default_rng(16)
        pts = np.column_stack([rng.standard_normal(40), rng.standard_normal(40), np.zeros(40)])
        mirrored = pts * np.array([-1.0, 1.0, 1.0])
        normals = np.tile([0.0, 0.0, 1.0], (40, 1))
        corr = CorrespondenceSet(mirrored, normals, np.ones(40))
        t = register_procrustes(corr, PointCloud(pts))
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_weighted_recovery(self):
        rng = np.random.default_rng(17)
        cloud = synth_shape("blob", 96, seed=17)
        gt = draw_rigid(derived_rng(17, "pgt"), 30.0, 0.4)
        corr = exact_correspond(cloud, gt, weights=rng.uniform(0.1, 3.0, 96))
        t = register_procrustes(corr, cloud)
        assert np.linalg.norm(t.rotation - gt.rotation) <= 1e-10

    def test_collinear_degenerate(self):
        line = np.linspace(0, 1, 10)[:, None] * np.array([1.0, 1.0, 0.0])
        normals = np.tile([0.0, 0.0, 1.0], (10, 1))
        corr = CorrespondenceSet(line + 0.5, normals, np.ones(10))
        with pytest.raises(DegenerateConfiguration):
            register_procrustes(corr, PointCloud(line))


class TestIcp:
    def test_aligned_clouds_identity(self):
        cloud = synth_shape("blob", 256, seed=18)
        rep = icp(cloud, cloud, method="p2pl", max_outer=5)
        np.testing.assert_allclose(rep.transform.rotation, np.eye(3), atol=1e-12)
        assert rep.converged
        assert rep.iterations == 1

    def test_recovers_moderate_motion(self):
        cloud = synth_shape("blob", 512, seed=19)
        gt = draw_rigid(derived_rng(19, "gt"), 15.0, 0.1)
        target = apply_transform(gt, cloud)
        rep = icp(cloud, target, method="p2pl", max_outer=30, inner_iters=10)
        err = np.linalg.norm(log_rotation(rep.transform.rotation.T @ gt.rotation))
        assert err <= 1e-6

    def test_p2pl_beats_p2p_on_unduplicated_samples(self):
        from p2plreg.metrics import geodesic_angle_deg
        from p2plreg.synth import estimate_normals

        wins = 0
        cases = 20
        for seed in range(cases):
            base = synth_shape("blob", 4000, seed=seed)
            cfg = SynthConfig(seed=seed, n_sample=512, n_partial=512, rot_max_deg=20.0,
                              trans_max=0.15, compose_count=1)
            pair = make_cpu_pair([base], cfg)
            tgt = estimate_normals(pair.target, 16, seed)
            e_pl = geodesic_angle_deg(
                icp(pair.source, tgt, method="p2pl").transform.rotation, pair.gt.rotation
            )
            e_pp = geodesic_angle_deg(
                icp(pair.source, tgt, method="p2p").transform.rotation, pair.gt.rotation
            )
            wins += e_pl < e_pp
        assert wins >= 0.7 * cases

    @pytest.mark.parametrize("method", ["p2pl", "p2p"])
    def test_returns_final_correspondences(self, method):
        base = synth_shape("blob", 1024, seed=22)
        cfg = SynthConfig(seed=22, n_sample=256, n_partial=192, rot_max_deg=30.0,
                          trans_max=0.2, compose_count=1)
        pair = make_cpu_pair([base], cfg)
        rep = icp(pair.source, pair.target, method=method, max_outer=4)
        expect = nn_correspond(apply_transform(rep.transform, pair.source), pair.target)
        for field in ("targets", "normals", "weights"):
            np.testing.assert_array_equal(
                getattr(rep.correspondences, field), getattr(expect, field)
            )

    def test_final_correspondences_carry_source_weights(self):
        cloud = synth_shape("blob", 128, seed=23)
        target = apply_transform(draw_rigid(derived_rng(23, "gt"), 10.0, 0.05), cloud)
        w = derived_rng(23, "w").uniform(0.5, 1.5, 128)
        rep = icp(cloud, target, max_outer=3, source_weights=w)
        expect = nn_correspond(apply_transform(rep.transform, cloud), target)
        np.testing.assert_array_equal(rep.correspondences.targets, expect.targets)
        np.testing.assert_array_equal(rep.correspondences.weights, w)

    @pytest.mark.parametrize("method", ["p2pl", "p2p"])
    def test_one_tree_build_per_call(self, method, monkeypatch):
        import p2plreg.correspond as correspond

        # Counted at the name the tracer wraps, looked up at call time.
        builds = []
        tree_cls = correspond.cKDTree

        def counted(*args, **kwargs):
            builds.append(args)
            return tree_cls(*args, **kwargs)

        monkeypatch.setattr(correspond, "cKDTree", counted)
        cloud = synth_shape("blob", 256, seed=25)
        target = apply_transform(draw_rigid(derived_rng(25, "gt"), 10.0, 0.05), cloud)
        rep = icp(cloud, target, method=method, max_outer=6)
        assert rep.iterations > 1
        assert len(builds) == 1
        icp(cloud, target, method=method, max_outer=3)
        assert len(builds) == 2

    @pytest.mark.parametrize("method", ["p2pl", "p2p"])
    def test_final_correspondences_under_exact_ties(self, method):
        # Every target point appears twice, the copy with its normal flipped,
        # so every nearest distance ties exactly at any transform; the lower
        # index, the unflipped copy, must win each tie.
        cloud = synth_shape("blob", 256, seed=26)
        moved = apply_transform(draw_rigid(derived_rng(26, "gt"), 10.0, 0.05), cloud)
        target = PointCloud(np.concatenate([moved.positions] * 2),
                            np.concatenate([moved.normals, -moved.normals]))
        rep = icp(cloud, target, method=method, max_outer=5)
        final = apply_transform(rep.transform, cloud)
        expect = nn_correspond(final, target)
        for field in ("targets", "normals", "weights"):
            np.testing.assert_array_equal(
                getattr(rep.correspondences, field), getattr(expect, field)
            )
        np.testing.assert_array_equal(rep.correspondences.normals,
                                      nn_correspond(final, moved).normals)

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    def test_shifted_scene_gives_unshifted_result(self, scale):
        # As for register_p2pl: the result moves to (R, t + c - R c), within
        # the rounding of the shifted inputs, and no round turns singular.
        c = scale * np.array([1.0, -2.0, 0.5])
        size = float(np.linalg.norm(c))
        base = synth_shape("blob", 1024, seed=22)
        cfg = SynthConfig(seed=22, n_sample=256, n_partial=192, rot_max_deg=30.0,
                          trans_max=0.2, compose_count=1)
        pair = make_cpu_pair([base], cfg)
        ref = icp(pair.source, pair.target, max_outer=30)
        rep = icp(PointCloud(pair.source.positions + c, pair.source.normals),
                  PointCloud(pair.target.positions + c, pair.target.normals), max_outer=30)
        assert rep.iterations == ref.iterations
        rot, trans = ref.transform.rotation, ref.transform.translation
        assert np.max(np.abs(rep.transform.rotation - rot)) <= 1e-15 * size
        want_t = trans + c - rot @ c
        assert np.max(np.abs(rep.transform.translation - want_t)) <= 1e-15 * size * size

    def test_register_p2pl_reports_no_correspondences(self):
        corr = exact_correspond(synth_shape("blob", 32, seed=24), _identity())
        assert register_p2pl(corr, synth_shape("blob", 32, seed=24)).correspondences is None

    def test_plane_target_surfaces_singular(self):
        rng = np.random.default_rng(20)
        pts = np.column_stack([rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64), np.zeros(64)])
        plane = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (64, 1)))
        src = PointCloud(pts + np.array([0.05, 0.0, 0.3]))
        with pytest.raises(SingularSystem):
            icp(src, plane, method="p2pl")

    def test_method_validation(self):
        cloud = synth_shape("blob", 32, seed=21)
        with pytest.raises(ValueError):
            icp(cloud, cloud, method="plane")

    @pytest.mark.parametrize("method", ["p2pl", "p2p"])
    def test_negative_max_outer_rejected(self, method):
        # It used to run 0 rounds and return the identity.
        cloud = synth_shape("blob", 32, seed=21)
        with pytest.raises(ValueError, match="max_outer must be at least 0, got -1"):
            icp(cloud, cloud, method=method, max_outer=-1)

    @pytest.mark.parametrize("max_outer", [0, 3])
    def test_p2pl_inner_iters_below_one_rejected(self, max_outer):
        # Checked at entry, so a run of zero rounds cannot hide it.
        cloud = synth_shape("blob", 32, seed=21)
        with pytest.raises(ValueError, match="inner_iters must be at least 1, got 0"):
            icp(cloud, cloud, max_outer=max_outer, inner_iters=0)

    def test_zero_rounds_and_p2p_inner_iters_accepted(self):
        # Zero rounds is the identity; p2p runs no inner accumulation.
        cloud = synth_shape("blob", 32, seed=21)
        rep = icp(cloud, cloud, max_outer=0)
        assert rep.iterations == 0 and len(rep.energy_trace) == 1
        np.testing.assert_array_equal(rep.transform.rotation, np.eye(3))
        assert icp(cloud, cloud, method="p2p", max_outer=2, inner_iters=0).iterations >= 1

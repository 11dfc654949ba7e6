"""Forward solver tests: energy, the 6x6 system, accumulation, ICP."""

import itertools
import tracemalloc

import numpy as np
import pytest

from p2plreg.cloud import PointCloud
from p2plreg.correspond import CorrespondenceSet, exact_correspond, nn_correspond
from p2plreg.geometry import (
    RigidTransform,
    _exp_entries,
    _fill_rotation,
    apply_transform,
    compose,
    log_rotation,
    random_rotation,
    rodrigues,
    rotation_angle,
    step_jacobian,
    to_gvector,
)
from p2plreg.solver import (
    CONDITION_LIMIT,
    STEP_TOL,
    DegenerateConfiguration,
    SingularSystem,
    _accumulate_batch,
    _batch,
    _entries,
    _factor_entries,
    _Moments,
    _moments,
    _solve_lower,
    _world,
    energy,
    icp,
    register_p2pl,
    register_procrustes,
)
from p2plreg.gradcheck import _perturbed_moments, make_instance
from p2plreg.synth import SynthConfig, draw_rigid, make_cpu_pair, synth_shape
from p2plreg.seeding import derived_rng


def _identity():
    return RigidTransform.identity()


def _whole_system(moments, rot, centre):
    """The (B, 6, 6) A, (B, 6) b and (B, 12) g - g0 of the linearized step
    of the record ``moments`` at (rot, centre), as whole arrays: a fresh
    ``step_jacobian(rot, 0)``, the (B, 6, 7) product
    J^T [m J | m (g - g0) + q0] and a whole-array symmetrize. The kernel's
    entry-form system holds these bits."""
    jg = np.empty((rot.shape[0], 12, 7))
    jg[..., 6] = np.concatenate(
        [(rot - np.eye(3)).reshape(-1, 9), centre - moments.mu], axis=1
    )
    jg[..., :6] = step_jacobian(rot, 0.0)
    mjg = moments.m @ jg
    mjg[..., 6] += moments.q0
    ab = jg[..., :6].swapaxes(1, 2) @ mjg
    a = ab[..., :6]
    return 0.5 * (a + a.swapaxes(1, 2)), -ab[..., 6], jg[..., 6]


def _solve(a, b, damping, iteration):
    """Entry-form solutions and condition flag of the (B, 6, 6) systems a
    and (B, 6) right-hand sides b, through the kernel's ``_solve_lower``."""
    return _solve_lower(_entries(a), _entries(b), damping, iteration)


def _stack(parts):
    """One record of the problems of the one-problem records ``parts``."""
    return _Moments(*(np.concatenate(a) for a in list(zip(*parts))[:3]), None)


def _system_at_identity(corr, source):
    """The kernel's 6x6 system (A, b) before its first round: R = I and the
    moved centroid t_c at the weighted source centroid mu."""
    moments = _moments(source.positions, corr.targets, corr.normals, corr.weights)
    a, b, _ = _whole_system(moments, np.eye(3)[None], moments.mu)
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


class TestMoments:
    """``_moments`` against the per-pair rows formed by a broadcast outer
    product and a concatenate, the (N, 12) layout the pair-minor buffer
    replaced."""

    @staticmethod
    def _oracle_rows(x, y, n, zeta, mu):
        root = np.sqrt(zeta)
        nw = root[:, None] * n
        top = (nw[:, :, None] * (x - mu)[:, None, :]).reshape(len(x), 9)
        return np.concatenate([top, nw], axis=1), root * np.einsum("ni,ni->n", x - y, n)

    @pytest.mark.parametrize("n_pairs", [64, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_gram_match_oracle_bitwise(self, n_pairs, seed):
        corr, cloud, _ = make_instance(seed, n_pairs)
        arrays = (cloud.positions, corr.targets, corr.normals, corr.weights)
        mu, (m,), (q0,), rows = _moments(*arrays)
        u, s = rows[:12].T, rows[12]
        want_u, want_s = self._oracle_rows(*arrays, mu)
        np.testing.assert_array_equal(u, want_u)
        np.testing.assert_array_equal(s, want_s)
        np.testing.assert_array_equal(m, want_u.T @ want_u)
        # The gemv sums in another order on the pair-minor rows.
        want_q0 = want_s @ want_u
        assert np.max(np.abs(q0 - want_q0)) <= 1e-14 * np.max(np.abs(want_q0))

    def test_rows_share_one_pair_minor_buffer(self):
        corr, cloud, _ = make_instance(0, 64)
        rows = _moments(cloud.positions, corr.targets, corr.normals, corr.weights).rows
        u, s = rows[:12].T, rows[12]
        assert u.T.flags.c_contiguous and s.flags.c_contiguous
        assert u.base is s.base is rows and rows.shape == (13, 64)

    def test_peak_memory_is_at_most_21_n_doubles(self):
        # The (13, N) buffer, the (N,) root of the weights, and one (N, 3)
        # temporary at a time (x - y, then the centred positions): about 17 N.
        import tracemalloc

        n_pairs = 4096
        corr, cloud, _ = make_instance(0, n_pairs)
        arrays = (cloud.positions, corr.targets, corr.normals, corr.weights)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _moments(*arrays)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 21 * n_pairs * 8, peak / (8 * n_pairs)


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
    @pytest.mark.parametrize("n_iters", [0, -1])
    def test_rejects_fewer_than_one_round(self, n_iters):
        cloud = synth_shape("blob", 16, seed=11)
        with pytest.raises(ValueError, match="n_iters must be at least 1"):
            register_p2pl(exact_correspond(cloud, _identity()), cloud, n_iters=n_iters)

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


class TestEnergyTraceBlocks:
    """register_p2pl sums its energy trace over column blocks of the pairs."""

    @pytest.mark.parametrize("n_pairs, n_iters", [(2000, 4), (1638, 4), (97, 700)])
    def test_blocked_trace_is_point_form_energy(self, n_pairs, n_iters):
        # At the module's buffer of 8192 doubles, 5 rows make blocks of 1638
        # pairs: 2000 pairs are a full block and a partial one, 1638 exactly
        # one; 701 rows make blocks of 11 pairs, 97 pairs nine blocks.
        corr, cloud, _ = make_instance(6, n_pairs, noise=1e-3)
        rep = register_p2pl(corr, cloud, n_iters=n_iters)
        assert len(rep.energy_trace) == n_iters + 1
        for k in sorted({0, 1, 2, n_iters}):
            t = register_p2pl(corr, cloud, n_iters=k).transform if k else _identity()
            want = energy(corr, cloud, t)
            assert rep.energy_trace[k] == pytest.approx(want, rel=1e-9)

    def test_peak_is_moment_buffer_and_one_row(self):
        # At N = 4096 the (13, N) moment buffer and one (3, N) row are 0.5
        # MiB; the trace's buffer of at most 64 KiB is formed after the
        # row is freed. A (11, N) trace block would take the peak to 0.82.
        corr, cloud, _ = make_instance(0, 4096)
        register_p2pl(corr, cloud)
        tracemalloc.start()
        try:
            register_p2pl(corr, cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.55 * 2**20, peak / 2**20


class TestReportedCounts:
    # _accumulate_batch hands the state after every round to its emit hook;
    # the hook must not change the run, and each state must be the one a
    # run of that many rounds ends in.

    @staticmethod
    def _stacked_moments(seeds, n_pairs=96):
        return _stack(
            [_moments(cloud.positions, corr.targets, corr.normals, corr.weights)
             for corr, cloud, _ in (make_instance(seed, n_pairs, noise=1e-3) for seed in seeds)]
        )

    @staticmethod
    def _recorded(moments, n_iters):
        """Kernel results and copies of every (k, rot, centre, delta) emitted."""
        seen = []

        def record(k, rot, centre, delta):
            seen.append((k, rot.copy(), centre.copy(), delta.copy()))

        return _accumulate_batch(moments, n_iters, 1e-6, record), seen

    @pytest.mark.parametrize("seeds", [(0,), (1, 2, 3, 4, 5, 6)], ids=["B=1", "B=6"])
    def test_emit_reports_every_round(self, seeds):
        moments = self._stacked_moments(seeds)
        swept, seen = self._recorded(moments, 7)
        assert [k for k, *_ in seen] == list(range(8))
        plain = _accumulate_batch(moments, 7, 1e-6)
        for got, want in zip(swept, plain):
            np.testing.assert_array_equal(got, want)
        for k, *state in seen:
            _, alone = self._recorded(moments, k)
            assert alone[-1][0] == k
            for got, want in zip(state, alone[-1][1:]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seeds", [(0,), (1, 2, 3, 4, 5, 6)], ids=["B=1", "B=6"])
    def test_reports_match_separate_runs(self, seeds):
        # The oracle's read: the world transform of the state after k rounds
        # is the transform a run of k rounds returns.
        moments = self._stacked_moments(seeds)
        _, seen = self._recorded(moments, 7)
        for k, rot, centre, _ in seen:
            alone = _accumulate_batch(moments, k, 1e-6)
            np.testing.assert_array_equal(rot, alone[0])
            np.testing.assert_array_equal(_world(rot, centre, moments.mu), alone[1])

    def test_register_p2pl_and_icp_unchanged_by_reports(self, monkeypatch):
        # register_p2pl, and icp through it, run the shared kernel; a hook
        # that also reads every round's world transform must leave their
        # results unchanged bitwise.
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

                def every_round(moments, n_iters, damping=0.0, emit=None):
                    def also_read(k, rot, centre, delta):
                        _world(rot, centre, moments.mu)
                        emit(k, rot, centre, delta)

                    return kernel(moments, n_iters, damping, also_read)

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
        x, condition = _solve(a, b, 0.0, 0)
        got = _batch(x)
        want = np.linalg.solve(a, b[..., None])[..., 0]
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-14
        assert condition is False

    def test_solution_independent_of_batch(self):
        # Bitwise, for any BLAS thread count: the kernel makes no LAPACK call.
        a, b = _gram_batch(np.random.default_rng(3), 1280)
        whole = _batch(_solve(a, b, 1e-6, 0)[0])
        for i in range(1280):
            alone = _batch(_solve(a[i : i + 1], b[i : i + 1], 1e-6, 0)[0])
            np.testing.assert_array_equal(alone[0], whole[i])
        for start in range(0, 1280, 7):
            part = _batch(_solve(a[start : start + 7], b[start : start + 7], 1e-6, 0)[0])
            np.testing.assert_array_equal(part, whole[start : start + 7])

    def test_register_p2pl_is_its_batch_item(self):
        seeds = range(6)
        rot, trans, _, _ = _accumulate_batch(TestReportedCounts._stacked_moments(seeds), 10)
        for k, seed in enumerate(seeds):
            corr, cloud, _ = make_instance(seed, 96, noise=1e-3)
            got = register_p2pl(corr, cloud, n_iters=10).transform
            np.testing.assert_array_equal(got.rotation, rot[k])
            np.testing.assert_array_equal(got.translation, trans[k])

    def test_kernel_item_alone_is_its_batch_item(self):
        # Bitwise, for any BLAS thread count: at B = 1 the solution, exp map
        # and step norms are Python floats, at B = 7 (B,) rows. Seeds 0-2
        # are noise-free and converge; the others do not.
        noises = [0.0] * 3 + [1e-2] * 4
        parts = []
        for seed, noise in enumerate(noises):
            corr, cloud, _ = make_instance(seed, 96, noise=noise)
            parts.append(_moments(cloud.positions, corr.targets, corr.normals, corr.weights))
        whole, seen = TestReportedCounts._recorded(_stack(parts), 10)
        assert list(whole[2]) == [True] * 3 + [False] * 4
        for i in range(len(noises)):
            alone, seen_i = TestReportedCounts._recorded(parts[i], 10)
            for got, want in zip(alone[:3], whole[:3]):
                np.testing.assert_array_equal(got[0], want[i])
            assert alone[3] == whole[3]
            # The deflated g - g0 of every round, as register_p2pl's trace reads it.
            for (_, *got), (_, *want) in zip(seen_i, seen):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g[0], w[i])

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
        _, condition = _factor_entries(_entries(a), 0)
        assert condition == lapack == (spread > CONDITION_LIMIT)

    @pytest.mark.parametrize("b_dim, bad", [(1, (0,)), (7, (4,)), (1280, (911, 1200))])
    def test_indefinite_item_named(self, b_dim, bad):
        rng = np.random.default_rng(b_dim)
        pivots = np.exp(rng.uniform(-1.0, 1.0, (b_dim, 6)))
        pivots[list(bad), 3] = -1.0
        a = _ldl_batch(rng, pivots)
        where = f"at iteration 5 \\(batch item {bad[0]}\\)"
        with pytest.raises(SingularSystem, match=where) as err:
            _solve(a, np.ones((b_dim, 6)), 0.0, 5)
        assert err.value.iteration == 5

    @pytest.mark.parametrize("b_dim, bad", [(1, 0), (7, 6), (1280, 37)])
    def test_nan_item_named(self, b_dim, bad):
        a, b = _gram_batch(np.random.default_rng(b_dim), b_dim)
        a[bad, 2, 4] = a[bad, 4, 2] = np.nan
        with pytest.raises(SingularSystem, match=f"batch item {bad}\\)") as err:
            _solve(a, b, 0.0, 2)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("b_dim", [1, 7])
    def test_rank_deficient_is_tiny_pivot(self, b_dim):
        # The sixth direction is 1e-16 times as stiff as the others, below
        # working precision; its pivot is that entry exactly.
        a, b = _gram_batch(np.random.default_rng(11), b_dim)
        a[:, 5, :] = a[:, :, 5] = 0.0
        a[:, 5, 5] = 1e-16 * a[:, 0, 0]
        with pytest.raises(SingularSystem, match="tiny pivot") as err:
            _solve(a, b, 0.0, 1)
        assert err.value.iteration == 1


def _assert_same_bits(got, want, msg=""):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    np.testing.assert_array_equal(got, want, err_msg=msg)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=msg)


def _oracle_moments(b_dim):
    """The last b_dim of the 1281 moments the oracle runs at N = 64: 1280
    perturbed copies, then the unperturbed problem."""
    corr, cloud, _ = make_instance(30, 64, noise=1e-3)
    arrays = (cloud.positions, corr.targets, corr.normals, corr.weights)
    moments = _moments(*arrays)
    pairs, cols = np.repeat(np.arange(64), 10), np.tile(np.arange(10), 64)
    job = _perturbed_moments(moments, np.column_stack(arrays), pairs, cols, 1e-3, True)
    return _Moments(*(a[-b_dim:] for a in job[:3]), None)


def _reference_rounds(moments, n_iters, damping):
    """The accumulation one whole system at a time: ``_whole_system``,
    damping I added to the whole matrix, ``_solve``, then the exp-map
    update. Returns the final (rot, world translation) and the
    (rot, centre, g - g0) before each round."""
    mu = moments.mu
    b_dim = mu.shape[0]
    rot = np.empty((b_dim, 3, 3))
    rot[:] = np.eye(3)
    centre = mu
    seen = []
    for k in range(n_iters):
        a, b, delta = _whole_system(moments, rot, centre)
        seen.append((rot, centre, delta.copy()))
        if damping:
            a = a + damping * np.eye(6)
        x, _ = _solve(a, b, 0.0, k)
        _, exp = _exp_entries(x[:3])
        rot = _batch(exp).reshape(b_dim, 3, 3) @ rot
        centre = centre + _batch(x[3:])
    return rot, _world(rot, centre, mu), seen


class TestStepRound:
    # A round scatters R's entries into a buffer kept for the run
    # (geometry._fill_rotation) and reads the system's entries off the
    # (B, 6, 7) product; it must give the bits of forming each round's
    # whole system (_whole_system).

    @staticmethod
    def _rotations():
        signed_perms = [
            np.eye(3)[list(order)] * np.array(signs)[:, None]
            for order in itertools.permutations(range(3))
            for signs in itertools.product((1.0, -1.0), repeat=3)
        ]
        rng = np.random.default_rng(8)
        return {
            "identity": np.eye(3)[None],
            "signed permutations": np.stack(signed_perms),
            "random": np.stack([random_rotation(rng) for _ in range(50)]),
        }

    def test_rotation_fill_is_step_jacobian(self):
        # Bitwise, sign bits included: R = I and the signed permutations
        # have zero entries whose negations are -0.0.
        rng = np.random.default_rng(9)
        for name, rots in self._rotations().items():
            jg = np.empty((len(rots), 12, 7))
            jg[..., :6] = step_jacobian(np.eye(3), 0.0)
            # A fill over another fill must leave no trace of the first.
            _fill_rotation(jg, np.stack([random_rotation(rng) for _ in rots]))
            _fill_rotation(jg, rots)
            _assert_same_bits(jg[..., :6], step_jacobian(rots, 0.0), name)

    @pytest.mark.parametrize("b_dim", [1, 7, 1281])
    @pytest.mark.parametrize("damping", [0.0, 1e-6])
    def test_kernel_is_the_reference_rounds(self, b_dim, damping):
        moments = _oracle_moments(b_dim)
        seen = []

        def record(k, rot, centre, delta):
            seen.append((rot.copy(), np.array(centre), delta.copy()))

        rot, trans, _, _ = _accumulate_batch(moments, 10, damping, record)
        want_rot, want_trans, want_seen = _reference_rounds(moments, 10, damping)
        _assert_same_bits(rot, want_rot)
        _assert_same_bits(trans, want_trans)
        assert len(seen) == 11
        for k, (got, want) in enumerate(zip(seen, want_seen)):
            for g, w in zip(got, want):
                _assert_same_bits(g, w, f"round {k}")

    @pytest.mark.parametrize("b_dim", [1, 3])
    def test_damping_clears_negative_zeros_off_the_diagonal(self, b_dim):
        # Adding damping I to the whole matrix turns an off-diagonal -0.0
        # into +0.0, and with b = -0.0 the solution's sign bits show it.
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        a[~np.eye(6, dtype=bool)] = -0.0
        a = np.repeat(a[None], b_dim, axis=0)
        b = np.full((b_dim, 6), -0.0)
        got = _batch(_solve(a, b, 1e-6, 0)[0])
        want = _batch(_solve(a + 1e-6 * np.eye(6), b, 0.0, 0)[0])
        _assert_same_bits(got, want)
        assert np.signbit(got).sum() == b_dim

    def test_ten_round_peak(self):
        # The [J | g - g0] buffer kept for the run takes the place of the
        # fresh one each round formed, so it does not lower the peak; the
        # per-round products are freed before the next round. Forming a
        # fresh buffer every round peaked at 2.1818 MB. Scattering R's
        # entries into the kept buffer (geometry._fill_rotation) leaves no
        # array behind; the bound keeps 2 KB of slack over that figure.
        moments = _oracle_moments(1280)
        tracemalloc.start()
        try:
            _accumulate_batch(moments, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= 2.1818 + 2 * 2**-10


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

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_fewer_than_three_pairs_degenerate(self, n_pairs):
        pts = np.eye(3)[:n_pairs]
        corr = CorrespondenceSet(pts, np.tile([0.0, 0.0, 1.0], (n_pairs, 1)), np.ones(n_pairs))
        with pytest.raises(DegenerateConfiguration, match="at least 3 pairs are required"):
            register_procrustes(corr, PointCloud(pts))

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

    @staticmethod
    def _reference_icp(source, target, max_outer, weights=None, method="p2pl"):
        """icp's loop built from the public, validating pieces."""

        def matched(moved):
            corr = nn_correspond(moved, target)
            if weights is None:
                return corr
            return CorrespondenceSet(corr.targets, corr.normals, weights)

        def objective(moved, corr):
            if method == "p2pl":
                return energy(corr, source, running)
            diff = moved.positions - corr.targets
            return float(np.sum(corr.weights * np.einsum("ni,ni->n", diff, diff)))

        running = _identity()
        moved = source
        corr = matched(moved)
        trace = [objective(moved, corr)]
        converged = condition = False
        for _ in range(max_outer):
            if method == "p2p":
                delta = register_procrustes(corr, moved)
            else:
                inner = register_p2pl(corr, moved, n_iters=10)
                condition = condition or inner.condition_warning
                delta = inner.transform
            running = compose(delta, running)
            moved = apply_transform(running, source)
            corr = matched(moved)
            trace.append(objective(moved, corr))
            step = rotation_angle(delta.rotation) + float(np.linalg.norm(delta.translation))
            if step < STEP_TOL:
                converged = True
                break
        return running, trace, converged, condition, corr

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "method, seed, rot_max_deg, max_outer, converges",
        [("p2pl", 24, 30.0, 30, False), ("p2pl", 23, 5.0, 30, True),
         ("p2p", 24, 30.0, 10, False), ("p2p", 23, 5.0, 30, True)],
        # p2pl, icp's default method, goes unnamed.
        ids=["24-30.0-False", "23-5.0-True", "p2p-24-30.0-False", "p2p-23-5.0-True"],
    )
    def test_matches_reference_loop_bitwise(
        self, method, seed, rot_max_deg, max_outer, converges, weighted
    ):
        # icp builds its matched sets unchecked; a loop that checks every
        # one must give the same bits, for either estimator, both on a run
        # that hits the round cap and on one that converges.
        base = synth_shape("blob", 1024, seed=seed)
        cfg = SynthConfig(seed=seed, n_sample=256, n_partial=192, rot_max_deg=rot_max_deg,
                          trans_max=0.2, compose_count=1)
        pair = make_cpu_pair([base], cfg)
        w = derived_rng(seed, "w").uniform(0.5, 1.5, 192) if weighted else None
        rep = icp(pair.source, pair.target, method=method, max_outer=max_outer,
                  source_weights=w)
        running, trace, converged, condition, corr = self._reference_icp(
            pair.source, pair.target, max_outer, w, method
        )
        assert rep.converged == converged == converges
        assert rep.iterations == len(trace) - 1
        assert rep.energy_trace == trace
        assert rep.condition_warning == condition
        np.testing.assert_array_equal(rep.transform.rotation, running.rotation)
        np.testing.assert_array_equal(rep.transform.translation, running.translation)
        for field in ("targets", "normals", "weights"):
            np.testing.assert_array_equal(getattr(rep.correspondences, field),
                                          getattr(corr, field))

    @pytest.mark.parametrize("max_outer", [0, 3])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("nan", "must be finite"),
            ("negative", "must be nonnegative"),
            ("zero", "at least one reliability weight must be positive"),
            ("short", "source_weights length must match the source size"),
        ],
    )
    def test_bad_source_weights_rejected_at_entry(self, bad, message, max_outer, monkeypatch):
        # Checked once, before the kd-tree is built, since no round's
        # matches check them again.
        import p2plreg.correspond as correspond

        def no_tree(*args, **kwargs):
            raise AssertionError("kd-tree built before the weights were checked")

        monkeypatch.setattr(correspond, "cKDTree", no_tree)
        cloud = synth_shape("blob", 32, seed=21)
        w = np.ones(32)
        if bad == "nan":
            w[5] = np.nan
        elif bad == "negative":
            w[5] = -1e-3
        elif bad == "zero":
            w[:] = 0.0
        else:
            w = w[:31]
        with pytest.raises(ValueError, match=message):
            icp(cloud, cloud, max_outer=max_outer, source_weights=w)

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

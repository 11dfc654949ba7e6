"""Rotation and rigid-transform primitive tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from p2plreg.cloud import PointCloud
from p2plreg.geometry import (
    RigidTransform,
    _exp_entries,
    apply_transform,
    compose,
    from_gvector,
    log_rotation,
    random_rotation,
    rodrigues,
    rodrigues_batch,
    rotation_angle,
    SMALL_ANGLE,
    skew,
    step_jacobian,
    to_gvector,
)


def _series_rotation(a, terms=20):
    """Truncated matrix exponential of the cross matrix; oracle for rodrigues."""
    k = skew(a)
    out = np.eye(3)
    term = np.eye(3)
    for i in range(1, terms):
        term = term @ k / i
        out = out + term
    return out


class TestSkew:
    def test_definition(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        np.testing.assert_array_equal(skew([1.0, 2.0, 3.0]), expected)

    def test_zero(self):
        np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_matches_cross_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.standard_normal(3)
            v = rng.standard_normal(3)
            np.testing.assert_allclose(skew(w) @ v, np.cross(w, v), atol=1e-15)

    def test_antisymmetric(self):
        k = skew([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(k, -k.T)


class TestRodrigues:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rodrigues(np.zeros(3)), np.eye(3))
        np.testing.assert_array_equal(rodrigues(1e-13 * np.ones(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = rodrigues(np.array([0.0, 0.0, math.pi / 2]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(r, expected, atol=1e-15)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-math.pi, math.pi) * _unit(rng)
            np.testing.assert_allclose(rodrigues(a), _series_rotation(a), atol=1e-10)

    def test_output_is_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = rodrigues(rng.uniform(0, math.pi) * _unit(rng))
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        aa = rng.standard_normal((40, 3))
        aa[0] = 0.0
        batch = rodrigues_batch(aa)
        for i in range(aa.shape[0]):
            np.testing.assert_allclose(batch[i], rodrigues(aa[i]), atol=1e-14)

    def test_scalar_is_batch_kernel_bitwise(self):
        rng = np.random.default_rng(11)
        axis = _unit(rng)
        angles = [SMALL_ANGLE, 0.999 * SMALL_ANGLE, math.pi, 1e-6, 1.0]
        aa = [t * axis for t in angles] + list(rng.standard_normal((200, 3)))
        for a in aa:
            np.testing.assert_array_equal(rodrigues(a), rodrigues_batch(a[None])[0])


def test_exp_entries_of_floats_are_their_batch_row():
    # The solver's B = 1 round takes the exp map on Python floats (math's
    # sqrt, sin and cos), a batch on (B,) rows (numpy's); bitwise the same.
    rng = np.random.default_rng(64)
    axes = rng.standard_normal((1280, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([
        [0.0, 0.5 * SMALL_ANGLE, SMALL_ANGLE, 1e-8, math.pi - 1e-6, math.pi],
        10.0 ** rng.uniform(-10.0, 0.5, 1274),
    ])
    aa = angles[:, None] * axes
    theta_b, batch = _exp_entries(tuple(aa.T))
    batch = np.stack([theta_b, *batch], axis=1)
    for i in range(1280):
        theta, one = _exp_entries(tuple(aa[i].tolist()))
        assert all(type(e) is float for e in (theta, *one))
        assert np.array([theta, *one]).tobytes() == batch[i].tobytes()


def _scipy_exp(aa):
    """Oracle for rodrigues_batch: scipy's exponential map, with the
    identity below SMALL_ANGLE (the cut taken on np.linalg.norm)."""
    out = Rotation.from_rotvec(aa).as_matrix()
    out[np.linalg.norm(aa, axis=-1) < SMALL_ANGLE] = np.eye(3)
    return out


class TestRodriguesMatchesScipy:
    ANGLES = [0.0, 0.5 * SMALL_ANGLE, 0.999 * SMALL_ANGLE, SMALL_ANGLE, 1e-8, 1.0,
              math.pi - 1e-6, math.pi]

    @pytest.mark.parametrize("angle", ANGLES)
    def test_single_axis_angle(self, angle):
        rng = np.random.default_rng(61)
        for _ in range(50):
            aa = (angle * _unit(rng))[None]
            np.testing.assert_allclose(rodrigues_batch(aa), _scipy_exp(aa), rtol=0, atol=2e-15)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_batch_of_1280(self, angle):
        rng = np.random.default_rng(62)
        axes = rng.standard_normal((1280, 3))
        aa = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        np.testing.assert_allclose(rodrigues_batch(aa), _scipy_exp(aa), rtol=0, atol=2e-15)

    def test_mixed_angles_in_one_batch(self):
        rng = np.random.default_rng(63)
        axes = rng.standard_normal((1280, 3))
        angles = rng.choice(self.ANGLES, 1280) * rng.uniform(0.5, 1.0, 1280)
        aa = angles[:, None] * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        np.testing.assert_allclose(rodrigues_batch(aa), _scipy_exp(aa), rtol=0, atol=2e-15)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestLogRotation:
    def test_identity(self):
        np.testing.assert_array_equal(log_rotation(np.eye(3)), np.zeros(3))

    def test_known_axis_angle(self):
        a = np.array([0.3, 0.0, 0.0])
        np.testing.assert_allclose(log_rotation(rodrigues(a)), a, atol=1e-10)

    def test_round_trip_1000_seeded(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(1e-6, math.pi - 0.01)
            a = theta * _unit(rng)
            r = rodrigues(a)
            err = np.linalg.norm(rodrigues(log_rotation(r)) - r)
            worst = max(worst, err)
        assert worst <= 1e-8

    def test_near_pi(self):
        for theta in (math.pi - 1e-8, math.pi - 1e-10, math.pi):
            for axis in (np.array([1.0, 0.0, 0.0]), _unit(np.random.default_rng(2))):
                r = rodrigues(theta * axis)
                back = log_rotation(r)
                assert 0.0 <= np.linalg.norm(back) <= math.pi + 1e-12
                np.testing.assert_allclose(rodrigues(back), r, atol=1e-7)

    @pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-8, 1.0, math.pi - 1e-9, math.pi])
    def test_rotation_angle_matches_log_norm(self, angle):
        rng = np.random.default_rng(59)
        for _ in range(8):
            r = rodrigues(angle * _unit(rng))
            expected = np.linalg.norm(log_rotation(r))
            assert rotation_angle(r) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("k", range(-12, 0))
    def test_round_trip_approaching_pi(self, k):
        # pi - theta = 10^k spans the band where recovering the axis from
        # the skew part or from the diagonal of R both lose digits.
        rng = np.random.default_rng(31)
        for _ in range(8):
            r = rodrigues((math.pi - 10.0**k) * _unit(rng))
            back = log_rotation(r)
            assert np.linalg.norm(back) <= math.pi
            np.testing.assert_allclose(rodrigues(back), r, rtol=0.0, atol=1e-12)

    def test_theta_range(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = log_rotation(random_rotation(rng))
            assert 0.0 <= np.linalg.norm(a) <= math.pi + 1e-12


class TestComposeApply:
    def test_identity_neutral(self):
        rng = np.random.default_rng(23)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        out = compose(RigidTransform.identity(), t)
        np.testing.assert_array_equal(out.rotation, t.rotation)
        np.testing.assert_array_equal(out.translation, t.translation)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(29)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        out = compose(t, t.inverse())
        np.testing.assert_allclose(out.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(out.translation, 0.0, atol=1e-12)

    def test_compose_matches_apply_twice(self):
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((64, 3))
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        cloud = PointCloud(pts, nrm)
        for _ in range(20):
            a = RigidTransform(random_rotation(rng), rng.standard_normal(3))
            b = RigidTransform(random_rotation(rng), rng.standard_normal(3))
            once = apply_transform(compose(a, b), cloud)
            twice = apply_transform(a, apply_transform(b, cloud))
            np.testing.assert_allclose(once.positions, twice.positions, atol=1e-12)
            np.testing.assert_allclose(once.normals, twice.normals, atol=1e-12)

    def test_associativity_under_apply(self):
        rng = np.random.default_rng(37)
        pts = rng.standard_normal((32, 3))
        cloud = PointCloud(pts)
        ts = [RigidTransform(random_rotation(rng), rng.standard_normal(3)) for _ in range(3)]
        left = compose(compose(ts[0], ts[1]), ts[2])
        right = compose(ts[0], compose(ts[1], ts[2]))
        np.testing.assert_allclose(
            apply_transform(left, cloud).positions,
            apply_transform(right, cloud).positions,
            atol=1e-12,
        )

    def test_apply_identity_unchanged(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((10, 3))
        out = apply_transform(RigidTransform.identity(), PointCloud(pts))
        np.testing.assert_array_equal(out.positions, pts)

    def test_translation_leaves_normals(self):
        rng = np.random.default_rng(43)
        pts = rng.standard_normal((10, 3))
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        out = apply_transform(RigidTransform(np.eye(3), np.array([1.0, -2.0, 0.5])), PointCloud(pts, nrm))
        np.testing.assert_array_equal(out.normals, nrm)

    def test_apply_preserves_plane_offsets(self):
        rng = np.random.default_rng(47)
        pts = rng.standard_normal((20, 3))
        nrm = rng.standard_normal((20, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(pts, nrm)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        moved = apply_transform(t, cloud)
        for i in range(5):
            for j in range(5, 10):
                before = nrm[i] @ (pts[i] - pts[j])
                after = moved.normals[i] @ (moved.positions[i] - moved.positions[j])
                assert abs(before - after) <= 1e-12


class TestGVector:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(53)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3))
        back = from_gvector(to_gvector(t))
        np.testing.assert_array_equal(back.rotation, t.rotation)
        np.testing.assert_array_equal(back.translation, t.translation)

    def test_ordering_row_major_then_translation(self):
        t = RigidTransform(np.arange(9).reshape(3, 3) / 10.0, np.array([9.0, 10.0, 11.0]))
        g = to_gvector(t)
        np.testing.assert_array_equal(g[:9], np.arange(9) / 10.0)
        np.testing.assert_array_equal(g[9:], [9.0, 10.0, 11.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            from_gvector(np.zeros(11))

    @pytest.mark.parametrize("rotation, translation, message", [
        (np.eye(3), np.zeros(4), r"translation must be a 3-vector, got shape \(4,\)"),
        (np.eye(3), np.zeros((2, 3)), r"translation must be a 3-vector, got shape \(6,\)"),
        (np.eye(4), np.zeros(3), r"rotation must be 3x3, got \(4, 4\)"),
        (np.eye(3).reshape(9), np.zeros(3), r"rotation must be 3x3, got \(9,\)"),
    ])
    def test_rejects_bad_shapes(self, rotation, translation, message):
        with pytest.raises(ValueError, match=message):
            RigidTransform(rotation, translation)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_translation(self, value):
        with pytest.raises(ValueError, match="translation must be finite"):
            RigidTransform(np.eye(3), np.array([0.0, value, 0.0]))

    def test_rejects_non_finite_rotation(self):
        with pytest.raises(ValueError, match="rotation must be finite"):
            RigidTransform(np.full((3, 3), np.nan), np.zeros(3))
        rot = np.eye(3)
        rot[1, 2] = np.inf
        with pytest.raises(ValueError, match="rotation must be finite"):
            from_gvector(np.concatenate([rot.reshape(9), np.zeros(3)]))


# Row 3 p + j is the Levi-Civita symbol eps[p, j, :]: for any 3-vector v,
# (_LEVI_CIVITA @ v)[3 p + j] = d (a x v)_p / d a_j.
_LEVI_CIVITA = np.zeros((9, 3))
_LEVI_CIVITA[[1, 5, 6], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[2, 3, 7], [1, 2, 0]] = -1.0


def _levi_civita_step_jacobian(rot, trans):
    """Oracle for step_jacobian: its construction from the Levi-Civita
    symbol, one product per block."""
    rot = np.asarray(rot, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    lead = rot.shape[:-2]
    jac = np.zeros(lead + (4, 3, 6))
    jac[..., :3, :, :3] = (_LEVI_CIVITA @ rot).reshape(lead + (3, 3, 3)).swapaxes(-1, -2)
    jac[..., 3, :, :3] = (trans @ _LEVI_CIVITA.T).reshape(lead + (3, 3))
    jac[..., 3, :, 3:] = np.eye(3)
    return jac.reshape(lead + (12, 6))


class TestStepJacobian:
    @pytest.mark.parametrize("batch", [None, 1, 1280])
    def test_bitwise_equal_to_levi_civita_construction(self, batch):
        # Every entry is a signed copy of R, t, 1 or 0, so the two agree
        # bitwise; assert_array_equal leaves only the sign of zero free.
        rng = np.random.default_rng(56)
        count = 1 if batch is None else batch
        rots = np.stack([random_rotation(rng) for _ in range(count)])
        trans = 10.0 ** rng.uniform(-3, 5, (count, 1)) * rng.standard_normal((count, 3))
        if batch is None:
            rots, trans = rots[0], trans[0]
        got = step_jacobian(rots, trans)
        assert got.shape == rots.shape[:-2] + (12, 6)
        np.testing.assert_array_equal(got, _levi_civita_step_jacobian(rots, trans))
        assert np.count_nonzero(got) == 27 * count

    def test_matches_fd_of_the_step_chart(self):
        rng = np.random.default_rng(54)
        rot, trans = random_rotation(rng), 5.0 * rng.standard_normal(3)

        def stepped(s):
            q = rodrigues(s[:3])
            return np.concatenate([(q @ rot).reshape(9), q @ trans + s[3:]])

        jac = step_jacobian(rot, trans)
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd = (stepped(e) - stepped(-e)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(55)
        rots = np.stack([random_rotation(rng) for _ in range(4)])
        trans = rng.standard_normal((4, 3))
        batch = step_jacobian(rots, trans)
        assert batch.shape == (4, 12, 6)
        for b in range(4):
            np.testing.assert_array_equal(batch[b], step_jacobian(rots[b], trans[b]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_skew_property_cross(w, v):
    w = np.asarray(w)
    v = np.asarray(v)
    np.testing.assert_allclose(skew(w) @ v, np.cross(w, v), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, math.pi - 0.02), st.integers(0, 2**32 - 1))
def test_log_rodrigues_round_trip_property(theta, seed):
    axis = _unit(np.random.default_rng(seed))
    a = theta * axis
    np.testing.assert_allclose(log_rotation(rodrigues(a)), a, atol=1e-8)

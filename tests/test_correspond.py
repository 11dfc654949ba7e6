"""Correspondence machinery tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from p2plreg import correspond, eig3
from p2plreg.cloud import PointCloud
from p2plreg.correspond import (
    CorrespondenceSet,
    gumbel_hard_weights,
    match_matrix,
    naive_vector_pointers,
    nn_correspond,
    reliability_weights,
    row_softmax,
    soft_pointers,
    topk_keypoints,
)
from p2plreg.fileio import ParseError, load_scores_csv
from p2plreg.geometry import RigidTransform, compose, random_rotation, rodrigues
from p2plreg.synth import synth_shape


TINY = np.finfo(np.float64).tiny


def _cloud(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    nrm = rng.standard_normal((n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


def _plain_softmax(u):
    e = np.exp(u - u.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def deep_scores():
    """Scores reaching far below -745, so the plain softmax has exact zeros,
    subnormal entries and normal ones in every row."""
    rng = np.random.default_rng(26)
    u = rng.uniform(-1000.0, 0.0, size=(40, 300))
    plain = _plain_softmax(u)
    assert u.min() < -745.0
    assert np.all(np.any((plain > 0.0) & (plain < TINY), axis=1))
    return u


class TestNearestNeighbor:
    def test_self_correspondence(self):
        cloud = _cloud(1, 100)
        corr = nn_correspond(cloud, cloud)
        np.testing.assert_array_equal(corr.targets, cloud.positions)
        np.testing.assert_array_equal(corr.normals, cloud.normals)
        np.testing.assert_array_equal(corr.weights, np.ones(100))

    def test_matches_exhaustive_scan(self):
        source = _cloud(2, 1000)
        target = _cloud(3, 1000)
        corr = nn_correspond(source, target)
        d2 = np.sum((source.positions[:, None, :] - target.positions[None, :, :]) ** 2, axis=2)
        idx = np.argmin(d2, axis=1)
        np.testing.assert_array_equal(corr.targets, target.positions[idx])
        np.testing.assert_array_equal(corr.normals, target.normals[idx])

    def test_exhaustive_scan_up_to_2000(self):
        source = _cloud(4, 2000)
        target = _cloud(5, 2000)
        corr = nn_correspond(source, target)
        d2 = np.sum((source.positions[:, None, :] - target.positions[None, :, :]) ** 2, axis=2)
        idx = np.argmin(d2, axis=1)
        np.testing.assert_array_equal(corr.targets, target.positions[idx])

    def test_tie_breaks_to_lowest_index(self):
        target = PointCloud(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        )
        source = PointCloud(np.zeros((1, 3)))
        corr = nn_correspond(source, target)
        np.testing.assert_array_equal(corr.targets[0], target.positions[0])

    @pytest.mark.parametrize("offsets", ["all_half", "mixed"])
    def test_many_way_ties_match_exhaustive_scan(self, offsets):
        # Shuffled integer grid; a source at a half-integer in every axis is
        # equidistant from 8 grid points, in fewer axes from 4, 2 or 1.
        rng = np.random.default_rng(31)
        grid = np.stack(np.meshgrid(*[np.arange(9.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        grid = grid[rng.permutation(len(grid))]
        target = PointCloud(grid, np.tile([0.0, 0.0, 1.0], (len(grid), 1)))
        half = 0.5 if offsets == "all_half" else 0.5 * rng.integers(0, 2, (200, 3))
        source = PointCloud(rng.integers(0, 8, (200, 3)) + half)
        corr = nn_correspond(source, target)
        d2 = np.sum((source.positions[:, None, :] - grid[None, :, :]) ** 2, axis=2)
        np.testing.assert_array_equal(corr.targets, grid[np.argmin(d2, axis=1)])

    def test_single_target(self):
        target = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 0.0, 1.0]]))
        corr = nn_correspond(_cloud(6, 5), target)
        assert np.all(corr.targets == target.positions[0])


class TestSoftPointers:
    @pytest.mark.parametrize("shape", [(4, 11), (4, 13), (12,)])
    def test_rejects_scores_not_matching_target(self, shape):
        with pytest.raises(ValueError, match="score matrix columns must match the target size"):
            soft_pointers(np.zeros(shape), _cloud(7, 12))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, value):
        u = np.zeros((4, 12))
        u[2, 5] = value
        with pytest.raises(ValueError, match="score matrix must be finite"):
            soft_pointers(u, _cloud(7, 12))

    def test_saturated_scores_pick_one_target(self):
        target = _cloud(7, 12)
        u = np.zeros((4, 12))
        stars = [3, 0, 7, 11]
        for i, j in enumerate(stars):
            u[i, j] = 100.0
        corr = soft_pointers(u, target)
        for i, j in enumerate(stars):
            np.testing.assert_allclose(corr.targets[i], target.positions[j], atol=1e-6)
            dot = abs(corr.normals[i] @ target.normals[j])
            assert dot >= 1.0 - 1e-6

    def test_antipodal_normals_survive_tensor_average(self):
        n = np.array([0.6, 0.7, math.sqrt(1 - 0.85)])
        n /= np.linalg.norm(n)
        target = PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.stack([n, -n]))
        corr = soft_pointers(np.zeros((1, 2)), target)
        assert abs(corr.normals[0] @ n) >= 1.0 - 1e-9
        # The vector-average baseline collapses on the same fixture.
        resultant = naive_vector_pointers(np.zeros((1, 2)), target)
        assert np.linalg.norm(resultant[0]) < 1e-12

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(8)
        target = _cloud(9, 30)
        u = rng.standard_normal((25, 30))
        corr = soft_pointers(u, target)
        c = row_softmax(u)
        for i in range(25):
            s = np.einsum("j,ja,jb->ab", c[i], target.normals, target.normals)
            lams, vecs = np.linalg.eigh(s)
            expect = vecs[:, -1]
            dot = abs(expect @ corr.normals[i])
            assert dot >= 1.0 - 1e-8

    def test_sign_flip_invariance_100_patterns(self):
        rng = np.random.default_rng(10)
        target = _cloud(11, 40)
        u = rng.standard_normal((16, 40))
        base = soft_pointers(u, target).normals
        for _ in range(100):
            flips = np.where(rng.random(40) < 0.5, -1.0, 1.0)
            flipped = PointCloud(target.positions, target.normals * flips[:, None])
            out = soft_pointers(u, flipped).normals
            angular = np.abs(np.abs(np.einsum("ni,ni->n", base, out)) - 1.0)
            assert np.max(angular) <= 1e-8

    def test_degenerate_tensor_flagged(self):
        # Two orthogonal normals with equal weight: top eigenvalues tie.
        target = PointCloud(
            np.array([[1.0, 0, 0], [0, 1.0, 0]]),
            np.array([[1.0, 0, 0], [0, 1.0, 0]]),
        )
        corr = soft_pointers(np.zeros((1, 2)), target)
        assert corr.degenerate is not None and corr.degenerate[0]


class TestSoftKernelOracles:
    """The soft kernel against the plain broadcast/einsum formulas."""

    def test_row_softmax_flushes_only_subnormals(self, deep_scores):
        plain = _plain_softmax(deep_scores)
        c = row_softmax(deep_scores)
        normal = plain >= TINY
        np.testing.assert_array_equal(c[normal], plain[normal])
        assert np.all(c[~normal] == 0.0)

    def test_soft_pointers_match_einsum(self, deep_scores, monkeypatch):
        target = _cloud(27, deep_scores.shape[1])
        seen = []
        real = eig3.principal_direction
        monkeypatch.setattr(eig3, "principal_direction", lambda t: seen.append(t) or real(t))
        corr = soft_pointers(deep_scores, target)
        c = row_softmax(deep_scores)
        nrm = target.normals
        np.testing.assert_allclose(corr.targets, c @ target.positions, rtol=1e-13)
        expect = np.einsum("ij,ja,jb->iab", c, nrm, nrm)
        np.testing.assert_allclose(seen[0], expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())

    @pytest.mark.parametrize("n, m", [(100, 1000), (70, 3), (1, 40000)])
    def test_match_matrix_matches_broadcast(self, n, m):
        source, target = _cloud(28, n), _cloud(29, m)
        t = RigidTransform(random_rotation(np.random.default_rng(30)), np.array([0.1, -0.2, 0.3]))
        u = match_matrix(source, target, t, alpha=0.7, beta=40.0)
        moved = source.positions @ t.rotation.T + t.translation
        diff = moved[:, None, :] - target.positions[None, :, :]
        expect = -40.0 * np.einsum("ijk,ijk->ij", diff, diff) + 0.7
        np.testing.assert_allclose(u, expect, rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 80)),
                  elements=st.floats(-1e4, 100.0), fill=st.nothing()))
    @example(np.array([[0.0, -720.0, -800.0]]))
    def test_row_softmax_has_no_subnormals(self, u):
        c = row_softmax(u)
        assert np.all((c == 0.0) | (c >= TINY))
        np.testing.assert_allclose(c.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


# Shapes split into row blocks: at the module's block size, 100 rows of
# 1000 make 32-row blocks and a 4-row tail, 40000 columns exceed a block so
# each block is one row, and one row is one block; 2100 entries make 7-row
# blocks of 40 rows. The oracle is one block.
BLOCKED = [(100, 1000, None), (5, 40000, None), (1, 300, None), (40, 300, 2100)]


def _one_block(call):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correspond, "_BLOCK_ELEMS", 10**12)
        return call()


def _blocked_scores(n, m):
    """Scores from -1000s up to past SCORE_CLAMP, so every row has flushed,
    clamped or subnormal-bound terms next to normal ones."""
    t = RigidTransform(random_rotation(np.random.default_rng(33)), np.array([0.1, 0.0, -0.2]))
    return match_matrix(_cloud(34, n), _cloud(35, m), t, alpha=85.0, beta=30.0)


class TestRowBlocks:
    """The row-blocked score passes against one block."""

    @pytest.fixture(params=BLOCKED, ids=lambda p: "x".join(map(str, p[:2])) + f"-{p[2]}")
    def shape(self, request, monkeypatch):
        n, m, elems = request.param
        if elems is not None:
            monkeypatch.setattr(correspond, "_BLOCK_ELEMS", elems)
        assert n == 1 or len(correspond._row_blocks(np.empty((n, m)))) > 1
        return n, m

    def test_match_matrix_is_bitwise_one_block(self, shape):
        n, m = shape
        t = RigidTransform(random_rotation(np.random.default_rng(36)), np.array([0.3, 0.1, 0.0]))
        args = (_cloud(37, n), _cloud(38, m), t, 0.7, 40.0)
        u = match_matrix(*args)
        assert u.tobytes() == _one_block(lambda: match_matrix(*args)).tobytes()

    @pytest.mark.parametrize("fn", [row_softmax, reliability_weights])
    def test_softmax_and_reliability_are_bitwise_one_block(self, shape, fn):
        u = _blocked_scores(*shape)
        assert fn(u).tobytes() == _one_block(lambda: fn(u)).tobytes()

    def test_soft_pointers_match_one_block(self, shape, monkeypatch):
        n, m = shape
        u, target = _blocked_scores(n, m), _cloud(35, m)
        seen = []
        real = eig3.principal_direction
        monkeypatch.setattr(eig3, "principal_direction", lambda t: seen.append(t) or real(t))
        corr = soft_pointers(u, target)
        oracle = _one_block(lambda: soft_pointers(u, target))
        np.testing.assert_allclose(corr.targets, oracle.targets, rtol=1e-13)
        np.testing.assert_allclose(seen[0], seen[1], rtol=1e-13, atol=1e-13 * np.abs(seen[1]).max())
        np.testing.assert_array_equal(corr.degenerate, oracle.degenerate)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_in_last_block_raises(self, value):
        u = np.zeros((100, 1000))
        assert correspond._row_blocks(u)[-1].start > 0
        u[99, 7] = value
        with pytest.raises(ValueError, match="score matrix must be finite"):
            soft_pointers(u, _cloud(7, 1000))
        if np.isnan(value):
            with pytest.raises(ValueError, match="score matrix must not contain NaN"):
                reliability_weights(u)

    def _warnings(self, call, caplog):
        caplog.clear()
        with caplog.at_level("WARNING", logger="p2plreg.correspond"):
            call()
        return [r.getMessage() for r in caplog.records]

    def test_underflow_warning_counts_rows_across_blocks(self, caplog, monkeypatch):
        u = np.zeros((7, 3))
        u[[0, 3, 6]] = -1e9
        call = lambda: reliability_weights(u)  # noqa: E731
        oracle = self._warnings(call, caplog)
        monkeypatch.setattr(correspond, "_BLOCK_ELEMS", 6)
        assert len(correspond._row_blocks(u)) == 4
        assert self._warnings(call, caplog) == oracle == [
            "reliability_weights: 3 rows underflowed to zero"]

    def test_degenerate_warning_counts_rows_across_blocks(self, caplog, monkeypatch):
        # Two orthogonal normals: equal scores tie the top eigenvalues.
        target = PointCloud(np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        u = np.tile([5.0, 0.0], (7, 1))
        u[[0, 3, 6]] = 0.0
        call = lambda: soft_pointers(u, target)  # noqa: E731
        oracle = self._warnings(call, caplog)
        monkeypatch.setattr(correspond, "_BLOCK_ELEMS", 4)
        assert len(correspond._row_blocks(u)) == 4
        assert self._warnings(call, caplog) == oracle == [
            "soft_pointers: 3 degenerate normal tensors"]


@pytest.mark.parametrize("fn", [
    lambda u, target: soft_pointers(u, target),
    lambda u, target: reliability_weights(u),
], ids=["soft_pointers", "reliability_weights"])
def test_score_passes_peak_below_one_full_matrix(fn):
    # One (1024, 1024) array is 8 MiB; the row blocks keep the peak under 1.
    u = _blocked_scores(1024, 1024)
    target = _cloud(35, 1024)
    tracemalloc.start()
    try:
        fn(u, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _softmax_first_pointers(u, target):
    """soft_pointers as the softmax-first formula: row_softmax, one product
    with the position and tensor columns, then eig3. Returns (targets,
    normals, degenerate)."""
    nrm = target.normals
    cols = np.concatenate(
        [target.positions, nrm[:, correspond._TENSOR_A] * nrm[:, correspond._TENSOR_B]], axis=1)
    avg = row_softmax(u) @ cols
    n, _, gap = eig3.principal_direction(avg[:, correspond._TENSOR_COLS])
    return avg[:, :3], n, gap <= correspond.DEGENERATE_TENSOR_GAP


def _soft_step_scores(seed):
    """Scores shaped like a learned-correspondence step's: 1024 keypoints
    of a 4096-point blob against their moved, noisy copies at beta = 200,
    from a pose about a degree off the truth. Returns (scores, target)."""
    rng = np.random.default_rng(seed)
    cloud = synth_shape("blob", 4096, seed)
    idx = rng.choice(4096, 1024, replace=False)
    gt = RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
    pos = cloud.positions[idx]
    target = PointCloud(pos @ gt.rotation.T + gt.translation + 1e-3 * rng.standard_normal(pos.shape),
                        cloud.normals[idx] @ gt.rotation.T)
    near = RigidTransform(rodrigues(np.radians(1.0) * random_rotation(rng)[0]), np.full(3, 0.003))
    source = PointCloud(pos, cloud.normals[idx])
    return match_matrix(source, target, compose(near, gt), alpha=0.0, beta=200.0), target


class TestSoftPointersParity:
    """soft_pointers divides after the product; the softmax-first formula
    is its oracle to rounding."""

    def _assert_close(self, u, target):
        corr = soft_pointers(u, target)
        y, n, degenerate = _softmax_first_pointers(u, target)
        np.testing.assert_allclose(corr.targets, y, rtol=0.0, atol=4e-15 * np.abs(y).max())
        np.testing.assert_allclose(corr.normals, n, rtol=0.0, atol=4e-15)
        np.testing.assert_array_equal(corr.degenerate, degenerate)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_soft_step_scores(self, seed):
        u, target = _soft_step_scores(seed)
        # Rows hold flushed, subnormal-bound and kept exponents.
        e = u - u.max(axis=1, keepdims=True)
        assert (e < correspond.LOG_TINY).any() and (e > -1.0).sum() > u.shape[0]
        self._assert_close(u, target)

    @pytest.mark.parametrize("n, m", [(100, 1000), (5, 40000), (1, 300)])
    def test_blocked_scores(self, n, m):
        self._assert_close(_blocked_scores(n, m), _cloud(35, m))

    def test_deep_scores(self, deep_scores):
        self._assert_close(deep_scores, _cloud(27, deep_scores.shape[1]))

    def test_peak_at_1024_keypoints(self):
        # One float and one bool block of 32 rows, the (M, 9) columns and
        # the (N, 9) averages; the block scratch is freed before eig3's
        # (N, 3, 3) work. 0.49 MiB; 0.65 MiB while the scratch outlived the
        # block loop.
        u, target = _blocked_scores(1024, 1024), _cloud(35, 1024)
        soft_pointers(u, target)
        tracemalloc.start()
        try:
            soft_pointers(u, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * 2**20, peak / 2**20

    # 100 x 1000 scores make 32-row blocks: row 0 opens the first block, row
    # 50 sits inside the second and row 99 is in the last.
    @pytest.mark.parametrize("row", [0, 50, 99])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises_in_any_block(self, row, value):
        u = _blocked_scores(100, 1000)
        u[row, 7] = value
        with pytest.raises(ValueError, match="score matrix must be finite"):
            soft_pointers(u, _cloud(35, 1000))


def _clamp_then_exp_reliability(u):
    """reliability_weights as a clamp to SCORE_CLAMP, a clamp to LOG_TINY
    and a masked exp over the whole matrix."""
    keep = u >= correspond.LOG_TINY
    e = np.maximum(np.minimum(u, correspond.SCORE_CLAMP), correspond.LOG_TINY) * keep
    return (np.exp(e) * keep).sum(axis=1)


def test_reliability_is_bitwise_two_clamps():
    rng = np.random.default_rng(40)
    u = rng.uniform(-1000.0, 200.0, size=(64, 500))
    tiny = correspond.LOG_TINY
    specials = [np.inf, -np.inf, correspond.SCORE_CLAMP, np.nextafter(correspond.SCORE_CLAMP, 0.0),
                np.nextafter(correspond.SCORE_CLAMP, np.inf), tiny, np.nextafter(tiny, 0.0),
                np.nextafter(tiny, -np.inf), -0.0]
    for value in specials:
        u[rng.random(u.shape) < 0.02] = value
    assert reliability_weights(u).tobytes() == _clamp_then_exp_reliability(u).tobytes()


class TestRowSoftmaxNonFinite:
    """row_softmax reads each block's row maxima: a NaN or +inf score, or a
    row with no finite score, raises; a -inf score in a row with a finite
    maximum is an exact 0 weight."""

    # 100 x 1000 scores make 32-row blocks: row 0 opens the first block, row
    # 50 sits inside the second and row 99 is in the last.
    ROWS = [0, 50, 99]

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("value, case", [(np.nan, "holds a NaN score"),
                                             (np.inf, r"holds a \+inf score")])
    def test_bad_score_names_case_and_row(self, row, value, case):
        u = _blocked_scores(100, 1000)
        u[row, 7] = value
        with pytest.raises(ValueError, match=f"score matrix row {row} {case}"):
            row_softmax(u)

    @pytest.mark.parametrize("row", ROWS)
    def test_row_without_finite_score(self, row):
        u = _blocked_scores(100, 1000)
        u[row] = -np.inf
        with pytest.raises(ValueError, match=f"score matrix row {row} has no finite score"):
            row_softmax(u)

    def test_nan_beside_inf_is_named_nan(self):
        u = np.zeros((3, 4))
        u[1, :2] = [np.inf, np.nan]
        with pytest.raises(ValueError, match="row 1 holds a NaN score"):
            row_softmax(u)

    def test_neg_inf_score_is_exact_zero(self):
        u = _blocked_scores(100, 1000)
        far = u.copy()
        u[self.ROWS, 7] = -np.inf
        far[self.ROWS, 7] = -1e6
        c = row_softmax(u)
        assert np.all(c[self.ROWS, 7] == 0.0)
        assert c.tobytes() == row_softmax(far).tobytes()


class TestMatchMatrix:
    def test_aligned_diagonal_is_row_max(self):
        cloud = _cloud(12, 25)
        u = match_matrix(cloud, cloud, RigidTransform.identity(), alpha=0.0, beta=2.0)
        assert np.all(np.diag(u) == 0.0)
        off = u - np.diag(np.full(25, np.inf))
        assert np.all(np.diag(u) >= off.max(axis=1))

    def test_large_beta_reproduces_nearest_neighbor(self):
        source = _cloud(13, 60)
        target = _cloud(14, 80)
        u = match_matrix(source, target, RigidTransform.identity(), alpha=0.3, beta=1e6)
        soft = row_softmax(u)
        picks = np.argmax(soft, axis=1)
        corr = nn_correspond(source, target)
        np.testing.assert_array_equal(target.positions[picks], corr.targets)
        np.testing.assert_allclose(soft.max(axis=1), 1.0, atol=1e-9)

    def test_alpha_shift_invariance(self):
        source = _cloud(15, 10)
        target = _cloud(16, 15)
        t = RigidTransform(random_rotation(np.random.default_rng(17)), np.zeros(3))
        s1 = row_softmax(match_matrix(source, target, t, alpha=0.0, beta=1.5))
        s2 = row_softmax(match_matrix(source, target, t, alpha=7.0, beta=1.5))
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_beta_positive_required(self):
        with pytest.raises(ValueError):
            match_matrix(_cloud(18, 4), _cloud(19, 4), RigidTransform.identity(), 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_non_finite_scales_rejected(self, name, value):
        # These used to return NaN or inf scores.
        kwargs = {"alpha": 0.0, "beta": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            match_matrix(_cloud(18, 4), _cloud(19, 4), RigidTransform.identity(), **kwargs)


class TestGumbel:
    def test_zero_noise_hook_is_argmax(self):
        # The clipped draw keeps the Gumbel noise in [-3.32, 27.63], so a row
        # whose best score leads by more than 31 keeps its argmax.
        u = np.array([[0.1, 33.0, -1.0], [36.0, 4.0, 4.9]])
        for seed in range(8):
            w = gumbel_hard_weights(u, seed=seed)
            np.testing.assert_array_equal(w, [[0, 1, 0], [1, 0, 0]])

    def test_rows_exactly_one_hot(self):
        rng = np.random.default_rng(20)
        u = rng.standard_normal((64, 9))
        w = gumbel_hard_weights(u, seed=5)
        assert set(np.unique(w)) <= {0.0, 1.0}
        np.testing.assert_array_equal(w.sum(axis=1), np.ones(64))

    def test_constant_row_shift_invariance(self):
        rng = np.random.default_rng(22)
        u = rng.standard_normal((16, 5))
        a = gumbel_hard_weights(u, seed=11)
        b = gumbel_hard_weights(u + 3.25, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_selection_frequencies_match_softmax(self):
        # The perturb-and-argmax construction samples the softmax
        # distribution; Monte-Carlo frequencies must match (1, 2, 3) / 6.
        u = np.tile(np.log(np.array([1.0, 2.0, 3.0])), (100_000, 1))
        w = gumbel_hard_weights(u, seed=123)
        freq = w.mean(axis=0)
        np.testing.assert_allclose(freq, [1 / 6, 2 / 6, 3 / 6], atol=0.01)


class TestReliability:
    def test_uniform_scores(self):
        zeta = reliability_weights(np.zeros((3, 5)))
        np.testing.assert_array_equal(zeta, [5.0, 5.0, 5.0])

    def test_underflow_row_is_zero(self):
        u = np.full((2, 4), -1e9)
        u[0] = 0.0
        zeta = reliability_weights(u)
        assert zeta[0] == 4.0
        assert zeta[1] == 0.0

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(23)
        u = rng.uniform(-30, 30, size=(50, 200))
        zeta = reliability_weights(u)
        for i in range(50):
            expect = math.fsum(math.exp(v) for v in u[i])
            assert zeta[i] == pytest.approx(expect, rel=1e-12)

    def test_subnormal_terms_flush_to_zero(self, caplog):
        u = np.full((2, 3), -720.0)  # exp(-720) is subnormal
        u[0, 0] = 0.0
        with caplog.at_level("WARNING", logger="p2plreg.correspond"):
            zeta = reliability_weights(u)
        assert zeta[0] == 1.0
        assert zeta[1] == 0.0
        assert "1 rows underflowed" in caplog.text

    def test_clamp_keeps_finite(self):
        zeta = reliability_weights(np.full((1, 3), 1e9))
        assert np.isfinite(zeta).all()

    def test_nan_score_rejected(self):
        u = np.zeros((3, 4))
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            reliability_weights(u)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_scores(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-5, 5, size=(4, 6))
        i, j = rng.integers(4), rng.integers(6)
        bumped = u.copy()
        bumped[i, j] += 0.5
        base = reliability_weights(u)
        up = reliability_weights(bumped)
        assert up[i] > base[i]
        mask = np.arange(4) != i
        np.testing.assert_array_equal(up[mask], base[mask])


class TestTopK:
    def test_example(self):
        np.testing.assert_array_equal(topk_keypoints([3.0, 1.0, 2.0], 2), [1, 2])

    def test_k_equals_n(self):
        out = topk_keypoints([5.0, 1.0, 3.0], 3)
        np.testing.assert_array_equal(sorted(out), [0, 1, 2])

    def test_matches_full_sort(self):
        rng = np.random.default_rng(24)
        norms = rng.standard_normal(500)
        out = topk_keypoints(norms, 40)
        np.testing.assert_array_equal(out, np.argsort(norms, kind="stable")[:40])

    def test_descending_option(self):
        rng = np.random.default_rng(25)
        norms = rng.standard_normal(100)
        out = topk_keypoints(norms, 10, order="desc")
        np.testing.assert_array_equal(out, np.argsort(-norms, kind="stable")[:10])

    def test_stable_on_ties(self):
        np.testing.assert_array_equal(topk_keypoints([1.0, 1.0, 1.0], 2), [0, 1])

    def test_rejects_negative_k(self):
        # A negative slice bound would silently drop the last index instead.
        with pytest.raises(ValueError):
            topk_keypoints([3.0, 1.0, 2.0], -1)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError, match="order must be 'asc' or 'desc'"):
            topk_keypoints([3.0, 1.0, 2.0], 2, order="ascending")


class TestCorrespondenceSet:
    @pytest.mark.parametrize("targets, normals, weights", [
        (np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2)),
        (np.zeros(3), np.array([0.0, 0.0, 1.0]), np.ones(1)),
        (np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (3, 1)), np.ones(2)),
        (np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)), np.ones(3)),
        (np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)), np.ones((2, 1))),
    ], ids=["two-columns", "one-dimensional", "normals-rows", "weights-length", "weights-2d"])
    def test_rejects_inconsistent_shapes(self, targets, normals, weights):
        with pytest.raises(ValueError, match="inconsistent correspondence array shapes"):
            CorrespondenceSet(targets, normals, weights)

    def test_rejects_nonunit_normals(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((2, 3)), np.full((2, 3), 0.5), np.ones(2))

    def test_rejects_negative_weights(self):
        n = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((2, 3)), n, np.array([1.0, -0.1]))

    def test_rejects_all_zero_weights(self):
        n = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((1, 3)), n, np.zeros(1))

    @pytest.mark.parametrize("which", ["targets", "normals", "weights"])
    def test_rejects_nan(self, which):
        # NaN slips past the unit-norm and sign checks, so it needs its own.
        arrays = {
            "targets": np.zeros((2, 3)),
            "normals": np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
            "weights": np.ones(2),
        }
        arrays[which][1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            CorrespondenceSet(**arrays)


def test_scores_csv_round_trip(tmp_path):
    u = np.array([[1.5, -2.0, 3.0], [0.0, 0.25, -1.75]])
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(",".join("%.17g" % v for v in row) for row in u) + "\n")
    np.testing.assert_array_equal(load_scores_csv(path), u)


def test_scores_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,x\n")
    with pytest.raises(ValueError, match="line 2"):
        load_scores_csv(path)


def test_scores_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="line 2") as info:
        load_scores_csv(path)
    assert info.value.line == 2


def test_scores_csv_error_names_the_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError) as info:
        load_scores_csv(path)
    assert str(info.value) == f"{path}: line 2: non-numeric value"
    assert info.value.line == 2


def test_scores_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ParseError, match="empty scores file"):
        load_scores_csv(path)

"""Finite-difference oracle self-tests and report arithmetic."""

import numpy as np
import pytest

import tracemalloc

import p2plreg.cli as cli
import p2plreg.gradcheck as gradcheck
from p2plreg.correspond import CorrespondenceSet, exact_correspond
from p2plreg.gradcheck import (
    INPUT_KINDS,
    FDConfig,
    _perturbed_moments,
    compare,
    fd_bundle,
    make_instance,
)
from p2plreg.geometry import to_gvector
from p2plreg.seeding import derived_seed
from p2plreg.gradient import PerInput, backward, residual_coeffs, rigid_motion_loss
from p2plreg.solver import _accumulate_batch, _moments, register_p2pl
from p2plreg.synth import draw_rigid, synth_shape
from p2plreg.seeding import derived_rng


class TestFdJacobian:
    def test_zero_residual_y_block_matches_analytic(self):
        cloud = synth_shape("blob", 32, seed=1)
        gt = draw_rigid(derived_rng(1, "gt"), 25.0, 0.3)
        corr = exact_correspond(cloud, gt)
        rep = register_p2pl(corr, cloud, n_iters=10)
        bundle = backward(corr, cloud, rep.transform)
        jac = bundle.jacobians()
        wrt_y = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10)).wrt_y
        sq = ref = 0.0
        for i in range(8):
            fd = wrt_y[i]
            sq += float(np.sum((jac.wrt_y[i] - fd) ** 2))
            ref += float(np.sum(fd**2))
        assert sq / ref <= 1e-6

    def test_bundle_is_per_pair_jacobians_across_chunks(self, monkeypatch):
        # At N = 250 the oracle runs 3 batched jobs and job boundaries fall
        # inside a pair's 10 rows; every block must still be the one a
        # single job over all perturbed copies gives, bitwise.
        corr, cloud, _ = make_instance(12, 250, noise=1e-3)
        cfg = FDConfig(n_iters_forward=1)
        blocks = fd_bundle(corr, cloud, cfg)
        monkeypatch.setattr(gradcheck, "CHUNK_ELEMS", 10**12)
        _assert_blocks_equal(blocks, fd_bundle(corr, cloud, cfg))

    def test_rank_two_moments_match_reformed_moments(self):
        # Each perturbed copy's (m, q0) is the base moments with one pair's
        # term swapped; re-forming them from the perturbed table around the
        # base centroid must agree, for every column of pairs 0, 17 and 39.
        corr, cloud, _ = make_instance(10, 40, noise=1e-3)
        arrays = (cloud.positions, corr.targets, corr.normals, corr.weights)
        table = np.column_stack(arrays)
        moments = _moments(*arrays)
        h = 1e-5
        pairs = np.repeat([0, 17, 39], 10)
        cols = np.tile(np.arange(10), 3)
        m, q0 = _perturbed_moments(moments, table, pairs, cols, h)
        for row, (pair, col) in enumerate(zip(pairs, cols)):
            for copy, sign in ((2 * row, h), (2 * row + 1, -h)):
                pert = table.copy()
                pert[pair, col] += sign
                x, y, n, zeta = pert[:, :3], pert[:, 3:6], pert[:, 6:9], pert[:, 9]
                root = np.sqrt(zeta)
                u = root[:, None] * residual_coeffs(x - moments[0], n)
                s = root * np.einsum("ni,ni->n", x - y, n)
                msg = f"pair {pair}, column {col}"
                np.testing.assert_allclose(m[copy], u.T @ u, rtol=1e-12, err_msg=msg)
                np.testing.assert_allclose(q0[copy], u.T @ s, rtol=1e-12, err_msg=msg)

    def test_bundle_matches_from_scratch_resolves(self):
        # Oracle built without rank-two updates: every perturbed copy forms
        # its own moments, centroid included, and is solved alone.
        corr, cloud, _ = make_instance(11, 12, noise=1e-3)
        cfg = FDConfig(n_iters_forward=10)
        blocks = fd_bundle(corr, cloud, cfg)
        h = cfg.step
        arrays = (cloud.positions, corr.targets, corr.normals, corr.weights)

        def solve(kind, pair, comp, sign):
            pert = [a.copy() for a in arrays]
            if pert[kind].ndim == 2:
                pert[kind][pair, comp] += sign
            else:
                pert[kind][pair] += sign
            mu, _, _, m, q0 = _moments(*pert)
            rot, trans, _, _ = _accumulate_batch(m[None], q0[None], mu[None], 10)
            return np.concatenate([rot[0].ravel(), trans[0]])

        bounds = {"x": 1e-8, "y": 1e-8, "n": 1e-6, "zeta": 1e-5}
        for kind, which in enumerate(INPUT_KINDS):
            got = getattr(blocks, f"wrt_{which}")
            want = np.empty_like(got)
            for pair in range(len(corr)):
                for comp in range(3 if got.ndim == 3 else 1):
                    col = (solve(kind, pair, comp, h) - solve(kind, pair, comp, -h)) / (2 * h)
                    if got.ndim == 3:
                        want[pair, :, comp] = col
                    else:
                        want[pair] = col
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= bounds[which], (which, err)

    def test_bundle_memory_stays_chunked(self):
        # At N = 1024 the oracle needs 20480 perturbed copies; batched jobs
        # of CHUNK_ELEMS moment elements keep the peak below the 20.05 MB the
        # per-point oracle (which copied every pair per copy) needed.
        corr, cloud, _ = make_instance(0, 1024, noise=1e-4)
        tracemalloc.start()
        try:
            fd_bundle(corr, cloud, FDConfig(n_iters_forward=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= 20.0

    def test_step_halving_is_second_order(self):
        # Differences between successive step sizes shrink by ~4x per halving.
        corr, cloud, _ = make_instance(3, 12, noise=5e-3)
        js = [
            fd_bundle(corr, cloud, FDConfig(step=h, n_iters_forward=5)).wrt_y
            for h in (4e-4, 2e-4, 1e-4)
        ]
        d1 = np.linalg.norm(js[0] - js[1])
        d2 = np.linalg.norm(js[1] - js[2])
        assert 2.5 <= d1 / d2 <= 6.0

    def test_uniform_weight_direction_is_flat(self):
        # With unit reliabilities, the all-ones direction is the uniform
        # rescaling the solve is invariant to, so the oracle's zeta
        # Jacobian must vanish along it.
        corr, cloud, _ = make_instance(4, 24, noise=1e-3)
        corr = CorrespondenceSet(corr.targets, corr.normals, np.ones(24))
        cfg = FDConfig(n_iters_forward=10)
        blocks = fd_bundle(corr, cloud, cfg)
        along_ones = blocks.wrt_zeta.sum(axis=0)  # sum_i d g / d zeta_i
        scale = np.abs(blocks.wrt_zeta).max()
        assert np.max(np.abs(along_ones)) <= 1e-4 * max(scale, 1e-30)


def _assert_blocks_equal(got, want, msg=""):
    for kind in INPUT_KINDS:
        field = f"wrt_{kind}"
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=msg)


class TestOnePassSweep:
    # fd_bundle runs its rounds once, to cfg.n_iters_forward, and reads the
    # blocks at each also_at count on the way.

    @pytest.mark.parametrize("n_pairs", [64, 256])
    def test_counts_match_separate_calls(self, n_pairs):
        # At N = 64 the 1280 perturbed copies run as one batched job; at
        # N = 256 the 5120 copies run as three.
        corr, cloud, _ = make_instance(n_pairs, n_pairs, noise=1e-3)
        counts = (1, 2, 5, 10)
        sweep = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10), also_at=counts)
        assert sorted(sweep.also) == list(counts)
        for count in counts:
            alone = fd_bundle(corr, cloud, FDConfig(n_iters_forward=count))
            _assert_blocks_equal(sweep.also[count], alone, f"n_iters={count}")
        _assert_blocks_equal(sweep, sweep.also[10])

    @pytest.mark.parametrize("n_pairs", [64, 250])
    def test_transforms_are_register_p2pl(self, n_pairs):
        # The first job carries the unperturbed problem as one more item:
        # at N = 64 that job is the only one, at N = 250 the first of three.
        corr, cloud, _ = make_instance(n_pairs + 1, n_pairs, noise=1e-3)
        sweep = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10), also_at=(1, 2, 5))
        assert sorted(sweep.transforms) == [1, 2, 5, 10]
        for count, got in sweep.transforms.items():
            want = register_p2pl(corr, cloud, n_iters=count).transform
            for g, w in ((got.rotation, want.rotation), (got.translation, want.translation)):
                np.testing.assert_array_equal(g, w, err_msg=f"n_iters={count}")
                np.testing.assert_array_equal(np.signbit(g), np.signbit(w))

    def test_no_counts_is_the_plain_bundle(self):
        corr, cloud, _ = make_instance(5, 12, noise=1e-3)
        cfg = FDConfig(n_iters_forward=3)
        plain = fd_bundle(corr, cloud, cfg)
        assert plain.also == {}
        _assert_blocks_equal(fd_bundle(corr, cloud, cfg, also_at=(1, 2)), plain)

    @pytest.mark.parametrize("count", [0, -1, 4])
    def test_count_outside_the_run_rejected(self, count):
        corr, cloud, _ = make_instance(5, 8, noise=1e-3)
        with pytest.raises(ValueError, match=r"also_at counts must be in \[1, 3\]"):
            fd_bundle(corr, cloud, FDConfig(n_iters_forward=3), also_at=(1, count))

    def test_cli_keeps_count_order_and_duplicates(self, tmp_path, monkeypatch):
        # The CSV must equal the rows built from one fd_bundle call per count.
        monkeypatch.setenv("P2PL_THREADS", "1")
        iters = [10, 1, 10, 2]
        out = tmp_path / "gc"
        assert cli.main(["gradcheck", "--n", "16", "--cases", "2", "--seed", "4",
                         "--iters", ",".join(map(str, iters)), "--out", str(out)]) == 0
        rows = []
        for case in range(2):
            corr, cloud, gt = make_instance(derived_seed(4, case), 16, noise=1e-4)
            for n_iters in iters:
                g = to_gvector(register_p2pl(corr, cloud, n_iters=n_iters).transform)
                fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=n_iters))
                _, dldg = rigid_motion_loss(g, gt)
                err = compare(backward(corr, cloud, g), fd, dldg, n_iters)
                for kind in INPUT_KINDS:
                    rows.append([case, kind, *err.per_input[kind], n_iters])
                rows.append([case, "all", err.mse, err.rel_mse, n_iters])
        header = ["instance_id", "input_kind", "mse", "rel_mse", "n_iters"]
        cli._write_csv(tmp_path / "want.csv", header, rows)
        got = (out / "gradcheck.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert len(got.splitlines()) == 1 + 2 * 5 * len(iters)

    def test_cli_calls_the_oracle_once_per_case(self, tmp_path, monkeypatch):
        calls = []

        def counted(corr, source, cfg, **kwargs):
            calls.append((cfg.n_iters_forward, tuple(kwargs.get("also_at", ()))))
            return fd_bundle(corr, source, cfg, **kwargs)

        monkeypatch.setattr(cli, "fd_bundle", counted)
        assert cli.main(["gradcheck", "--n", "12", "--cases", "3", "--iters", "2,5,1",
                         "--out", str(tmp_path / "gc")]) == 0
        assert calls == [(5, (2, 5, 1))] * 3


class TestCompare:
    def test_identical_gradients_zero_error(self):
        corr, cloud, gt = make_instance(7, 16, noise=1e-3)
        rep = register_p2pl(corr, cloud, n_iters=10)
        g = to_gvector(rep.transform)
        bundle = backward(corr, cloud, g)
        fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10))
        # Feed the analytic bundle as its own reference through the FD slot.
        self_fd = bundle.jacobians()
        _, dldg = rigid_motion_loss(g, gt)
        report = compare(bundle, self_fd, dldg, 10)
        assert report.mse == 0.0 and report.rel_mse == 0.0
        real = compare(bundle, fd, dldg, 10)
        assert real.rel_mse > 0.0

    def test_doubled_reference_ratio(self):
        corr, cloud, gt = make_instance(8, 16, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=10).transform)
        bundle = backward(corr, cloud, g)
        jac = bundle.jacobians()
        doubled = PerInput(2 * jac.wrt_x, 2 * jac.wrt_y, 2 * jac.wrt_n, 2 * jac.wrt_zeta)
        _, dldg = rigid_motion_loss(g, gt)
        report = compare(bundle, doubled, dldg, 10)
        assert report.rel_mse == pytest.approx(0.25, rel=1e-12)

    def test_zero_reference_reads_inf_or_zero(self):
        # relMSE divides by the oracle's mean square: x / 0 reads inf, 0 / 0 reads 0.
        corr, cloud, gt = make_instance(9, 12, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=5).transform)
        bundle = backward(corr, cloud, g)
        jac = bundle.jacobians()
        zero = PerInput(*(np.zeros_like(getattr(jac, f"wrt_{kind}")) for kind in INPUT_KINDS))
        _, dldg = rigid_motion_loss(g, gt)
        report = compare(bundle, zero, dldg, 5)
        assert report.mse > 0.0 and report.rel_mse == np.inf
        assert all(rel == np.inf for _, rel in report.per_input.values())
        flat = compare(bundle, zero, np.zeros(12), 5)
        assert flat.mse == 0.0 and flat.rel_mse == 0.0

    def test_report_carries_per_input_kinds(self):
        corr, cloud, gt = make_instance(9, 12, noise=1e-3)
        g = to_gvector(register_p2pl(corr, cloud, n_iters=5).transform)
        bundle = backward(corr, cloud, g)
        fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=5))
        _, dldg = rigid_motion_loss(g, gt)
        report = compare(bundle, fd, dldg, 5)
        assert set(report.per_input) == {"x", "y", "n", "zeta"}
        assert report.n_iters == 5


class TestFDConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            FDConfig(step=0.0)

    def test_rejects_nan_step(self):
        # A NaN step would pass a plain "<= 0" check and give NaN Jacobians.
        with pytest.raises(ValueError):
            FDConfig(step=float("nan"))

    def test_rejects_zero_forward_iterations(self):
        # Zero rounds leave every copy at the identity: all-zero Jacobians.
        with pytest.raises(ValueError):
            FDConfig(n_iters_forward=0)


class TestMakeInstance:
    @pytest.mark.parametrize("noise", [-1e-3, float("nan"), float("inf")])
    def test_rejects_bad_noise(self, noise):
        # A negative or NaN noise used to give a noise-free instance.
        with pytest.raises(ValueError, match="noise must be finite and non-negative"):
            make_instance(0, 8, noise=noise)

    def test_zero_noise_is_exact(self):
        corr, cloud, gt = make_instance(0, 8, noise=0.0)
        np.testing.assert_array_equal(
            corr.targets, cloud.positions @ gt.rotation.T + gt.translation
        )

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from p2plreg.cloud import PointCloud
from p2plreg.correspond import (
    CorrespondenceSet,
    exact_correspond,
    naive_vector_pointers,
    nn_correspond,
    soft_pointers,
)
from p2plreg.gradcheck import FDConfig, compare, fd_bundle, make_instance
from p2plreg.geometry import log_rotation, random_rotation, to_gvector
from p2plreg.gradient import backward, energy_gradient, hessian, rigid_motion_loss
from p2plreg.metrics import batch_stats, geodesic_angle_deg
from p2plreg.solver import icp, register_p2pl, register_procrustes
from p2plreg.synth import SynthConfig, draw_rigid, estimate_normals, make_cpu_pair, synth_shape
from p2plreg.seeding import derived_rng


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    iters_list = (1, 2, 5, 10)
    cases = 50
    t0 = time.perf_counter()
    sq = {it: 0.0 for it in iters_list}
    ref = {it: 0.0 for it in iters_list}
    rel_by_case = {it: [] for it in iters_list}
    for case in range(cases):
        corr, cloud, gt = make_instance(case, 64, noise=1e-4)
        # One oracle pass to 10 rounds gives the blocks at every count.
        fd = fd_bundle(corr, cloud, FDConfig(n_iters_forward=10), also_at=iters_list)
        for it in iters_list:
            rep = register_p2pl(corr, cloud, n_iters=it)
            g = to_gvector(rep.transform)
            bundle = backward(corr, cloud, g)
            _, dldg = rigid_motion_loss(g, gt)
            err = compare(bundle, fd.also[it], dldg, it)
            rel_by_case[it].append(err.rel_mse)
            # Pool the aggregate across instances from the raw sums.
            for kind, (mse_k, rel_k) in err.per_input.items():
                size = 64 * (1 if kind == "zeta" else 3)
                sq[it] += mse_k * size
                ref[it] += (mse_k / rel_k) * size if rel_k > 0 else 0.0
    elapsed = time.perf_counter() - t0

    aggregate = sq[10] / ref[10]
    means = [float(np.mean(rel_by_case[it])) for it in iters_list]
    decreasing = all(means[i] > means[i + 1] for i in range(len(means) - 1))
    frac_better = float(
        np.mean([rel_by_case[10][c] < rel_by_case[1][c] for c in range(cases)])
    )
    ok = aggregate <= 1e-4 and decreasing and elapsed <= 120.0 and frac_better >= 0.9
    _report(
        1,
        "gradient correctness",
        ok,
        f"aggregate relMSE@10={aggregate:.3e} (<=1e-4), mean relMSE over iters "
        f"{[f'{m:.2e}' for m in means]} strictly decreasing={decreasing}, "
        f"relMSE(10)<relMSE(1) on {frac_better:.0%} of cases, runtime {elapsed:.1f}s (<=120s)",
    )


def test_criterion_2_exact_recovery():
    failures = 0
    worst_r = worst_t = 0.0
    for seed in range(100):
        cloud = synth_shape("blob", 256, seed=seed)
        gt = draw_rigid(derived_rng(seed, "gt"), 45.0, 0.5)
        corr = exact_correspond(cloud, gt)
        rep = register_p2pl(corr, cloud, n_iters=10)
        r_err = float(np.linalg.norm(log_rotation(rep.transform.rotation.T @ gt.rotation)))
        t_err = float(np.linalg.norm(rep.transform.translation - gt.translation))
        worst_r, worst_t = max(worst_r, r_err), max(worst_t, t_err)
        failures += (r_err >= 1e-6) or (t_err >= 1e-6)
    ok = failures == 0
    _report(
        2,
        "exact recovery",
        ok,
        f"100/{100 - failures} cases within 1e-6; worst rotation {worst_r:.2e} rad, "
        f"worst translation {worst_t:.2e}",
    )


def _median_ms(fn, reps, warmup=2):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def test_criterion_3_backward_cost_independence():
    corr, cloud, _ = make_instance(0, 1024, noise=1e-4)
    g1 = to_gvector(register_p2pl(corr, cloud, n_iters=1).transform)
    g20 = to_gvector(register_p2pl(corr, cloud, n_iters=20).transform)
    bwd_1 = _median_ms(lambda: backward(corr, cloud, g1), reps=20)
    bwd_20 = _median_ms(lambda: backward(corr, cloud, g20), reps=20)

    t0 = time.perf_counter()
    fd_bundle(corr, cloud, FDConfig(n_iters_forward=10))
    fd_ms = (time.perf_counter() - t0) * 1e3
    analytic_ms = _median_ms(lambda: backward(corr, cloud, g20), reps=20)

    ok = bwd_20 <= 2.0 * bwd_1 and fd_ms >= 10.0 * analytic_ms
    _report(
        3,
        "backward cost independence",
        ok,
        f"backward@20fwd={bwd_20:.2f}ms <= 2x backward@1fwd={bwd_1:.2f}ms; "
        f"FD oracle {fd_ms:.0f}ms >= 10x analytic {analytic_ms:.2f}ms "
        f"(ratio {fd_ms / analytic_ms:.0f}x)",
    )


def test_criterion_4_conjugation_equivariance():
    corr, cloud, _ = make_instance(4, 96, noise=1e-3)
    base = register_p2pl(corr, cloud, n_iters=10).transform
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        q = random_rotation(rng)
        cloud_q = PointCloud(cloud.positions @ q.T, cloud.require_normals() @ q.T)
        corr_q = CorrespondenceSet(corr.targets @ q.T, corr.normals @ q.T, corr.weights)
        out = register_p2pl(corr_q, cloud_q, n_iters=10).transform
        worst = max(
            worst,
            float(np.max(np.abs(out.rotation - q @ base.rotation @ q.T))),
            float(np.max(np.abs(out.translation - q @ base.translation))),
        )
    ok = worst <= 1e-8
    _report(4, "conjugation equivariance", ok, f"worst deviation {worst:.2e} (<=1e-8) over 100 rotations")


def test_criterion_5_normal_tensor_robustness():
    rng = np.random.default_rng(55)
    pts = rng.standard_normal((40, 3))
    nrm = rng.standard_normal((40, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    target = PointCloud(pts, nrm)
    scores = rng.standard_normal((16, 40))
    base = soft_pointers(scores, target).normals
    worst = 0.0
    for _ in range(100):
        flips = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        flipped = PointCloud(pts, nrm * flips[:, None])
        out = soft_pointers(scores, flipped).normals
        ang = np.abs(np.abs(np.einsum("ni,ni->n", base, out)) - 1.0)
        worst = max(worst, float(np.max(ang)))

    # Antipodal fixture: every direction appears with both signs at equal
    # weight; vector averaging collapses, tensor averaging does not.
    anti = PointCloud(np.vstack([pts[:20], pts[:20]]), np.vstack([nrm[:20], -nrm[:20]]))
    uniform = np.zeros((16, 40))
    resultants = np.linalg.norm(naive_vector_pointers(uniform, anti), axis=1)
    tensor_norms = np.linalg.norm(soft_pointers(uniform, anti).normals, axis=1)
    ok = worst <= 1e-8 and float(resultants.mean()) < 0.1 and np.allclose(tensor_norms, 1.0)
    _report(
        5,
        "normal-tensor robustness",
        ok,
        f"worst angular deviation {worst:.2e} (<=1e-8) over 100 flip patterns; "
        f"naive vector-average resultant {resultants.mean():.2e} (<0.1)",
    )


def test_criterion_6_point_to_plane_advantage():
    wins = 0
    cases = 100
    for seed in range(cases):
        base = synth_shape("blob", 4000, seed=seed)
        cfg = SynthConfig(seed=seed, n_sample=512, n_partial=512, rot_max_deg=20.0,
                          trans_max=0.15, compose_count=1)
        pair = make_cpu_pair([base], cfg)
        target = estimate_normals(pair.target, 16, seed)  # randomly flipped signs
        e_pl = geodesic_angle_deg(
            icp(pair.source, target, method="p2pl", max_outer=30, inner_iters=10).transform.rotation,
            pair.gt.rotation,
        )
        e_pp = geodesic_angle_deg(
            icp(pair.source, target, method="p2p", max_outer=30).transform.rotation,
            pair.gt.rotation,
        )
        wins += e_pl < e_pp
    ok = wins >= 70
    _report(6, "point-to-plane advantage", ok, f"p2pl beat p2p on {wins}/100 pairs (need >=70)")


def test_criterion_7_oracle_equivalences():
    # Nearest neighbors against the exhaustive scan at the size cap.
    rng = np.random.default_rng(77)
    src = PointCloud(rng.standard_normal((2000, 3)))
    nrm = rng.standard_normal((2000, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    tgt = PointCloud(rng.standard_normal((2000, 3)), nrm)
    corr = nn_correspond(src, tgt)
    d2 = np.sum((src.positions[:, None, :] - tgt.positions[None, :, :]) ** 2, axis=2)
    nn_ok = bool(np.array_equal(corr.targets, tgt.positions[np.argmin(d2, axis=1)]))

    # Hessian against finite differences of the energy gradient.
    corr_h, cloud_h, _ = make_instance(7, 24, noise=5e-3)
    g = to_gvector(draw_rigid(np.random.default_rng(7), 30.0, 0.3))
    g = g + 1e-3 * np.random.default_rng(8).standard_normal(12)
    lam = 0.37
    h_analytic = hessian(corr_h, cloud_h, g, lam)
    fd = np.zeros((12, 12))
    step = 1e-5
    for k in range(12):
        gp, gm = g.copy(), g.copy()
        gp[k] += step
        gm[k] -= step
        fd[:, k] = (
            energy_gradient(corr_h, cloud_h, gp, lam) - energy_gradient(corr_h, cloud_h, gm, lam)
        ) / (2 * step)
    hessian_rel = float(np.linalg.norm(h_analytic - fd) / np.linalg.norm(fd))

    # Procrustes exact recovery.
    proc_worst = 0.0
    for seed in range(20):
        cloud = synth_shape("blob", 128, seed=seed)
        gt = draw_rigid(derived_rng(seed, "proc"), 40.0, 0.5)
        t = register_procrustes(exact_correspond(cloud, gt), cloud)
        proc_worst = max(
            proc_worst,
            float(np.max(np.abs(t.rotation - gt.rotation))),
            float(np.max(np.abs(t.translation - gt.translation))),
        )

    # Batch statistics against the textbook formulas.
    res = rng.standard_normal((40, 3))
    gts = rng.uniform(-20, 20, (40, 3))
    stats = batch_stats(res, gts)
    flat = res.reshape(-1)
    ss_tot = sum(np.sum((gts[:, j] - gts[:, j].mean()) ** 2) for j in range(3))
    stats_err = max(
        abs(stats.mse - np.mean(flat**2)),
        abs(stats.rmse - np.sqrt(np.mean(flat**2))),
        abs(stats.mae - np.mean(np.abs(flat))),
        abs(stats.r2 - (1 - np.sum(flat**2) / ss_tot)),
    )

    ok = nn_ok and hessian_rel <= 1e-5 and proc_worst <= 1e-10 and stats_err <= 1e-12
    _report(
        7,
        "oracle equivalences",
        ok,
        f"nn==exhaustive:{nn_ok}, hessian-vs-FD rel {hessian_rel:.2e} (<=1e-5), "
        f"procrustes worst {proc_worst:.2e} (<=1e-10), batch-stats err {stats_err:.2e} (<=1e-12)",
    )


def test_criterion_8_determinism(tmp_path, monkeypatch):
    from p2plreg.cli import main

    def run_twice(args, outs, threads):
        payloads = []
        for out, t in zip(outs, threads):
            monkeypatch.setenv("P2PL_THREADS", t)
            assert main(args + ["--out", str(out)]) == 0
            blob = b""
            for p in sorted(out.rglob("*")):
                if p.is_file() and p.name != "run_config.json":
                    blob += p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes()
            payloads.append(blob)
        return payloads

    synth_args = ["synth", "--pairs", "3", "--seed", "9", "--n-points", "128",
                  "--n-partial", "96"]
    s = run_twice(synth_args, [tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"],
                  ["1", "4", "2"])
    synth_ok = s[0] == s[1] == s[2]

    gc_args = ["gradcheck", "--n", "16", "--cases", "3", "--iters", "1,10", "--seed", "5"]
    g = run_twice(gc_args, [tmp_path / "g1", tmp_path / "g2", tmp_path / "g3"],
                  ["1", "4", "2"])
    gc_ok = g[0] == g[1] == g[2]

    ok = synth_ok and gc_ok
    _report(
        8,
        "determinism",
        ok,
        f"synth byte-identical across runs/threads: {synth_ok}; "
        f"gradcheck byte-identical: {gc_ok}",
    )

"""Measurement loops, calibration and reporting behind run.py.

Imported only after run.py has pinned the thread counts, because numpy
reads them when it is first imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import p2plreg
import p2plreg.gradcheck
from tracing import Tracer
from workloads import DIFF_TOL, FULL, WORKLOADS, check_step, differentiate, sub_seed

SETUP_REPS = 5
SWEEP_N = (256, 1024, 4096, 16384)
SWEEP_SECONDS = 0.3  # per size, with at least 3 repetitions

# name -> unit; every workload prints all of them with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_alloc_mb": "MB",
}
OP_NOUN = {"icp-register": "pair", "diff-step": "step", "soft-step": "step",
           "gradcheck": "case"}

# Per-layer metrics read off each workload's traced ops, named
# <span>.<stat>[.<workload>]: the workload suffix marks a layer measured on
# more than its main workload. ``calls``, ``per_pair`` and ``failed`` count
# per op, ``self_ms`` is milliseconds of self time per op.
LAYERS = {
    "icp-register": [
        "fileio.load.self_ms",
        "fileio.save_transform.self_ms",
        "correspond.nn_correspond.calls",
        "correspond.nn_correspond.self_ms",
        "correspond.kdtree_build.calls",
        "correspond.kdtree_build.self_ms",
        "correspond.kdtree_build.per_pair",
        "correspond.kdtree_query.calls",
        "correspond.kdtree_query.self_ms",
        "solver.icp.calls",
        "solver.icp.self_ms",
        "solver.icp.failed",
        "solver.register_p2pl.calls",
        "solver.register_p2pl.self_ms",
        "geometry.apply_transform.calls",
        "geometry.apply_transform.self_ms",
        "metrics.chamfer.self_ms",
        "metrics.rotation_errors.self_ms",
        "cli.register.self_ms",
    ],
    "diff-step": [
        "gradient.backward.calls",
        "gradient.backward.self_ms",
        "gradient.backward.failed",
        "gradient.chain_loss.self_ms",
        "gradient.rigid_motion_loss.self_ms",
        "solver.register_p2pl.self_ms.diff-step",
    ],
    "soft-step": [
        "correspond.match_matrix.self_ms",
        "correspond.soft_pointers.self_ms",
        "correspond.reliability_weights.self_ms",
        "eig3.principal_direction.self_ms",
        "solver.register_p2pl.self_ms.soft-step",
        "gradient.backward.self_ms.soft-step",
    ],
    "gradcheck": [
        "gradcheck.fd_bundle.calls",
        "gradcheck.fd_bundle.self_ms",
        "gradcheck.compare.self_ms",
        "gradient.backward.self_ms.gradcheck",
        "cli.gradcheck.self_ms",
    ],
}
# Set-up layers, as milliseconds of self time per call over all set-ups.
SETUP_LAYERS = ("synth.make_cpu_pair", "synth.synth_shape", "gradcheck.make_instance")

# Median time of Reference's kernel on the machine the benchmark was defined
# on: a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS
# 0.3.31, one thread. Reported times are scaled to that machine speed.
REFERENCE_S = 0.006


class Reference:
    """Fixed calibration kernel, timed around every op.

    On a shared host the CPU speed seen by one process drifts by 20-30 %
    within seconds and between runs. The kernel mixes the kinds of work
    the workloads do (interpreter loops, small-array numpy calls, streaming
    elementwise work, small LAPACK solves, a kd-tree build and query) and
    never calls p2plreg, so no change to the program moves it. The time of
    an op or of a set-up is divided by the mean of the kernel times just
    before and just after it, over REFERENCE_S; per-layer times by the
    run's median kernel time. The raw figures are printed alongside.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._p = rng.standard_normal((768, 3))
        self._q = rng.standard_normal((768, 3))
        self._r = rng.standard_normal((3, 3))
        self._a = rng.standard_normal((60, 1, 3))
        self._b = rng.standard_normal((1, 1500, 3))
        m = rng.standard_normal((12, 12))
        self._m = m @ m.T + np.eye(12)
        self._v = rng.standard_normal((12, 64))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        s = 0.0
        for i in range(10000):
            s += i * 0.5
        for _ in range(100):
            x = self._p @ self._r
            s += float((x * (x + 1.0)).sum())
        d = self._a - self._b
        s += float(np.einsum("ijk,ijk->", d, d))
        for _ in range(10):
            s += float(np.linalg.solve(self._m, self._v)[0, 0])
        dist, _ = cKDTree(self._p).query(self._q, k=2)
        return s + float(dist.sum())

    def sample(self) -> float:
        """Time the kernel once; return its time over REFERENCE_S."""
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt / REFERENCE_S

    def factor(self) -> float:
        return float(np.median(self.samples)) / REFERENCE_S


class Ops:
    """Attempted/failed tally; an op that raises counts as failed."""

    def __init__(self, reference: Reference):
        self.attempted = 0
        self.failed = 0
        self.reference = reference
        self._speed = None  # reference sample taken after the previous call

    def timed(self, fn):
        """Call fn between two reference samples; return its result and its
        time in seconds, raw and at reference speed."""
        before = self._speed if self._speed is not None else self.reference.sample()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self._speed = self.reference.sample()
        return result, dt, dt * 2.0 / (before + self._speed)

    def pause(self) -> None:
        """Forget the last reference sample; the next call takes a fresh one."""
        self._speed = None

    def record(self, wl, k: int, result, error) -> None:
        """Count op k, and count it failed if it raised or fails its check."""
        self.attempted += 1
        if error is not None:
            print(error, file=sys.stderr)
        if error is not None or not wl.check(result):
            print(f"# failed op: {wl.name} op {k}", file=sys.stderr)
            self.failed += 1

    def run(self, wl, k: int) -> tuple[float, float]:
        """Run, time and check op k; return its latency in seconds, raw and
        at reference speed."""
        (result, error), raw, scaled = self.timed(lambda: attempt(wl, k))
        self.record(wl, k, result, error)
        return raw, scaled


def attempt(wl, k: int):
    """(result, None) of op k, or (None, traceback) if it raised."""
    try:
        return wl.op(k), None
    except Exception:
        return None, traceback.format_exc()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in
                    ("P2PL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _median(values) -> float:
    return float(np.median(values))


def setup_with_warmup(wl, ops: Ops) -> tuple[float, float]:
    """Make the inputs and run op 0 as the warm-up; return the seconds
    taken, raw and at reference speed."""
    ops.pause()
    _, made_raw, made_scaled = ops.timed(wl.setup)
    op_raw, op_scaled = ops.run(wl, 0)
    ops.pause()
    return made_raw + op_raw, made_scaled + op_scaled


def run_untraced(wl, seconds: float, ops: Ops) -> tuple[dict, dict, int]:
    """Return the end-to-end metrics raw and at reference speed, and the
    number of timed ops."""
    setups = np.array([setup_with_warmup(wl, ops) for _ in range(SETUP_REPS)])
    setup_raw, setup_scaled = np.median(setups, axis=0)
    tracemalloc.start()
    try:
        result, error = attempt(wl, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ops.record(wl, 1, result, error)

    lat = []
    k = 2
    stop = time.perf_counter() + seconds
    while not lat or time.perf_counter() < stop:
        lat.append(ops.run(wl, k))
        k += 1
    if not wl.run_ok():
        ops.failed = ops.attempted
    raw, scaled = (np.array(v) for v in zip(*lat))
    metrics = []
    for times, setup in ((raw, setup_raw), (scaled, setup_scaled)):
        metrics.append({
            "setup_s": float(setup),
            "ops_per_s": len(times) / float(times.sum()),
            "op_ms_p50": float(np.percentile(times, 50)) * 1e3,
            "op_ms_p90": float(np.percentile(times, 90)) * 1e3,
            "peak_alloc_mb": peak / 2**20,
        })
    return metrics[0], metrics[1], len(lat)


# ---------------------------------------------------------------------------
# traced layer run
# ---------------------------------------------------------------------------


def _layer_metric(name: str, workload: str, rows: dict, n_ops: int) -> float:
    span, stat = name.removesuffix(f".{workload}").rsplit(".", 1)
    calls, self_s, failed, _ = rows.get(span, (0, 0.0, 0, []))
    if stat in ("calls", "per_pair"):
        return calls / n_ops
    if stat == "failed":
        return failed / n_ops
    return self_s * 1e3 / n_ops


def trace_workload(wl, seconds: float, tracer: Tracer, ops: Ops):
    """Run each op of whole rounds over the workload's pool twice, untraced
    and traced, so the overhead is a paired difference on one input."""
    name = wl.name
    mark = (ops.attempted, ops.failed)
    tracer.op = ("setup", name)
    with tracer.installed():
        setup_with_warmup(wl, ops)

    plain, overhead = [], []
    traced_ops = []
    k = 1
    stop = time.perf_counter() + seconds
    while not traced_ops or time.perf_counter() < stop:
        for _ in range(wl.round_size):
            tracer.op = (name, k)
            times = {}
            # Alternate which run goes first, so warm caches favour neither.
            for traced in ((True, False) if k % 2 else (False, True)):
                with tracer.installed() if traced else nullcontext():
                    times[traced] = ops.run(wl, k)[0]
            plain.append(times[False])
            overhead.append(times[True] - times[False])
            traced_ops.append(tracer.op)
            k += 1
    tracer.op = None
    if not wl.run_ok():
        ops.failed = mark[1] + ops.attempted - mark[0]
    rows = tracer.layer_times(traced_ops)
    metrics = {m: _layer_metric(m, name, rows, len(traced_ops)) for m in LAYERS[name]}
    metrics[f"trace.overhead_ms.{name}"] = _median(overhead) * 1e3
    metrics[f"trace.overhead_pct.{name}"] = _median(overhead) / _median(plain) * 100.0
    return metrics, set(traced_ops)


def icp_outcomes(tracer: Tracer, traced_ops) -> dict:
    stats = [v for op, v in tracer.observed["solver.icp"] if op in traced_ops]
    return {
        "solver.icp.rounds": sum(s[0] for s in stats) / len(stats),
        "solver.icp.converged_ratio": sum(s[1] for s in stats) / len(stats),
        "solver.icp.energy_down_ratio": sum(s[2] for s in stats) / max(sum(s[3] for s in stats), 1),
    }


def backward_peak_mb(pool) -> float:
    corr, cloud, _ = pool[0]
    g = p2plreg.to_gvector(p2plreg.register_p2pl(corr, cloud, n_iters=10).transform)
    tracemalloc.start()
    try:
        p2plreg.backward(corr, cloud, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def size_sweep(seed: int, tracer: Tracer, ops: Ops) -> dict:
    """Forward (10 iterations) and backward self time at each N of SWEEP_N."""
    out = {}
    for n in SWEEP_N:
        corr, cloud, gt = p2plreg.gradcheck.make_instance(sub_seed(seed, 5, n), n, noise=1e-4)
        reps = []
        stop = time.perf_counter() + SWEEP_SECONDS
        with tracer.installed():
            while len(reps) < 3 or time.perf_counter() < stop:
                tracer.op = ("sweep", n, len(reps))
                ops.attempted += 1
                if not check_step(differentiate(corr, cloud, gt, DIFF_TOL)):
                    ops.failed += 1
                reps.append(tracer.op)
        tracer.op = None
        rows = tracer.layer_times(reps)
        fwd = _median(rows["solver.register_p2pl"][3]) * 1e3
        bwd = _median(rows["gradient.backward"][3]) * 1e3
        out[f"solver.register_p2pl.self_ms.n{n}"] = fwd
        out[f"gradient.backward.self_ms.n{n}"] = bwd
        out[f"gradient.backward_over_forward.n{n}"] = bwd / fwd
    return out


def run_traced(seed: int, sizes, seconds: float, work: Path, ops: Ops, tracer: Tracer) -> dict:
    metrics = {}
    for name, cls in WORKLOADS.items():
        wl = cls(seed, sizes, work)
        layer, traced_ops = trace_workload(wl, seconds / len(WORKLOADS), tracer, ops)
        metrics.update(layer)
        if name == "icp-register":
            metrics.update(icp_outcomes(tracer, traced_ops))
            metrics["success_rate"] = wl.summary()["success_rate"]
        elif name == "diff-step":
            metrics["gradient.backward.peak_alloc_mb"] = backward_peak_mb(wl.pool)
            metrics["gradient.backward_over_forward"] = (
                metrics["gradient.backward.self_ms"]
                / metrics["solver.register_p2pl.self_ms.diff-step"])
        elif name == "gradcheck":
            solves = [v for op, v in tracer.observed["gradcheck.fd_bundle"] if op in traced_ops]
            metrics["gradcheck.fd_bundle.solves"] = sum(solves) / len(solves)
            outcome = wl.summary()
            metrics["gradcheck.rel_mse_at_10_median"] = outcome["rel_mse_at_10_median"]
            metrics["gradcheck.rel_mse_at_10_pooled"] = outcome["rel_mse_at_10_pooled"]

    rows = tracer.layer_times({("setup", name) for name in WORKLOADS})
    for span in SETUP_LAYERS:
        calls, self_s, _, _ = rows.get(span, (0, 0.0, 0, []))
        metrics[f"{span}.self_ms"] = self_s * 1e3 / calls if calls else 0.0
    metrics.update(size_sweep(seed, tracer, ops))
    return metrics


def layer_unit(name: str) -> str:
    if ".self_ms" in name or name.startswith("trace.overhead_ms"):
        return "ms"
    if name.startswith("trace.overhead_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "success_rate")) or "backward_over_forward" in name \
            or ".rel_mse_" in name:
        return "ratio"
    return "count"


def normalized(metrics: dict, units: dict, factor: float) -> dict:
    """Times scaled by the run's speed factor; other figures as they are."""
    scale = {"s": 1.0 / factor, "ms": 1.0 / factor, "1/s": factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="run.py", description="p2plreg benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv, sizes, scratch: Path) -> int:
    args = parse_args(argv)
    sizes = sizes or FULL
    work = scratch / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops(Reference())
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    try:
        if args.trace:
            tracer = Tracer()
            raw = run_traced(args.seed, sizes, args.seconds, work, ops, tracer)
            out = scratch / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"# {len(tracer.spans)} spans written to {spans}")
            units = {name: layer_unit(name) for name in raw}
            metrics = normalized(raw, units, ops.reference.factor())
        else:
            wl = WORKLOADS[args.workload](args.seed, sizes, work)
            raw, metrics, samples = run_untraced(wl, args.seconds, ops)
            units = END_TO_END
            noun = OP_NOUN[wl.name]
            print(f"# {wl.name}: one client, closed loop, {samples} timed {noun}s; "
                  f"ops_per_s is {noun}s/s, op_ms_* is {noun} latency")
            for key, value in wl.summary().items():
                print(f"# {key} {value}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# speed factor {ops.reference.factor()!r}: median of "
          f"{len(ops.reference.samples)} reference kernel times over {REFERENCE_S * 1e3} ms")
    for name, value in raw.items():
        print(f"# raw {name} {value!r} {units[name]}")
    for name, value in metrics.items():
        print(f"# {name} {value!r} {units[name]}")
    if not args.trace:
        noun = OP_NOUN[args.workload]
        print(f"# {noun}s_per_s {metrics['ops_per_s']!r} {noun}s/s")
        for q in ("p50", "p90"):
            print(f"# {noun}_ms_{q} {metrics[f'op_ms_{q}']!r} ms")
    print(f"# attempted {ops.attempted} failed {ops.failed}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, allow_nan=False))
    return 0

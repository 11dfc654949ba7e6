"""Command-line entry point: dataset synthesis, registration runs, gradient
checks, and timing/memory benchmarks.

Every subcommand echoes its configuration into the output directory and is
deterministic given that configuration (timings excluded). Worker counts
come from ``P2PL_THREADS``; per-item seeds are derived up front, so results
are identical for any thread count and output rows keep item order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import math
import os
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import fileio
from .cloud import RegistrationPair
from .correspond import _check_weights
from .gradcheck import INPUT_KINDS, FDConfig, compare, fd_bundle, make_instance
from .gradient import backward, chain_loss, rigid_motion_loss
from .metrics import chamfer, euler_zyx_angles, rotation_errors, summary
from .seeding import derived_seed
from .solver import icp, register_p2pl
from .synth import SHAPE_KINDS, SynthConfig, estimate_normals, make_cpu_pair, synth_shape

logger = logging.getLogger(__name__)


def _worker_count() -> int:
    env = os.environ.get("P2PL_THREADS", "").strip()
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"P2PL_THREADS must be an integer, got {env!r}") from None


def _pool_map(fn, items):
    """Ordered map over items with the configured worker count."""
    workers = _worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _echo_config(out: Path, args: argparse.Namespace) -> None:
    (out / "run_config.json").write_text(
        json.dumps(vars(args), indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )


def _counts(text: str, flag: str) -> list[int]:
    """The comma list of an iteration-count option, each an integer >= 1."""
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ValueError(f"{flag} needs one or more counts >= 1, got {text!r}")
    return values


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, and a usage error (exit 2)
    unless that works and ``ok`` holds for the value."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    """An argparse type for an integer of at least ``low``."""
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and non-negative")
_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)
# synth_shape needs at least 8 points: gradcheck and bench sample --n and
# --n-points of them, synth samples 2 --n-points per shape.
_shape_points = _int_at_least(8)
_synth_points = _int_at_least(4)
# estimate_normals needs the point and at least two neighbours.
_normals_k = _checked(int, lambda v: v == 0 or v >= 3, "0 (off) or an integer >= 3")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [fileio.EXACT_FMT % v if isinstance(v, float) else v for v in row] for row in rows
        )


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    # Checked before the output directory exists, so a bad value writes nothing.
    cfg = SynthConfig(
        n_sample=args.n_points,
        n_partial=args.n_partial,
        rot_max_deg=args.rot_max_deg,
        trans_max=args.trans_max,
        compose_count=args.compose,
    )
    out = fileio.ensure_dir(args.out)
    _echo_config(out, args)

    def build_pair(index: int) -> None:
        pair_seed = derived_seed(args.seed, index)
        kinds = (
            [SHAPE_KINDS[j % len(SHAPE_KINDS)] for j in range(args.compose)]
            if args.shape == "mixed"
            else [args.shape] * args.compose
        )
        shapes = [
            synth_shape(kind, 2 * args.n_points, derived_seed(pair_seed, j))
            for j, kind in enumerate(kinds)
        ]
        pair = make_cpu_pair(shapes, dataclasses.replace(cfg, seed=pair_seed))
        pair_dir = fileio.ensure_dir(out / f"pair_{index:04d}")
        fileio.save(pair_dir / "source.ply", pair.source)
        fileio.save(pair_dir / "target.ply", pair.target)
        fileio.save(pair_dir / "clean_source.ply", pair.clean_source)
        fileio.save(pair_dir / "clean_target.ply", pair.clean_target)
        fileio.save_transform(pair_dir / "gt.txt", pair.gt)

    _pool_map(build_pair, list(range(args.pairs)))
    return 0


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------


def _load_pair(pair_dir: Path) -> RegistrationPair:
    source = fileio.load(pair_dir / "source.ply")
    target = fileio.load(pair_dir / "target.ply")
    gt = None
    if (pair_dir / "gt.txt").exists():
        gt = fileio.load_transform(pair_dir / "gt.txt")
    clean_s = clean_t = None
    if (pair_dir / "clean_source.ply").exists():
        clean_s = fileio.load(pair_dir / "clean_source.ply")
    if (pair_dir / "clean_target.ply").exists():
        clean_t = fileio.load(pair_dir / "clean_target.ply")
    return RegistrationPair(source, target, gt, clean_s, clean_t)


def _backward_and_chain(corr, source, g) -> None:
    """One backward and one chained loss direction, the work of a training
    step; ``backward`` alone only factors the 6x6 chart Hessian."""
    chain_loss(np.ones(12), backward(corr, source, g))


def _error_cell(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def cmd_register(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    pair_dirs = sorted(p for p in in_dir.glob("pair_*") if p.is_dir())
    if not pair_dirs:
        print(f"no pair_* directories under {in_dir}", file=sys.stderr)
        return 1
    weights = fileio.load_weights(args.weights) if args.weights else None
    # Every pair is loaded once, before the output exists, so a weights file
    # with bad values or that fits no source fails the run here; one that
    # fits some pairs leaves an error row for each of the others.
    pairs = _pool_map(_load_pair, pair_dirs)
    if weights is not None:
        try:
            _check_weights(weights)
        except ValueError as exc:
            raise ValueError(f"--weights file {args.weights}: {exc}") from None
        sizes = sorted({len(pair.source) for pair in pairs})
        if len(weights) not in sizes:
            raise ValueError(
                f"--weights file {args.weights} holds {len(weights)} values, but the "
                f"sources hold {', '.join(map(str, sizes))} points"
            )
    out = fileio.ensure_dir(args.out)
    _echo_config(out, args)

    def run_pair(item):
        """The pair's metrics.csv row and, when it has a ground truth and
        registers, its terms of ``summary``."""
        index, pair = item
        target = pair.target
        try:
            # The point-to-plane energy reads only the target's normals.
            if args.estimate_normals:
                target, degenerate = estimate_normals(
                    target, args.estimate_normals, derived_seed(index, "tgt"),
                    random_flip=not args.consistent_normals, return_flags=True,
                )
                if degenerate.any():
                    logger.warning("%s: estimate_normals: %d degenerate neighborhoods",
                                   pair_dirs[index], int(degenerate.sum()))
            t0 = time.perf_counter()
            report = icp(
                pair.source,
                target,
                method=args.method,
                max_outer=args.outer_iters,
                inner_iters=args.inner_iters,
                damping=args.damping,
                source_weights=weights,
            )
            fwd_ms = (time.perf_counter() - t0) * 1e3
        except (np.linalg.LinAlgError, ValueError) as exc:
            return [index] + [""] * 10 + [_error_cell(exc)], None
        # A backward that raises leaves the forward's transform and cells.
        bwd_ms, error = "", ""
        try:
            t0 = time.perf_counter()
            _backward_and_chain(report.correspondences, pair.source, report.transform)
            bwd_ms = (time.perf_counter() - t0) * 1e3
        except (np.linalg.LinAlgError, ValueError) as exc:
            error = _error_cell(exc)
        fileio.save_transform(out / f"pair_{index:04d}_transform.txt", report.transform)
        if pair.gt is None:
            return [index] + [""] * 8 + [fwd_ms, bwd_ms, error], None
        errs = rotation_errors(report.transform, pair.gt)
        tres = report.transform.translation - pair.gt.translation
        cd = chamfer(report.transform, pair)
        row = [index, *errs.per_axis_deg, errs.geodesic_deg, *tres, cd, fwd_ms, bwd_ms, error]
        gt_euler = euler_zyx_angles(pair.gt.rotation)
        return row, (errs.per_axis_deg, gt_euler, tres, pair.gt.translation, cd)

    results = _pool_map(run_pair, list(enumerate(pairs)))
    rows = [row for row, _ in results]
    terms = [t for _, t in results if t is not None]

    header = [
        "case_id", "rot_res_x_deg", "rot_res_y_deg", "rot_res_z_deg", "geodesic_deg",
        "trans_res_x", "trans_res_y", "trans_res_z", "chamfer", "fwd_ms", "bwd_ms", "error",
    ]
    _write_csv(out / "metrics.csv", header, rows)
    if len(terms) >= 2:
        record = summary(*zip(*terms))
        (out / "summary.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.strict and any(row[-1] for row in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args: argparse.Namespace) -> int:
    iters_list = _counts(args.iters, "--iters")
    if args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    # One oracle pass to the largest count yields the blocks and the forward
    # transform at every count.
    try:
        cfg = FDConfig(step=args.fd_step, n_iters_forward=max(iters_list))
    except ValueError as exc:
        raise ValueError(f"--fd-step {args.fd_step}: {exc}") from None
    out = fileio.ensure_dir(args.out)
    _echo_config(out, args)

    def run_case(case: int):
        corr, cloud, gt = make_instance(derived_seed(args.seed, case), args.n, noise=args.noise)
        fd = fd_bundle(corr, cloud, cfg, also_at=iters_list)
        case_rows = []
        for n_iters in iters_list:
            t = fd.transforms[n_iters]
            bundle = backward(corr, cloud, t)
            _, dldg = rigid_motion_loss(t, gt)
            err = compare(bundle, fd.also[n_iters], dldg, n_iters)
            for kind in INPUT_KINDS:
                mse, rel = err.per_input[kind]
                case_rows.append([case, kind, mse, rel, n_iters])
            case_rows.append([case, "all", err.mse, err.rel_mse, n_iters])
        return case_rows

    all_rows = []
    for case_rows in _pool_map(run_case, list(range(args.cases))):
        all_rows.extend(case_rows)
    _write_csv(out / "gradcheck.csv", ["instance_id", "input_kind", "mse", "rel_mse", "n_iters"], all_rows)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _median_ms(fn, reps: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def cmd_bench(args: argparse.Namespace) -> int:
    iters_list = _counts(args.iters_list, "--iters-list")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    out = fileio.ensure_dir(args.out)
    _echo_config(out, args)
    corr, cloud, _ = make_instance(0, args.n_points, noise=1e-4)

    rows = []
    for n_iters in iters_list:
        fwd = lambda: register_p2pl(corr, cloud, n_iters=n_iters)
        rows.append(["forward", n_iters, _median_ms(fwd, args.reps), _peak_bytes(fwd)])
        g = register_p2pl(corr, cloud, n_iters=n_iters).transform
        bwd = lambda: _backward_and_chain(corr, cloud, g)
        rows.append(["backward_analytic", n_iters, _median_ms(bwd, args.reps), _peak_bytes(bwd)])

    # The oracle Jacobian needs ~2 (9 N + N) full solves per run, so it gets
    # a reduced repetition count; the compared magnitudes differ by orders.
    fd_reps = max(1, args.reps // 10)
    fd_iters = 10 if 10 in iters_list else iters_list[-1]
    fd = lambda: fd_bundle(corr, cloud, FDConfig(n_iters_forward=fd_iters))
    rows.append(["backward_fd_oracle", fd_iters, _median_ms(fd, fd_reps, warmup=0), _peak_bytes(fd)])

    _write_csv(out / "bench.csv", ["phase", "n_iters", "median_ms", "peak_bytes"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``p2pl`` parser, built once per process and shared by every
    ``main`` call. An argparse parser is a web of reference cycles, so one
    built per call would stay allocated until the cyclic collector ran,
    for part or all of the command it parsed. ``main`` looks the
    ``cmd_<command>`` function up when it runs it, not when the parser is
    built."""
    parser = argparse.ArgumentParser(
        prog="p2pl",
        description="Point-to-plane registration kernel: synthesis, registration, "
        "gradient checks, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate compose/partial/unduplicated pairs")
    p.add_argument("--pairs", type=_positive_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--shape", choices=SHAPE_KINDS + ("mixed",), default="blob")
    p.add_argument("--n-points", type=_synth_points, default=1024)
    p.add_argument("--n-partial", type=_positive_int, default=768)
    p.add_argument("--rot-max-deg", type=float, default=45.0)
    p.add_argument("--trans-max", type=float, default=0.5)
    p.add_argument("--compose", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("register", help="run ICP over a synthesized pair directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--method", choices=("p2p", "p2pl"), default="p2pl")
    p.add_argument("--inner-iters", type=_positive_int, default=10)
    p.add_argument("--outer-iters", type=_non_negative_int, default=30)
    p.add_argument("--weights", default="")
    p.add_argument("--estimate-normals", type=_normals_k, default=0, metavar="K")
    p.add_argument("--consistent-normals", action="store_true",
                   help="orient estimated normals outward instead of flipping randomly")
    p.add_argument("--damping", type=_non_negative, default=0.0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="compare analytic gradients to the FD oracle")
    p.add_argument("--n", type=_shape_points, default=64)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--iters", default="1,2,5,10")
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--noise", type=_non_negative, default=1e-4)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="time forward/backward phases and the FD oracle")
    p.add_argument("--n-points", type=_shape_points, default=1024)
    p.add_argument("--iters-list", default="1,5,10,20")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _worker_count()  # a bad P2PL_THREADS fails here, before any output
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

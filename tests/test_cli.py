"""Command-line interface tests, run in-process through main()."""

import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from p2plreg import fileio
from p2plreg.cloud import PointCloud
from p2plreg.cli import _worker_count, main
from p2plreg.gradient import GradientBundle, PerInput
from p2plreg.metrics import euler_zyx_angles

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _dir_bytes(root):
    """Map of relative path -> bytes for every file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestSynth:
    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--pairs", "2", "--seed", "7", "--n-points", "128",
                "--n-partial", "96"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        files_a, files_b = _dir_bytes(a), _dir_bytes(b)
        assert set(files_a) == set(files_b)
        for name in files_a:
            if name != "run_config.json":
                assert files_a[name] == files_b[name], name

    def test_zero_motion_gives_identity_gt(self, tmp_path):
        out = tmp_path / "zero"
        assert main([
            "synth", "--pairs", "1", "--seed", "3", "--n-points", "64", "--n-partial", "64",
            "--rot-max-deg", "0", "--trans-max", "0", "--out", str(out),
        ]) == 0
        gt = fileio.load_transform(out / "pair_0000" / "gt.txt")
        np.testing.assert_allclose(gt.rotation, np.eye(3), atol=1e-15)
        np.testing.assert_array_equal(gt.translation, np.zeros(3))

    def test_gt_bounds_hold_on_reload(self, tmp_path):
        out = tmp_path / "bounds"
        assert main([
            "synth", "--pairs", "20", "--seed", "11", "--n-points", "96", "--n-partial", "64",
            "--rot-max-deg", "25", "--trans-max", "0.3", "--out", str(out),
        ]) == 0
        for pair_dir in sorted(out.glob("pair_*")):
            gt = fileio.load_transform(pair_dir / "gt.txt")
            angles = euler_zyx_angles(gt.rotation)
            assert np.all(angles >= -1e-9) and np.all(angles <= 25.0 + 1e-9)
            assert np.max(np.abs(gt.translation)) <= 0.3
            source = fileio.load(pair_dir / "source.ply")
            assert len(source) == 64 and source.has_normals

    def test_gt_file_round_trips_tightly(self, tmp_path):
        out = tmp_path / "rt"
        assert main(["synth", "--pairs", "1", "--seed", "5", "--n-points", "64",
                     "--n-partial", "48", "--out", str(out)]) == 0
        path = out / "pair_0000" / "gt.txt"
        gt = fileio.load_transform(path)
        fileio.save_transform(path, gt)
        back = fileio.load_transform(path)
        assert np.max(np.abs(back.rotation - gt.rotation)) <= 1e-12
        assert np.max(np.abs(back.translation - gt.translation)) <= 1e-12

    def test_shape_choices_validated(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--pairs", "1", "--shape", "plane", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trans_max_is_an_error(self, tmp_path, capsys, value):
        # It used to end in an OverflowError traceback from draw_rigid.
        assert main(["synth", "--pairs", "1", "--trans-max", value,
                     "--out", str(tmp_path / "x")]) == 1
        assert "error: trans_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        ["--trans-max", "nan"],
        ["--rot-max-deg", "nan"],
        ["--compose", "0"],
        ["--n-points", "64", "--n-partial", "96"],
    ], ids=["trans-max-nan", "rot-max-deg-nan", "compose-0", "partial-above-points"])
    def test_bad_config_fails_before_writing(self, tmp_path, capsys, bad):
        # Each used to leave an output directory holding run_config.json.
        out = tmp_path / "x"
        assert main(["synth", "--pairs", "1", *bad, "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", ["0", "-1", "x"])
    def test_pairs_below_one_is_a_usage_error(self, tmp_path, capsys, pairs):
        # --pairs -1 used to exit 0 having written only run_config.json.
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["synth", f"--pairs={pairs}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--pairs: must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "pairs"
    assert main([
        "synth", "--pairs", "2", "--seed", "2", "--n-points", "256", "--n-partial", "256",
        "--rot-max-deg", "5", "--trans-max", "0.05", "--compose", "1", "--out", str(out),
    ]) == 0
    return out


class TestRegister:

    def test_register_writes_metrics_and_summary(self, dataset, tmp_path):
        out = tmp_path / "reg"
        assert main(["register", "--in", str(dataset), "--method", "p2pl",
                     "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[:2] == ["case_id", "rot_res_x_deg"]
        assert len(rows) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cases"] == 2
        assert math.isfinite(summary["rmse_r"])
        assert (out / "pair_0000_transform.txt").exists()

    def test_small_motion_registers_accurately(self, dataset, tmp_path):
        out = tmp_path / "reg2"
        assert main(["register", "--in", str(dataset), "--method", "p2pl",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rmse_r"] <= 2.0

    def test_estimate_normals_path(self, dataset, tmp_path):
        out = tmp_path / "reg3"
        assert main(["register", "--in", str(dataset), "--method", "p2pl",
                     "--estimate-normals", "12", "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_consistent_normals_ablation(self, dataset, tmp_path):
        out = tmp_path / "reg3c"
        assert main(["register", "--in", str(dataset), "--method", "p2pl",
                     "--estimate-normals", "12", "--consistent-normals",
                     "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_p2p_method(self, dataset, tmp_path):
        out = tmp_path / "reg4"
        assert main(["register", "--in", str(dataset), "--method", "p2p",
                     "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_weights_csv(self, dataset, tmp_path):
        # One value per source point: the sources hold 256 points.
        w = tmp_path / "w.csv"
        w.write_text("\n".join(["1.0"] * 256) + "\n")
        out = tmp_path / "reg5"
        assert main(["register", "--in", str(dataset), "--weights", str(w),
                     "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            assert [row["error"] for row in csv.DictReader(fh)] == ["", ""]

    def test_weights_fitting_no_source_fail_the_run(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        # Such a file used to exit 0 with an error row for every pair.
        loads = []
        real_load = fileio.load

        def counting_load(path):
            loads.append(Path(path))
            return real_load(path)

        monkeypatch.setattr(fileio, "load", counting_load)
        w = tmp_path / "w.csv"
        w.write_text("1.0\n1.0\n")
        out = tmp_path / "reg5w"
        assert main(["register", "--in", str(dataset), "--weights", str(w),
                     "--out", str(out)]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(err) == 1
        assert "holds 2 values" in err[0] and "sources hold 256 points" in err[0]
        assert not out.exists()
        assert loads and len(set(loads)) == len(loads), "a file was loaded twice"

    @pytest.mark.parametrize("values, rule", [
        (["nan"] + ["1.0"] * 255, "correspondence arrays must be finite"),
        (["1.0"] * 255 + ["-0.5"], "reliability weights must be nonnegative"),
        (["0.0"] * 256, "at least one reliability weight must be positive"),
    ], ids=["nan", "negative", "all-zero"])
    def test_bad_weight_values_fail_the_run(self, dataset, tmp_path, capsys, values, rule):
        # Such a file used to exit 0 with an error row for every pair, whose
        # message named neither the flag nor the file.
        w = tmp_path / "w.csv"
        w.write_text("\n".join(values) + "\n")
        out = tmp_path / "reg5v"
        assert main(["register", "--in", str(dataset), "--weights", str(w),
                     "--out", str(out)]) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert err == [f"error: --weights file {w}: {rule}"]
        assert not out.exists()

    def test_weights_fitting_some_pairs_keep_per_pair_rows(self, dataset, tmp_path):
        data = tmp_path / "mixed"
        for index in range(2):
            src, dst = dataset / f"pair_{index:04d}", data / f"pair_{index:04d}"
            dst.mkdir(parents=True)
            for f in src.iterdir():
                (dst / f.name).write_bytes(f.read_bytes())
        short = data / "pair_0001" / "source.ply"
        cloud = fileio.load(short)
        fileio.save(short, PointCloud(cloud.positions[:200], cloud.normals[:200]))
        w = tmp_path / "w.csv"
        w.write_text("\n".join(["1.0"] * 256) + "\n")
        out = tmp_path / "reg5m"
        assert main(["register", "--in", str(data), "--weights", str(w),
                     "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "ValueError: source_weights length must match the source size"

    def test_two_column_weights_fail_with_line_number(self, dataset, tmp_path, capsys):
        # 128 rows of 2 values hold as many numbers as the 256 source points.
        w = tmp_path / "w2.csv"
        w.write_text("\n".join(["1.0,1.0"] * 128) + "\n")
        assert main(["register", "--in", str(dataset), "--weights", str(w),
                     "--out", str(tmp_path / "reg5b")]) == 1
        assert "line 1: expected 1 values per line, found 2" in capsys.readouterr().err

    def test_malformed_cloud_error_names_the_file(self, dataset, tmp_path, capsys):
        data = tmp_path / "bad"
        shutil.copytree(dataset, data)
        path = data / "pair_0001" / "source.ply"
        lines = path.read_text().splitlines()
        lines[11] = "0 zero 0 0 0 1"
        path.write_text("\n".join(lines) + "\n")
        assert main(["register", "--in", str(data), "--out", str(tmp_path / "reg")]) == 1
        assert f"error: {path}: line 12: non-numeric value" in capsys.readouterr().err

    # Each used to print the cloud check's message with no path; the NaN
    # normal used to pass it and fail the pair's solve as SingularSystem.
    @pytest.mark.parametrize("name, column, message", [
        ("source.ply", 0, "positions must be finite"),
        ("target.ply", 3, "normals must be finite"),
    ], ids=["nan-position", "nan-normal"])
    def test_invalid_cloud_value_names_the_file(
        self, dataset, tmp_path, capsys, name, column, message
    ):
        data = tmp_path / "bad"
        shutil.copytree(dataset, data)
        path = data / "pair_0001" / name
        lines = path.read_text().splitlines()
        values = lines[11].split()
        values[column] = "nan"
        lines[11] = " ".join(values)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "reg"
        assert main(["register", "--in", str(data), "--out", str(out)]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_backward_taken_at_loaded_source(self, dataset, tmp_path, monkeypatch):
        from p2plreg import cli

        calls = []
        real_backward = cli.backward

        def recording_backward(corr, source, g):
            calls.append((source.positions.copy(), g))
            return real_backward(corr, source, g)

        monkeypatch.setattr(cli, "backward", recording_backward)
        out = tmp_path / "regb"
        assert main(["register", "--in", str(dataset), "--method", "p2pl",
                     "--out", str(out)]) == 0
        assert len(calls) == 2
        for index in range(2):
            loaded = fileio.load(dataset / f"pair_{index:04d}" / "source.ply").positions
            hits = [g for pos, g in calls if np.array_equal(pos, loaded)]
            assert len(hits) == 1, "backward must see the untransformed source"
            saved = fileio.load_transform(out / f"pair_{index:04d}_transform.txt")
            np.testing.assert_allclose(hits[0].rotation, saved.rotation, atol=1e-12)
            np.testing.assert_allclose(hits[0].translation, saved.translation, atol=1e-12)

    @staticmethod
    def _plane_pair(pair_dir):
        """A pair whose p2pl registration raises SingularSystem."""
        from p2plreg.cloud import PointCloud

        pair_dir.mkdir(parents=True)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-1, 1, 128), rng.uniform(-1, 1, 128), np.zeros(128)])
        plane = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (128, 1)))
        fileio.save(pair_dir / "source.ply", PointCloud(pts + [0.02, 0.0, 0.1]))
        fileio.save(pair_dir / "target.ply", plane)

    def test_plane_failure_row_and_strict_exit(self, tmp_path):
        self._plane_pair(tmp_path / "planes" / "pair_0000")

        out = tmp_path / "regp"
        assert main(["register", "--in", str(tmp_path / "planes"), "--method", "p2pl",
                     "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][-1].startswith("SingularSystem: singular 6x6 system")

        out2 = tmp_path / "regp2"
        assert main(["register", "--in", str(tmp_path / "planes"), "--method", "p2pl",
                     "--strict", "--out", str(out2)]) == 2

    def test_backward_failure_keeps_the_forward_result(self, tmp_path):
        # Damping lets the plane pairs' forward solve, but the backward's
        # chart Hessian never sees the damping and stays singular: the
        # pairs keep their transforms, metric cells and summary terms, and
        # only bwd_ms is empty.
        from p2plreg.geometry import RigidTransform

        data = tmp_path / "planes"
        for index in range(2):
            self._plane_pair(data / f"pair_{index:04d}")
            fileio.save_transform(data / f"pair_{index:04d}" / "gt.txt",
                                  RigidTransform(np.eye(3), [-0.02, 0.0, -0.1]))
        args = ["register", "--in", str(data), "--damping", "1e-6"]
        out = tmp_path / "regd"
        assert main(args + ["--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2
        for index, row in enumerate(rows):
            assert row[-1].startswith("SingularHessian: chart Hessian: singular 6x6 system")
            assert all(row[:10]) and row[10] == ""
            assert (out / f"pair_{index:04d}_transform.txt").exists()
        assert json.loads((out / "summary.json").read_text())["cases"] == 2
        assert main(args + ["--strict", "--out", str(tmp_path / "regd2")]) == 2

    def test_small_cloud_normal_estimation_is_a_failure_row(self, tmp_path):
        # k above the cloud size fails that pair, not the whole job.
        data = tmp_path / "small"
        assert main(["synth", "--pairs", "1", "--seed", "4", "--n-points", "64",
                     "--n-partial", "48", "--out", str(data)]) == 0
        out = tmp_path / "regk"
        args = ["register", "--in", str(data), "--estimate-normals", "100"]
        assert main(args + ["--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][-1] == "ValueError: k must be smaller than the cloud size"
        assert main(args + ["--strict", "--out", str(tmp_path / "regk2")]) == 2

    def test_estimate_normals_takes_a_source_below_k(self, tmp_path):
        # Only the target's normals are estimated, so a source with fewer
        # points than k registers; it used to fail its pair with
        # "ValueError: k must be smaller than the cloud size".
        data = tmp_path / "short"
        assert main(["synth", "--pairs", "1", "--seed", "4", "--n-points", "128",
                     "--n-partial", "96", "--out", str(data)]) == 0
        src = data / "pair_0000" / "source.ply"
        cloud = fileio.load(src)
        fileio.save(src, PointCloud(cloud.positions[:12], cloud.normals[:12]))
        assert len(fileio.load(data / "pair_0000" / "target.ply")) == 96
        out = tmp_path / "regs"
        assert main(["register", "--in", str(data), "--estimate-normals", "16",
                     "--strict", "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == ""
        assert math.isfinite(float(row["geodesic_deg"]))
        assert (out / "pair_0000_transform.txt").exists()

    def test_missing_source_file_is_named(self, tmp_path, capsys):
        # The message used to be the bare path.
        data = tmp_path / "nosrc"
        (data / "pair_0000").mkdir(parents=True)
        out = tmp_path / "regm"
        assert main(["register", "--in", str(data), "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_normals_warning_names_the_pair(self, tmp_path, monkeypatch, caplog):
        # Two pairs through a worker pool; pair 1's target has 40 collinear
        # points far from the rest, so each of their 8-point neighborhoods
        # is rank 1. One warning, naming that pair's directory.
        data = tmp_path / "line"
        assert main(["synth", "--pairs", "2", "--seed", "7", "--n-points", "128",
                     "--n-partial", "96", "--out", str(data)]) == 0
        tgt = data / "pair_0001" / "target.ply"
        cloud = fileio.load(tgt)
        pos = cloud.positions.copy()
        pos[:40] = 5.0 + np.linspace(0.0, 1.0, 40)[:, None] * [1.0, 0.5, 0.25]
        fileio.save(tgt, PointCloud(pos, cloud.normals))
        monkeypatch.setenv("P2PL_THREADS", "2")
        with caplog.at_level("WARNING"):
            assert main(["register", "--in", str(data), "--estimate-normals", "8",
                         "--out", str(tmp_path / "reg")]) == 0
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("p2plreg.cli",
             f"{data / 'pair_0001'}: estimate_normals: 40 degenerate neighborhoods")]

    def test_estimate_normals_thread_invariant(self, dataset, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "4", "2"):
            monkeypatch.setenv("P2PL_THREADS", threads)
            out = tmp_path / f"regt{threads}"
            assert main(["register", "--in", str(dataset), "--method", "p2pl",
                         "--estimate-normals", "12", "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.glob("pair_*_transform.txt"))})
        assert len(outs[0]) == 2
        assert outs[0] == outs[1] == outs[2]

    def test_rows_and_summary_thread_invariant(self, tmp_path, monkeypatch):
        # Pairs in order: registered, failed, no ground truth, registered.
        data = tmp_path / "mixed"
        assert main(["synth", "--pairs", "3", "--seed", "5", "--n-points", "128",
                     "--n-partial", "96", "--rot-max-deg", "5", "--trans-max", "0.05",
                     "--compose", "1", "--out", str(data)]) == 0
        (data / "pair_0001").rename(data / "pair_0003")
        self._plane_pair(data / "pair_0001")
        (data / "pair_0002" / "gt.txt").unlink()

        results = []
        for threads in ("1", "4"):
            monkeypatch.setenv("P2PL_THREADS", threads)
            out = tmp_path / f"reg{threads}"
            assert main(["register", "--in", str(data), "--out", str(out)]) == 0
            with open(out / "metrics.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            # Everything but the fwd_ms and bwd_ms timings.
            results.append(([r[:9] + r[11:] for r in rows], (out / "summary.json").read_bytes()))
            assert main(["register", "--in", str(data), "--strict",
                         "--out", str(tmp_path / f"strict{threads}")]) == 2
        assert results[0] == results[1]

        rows = results[0][0][1:]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert rows[1][-1].startswith("SingularSystem: ")
        assert rows[1][1:-1] == [""] * 8
        assert rows[2][1:] == [""] * 9
        for r in (rows[0], rows[3]):
            assert all(r[1:-1]) and r[-1] == ""
        assert json.loads(results[0][1])["cases"] == 2

    def test_metrics_csv_quotes_cells_with_commas(self, tmp_path):
        from p2plreg.cli import _write_csv

        header = ["case_id", "chamfer", "error"]
        rows = [[0, 0.25, ""], [1, "", "ValueError: rotation must be 3x3, got (3, 3)"]]
        path = tmp_path / "m.csv"
        _write_csv(path, header, rows)
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert back == [header, ["0", "0.25", ""], ["1", "", rows[1][2]]]
        # Rows without special characters stay plain comma-joined lines.
        assert path.read_text().splitlines()[:2] == ["case_id,chamfer,error", "0,0.25,"]

    def test_missing_input_dir_fails(self, tmp_path):
        assert main(["register", "--in", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("method", ["p2pl", "p2p"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "x"])
    def test_invalid_damping_is_a_usage_error(self, dataset, tmp_path, capsys, method, value):
        out = tmp_path / "reg"
        with pytest.raises(SystemExit) as exc:
            main(["register", "--in", str(dataset), "--method", method,
                  f"--damping={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--damping: must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,value", [
        ("--inner-iters", "0"),
        ("--inner-iters", "1.5"),
        ("--outer-iters", "-1"),
        ("--estimate-normals", "2"),
        ("--estimate-normals", "-3"),
    ])
    def test_invalid_count_is_a_usage_error(self, dataset, tmp_path, capsys, option, value):
        # Each used to run, writing an error row for every pair or, for
        # --outer-iters -1, silently running no round.
        want = {
            "--inner-iters": "an integer >= 1",
            "--outer-iters": "an integer >= 0",
            "--estimate-normals": "0 (off) or an integer >= 3",
        }[option]
        out = tmp_path / "reg"
        with pytest.raises(SystemExit) as exc:
            main(["register", "--in", str(dataset), f"{option}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"{option}: must be {want}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_and_positive_damping_accepted(self, dataset, tmp_path):
        for value in ("0", "1e-3"):
            out = tmp_path / f"reg_{value}"
            assert main(["register", "--in", str(dataset), "--damping", value,
                         "--out", str(out)]) == 0
            assert json.loads((out / "run_config.json").read_text())["damping"] == float(value)


class TestGradcheckCmd:
    def test_byte_identical_and_thread_invariant(self, tmp_path, monkeypatch):
        args = ["gradcheck", "--n", "12", "--cases", "2", "--iters", "1,5",
                "--seed", "3"]
        outs = []
        for name, threads in (("g1", "1"), ("g2", "3"), ("g3", "1")):
            monkeypatch.setenv("P2PL_THREADS", threads)
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            outs.append((out / "gradcheck.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_csv_schema_and_threshold(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--n", "24", "--cases", "2", "--iters", "10",
                     "--seed", "0", "--out", str(out)]) == 0
        rows = (out / "gradcheck.csv").read_text().strip().splitlines()
        assert rows[0] == "instance_id,input_kind,mse,rel_mse,n_iters"
        agg = [r for r in rows[1:] if r.split(",")[1] == "all"]
        assert len(agg) == 2
        assert all(float(r.split(",")[3]) <= 1e-4 for r in agg)

    def test_nan_fd_step_fails(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--n", "12", "--cases", "1", "--iters", "1",
                     "--fd-step", "nan", "--out", str(out)]) == 1
        assert not (out / "gradcheck.csv").exists()

    def test_empty_iters_fails(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--n", "12", "--cases", "1", "--iters", "",
                     "--out", str(out)]) == 1
        assert "error: --iters needs one or more counts" in capsys.readouterr().err
        assert not (out / "gradcheck.csv").exists()

    @pytest.mark.parametrize("cases", ["0", "-2"])
    def test_cases_below_one_fails(self, tmp_path, capsys, cases):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--n", "12", "--cases", cases, "--iters", "1",
                     "--out", str(out)]) == 1
        assert "error: --cases must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "x"])
    def test_invalid_noise_is_a_usage_error(self, tmp_path, capsys, value):
        # A negative or NaN noise used to run noise-free.
        out = tmp_path / "gc"
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--n", "12", "--cases", "1", "--iters", "1",
                  f"--noise={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--noise: must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1.0, 1.1])
    def test_benchmark_job_fails_on_scaled_position_jacobians(
        self, tmp_path, capsys, monkeypatch, scale
    ):
        # The benchmark's gradcheck workload runs `p2pl gradcheck` jobs; a job
        # whose analytic d g*/dx is scaled by 1.1 must count as a failed op
        # through the gradient check itself (the op runs to its verdict).
        monkeypatch.setattr(sys, "path", [str(BENCH_DIR), *sys.path])
        import run
        from workloads import TINY

        for var in run.THREAD_VARS:
            monkeypatch.setenv(var, "1")
        real, calls = GradientBundle.jacobians, []

        def scaled(self):
            calls.append(self)
            jac = real(self)
            return PerInput(scale * jac.wrt_x, jac.wrt_y, jac.wrt_n, jac.wrt_zeta)

        monkeypatch.setattr(GradientBundle, "jacobians", scaled)
        argv = ["--workload", "gradcheck", "--seed", "0", "--seconds", "0.001", "--trace", "0"]
        assert run.main(argv, sizes=TINY, scratch=tmp_path) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["attempted"] >= 1 and calls
        corrupted = scale != 1.0
        assert result["failed"] == (result["attempted"] if corrupted else 0)
        assert result["correct"] is not corrupted


class TestBenchCmd:
    def test_bench_schema_and_memory_stability(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--n-points", "64", "--iters-list", "1,5", "--reps", "3",
                     "--out", str(out)]) == 0
        rows = (out / "bench.csv").read_text().strip().splitlines()
        assert rows[0] == "phase,n_iters,median_ms,peak_bytes"
        cells = [r.split(",") for r in rows[1:]]
        phases = {c[0] for c in cells}
        assert phases == {"forward", "backward_analytic", "backward_fd_oracle"}
        # Analytic backward memory does not depend on the iteration count.
        peaks = [int(c[3]) for c in cells if c[0] == "backward_analytic"]
        assert max(peaks) <= 1.1 * min(peaks)

    def test_empty_iters_list_fails(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--n-points", "64", "--iters-list", "", "--reps", "1",
                     "--out", str(out)]) == 1
        assert "error: --iters-list needs one or more counts" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    def test_zero_reps_fails(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--n-points", "64", "--iters-list", "1", "--reps", "0",
                     "--out", str(out)]) == 1
        assert "error: --reps must be at least 1" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("text", ["1,2,5,10", " 1, 2 ,5,10", "1,2,5,10,"])
    def test_count_list_spellings(self, text):
        from p2plreg.cli import _counts

        assert _counts(text, "--iters-list") == [1, 2, 5, 10]

    @pytest.mark.parametrize("text", ["", " , ", "1,0", "-2"])
    def test_count_list_rejects_empty_and_below_one(self, text):
        from p2plreg.cli import _counts

        with pytest.raises(ValueError, match="--iters-list needs one or more counts >= 1"):
            _counts(text, "--iters-list")


def _exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRejectedRunWritesNothing:
    # Each bad run used to exit 1 having written only run_config.json.
    @pytest.mark.parametrize("argv, code, message", [
        (["synth", "--n-points", "3", "--n-partial", "2"], 2,
         "--n-points: must be an integer >= 4"),
        (["synth", "--n-partial", "0"], 2, "--n-partial: must be an integer >= 1"),
        (["gradcheck", "--n", "7"], 2, "--n: must be an integer >= 8"),
        (["bench", "--n-points", "7"], 2, "--n-points: must be an integer >= 8"),
        (["register", "--weights", "missing.csv"], 1, "No such file or directory"),
        (["synth", "--seed", "-1"], 2, "--seed: must be an integer >= 0"),
        (["gradcheck", "--seed", "-1"], 2, "--seed: must be an integer >= 0"),
    ], ids=["synth-n-points-3", "synth-n-partial-0", "gradcheck-n-7", "bench-n-points-7",
            "register-missing-weights", "synth-seed-negative", "gradcheck-seed-negative"])
    def test_exit_code_and_no_output(self, dataset, tmp_path, capsys, argv, code, message):
        if argv[0] == "register":
            argv = ["register", "--in", str(dataset), "--weights", str(tmp_path / argv[-1])]
        out = tmp_path / "out"
        assert _exit_code([*argv, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    # It used to fail with int()'s message, naming nothing, after writing
    # run_config.json.
    @pytest.mark.parametrize("command", ["synth", "register", "gradcheck", "bench"])
    def test_non_integer_thread_count(self, dataset, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("P2PL_THREADS", "abc")
        argv = [command, "--in", str(dataset)] if command == "register" else [command]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert "error: P2PL_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, workers", [
        ("", min(8, os.cpu_count() or 1)), (" ", min(8, os.cpu_count() or 1)),
        ("0", 1), ("-3", 1), (" 2 ", 2),
    ])
    def test_thread_count_values(self, monkeypatch, value, workers):
        monkeypatch.setenv("P2PL_THREADS", value)
        assert _worker_count() == workers

    @pytest.mark.parametrize("argv", [
        ["synth", "--n-points", "4", "--n-partial", "1"],
        ["gradcheck", "--n", "8", "--cases", "1"],
        ["bench", "--n-points", "8", "--reps", "1"],
    ], ids=["synth", "gradcheck", "bench"])
    def test_smallest_sizes_run(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0

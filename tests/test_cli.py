"""Command-line interface: config parsing, exit codes, outputs, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

PYTHON = [sys.executable, "-m", "anisomag"]


def run_cli(*args, timeout=600):
    return subprocess.run(PYTHON + list(args), capture_output=True, text=True,
                          timeout=timeout)


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


class TestNorms:
    def test_cube_gauge_table(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "body": {"shape": "cube", "dim": 2},
            "p": 1.0,
            "vectors": [[3.0, 4.0], [1.0, 0.0]],
        })
        out = run_cli("norms", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0
        assert " 4" in out.stdout  # gauge of (3, 4) on the cube
        rows = (tmp_path / "norms.csv").read_text().splitlines()
        assert rows[0] == "vector,gauge,moment_norm,error"
        assert rows[1].split(",")[1] == "4.0"
        # moment norm of e_1 at p = 1 on the cube is 6
        assert abs(float(rows[2].split(",")[2]) - 6.0) < 1e-8

    def test_ball_euclidean_column(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "body": {"shape": "ball", "dim": 2},
            "p": 2.0,
            "vectors": [[1.0, 0.0]],
        })
        out = run_cli("norms", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0
        import math
        val = float((tmp_path / "norms.csv").read_text().splitlines()[1].split(",")[2])
        assert abs(val - math.sqrt(math.pi / 2.0)) < 1e-8

    def test_labels_have_no_commas(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "body": {"shape": "cube", "dim": 2},
            "p": 1.0,
            "vectors": [[3.0, 4.0], ["1+2j", "-1j"]],
        })
        out = run_cli("norms", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        rows = (tmp_path / "norms.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["[3 4]", "[1+2j 0-1j]"]
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"schema_version": 1,\n  "body": [}\n')
        out = run_cli("norms", "--config", str(cfg), "--out", str(tmp_path))
        assert out.returncode == 2
        assert "line" in out.stderr
        assert not (tmp_path / "norms.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "body": {"shape": "cube", "dim": 2},
            "p": 1.0,
            "vectors": [[1.0, 0.0]],
            "typo_key": True,
        })
        out = run_cli("norms", "--config", cfg)
        assert out.returncode == 2
        assert "typo_key" in out.stderr


class TestCheckId2:
    @pytest.mark.parametrize("body", [
        {"shape": "ball", "dim": 2},
        {"shape": "cube", "dim": 2},
        {"shape": "ellipsoid", "semi_axes": [2.0, 1.0]},
    ])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_passes(self, tmp_path, body, p):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1, "body": body, "p": p, "count": 20,
            "seed": 11, "samples": 32768,
        })
        out = run_cli("check-id2", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0
        assert (tmp_path / "check_id2.csv").exists()

    def test_zero_tolerance_fails(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1, "body": {"shape": "cube", "dim": 2}, "p": 2.0,
            "count": 10, "seed": 1, "tolerance_sigmas": 0.0, "samples": 16384,
        })
        out = run_cli("check-id2", "--config", cfg)
        assert out.returncode == 1

    def test_p_below_one_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1, "body": {"shape": "cube", "dim": 2}, "p": 0.5,
        })
        out = run_cli("check-id2", "--config", cfg)
        assert out.returncode == 2


class TestLimitStudy:
    def zero_study_config(self):
        return {
            "schema_version": 1,
            "body": {"shape": "ball", "dim": 2},
            "field": {"family": "zero", "dim": 2},
            "potential": {"family": "zero", "dim": 2},
            "p": 2.0,
            "functional": {"kind": "gagliardo"},
            "budget": {"outer": "tensor", "resolution": 16, "sphere_nodes": 16},
            "seed": 5,
            "tolerance": 0.02,
        }

    def test_zero_field_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.zero_study_config())
        out = run_cli("limit-study", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["schema_version"] == 1
        assert (tmp_path / "points.csv").read_text().splitlines()[0] == "parameter,value,error"
        assert (tmp_path / "plot.dat").exists()

    def test_missing_output_dir_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.zero_study_config())
        out = run_cli("limit-study", "--config", cfg, "--out", str(tmp_path / "absent"))
        assert out.returncode == 2

    def test_incompatible_field_functional_exits_2(self, tmp_path):
        payload = self.zero_study_config()
        payload["field"] = {"family": "indicator",
                            "region": {"box": {"center": [0, 0], "half_widths": [0.5, 0.5]}}}
        payload["functional"] = {"kind": "nguyen"}
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = run_cli("limit-study", "--config", cfg)
        assert out.returncode == 2

    def test_indicator_with_montecarlo_exits_2(self, tmp_path):
        # indicators are integrated on midpoint grids only; a Monte Carlo
        # budget would silently run a fixed-resolution grid
        payload = self.zero_study_config()
        payload["field"] = {"family": "indicator",
                            "region": {"box": {"center": [0, 0], "half_widths": [0.5, 0.5]}}}
        payload["p"] = 1.0
        payload["functional"] = {"kind": "bbm"}
        payload["budget"] = {"outer": "montecarlo", "samples": 64, "resolution": 32}
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = run_cli("limit-study", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 2
        assert "tensor" in out.stderr
        assert not (tmp_path / "report.json").exists()

    def test_fixed_quadrature_knobs_are_unknown_keys(self, tmp_path):
        # the radial rule, scan growth, bisection steps and chunk size are
        # module constants, not budget keys
        knobs = {"bisection_iters": 30, "chunk": 64, "radial_first_break": 1e-4,
                 "radial_order": 16, "radial_panel_ratio": 2.0, "scan_min_factor": 1e-7,
                 "scan_ratio": 1.1}
        payload = self.zero_study_config()
        payload["budget"].update(knobs)
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = run_cli("limit-study", "--config", cfg)
        assert out.returncode == 2
        assert f"budget: unknown keys {sorted(knobs)}" in out.stderr

    def test_seed_changes_digits_not_verdict(self, tmp_path):
        payload = {
            "schema_version": 1,
            "body": {"shape": "ball", "dim": 2},
            "field": {"family": "gaussian", "dim": 2},
            "potential": {"family": "zero", "dim": 2},
            "p": 1.0,
            "functional": {"kind": "nguyen"},
            "schedule": {"kind": "delta", "values": [0.2, 0.1, 0.05, 0.025]},
            "budget": {"outer": "montecarlo", "samples": 1500, "sphere_nodes": 48},
            "tolerance": 0.1,
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        out_a = run_cli("limit-study", "--config", cfg, "--seed", "1",
                        "--out", str(tmp_path))
        val_a = (tmp_path / "points.csv").read_text()
        out_b = run_cli("limit-study", "--config", cfg, "--seed", "2",
                        "--out", str(tmp_path))
        val_b = (tmp_path / "points.csv").read_text()
        assert out_a.returncode == out_b.returncode == 0
        assert val_a != val_b  # Monte Carlo digits move with the seed


class TestPerimeter:
    def test_square_disk(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "region": {"box": {"center": [0.0, 0.0], "half_widths": [0.5, 0.5]}},
            "body": {"shape": "ball", "dim": 2},
        })
        out = run_cli("perimeter", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 0
        assert abs(float((tmp_path / "perimeter.csv").read_text().splitlines()[1]) - 16.0) < 1e-8


class TestAcceptanceCommand:
    def test_only_filter_and_json(self, tmp_path):
        out = run_cli("acceptance", "--only", "euclidean_consistency", "--json",
                      "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["pass"] is True
        assert payload["criteria"][0]["name"] == "euclidean_consistency"
        assert (tmp_path / "euclidean_consistency.csv").exists()

    def test_unknown_criterion_exits_2(self):
        out = run_cli("acceptance", "--only", "not_a_criterion")
        assert out.returncode == 2

    def test_thread_count_reproducibility(self, tmp_path):
        """Same seed, different --threads: byte-identical CSV outputs."""
        subset = "euclidean_consistency,duality_variational"
        outputs = {}
        for threads in ("1", "3"):
            for run in ("a", "b"):
                d = tmp_path / f"t{threads}{run}"
                d.mkdir()
                out = run_cli("acceptance", "--only", subset, "--seed", "9",
                              "--threads", threads, "--out", str(d))
                assert out.returncode == 0, out.stderr
                outputs[(threads, run)] = {
                    f.name: f.read_bytes() for f in sorted(d.iterdir())
                }
        baseline = outputs[("1", "a")]
        assert set(baseline) == {"euclidean_consistency.csv", "duality_variational.csv"}
        for key, files in outputs.items():
            assert files == baseline, f"outputs differ for run {key}"

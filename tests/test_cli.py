import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pwscontract.cli import EXIT_NUMERICAL, main
from pwscontract.model import builtin_config_path

from conftest import (
    OUTSIDE_MANIFOLD,
    SLIDE_TO_INTERSECTION,
    STIFF,
    STIFF_SLIDE,
    STIFF_STEPWISE_SLIDE,
    WRONG_TYPES,
    with_entry,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def final_state(path):
    _, rows = read_csv_rows(path)
    return np.array([float(rows[-1][1]), float(rows[-1][2])])


class TestSimulate:
    def test_example1_reaches_equilibrium(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", "example1", "--x0", "-3,-4",
                   "--t-final", "20", "--out", str(out)])
        assert rc == 0
        assert np.linalg.norm(final_state(out) - [0.5, 0.0]) < 1e-4
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == [str(out)]
        assert "tool_version" in manifest and "wall_time_s" in manifest

    def test_example2_reaches_equilibrium(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", "example2", "--x0", "-2,-2",
                   "--t-final", "20", "--out", str(out)])
        assert rc == 0
        assert np.linalg.norm(final_state(out) - [1.1, 0.45]) < 1e-4

    def test_zero_duration_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", "example1", "--x0", "1,1",
                   "--t-final", "0", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out)
        assert header == ["t", "x1", "x2", "segment", "mode_or_pair", "lambda"]
        assert len(rows) == 1
        assert rows[0][:3] == ["0", "1", "1"]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--config", "example1", "--x0", "-3,-4",
                         "--t-final", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_escaping_exit_code(self, tmp_path):
        cfg = tmp_path / "escape.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-2.0, 1.0], [0.0, -1.0]], "b": [1.0, 0.0]},
                      {"A": [[-1.0, 1.0], [0.0, -1.0]], "b": [3.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        rc = main(["simulate", "--config", str(cfg), "--x0", "0,-2",
                   "--t-final", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_bad_vector_usage_error(self, tmp_path):
        rc = main(["simulate", "--config", "example1", "--x0", "1,zap",
                   "--t-final", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 64

    def test_unknown_config_usage_error(self, tmp_path):
        rc = main(["simulate", "--config", "nosuch", "--x0", "1,1",
                   "--t-final", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 64


class TestCertify:
    def test_example1_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", "--config", "example1", "--Q", "identity",
                   "--c", "0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        ids = {c["id"] for c in doc["conditions"]}
        assert ids == {"flow[1]", "flow[2]", "flow[3]", "jump[1]", "jump[2]"}

    def test_example2_passes(self, tmp_path):
        rc = main(["certify", "--config", "example2", "--Q", "identity",
                   "--c", "1.87", "--out", str(tmp_path / "c.json")])
        assert rc == 0

    @pytest.mark.parametrize("config, c", [("example1", "0.5"), ("example2", "1.87")])
    @pytest.mark.parametrize("strategy", ["vertex", "grid"])
    def test_report_holds_no_numpy_reprs(self, tmp_path, config, c, strategy):
        out = tmp_path / "cert.json"
        assert main(["certify", "--config", config, "--Q", "identity", "--c", c,
                     "--strategy", strategy, "--out", str(out)]) == 0
        assert "np.float64" not in out.read_text()

    def test_failing_rate_exit_one(self, tmp_path):
        rc = main(["certify", "--config", "example1", "--Q", "identity",
                   "--c", "0.6", "--out", str(tmp_path / "c.json")])
        assert rc == 1

    def test_non_pd_q_usage_error(self, tmp_path):
        rc = main(["certify", "--config", "example1", "--Q", "diag:1,-1",
                   "--c", "0.5", "--out", str(tmp_path / "c.json")])
        assert rc == 64

    def test_rate_from_embedded_metric(self, tmp_path):
        rc = main(["certify", "--config", "example2",
                   "--out", str(tmp_path / "c.json")])
        assert rc == 0

    @pytest.mark.parametrize("strategy, rc, status", [("vertex", 0, "empty"),
                                                      ("grid", 1, "unsampled")])
    def test_condition_without_points(self, tmp_path, capsys, strategy, rc, status):
        cfg = tmp_path / "outside.json"
        cfg.write_text(json.dumps(OUTSIDE_MANIFOLD))
        out = tmp_path / "c.json"
        assert main(["certify", "--config", str(cfg), "--c", "0.5",
                     "--strategy", strategy, "--out", str(out)]) == rc
        # strict JSON: no -Infinity or NaN tokens
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
        jump = doc["conditions"][-1]
        assert (jump["worst"], jump["margin"], jump["status"]) == (None, None, status)
        assert all("status" not in c for c in doc["conditions"][:-1])
        assert capsys.readouterr().out.splitlines()[2].endswith(status)


class TestRegularize:
    def test_monotone_gaps(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["regularize", "--config", "example1", "--x0", "-3,-4",
                   "--t-final", "10", "--eps", "1e-1,1e-2,1e-3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,sup_gap,slope_to_prev"
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_single_mode_noise_floor(self, tmp_path):
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        out = tmp_path / "conv.csv"
        rc = main(["regularize", "--config", str(cfg), "--x0", "1,1",
                   "--t-final", "5", "--eps", "1e-1,1e-2", "--out", str(out)])
        assert rc == 0
        gaps = [float(line.split(",")[1])
                for line in out.read_text().strip().split("\n")[1:]]
        assert max(gaps) <= 1e-9


class TestPairwiseAndSearch:
    def test_pairwise_pass(self, tmp_path):
        out = tmp_path / "pw.json"
        rc = main(["pairwise", "--config", "example2", "--Q", "identity",
                   "--c", "1.87", "--pairs", "4", "--t-final", "5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert len(doc["pairs"]) == 4

    def test_search_q_found(self, tmp_path):
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        out = tmp_path / "search.json"
        rc = main(["search-q", "--config", str(cfg), "--c-hi", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["found"] and doc["reason"] == ""
        assert doc["metric"]["c"] >= 0.9

    def test_search_q_not_found(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        rc = main(["search-q", "--config", str(cfg), "--c-hi", "2",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 1
        doc = json.loads((tmp_path / "s.json").read_text())
        assert not doc["found"] and "certifies c = " in doc["reason"]

    @pytest.mark.parametrize("flags", [
        ["--c-lo", "2", "--c-hi", "1"], ["--c-hi", "nan"], ["--c-lo", "-1"],
    ])
    def test_search_q_bad_options_usage_error(self, tmp_path, flags):
        out = tmp_path / "s.json"
        assert main(["search-q", "--config", "example1", *flags, "--out", str(out)]) == 64
        assert not out.exists()


class TestReproduce:
    def test_example1(self, tmp_path, capsys):
        rc = main(["reproduce", "1", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS mu[1]" in out
        assert "FAIL" not in out
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["verdict"] == "pass"

    def test_example2(self, tmp_path, capsys):
        rc = main(["reproduce", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_example_usage_error(self):
        assert main(["reproduce", "3"]) == 64


class TestUsageErrors:
    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairwise_needs_a_pair(self, tmp_path, pairs):
        out = tmp_path / "pw.json"
        rc = main(["pairwise", "--config", "example2", "--c", "1.87",
                   "--pairs", pairs, "--out", str(out)])
        assert rc == 64
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-0.001", "nan"])
    def test_step_must_be_positive(self, tmp_path, step):
        for argv in (["simulate", "--x0", "-3,-4", "--t-final", "1"],
                     ["regularize", "--x0", "-3,-4", "--t-final", "1"],
                     ["pairwise", "--c", "0.5", "--pairs", "1", "--t-final", "1"]):
            rc = main([*argv, "--config", "example1", "--step", step,
                       "--out", str(tmp_path / "o")])
            assert rc == 64, argv

    @pytest.mark.parametrize("t_final", ["inf", "nan", "-1"])
    def test_final_time_must_be_finite(self, tmp_path, t_final):
        for argv in (["simulate", "--x0", "-3,-4"],
                     ["regularize", "--x0", "-3,-4"],
                     ["pairwise", "--c", "0.5", "--pairs", "1"]):
            rc = main([*argv, "--config", "example1", "--t-final", t_final,
                       "--out", str(tmp_path / "o")])
            assert rc == 64, argv

    @pytest.mark.parametrize("command", [
        ["simulate", "--x0", "-3,-4", "--t-final", "1"],
        ["certify", "--c", "0.5"],
    ])
    def test_non_finite_config(self, tmp_path, command):
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["modes"][0]["A"][0][0] = float("nan")
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 64
        assert not out.exists()

    @pytest.mark.parametrize("Q, c", [(np.eye(3).tolist(), 0.5),
                                      ([[1.0, 0.0], [0.0, -1.0]], 0.5),
                                      ([[1.0, 0.0], [0.0, 1.0]], -0.5)])
    @pytest.mark.parametrize("command", [
        ["simulate", "--x0", "-3,-4", "--t-final", "1"],
        ["certify", "--Q", "config"],
    ])
    def test_bad_config_metric(self, tmp_path, capsys, command, Q, c):
        # a 3x3 Q in a 2-D config, a Q that is not PD, a negative rate
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["metric"] = {"Q": Q, "c": c}
        cfg = tmp_path / "metric.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 64
        assert not out.exists()
        assert "usage error: " in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-5"])
    def test_tol_decay_must_be_finite(self, tmp_path, tol):
        out = tmp_path / "pw.json"
        rc = main(["pairwise", "--config", "example1", "--c", "0.5", "--pairs", "1",
                   "--t-final", "1", "--tol-decay", tol, "--out", str(out)])
        assert rc == 64
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["2,1", "1e-2,1e-1", "1e-1,0", "1e-1,nan"])
    def test_bad_eps_list(self, tmp_path, eps):
        # "2,1": the 2-bands of example1's manifolds x1 = 0 and x1 = 2 overlap
        out = tmp_path / "conv.csv"
        rc = main(["regularize", "--config", "example1", "--x0", "-3,-4",
                   "--t-final", "1", "--eps", eps, "--out", str(out)])
        assert rc == 64
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--x0", "1,1", "--t-final", "1"],
        ["certify", "--c", "0.5"],
    ])
    def test_out_of_order_chain(self, tmp_path, command):
        # manifold 2 of example1 moved to x1 = -1 empties mode 2's region
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["manifolds"][1]["d"] = -1.0
        cfg = tmp_path / "order.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 64
        assert not out.exists()

    @pytest.mark.parametrize("path, value, match", WRONG_TYPES)
    def test_wrong_json_type(self, tmp_path, capsys, path, value, match):
        doc = with_entry(json.loads(builtin_config_path("example1").read_text()),
                         path, value)
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--x0", "-3,-4",
                     "--t-final", "1", "--out", str(out)]) == 64
        assert not out.exists()
        assert f"usage error: {match}" in capsys.readouterr().err

    def test_ill_conditioned_q_still_runs_pairwise(self, tmp_path):
        # cond(Q) > 1e12 is refused only where mu_Q is evaluated
        common = ["--config", "example1", "--Q", "diag:1,1e-13", "--c", "0.1"]
        rc = main(["pairwise", *common, "--pairs", "1", "--t-final", "1",
                   "--out", str(tmp_path / "pw.json")])
        assert rc in (0, 1)
        assert (tmp_path / "pw.json").exists()
        assert main(["certify", *common, "--out", str(tmp_path / "c.json")]) == 1


class TestNumericalRefusal:
    def test_certified_stiff_mode_exits_numerical_without_csv(self, tmp_path, capsys):
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps(STIFF))
        assert main(["certify", "--config", str(cfg), "--Q", "identity",
                     "--c", "0.9", "--out", str(tmp_path / "cert.json")]) == 0
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--x0", "1,1",
                     "--t-final", "1", "--out", str(out)]) == EXIT_NUMERICAL == 3
        assert not out.exists()
        assert "use a smaller --step" in capsys.readouterr().err

    def test_stiff_sliding_field_exits_numerical(self, tmp_path, capsys):
        cfg = tmp_path / "stiff_slide.json"
        cfg.write_text(json.dumps(STIFF_SLIDE))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--x0", "0,1",
                     "--t-final", "1", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        assert "sliding field on sigma_1_2, pair (1, 2)" in capsys.readouterr().err

    def test_stiff_stepwise_slide_exits_numerical(self, tmp_path, capsys):
        cfg = tmp_path / "stiff_stepwise_slide.json"
        cfg.write_text(json.dumps(STIFF_STEPWISE_SLIDE))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--x0", "0,1",
                     "--t-final", "0.05", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        assert "sliding field on sigma_1_2, pair (1, 2)" in capsys.readouterr().err

    def test_slide_into_failed_intersection_exits_numerical(self, tmp_path, capsys):
        cfg = tmp_path / "slide_to_intersection.json"
        cfg.write_text(json.dumps(SLIDE_TO_INTERSECTION))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--x0=-2,0.5",
                     "--t-final", "3", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        assert "field directions disagree" in capsys.readouterr().err

    def test_stiff_mode_at_a_stable_step(self, tmp_path):
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps(STIFF))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--x0", "1,1",
                     "--t-final", "1", "--step", "1e-4", "--out", str(out)]) == 0
        assert np.all(np.isfinite(final_state(out)))


class TestManifest:
    def test_every_command_runs_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes any import of scipy fail
        commands = [
            ["simulate", "--config", "example1", "--x0", "-3,-4", "--t-final", "2",
             "--out", "traj.csv"],
            ["certify", "--config", "example2", "--c", "1.87", "--out", "cert.json"],
            ["regularize", "--config", "example1", "--x0", "-3,-4", "--t-final", "2",
             "--eps", "1e-1,1e-2", "--out", "conv.csv"],
            ["search-q", "--config", "example1", "--c-lo", "0.99", "--c-hi", "1.01",
             "--out", "search.json"],
            ["pairwise", "--config", "example1", "--c", "0.5", "--pairs", "2",
             "--t-final", "2", "--out", "pairwise.json"],
            ["reproduce", "1", "--out", "reproduce.json"],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pwscontract.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "search.json").read_text())["found"]

    def test_wall_time_includes_import(self, tmp_path):
        out = tmp_path / "cert.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "pwscontract.cli", "certify", "--config",
             "example2", "--c", "1.87", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
        assert manifest["wall_time_s"] >= manifest["import_s"] > 0.0

    def test_data_output_carries_no_timing(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["certify", "--config", "example2", "--c", "1.87",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
        assert manifest["wall_time_s"] >= manifest["import_s"] >= 0.0

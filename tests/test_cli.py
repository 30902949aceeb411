import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pwscontract.cli import EXIT_NUMERICAL, main
from pwscontract.model import builtin_config_path

from conftest import (
    BAD_CROSS_ERRORS,
    BAD_CROSSES,
    LEAVES_BOX,
    OUTSIDE_MANIFOLD,
    SLIDE_TO_INTERSECTION,
    STIFF,
    STIFF_SLIDE,
    STIFF_STEPWISE_SLIDE,
    VANISHING_CROSS,
    WRONG_TYPES,
    with_entry,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's public names, sorted: the measure API is matrix_measure for
# one matrix and Metric.measures for a stack
PUBLIC_NAMES = [
    "AffineField", "AnalysisBox", "BoundaryClass", "CertificateError", "CertificateReport",
    "Condition", "ConditionResult", "ConditionTable", "ConfigError", "ConvergenceTable",
    "EscapingRegionError", "IntersectionAssumptionError", "IntersectionCheck", "Manifold",
    "Metric", "Mode", "NonFiniteStateError", "PairwiseReport", "PwsSystem", "RegionLocation",
    "RegularizedSystem", "SearchOptions", "SearchResult", "Segment", "SolverOptions",
    "StepUnderflowError", "StiffStepError", "TopologyError", "Trajectory",
    "builtin_config_path", "check_box_invariance", "check_chain_certificate",
    "check_cross_certificate", "check_intersection_assumption", "check_regularized_chain",
    "check_regularized_cross", "classify_boundary", "condition_table", "convergence_study",
    "integrate", "integrate_regularized", "is_positive_definite", "load_system",
    "load_system_file", "locate", "margin", "matrix_measure", "pairwise_contraction_test",
    "search_certificate", "sliding_field", "write_convergence_csv", "write_trajectory_csv",
]


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
        assert manifest["results"] == {"box_exit": None}

    def test_box_exit_is_reported_not_refused(self, tmp_path):
        config = tmp_path / "leaves.json"
        config.write_text(json.dumps(LEAVES_BOX))
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", str(config), "--x0", "1,0",
                   "--t-final", "30", "--out", str(out)])
        assert rc == 0
        assert final_state(out)[0] > 20.0
        exit_ = json.loads((tmp_path / "traj.csv.manifest.json").read_text())[
            "results"]["box_exit"]
        assert exit_["t"] == pytest.approx(16.095, abs=1e-9) and exit_["state"][0] > 5.0

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
        # the manifest names the binding condition; a non-finite margin is null
        binding = json.loads((tmp_path / "c.json.manifest.json").read_text(),
                             parse_constant=lambda name: pytest.fail(name))["results"]["binding"]
        assert binding == ({"id": "flow[1]", "margin": 0.5, "point": None, "status": "",
                            "cond_q": 1.0} if strategy == "vertex" else
                           {"id": "jump[1]", "margin": None, "point": None,
                            "status": "unsampled", "cond_q": 1.0})

    @pytest.mark.parametrize("c, binding", [
        # seven conditions tie at the jump allowance: the first in table order binds
        ("1.87", {"id": "manifold[1]", "margin": 1e-9, "point": [-5.0, 0.0], "status": ""}),
        ("1.88", {"id": "flow[3]", "margin": -0.003105625617660479, "point": None,
                  "status": ""})])
    def test_manifest_names_the_binding_condition(self, tmp_path, c, binding):
        out = tmp_path / "c.json"
        main(["certify", "--config", "example2", "--Q", "identity", "--c", c,
              "--out", str(out)])
        results = json.loads((tmp_path / "c.json.manifest.json").read_text())["results"]
        assert results == {"binding": {**binding, "cond_q": 1.0}}
        # the report itself holds no binding entry
        assert set(json.loads(out.read_text())) == {"verdict", "rate", "strategy", "metric",
                                                    "notes", "conditions"}


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

    def test_stiff_band_table_falls_at_the_filippov_slope(self, tmp_path):
        # two modes -I x + (+-50, 1) split by x1 = 0: at eps <= 1e-2 substeps
        # of eps/10 left the blend unstable in the band, and the gaps stalled
        # at eps (0.0333, 0.00878, 0.0100, 0.00300, 0.00100; slope 0.70)
        cfg = tmp_path / "stiff.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [50.0, 1.0]},
                      {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [-50.0, 1.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        out = tmp_path / "conv.csv"
        rc = main(["regularize", "--config", str(cfg), "--x0", "1,0",
                   "--t-final", "1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        eps = np.array([float(r[0]) for r in rows])
        gaps = np.array([float(r[1]) for r in rows])
        assert len(gaps) == 5 and np.all(np.diff(gaps) < 0)
        assert 0.8 <= np.polyfit(np.log(eps), np.log(gaps), 1)[0] <= 1.2
        manifest = json.loads((tmp_path / "conv.csv.manifest.json").read_text())
        assert manifest["results"] == {"monotone_decreasing": True}

    def test_one_regularized_system_per_width(self, tmp_path, monkeypatch):
        # the eps list was validated by building every width's system, and the
        # study then built them all again: 10 for the README's 5 widths
        from pwscontract.regularize import RegularizedSystem

        built = []
        post_init = RegularizedSystem.__post_init__

        def counting(self):
            built.append(self.eps)
            post_init(self)

        monkeypatch.setattr(RegularizedSystem, "__post_init__", counting)
        out = tmp_path / "conv.csv"
        rc = main(["regularize", "--config", "example1", "--x0", "-3,-4",
                   "--t-final", "1", "--eps", "1e-1,3e-2,1e-2,3e-3,1e-3",
                   "--out", str(out)])
        assert rc == 0
        assert built == [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]

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

    @pytest.mark.parametrize("t_final", ["3", "5", "10", "20"])
    def test_pairs_at_the_equilibrium_pass(self, tmp_path, t_final):
        # one certified mode -15 (x - (1, 0)): both runs of a pair reach the
        # equilibrium to rounding by t ~ 2.5, and from there d is noise of
        # about 1e-17 that rises as often as it falls. The ratio test ends
        # where d falls to the resolution; it failed 0/10 pairs from T = 3 on
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-15.0, 0.0], [0.0, -15.0]], "b": [15.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        }))
        out = tmp_path / "pw.json"
        rc = main(["pairwise", "--config", str(cfg), "--Q", "identity", "--c", "0.5",
                   "--pairs", "10", "--t-final", t_final, "--out", str(out)])
        assert rc == 0
        pairs = json.loads(out.read_text())["pairs"]
        assert all(p["passed"] and 2.0 <= p["resolved_from"] <= 2.5 for p in pairs)
        assert all(p["worst_violation"] <= 1e-12 for p in pairs)

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

    @pytest.mark.parametrize("name", sorted(BAD_CROSSES))
    @pytest.mark.parametrize("command", [["certify", "--c", "0.5"], ["search-q"]])
    def test_cross_without_intersection_in_the_box_usage_error(self, tmp_path, capsys,
                                                              name, command):
        # once a numerical refusal (exit 3) when the conditions were built
        cfg = tmp_path / "cross.json"
        cfg.write_text(json.dumps(BAD_CROSSES[name]))
        out = tmp_path / "o.json"
        assert main([command[0], "--config", str(cfg), *command[1:], "--out", str(out)]) == 64
        assert BAD_CROSS_ERRORS[name] in capsys.readouterr().err
        assert not out.exists()

    def test_search_q_on_an_undecidable_common_sector_says_why(self, tmp_path):
        # once a numerical refusal (exit 3) with no output: the search now
        # returns the common-sector test's error as its reason
        cfg = tmp_path / "cross.json"
        cfg.write_text(json.dumps(VANISHING_CROSS))
        out = tmp_path / "s.json"
        assert main(["search-q", "--config", str(cfg), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert not doc["found"] and doc["trace"] == []
        assert "Lie derivative vanishes" in doc["reason"]
        assert json.loads((tmp_path / "s.json.manifest.json").read_text())["results"]["centres"] == 0

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

    def test_search_q_manifest_holds_the_search_statistics(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["search-q", "--config", "example2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"found", "reason", "trace", "metric", "report"}
        stats = json.loads((tmp_path / "s.json.manifest.json").read_text())["results"]
        assert stats["centres"] == len(stats["newton_steps_per_centre"]) > 0
        assert stats["newton_steps"] == sum(stats["newton_steps_per_centre"])
        assert doc["metric"]["c"] <= stats["upper_bound"] <= doc["metric"]["c"] + 1e-3
        assert stats["cond_q"] == pytest.approx(np.linalg.cond(doc["metric"]["Q"]))
        # every centring but the first starts from its predicted centre
        assert stats["predictor"] == {"accepted": stats["centres"] - 1, "cuts": 5,
                                      "fallbacks": 0}
        # the target rate of each centring, rising; in the manifest only
        targets = stats["targets"]
        assert len(targets) == stats["centres"]
        assert all(a < b for a, b in zip(targets, targets[1:]))
        assert targets[-1] < doc["metric"]["c"]
        assert "targets" not in out.read_text()
        # wall times go to the manifest only
        phases = stats["phase_ms"]
        assert set(phases) == {"setup", "centring", "checks", "recheck"}
        assert all(math.isfinite(ms) and ms >= 0.0 for ms in phases.values())
        assert "phase_ms" not in out.read_text()

    def test_search_q_refused_metric_writes_null_margin(self, tmp_path, monkeypatch):
        # a centre whose table the measure refuses has margin -inf, once
        # written as -Infinity
        import pwscontract.qsearch as qsearch

        def refuse(factor, mats):
            raise ValueError("A must have finite entries (and Q A Q^-1 must not overflow)")

        monkeypatch.setattr(qsearch, "_measures", refuse)
        out = tmp_path / "s.json"
        assert main(["search-q", "--config", "example2", "--out", str(out)]) == 1
        doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
        assert doc["trace"] and all(e["margin"] is None for e in doc["trace"])

    def test_json_writers_refuse_non_finite_numbers(self, tmp_path):
        from pwscontract.cli import _write_json

        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"x": float("nan")})

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
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["results"] == {"box_exits": []}

    def test_example2(self, tmp_path, capsys):
        rc = main(["reproduce", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out
        # the golden start (5, -5) leaves the box at the first step: reported,
        # with the verdict and the exit code unchanged
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        (exit_,) = manifest["results"]["box_exits"]
        assert exit_["x0"] == [5.0, -5.0] and exit_["t"] == 0.001
        assert exit_["state"][0] > 5.0

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

    @pytest.mark.parametrize("t_final", ["inf", "nan", "-1", "0"])
    def test_final_time_must_be_finite(self, tmp_path, t_final):
        # a zero horizon is one sample for simulate, but a decay test or a
        # convergence study over it would pass vacuously
        commands = [["regularize", "--x0", "-3,-4"],
                    ["pairwise", "--c", "0.5", "--pairs", "1"]]
        if t_final != "0":
            commands.append(["simulate", "--x0", "-3,-4"])
        for argv in commands:
            out = tmp_path / "o"
            rc = main([*argv, "--config", "example1", "--t-final", t_final,
                       "--out", str(out)])
            assert rc == 64, argv
            assert not out.exists()

    @pytest.mark.parametrize("x0", ["100,100", "nan,1", "5.1,0"])
    @pytest.mark.parametrize("command", ["simulate", "regularize"])
    def test_start_must_be_a_finite_state_in_the_box(self, tmp_path, capsys, command, x0):
        out = tmp_path / "o"
        rc = main([command, "--config", "example1", "--x0", x0, "--t-final", "1",
                   "--out", str(out)])
        assert rc == 64
        assert not out.exists()
        assert "usage error: x0 " in capsys.readouterr().err

    def test_start_on_the_box_within_tolerance_runs(self, tmp_path):
        # the integrators accept a start up to 1e-9 outside the box
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", "example1", "--x0", "5.0000000005,0",
                     "--t-final", "0.01", "--out", str(out)]) == 0

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

    @pytest.mark.parametrize("command", [
        ["simulate", "--x0", "-3,-4", "--t-final", "2"],
        ["certify", "--c", "0.5"],
    ])
    def test_overflowing_mode_data(self, tmp_path, capsys, command):
        # the RK4 powers of -1e200 I overflow: a usage error at load, with no
        # RuntimeWarning, not a run that fails on non-finite step maps
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["modes"][0]["A"] = [[-1e200, 0.0], [0.0, -1e200]]
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 64
        assert not out.exists()
        assert "usage error: mode 1: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_seed_must_be_a_nonnegative_integer(self, tmp_path, capsys, seed):
        # numpy's default_rng refuses a negative seed: a usage error, not a
        # failed run
        out = tmp_path / "pw.json"
        rc = main(["pairwise", "--config", "example1", "--c", "0.5", "--pairs", "1",
                   "--t-final", "1", "--seed", seed, "--out", str(out)])
        assert rc == 64
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

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


class TestLazyImports:
    def test_simulate_loads_only_what_it_uses(self, tmp_path):
        # a fresh process running simulate as from the shell
        code = (
            "import json, runpy, sys\n"
            "sys.argv = ['pwscontract', 'simulate', '--config', 'example1', '--x0',\n"
            "            '-3,-4', '--t-final', '2', '--out', 'traj.csv']\n"
            "try:\n"
            "    runpy.run_module('pwscontract.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('pwscontract')]))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert "pwscontract.filippov" in loaded
        for name in ("certify", "qsearch", "regularize"):
            assert f"pwscontract.{name}" not in loaded
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["wall_time_s"] >= manifest["import_s"] > 0.0

    @pytest.mark.parametrize("argv", [
        ["certify", "--config", "example2", "--c", "1.87", "--out", "cert.json"],
        ["search-q", "--config", "example2", "--out", "search.json"]],
        ids=["certify", "search-q"])
    def test_certificate_commands_load_no_solver(self, tmp_path, argv):
        # checking or searching a certificate integrates nothing, so neither
        # the Filippov solver nor the regularization is imported
        code = (
            "import json, runpy, sys\n"
            f"sys.argv = ['pwscontract', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('pwscontract.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('pwscontract')]))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert "pwscontract.certify" in loaded
        for name in ("filippov", "regularize"):
            assert f"pwscontract.{name}" not in loaded

    def test_every_public_name_resolves_to_its_module(self):
        import importlib
        import pkgutil

        import pwscontract

        assert len(pwscontract.__all__) == len(set(pwscontract.__all__)) == 52
        assert sorted(pwscontract.__all__) == PUBLIC_NAMES
        # the package exports exactly what its modules declare public
        declared = set()
        for info in pkgutil.iter_modules(pwscontract.__path__):
            module = importlib.import_module(f"pwscontract.{info.name}")
            declared.update(getattr(module, "__all__", ()))
        assert set(pwscontract._HOMES) == declared
        for name in pwscontract.__all__:
            home = pwscontract._HOMES[name]
            module = importlib.import_module(f"pwscontract.{home}")
            assert getattr(pwscontract, name) is getattr(module, name), name
            assert name in dir(pwscontract)
        with pytest.raises(AttributeError):
            pwscontract.no_such_name

    def test_star_import(self):
        namespace = {}
        exec("from pwscontract import *", namespace)
        import pwscontract

        assert {n for n in namespace if not n.startswith("__")} == set(pwscontract.__all__)
        assert namespace["integrate"] is pwscontract.filippov.integrate
        assert namespace["search_certificate"] is pwscontract.qsearch.search_certificate

"""Tests of the benchmark itself: one round of every workload, traced and
untraced, with every output check on. Run from the repository root with

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import nearest_rank  # noqa: E402
from tracer import parse_importtime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# per-layer counters each workload must move; the others read 0 there
HOME_LAYERS = {
    "cli": ["cli.simulate_main_ms", "filippov.csv_bytes", "regularize.samples",
            "certify.vertex_ms"],
    "ensemble": ["filippov.integrate_calls", "filippov.slide_segments",
                 "filippov.cross_segments", "certify.pairwise_ms"],
    "synthesis": ["measure.calls", "certify.grid_ms", "qsearch.probes",
                  "qsearch.margin_evals", "qsearch.cond_q_ex1"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_round(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in spec] == [
        (name, m["unit"]) for name, m in result["metrics"].items()]
    if trace == "1":
        for name in HOME_LAYERS[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nearest_rank():
    assert nearest_rank([5, 1, 4, 2, 3, 6, 7, 8, 9, 10], 0.1) == 1
    assert nearest_rank(range(1, 21), 0.1) == 2
    assert nearest_rank(range(1, 22), 0.1) == 3
    assert nearest_rank([4.5], 0.1) == 4.5


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        20 |         20 |         scipy._lib",
        "import time:        30 |         50 |       scipy",
        "import time:         5 |          5 |         scipy.linalg",
        "import time:        40 |         45 |       scipy.optimize",
        "import time:        10 |        105 |     pwscontract.qsearch",
        "import time:         7 |        112 |   pwscontract",
        "import time:         3 |        115 | pwscontract.cli",
    ])
    pws_ms, scipy_ms = parse_importtime(text)
    assert pws_ms == pytest.approx(0.115)
    assert scipy_ms == pytest.approx(0.095)

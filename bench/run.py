"""Benchmark of pwscontract: three closed-loop workloads (cli, ensemble,
synthesis) and a traced run that gives per-layer numbers.

Run from the root of a checkout:

    python3 bench/run.py --workload cli --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload synthesis --smoke    # one round, all checks

Every operation is timed on the wall clock and followed by one run of a fixed
calibration loop that shares no code with the program. An operation's time
divided by the mean of the two calibration runs around it cancels the speed
the shared host happens to give this process at that moment; the end-to-end
timings are the median of those ratios, scaled to milliseconds at the speed
at which the calibration loop takes ``CAL_REF_MS``. bench/README.md gives the
evidence for this and the raw p10 and median, which every run also prints.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the sample count, raw p10, median and tail of every timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh-process set-ups before and again after the timed window
PROBE_TIMEOUT_S = 120
CAL_ITERS = 2000  # one chunk of the calibration loop
CAL_SHARE = 0.1  # calibrate for this share of the operation just timed
CAL_REF_MS = 15.0  # about one chunk's time when the host is quiet


def calibration(seconds: float = 0.0) -> float:
    """Mean wall time of one chunk of a fixed piece of interpreter and
    small-numpy work, of the same kind as the program's but sharing no code
    with it; whole chunks run until ``seconds`` have passed."""
    import numpy as np

    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    table = {}
    chunks = 0
    t0 = time.perf_counter()
    while True:
        x = np.zeros(2)
        acc = 0.0
        for i in range(CAL_ITERS):
            M[0, 1] = M[1, 0] = 0.3 + 1e-6 * i
            x = 0.4 * (M @ x) + 1.0
            acc += float(np.linalg.eigvalsh(M)[-1]) + math.hypot(float(x[0]), i)
            table[i % 97] = acc
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / chunks


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its calibration loop and its child processes on
    one CPU, so that the calibration runs on the core that ran the operation
    it scales. Where that is not permitted the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank q-quantile: the ceil(q n)-th smallest sample."""
    s = sorted(samples)
    return s[max(1, math.ceil(q * len(s))) - 1]


def describe(label: str, samples, ratios, scale: float, unit: str) -> str:
    """One reference line: count, raw p10, median and, with at least 40
    samples, the highest percentile that has ten samples beyond it; then the
    calibrated median that the JSON reports."""
    n = len(samples)
    if n == 0:
        return f"{label}: no samples"
    line = (f"{label}: n={n} p10={nearest_rank(samples, 0.1) * scale:.4f} "
            f"p50={statistics.median(samples) * scale:.4f}")
    if n >= 40:
        q = 1.0 - 10.0 / n
        line += f" p{100 * q:.0f}={nearest_rank(samples, q) * scale:.4f}"
    ref = statistics.median(ratios) * CAL_REF_MS * scale / 1e3
    return line + f" max={max(samples) * scale:.4f} calibrated={ref:.4f} {unit}"


def probe(code: str, importtime: bool = False) -> tuple:
    """Wall time of one fresh interpreter running ``code``, and its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(SRC)]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return dt, proc.stderr


def run_rounds(workload, seconds: float, max_rounds, tracer) -> dict:
    """Closed loop over whole rounds of ``workload.plan``. A new round starts
    only while the longest round so far still fits in ``seconds``."""
    samples = [[] for _ in workload.kinds]
    ratios = [[] for _ in workload.kinds]
    cal = [calibration()]
    first = [True] * len(workload.kinds)
    attempted = failed = rounds = 0
    problems = []
    t_begin = time.perf_counter()
    longest = 0.0
    while max_rounds is None or rounds < max_rounds:
        if max_rounds is None and rounds and time.perf_counter() - t_begin + longest > seconds:
            break
        r0 = time.perf_counter()
        for kind in workload.plan:
            attempted += 1
            try:
                t0 = time.perf_counter()
                out = workload.run(kind)
                dt = time.perf_counter() - t0
            except Exception:  # an operation that fails is counted, the loop goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                cal.append(calibration())
                continue
            cal.append(calibration(CAL_SHARE * dt))
            samples[kind].append(dt)
            ratios[kind].append(dt / (0.5 * (cal[-2] + cal[-1])))
            if tracer is not None:
                tracer.active = False
            try:
                workload.check(kind, out, first[kind])
            except Exception as exc:
                problems.append(f"{workload.kinds[kind]}: {exc!r}")
                print(f"check failed: {workload.kinds[kind]}: {exc}", file=sys.stderr)
            if tracer is not None:
                tracer.active = True
            first[kind] = False
        if tracer is not None:
            tracer.end_round()
        rounds += 1
        longest = max(longest, time.perf_counter() - r0)
    return {"samples": samples, "ratios": ratios, "cal": cal,
            "attempted": attempted, "failed": failed,
            "problems": problems, "rounds": rounds,
            "window_s": time.perf_counter() - t_begin}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from tracer import Tracer, parse_importtime

    cls = workloads.WORKLOADS[name]
    n_probes = 1 if smoke else SETUP_PROBES
    setup_code = cls.setup_code or (
        f"import workloads; workloads.WORKLOADS[{name!r}]({seed})")
    probe_code = "import pwscontract.cli" if trace else setup_code
    probes = []
    probe_ratios = []

    def take_probes(n):
        for _ in range(n):
            before = calibration(CAL_SHARE * probes[-1][0] if probes else 0.0)
            probes.append(probe(probe_code, importtime=trace))
            after = calibration(CAL_SHARE * probes[-1][0])
            probe_ratios.append(probes[-1][0] / (0.5 * (before + after)))

    take_probes(n_probes)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        workload = cls(seed, tracer)
        res = run_rounds(workload, seconds, 1 if smoke else None, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    take_probes(0 if smoke else n_probes)

    setup = [dt for dt, _ in probes]
    for label, s, r in zip(workload.kinds, res["samples"], res["ratios"]):
        print(describe(f"{name} {'traced ' if trace else ''}{label}", s, r, 1e3, "ms"))
    print(describe(f"{name} set-up probe", setup, probe_ratios, 1.0, "s"))
    print(f"{name} calibration loop: p10={nearest_rank(res['cal'], 0.1) * 1e3:.4f} "
          f"p50={statistics.median(res['cal']) * 1e3:.4f} ms")
    print(f"{name}: {res['rounds']} rounds in {res['window_s']:.1f} s, "
          f"{res['attempted']} operations, {res['failed']} failed")

    if trace:
        imports = [parse_importtime(err) for _, err in probes]
        tracer.fixed["cli.import_ms"] = nearest_rank([a for a, _ in imports], 0.1)
        tracer.fixed["cli.import_scipy_ms"] = nearest_rank([b for _, b in imports], 0.1)
        metrics = tracer.metrics()
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(probe_ratios) * CAL_REF_MS / 1e3,
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        for k, r in enumerate(res["ratios"], start=1):
            metrics[f"op{k}_ref_ms"] = {"value": statistics.median(r) * CAL_REF_MS,
                                        "unit": "ms"}
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli", "ensemble", "synthesis"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round and one set-up probe, all checks on")
    args = parser.parse_args(argv)
    if not (SRC / "pwscontract" / "__init__.py").is_file():
        print(f"error: no pwscontract sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    pin_to_one_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

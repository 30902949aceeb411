"""The three workloads of the benchmark.

Each workload is a closed loop: one client in one process, one operation in
flight at a time. It has three kinds of operation, reported as ``op1``,
``op2`` and ``op3``. ``run(kind)`` performs one operation and returns its
output; ``check(kind, output, first)`` checks that output against the
reference computations in ``oracle``, outside the timed interval. The
constructor is the workload's set-up: imports, config loads and the inputs
made from the seed. ``plan`` is the order of the operations in one round.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracle import (
    PlanarSystem,
    check_final,
    check_flow_worsts,
    check_slides,
    decay_violation,
    grid_index,
    loglog_slope,
    require,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CONFIGS = SRC / "pwscontract" / "configs"

GOLDEN_STARTS = ((-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0),
                 (-3.0, -4.0), (-0.3, 2.0), (4.0, -3.0), (2.0, 4.0))
CLI_TIMEOUT_S = 150
TOL_DECAY = 1e-2  # the decay allowance pairwise_contraction_test defaults to


class OpFailed(Exception):
    """The program reported failure for one operation."""


def reference_systems() -> dict:
    return {name: PlanarSystem(CONFIGS / f"{name}.json")
            for name in ("example1", "example2")}


class Cli:
    """One fresh ``python -m pwscontract.cli`` process per command, cycling
    through three README commands; import, config load, compute, writers and
    manifests are all inside the timed interval. The commands do not depend
    on the seed, which only picks the command that starts the cycle. The
    traced run calls ``cli.main`` in-process instead."""

    name = "cli"
    kinds = ("simulate", "certify", "regularize")
    COMMANDS = (
        ["simulate", "--config", "example1", "--x0", "-3,-4", "--t-final", "20"],
        ["certify", "--config", "example2", "--c", "1.87"],
        ["regularize", "--config", "example1", "--x0", "-3,-4", "--t-final", "20"],
    )
    OUTPUTS = ("trajectory.csv", "certificate.json", "convergence.csv")
    setup_code = "import pwscontract.cli"

    def __init__(self, seed: int, tracer=None):
        self.tracer = tracer
        self.plan = tuple((seed + k) % 3 for k in range(3))
        self.out = OUT / "cli"
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ref = reference_systems()
        if tracer is not None:
            from pwscontract import cli

            self.cli = cli

    def run(self, kind: int) -> Path:
        path = self.out / self.OUTPUTS[kind]
        path.unlink(missing_ok=True)
        argv = [*self.COMMANDS[kind], "--out", str(path)]
        if self.tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "pwscontract.cli", *argv], cwd=self.out,
                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CLI_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        else:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            self.tracer.add(f"cli.{self.kinds[kind]}_main_ms",
                            (time.perf_counter() - t0) * 1e3)
            err = ""
        if code != 0:
            raise OpFailed(f"{self.kinds[kind]} exited {code}: {err.strip()[-300:]}")
        return path

    def check(self, kind: int, path: Path, first: bool) -> None:
        getattr(self, "_check_" + self.kinds[kind])(path)

    def _check_simulate(self, path: Path) -> None:
        ref = self.ref["example1"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["t", "x1", "x2", "segment", "mode_or_pair", "lambda"],
                f"simulate: unexpected CSV header {rows[0]}")
        t = np.array([float(r[0]) for r in rows[1:]])
        x = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        require(bool(np.all(np.diff(t) >= 0.0)) and abs(t[-1] - 20.0) <= 1e-9,
                "simulate: times not ordered up to t = 20")
        check_final(ref, ref.equilibrium(), x[-1], "simulate")
        slide = [k for k, r in enumerate(rows[1:]) if r[3] == "slide"]
        lam = [float(rows[k + 1][5]) for k in slide]
        require(check_slides(ref, x[slide], lam, "simulate") > 0,
                "simulate: the example1 trajectory never slides")

    def _check_certify(self, path: Path) -> None:
        ref = self.ref["example2"]
        doc = json.loads(path.read_text(encoding="utf-8"))
        Q = np.array(doc["metric"]["Q"], dtype=float)
        require(np.array_equal(Q, np.eye(2)) and doc["metric"]["c"] == 1.87,
                "certify: report is not for identity at c = 1.87")
        expected = "pass" if ref.certifies(Q, 1.87) else "fail"
        require(doc["verdict"] == expected,
                f"certify: verdict {doc['verdict']}, reference {expected}")
        check_flow_worsts([(c["id"], c["worst"]) for c in doc["conditions"]],
                          Q, ref.A, "certify")

    def _check_regularize(self, path: Path) -> None:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        require(rows[0] == ["eps", "sup_gap", "slope_to_prev"],
                f"regularize: unexpected CSV header {rows[0]}")
        eps = [float(r[0]) for r in rows[1:]]
        gaps = [float(r[1]) for r in rows[1:]]
        require(len(eps) >= 2 and all(b < a for a, b in zip(eps, eps[1:])),
                "regularize: eps column not strictly decreasing")
        require(all(b < a for a, b in zip(gaps, gaps[1:])),
                f"regularize: gaps do not fall strictly as eps falls: {gaps}")
        slope = loglog_slope(eps, gaps)
        require(0.8 <= slope <= 1.2, f"regularize: fitted slope {slope:.4f}")


class Ensemble:
    """One fixed seeded batch of short trajectories, repeated: a pairwise
    decay test of ten seeded pairs on each shipped system (op1, op2) and the
    eight golden starts integrated to T = 20 on both systems (op3)."""

    name = "ensemble"
    kinds = ("pairwise_ex1", "pairwise_ex2", "integrate")
    plan = (0, 1, 2)
    PAIRS = 10
    POOL_SEED = 2024
    CASES = (("example1", 0.5, 10.0), ("example2", 1.87, 5.0))  # system, c, T
    setup_code = None

    def __init__(self, seed: int, tracer=None):
        from pwscontract import certify, filippov, measure, model

        self.certify, self.filippov = certify, filippov
        self.systems = {name: model.load_system_file(model.builtin_config_path(name))
                        for name, _, _ in self.CASES}
        self.ref = reference_systems()
        self.eq = {name: r.equilibrium() for name, r in self.ref.items()}
        # The starts are one fixed spread over the box and the seed pairs them
        # up: the pairs differ from seed to seed while the trajectories, and
        # so the work of one operation, stay the same.
        rng = np.random.default_rng(seed % 2**63)
        self.pairs = {}
        for name, _, _ in self.CASES:
            lo, hi = self.ref[name].lo, self.ref[name].hi
            pool = np.random.default_rng(self.POOL_SEED).uniform(lo, hi, (2 * self.PAIRS, 2))
            order = rng.permutation(2 * self.PAIRS)
            self.pairs[name] = [(pool[order[2 * k]], pool[order[2 * k + 1]])
                                for k in range(self.PAIRS)]
        self.metrics = {name: measure.Metric.identity(2, c) for name, c, _ in self.CASES}
        self.starts = [np.array(s) for s in GOLDEN_STARTS]

    def run(self, kind: int):
        if kind < 2:
            name, _, t_f = self.CASES[kind]
            return self.certify.pairwise_contraction_test(
                self.systems[name], self.metrics[name], self.pairs[name], t_f)
        return [(name, self.filippov.integrate(self.systems[name], x0, 20.0))
                for name, _, _ in self.CASES for x0 in self.starts]

    def check(self, kind: int, out, first: bool) -> None:
        if kind == 2:
            self._check_trajectories(out)
            return
        name, c, t_f = self.CASES[kind]
        require(len(out.entries) == self.PAIRS and out.passed,
                f"{name}: {sum(e['passed'] for e in out.entries)}/{len(out.entries)} "
                f"pairs decay at c = {c}")
        if first:
            self._recheck_decay(name, c, t_f, out.entries)

    def _recheck_decay(self, name, c, t_f, entries) -> None:
        """Decay of every pair recomputed from the trajectories."""
        Q = self.metrics[name].Q
        for (xa, xb), entry in zip(self.pairs[name], entries):
            ta = self.filippov.integrate(self.systems[name], xa, t_f)
            tb = self.filippov.integrate(self.systems[name], xb, t_f)
            ia, ib = grid_index(ta.times, 1e-3), grid_index(tb.times, 1e-3)
            m = min(len(ia), len(ib))
            d = np.linalg.norm((ta.states[ia[:m]] - tb.states[ib[:m]]) @ Q.T, axis=1)
            require(d[0] > 0.0, f"{name}: coincident pair")
            v = decay_violation(d, ta.times[ia[:m]], c)
            require(v <= math.log1p(TOL_DECAY),
                    f"{name}: pair {xa}, {xb} violates the decay bound by {v:.3g}")
            require(abs(v - entry["worst_violation"]) <= 1e-9,
                    f"{name}: worst_violation {entry['worst_violation']!r}, "
                    f"recomputed {v!r}")

    def _check_trajectories(self, out) -> None:
        sliding = 0
        for name, traj in out:
            ref = self.ref[name]
            what = f"{name} integrate"
            require(abs(traj.final_time - 20.0) <= 1e-9, f"{what}: ends before T = 20")
            check_final(ref, self.eq[name], traj.final_state, what)
            mask = ~np.isnan(traj.lambdas)
            n_slide = check_slides(ref, traj.states[mask], traj.lambdas[mask], what)
            sliding += name == "example1" and n_slide > 0
        require(sliding >= 1, "no example1 trajectory slides")


class Synthesis:
    """Metric design: a sweep of certificate checks over a fixed seeded list
    of candidate (Q, c) on both systems (op1), and the metric search on
    example1 (op2) and example2 (op3). The search keeps its default options
    except for a rate bracket around the certifiable rate."""

    name = "synthesis"
    kinds = ("sweep", "search_ex1", "search_ex2")
    plan = (1, 0, 0, 0, 2, 0, 0, 0)
    BRACKETS = {"example1": (0.99, 1.01), "example2": (1.87, 1.89)}
    IDENTITY_RATE = {"example1": 0.5, "example2": 1.87}
    # identity passes at the paper's rates and fails just above them
    KNOWN = (("example1", 0.5, True), ("example1", 0.51, False),
             ("example2", 1.87, True), ("example2", 1.88, False))
    RANDOM_PER_SYSTEM = 3
    KNOWN_EPS = 1e-2
    setup_code = None

    def __init__(self, seed: int, tracer=None):
        from pwscontract import certify, measure, model, qsearch

        self.certify, self.qsearch, self.tracer = certify, qsearch, tracer
        self.systems = {name: model.load_system_file(model.builtin_config_path(name))
                        for name in self.IDENTITY_RATE}
        self.ref = reference_systems()
        rng = np.random.default_rng(seed % 2**63)
        cands = [(name, np.eye(2), c, self.KNOWN_EPS, ok) for name, c, ok in self.KNOWN]
        for name in self.IDENTITY_RATE:
            for j in range(self.RANDOM_PER_SYSTEM):
                if j == 0:  # diagonal: the zero-bound conditions can hold
                    Q = np.diag(rng.uniform(0.2, 1.0, 2))
                else:
                    L = np.array([[rng.uniform(0.5, 1.5), 0.0],
                                  [rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)]])
                    Q = L @ L.T
                cands.append((name, Q, rng.uniform(0.0, 2.5),
                              10.0 ** rng.uniform(-3.0, -1.0), None))
        self.candidates = [(name, measure.Metric(Q, c), eps, ok)
                           for name, Q, c, eps, ok in cands]

    def run(self, kind: int):
        cert = self.certify
        if kind == 0:
            out = []
            for name, metric, eps, ok in self.candidates:
                system = self.systems[name]
                if system.topology == "chain":
                    check, check_reg = cert.check_chain_certificate, cert.check_regularized_chain
                else:
                    check, check_reg = cert.check_cross_certificate, cert.check_regularized_cross
                out.append((check(system, metric), check(system, metric, strategy="grid"),
                            check_reg(system, metric, eps)))
            return out
        name = "example1" if kind == 1 else "example2"
        lo, hi = self.BRACKETS[name]
        opts = self.qsearch.SearchOptions(c_lo=lo, c_hi=hi)
        return opts, self.qsearch.search_certificate(self.systems[name], opts=opts)

    def check(self, kind: int, out, first: bool) -> None:
        if kind == 0:
            for cand, reports in zip(self.candidates, out):
                self._check_candidate(cand, *reports)
            return
        name = "example1" if kind == 1 else "example2"
        opts, result = out
        require(result.found, f"search on {name} found no metric")
        ref = self.ref[name]
        c, Q = result.metric.c, result.metric.Q
        lo, hi = self.IDENTITY_RATE[name] - opts.c_tol, -ref.max_real_eig()
        require(lo <= c <= hi + 1e-12,
                f"search on {name}: c = {c!r} outside [{lo}, {hi}]")
        # the search drives the zero-bound conditions up to their allowance
        # (1.001e-9 on example2), so the re-check allows ten times that
        require(ref.certifies(Q, c, tol_flow=1e-9, tol_zero=1e-8),
                f"search on {name}: the returned Q does not certify c = {c!r}")
        if self.tracer is not None and name == "example1":
            self.tracer.set("qsearch.cond_q_ex1", float(np.linalg.cond(Q)))

    def _check_candidate(self, cand, vertex, grid, reg) -> None:
        name, metric, eps, ok = cand
        ref = self.ref[name]
        Q, c = metric.Q, metric.c
        what = f"{name} Q={Q.tolist()} c={c:.6g}"
        for rep, strategy in ((vertex, "vertex"), (grid, "grid"), (reg, "regularized")):
            check_flow_worsts([(k.cond_id, k.worst) for k in rep.conditions],
                              Q, ref.A, f"{what} {strategy}")
        expect = ref.certificate(Q, c)
        got = {k.cond_id: k.worst for k in vertex.conditions}
        require(set(got) == set(expect),
                f"{what}: conditions {sorted(got)}, reference {sorted(expect)}")
        for cond_id, (_, w) in expect.items():
            require(abs(got[cond_id] - w) <= 1e-9 * max(1.0, abs(w)),
                    f"{what}: {cond_id} worst {got[cond_id]!r}, reference {w!r}")
        if ok is not None:
            require(vertex.passed == ok and ref.certifies(Q, c) == ok,
                    f"{what}: identity should {'pass' if ok else 'fail'}")
        elif abs(ref.flow_margin(Q, c)) > 1e-9:
            require(vertex.passed == ref.certifies(Q, c),
                    f"{what}: verdict {vertex.passed}, reference {not vertex.passed}")
        # the grid samples each domain, so it never finds a larger worst case
        worst_v = {k.cond_id: k.worst for k in vertex.conditions}
        for k in grid.conditions:
            require(k.worst <= worst_v[k.cond_id] + 1e-9,
                    f"{what}: grid {k.cond_id} worst {k.worst!r} above the vertex worst")
        # a band contains its manifold, so its worst case is never smaller
        pairs = ({f"jump[{k}]": f"jump[{k}]" for k in range(1, len(ref.planes) + 1)}
                 if ref.topology == "chain" else
                 {"band[1]": "manifold[1]", "band[2]": "manifold[2]",
                  "square-eq": "intersection-eq"})
        worst_r = {k.cond_id: k.worst for k in reg.conditions}
        for band, limit in pairs.items():
            require(worst_r[band] >= worst_v[limit] - 1e-9,
                    f"{what}: {band} worst {worst_r[band]!r} below {limit} "
                    f"{worst_v[limit]!r} (eps = {eps:.3g})")


WORKLOADS = {w.name: w for w in (Cli, Ensemble, Synthesis)}

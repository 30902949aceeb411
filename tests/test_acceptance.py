"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantities. Tolerances and runtime budgets
are fixed here, not tuned per machine."""

import collections
import math
import time

import numpy as np
import pytest

from pwscontract.measure import Metric, matrix_measure
from pwscontract.model import AnalysisBox, Manifold, Mode, PwsSystem
from pwscontract.filippov import SolverOptions, integrate, sliding_field
from pwscontract.regularize import (
    convergence_study,
    reduced_sliding_field,
    regularized_field_chain,
    regularized_field_cross,
    regularized_jacobian_chain,
    regularized_jacobian_cross,
)
from pwscontract.certify import (
    check_chain_certificate,
    check_cross_certificate,
    condition_table,
    pairwise_contraction_test,
)

EX1_MU_GOLDEN = [-0.50, -0.80, -0.88]
EX2_MU_GOLDEN = [-3.76, -1.88, -1.87, -7.88]
EQUILIBRIA = {1: np.array([0.5, 0.0]), 2: np.array([1.1, 0.45])}
STARTS = [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0),
          (-3.0, -4.0), (-0.3, 2.0), (4.0, -3.0), (2.0, 4.0)]
EPS_SWEEP = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_matrix_measure_goldens_example1(ex1):
    mats = [m.affine.A for m in ex1.modes]
    Q = np.eye(2)
    matrix_measure(Q, mats[0])  # warm path before timing
    t0 = time.perf_counter()
    mus = [matrix_measure(Q, A) for A in mats]
    elapsed = time.perf_counter() - t0
    closed = [-0.5, (-3 + math.sqrt(2)) / 2, (-4 + math.sqrt(5)) / 2]
    ok = (all(abs(m - g) <= 0.01 for m, g in zip(mus, EX1_MU_GOLDEN))
          and all(abs(m - c) <= 1e-10 for m, c in zip(mus, closed))
          and elapsed < 1e-3)
    report(1, ok, f"mu={[f'{m:.4f}' for m in mus]} vs {EX1_MU_GOLDEN}, "
                  f"runtime {elapsed * 1e3:.3f} ms (< 1 ms)")


def test_criterion_2_matrix_measure_goldens_example2(ex2):
    mus = [matrix_measure(np.eye(2), m.affine.A) for m in ex2.modes]
    ok = all(abs(m - g) <= 0.01 for m, g in zip(mus, EX2_MU_GOLDEN))
    report(2, ok, f"mu={[f'{m:.4f}' for m in mus]} vs {EX2_MU_GOLDEN}")


def test_criterion_3_certificate_reproduction(ex1, ex2):
    t0 = time.perf_counter()
    r1 = check_chain_certificate(ex1, Metric.identity(2, 0.5))
    t1 = time.perf_counter() - t0
    jumps = [r1.condition(f"jump[{k}]").worst for k in (1, 2)]
    t0 = time.perf_counter()
    r2 = check_cross_certificate(ex2, Metric.identity(2, 1.87))
    t2 = time.perf_counter() - t0
    residual = r2.condition("intersection-eq").worst
    ok = (r1.passed and r2.passed
          and all(w <= 1e-9 for w in jumps)
          and residual <= 1e-9
          and t1 < 1e-2 and t2 < 1e-2)
    report(3, ok,
           f"ex1 pass={r1.passed} jumps={jumps} ({t1 * 1e3:.2f} ms); "
           f"ex2 pass={r2.passed} eq-residual={residual:.2e} "
           f"({t2 * 1e3:.2f} ms); budgets 10 ms each")


@pytest.mark.parametrize("example", [1, 2])
def test_criterion_4_equilibrium_attraction(example, ex1, ex2):
    system = ex1 if example == 1 else ex2
    eq = EQUILIBRIA[example]
    opts = SolverOptions()
    t0 = time.perf_counter()
    finals = []
    slides = 0
    lam_interior = False
    for x0 in STARTS:
        traj = integrate(system, np.array(x0), 20.0, opts)
        finals.append(float(np.linalg.norm(traj.final_state - eq)))
        if traj.has_sliding():
            slides += 1
            lam = traj.lambdas[~np.isnan(traj.lambdas)]
            if np.any((lam > 0.0) & (lam < 1.0)):
                lam_interior = True
    elapsed = time.perf_counter() - t0
    ok = (max(finals) <= 1e-4 and slides >= 1 and lam_interior
          and elapsed < 1.0)
    report(4, ok,
           f"example {example}: worst final distance {max(finals):.2e} "
           f"(<= 1e-4), {slides}/8 sliding trajectories, "
           f"runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_5_pairwise_contraction(ex1, ex2):
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    results = {}
    for example, system, c, t_f in ((1, ex1, 0.5, 10.0), (2, ex2, 1.87, 5.0)):
        pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2))
                 for _ in range(10)]
        rep = pairwise_contraction_test(system, Metric.identity(2, c), pairs,
                                        t_f, tol_decay=1e-2)
        results[example] = rep
    elapsed = time.perf_counter() - t0
    ok = all(rep.passed for rep in results.values()) and elapsed < 5.0
    detail = "; ".join(
        f"example {k}: {sum(e['passed'] for e in rep.entries)}/10 pairs"
        for k, rep in results.items())
    report(5, ok, f"{detail}; runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_6_regularization_convergence(ex1, ex2):
    t0 = time.perf_counter()
    tables = {
        1: convergence_study(ex1, [-3.0, -4.0], 20.0, EPS_SWEEP),
        2: convergence_study(ex2, [-2.0, -2.0], 20.0, EPS_SWEEP),
    }
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    details = []
    for k, table in tables.items():
        ok = ok and table.is_monotone_decreasing() and table.fitted_slope >= 0.8
        details.append(f"example {k}: gaps {['%.2e' % g for g in table.gaps]} "
                       f"slope {table.fitted_slope:.3f}")
    report(6, ok, "; ".join(details) + f"; runtime {elapsed:.1f} s (< 30 s)")


def _random_sliding_configurations(count, seed):
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        if abs(c[np.argmax(np.abs(c))]) < 0.3:
            continue
        man = Manifold.from_affine("s", c, float(rng.uniform(-1, 1)))
        A1, A2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        b1, b2 = rng.normal(size=n), rng.normal(size=n)
        x = man.project(rng.uniform(-2, 2, n))
        si = float(np.dot(c, A1 @ x + b1))
        sj = float(np.dot(c, A2 @ x + b2))
        if not (si > 0.1 and sj < -0.1):
            continue
        system = PwsSystem(
            n, "chain",
            [Mode.from_affine(1, A1, b1), Mode.from_affine(2, A2, b2)],
            [man], AnalysisBox(np.full(n, -100.0), np.full(n, 100.0)))
        pivot = int(np.argmax(np.abs(c)))
        configs.append((system, x, [k for k in range(n) if k != pivot]))
    return configs


def test_criterion_7_sliding_equivalence_oracle():
    configs = _random_sliding_configurations(100, seed=2024)
    t0 = time.perf_counter()
    worst = 0.0
    for system, x, keep in configs:
        slow = reduced_sliding_field(system, 1, x)
        full = sliding_field(system, 1, 2, x)
        worst = max(worst, float(np.max(np.abs(slow - full[keep]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 0.1
    report(7, ok, f"100 configurations, worst gap {worst:.2e} (<= 1e-12), "
                  f"runtime {elapsed * 1e3:.1f} ms (< 100 ms)")


def test_criterion_8_measure_property_suite():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst_h = worst_s = worst_c = worst_g = 0.0
    for _ in range(1000):
        G = rng.normal(size=(2, 2))
        Q = G @ G.T + 0.3 * np.eye(2)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        s = float(rng.uniform(0.0, 4.0))
        gamma = float(rng.uniform(0.2, 5.0))
        mu_a = matrix_measure(Q, A)
        worst_h = max(worst_h, abs(matrix_measure(Q, s * A) - s * mu_a)
                      / max(1.0, abs(s * mu_a)))
        sub = matrix_measure(Q, A + B) - mu_a - matrix_measure(Q, B)
        worst_s = max(worst_s, sub)
        Q2 = Q @ Q
        lam = float(np.linalg.eigvalsh(Q2 @ A + A.T @ Q2 - 2 * mu_a * Q2)[-1])
        worst_c = max(worst_c, abs(lam) / max(1.0, float(np.linalg.norm(Q2 @ A))))
        worst_g = max(worst_g, abs(matrix_measure(gamma * Q, A) - mu_a)
                      / max(1.0, abs(mu_a)))
    elapsed = time.perf_counter() - t0
    ok = (worst_h <= 1e-9 and worst_s <= 1e-9 and worst_c <= 1e-9
          and worst_g <= 1e-9 and elapsed < 1.0)
    report(8, ok,
           f"1000 instances: homogeneity {worst_h:.1e}, subadditivity "
           f"{worst_s:.1e}, congruence {worst_c:.1e}, scaling {worst_g:.1e} "
           f"(all <= 1e-9), runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_9_jacobian_oracle(ex1, ex2):
    eps = 0.1
    rng = np.random.default_rng(4096)

    def fd(fn, x, d=1e-6):
        J = np.empty((2, 2))
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = d
            J[:, k] = (fn(x + dp) - fn(x - dp)) / (2 * d)
        return J

    def interior(system, count):
        pts = []
        while len(pts) < count:
            x = rng.uniform(-4.9, 4.9, 2)
            if min(abs(abs(m.h(x)) - eps) for m in system.manifolds) > 1e-4:
                pts.append(x)
        return pts

    pts1 = interior(ex1, 100)
    pts2 = interior(ex2, 100)
    t0 = time.perf_counter()
    worst1 = max(float(np.max(np.abs(
        regularized_jacobian_chain(ex1, eps, x)
        - fd(lambda y: regularized_field_chain(ex1, eps, y), x))))
        for x in pts1)
    worst2 = max(float(np.max(np.abs(
        regularized_jacobian_cross(ex2, eps, x)
        - fd(lambda y: regularized_field_cross(ex2, eps, y), x))))
        for x in pts2)
    elapsed = time.perf_counter() - t0
    ok = worst1 <= 1e-6 and worst2 <= 1e-6 and elapsed < 0.1
    report(9, ok, f"chain worst {worst1:.2e}, cross worst {worst2:.2e} "
                  f"(<= 1e-6), runtime {elapsed * 1e3:.1f} ms (< 100 ms)")


def test_criterion_10_chain_slide_runtime(chain4):
    # a fresh copy of the 4-mode chain, so the block maps of its modes and of
    # its sliding field are built inside the timed run
    system = PwsSystem(2, "chain", [Mode.from_affine(m.index, m.affine.A, m.affine.b)
                                    for m in chain4.modes],
                       chain4.manifolds, chain4.box)
    t0 = time.perf_counter()
    traj = integrate(system, np.array([-5.0, -5.0]), 20.0)
    elapsed = time.perf_counter() - t0
    slide = sum(s.t_end - s.t_start for s in traj.segments if s.kind == "slide")
    dist = float(np.linalg.norm(traj.final_state))
    ok = slide >= 18.0 and dist <= 1e-4 and elapsed <= 0.6
    report(10, ok, f"4-mode chain from (-5, -5) to T = 20: {slide:.2f} s of "
                   f"sliding, final distance {dist:.2e} to the Filippov "
                   f"equilibrium (<= 1e-4), runtime {elapsed * 1e3:.1f} ms (<= 0.6 s)")


def test_criterion_11_batched_condition_tables(ex1, ex2, chain3d, monkeypatch):
    # every affine table is built by array evaluations over each condition's
    # point set: no per-point field or manifold call, whatever the build takes
    calls = collections.Counter()
    for cls, name in ((Mode, "f"), (Manifold, "h")):
        def counting(self, x, method=getattr(cls, name), key=f"{cls.__name__}.{name}"):
            calls[key] += 1
            return method(self, x)

        monkeypatch.setattr(cls, name, counting)
    times = []
    for label, system in (("example1", ex1), ("example2", ex2), ("chain3d", chain3d)):
        for build, kwargs in (("vertex", {}), ("grid", {"strategy": "grid"}),
                              ("eps 1e-2", {"eps": 1e-2})):
            t0 = time.perf_counter()
            condition_table(system, **kwargs)
            times.append(f"{label} {build} {(time.perf_counter() - t0) * 1e3:.2f} ms")
    ok = not calls
    report(11, ok, f"per-point calls while building 9 affine tables: "
                   f"{dict(calls) or 0} (must be 0); build times: {', '.join(times)}")

"""Search for a certificate metric (Q, c): outer bisection on the rate c with
an inner derivative-free simplex search over Cholesky-factor parameters of Q.

The search is heuristic: failure to find a metric proves nothing (the
certificate conditions are sufficient only), and any returned metric is
re-checked before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import Metric, measure_many
from .model import AnalysisBox, PwsSystem
from .certify import (
    CertificateError,
    CertificateReport,
    ConditionTable,
    condition_table,
    PASS_TOL,
)

__all__ = ["SearchOptions", "SearchResult", "margin", "search_certificate"]

_PENALTY = -1e6


def minimize(fun, x0, **kw):
    """``scipy.optimize.minimize``, imported on first use so that only the
    metric search pays for loading scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


@dataclass(frozen=True)
class SearchOptions:
    c_lo: float = 0.0
    c_hi: float = 10.0
    c_tol: float = 1e-3
    max_iter: int = 200
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.c_lo < self.c_hi):
            raise ValueError("need 0 <= c_lo < c_hi")


@dataclass
class SearchResult:
    found: bool
    metric: Optional[Metric]
    report: Optional[CertificateReport]
    trace: list = field(default_factory=list)  # (c, best inner margin)


def _search_margin(table: ConditionTable, Q: np.ndarray, c: float) -> float:
    """Aggregate margin of a trial Q at rate c, from one batch evaluation of
    the table; see ``margin`` below for the convention."""
    out = math.inf
    for cond, worst in zip(table.conditions,
                           table.worsts(measure_many(Q, table.mats))):
        if cond.kind == "flow":
            out = min(out, -c - worst)
        elif worst > PASS_TOL + 1e-9:
            out = min(out, -worst)
    return out


def margin(system: PwsSystem, metric: Metric,
           box: Optional[AnalysisBox] = None) -> float:
    """Smallest (required bound - worst case) over the certificate conditions,
    against the exact bounds; positive iff the certificate passes with slack.

    Zero-bound conditions (manifold jump terms and the intersection equality)
    are hard gates: when satisfied within their floating-point allowance they
    do not cap the margin, since no choice of c improves them; when violated
    they contribute their negative margin.
    """
    if metric.dimension != system.dimension:
        raise CertificateError("metric dimension does not match the system")
    return _search_margin(condition_table(system, box), metric.Q, metric.c)


def _params_to_q(theta: np.ndarray, n: int) -> Optional[np.ndarray]:
    L = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i + 1):
            L[i, j] = theta[idx]
            idx += 1
    Q = L @ L.T
    dmax = float(np.max(np.diag(Q)))
    if not math.isfinite(dmax) or dmax <= 1e-12:
        return None
    # mu_Q is invariant under positive scaling of Q: pin the largest diagonal
    return Q / dmax


def _initial_params(n: int) -> np.ndarray:
    theta = []
    for i in range(n):
        for j in range(i + 1):
            theta.append(1.0 if i == j else 0.0)
    return np.array(theta)


def _inner_search(table: ConditionTable, n, c, opts: SearchOptions, rng) -> tuple:
    """Maximize the certificate margin over Q at fixed rate c.

    Returns (best margin, best Q) across seeded restarts; deterministic for a
    fixed seed."""

    def neg_margin(theta):
        Q = _params_to_q(theta, n)
        if Q is None:
            return -_PENALTY
        try:
            return -_search_margin(table, Q, c)
        except Exception:
            return -_PENALTY

    starts = [_initial_params(n)]
    for _ in range(max(0, opts.restarts - 1)):
        starts.append(_initial_params(n) + 0.25 * rng.standard_normal(len(starts[0])))
    best = (-math.inf, None)
    for theta0 in starts:
        m0 = -neg_margin(theta0)
        if m0 > best[0]:
            best = (m0, _params_to_q(theta0, n))
        if best[0] >= -PASS_TOL:
            # feasibility is all the bisection needs; skip the polish
            return best
        res = minimize(neg_margin, theta0, method="Nelder-Mead",
                       options={"maxiter": opts.max_iter, "xatol": 1e-8,
                                "fatol": 1e-10, "disp": False})
        m1 = -float(res.fun)
        if m1 > best[0]:
            best = (m1, _params_to_q(res.x, n))
        if best[0] >= -PASS_TOL:
            return best
    return best


def search_certificate(system: PwsSystem, box: Optional[AnalysisBox] = None,
                       opts: Optional[SearchOptions] = None) -> SearchResult:
    """Find the largest certifiable rate by bisection on c, with the metric
    re-optimized at every probed rate. The returned metric is re-checked; a
    SearchResult with ``found=False`` means only that the budgeted search
    failed, not that no certificate exists."""
    opts = opts or SearchOptions()
    rng = np.random.default_rng(opts.seed)
    trace = []
    best: Optional[tuple] = None  # (c, Q)
    try:
        table = condition_table(system, box)
    except (ValueError, CertificateError):
        return SearchResult(False, None, None, [])
    n = system.dimension

    def feasible(c: float) -> bool:
        nonlocal best
        m, Q = _inner_search(table, n, c, opts, rng)
        trace.append((c, m))
        if m >= -PASS_TOL and Q is not None:
            if best is None or c > best[0]:
                best = (c, Q)
            return True
        return False

    lo, hi = opts.c_lo, opts.c_hi
    if feasible(hi):
        lo = hi
    elif not feasible(max(lo, opts.c_tol)):
        # even the smallest positive rate failed: one more sweep downward
        probe = max(lo, opts.c_tol) / 8.0
        if probe <= 0 or not feasible(probe):
            return SearchResult(False, None, None, trace)
        hi = max(lo, opts.c_tol)
        lo = probe
    else:
        lo = max(lo, opts.c_tol)
    while hi - lo > opts.c_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    c_star, q_star = best
    metric = Metric(q_star, c_star)
    report = table.report(metric)
    if not report.passed:
        # soundness guard: never return a metric whose re-check fails
        return SearchResult(False, None, None, trace)
    return SearchResult(True, metric, report, trace)

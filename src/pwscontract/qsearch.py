"""Exact synthesis of a certificate metric (Q, c) in P = Q^2: bisection on c
over a log-barrier solve at every probed rate. A flow condition mu_Q(A) <= -c
is the LMI P A + A^T P <= -2cP, and mu_Q(u g^T) <= 0 on a rank-one jump term
holds iff P u = -kappa g with kappa >= 0 (Lohmiller & Slotine, Automatica
1998; Boyd, El Ghaoui, Feron & Balakrishnan, LMIs in System and Control
Theory, 1994). For a positive definite P, u^T P u = -kappa u.g > 0, so
kappa >= 0 iff u.g = tr(u g^T) < 0: the signs are a gate on the table alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import Metric, measure_many
from .model import AnalysisBox, PwsSystem
from .certify import (CertificateError, CertificateReport, ConditionTable,
                      PASS_TOL, TOL_ZERO, condition_table)

__all__ = ["SearchOptions", "SearchResult", "margin", "search_certificate"]

_MAX_COND = 1e6  # every probed Q has cond(Q) <= this; measure refuses > 1e12
_ROUNDING = 1e-12  # a jump row this small relative to the largest is noise
_GAP_FLOOR = 1e-12  # the barrier stops once its duality gap is this small


@dataclass(frozen=True)
class SearchOptions:
    """Rate bracket and bisection tolerance, all finite."""

    c_lo: float = 0.0
    c_hi: float = 10.0
    c_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.c_lo < self.c_hi < math.inf:
            raise ValueError("need finite 0 <= c_lo < c_hi")
        if not 0.0 < self.c_tol < math.inf:
            raise ValueError("c_tol must be a finite positive number")


@dataclass
class SearchResult:
    found: bool
    metric: Optional[Metric]
    report: Optional[CertificateReport]
    trace: list = field(default_factory=list)  # (c, margin of the probe's Q)
    reason: str = ""  # why nothing was found; empty when found


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
    Zero-bound conditions (jump terms, the intersection equality) are hard
    gates: within their floating-point allowance they do not cap the margin,
    since no choice of c improves them; violated, they give their margin."""
    if metric.dimension != system.dimension:
        raise CertificateError("metric dimension does not match the system")
    return _search_margin(condition_table(system, box), metric.Q, metric.c)


def _admissible(table: ConditionTable, n: int):
    """(P0, D): P0 + sum_k z_k D[k] spans the symmetric P of trace 1 meeting the
    jump equalities of the table; or the reason why no such P is PD."""
    I = np.eye(n)  # E: a Frobenius-orthonormal basis of the symmetric matrices
    E = np.array([(np.outer(I[i], I[j]) + np.outer(I[j], I[i])) / math.sqrt(2 + 2 * (i == j))
                  for i in range(n) for j in range(i, n)])
    K = [np.zeros((1, len(E)))]  # a zero row keeps the SVD defined
    rows = [(cond, M, np.linalg.norm(M)) for cond in table.conditions
            if cond.kind == "jump" for M in table.mats[cond.rows]]
    # rows within TOL_ZERO (the allowance for a well-conditioned Q) or at the
    # table's rounding level are no constraint and no proof: probes check them
    floor = max([TOL_ZERO] + [_ROUNDING * norm for _, _, norm in rows])
    for cond, M, norm in rows:
        if norm > floor:
            if np.trace(M) >= 0.0:
                return (f"{cond.cond_id}: a jump term u g^T has u.g = {np.trace(M):.6g}"
                        " >= 0, so its measure is positive for every Q")
            g = M[np.argmax(np.linalg.norm(M, axis=1))]  # rows of u g^T are u_i g^T
            proj = I - np.outer(g, g) / (g @ g)
            K.append((proj @ E @ (M / norm)).reshape(len(E), -1).T)
    _, sv, vt = np.linalg.svd(np.vstack(K))
    B = np.tensordot(vt[int(np.sum(sv > 1e-9 * sv[0])):], E, 1)  # the null space
    tau = np.trace(B, axis1=1, axis2=2)
    if tau @ tau <= 1e-18:
        return "the jump conditions admit no positive definite P = Q^2 at all"
    free = np.linalg.svd(tau[None])[2][1:]  # directions of zero trace
    return np.tensordot(tau, B, 1) / (tau @ tau), np.tensordot(free, B, 1)


def _ascend(F0: np.ndarray, D: np.ndarray):
    """Maximize t subject to F0[j] + sum_k z_k D[j, k] >= t I for every block
    j (concave), by damped Newton steps on -s t - sum_j log det. Yields (t, z)
    at every iterate with t > 0, and last where the duality bound t + deg/s
    proves t* < 0 or the gap deg/s falls below _GAP_FLOOR."""
    J, n = F0.shape[:2]
    D = np.concatenate([D, np.broadcast_to(-np.eye(n), (J, 1, n, n))], axis=1)
    x = np.append(np.zeros(D.shape[1] - 1), np.linalg.eigvalsh(F0)[:, 0].min() - 1.0)
    s, deg = 1.0, J * n
    for _ in range(400):
        if x[-1] > 0.0:
            yield x[-1], x[:-1]
        Li = np.linalg.inv(np.linalg.cholesky(F0 + np.einsum("k,jkab->jab", x, D)))
        W = Li[:, None] @ D @ Li[:, None].swapaxes(2, 3)
        grad = -np.trace(W, axis1=2, axis2=3).sum(axis=0)
        grad[-1] -= s
        step = np.linalg.solve(np.einsum("jkab,jlab->kl", W, W), -grad)
        dec = float(-grad @ step)  # squared Newton decrement
        if dec < 1e-10:  # centred: the optimum is at most t + deg/s
            if x[-1] + deg / s < 0.0 or deg / s < _GAP_FLOOR:
                break
            s *= 10.0
        x = x + step / (1.0 + math.sqrt(dec))
    yield x[-1], x[:-1]


def _root(P: np.ndarray) -> np.ndarray:
    """Q = P^(1/2) by eigh, its eigenvalues floored so that cond(Q) <=
    _MAX_COND, scaled so that its largest diagonal entry is 1."""
    w, V = np.linalg.eigh(P)
    Q = (V * np.sqrt(np.maximum(w, w[-1] / _MAX_COND ** 2))) @ V.T
    return (Q + Q.T) / (Q + Q.T).diagonal().max()


def search_certificate(system: PwsSystem, box: Optional[AnalysisBox] = None,
                       opts: Optional[SearchOptions] = None) -> SearchResult:
    """Find the largest certifiable rate by bisection on c, with the metric
    synthesized exactly at every probed rate: at fixed c and tr P = 1, the
    largest t with every flow block -(P A + A^T P) - 2cP and P - I/_MAX_COND^2
    above t I. ``found=False`` comes with a ``reason``: a jump term or jump
    constraints no symmetric Q meets (a proof), or the smallest rate refused
    under cond(Q) <= _MAX_COND."""
    opts = opts or SearchOptions()
    trace: list = []
    fail = lambda reason: SearchResult(False, None, None, trace, reason)
    try:
        table = condition_table(system, box)
    except (ValueError, CertificateError) as exc:
        return fail(str(exc))
    space = _admissible(table, system.dimension)
    if isinstance(space, str):
        return fail(space)
    P0, D = space
    P0_floor = P0 - np.eye(system.dimension) / _MAX_COND ** 2
    if next(_ascend(P0_floor[None], D[None]))[0] <= 0.0:
        return fail("the jump conditions leave no positive definite P = Q^2 "
                    f"with cond(Q) <= {_MAX_COND:g}")
    A = np.concatenate([table.mats[cond.rows] for cond in table.conditions
                        if cond.kind == "flow"])
    PA0, PAD = P0 @ A, D[:, None] @ A
    L0, LD = -(PA0 + PA0.swapaxes(1, 2)), -(PAD + PAD.swapaxes(2, 3)).swapaxes(0, 1)
    accepted = {}  # c -> Q

    def feasible(c: float) -> bool:
        for _, z in _ascend(np.concatenate([L0 - 2.0 * c * P0, P0_floor[None]]),
                            np.concatenate([LD - 2.0 * c * D, D[None]])):
            Q = _root(P0 + np.tensordot(z, D, 1))
            try:
                m = _search_margin(table, Q, c)
            except ValueError:  # measure._factor refused Q
                m = -math.inf
            if m >= -PASS_TOL:
                break
        trace.append((c, m))
        if m >= -PASS_TOL:
            accepted[c] = Q
        return m >= -PASS_TOL

    lo, hi = max(opts.c_lo, opts.c_tol), opts.c_hi
    if feasible(hi):
        lo = hi
    elif not feasible(lo):
        # even the smallest positive rate failed: one more sweep downward
        lo, hi = lo / 8.0, lo
        if lo <= 0 or not feasible(lo):
            return fail(f"no Q with cond(Q) <= {_MAX_COND:g} certifies "
                        f"c = {trace[-1][0]:g}")
    while hi - lo > opts.c_tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    metric = Metric(accepted[max(accepted)], max(accepted))
    report = table.report(metric)
    if not report.passed:  # soundness guard: never return a failing metric
        return fail("the synthesized metric failed its re-check")
    return SearchResult(True, metric, report, trace)

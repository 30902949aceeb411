"""Exact synthesis of a certificate metric (Q, c) in P = Q^2. A flow
condition mu_Q(A) <= -c is the LMI P A + A^T P <= -2cP, and mu_Q(u g^T) <= 0
on a rank-one jump term holds iff P u = -kappa g with kappa >= 0 (Lohmiller &
Slotine, Automatica 1998; Boyd, El Ghaoui, Feron & Balakrishnan, LMIs in
System and Control Theory, 1994); kappa >= 0 iff u.g = tr(u g^T) < 0 for PD P.
The best rate is a generalized-eigenvalue problem (ibid., 5.1), solved by the
method of centres (Boyd & El Ghaoui, Linear Algebra Appl. 188-189, 1993):
centre P on the barrier of L_j(P) - 2 lam P, L_j(P) = -(P A_j + A_j^T P), and
P - I/_MAX_COND^2, read c(P) = min_j lambda_min(L_j(P), 2P), move lam to
_THETA lam + (1 - _THETA) c(P); stop on the centre's duality bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import Metric, measure_many
from .model import PwsSystem
from .certify import (CertificateError, CertificateReport, ConditionTable,
                      PASS_TOL, TOL_ZERO, condition_table)

__all__ = ["SearchOptions", "SearchResult", "margin", "search_certificate"]

_MAX_COND = 1e6  # every centre's Q has cond(Q) <= this; measure refuses > 1e12
_ROUNDING = 1e-12  # a jump row this small relative to the largest is noise
_THETA, _CENTRED = 0.2, 1e-2  # target's share of the last gap; centred decrement
_MAX_CENTRES, _MAX_STEPS = 500, 200  # caps on the centres and on one centring


@dataclass(frozen=True)
class SearchOptions:
    """Finite clamps on the rate (at most c_hi, refused once proved below
    max(c_lo, c_tol)) and the stopping gap c_tol of the upper bound."""

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
    trace: list = field(default_factory=list)  # (c(P), margin of its Q) per centre
    reason: str = ""  # why nothing was found; empty when found
    stats: dict = field(default_factory=dict)  # centres, Newton steps, bound, cond(Q)


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


def margin(system: PwsSystem, metric: Metric) -> float:
    """Smallest (required bound - worst case) over the certificate conditions,
    against the exact bounds; positive iff the certificate passes with slack.
    Zero-bound conditions (jump terms, the intersection equality) are hard
    gates: within their floating-point allowance they do not cap the margin,
    since no choice of c improves them; violated, they give their margin."""
    if metric.dimension != system.dimension:
        raise CertificateError("metric dimension does not match the system")
    return _search_margin(condition_table(system), metric.Q, metric.c)


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
    # table's rounding level are no constraint and no proof: centres check them
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


def _centre(F0: np.ndarray, D: np.ndarray, z: np.ndarray, steps: list):
    """Damped Newton steps on -sum_j log det F_j(z), F_j = F0[j] + sum_k z_k D[j, k],
    from a strictly feasible z to a squared decrement below _CENTRED. Returns z,
    Z_j = F_j^-1 and nu >= sum_j tr(Z_j F_j(z')) for all feasible z': the block
    size m, + delta (m + 2 sqrt(m) + 1) / (1 - 2 delta) off centre (Nesterov, 4.2)."""
    for k in range(_MAX_STEPS):
        Z = np.linalg.inv(F0 + np.einsum("k,jkab->jab", z, D))
        grad = -np.einsum("jkaa->k", ZD := Z[:, None] @ D)
        step = np.linalg.solve(np.einsum("jkab,jlba->kl", ZD, ZD), -grad)
        dec = float(-grad @ step)  # squared Newton decrement
        if dec < _CENTRED:
            break
        z = z + step / (1.0 + math.sqrt(dec))  # stays strictly feasible
    steps.append(k)
    m, delta = D.shape[0] * D.shape[2], math.sqrt(dec)
    return z, Z, m + delta * (m + 2 * m ** 0.5 + 1) / (1 - 2 * delta) if delta < 0.1 else math.inf


def _root(P: np.ndarray) -> np.ndarray:
    """Q = P^(1/2) by eigh, eigenvalues floored to cond(Q) <= _MAX_COND, max diagonal 1."""
    w, V = np.linalg.eigh(P)
    Q = (V * np.sqrt(np.maximum(w, w[-1] / _MAX_COND ** 2))) @ V.T
    return (Q + Q.T) / (Q + Q.T).diagonal().max()


def search_certificate(system: PwsSystem,
                       opts: Optional[SearchOptions] = None) -> SearchResult:
    """The largest centre's rate over P >= I/_MAX_COND^2 of trace 1 meeting the
    jump equalities that the table accepts; else a ``reason``: a jump term or
    constraints no symmetric Q meets (a proof), or a bound below the clamps."""
    opts, trace, steps, upper = opts or SearchOptions(), [], [], math.inf

    def done(metric=None, report=None, reason=""):
        return SearchResult(metric is not None, metric, report, trace, reason, dict(
            centres=len(steps), newton_steps=sum(steps), newton_steps_per_centre=steps,
            upper_bound=float(upper) if upper < math.inf else None,
            cond_q=metric and metric.cond()))

    try:
        table = condition_table(system)
    except (ValueError, CertificateError) as exc:
        return done(reason=str(exc))
    if isinstance(space := _admissible(table, system.dimension), str):
        return done(reason=space)
    P0, D = space
    n, floor, I = system.dimension, 1.0 / _MAX_COND ** 2, np.eye(system.dimension)
    z, P, t = np.zeros(len(D)), P0, np.linalg.eigvalsh(P0)[0] - 1.0
    # phase 1, centres of P - t I: every admissible P' has lambda_min <= t + nu/tr Z
    while (w := np.linalg.eigvalsh(P)[0]) <= floor:
        t = _THETA * t + (1.0 - _THETA) * w
        z, Z, nu = _centre((P0 - t * I)[None], D[None], z, steps)
        P = P0 + np.einsum("k,kab->ab", z, D)
        if t + nu / np.trace(Z[0]) <= floor or len(steps) >= _MAX_CENTRES:
            return done(reason="the jump conditions leave no positive definite "
                        f"P = Q^2 with cond(Q) <= {_MAX_COND:g}")
    A = np.concatenate([table.mats[c.rows] for c in table.conditions if c.kind == "flow"])
    PA0, PAD = P0 @ A, D[None] @ A[:, None]
    L0, LD = -(PA0 + PA0.swapaxes(1, 2)), -(PAD + PAD.swapaxes(2, 3))
    lo, k, best, lam = max(opts.c_lo, opts.c_tol), 1.0 - n * floor, None, None
    for _ in range(_MAX_CENTRES):
        Ri = np.linalg.inv(np.linalg.cholesky(2.0 * P))
        rate = float(np.linalg.eigvalsh(  # c(P)
            Ri @ (L0 + np.einsum("k,jkab->jab", z, LD)) @ Ri.T)[:, 0].min())
        c, Q = min(rate, opts.c_hi), _root(P)
        try:
            trace.append((c, _search_margin(table, Q, c)))
        except ValueError:  # measure._factor refused Q
            trace.append((c, -math.inf))
        if trace[-1][1] >= -PASS_TOL and c > 0.0 and (best is None or c > best[0]):
            best = (c, Q)
        if lam is not None and nu < math.inf:
            # P' of rate c has M_j >= 2 (c - lam) P': X = 2 (c - lam) sum_flows Z_j
            # + Z_f has floor tr X + k lambda_min(X) <= tr(X P') <= nu + floor tr Z_f
            S = 2.0 * Z[:-1].sum(axis=0)
            Ri = np.linalg.inv(np.linalg.cholesky(S + floor * np.trace(S) / k * I))
            upper = min(upper, lam + np.linalg.eigvalsh(Ri @ (nu / k * I - Z[-1]) @ Ri.T)[-1])
        if rate >= opts.c_hi or upper < lo or upper - c <= opts.c_tol:
            break
        lam = rate - 1.0 - abs(rate) if lam is None else _THETA * lam + (1.0 - _THETA) * rate
        z, Z, nu = _centre(np.concatenate([L0 - 2.0 * lam * P0, (P0 - floor * I)[None]]),
                           np.concatenate([LD - 2.0 * lam * D, D[None]]), z, steps)
        P = P0 + np.einsum("k,kab->ab", z, D)
    if best is None or upper < lo:
        c = lo if upper < lo else trace[-1][0]
        return done(reason=f"no Q with cond(Q) <= {_MAX_COND:g} certifies c = {c:g}")
    report = table.report(metric := Metric(best[1], best[0]))
    if not report.passed:  # soundness guard: never return a failing metric
        return done(reason="the synthesized metric failed its re-check")
    return done(metric, report)

"""Exact synthesis of a certificate metric (Q, c) in P = Q^2. A flow
condition mu_Q(A) <= -c is the LMI P A + A^T P <= -2cP, and mu_Q(u g^T) <= 0
on a rank-one jump term holds iff P u = -kappa g with kappa >= 0 (Lohmiller &
Slotine, Automatica 1998; Boyd, El Ghaoui, Feron & Balakrishnan, LMIs in
System and Control Theory, 1994); kappa >= 0 iff u.g = tr(u g^T) < 0 for PD P.
The best rate is a generalized-eigenvalue problem (ibid., 5.1), solved by the
method of centres (Boyd & El Ghaoui, Linear Algebra Appl. 188-189, 1993):
centre P on the barrier of L_j(P) - 2 lam P, L_j(P) = -(P A_j + A_j^T P), and
P - I/_MAX_COND^2, read c(P) = min_j lambda_min(L_j(P), 2P), move lam to a
target below the best rate; stop on the centre's duality bound.

The centres z*(lam) lie on a smooth path: each centring starts at the
first-order prediction z + (lam' - lam) dz/dlam, H dz/dlam = -d(grad)/dlam
with the barrier Hessian H of the last centre (Nesterov & Nemirovskii,
Interior-Point Polynomial Algorithms in Convex Programming, 1994, ch. 3).
That start is feasible well past c(P), so the target takes a long step,
lam' = lam + omega (c(P) - lam) with omega from 1 - _THETA up to 4 (Nesterov
& Nemirovskii, ibid.): omega grows after a centring of few Newton steps and
shrinks while the predicted start is not strictly feasible; below 1 - _THETA
the target is _THETA lam + (1 - _THETA) c(P), started at the last centre.
Phase 1, the centres of P - t I, steps t alike. Each centre pays for one eigh
of P, which gives Q = P^(1/2) and Q^-1, and one evaluation of the whole table
with that factor, Q not re-validated: c(P) = min_j -mu_Q(A_j) is its flow
rows, and its margin, acceptance, next target and stop test are reductions of
it; only the returned metric is validated, by a re-check on the table. What
does not depend on the metric (the admissible space and the flow blocks) is
built once per system and kept in its memo.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .measure import Metric, _measures
from .model import PwsSystem, TopologyError
from .certify import (CertificateError, CertificateReport, ConditionTable,
                      PASS_TOL, TOL_ZERO, condition_table)

__all__ = ["SearchOptions", "SearchResult", "margin", "search_certificate"]

_MAX_COND = 1e6  # every centre's Q has cond(Q) <= this; measure refuses > 1e12
_ROUNDING = 1e-12  # a jump row this small relative to the largest is noise
_THETA, _CENTRED = 0.2, 1e-2  # target's share of the last gap; centred decrement
_MAX_CENTRES, _MAX_STEPS = 500, 200  # caps on the centres and on one centring
# omega, a long step's share of the gap c(P) - lam, from _THETA's rule up to 4
# in factors of 1.5 (doubling would skip 1.2, the longest step example2's
# predictions allow): one up after a centring of at most _EASY Newton steps,
# one down while the predicted start is infeasible
_OMEGAS, _EASY = tuple(min((1.0 - _THETA) * 1.5 ** i, 4.0) for i in range(5)), 2


@dataclass(frozen=True)
class SearchOptions:
    """Finite clamps on the rate (at most c_hi, refused once proved below
    max(c_lo, c_tol)); the stopping gap c_tol of the upper bound is fixed."""

    c_lo: float = 0.0
    c_hi: float = 10.0
    c_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.c_lo < self.c_hi < math.inf:
            raise ValueError("need finite 0 <= c_lo < c_hi")


@dataclass
class SearchResult:
    found: bool
    metric: Optional[Metric]
    report: Optional[CertificateReport]
    # (c, margin of its Q) for the start and each centre, every condition of
    # the table measured with the centre's factor (Q, Q^-1), c = min(c(P), c_hi)
    # read from its flow rows; a centre the measure refuses has margin -inf and
    # c its centring's target (c_lo at the start), a lower bound of c(P)
    trace: list = field(default_factory=list)
    reason: str = ""  # why nothing was found; empty when found
    # centres, Newton steps and the target of each centring, bound, cond(Q),
    # predictor outcomes, and the wall time of each phase
    stats: dict = field(default_factory=dict)


def margin(system: PwsSystem, metric: Metric) -> float:
    """Smallest (required bound - worst case) over the certificate conditions,
    against the exact bounds; positive iff the certificate passes with slack.
    Zero-bound conditions (jump terms, the intersection equality) are hard
    gates: within their floating-point allowance they do not cap the margin,
    since no choice of c improves them; violated, they give their margin."""
    if metric.dimension != system.dimension:
        raise CertificateError("metric dimension does not match the system")
    table = condition_table(system)
    return table.margin(table.worsts(metric.measures(table.mats)), metric.c)


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


@dataclass(frozen=True)
class _Setup:
    """The metric-independent part of a search on one system: the admissible
    space P0 + sum_k z_k D[k] and the flow blocks L_j(P) = L0[j] + sum_k z_k LD[j, k],
    L_j(P) = -(P A_j + A_j^T P). Its arrays are read-only."""

    P0: np.ndarray
    D: np.ndarray
    L0: np.ndarray
    LD: np.ndarray


def _setup(table: ConditionTable, n: int):
    """The search's ``_Setup`` of the table, or the reason of ``_admissible``."""
    if isinstance(space := _admissible(table, n), str):
        return space
    P0, D = space
    A = np.concatenate([table.mats[c.rows] for c in table.conditions if c.kind == "flow"])
    PA0, PAD = P0 @ A, D[None] @ A[:, None]
    setup = _Setup(P0, D, -(PA0 + PA0.swapaxes(1, 2)), -(PAD + PAD.swapaxes(2, 3)))
    for arr in vars(setup).values():
        arr.flags.writeable = False
    return setup


def _paths(setup: _Setup, floor: float) -> tuple:
    """The centring paths (A0, B0, AD, BD) of a search, F_j(z, lam) = A0[j] +
    lam B0[j] + sum_k z_k (AD[k, j] + lam BD[k, j]): phase 1's one block P - lam I,
    and phase 2's flow blocks L_j(P) - 2 lam P with the floor block P - floor I."""
    P0, D, L0, LD = setup.P0, setup.D[:, None], setup.L0, setup.LD.swapaxes(0, 1)
    I, zero = np.eye(len(P0)), np.zeros(D.shape)
    return ((P0[None], -I[None], D, zero),
            (np.concatenate([L0, (P0 - floor * I)[None]]),
             np.concatenate([np.broadcast_to(-2.0 * P0, L0.shape), 0.0 * I[None]]),
             np.concatenate([LD, D], axis=1),
             np.concatenate([np.broadcast_to(-2.0 * D, LD.shape), zero], axis=1)))


def _target(path: tuple, lam: float, c: float, z: np.ndarray, tangent, level: int,
            steps: list, predictor: dict) -> tuple:
    """(lam', start, level) of the next centring of path = (A0, B0, AD, BD) after
    its centre z at target lam, of rate c; every F_j(start, lam') = A0[j] +
    lam' B0[j] + sum_k start_k (AD[k, j] + lam' BD[k, j]) is positive definite.
    The long step lam' = lam + _OMEGAS[level] (c - lam), its level raised after a
    centring of at most _EASY Newton steps, starts at the prediction z + (lam' -
    lam_t) dz/dlam of ``tangent`` = (lam_t, dz/dlam), its level lowered while a
    block is not positive definite there (one stacked eigvalsh a try). Without a
    tangent or a free coordinate, or below the lowest level, lam' = _THETA lam +
    (1 - _THETA) c starts at z, where every block is positive definite since
    lam' < c. ``predictor`` counts predictions accepted, cuts of a level and
    fallbacks to z."""
    if tangent is not None and len(z):
        A0, B0, AD, BD = path
        level = min(level + 1, len(_OMEGAS) - 1) if steps[-1] <= _EASY else level
        while level >= 0:
            target = lam + _OMEGAS[level] * (c - lam)
            start = z + (target - tangent[0]) * tangent[1]
            F = (start @ (AD + target * BD).reshape(len(z), A0.size)).reshape(A0.shape)
            if np.linalg.eigvalsh(A0 + target * B0 + F)[:, 0].min() > 0.0:
                predictor["accepted"] += 1
                return target, start, level
            level -= 1
            predictor["cuts"] += 1
        predictor["fallbacks"] += 1
    return _THETA * lam + (1.0 - _THETA) * c, z, 0


def _centre(path: tuple, lam: float, z: np.ndarray, steps: list):
    """Damped Newton steps on -sum_j log det F_j(z), F_j = F0[j] + sum_k z_k D[k, j],
    F0 = A0 + lam B0 and D = AD + lam BD for path = (A0, B0, AD, BD), from a
    strictly feasible z to a squared decrement below _CENTRED. Returns z,
    Z_j = F_j^-1, nu >= sum_j tr(Z_j F_j(z')) for all feasible z' (the block size
    m, + delta (m + 2 sqrt(m) + 1) / (1 - 2 delta) off centre; Nesterov, 4.2), and
    the tangent (lam, dz/dlam) there, H dz/dlam = -d(grad)/dlam.
    Each D[k, j] is symmetric, so with Df, the rows D[k] flattened, F(z) is
    z @ Df, and the gradient -tr(Z_j D_kj), Hessian H_kl = tr(Z_j D_kj Z_j D_lj) and
    d(grad_k)/dlam = tr(Z_j D_kj Z_j dF_j) - tr(Z_j BD_kj), dF = B0 + sum_k z_k BD_k,
    summed over j, are products with Df."""
    A0, B0, AD, BD = path
    F0, D = A0 + lam * B0, AD + lam * BD
    Df, BDf = D.reshape(len(z), F0.size), BD.reshape(len(z), F0.size)
    for k in range(_MAX_STEPS + 1):
        Z = np.linalg.inv(F0 + (z @ Df).reshape(F0.shape))
        grad = -(Df @ Z.reshape(-1))
        ZDZ = (Z @ D @ Z).reshape(Df.shape)
        H = ZDZ @ Df.T
        step = np.linalg.solve(H, -grad)
        dec = float(-grad @ step)  # squared Newton decrement
        if dec < _CENTRED or k == _MAX_STEPS:
            break
        z = z + step / (1.0 + math.sqrt(dec))  # stays strictly feasible
    steps.append(k)
    dgrad = ZDZ @ (B0.reshape(-1) + z @ BDf) - BDf @ Z.reshape(-1)
    m, delta = F0.shape[0] * F0.shape[1], math.sqrt(dec)
    nu = m + delta * (m + 2 * m ** 0.5 + 1) / (1 - 2 * delta) if delta < 0.1 else math.inf
    return z, Z, nu, (lam, -np.linalg.solve(H, dgrad))


def _root(P: np.ndarray) -> tuple:
    """Q = P^(1/2) by eigh, eigenvalues floored to cond(Q) <= _MAX_COND, max
    diagonal 1; with Q^-1 from the same eigh."""
    w, V = np.linalg.eigh(P)
    s = np.sqrt(np.maximum(w, w[-1] / _MAX_COND ** 2))
    Q = (V * s) @ V.T
    Q = Q + Q.T
    d = Q.diagonal().max()
    return Q / d, (V * (0.5 * d / s)) @ V.T


def search_certificate(system: PwsSystem,
                       opts: Optional[SearchOptions] = None) -> SearchResult:
    """The largest centre's rate over P >= I/_MAX_COND^2 of trace 1 meeting the
    jump equalities that the table accepts; else a ``reason``: a jump term or
    constraints no symmetric Q meets (a proof), a table that cannot be built
    (a non-affine system, an undecidable common sector), a bound below the
    clamps, or the measure refusing a centre's table before any centre was
    accepted (a refusal stops the search; after an accepted centre, the best
    of those is returned)."""
    opts, trace, steps, targets, upper = opts or SearchOptions(), [], [], [], math.inf
    predictor = dict.fromkeys(("accepted", "cuts", "fallbacks"), 0)
    phase_ms = dict.fromkeys(("setup", "centring", "checks", "recheck"), 0.0)
    mark = time.perf_counter()

    def lap(name):  # charge the wall time since the last lap to a phase
        nonlocal mark
        now = time.perf_counter()
        phase_ms[name] += 1e3 * (now - mark)
        mark = now

    def done(metric=None, report=None, reason=""):
        return SearchResult(metric is not None, metric, report, trace, reason, dict(
            centres=len(steps), newton_steps=sum(steps), newton_steps_per_centre=steps,
            targets=targets,
            upper_bound=float(upper) if upper < math.inf else None,
            cond_q=metric and metric.cond(), predictor=predictor, phase_ms=phase_ms))

    try:
        table = condition_table(system)
        setup = system._derived(("search",), lambda: _setup(table, system.dimension))
    except (ValueError, CertificateError, TopologyError) as exc:
        setup = str(exc)
    lap("setup")
    if isinstance(setup, str):
        return done(reason=setup)
    P0, D = setup.P0, setup.D
    n, floor, I = system.dimension, 1.0 / _MAX_COND ** 2, np.eye(system.dimension)
    z, P, t, tangent = np.zeros(len(D)), P0, np.linalg.eigvalsh(P0)[0] - 1.0, None
    (path, flow_path), level = _paths(setup, floor), 0
    # phase 1, centres of P - t I: every admissible P' has lambda_min <= t + nu/tr Z
    while (w := np.linalg.eigvalsh(P)[0]) <= floor:
        t, z, level = _target(path, t, w, z, tangent, level, steps, predictor)
        targets.append(float(t))
        z, Z, nu, tangent = _centre(path, t, z, steps)
        P = P0 + np.einsum("k,kab->ab", z, D)
        if t + nu / np.trace(Z[0]) <= floor or len(steps) >= _MAX_CENTRES:
            lap("centring")
            return done(reason="the jump conditions leave no positive definite "
                        f"P = Q^2 with cond(Q) <= {_MAX_COND:g}")
    lap("centring")
    lo, k, best, refused = max(opts.c_lo, opts.c_tol), 1.0 - n * floor, None, ""
    lam, tangent, level = None, None, 0
    for _ in range(_MAX_CENTRES):
        Q, Qi = _root(P)
        try:
            worsts = table.worsts(_measures((Q, Qi), table.mats))
        except ValueError as exc:  # Q A Q^-1 of a table row is not finite
            # no rate to step from: stop, with the target as a lower bound of c(P)
            trace.append((opts.c_lo if lam is None else min(lam, opts.c_hi), -math.inf))
            refused = f"the measure refused the table at point {len(trace)} of the trace: {exc}"
            lap("checks")
            break
        # c(P) = min_j -mu_Q(A_j): mu_Q(A) <= -c is P A + A^T P <= -2cP
        rate = min(-w for cond, w in zip(table.conditions, worsts) if cond.kind == "flow")
        c = min(rate, opts.c_hi)
        trace.append((c, table.margin(worsts, c)))
        if trace[-1][1] >= -PASS_TOL and c > 0.0 and (best is None or c > best[0]):
            best = (c, Q)
        if lam is not None and nu < math.inf:
            # P' of rate c has M_j >= 2 (c - lam) P': X = 2 (c - lam) sum_flows Z_j
            # + Z_f has floor tr X + k lambda_min(X) <= tr(X P') <= nu + floor tr Z_f
            S = 2.0 * Z[:-1].sum(axis=0)
            Ri = np.linalg.inv(np.linalg.cholesky(S + floor * np.trace(S) / k * I))
            upper = min(upper, lam + np.linalg.eigvalsh(Ri @ (nu / k * I - Z[-1]) @ Ri.T)[-1])
        lap("checks")
        if rate >= opts.c_hi or upper < lo or upper - c <= opts.c_tol:
            break
        if lam is None:
            lam = rate - 1.0 - abs(rate)
        else:
            lam, z, level = _target(flow_path, lam, rate, z, tangent, level, steps, predictor)
        targets.append(float(lam))
        z, Z, nu, tangent = _centre(flow_path, lam, z, steps)
        P = P0 + np.einsum("k,kab->ab", z, D)
        lap("centring")
    if best is None or upper < lo:
        c = lo if upper < lo else trace[-1][0]  # a refused centre has upper >= lo
        return done(reason=refused or f"no Q with cond(Q) <= {_MAX_COND:g} certifies c = {c:g}")
    report = table.report(metric := Metric(best[1], best[0]))
    lap("recheck")
    if not report.passed:  # soundness guard: never return a failing metric
        return done(reason="the synthesized metric failed its re-check")
    return done(metric, report)

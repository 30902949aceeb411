"""Contraction certificate checks for a given metric over the system's own
analysis box, ``PwsSystem.box`` (to certify over another box, build the
system with it; see ``PwsSystem``), plus the empirical pairwise decay test.

The limit checkers quantify the flow conditions mu_Q(df_i/dx) <= -c over the
closed mode regions and the manifold (jump) conditions over the switching
manifolds; the regularized checkers quantify the same data over band-inflated
regions. For affine data every quantified matrix is affine in x, so worst
cases are attained at polytope vertices (mu_Q is convex); the vertex strategy
evaluates only there, at the points of ``model.polytope_vertices``. The grid
strategy meshes each domain instead.

One table builder per topology serves both forms: ``_band(man, w)`` gives a
manifold's equality (w = 0) or its closed slab (w = eps). It returns one
entry per condition, in table order, and ``ConditionTable`` is built whole
from them, read-only, with every reduction as a method. Each condition is
built by one batched evaluation over its point set: every mode field on the
stacked points (``Mode.f_many``; handle data is stacked point by point), the
jump rows F g^T in one broadcast, and the arm and box cuts of a mesh as array
masks, with the bits of a point-by-point evaluation. The vertex order is part
of the output, since a report names the first maximum and conditions often
tie at several vertices; see ``polytope_vertices``. A condition without
points is reported as ``"empty"`` (vertex strategy: its domain is empty, so
it holds) or ``"unsampled"`` (grid: the mesh missed it, so it fails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .measure import Metric, _column_norms
from .model import (
    Manifold,
    PwsSystem,
    _chain_bands_disjoint,
    _intersection_check,
    _manifold_grid,
    box_grid,
    polytope_vertices,
)

if TYPE_CHECKING:
    from .filippov import SolverOptions

__all__ = [
    "CertificateError",
    "Condition",
    "ConditionResult",
    "ConditionTable",
    "CertificateReport",
    "PairwiseReport",
    "check_chain_certificate",
    "check_cross_certificate",
    "check_regularized_chain",
    "check_regularized_cross",
    "condition_table",
    "pairwise_contraction_test",
]

TOL_ZERO = 1e-9  # allowance for mu-conditions whose exact bound is 0
TOL_EQ = 1e-9  # allowance for the intersection equality residual
PASS_TOL = 1e-12
GRID_MANIFOLD = 41
GRID_REGION = 21


def _zero_bounds() -> dict:
    """The allowance of each zero-bound condition kind, read at call time, so
    that ``report`` and ``margin`` of ``ConditionTable`` judge them alike."""
    return {"jump": TOL_ZERO, "equality": TOL_EQ}


class CertificateError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConditionResult:
    cond_id: str
    kind: str  # "flow" | "jump" | "equality"
    domain: str
    worst: float
    bound: float
    margin: float
    point: Optional[tuple]
    method: str
    status: str = ""  # "empty" | "unsampled" for a condition without points


@dataclass
class CertificateReport:
    metric: Metric
    conditions: list
    strategy: str
    notes: str = ""

    @property
    def min_margin(self) -> float:
        return min((c.margin for c in self.conditions), default=math.inf)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -PASS_TOL

    @cached_property
    def binding(self) -> Optional[ConditionResult]:
        """The condition with the least margin, the first in table order on a
        tie; None when the report has no condition."""
        return min(self.conditions, key=lambda c: c.margin, default=None)

    def condition(self, cond_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.cond_id == cond_id:
                return c
        raise KeyError(cond_id)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "rate": self.metric.c,
            "strategy": self.strategy,
            "metric": {"Q": self.metric.Q.tolist(), "c": self.metric.c},
            "notes": self.notes,
            "conditions": [
                {
                    "id": c.cond_id,
                    "domain": c.domain,
                    "worst": None if c.status else c.worst,
                    "margin": None if c.status else c.margin,
                    "point": None if c.point is None else list(c.point),
                    "method": c.method,
                    **({"status": c.status} if c.status else {}),
                }
                for c in self.conditions
            ],
        }


# ---------------------------------------------------------------------------
# the condition table


@dataclass(frozen=True)
class Condition:
    """One certificate condition. Its quantified matrices are the rows
    ``rows`` of the table's stack, taken at the matching ``points``: one
    tuple of Python floats per row, or None for the one row of a matrix that
    is constant over the domain. An equality quantifies no matrix: its worst
    case is the metric-independent ``residual``, attained at ``points[0]``."""

    cond_id: str
    kind: str  # "flow" | "jump" | "equality"
    domain: str
    method: str
    rows: slice
    points: tuple
    residual: float = 0.0


class ConditionTable:
    """Every condition of one certificate over the system's box, built once
    per (system, strategy, band width) by ``condition_table``, with all
    quantified matrices stacked as (k, n, n) so that a metric is evaluated on
    the whole table in one batch. ``report``, ``worsts`` and ``margin`` are
    reductions of that evaluation, segmented by the first stack row and the
    row count of each condition that has rows.

    The table is built whole from ``entries``, one (cond_id, kind, domain,
    method, mats, points, residual) per condition in table order, and is
    read-only from then on: the stack ``mats`` cannot be written and
    ``conditions`` is a tuple of frozen ``Condition``s, so that a table can
    be shared by every caller."""

    def __init__(self, dimension: int, strategy: str, entries, notes: str = ""):
        self.dimension = dimension
        self.strategy = strategy
        self.notes = notes
        blocks, conditions = [], []
        for cond_id, kind, domain, method, mats, points, residual in entries:
            start = conditions[-1].rows.stop if conditions else 0
            blocks.append(np.reshape(mats, (-1, dimension, dimension)))
            points = points.tolist() if isinstance(points, np.ndarray) else points
            conditions.append(Condition(
                cond_id, kind, domain, method, slice(start, start + len(blocks[-1])),
                tuple(None if p is None else tuple(map(float, p)) for p in points), residual))
        self.mats = np.concatenate(blocks)
        self.mats.flags.writeable = False
        self.conditions = tuple(conditions)
        # the first stack row and the row count of every condition with rows
        rows = [c.rows for c in conditions if c.rows.stop > c.rows.start]
        self._starts = np.array([r.start for r in rows], dtype=np.intp)
        self._counts = np.array([r.stop - r.start for r in rows], dtype=np.intp)

    def _peaks(self, mu: np.ndarray) -> np.ndarray:
        # the worst measure of every condition that quantifies a matrix
        return np.maximum.reduceat(mu, self._starts) if mu.size else mu

    def worsts(self, mu: np.ndarray) -> list:
        """Worst value of every condition, given the measures ``mu`` of the
        stack; a condition without points gives -inf (never binding)."""
        peaks = iter(self._peaks(mu).tolist())
        out = []
        for cond in self.conditions:
            if cond.kind == "equality":
                out.append(cond.residual)
            else:
                out.append(next(peaks) if cond.rows.stop > cond.rows.start
                           else -math.inf)
        return out

    def margin(self, worsts: list, c: float) -> float:
        """Aggregate margin at rate c from the ``worsts`` of the conditions,
        as ``qsearch.margin`` defines it: the least -c - worst of the flow
        conditions, capped by -worst of every zero-bound condition that
        ``report`` fails (and by no other)."""
        out, bounds = math.inf, _zero_bounds()
        for cond, worst in zip(self.conditions, worsts):
            if cond.kind == "flow":
                out = min(out, -c - worst)
            elif bounds[cond.kind] - worst < -PASS_TOL:
                out = min(out, -worst)
        return out

    def report(self, metric: Metric) -> CertificateReport:
        """Every condition's worst case, margin and binding point under
        ``metric``, from one evaluation of the stack: the worst of a
        condition is its peak measure (as in ``worsts``), and its point is
        the first of its rows that attains that peak, np.argmax's rule, found
        for all conditions at once."""
        mu = metric.measures(self.mats)
        peaks = self._peaks(mu)
        hits = np.flatnonzero(mu == np.repeat(peaks, self._counts))
        firsts = iter((hits[np.searchsorted(hits, self._starts)] - self._starts).tolist())
        peaks = iter(peaks.tolist())
        bounds = {"flow": -metric.c, **_zero_bounds()}
        results = []
        for cond in self.conditions:
            status = ""
            if cond.kind == "equality":
                worst, point = cond.residual, cond.points[0]
            elif cond.rows.stop > cond.rows.start:
                worst, point = next(peaks), cond.points[next(firsts)]
            else:  # a vertex enumeration proves the domain empty; a mesh, nothing
                point, status = None, "empty" if self.strategy == "vertex" else "unsampled"
                worst = -math.inf if status == "empty" else math.inf
            bound = bounds[cond.kind]
            results.append(ConditionResult(
                cond.cond_id, cond.kind, cond.domain, worst, bound, bound - worst,
                point, cond.method, status))
        return CertificateReport(metric, results, self.strategy, notes=self.notes)


def condition_table(system: PwsSystem, strategy: str = "vertex",
                    eps: Optional[float] = None) -> ConditionTable:
    """The conditions of the limit certificate of ``system`` over its box, or
    of its eps-regularized certificate when ``eps`` is given, a finite
    positive band half-width. ``strategy`` is "vertex" or "grid".

    No condition depends on the metric, so each table is built once and kept
    on the system (``PwsSystem._derived``), keyed by the strategy and
    ``float(eps)`` or None. Every later call with an equal key returns that
    same table, read-only (see ``ConditionTable``); this relies on a system
    not being changed after construction. A build that raises is not kept."""
    if strategy not in ("vertex", "grid"):
        raise CertificateError(f"unknown strategy {strategy!r}: use 'vertex' or 'grid'")
    if eps is not None:
        if not 0.0 < eps < math.inf:
            raise CertificateError("eps must be a finite positive number")
        eps = float(eps)
    return system._derived(("table", strategy, eps),
                           lambda: _build_table(system, strategy, eps))


def _build_table(system, strategy, eps):
    build = _chain_table if system.topology == "chain" else _cross_table
    return ConditionTable(system.dimension, strategy, *build(system, strategy, eps))


def _flow(system, strategy, i, domain):
    mode = system.modes[i - 1]
    if mode.is_affine:
        return f"flow[{i}]", "flow", domain, "vertex (constant)", mode.affine.A, [None], 0.0
    if strategy == "vertex":
        raise CertificateError("vertex strategy requires affine data")
    pts = _region_mesh(system, i)
    return (f"flow[{i}]", "flow", domain, f"grid({GRID_REGION})",
            [mode.jac(x) for x in pts], pts, 0.0)


def _region_mesh(system, i):
    """The grid points of mode i's closed region (never in a regularized
    table, whose modes are affine)."""
    pts = box_grid(system.box, GRID_REGION)
    out = np.zeros(len(pts), dtype=bool)
    for j, s in enumerate(system.region_signs(i)):
        out |= s * system.manifolds[j].h_many(pts) < -1e-12
    return pts[~out]


def _jump_points(system, strategy, man, w, arm=None):
    """(method, points) of a jump condition across ``man``, over its closed
    w-band (w = 0: the manifold) cut by an ``arm`` (other, side) to
    side * H_other >= w: the vertices of that polytope (vertex strategy), or
    a mesh of the band's level sets H = -w, 0, +w masked by the arm (grid)."""
    box = system.box
    if strategy == "vertex":
        if not system.is_affine:
            raise CertificateError("vertex strategy requires affine data")
        eqs, ineqs = _band(man, w)
        if arm is not None:
            (oc, od), side = arm[0].affine, arm[1]
            ineqs = ineqs + [((-side) * oc, (-side) * od - w)]
        return "vertex", np.reshape(polytope_vertices(eqs, ineqs, box), (-1, box.dimension))
    levels = [man]
    if w:
        c, d = man.affine
        levels = [Manifold.from_affine(man.label, c, d - w), man,
                  Manifold.from_affine(man.label, c, d + w)]
    pts = np.concatenate([_manifold_grid(box, s, GRID_MANIFOLD) for s in levels])
    if arm is not None:
        pts = pts[arm[1] * arm[0].h_many(pts) >= w - 1e-12]
    return f"grid({GRID_MANIFOLD})", pts


def _jump(cond_id, domain, man, method, pts, jump):
    """The entry of a jump condition whose field jump at the rows of ``pts``
    is the matching row of ``jump``: its matrices jump g^T, in one broadcast."""
    return (cond_id, "jump", domain, method,
            jump[:, :, None] * man.grad_many(pts)[:, None, :], pts, 0.0)


def _require(system: PwsSystem, metric: Metric, topology: str):
    if system.topology != topology:
        raise CertificateError("chain certificate needs a chain system"
                               if topology == "chain" else
                               "cross certificate needs a planar_cross system")
    if metric.dimension != system.dimension:
        raise CertificateError("metric dimension does not match the system")


# ---------------------------------------------------------------------------
# chain conditions


def _chain_table(system, strategy, eps):
    """(entries, notes) of the chain's limit or band-inflated conditions."""
    if eps is None:
        notes, region, band = "", "closure(S_{i}) in box", "{label} in box"
    else:
        if not system.is_affine:
            raise CertificateError("band disjointness check requires affine manifolds")
        if not _chain_bands_disjoint(system, eps):
            raise CertificateError("bands intersect - chain regularization invalid")
        notes = f"band half-width eps={eps}"
        region = f"closure(S_{{i}}) + adjacent {eps}-bands in box"
        band = f"closed {eps}-band of {{label}} in box"
    entries = [_flow(system, strategy, i, region.format(i=i))
               for i in range(1, system.n_modes + 1)]
    for k, man in enumerate(system.manifolds):
        method, pts = _jump_points(system, strategy, man, eps or 0.0)
        entries.append(_jump(
            f"jump[{k + 1}]", band.format(label=man.label), man, method, pts,
            system.modes[k + 1].f_many(pts) - system.modes[k].f_many(pts)))
    return entries, notes


def check_chain_certificate(system: PwsSystem, metric: Metric,
                            strategy: str = "vertex") -> CertificateReport:
    """Limit conditions for a chain: contracting flow in every closed mode
    region and nonpositive measure of the field-jump rank-one matrix on every
    manifold inside the box."""
    _require(system, metric, "chain")
    return condition_table(system, strategy).report(metric)


def check_regularized_chain(system: PwsSystem, metric: Metric, eps: float,
                            strategy: str = "vertex") -> CertificateReport:
    """Band-inflated conditions for the regularized chain: flow conditions
    over each mode region united with the closures of its adjacent bands, and
    jump conditions over the closed bands."""
    _require(system, metric, "chain")
    return condition_table(system, strategy, eps).report(metric)


# ---------------------------------------------------------------------------
# planar cross conditions


_COMBO_FULL_1 = (1, 1, -1, -1)  # f1 + f2 - f3 - f4
_COMBO_FULL_2 = (-1, 1, 1, -1)  # f2 + f3 - f1 - f4
_COMBO_DIAG = (-1, 1, -1, 1)  # f2 + f4 - f1 - f3
_COMBO_NEG_DIAG = (1, -1, 1, -1)


def _combo(system, signs, pts):
    """sum_k signs[k] f_k at the rows of ``pts``, from zero in mode order."""
    out = np.zeros(np.shape(pts))
    for s, mode in zip(signs, system.modes):
        out += s * mode.f_many(pts)
    return out


def _band(man, w):
    """(eqs, ineqs) of ``polytope_vertices`` for an affine manifold: the
    equality H = 0 when w = 0, the closed slab |H| <= w when w > 0."""
    c, d = man.affine
    if w == 0:
        return [(c, d)], []
    return [], [(c, d + w), (-c, -(d - w))]


def _cross_table(system, strategy, eps=None):
    """(entries, notes) of the limit cross conditions (eps None) or the
    band-inflated ones: the manifolds become closed eps-bands, the
    half-manifolds the band arms outside the central square, the
    intersection point that square."""
    lim = eps is None
    if not lim and (strategy != "vertex" or not system.is_affine):
        raise CertificateError(
            "the regularized cross checker evaluates affine data by vertices")
    chk = _intersection_check(system)
    if not chk.ok:
        raise CertificateError(
            f"common-sector assumption fails at the intersection: {chk.detail}")
    m1, m2 = system.manifolds
    w = 0.0 if lim else eps
    notes = f"certified crossing sector S_{chk.sector}" if lim else f"band half-width eps={eps}"
    entries = [_flow(system, strategy, i, f"closure(S_{i}) in box" if lim else
                     f"{eps}-inflated quadrant of S_{i} in box") for i in (1, 2, 3, 4)]
    # (id, domain, manifold, field combination, (other manifold, side) of an arm)
    specs = [(f"manifold[{k}]" if lim else f"band[{k}]",
              f"{man.label} in box" if lim else f"closed {eps}-band of {man.label}",
              man, signs, None)
             for k, man, signs in ((1, m1, _COMBO_FULL_1), (2, m2, _COMBO_FULL_2))]
    for half_id, arm_id, man, other, side, signs in (
            ("half[1,+]", "region[6]", m1, m2, 1, _COMBO_DIAG),
            ("half[1,-]", "region[4]", m1, m2, -1, _COMBO_NEG_DIAG),
            ("half[2,+]", "region[2]", m2, m1, 1, _COMBO_DIAG),
            ("half[2,-]", "region[8]", m2, m1, -1, _COMBO_NEG_DIAG)):
        rel = ">" if side > 0 else "<"
        cond_id, domain = (
            (half_id, f"{man.label} with {other.label}{rel}0") if lim else
            (arm_id, f"{man.label}-band arm with {other.label}{rel}= {side * eps}"))
        specs.append((cond_id, domain, man, signs, (other, side)))
    for cond_id, domain, man, signs, arm in specs:
        method, pts = _jump_points(system, strategy, man, w, arm)
        entries.append(_jump(cond_id, domain, man, method, pts, _combo(system, signs, pts)))
    if lim:
        x_tilde = chk.x_tilde
        entries.append(("intersection-eq", "equality", f"x_tilde={tuple(x_tilde.tolist())}",
                        "point", [], [x_tilde], float(np.linalg.norm(
                            _combo(system, _COMBO_DIAG, x_tilde[None])[0]))))
        return entries, notes
    square = np.array(polytope_vertices([], _band(m1, w)[1] + _band(m2, w)[1], system.box))
    diag = _combo(system, _COMBO_DIAG, square)
    # the stacked dot products give the bits of np.linalg.norm row by row
    norms = np.sqrt((diag[:, None] @ diag[..., None])[:, 0, 0])
    k = int(np.argmax(norms))
    entries.append(("square-eq", "equality", f"closed central square, half-width {eps}",
                    "vertex", [], [square[k]], float(norms[k])))
    return entries, notes


def check_cross_certificate(system: PwsSystem, metric: Metric,
                            strategy: str = "vertex") -> CertificateReport:
    """Limit conditions for a planar cross: contracting flow in the four
    closed quadrant regions, jump conditions on each full manifold, the four
    half-manifold diagonal conditions, and the field-sum equality at the
    intersection point."""
    _require(system, metric, "planar_cross")
    return condition_table(system, strategy).report(metric)


def check_regularized_cross(system: PwsSystem, metric: Metric, eps: float,
                            strategy: str = "vertex") -> CertificateReport:
    """Band-inflated conditions for the regularized cross: flow conditions on
    the four inflated quadrants, jump conditions on the two closed bands, the
    diagonal conditions on the four band arms outside the central square, and
    the field-sum equality over the whole closed central square."""
    _require(system, metric, "planar_cross")
    return condition_table(system, strategy, eps).report(metric)


# ---------------------------------------------------------------------------
# empirical pairwise decay test

# a pair's decay test ends where its separation is at most this many ulps of
# its larger state norm |Q x|; the smallest separation that the shipped
# examples' pairs reach is about 4e-8, some 1e5 times above it
RESOLUTION_ULPS = 256


@dataclass
class PairwiseReport:
    entries: list  # dicts per pair
    tol_decay: float
    metric: Metric

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def to_dict(self) -> dict:
        """As JSON data: a non-finite ratio (-inf for a pair that starts at
        the resolution) becomes null, as in the certificate report."""
        return {
            "verdict": "pass" if self.passed else "fail",
            "tol_decay": self.tol_decay,
            "metric": {"Q": self.metric.Q.tolist(), "c": self.metric.c},
            "pairs": [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in e.items()} for e in self.entries],
        }


def pairwise_contraction_test(system: PwsSystem, metric: Metric, pairs,
                              t_f: float, opts: Optional[SolverOptions] = None,
                              tol_decay: float = 1e-2) -> PairwiseReport:
    """Integrate trajectory pairs and verify that the Q-weighted separation
    decays at the certified rate between every ordered grid time pair:
    d(t) <= exp(-c (t - s)) d(s) (1 + tol_decay) for all s < t.

    A pair's test ends at the first grid time where d is at most
    ``RESOLUTION_ULPS`` ulps of the larger of |Q x_a| and |Q x_b|: from there
    on d is rounding noise, which rises as often as it falls. That time is
    the entry's ``resolved_from`` (None when d stays above it). A pair that
    starts at the resolution passes when it stays there.

    The reported ``alpha`` is cond(Q) * max_t d(t) e^{c t} / d(0), an
    admissible constant for the plain Euclidean decay bound.
    """
    from .filippov import SolverOptions, integrate

    if not 0.0 <= tol_decay < math.inf:
        raise ValueError("tol_decay must be a finite number >= 0")
    opts = opts or SolverOptions()
    c = metric.c
    entries = []
    cond_q = metric.cond()
    log_allow = math.log1p(tol_decay)
    ulps = RESOLUTION_ULPS * np.finfo(float).eps
    # no floor exceeds ulps |Q| R while both runs stay in the box, R the
    # largest norm there: a pair whose d stays above it needs no floor
    box = system.box
    screen = ulps * np.linalg.norm(metric.Q, 2) * float(
        np.linalg.norm(np.maximum(-box.lower, box.upper) + 1e-9))
    for xa0, xb0 in pairs:
        ta = integrate(system, xa0, t_f, opts)
        tb = integrate(system, xb0, t_f, opts)
        tg_a, xs_a = ta.grid_samples(opts.step)
        tg_b, xs_b = tb.grid_samples(opts.step)
        m = min(len(tg_a), len(tg_b))
        d = _column_norms(metric.Q @ (xs_a[:m] - xs_b[:m]).T)
        resolved = np.zeros(m, dtype=bool)
        if ta.box_exit is not None or tb.box_exit is not None or d.min() <= screen:
            resolved = d <= ulps * np.maximum(_column_norms(metric.Q @ xs_a[:m].T),
                                              _column_norms(metric.Q @ xs_b[:m].T))
        k = int(np.argmax(resolved)) if resolved.any() else m
        entry = {"xa0": list(np.asarray(xa0, dtype=float)),
                 "xb0": list(np.asarray(xb0, dtype=float)),
                 "resolved_from": float(tg_a[k]) if k < m else None}
        if k == 0:
            entry.update(passed=bool(np.all(resolved)), alpha=1.0,
                         max_log_ratio=-math.inf, worst_violation=0.0)
            entries.append(entry)
            continue
        g = np.log(d[:k]) + c * tg_a[:k]
        run_min = np.minimum.accumulate(g)
        worst = float(np.max(g - run_min))
        entry.update(
            passed=bool(worst <= log_allow),
            worst_violation=worst,
            max_log_ratio=float(np.max(g) - g[0]),
            alpha=float(cond_q * np.max(d[:k] * np.exp(c * tg_a[:k])) / d[0]),
        )
        entries.append(entry)
    return PairwiseReport(entries, tol_decay, metric)

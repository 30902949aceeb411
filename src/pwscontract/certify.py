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
manifold's equality (w = 0) or its closed slab (w = eps). Each condition is
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
    rate: float
    notes: str = ""

    @property
    def min_margin(self) -> float:
        return min((c.margin for c in self.conditions), default=math.inf)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -PASS_TOL

    def condition(self, cond_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.cond_id == cond_id:
                return c
        raise KeyError(cond_id)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "rate": self.rate,
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
    ``rows`` of the table's stack, taken at the rows of the array ``points``
    ([None] where the matrix is constant over the domain). An equality
    quantifies no matrix: its worst case is the metric-independent
    ``residual``, attained at ``points[0]``."""

    cond_id: str
    kind: str  # "flow" | "jump" | "equality"
    domain: str
    method: str
    rows: slice
    points: object
    residual: float = 0.0


class ConditionTable:
    """Every condition of one certificate over the system's box, built once
    per (system, strategy, band width) by ``condition_table``, with all quantified
    matrices stacked as (k, n, n) so that a metric is evaluated on the whole
    table in one batch. ``report`` and the search margin of ``qsearch`` are
    reductions of that evaluation.

    Forming the stack ``mats`` builds the table: from then on the stack and
    the point arrays are read-only, ``conditions`` is a tuple, and ``add``
    refuses, so that a table can be shared by every caller."""

    def __init__(self, dimension: int, strategy: str, notes: str = ""):
        self.dimension = dimension
        self.strategy = strategy
        self.notes = notes
        self.conditions: list = []
        self._blocks: list = []  # the (k, n, n) matrices of each condition

    def add(self, cond_id, kind, domain, method, mats, points, residual=0.0):
        if "mats" in self.__dict__:
            raise CertificateError("the table is built: it takes no more conditions")
        start = self.conditions[-1].rows.stop if self.conditions else 0
        self._blocks.append(np.reshape(mats, (-1, self.dimension, self.dimension)))
        self.conditions.append(Condition(cond_id, kind, domain, method,
                                         slice(start, start + len(self._blocks[-1])),
                                         points, residual))

    @cached_property
    def mats(self) -> np.ndarray:
        mats = np.concatenate(self._blocks)
        self._blocks = None
        self.conditions = tuple(self.conditions)
        for arr in [mats] + [c.points for c in self.conditions]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return mats

    @cached_property
    def _starts(self) -> np.ndarray:
        # first stack row of every condition that quantifies a matrix
        return np.array([c.rows.start for c in self.conditions
                         if c.rows.stop > c.rows.start], dtype=np.intp)

    def worsts(self, mu: np.ndarray) -> list:
        """Worst value of every condition, given the measures ``mu`` of the
        stack; a condition without points gives -inf (never binding)."""
        peaks = iter(np.maximum.reduceat(mu, self._starts).tolist()
                     if mu.size else ())
        out = []
        for cond in self.conditions:
            if cond.kind == "equality":
                out.append(cond.residual)
            else:
                out.append(next(peaks) if cond.rows.stop > cond.rows.start
                           else -math.inf)
        return out

    def report(self, metric: Metric) -> CertificateReport:
        mu = metric.measures(self.mats)
        bounds = {"flow": -metric.c, "jump": TOL_ZERO, "equality": TOL_EQ}
        results = []
        for cond, worst in zip(self.conditions, self.worsts(mu)):
            status = ""
            if cond.kind == "equality":
                point = cond.points[0]
            elif cond.rows.stop > cond.rows.start:
                point = cond.points[int(np.argmax(mu[cond.rows]))]
            else:  # a vertex enumeration proves the domain empty; a mesh, nothing
                point, status = None, "empty" if self.strategy == "vertex" else "unsampled"
                worst = -math.inf if status == "empty" else math.inf
            bound = bounds[cond.kind]
            results.append(ConditionResult(
                cond.cond_id, cond.kind, cond.domain, worst, bound, bound - worst,
                None if point is None else tuple(np.asarray(point, dtype=float)),
                cond.method, status))
        return CertificateReport(metric, results, self.strategy, metric.c,
                                 notes=self.notes)


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
    table = (_chain_table if system.topology == "chain" else _cross_table)(
        system, strategy, eps)
    table.mats  # builds the table: read-only from here on
    return table


def _add_flow(table, system, i, domain):
    mode = system.modes[i - 1]
    if mode.is_affine:
        table.add(f"flow[{i}]", "flow", domain, "vertex (constant)",
                  mode.affine.A, [None])
        return
    if table.strategy == "vertex":
        raise CertificateError("vertex strategy requires affine data")
    pts = _region_mesh(system, i)
    table.add(f"flow[{i}]", "flow", domain, f"grid({GRID_REGION})",
              [mode.jac(x) for x in pts], pts)


def _region_mesh(system, i):
    """The grid points of mode i's closed region (never in a regularized
    table, whose modes are affine)."""
    pts = box_grid(system.box, GRID_REGION)
    out = np.zeros(len(pts), dtype=bool)
    for j, s in enumerate(system.region_signs(i)):
        out |= s * system.manifolds[j].h_many(pts) < -1e-12
    return pts[~out]


def _jump_points(table, system, man, w, arm=None):
    """(method, points) of a jump condition across ``man``, over its closed
    w-band (w = 0: the manifold) cut by an ``arm`` (other, side) to
    side * H_other >= w: the vertices of that polytope (vertex strategy), or
    a mesh of the band's level sets H = -w, 0, +w masked by the arm (grid)."""
    box = system.box
    if table.strategy == "vertex":
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


def _add_jump(table, cond_id, domain, man, method, pts, jump):
    """Add a jump condition whose field jump at the rows of ``pts`` is the
    matching row of ``jump``: its matrices jump g^T, in one broadcast."""
    table.add(cond_id, "jump", domain, method,
              jump[:, :, None] * man.grad_many(pts)[:, None, :], pts)


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
    if eps is None:
        table = ConditionTable(system.dimension, strategy)
        region = "closure(S_{i}) in box"
        band = "{label} in box"
    else:
        if not system.is_affine:
            raise CertificateError("band disjointness check requires affine manifolds")
        if not _chain_bands_disjoint(system, eps):
            raise CertificateError("bands intersect - chain regularization invalid")
        table = ConditionTable(system.dimension, strategy,
                               notes=f"band half-width eps={eps}")
        region = f"closure(S_{{i}}) + adjacent {eps}-bands in box"
        band = f"closed {eps}-band of {{label}} in box"
    for i in range(1, system.n_modes + 1):
        _add_flow(table, system, i, region.format(i=i))
    for k, man in enumerate(system.manifolds):
        method, pts = _jump_points(table, system, man, eps or 0.0)
        _add_jump(table, f"jump[{k + 1}]", band.format(label=man.label), man,
                  method, pts,
                  system.modes[k + 1].f_many(pts) - system.modes[k].f_many(pts))
    return table


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
    """The limit cross conditions (eps None), or the band-inflated ones: the
    manifolds become closed eps-bands, the half-manifolds the band arms
    outside the central square, and the intersection point that square."""
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
    table = ConditionTable(2, strategy, notes=f"certified crossing sector S_{chk.sector}"
                           if lim else f"band half-width eps={eps}")
    for i in (1, 2, 3, 4):
        _add_flow(table, system, i, f"closure(S_{i}) in box" if lim else
                  f"{eps}-inflated quadrant of S_{i} in box")
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
        method, pts = _jump_points(table, system, man, w, arm)
        _add_jump(table, cond_id, domain, man, method, pts, _combo(system, signs, pts))
    if lim:
        x_tilde = chk.x_tilde
        table.add("intersection-eq", "equality", f"x_tilde={tuple(x_tilde.tolist())}",
                  "point", [], [x_tilde], residual=float(np.linalg.norm(
                      _combo(system, _COMBO_DIAG, x_tilde[None])[0])))
        return table
    square = np.array(polytope_vertices([], _band(m1, w)[1] + _band(m2, w)[1], system.box))
    diag = _combo(system, _COMBO_DIAG, square)
    # the stacked dot products give the bits of np.linalg.norm row by row
    norms = np.sqrt((diag[:, None] @ diag[..., None])[:, 0, 0])
    k = int(np.argmax(norms))
    table.add("square-eq", "equality",
              f"closed central square, half-width {eps}", "vertex", [],
              [square[k]], residual=float(norms[k]))
    return table


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

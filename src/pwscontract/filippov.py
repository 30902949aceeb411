"""Event-driven integration of Filippov solutions: smooth flow with boundary
event localization, crossing, and sliding motion on switching manifolds.

Flow segments use classical RK4 with a fixed base step; boundary hits are
localized by bisection on the sign change of each manifold function. Sliding
segments integrate the convex-combination sliding field along the manifold
with post-step projection back onto it, and exit when the combination weight
reaches 0 or 1. One flow entry point, ``_run_flow``, serves this solver and
the regularized one: it watches the event surfaces it is handed and, for
affine systems, advances the smooth flow in vectorized blocks through the
exact single-step RK4 transition map; each mode's block maps are built once
per (step, block) on its ``AffineField`` and shared by every integration of
the system. An event-free stretch advances as a chain of up to ``MAX_CHAIN``
such blocks, each started from the last row of the one before, with one
event scan and one append for the whole chain; the chain doubles from one
block while no event is flagged, and a chained run has the bits of one
block at a time. ``_EventSurfaces`` is the one evaluator of a set of
surfaces: the flow, the slide (for the other manifolds) and the regularized
blend read their H values from it. The slide engine evaluates an affine mode
through its ``AffineField`` and an affine manifold through its constant
normal, the same arithmetic as ``Mode.f`` and ``Manifold.grad``.

When two affine modes i | j on an affine manifold c.x = d have a jump that
is rank-one in the normal, A_j - A_i = u c^T (equal matrices included), the
field jump is a constant w on the manifold, so the weight lambda is affine
and so is the sliding field Pi (A_i x + b_i), Pi = I - w c^T / c.w. That
field is built once per (manifold, pair), cached on the system, and its
slides advance in the same exact RK4 blocks as a flow, each row projected
onto the manifold; the step at which lambda leaves its bounds or another
surface is flagged is taken by the stepwise slide, with its exit bisection
and persistence probe. Every other pair (a handle mode or manifold, a jump
that is not rank-one in the normal, c.w = 0) keeps the stepwise slide.

Two numerical refusals guard the output: a step at which RK4 grows a
decaying direction of a mode or of a sliding field raises ``StiffStepError``
(for an affine field when its block maps are built, for a mode of any other
system at its Jacobian at the start of each flow segment, for a stepwise
slide at the central-difference Jacobian of its sliding field at each slide
entry), and a trajectory with a NaN or infinite state raises
``NonFiniteStateError`` instead of being returned. A start outside the box,
or a final time that is negative or not finite, raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    TOL_LIE,
    AffineField,
    PwsSystem,
    Manifold,
    StiffStepError,
    TopologyError,
    _check_rk4_step,
    _fd_jacobian,
    check_intersection_assumption,
    locate,
)

__all__ = [
    "SolverOptions",
    "BoundaryClass",
    "Segment",
    "Trajectory",
    "EscapingRegionError",
    "IntersectionAssumptionError",
    "StepUnderflowError",
    "NonFiniteStateError",
    "StiffStepError",
    "lie_derivative",
    "classify_boundary",
    "sliding_coefficient",
    "sliding_field",
    "integrate",
    "write_trajectory_csv",
]

CROSSING = "crossing"
SLIDING = "sliding"
ESCAPING = "escaping"
TANGENTIAL = "tangential"

TOL_EVENT = 1e-10  # |H| at which a bisected boundary hit is accepted
MAX_BISECT = 80
TOL_LAMBDA = 1e-10  # a slide exits once its weight leaves [TOL_LAMBDA, 1 - TOL_LAMBDA]
BLOCK = 256  # exact RK4 steps per affine block
MAX_CHAIN = 64  # most affine blocks a flow advances between two event scans
TOL_RANK_ONE = 1e-12  # relative residual of a mode jump from u c^T for an affine slide
MAX_TRANSITIONS = 200_000


class EscapingRegionError(RuntimeError):
    """Trajectory reached an escaping region where the solution is not unique."""

    def __init__(self, t, x, manifold, sigma_i, sigma_j):
        super().__init__(
            f"escaping region on {manifold} at t={t:.6g}, x={np.asarray(x)}: "
            f"sigma_i={sigma_i:.6g} < 0 < sigma_j={sigma_j:.6g}; "
            "the Filippov solution is not unique here")
        self.t = t
        self.x = np.asarray(x, dtype=float)
        self.manifold = manifold
        self.sigma_i = sigma_i
        self.sigma_j = sigma_j


class IntersectionAssumptionError(RuntimeError):
    """Trajectory reached the manifold intersection but the common-sector
    assumption does not hold."""


class StepUnderflowError(RuntimeError):
    pass


class NonFiniteStateError(RuntimeError):
    """An integration produced a NaN or infinite state."""


@dataclass(frozen=True)
class SolverOptions:
    """The fixed RK4 base step; the default reproduces all shipped results."""

    step: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be a finite positive number")


@dataclass(frozen=True)
class BoundaryClass:
    """Classification of a boundary point by the two adjacent Lie derivatives."""

    kind: str
    sigma_i: float
    sigma_j: float
    pair: tuple


@dataclass
class Segment:
    kind: str  # "flow" | "slide" | "cross"
    t_start: float
    t_end: float
    mode: Optional[int] = None
    manifold: Optional[str] = None
    pair: Optional[tuple] = None  # slide: (i, j); cross: (mode_from, mode_to)


@dataclass
class Trajectory:
    """Timestamped states with per-sample segment annotation.

    ``lambdas[k]`` holds the sliding weight at sample k and is NaN outside
    slide segments. ``seg_index[k]`` points into ``segments``.
    """

    times: np.ndarray
    states: np.ndarray
    lambdas: np.ndarray
    seg_index: np.ndarray
    segments: list

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def grid_samples(self, h: float):
        """Samples lying on the aligned time grid k*h (plus the final time)."""
        k = np.round(self.times / h)
        on_grid = np.abs(self.times - k * h) <= 1e-9 * max(h, 1.0)
        on_grid[-1] = True
        idx = np.flatnonzero(on_grid)
        # keep the first sample at each distinct time
        keep = np.concatenate(([True], np.diff(self.times[idx]) > 1e-12))
        idx = idx[keep]
        return self.times[idx], self.states[idx]

    def has_sliding(self) -> bool:
        return any(s.kind == "slide" for s in self.segments)


def lie_derivative(manifold: Manifold, field_value, x) -> float:
    """Directional derivative of H along a field value: grad H(x) . f."""
    return float(np.dot(manifold.grad(x), np.asarray(field_value, dtype=float)))


def classify_boundary(system: PwsSystem, manifold_idx: int, x,
                      resolve_tangential: bool = True) -> BoundaryClass:
    """Classify a point on a single manifold as crossing, sliding, or escaping.

    Tangential points (one Lie derivative within ``TOL_LIE`` of zero) resolve to
    sliding unless ``resolve_tangential`` is False. The point must not lie on
    any other manifold.
    """
    x = np.asarray(x, dtype=float)
    i, j = system.adjacent_modes(manifold_idx, x)
    man = system.manifolds[manifold_idx]
    g = man.grad(x)
    si = float(np.dot(g, system.f(i, x)))
    sj = float(np.dot(g, system.f(j, x)))
    zi, zj = abs(si) <= TOL_LIE, abs(sj) <= TOL_LIE
    if zi and zj:
        raise TopologyError(
            f"both Lie derivatives vanish on {man.label} at x={x}; "
            "transversality (Assumption on switching data) is violated")
    if zi or zj:
        kind = SLIDING if resolve_tangential else TANGENTIAL
    elif si * sj > 0:
        kind = CROSSING
    elif si > 0:
        kind = SLIDING
    else:
        kind = ESCAPING
    return BoundaryClass(kind, si, sj, (i, j))


def sliding_coefficient(sigma_i: float, sigma_j: float) -> float:
    """Filippov combination weight lambda = sigma_i / (sigma_i - sigma_j).

    Requires the strict sliding configuration sigma_i > 0 > sigma_j, which
    makes (1 - lambda) sigma_i + lambda sigma_j = 0 with lambda in (0, 1).
    """
    if not (sigma_i > 0.0 and sigma_j < 0.0):
        raise ValueError(
            f"not a sliding configuration: sigma_i={sigma_i:.6g}, "
            f"sigma_j={sigma_j:.6g} (need sigma_i > 0 > sigma_j)")
    return sigma_i / (sigma_i - sigma_j)


def _lambda_raw(si: float, sj: float) -> float:
    den = si - sj
    if den == 0.0:
        return 0.5
    return si / den


def sliding_field(system: PwsSystem, i: int, j: int, x) -> np.ndarray:
    """Sliding vector (1-lambda) f_i + lambda f_j, tangent to the manifold.

    ``i`` must be the mode on the negative side of the separating manifold and
    ``j`` the mode on the positive side. Tangential configurations (one Lie
    derivative zero) are accepted and give lambda 0 or 1.
    """
    x = np.asarray(x, dtype=float)
    man_idx = system.manifold_between(i, j)
    man = system.manifolds[man_idx]
    neg, pos = system.adjacent_modes(man_idx, x)
    if (i, j) != (neg, pos):
        raise ValueError(
            f"mode order ({i}, {j}) does not match the (negative, positive) "
            f"sides ({neg}, {pos}) of {man.label}")
    fi = system.f(i, x)
    fj = system.f(j, x)
    g = man.grad(x)
    si = float(np.dot(g, fi))
    sj = float(np.dot(g, fj))
    if si < 0.0 and sj > 0.0:
        raise ValueError("escaping configuration has no sliding vector")
    lam = _lambda_raw(si, sj)
    if not -1e-9 <= lam <= 1.0 + 1e-9:
        raise ValueError(
            f"point is not in the sliding region (lambda={lam:.6g})")
    return fi + lam * (fj - fi)


# ---------------------------------------------------------------------------
# stepping primitives


def _rk4(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _EventSurfaces:
    """The one evaluator of a set of surfaces H_k(x) = 0 of ``system``. For
    an affine system H_k(x) = C[k].x - d[k], with the normals and offsets
    stacked once; otherwise the values are those of the surfaces' handles,
    and C and d are None."""

    def __init__(self, system: PwsSystem, surfaces: list):
        self.surfaces = surfaces
        self.C = self.d = None
        if system.is_affine:
            self.C = np.array([s.affine[0] for s in surfaces]).reshape(
                -1, system.dimension)
            self.d = np.array([s.affine[1] for s in surfaces])

    def values(self, x) -> np.ndarray:
        """H_k(x) of every surface."""
        if self.C is None:
            return np.array([s.h(x) for s in self.surfaces])
        return self.C @ x - self.d

    def scan_block(self, x, X):
        """(Hs, ev) over a block of an affine system from x through the rows
        of X: Hs[0] holds the values at x and Hs[k + 1] those at X[k]; ev[k]
        flags each surface over step k."""
        Hs = np.empty((len(X) + 1, len(self.surfaces)))
        Hs[0] = self.C @ x - self.d
        Hs[1:] = X @ self.C.T - self.d
        return Hs, _event_flags(Hs[:-1], Hs[1:], TOL_EVENT)


def _event_flags(h0, h1, tol):
    """Detect a root of each H over one step, elementwise over arrays of H
    values at the step's start and end: strict sign change, or landing on the
    surface from a point clearly off it. Starting on the surface (|H| within
    tol) never triggers, which lets trajectories leave a boundary cleanly.
    From |h0| > tol both cases read h1 * sign(h0) <= tol."""
    return (np.abs(h0) > tol) & (np.copysign(1.0, h0) * h1 <= tol)


def _bisect_manifold(step_fn, man: Manifold, x0, delta, h0):
    """Locate a root of H along the step map, returning (theta, state); H
    changes sign over the step, or lands on the surface from |h0| > TOL_EVENT
    (``_event_flags``)."""
    pos0 = h0 > 0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        xm = step_fn(x0, mid * delta)
        hm = man.h(xm)
        if abs(hm) <= TOL_EVENT:
            return mid, xm
        if (hm > 0) == pos0:
            lo = mid
        else:
            hi = mid
    return hi, step_fn(x0, hi * delta)


def _first_hit(step_fn, surfaces, flagged, x0, delta, h0):
    """Bisect every surface flagged by ``_event_flags`` along the step from x0
    and keep the earliest root (the lowest index on ties): (theta, k,
    unprojected state), or None when nothing is flagged. ``h0`` holds the H
    values at x0 of all ``surfaces``."""
    best = None
    for k in np.flatnonzero(flagged):
        theta, xe = _bisect_manifold(step_fn, surfaces[k], x0, delta, float(h0[k]))
        if best is None or theta < best[0]:
            best = (theta, int(k), xe)
    return best


def _next_grid(t: float, h: float, t_stop: float) -> float:
    k = math.floor(t / h + 1e-9) + 1
    tn = k * h
    if tn >= t_stop - 1e-12 * max(h, 1.0):
        return t_stop
    return tn


class _Builder:
    """Accumulates samples and segments while the state machine runs."""

    def __init__(self, n: int):
        self.n = n
        self._t = []
        self._x = []
        self._lam = []
        self._seg = []
        self._points = []  # single samples not yet stacked into the arrays
        self.segments: list = []

    def open_segment(self, kind, t, mode=None, manifold=None, pair=None) -> int:
        self.segments.append(Segment(kind, t, t, mode=mode, manifold=manifold, pair=pair))
        return len(self.segments) - 1

    def close_segment(self, seg_id: int, t_end: float):
        self.segments[seg_id].t_end = t_end

    def add_point(self, t, x, seg_id, lam=math.nan):
        self._points.append((t, x, lam, seg_id))

    def _stack_points(self):
        if self._points:
            ts, xs, lams, segs = zip(*self._points)
            self._points = []
            self._t.append(np.array(ts, dtype=float))
            self._x.append(np.array(xs, dtype=float).reshape(len(ts), self.n))
            self._lam.append(np.array(lams, dtype=float))
            self._seg.append(np.array(segs, dtype=int))

    def add_block(self, ts, X, seg_id, lams=None):
        k = len(ts)
        if k == 0:
            return
        self._stack_points()
        self._t.append(np.asarray(ts, dtype=float))
        self._x.append(np.asarray(X, dtype=float))
        self._lam.append(np.full(k, math.nan) if lams is None
                         else np.asarray(lams, dtype=float))
        self._seg.append(np.full(k, seg_id, dtype=int))

    def finish(self) -> Trajectory:
        """The trajectory; raises NonFiniteStateError if any sample is not
        finite, so no engine hands out a state that blew up."""
        self._stack_points()
        times = np.concatenate(self._t)
        states = np.vstack(self._x)
        lams = np.concatenate(self._lam)
        segs = np.concatenate(self._seg).astype(int)
        bad = ~np.isfinite(states).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise NonFiniteStateError(
                f"the state is not finite from t={times[k]:.6g} on: the step is "
                "too large for the dynamics, or a field returned a non-finite "
                "value; use a smaller --step")
        return Trajectory(times, states, lams, segs, self.segments)


# ---------------------------------------------------------------------------
# flow engine


def _advance_blocks(field, what, x, t, h, t_stop, count):
    """Up to ``count`` chained blocks of exact RK4 steps of an affine field
    from (t, x) on the time grid k*h: (ts, X) with X[k] the state at ts[k].
    Each block starts from the last row of the one before, and its grid
    index and step count come from the same scalar arithmetic as a lone
    block's, so a chain has the bits of its blocks advanced one at a time;
    every block but the last holds BLOCK rows. None when t is off the grid
    or no full step fits before t_stop; the caller then takes one step. A
    StiffStepError from building the block maps names ``what``."""
    k0 = math.floor(t / h + 1e-9)
    X, row = None, 0
    while row < count * BLOCK and t < t_stop - 1e-14:
        k = math.floor(t / h + 1e-9)
        m = min(BLOCK, int(math.floor((t_stop - t) / h + 1e-12)))
        if k != k0 + row or abs(t - k * h) > 1e-12 * max(h, 1.0) or m == 0:
            break
        if X is None:
            try:
                Rs, rs = field.stacks(h, BLOCK)
            except StiffStepError as exc:
                raise StiffStepError(f"{what}: {exc}") from None
            n = x.shape[0]
            R2 = Rs.reshape(-1, n)
            X = np.empty((count * BLOCK, n))
        # one 2-D product: a batched (m, n, n) @ (n,) matmul is several times slower
        np.add((R2[:m * n] @ x).reshape(m, n), rs[:m], out=X[row:row + m])
        row += m
        if m < BLOCK:
            break
        t, x = (k + m) * h, X[row - 1]
    if X is None:
        return None
    return (k0 + 1 + np.arange(row)) * h, X[:row]


def _run_flow(events, mode, x, t, t_stop, opts, builder, seg_id):
    """Flow one mode from (t, x) until t_stop or a hit of one of the event
    surfaces; returns ("t_stop", None, t, x) or ("hit", surface_idx, t_e, x_e)
    with x_e projected onto that surface.

    A mode of an affine system advances its aligned stretches in blocks of
    exact RK4 steps and takes every other step through its exact step map.
    The blocks come in chains (``_advance_blocks``) scanned for events as
    one array: the first chain of a call is one block, and each chain with
    no event flagged doubles the next, up to ``MAX_CHAIN`` blocks. A hit's
    time is the start of the block holding it plus its steps into that
    block, as when the blocks are advanced one at a time.
    The modes of any other system (one with a handle mode or surface) take
    one RK4 step of their field up to each grid time, and raise
    StiffStepError when the step grows a decaying direction of the mode's
    Jacobian at the segment's start.
    """
    h = opts.step
    field = None if events.C is None else mode.affine
    what = f"mode {mode.index}"
    if field is None:
        try:
            _check_rk4_step(np.linalg.eigvals(mode.jac(x)), h)
        except StiffStepError as exc:
            raise StiffStepError(f"{what}: {exc}") from None
        f = mode.f

        def step_fn(x0, dt):
            return _rk4(f, x0, dt)
    else:
        def step_fn(x0, dt):
            R, r = field.step_map(dt)
            return R @ x0 + r

    def hit(x0, t0, delta, h0, flags):
        theta, k, xe = _first_hit(step_fn, events.surfaces, flags, x0, delta, h0)
        return "hit", k, t0 + theta * delta, events.surfaces[k].project(xe)

    h0 = None  # the event values at x, carried from step to step
    chain = 1  # blocks in the next chain: doubles while no event is flagged
    while t < t_stop - 1e-14:
        block = None if field is None else _advance_blocks(
            field, what, x, t, h, t_stop, chain)
        if block is None:
            tn = _next_grid(t, h, t_stop)
            x1 = step_fn(x, tn - t)
            if h0 is None:
                h0 = events.values(x)
            h1 = events.values(x1)
            flags = _event_flags(h0, h1, TOL_EVENT)
            if flags.any():
                return hit(x, t, tn - t, h0, flags)
            t, x, h0 = tn, x1, h1
            builder.add_point(t, x, seg_id)
            continue
        ts, X = block
        Hs, ev = events.scan_block(x, X)
        rows = np.flatnonzero(ev.any(axis=1))
        if rows.size:
            idx = int(rows[0])
            builder.add_block(ts[:idx], X[:idx], seg_id)
            # the hit's time counts from the start of its own block, as a
            # lone block would
            row = idx - idx % BLOCK
            t0 = t if row == 0 else ts[row - 1]
            return hit(x if idx == 0 else X[idx - 1], t0 + (idx - row) * h, h,
                       Hs[idx], ev[idx])
        builder.add_block(ts, X, seg_id)
        x, t, h0 = X[-1], ts[-1], None
        chain = min(2 * chain, MAX_CHAIN)
    return "t_stop", None, t, x


# ---------------------------------------------------------------------------
# sliding engine


class _AffineSlide(NamedTuple):
    """An affine sliding field f_s(x) = field(x) with weight
    lambda(x) = lam_x . x + lam_0."""

    field: AffineField
    lam_x: np.ndarray
    lam_0: float


def _slide_field(system: PwsSystem, man_idx: int, i: int, j: int):
    """The ``_AffineSlide`` of the pair (i, j) on manifold ``man_idx``, built
    once and cached on the system, or None when the slide is not affine.

    For affine modes on an affine manifold c.x = d whose jump is rank-one in
    the normal, A_j - A_i = u c^T, the jump f_j - f_i = u d + b_j - b_i = w
    is constant on the manifold. Then lambda = -c.(A_i x + b_i) / c.w and the
    sliding field is Pi (A_i x + b_i) with Pi = I - w c^T / c.w, tangent to
    the manifold. None for a handle mode or manifold, for a jump whose
    largest entry off u c^T exceeds ``TOL_RANK_ONE`` max(1, max |A_j - A_i|),
    or for c.w = 0.
    """
    key = (man_idx, i, j)
    cache = system._slide_fields
    if key not in cache:
        cache.setdefault(key, _build_slide_field(system, man_idx, i, j))
    return cache[key]


def _build_slide_field(system, man_idx, i, j):
    if not system.is_affine:
        return None
    c, d = system.manifolds[man_idx].affine
    fi, fj = system.mode(i).affine, system.mode(j).affine
    jump = fj.A - fi.A
    u = jump @ c / float(c @ c)
    if np.abs(jump - np.outer(u, c)).max() > TOL_RANK_ONE * max(1.0, np.abs(jump).max()):
        return None
    w = u * d + fj.b - fi.b
    cw = float(c @ w)
    if cw == 0.0:
        return None
    proj = np.eye(system.dimension) - np.outer(w, c) / cw
    return _AffineSlide(AffineField(proj @ fi.A, proj @ fi.b),
                        -(fi.A.T @ c) / cw, -float(c @ fi.b) / cw)


def _run_slide(system, man_idx, i, j, x, t, t_stop, opts, builder, seg_id):
    """Integrate the sliding field along one manifold, starting with the
    sample at the entry point (t, x). An affine slide (``_slide_field``)
    advances its aligned stretches in blocks of exact RK4 steps, projected
    onto the manifold; the first step of a block at which lambda leaves
    [TOL_LAMBDA, 1 - TOL_LAMBDA] or another surface is flagged, and every
    step off the grid or of any other slide, is one step of the sliding
    field, with the exit bisection, the persistence probe and ``_first_hit``.

    Returns ("t_stop", None, t, x), ("exit", mode, t_e, x_e), or
    ("hit", other_manifold_idx, t_e, x_e) when the slide reaches another
    manifold (for a planar cross: the intersection point).
    """
    man = system.manifolds[man_idx]
    others = [k for k in range(len(system.manifolds)) if k != man_idx]
    events = _EventSurfaces(system, [system.manifolds[k] for k in others])
    surfaces = events.surfaces
    affine = _slide_field(system, man_idx, i, j)
    what = f"sliding field on {man.label}, pair ({i}, {j})"
    if affine is not None:
        c, d = man.affine
        cc = float(c @ c)
    # The cheapest exact primitives, bound once per segment: an affine mode's
    # AffineField and an affine manifold's constant normal give the values of
    # Mode.f and Manifold.grad without their array coercions.
    fi_fn, fj_fn = (m.affine if m.is_affine else m.f
                    for m in (system.mode(i), system.mode(j)))
    if man.is_affine:
        normal = man.affine[0]
        grad = lambda xq: normal
    else:
        grad = man.grad
    project = man.project

    def lam_at(xq):
        g = grad(xq)
        return _lambda_raw(float(np.dot(g, fi_fn(xq))), float(np.dot(g, fj_fn(xq))))

    def fs(xq):
        fi = fi_fn(xq)
        fj = fj_fn(xq)
        g = grad(xq)
        lam = _lambda_raw(float(np.dot(g, fi)), float(np.dot(g, fj)))
        return fi + lam * (fj - fi)

    def slide_step(x0, d):
        return project(_rk4(fs, x0, d))

    if affine is None:  # an affine slide's block maps check their own step
        try:
            _check_rk4_step(np.linalg.eigvals(_fd_jacobian(fs)(x)), opts.step)
        except StiffStepError as exc:
            raise StiffStepError(f"{what}: {exc}") from None
    builder.add_point(t, x, seg_id, lam=min(max(lam_at(x), 0.0), 1.0))
    lo_bound = TOL_LAMBDA
    hi_bound = 1.0 - TOL_LAMBDA
    h0 = h1 = events.values(x)
    while t < t_stop - 1e-14:
        block = None if affine is None else _advance_blocks(
            affine.field, what, x, t, opts.step, t_stop, 1)
        if block is not None:
            # keep the rows before the first marked step; the stepwise code
            # below takes that step again
            ts, X = block
            X -= np.outer((X @ c - d) / cc, c)
            lams = X @ affine.lam_x + affine.lam_0
            ev = events.scan_block(x, X)[1]
            marked = ev.any(axis=1) | ~((lo_bound <= lams) & (lams <= hi_bound))
            idx = int(np.argmax(marked)) if marked.any() else len(ts)
            if idx:
                builder.add_block(ts[:idx], X[:idx], seg_id, lams[:idx])
                t, x = float(ts[idx - 1]), X[idx - 1]
                h0 = events.values(x)
            if idx == len(ts):
                continue
        tn = _next_grid(t, opts.step, t_stop)
        delta = tn - t
        if delta < 1e-15:
            raise StepUnderflowError(f"sliding step underflow at t={t}")
        x1 = slide_step(x, delta)
        # another manifold reached mid-slide (planar cross: the intersection)
        hit = None
        if surfaces:
            h1 = events.values(x1)
            flags = _event_flags(h0, h1, TOL_EVENT)
            if flags.any():
                hit = _first_hit(slide_step, surfaces, flags, x, delta, h0)
        # combination weight leaving [0, 1] marks a candidate exit
        lam1 = lam_at(x1)
        lam_exit = None
        if not (lo_bound <= lam1 <= hi_bound):
            lo_th, hi_th = 0.0, 1.0
            xe = x
            for _ in range(MAX_BISECT):
                mid = 0.5 * (lo_th + hi_th)
                xm = slide_step(x, mid * delta)
                if lo_bound <= lam_at(xm) <= hi_bound:
                    lo_th, xe = mid, xm
                else:
                    hi_th = mid
                if hi_th - lo_th <= 1e-12:
                    break
            lam_exit = (lo_th, xe)
        if hit is not None and (lam_exit is None or hit[0] < lam_exit[0]):
            theta, k, xe = hit
            te = t + theta * delta
            builder.add_point(te, xe, seg_id, lam=min(max(lam_at(xe), 0.0), 1.0))
            return "hit", others[k], te, xe
        if lam_exit is None:
            t, x, h0 = tn, x1, h1
            builder.add_point(t, x, seg_id, lam=lam1)
            continue
        theta, xe = lam_exit
        # persistence probe: finish the interval; only a sustained excursion
        # beyond the threshold leaves the manifold (anti-chattering)
        rest = (1.0 - theta) * delta
        x_probe = slide_step(xe, rest) if rest > 1e-15 else xe
        lam_probe = lam_at(x_probe)
        if lo_bound <= lam_probe <= hi_bound:
            t, x, h0 = tn, x_probe, events.values(x_probe)
            builder.add_point(t, x, seg_id, lam=lam_probe)
            continue
        te = t + theta * delta
        lam_e = min(max(lam_at(xe), 0.0), 1.0)
        builder.add_point(te, xe, seg_id, lam=lam_e)
        exit_mode = i if lam_probe < lo_bound else j
        return "exit", exit_mode, te, xe
    return "t_stop", None, t, x


# ---------------------------------------------------------------------------
# orchestration


def _check_start(system: PwsSystem, x0, t_f: float) -> np.ndarray:
    """x0 as a float array; raises ValueError unless x0 is a finite state of
    the system inside its box (within 1e-9) and t_f is finite and >= 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise ValueError(f"x0 must have shape ({system.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if not system.box.contains(x0, tol=1e-9):
        raise ValueError("x0 lies outside the analysis box")
    if not 0.0 <= t_f < math.inf:
        raise ValueError("t_f must be finite and nonnegative")
    return x0


def integrate(system: PwsSystem, x0, t_f: float,
              opts: Optional[SolverOptions] = None) -> Trajectory:
    """Integrate the Filippov solution from x0 over [0, t_f].

    The trajectory alternates smooth flow segments, zero-duration crossing
    events, and sliding segments. Boundary hits are localized by bisection to
    ``TOL_EVENT`` in |H|; classification uses field values evaluated on
    the projected boundary point. Sliding exits when the combination weight
    leaves [0, 1] persistently (one-step hysteresis). At the intersection of a
    planar cross the trajectory crosses into the sector certified by the
    common-sector check.

    Raises EscapingRegionError when an escaping boundary point is reached and
    IntersectionAssumptionError when the intersection is reached but the
    common-sector assumption fails.
    """
    opts = opts or SolverOptions()
    x0 = _check_start(system, x0, t_f)

    builder = _Builder(system.dimension)
    events = _EventSurfaces(system, system.manifolds)
    sector_cache: dict = {}

    def certified_sector() -> int:
        if "sector" not in sector_cache:
            chk = check_intersection_assumption(system)
            if not chk.ok:
                raise IntersectionAssumptionError(chk.detail)
            sector_cache["sector"] = chk.sector
        return sector_cache["sector"]

    def classify_entry(man_idx, t, x, mode_from=None):
        """Decide what happens at a boundary point; returns the next state."""
        cls = classify_boundary(system, man_idx, x)
        i, j = cls.pair
        label = system.manifolds[man_idx].label
        if cls.kind == ESCAPING:
            raise EscapingRegionError(t, x, label, cls.sigma_i, cls.sigma_j)
        if cls.kind == CROSSING:
            target = j if cls.sigma_i > 0 else i
            source = mode_from if mode_from is not None else (i if target == j else j)
            sid = builder.open_segment("cross", t, manifold=label,
                                       pair=(source, target))
            builder.add_point(t, x, sid)
            return ("flow", target)
        return ("slide", man_idx, i, j)

    def boundary_state(man_idx, t, x, mode_from=None):
        loc = locate(system, x)
        if loc.kind == "on_manifold" and len(loc.manifolds) >= 2:
            target = certified_sector()
            sid = builder.open_segment(
                "cross", t, manifold="&".join(loc.manifolds),
                pair=(mode_from, target))
            builder.add_point(t, x, sid)
            return ("flow", target)
        return classify_entry(man_idx, t, x, mode_from=mode_from)

    # initial state
    t, x = 0.0, x0.copy()
    loc = locate(system, x)
    if loc.kind == "interior":
        state = ("flow", loc.mode)
    elif len(loc.manifolds) >= 2:
        state = ("flow", certified_sector())
    else:
        man_idx = next(k for k, m in enumerate(system.manifolds)
                       if m.label == loc.manifolds[0])
        state = classify_entry(man_idx, t, x, mode_from=None)

    if t_f == 0.0:
        sid = builder.open_segment("flow", 0.0,
                                   mode=state[1] if state[0] == "flow" else None)
        builder.add_point(0.0, x, sid)
        return builder.finish()

    first = True
    transitions = 0
    while t < t_f - 1e-14:
        transitions += 1
        if transitions > MAX_TRANSITIONS:
            raise StepUnderflowError(
                "too many segment transitions (chattering or step underflow)")
        if state[0] == "flow":
            mode_from = state[1]
            sid = builder.open_segment("flow", t, mode=mode_from)
            if first:
                builder.add_point(t, x, sid)
                first = False
            kind, idx, t, x = _run_flow(events, system.mode(mode_from), x, t, t_f,
                                        opts, builder, sid)
        else:
            _, man_idx, i, j = state
            label = system.manifolds[man_idx].label
            sid = builder.open_segment("slide", t, manifold=label, pair=(i, j))
            first = False
            mode_from = None
            kind, idx, t, x = _run_slide(system, man_idx, i, j, x, t, t_f, opts,
                                         builder, sid)
        builder.close_segment(sid, t)
        if kind == "t_stop":
            break
        if kind == "exit":  # a slide left its manifold into mode idx
            state = ("flow", idx)
        else:  # manifold idx was hit; a slide into a planar cross hits x~
            state = boundary_state(idx, t, x, mode_from=mode_from)
    return builder.finish()


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Write the trajectory in the CSV schema
    ``t,x1,...,xn,segment,mode_or_pair,lambda`` (lambda empty outside slides)."""
    n = traj.states.shape[1]
    cols = ",".join(f"x{k + 1}" for k in range(n))
    labels = []  # "kind,tag," of every segment
    for seg in traj.segments:
        if seg.kind == "flow":
            tag = "" if seg.mode is None else str(seg.mode)
        elif seg.kind == "slide":
            tag = f"{seg.pair[0]}-{seg.pair[1]}"
        else:
            src = "" if seg.pair[0] is None else str(seg.pair[0])
            tag = f"{src}->{seg.pair[1]}"
        labels.append(f"{seg.kind},{tag},")
    # "%.17g" % v is the same text as "{:.17g}".format(v)
    lams = ["" if math.isnan(v) else "%.17g" % v for v in traj.lambdas.tolist()]
    row = "%.17g," * (n + 1) + "%s%s\n"
    fh.write(f"t,{cols},segment,mode_or_pair,lambda\n" + "".join(
        row % vals for vals in zip(traj.times.tolist(), *traj.states.T.tolist(),
                                   [labels[i] for i in traj.seg_index.tolist()], lams)))

"""Event-driven integration of Filippov solutions: smooth flow with boundary
event localization, crossing, and sliding motion on switching manifolds.

Flow segments use classical RK4 with a fixed base step; boundary hits are
localized by bisection on the sign change of each manifold function, one
routine (``model._bisect``, through ``_first_hit``) for every engine that
takes H as a function of the step fraction. For a mode of an affine system
that function is the quartic in tau of the exact RK4 step from x0,
H_k(x0) + sum_m tau^m/m! C[k].A^(m-1) (A x0 + b), built once per hit
(``_step_quartics``), so the step map is built only for the state at the
located root; a handle mode and the slides bisect H of the stepped state.
Sliding segments integrate the convex-combination sliding field along the
manifold with post-step projection back onto it, and exit when the
combination weight reaches 0 or 1: the weight's margin inside its bounds is
one more event surface of the slide step, located with the other manifolds.
The Filippov pair of fields and Lie derivatives is computed in one place,
``_pair``, and the weight in one, ``_lambda_raw``. One flow entry point,
``_run_flow``, serves this solver and the regularized one: it watches the event surfaces it is handed and, for
affine systems, advances the smooth flow in vectorized blocks through the
exact single-step RK4 transition map; each mode's block maps are built once
per (step, block) on its ``AffineField`` and shared by every integration of
the system. An event-free stretch advances as a chain of up to ``MAX_CHAIN``
such blocks, each started from the last row of the one before, with one
event scan and one commit for the whole chain; the chain doubles from one
block while no event is flagged, and a chained run has the bits of one
block at a time. A contracting mode ends the scans: when its exact step
map contracts, ||R(h)||_2 <= 1 - 1e-12, no later state leaves the ball
about its fixed point x* that a state lies in, so once a chain starts
within ``_EventSurfaces.clearance`` of x* (closer than every surface of
the set, less TOL_EVENT and a rounding slack) no event can be flagged
again, and the rest of the stretch is advanced in chains of ``MAX_CHAIN``
blocks and committed unscanned. This applies to the modes of an affine
system, in this solver and the regularized one; single steps, handle
systems and slides keep their event checks, and every row, time and
commit is that of the scanned run, so the outputs are unchanged. A
chain's states are written once, into rows of the trajectory's own
buffers (``_Builder``), which the trajectory then holds slices of.
``_EventSurfaces`` is the one evaluator of a set of surfaces: the flow,
the slide (for the other manifolds) and the regularized blend read their H
values from it. The single step of a flow is built in one
place, ``_flow_step``, and that of a slide in one, ``_slide_steps``: the
engines and the convergence gap of ``regularize`` step through them.

Every pass over a whole block or trajectory runs along its long axis: a
block's surface values are (C X^T)^T, its first flagged step is found in the
flattened flag table (``_first_row``), and the finished trajectory is
checked by one bounds test on the flattened states. A reduction over the
few columns of an (N, n) array, or a row-major product with an n-column
matrix, costs several times more per row for the same values.

When two affine modes i | j on an affine manifold c.x = d have a jump that
is rank-one in the normal, A_j - A_i = u c^T (equal matrices included), the
field jump is a constant w on the manifold, so the weight lambda is affine
and so is the sliding field Pi (A_i x + b_i), Pi = I - w c^T / c.w. Its
slides advance in the same exact RK4 blocks as a flow, each row projected
onto the manifold; the step at which lambda leaves its bounds or another
surface is flagged is retaken as a single step, with its event location
and persistence probe, through the field's exact step map and the same
projection and affine weight. Every other pair (a handle mode or manifold,
a jump that is not rank-one in the normal, c.w = 0) steps RK4 on its
sliding field: on Python floats for two affine modes on an affine manifold
in the plane (every slide of a planar cross; ``_planar_slide``), in the
order of operations of the numpy field of ``_pair``, which steps every
other pair. Each slide's kernel, its step, weight and sliding field, is
built once per (manifold, pair) and kept in the system's memo
(``_slide_steps``).

Two numerical refusals guard the output: a step at which RK4 grows a
decaying direction of a mode or of a sliding field raises ``StiffStepError``
(for an affine field when its block maps are built, for a mode of any other
system at its Jacobian at the start of each flow segment, for a stepwise
slide at the central-difference Jacobian of its sliding field at each slide
entry), and a trajectory with a NaN or infinite state raises
``NonFiniteStateError`` instead of being returned. A start outside the box,
or a final time that is negative or not finite, raises ``ValueError``. A
trajectory that leaves the box is returned, with its first sample outside
it (tolerance 1e-9) as ``Trajectory.box_exit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    TOL_EVENT,
    TOL_LIE,
    AffineField,
    EscapingRegionError,
    IntersectionAssumptionError,
    PwsSystem,
    Manifold,
    NonFiniteStateError,
    StepUnderflowError,
    StiffStepError,
    TopologyError,
    _bisect,
    _check_rk4_step,
    _fd_jacobian,
    _intersection_check,
    _memo,
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
    "classify_boundary",
    "sliding_field",
    "integrate",
    "write_trajectory_csv",
]

CROSSING = "crossing"
SLIDING = "sliding"
ESCAPING = "escaping"

TOL_LAMBDA = 1e-10  # a slide exits once its weight leaves [TOL_LAMBDA, 1 - TOL_LAMBDA]
BLOCK = 256  # exact RK4 steps per affine block
MAX_CHAIN = 64  # most affine blocks a flow advances between two event scans
TAIL_SLACK = 1e-9  # a tail's allowance for rounding, relative to 1 + ||x*|| + distance
TOL_RANK_ONE = 1e-12  # relative residual of a mode jump from u c^T for an affine slide
MAX_TRANSITIONS = 200_000
SAMPLE_SLACK = 64  # rows a trajectory reserves past one per grid step
MAX_RESERVE = 1 << 20  # most rows a trajectory reserves before its samples need them


@dataclass(frozen=True)
class SolverOptions:
    """The fixed RK4 base step, kept as a Python float; the default
    reproduces all shipped results."""

    step: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be a finite positive number")
        object.__setattr__(self, "step", float(self.step))


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
    slide segments. ``seg_index[k]`` points into ``segments``. ``box_exit``
    is the first sample (t, state) outside the system's box by more than
    1e-9, or None when every sample stays inside.
    """

    times: np.ndarray
    states: np.ndarray
    lambdas: np.ndarray
    seg_index: np.ndarray
    segments: list
    box_exit: Optional[tuple] = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def grid_samples(self, h: float):
        """Samples lying on the aligned time grid k*h (plus the final time).
        Raises ValueError unless h is finite and positive."""
        if not 0.0 < h < math.inf:
            raise ValueError("grid step h must be finite and positive")
        # |t - round(t / h) h|, formed in one buffer
        off = np.divide(self.times, h)
        np.rint(off, out=off)
        np.multiply(off, h, out=off)
        np.subtract(self.times, off, out=off)
        np.abs(off, out=off)
        on_grid = off <= 1e-9 * max(h, 1.0)
        on_grid[-1] = True
        idx = np.flatnonzero(on_grid)
        # keep the first sample at each distinct time
        keep = np.concatenate(([True], np.diff(self.times[idx]) > 1e-12))
        idx = idx[keep]
        # take gathers the rows several times faster than fancy indexing
        return self.times[idx], self.states.take(idx, axis=0)

    def has_sliding(self) -> bool:
        return any(s.kind == "slide" for s in self.segments)


def _pair(system: PwsSystem, man_idx: int, i: int, j: int):
    """x -> (f_i, f_j, sigma_i, sigma_j): the fields of modes i and j and
    their Lie derivatives grad H . f along manifold ``man_idx``, the pair
    behind every Filippov classification, weight and sliding vector. An
    affine mode is evaluated through its ``AffineField`` and an affine
    manifold through its constant normal, the values of ``Mode.f`` and
    ``Manifold.grad`` without their array coercions."""
    fi_fn, fj_fn = (m.affine if m.is_affine else m.f
                    for m in (system.mode(i), system.mode(j)))
    man = system.manifolds[man_idx]
    if man.is_affine:
        normal = man.affine[0]
        grad = lambda x: normal
    else:
        grad = man.grad

    def pair(x):
        fi, fj = fi_fn(x), fj_fn(x)
        g = grad(x)
        return fi, fj, float(np.dot(g, fi)), float(np.dot(g, fj))
    return pair


def _lambda_raw(si: float, sj: float) -> float:
    """The Filippov weight lambda = sigma_i / (sigma_i - sigma_j), at which
    (1 - lambda) sigma_i + lambda sigma_j = 0; 0.5 for equal sigmas."""
    den = si - sj
    if den == 0.0:
        return 0.5
    return si / den


def classify_boundary(system: PwsSystem, manifold_idx: int, x) -> BoundaryClass:
    """Classify a point on a single manifold as crossing, sliding, or escaping.

    Tangential points (one Lie derivative within ``TOL_LIE`` of zero, as the
    returned ``sigma_i``/``sigma_j`` show) resolve to sliding. The point must
    not lie on any other manifold.
    """
    x = np.asarray(x, dtype=float)
    i, j = system.adjacent_modes(manifold_idx, x)
    _, _, si, sj = _pair(system, manifold_idx, i, j)(x)
    zi, zj = abs(si) <= TOL_LIE, abs(sj) <= TOL_LIE
    if zi and zj:
        raise TopologyError(
            f"both Lie derivatives vanish on {system.manifolds[manifold_idx].label} "
            f"at x={x}; transversality (Assumption on switching data) is violated")
    if zi or zj:
        kind = SLIDING
    elif si * sj > 0:
        kind = CROSSING
    elif si > 0:
        kind = SLIDING
    else:
        kind = ESCAPING
    return BoundaryClass(kind, si, sj, (i, j))


def sliding_field(system: PwsSystem, i: int, j: int, x) -> np.ndarray:
    """Sliding vector (1-lambda) f_i + lambda f_j, tangent to the manifold.

    ``i`` must be the mode on the negative side of the separating manifold and
    ``j`` the mode on the positive side. Tangential configurations (one Lie
    derivative zero) are accepted and give lambda 0 or 1.
    """
    x = np.asarray(x, dtype=float)
    man_idx = system.manifold_between(i, j)
    neg, pos = system.adjacent_modes(man_idx, x)
    if (i, j) != (neg, pos):
        raise ValueError(
            f"mode order ({i}, {j}) does not match the (negative, positive) "
            f"sides ({neg}, {pos}) of {system.manifolds[man_idx].label}")
    fi, fj, si, sj = _pair(system, man_idx, i, j)(x)
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
    and C and d are None. A set lives as long as its system (``_events``,
    ``RegularizedSystem``), and so do the clearances it keeps."""

    def __init__(self, system: PwsSystem, surfaces: list):
        self.surfaces = surfaces
        self.C = self.d = None
        self._clearances: dict = {}
        if system.is_affine:
            self.C = np.array([s.affine[0] for s in surfaces]).reshape(
                -1, system.dimension)
            self.d = np.array([s.affine[1] for s in surfaces])

    def clearance(self, field: AffineField, h: float):
        """(x*, margin) of the exact RK4 flow of ``field`` at step h, or None:
        x* is the fixed point of its contracting step map
        (``AffineField.centre``), and every state within margin of x* starts
        an orbit on which no surface of this set is ever flagged. Built once
        per (field, h) of this set; None when the step map does not contract
        or the margin is not positive, +inf for a set with no surface.

        Surface k is no nearer than D_k = |H_k(x*)| / |C[k]|, and a state
        flags it only within TOL_EVENT / |C[k]| of it, so margin = min_k
        D_k - TOL_EVENT / |C[k]| - TAIL_SLACK (1 + ||x*|| + D_k). The slack
        covers the error of x* (at most TOL_CENTRE (1 + ||x*||), counted
        twice) and the rounding of the stacks, of a chain's rows and of their
        surface values: a few ulps of ||x*|| + D_k per step, under
        1e-11 (1 + 3 ||x*|| + D_k) over the MAX_CHAIN * BLOCK steps of a
        chain."""
        return _memo(self._clearances, (field, h), lambda: self._clearance(field, h))

    def _clearance(self, field, h):
        xs = field.centre(h)
        if xs is None:
            return None
        norms = np.linalg.norm(self.C, axis=1)
        dist = np.abs(self.C @ xs - self.d) / norms
        slack = TAIL_SLACK * (1.0 + float(np.linalg.norm(xs)) + dist)
        margin = float(np.min(dist - TOL_EVENT / norms - slack, initial=math.inf))
        return (xs, margin) if margin > 0.0 else None

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
        # (C X^T)^T along the rows of X: a row-major X @ C.T with its few
        # columns costs several times more per row, for the same values
        Hs[1:] = (self.C @ X.T).T - self.d
        return Hs, _event_flags(Hs[:-1], Hs[1:], TOL_EVENT)


def _events(system: PwsSystem, skip: Optional[int] = None) -> _EventSurfaces:
    """The ``_EventSurfaces`` of the system's manifolds but ``skip`` (those
    a slide on it watches), built once per (system, skip)."""
    return system._derived(("events", skip), lambda: _EventSurfaces(
        system, [m for k, m in enumerate(system.manifolds) if k != skip]))


def _first_row(flags) -> int:
    """The first row of a 2-D flag table with a flag set, or its length when
    none is: np.flatnonzero(flags.any(axis=1))[0] by one pass along the long
    axis of the flattened table."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) // flags.shape[1] if hits.size else len(flags)


def _event_flags(h0, h1, tol):
    """Detect a root of each H over one step, elementwise over arrays of H
    values at the step's start and end: strict sign change, or landing on the
    surface from a point clearly off it. Starting on the surface (|H| within
    tol) never triggers, which lets trajectories leave a boundary cleanly.
    From |h0| > tol both cases read h1 * sign(h0) <= tol, written as four
    comparisons: a product with sign(h0) costs several times more."""
    return ((h0 > tol) & (h1 <= tol)) | ((h0 < -tol) & (h1 >= -tol))


def _any_event(h0, h1) -> bool:
    """Whether ``_event_flags`` flags any surface over one step from the H
    values h0 to h1: its four comparisons on Python floats, cheaper than the
    array form on the few surfaces of a single step."""
    for a, b in zip(h0.tolist(), h1.tolist()):
        if (a > TOL_EVENT and b <= TOL_EVENT) or (a < -TOL_EVENT and b >= -TOL_EVENT):
            return True
    return False


def _first_hit(along, flagged, h0):
    """Bisect every surface flagged by ``_event_flags`` over one step and keep
    the earliest root (the lowest index on ties): (theta, k), or None when
    nothing is flagged. ``along(k)`` gives surface k's H as a function of the
    step fraction theta; ``h0`` holds the H values at the step's start of all
    the surfaces."""
    best = None
    for k in np.flatnonzero(flagged):
        theta = _bisect(along(k), float(h0[k]))
        if best is None or theta < best[0]:
            best = (theta, int(k))
    return best


def _along_step(step_fn, surfaces, x0, delta):
    """``_first_hit``'s ``along`` for any step: surface k's H at the state
    step_fn(x0, theta delta)."""
    return lambda k: lambda theta: surfaces[k].h(step_fn(x0, theta * delta))


def _step_quartics(field: AffineField, events, x0, delta, h0):
    """``_first_hit``'s ``along`` for one exact RK4 step of an affine field
    from x0: with tau = theta delta and v = A x0 + b, each affine surface
    value is the quartic H_k(tau) = h0[k] + sum_m tau^m C[k].A^(m-1) v / m!,
    m = 1..4. Its coefficients come from one product per hit and it is
    evaluated on Python floats; it equals C[k].(R(tau) x0 + r(tau)) - d[k]
    up to rounding."""
    coefs = (field.step_taylor(x0) @ events.C.T).T.tolist()

    def along(k):
        a1, a2, a3, a4 = coefs[k]
        hk = float(h0[k])

        def H(theta):
            tau = theta * delta
            return hk + tau * (a1 + tau * (a2 + tau * (a3 + tau * a4)))
        return H
    return along


def _next_grid(t: float, h: float, t_stop: float) -> float:
    k = math.floor(t / h + 1e-9) + 1
    tn = k * h
    if tn >= t_stop - 1e-12 * max(h, 1.0):
        return t_stop
    return tn


class _Builder:
    """Accumulates samples and segments while the state machine runs.

    The samples go into one buffer per column (times, states, weights,
    segment indices), each sized from the caller's estimate of the row
    count, at most ``MAX_RESERVE`` rows, and grown geometrically past it by
    copying the rows in use. A block of samples is written in place: the
    engine writes its states into the rows that ``reserve`` hands out and
    ``commit`` makes samples of the first of them, writing every other
    column, so a row is touched only once it holds a sample. A single
    sample is written into the next row at once. Every builder owns its
    buffers, so no two trajectories share memory.
    """

    def __init__(self, box, rows: float):
        self.box = box
        self.n = box.dimension
        cap = max(1, int(min(rows, MAX_RESERVE)))
        self._t = np.empty(cap)
        self._x = np.empty((cap, self.n))
        self._lam = np.empty(cap)
        self._seg = np.empty(cap, dtype=int)
        self._len = 0  # rows holding samples
        self.segments: list = []

    def open_segment(self, kind, t, mode=None, manifold=None, pair=None) -> int:
        self.segments.append(Segment(kind, t, t, mode=mode, manifold=manifold, pair=pair))
        return len(self.segments) - 1

    def close_segment(self, seg_id: int, t_end: float):
        self.segments[seg_id].t_end = t_end

    def add_point(self, t, x, seg_id, lam=math.nan):
        self._room(1)
        k = self._len
        self._t[k] = t
        self._x[k] = x
        self._lam[k] = lam
        self._seg[k] = seg_id
        self._len = k + 1

    def _room(self, k: int):
        """Room for k rows past those in use: a buffer too short is replaced
        by one of at least twice its length, holding a copy of the used rows."""
        used = self._len
        need = used + k
        if need > len(self._t):
            cap = max(need, 2 * len(self._t))

            def grown(a):
                b = np.empty((cap, *a.shape[1:]), dtype=a.dtype)
                b[:used] = a[:used]
                return b
            self._t, self._x, self._lam, self._seg = (
                grown(a) for a in (self._t, self._x, self._lam, self._seg))

    def reserve(self, k: int) -> np.ndarray:
        """The next k free rows of the state buffer, a (k, n) view for an
        engine to write states into; ``commit`` makes samples of them."""
        self._room(k)
        return self._x[self._len:self._len + k]

    def commit(self, ts, seg_id, lams=math.nan):
        """Make the first len(ts) reserved rows samples at the times ts of
        segment seg_id, with the weights lams (NaN outside slides)."""
        rows = slice(self._len, self._len + len(ts))
        self._t[rows] = ts
        self._lam[rows] = lams
        self._seg[rows] = seg_id
        self._len = rows.stop

    def finish(self) -> Trajectory:
        """The trajectory, whose arrays are the used rows of the buffers,
        with its first sample outside the box (within 1e-9) as
        ``box_exit``; raises NonFiniteStateError if any sample is
        not finite, so no engine hands out a state that blew up. One bounds
        test, which a NaN fails too, serves both: first the extremes of the
        flattened states against the cube inside the box, two passes along
        the long axis that settle every trajectory inside that cube, then,
        only when they fail, the states against the box and the rows."""
        k = self._len
        times, states, lams, segs = self._t[:k], self._x[:k], self._lam[:k], self._seg[:k]
        box_exit = None
        lo, hi = self.box.lower - 1e-9, self.box.upper + 1e-9
        if not (states.min() >= lo.max() and states.max() <= hi.min()):
            outside = ~((states >= lo) & (states <= hi))
            if outside.any():
                finite = np.isfinite(states)
                if not finite.all():
                    k = int(np.flatnonzero(~finite)[0]) // self.n
                    raise NonFiniteStateError(
                        f"the state is not finite from t={times[k]:.6g} on: the "
                        "step is too large for the dynamics, or a field returned "
                        "a non-finite value; use a smaller --step")
                k = int(np.flatnonzero(outside)[0]) // self.n
                box_exit = (float(times[k]), states[k].copy())
        return Trajectory(times, states, lams, segs, self.segments, box_exit)


# ---------------------------------------------------------------------------
# flow engine


def _advance_blocks(field, what, x, t, h, t_stop, count, builder):
    """Up to ``count`` chained blocks of exact RK4 steps of an affine field
    from (t, x) on the time grid k*h, written into rows that ``builder``
    reserves: (ts, X) with X[k] the state at ts[k], not yet committed.
    Each block starts from the last row of the one before, and its grid
    index and step count come from the same scalar arithmetic as a lone
    block's, so a chain has the bits of its blocks advanced one at a time;
    every block but the last holds BLOCK rows. None when t is off the grid
    or no full step fits before t_stop; the caller then takes one step. A
    StiffStepError from building the block maps names ``what``."""
    k0 = math.floor(t / h + 1e-9)
    sizes = []  # the rows of each block, from the scalar arithmetic alone
    row = 0
    while row < count * BLOCK and t < t_stop - 1e-14:
        k = math.floor(t / h + 1e-9)
        m = min(BLOCK, int(math.floor((t_stop - t) / h + 1e-12)))
        if k != k0 + row or abs(t - k * h) > 1e-12 * max(h, 1.0) or m == 0:
            break
        sizes.append(m)
        row += m
        if m < BLOCK:
            break
        t = (k + m) * h
    if not sizes:
        return None
    try:
        Rs, rs = field.stacks(h, BLOCK)
    except StiffStepError as exc:
        raise StiffStepError(f"{what}: {exc}") from None
    n = x.shape[0]
    R2 = Rs.reshape(-1, n)
    X = builder.reserve(row)
    row = 0
    for m in sizes:
        # one 2-D product: a batched (m, n, n) @ (n,) matmul is several times slower
        np.add((R2[:m * n] @ x).reshape(m, n), rs[:m], out=X[row:row + m])
        row += m
        x = X[row - 1]
    return (k0 + 1 + np.arange(row)) * h, X


def _flow_step(mode, affine: bool):
    """The single step (x0, dt) -> x1 of a flow of ``mode``: the exact RK4
    map ``AffineField.step_map`` of an affine mode when ``affine`` (a mode
    of an affine system), else one RK4 step of the mode's field."""
    if affine:
        step_map = mode.affine.step_map

        def step(x0, dt):
            R, r = step_map(dt)
            return R @ x0 + r
        return step
    f = mode.f
    return lambda x0, dt: _rk4(f, x0, dt)


def _run_flow(events, mode, x, t, t_stop, opts, builder, seg_id):
    """Flow one mode from (t, x) until t_stop or a hit of one of the event
    surfaces; returns ("t_stop", None, t, x) or ("hit", surface_idx, t_e, x_e)
    with x_e projected onto that surface.

    A mode of an affine system advances its aligned stretches in blocks of
    exact RK4 steps and takes every other step through ``_flow_step``.
    The blocks come in chains (``_advance_blocks``) scanned for events as
    one array: the first chain of a call is one block, and each chain with
    no event flagged doubles the next, up to ``MAX_CHAIN`` blocks. A hit's
    time is the start of the block holding it plus its steps into that
    block, as when the blocks are advanced one at a time. Such a hit is
    located on the quartic in tau of its exact RK4 step (``_step_quartics``),
    equal to the step map's surface values up to rounding, and its state is
    built once, through the step map at the located theta.
    A chain that starts within the ``clearance`` margin of the fixed point
    x* of a contracting step map is the start of an event-free tail: no row
    from there on leaves the ball about x* that the start lies in, and that
    ball meets no surface, so the chain is advanced ``MAX_CHAIN`` blocks at
    a time and committed unscanned, with the rows, times and commits of the
    scanned chains. Single steps keep their event check.
    The modes of any other system (one with a handle mode or surface) take
    one RK4 step of their field up to each grid time, locate a hit on the
    surface values of that step's state, and raise StiffStepError when the
    step grows a decaying direction of the mode's Jacobian at the segment's
    start.
    """
    h = opts.step
    field = None if events.C is None else mode.affine
    what = f"mode {mode.index}"
    if field is None:
        tail = None
        try:
            _check_rk4_step(np.linalg.eigvals(mode.jac(x)), h)
        except StiffStepError as exc:
            raise StiffStepError(f"{what}: {exc}") from None
    else:
        tail = events.clearance(field, h)
    step_fn = _flow_step(mode, field is not None)

    def hit(x0, t0, delta, h0, flags):
        along = (_along_step(step_fn, events.surfaces, x0, delta) if field is None
                 else _step_quartics(field, events, x0, delta, h0))
        theta, k = _first_hit(along, flags, h0)
        xe = step_fn(x0, theta * delta)
        return "hit", k, t0 + theta * delta, events.surfaces[k].project(xe)

    h0 = None  # the event values at x, carried from step to step
    chain = 1  # blocks in the next chain: doubles while no event is flagged
    while t < t_stop - 1e-14:
        free = tail is not None and float(np.linalg.norm(x - tail[0])) < tail[1]
        block = None if field is None else _advance_blocks(
            field, what, x, t, h, t_stop, MAX_CHAIN if free else chain, builder)
        if block is None:
            tn = _next_grid(t, h, t_stop)
            x1 = step_fn(x, tn - t)
            if h0 is None:
                h0 = events.values(x)
            h1 = events.values(x1)
            if _any_event(h0, h1):
                return hit(x, t, tn - t, h0, _event_flags(h0, h1, TOL_EVENT))
            t, x, h0 = tn, x1, h1
            builder.add_point(t, x, seg_id)
            continue
        ts, X = block
        if not free:
            Hs, ev = events.scan_block(x, X)
            idx = _first_row(ev)
            if idx < len(ev):
                builder.commit(ts[:idx], seg_id)
                # the hit's time counts from the start of its own block, as a
                # lone block would
                row = idx - idx % BLOCK
                t0 = t if row == 0 else float(ts[row - 1])
                return hit(x if idx == 0 else X[idx - 1], t0 + (idx - row) * h, h,
                           Hs[idx], ev[idx])
            chain = min(2 * chain, MAX_CHAIN)
        builder.commit(ts, seg_id)
        x, t, h0 = X[-1], float(ts[-1]), None
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
    """The ``_AffineSlide`` of the pair (i, j) on manifold ``man_idx``, or
    None when the slide is not affine.

    For affine modes on an affine manifold c.x = d whose jump is rank-one in
    the normal, A_j - A_i = u c^T, the jump f_j - f_i = u d + b_j - b_i = w
    is constant on the manifold. Then lambda = -c.(A_i x + b_i) / c.w and the
    sliding field is Pi (A_i x + b_i) with Pi = I - w c^T / c.w, tangent to
    the manifold. None for a handle mode or manifold, for a jump whose
    largest entry off u c^T exceeds ``TOL_RANK_ONE`` max(1, max |A_j - A_i|),
    or for c.w = 0.
    """
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


def _planar_slide(system: PwsSystem, man_idx: int, i: int, j: int):
    """``_slide_steps`` on Python floats of two affine modes on an affine
    manifold in the plane, or None. Each value follows the numpy path's
    order: f = A x + b, sigma = c.f, ``_lambda_raw``, f_i + lambda (f_j -
    f_i), the RK4 combination and x - c (c.x - d) / c.c."""
    man, mi, mj = system.manifolds[man_idx], system.mode(i), system.mode(j)
    if system.dimension != 2 or not (man.is_affine and mi.is_affine and mj.is_affine):
        return None
    (ai11, ai12), (ai21, ai22) = mi.affine.A.tolist()
    (aj11, aj12), (aj21, aj22) = mj.affine.A.tolist()
    (bi1, bi2), (bj1, bj2) = mi.affine.b.tolist(), mj.affine.b.tolist()
    c, d = man.affine
    (c1, c2), cc = c.tolist(), float(c @ c)

    def weighed(x1, x2):
        fi1, fi2 = ai11 * x1 + ai12 * x2 + bi1, ai21 * x1 + ai22 * x2 + bi2
        fj1, fj2 = aj11 * x1 + aj12 * x2 + bj1, aj21 * x1 + aj22 * x2 + bj2
        lam = _lambda_raw(c1 * fi1 + c2 * fi2, c1 * fj1 + c2 * fj2)
        return fi1, fi2, fj1, fj2, lam

    def field(x1, x2):
        fi1, fi2, fj1, fj2, lam = weighed(x1, x2)
        return fi1 + lam * (fj1 - fi1), fi2 + lam * (fj2 - fi2)

    def step(x0, dt):
        x1, x2 = x0.tolist()
        half = 0.5 * dt
        k11, k12 = field(x1, x2)
        k21, k22 = field(x1 + half * k11, x2 + half * k12)
        k31, k32 = field(x1 + half * k21, x2 + half * k22)
        k41, k42 = field(x1 + dt * k31, x2 + dt * k32)
        y1 = x1 + (dt / 6.0) * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        y2 = x2 + (dt / 6.0) * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        s = (c1 * y1 + c2 * y2 - d) / cc
        return np.array((y1 - c1 * s, y2 - c2 * s))

    def lam_at(xq):
        return weighed(*xq.tolist())[4]

    def fs(xq):
        return np.array(field(*xq.tolist()))
    return step, lam_at, None, fs


def _slide_steps(system: PwsSystem, man_idx: int, i: int, j: int):
    """(step, lam_at, affine, fs) of a slide of the pair (i, j) on manifold
    ``man_idx``, built once and kept in the system's memo: its single step
    (x0, dt) -> x1 onto the manifold, its weight x -> lambda, its
    ``_AffineSlide`` and, for a stepwise slide, its sliding field. An affine
    slide (``_slide_field``) steps by the exact RK4 map of its field and
    weighs by lam_x . x + lam_0 (affine set, fs None); any other steps RK4
    on its sliding field (affine None), on floats where ``_planar_slide``
    applies, else on that of ``_pair``."""

    def build():
        project = system.manifolds[man_idx].project
        affine = _slide_field(system, man_idx, i, j)
        if affine is not None:
            step_map = affine.field.step_map
            lam_0 = affine.lam_0
            # a product of one row runs numpy's dot kernel, which rounds
            # differently from the matrix-vector product of the block rows;
            # two equal rows give each state the bits of its block row's weight
            lam_rows = np.array((affine.lam_x, affine.lam_x))

            def step(x0, dt):
                R, r = step_map(dt)
                return project(R @ x0 + r)
            return step, lambda xq: float((lam_rows @ xq)[0]) + lam_0, affine, None
        planar = _planar_slide(system, man_idx, i, j)
        if planar is not None:
            return planar
        pair = _pair(system, man_idx, i, j)

        def fs(xq):
            fi, fj, si, sj = pair(xq)
            return fi + _lambda_raw(si, sj) * (fj - fi)
        return ((lambda x0, dt: project(_rk4(fs, x0, dt))),
                lambda xq: _lambda_raw(*pair(xq)[2:]), None, fs)
    return system._derived(("slide", man_idx, i, j), build)


def _run_slide(system, man_idx, i, j, x, t, t_stop, opts, builder, seg_id):
    """Integrate the sliding field along one manifold, starting with the
    sample at the entry point (t, x). An affine slide (``_slide_field``)
    advances its aligned stretches in blocks of exact RK4 steps, projected
    onto the manifold; the first step of a block at which lambda leaves
    [TOL_LAMBDA, 1 - TOL_LAMBDA] or another surface is flagged, and every
    step off the grid, is one step of the sliding field, located by
    ``_first_hit`` and followed by the persistence probe. Surface 0 of that
    step is the weight's margin min(lambda - TOL_LAMBDA, 1 - TOL_LAMBDA -
    lambda), positive inside and flagged when lambda ends the step outside
    (a slide entered at a tangency starts on a bound), so an exit wins a tie
    with the other manifolds, surfaces 1, 2, ...

    Every single step (the step to the grid after entry, the retaken
    flagged step, every ``_first_hit`` probe and the persistence probe) and
    every weight off the blocks is that of ``_slide_steps``.

    Returns ("t_stop", None, t, x), ("exit", mode, t_e, x_e), or
    ("hit", other_manifold_idx, t_e, x_e) when the slide reaches another
    manifold (for a planar cross: the intersection point).
    """
    man = system.manifolds[man_idx]
    others = [k for k in range(len(system.manifolds)) if k != man_idx]
    events = _events(system, man_idx)
    surfaces = events.surfaces
    slide_step, lam_at, affine, fs = _slide_steps(system, man_idx, i, j)
    what = f"sliding field on {man.label}, pair ({i}, {j})"
    if affine is not None:
        c, d = man.affine
        cc = float(c @ c)

    lo_bound = TOL_LAMBDA
    hi_bound = 1.0 - TOL_LAMBDA

    def along(x0, delta):
        """``_first_hit``'s ``along`` for one slide step from x0: the
        weight's margin, then the other manifolds."""
        manifolds = _along_step(slide_step, surfaces, x0, delta)

        def margin(theta):
            lam = lam_at(slide_step(x0, theta * delta))
            return min(lam - lo_bound, hi_bound - lam)
        return lambda k: manifolds(k - 1) if k else margin

    if affine is None:  # an affine slide's block maps check their own step
        try:
            _check_rk4_step(np.linalg.eigvals(_fd_jacobian(fs)(x)), opts.step)
        except StiffStepError as exc:
            raise StiffStepError(f"{what}: {exc}") from None
    builder.add_point(t, x, seg_id, lam=min(max(lam_at(x), 0.0), 1.0))
    h0 = events.values(x)
    while t < t_stop - 1e-14:
        block = None if affine is None else _advance_blocks(
            affine.field, what, x, t, opts.step, t_stop, 1, builder)
        if block is not None:
            # keep the rows before the first marked step; the single step
            # below takes that step again
            ts, X = block
            X -= np.outer((X @ c - d) / cc, c)
            lams = X @ affine.lam_x + affine.lam_0
            ev = events.scan_block(x, X)[1]
            outside = ~((lo_bound <= lams) & (lams <= hi_bound))
            idx = min(_first_row(ev),
                      int(np.argmax(outside)) if outside.any() else len(ts))
            if idx:
                builder.commit(ts[:idx], seg_id, lams[:idx])
                t, x = float(ts[idx - 1]), X[idx - 1]
                h0 = events.values(x)
            if idx == len(ts):
                continue
        tn = _next_grid(t, opts.step, t_stop)
        delta = tn - t
        if delta < 1e-15:
            raise StepUnderflowError(f"sliding step underflow at t={t}")
        x1 = slide_step(x, delta)
        lam1 = lam_at(x1)
        h1 = events.values(x1)
        exits = not lo_bound <= lam1 <= hi_bound
        if not (exits or _any_event(h0, h1)):
            t, x, h0 = tn, x1, h1
            builder.add_point(t, x, seg_id, lam=lam1)
            continue
        theta, k = _first_hit(along(x, delta),
                              np.concatenate(([exits], _event_flags(h0, h1, TOL_EVENT))),
                              np.concatenate(([1.0], h0)))
        te = t + theta * delta
        xe = slide_step(x, theta * delta)
        if k:  # another manifold reached mid-slide (planar cross: the intersection)
            builder.add_point(te, xe, seg_id, lam=min(max(lam_at(xe), 0.0), 1.0))
            return "hit", others[k - 1], te, xe
        # persistence probe: finish the interval; only a sustained excursion
        # beyond the threshold leaves the manifold (anti-chattering)
        rest = (1.0 - theta) * delta
        x_probe = slide_step(xe, rest) if rest > 1e-15 else xe
        lam_probe = lam_at(x_probe)
        if lo_bound <= lam_probe <= hi_bound:
            t, x, h0 = tn, x_probe, events.values(x_probe)
            builder.add_point(t, x, seg_id, lam=lam_probe)
            continue
        builder.add_point(te, xe, seg_id, lam=min(max(lam_at(xe), 0.0), 1.0))
        exit_mode = i if lam_probe < lo_bound else j
        return "exit", exit_mode, te, xe
    return "t_stop", None, t, x


# ---------------------------------------------------------------------------
# orchestration


def _check_start(system: PwsSystem, x0, t_f: float) -> tuple:
    """(x0, t_f) as a float array and a Python float; raises ValueError
    unless x0 is a finite state of the system inside its box (within 1e-9)
    and t_f is finite and >= 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise ValueError(f"x0 must have shape ({system.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if not system.box.contains(x0, tol=1e-9):
        raise ValueError("x0 lies outside the analysis box")
    if not 0.0 <= t_f < math.inf:
        raise ValueError("t_f must be finite and nonnegative")
    return x0, float(t_f)


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
    x0, t_f = _check_start(system, x0, t_f)

    builder = _Builder(system.box, t_f / opts.step + SAMPLE_SLACK)
    events = _events(system)

    def certified_sector() -> int:
        chk = _intersection_check(system)
        if not chk.ok:
            raise IntersectionAssumptionError(chk.detail)
        return chk.sector

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

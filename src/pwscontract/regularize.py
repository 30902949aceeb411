"""Clamp-function regularization of the piecewise-smooth field, its one
Jacobian, error-controlled and stiffness-aware integration of the
regularized ODE, and band-width convergence studies against the Filippov
solver.

The blend weights the modes by tables W(p) of the clamps p_k = clip(H_k / eps,
-1, 1) (``_chain_weights``, ``_cross_weights``). W is affine in each clamp, so
its slope in p_k is half the difference of W at p_k = +1 and p_k = -1; both
the band closures ``_Band`` and the Jacobian ``RegularizedSystem.jacobian``
are built from that one fact.

The regularized integrator hands every stretch outside the bands |H| <= eps
to the Filippov solver's flow engine, which stops at the band edges
H = +-eps, and steps the blend inside them; a point on an edge, or within
TOL_EVENT past it, counts as in the band (``_bands_of``). Inside the band of
one manifold k every other clamp sits at +-1, so for an affine system the
blend there is one closed form, ``_Band``: f = M0 x + m0 + p (M1 x + m1)
with p the clamp of H_k / eps, built once per (band, signs of the other
clamps). One product per stage gives the blend, every manifold value and
the radius bound of its Jacobian. Where no closure applies (handle systems,
and the cross's corner, where both bands are active) the stacked blend
``RegularizedSystem.field`` is stepped. Both take RK4 steps sized by the
embedded third-order estimate of each step against TOL_BAND eps, capped by
RK4's stability on the blend's Jacobian, and no step crosses a band edge:
a step that does is cut there, and one that leaves the last band hands the
rest to the flow engine (``_run_bands``).

A convergence study takes the gap between the Filippov and the regularized
run where it peaks: over the samples of both runs, each run's state at the
other's sample times taken by a partial step of its own field
(``_peak_gap``). The Filippov run's partial step is the single step of its
solver's engine on that segment (``filippov._flow_step``,
``filippov._slide_steps``). An in-band transient faster than the grid peaks
between grid times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import _column_norms
from .model import (
    Manifold,
    PwsSystem,
    StepUnderflowError,
    StiffStepError,
    _chain_bands_disjoint,
    _check_rk4_step,
    locate,
)
from .filippov import (
    MAX_TRANSITIONS,
    SAMPLE_SLACK,
    TOL_EVENT,
    SolverOptions,
    Trajectory,
    _Builder,
    _EventSurfaces,
    _check_start,
    _event_flags,
    _first_hit,
    _flow_step,
    _next_grid,
    _rk4,
    _run_flow,
    _slide_steps,
    integrate,
)

__all__ = [
    "RegularizedSystem",
    "ConvergenceTable",
    "integrate_regularized",
    "convergence_study",
    "write_convergence_csv",
]


def _chain_weights(p: np.ndarray) -> np.ndarray:
    """Mode weights of the chain blend for the clamps p_k of its manifolds:
    mode i between manifolds i - 1 and i weighs (p_(i-1) - p_i) / 2, with
    p_0 = 1 below the first manifold and p_N = -1 above the last."""
    return 0.5 * (np.concatenate(([1.0], p)) - np.concatenate((p, [-1.0])))


def _cross_weights(p) -> np.ndarray:
    """Mode weights of the planar-cross blend for the clamps (p1, p2)."""
    p1, p2 = p
    return 0.25 * np.array([
        (1.0 + p1) * (1.0 - p2),
        (1.0 + p1) * (1.0 + p2),
        (1.0 - p1) * (1.0 + p2),
        (1.0 - p1) * (1.0 - p2),
    ])


# the error a band step may make, relative to eps: each RK4 step's embedded
# third-order estimate stays below TOL_BAND * eps (``_run_bands``)
TOL_BAND = 1e-3

# RK4 grows no decaying direction of a step h lam with |h lam| <= 2.5: its
# stability region holds the left half-disk of radius 2.61
RK4_DISK = 2.5


def _stable_substeps(eigs, delta: float, ns: int) -> int:
    """The smallest count n >= ns at which a substep delta / n passes
    ``_check_rk4_step`` on the eigenvalues ``eigs`` of the field's Jacobian.
    RK4's stability region is star-shaped, so the count is bracketed by
    doubling and then bisected."""

    def passes(n):
        try:
            _check_rk4_step(eigs, delta / n)
        except StiffStepError:
            return False
        return True

    if passes(ns) or not np.isfinite(eigs).all():
        return ns  # where no count passes, ``_Builder.finish`` reports the state
    lo, hi = ns, 2 * ns  # a failing count and its double
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


class _Band:
    """The blend inside the band of manifold k of an affine system, every
    other clamp fixed at +-1. Its weights are w0 + p w1, p the clamp of
    H_k / eps, so f(x) = M0 x + m0 + p (M1 x + m1), with M0 = sum w0_i A_i and
    so on: one product y = S x + s, S = [M0; M1; C], s = [m0; m1; -d] with
    C and d the normals and offsets of every manifold, and the clip of
    p = y[2n + k] / eps. ``stage`` returns (f, H, y): the blend, the manifold
    values H = y[2n:], and y, whose rows n to 2n hold the u = M1 x + m1 of
    ``bound``.

    Its Jacobian M0 + p M1 + u c_k^T / eps has a spectral radius that
    ``bound(y)`` bounds by ||M0|| + ||M1|| + ||u|| ||c_k|| / eps."""

    def __init__(self, k: int, w0, w1, As, bs, C, d, eps: float):
        n = C.shape[1]
        M0, M1 = np.tensordot(w0, As, 1), np.tensordot(w1, As, 1)
        m0, m1 = w0 @ bs, w1 @ bs
        S = np.vstack((M0, M1, C))
        s = np.concatenate((m0, m1, -d))
        n2 = 2 * n
        row = n2 + k
        fixed = np.linalg.norm(M0, 2) + np.linalg.norm(M1, 2)
        slope = float(np.linalg.norm(C[k] / eps))

        def stage(x):
            # ndarray.dot and item: the same values as @ and [], at less
            # overhead per call on these few rows
            y = S.dot(x)
            y += s
            p = y.item(row) / eps
            if p > 1.0:
                p = 1.0
            elif p < -1.0:
                p = -1.0
            return y[:n] + p * y[n:n2], y[n2:], y

        def bound(y):
            u = y[n:n2]
            return fixed + math.sqrt(u.dot(u)) * slope

        self.k = k
        self.stage = stage
        self.bound = bound
        self.field = lambda x: stage(x)[0]


@dataclass
class RegularizedSystem:
    """The continuous blend of a PWS system with band half-width eps."""

    base: PwsSystem
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be a finite positive number")
        base = self.base
        if (base.topology == "chain"
                and all(m.is_affine for m in base.manifolds)
                and not _chain_bands_disjoint(base, self.eps, base.box)):
            raise ValueError(
                f"the {self.eps:g}-bands of consecutive manifolds meet inside the box")
        self._weights = _chain_weights if base.topology == "chain" else _cross_weights
        # a point within TOL_EVENT of an edge counts as in the band: the flow
        # engine never flags a surface it starts on, so a stretch started
        # there would cross the band with the plain mode's field
        self._edge = self.eps + TOL_EVENT
        # the manifold values H(x) and the stacked mode fields f_i(x)
        self._surfaces = _EventSurfaces(base, base.manifolds)
        self._H = self._surfaces.values
        self._bands = {}
        self._affine = base.is_affine
        if self._affine:
            As = np.stack([m.affine.A for m in base.modes])
            bs = np.stack([m.affine.b for m in base.modes])
            self._As, self._bs = As, bs
            self._fields = lambda x: As @ x + bs
            self._jacs = lambda x: As
        else:
            self._fields = lambda x: np.array([m.f(x) for m in base.modes])
            self._jacs = lambda x: np.array([m.jac(x) for m in base.modes])

    def field(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (self._weights(np.clip(self._H(x) / self.eps, -1.0, 1.0))
                @ self._fields(x))

    def jacobian(self, x) -> np.ndarray:
        """Jacobian of the blend ``field`` at x: sum_i w_i J_i, plus one
        rank-one term (dW_k . F) g_k^T / eps per manifold k with
        |H_k| <= eps, where F stacks the mode fields, g_k is the gradient of
        H_k and dW_k = (W(p_k = 1) - W(p_k = -1)) / 2 is the slope of the
        weights, affine in each clamp p_k. At the band's edges the clamp's
        inner slope 1 is taken."""
        x = np.asarray(x, dtype=float)
        s = self._H(x) / self.eps
        p = np.clip(s, -1.0, 1.0)
        J = np.tensordot(self._weights(p), self._jacs(x), 1)
        F = self._fields(x)
        for k in np.flatnonzero(np.abs(s) <= 1.0):
            above, below = self._edge_weights(p, k)
            J += np.outer(0.5 * (above - below) @ F,
                          self.base.manifolds[k].grad(x) / self.eps)
        return J

    def _edge_weights(self, p, k: int) -> tuple:
        """The weights at the clamps p with p_k set to +1 and to -1. The
        weights are affine in p_k: their mean and half difference give them
        at any p_k."""
        above, below = p.copy(), p.copy()
        above[k], below[k] = 1.0, -1.0
        return self._weights(above), self._weights(below)

    def in_band(self, x) -> bool:
        """Whether a band holds x (``_bands_of``)."""
        return bool(self._bands_of(self._H(np.asarray(x, dtype=float))))

    def _bands_of(self, H) -> list:
        """The manifolds k whose band holds the manifold values H, the one
        band test: |H_k| <= eps + TOL_EVENT."""
        # a few values: Python floats beat array calls
        return [k for k, v in enumerate(np.asarray(H).tolist()) if abs(v) <= self._edge]

    def band(self, H) -> Optional[_Band]:
        """The ``_Band`` of the one manifold k whose band holds the manifold
        values H (``_bands_of``), built once per (k, signs of the other H)
        for the life of this system; None for a handle system, or where no
        band or two bands hold H (the cross's corner): there the stacked
        blend ``field`` applies."""
        if not self._affine:
            return None
        active = self._bands_of(H)
        if len(active) != 1:
            return None
        k = active[0]
        key = (k, *(v > 0.0 for j, v in enumerate(np.asarray(H).tolist()) if j != k))
        band = self._bands.get(key)
        if band is None:
            above, below = self._edge_weights(np.where(np.asarray(H) > 0.0, 1.0, -1.0), k)
            band = self._bands[key] = _Band(k, 0.5 * (above + below), 0.5 * (above - below),
                                            self._As, self._bs, self._surfaces.C,
                                            self._surfaces.d, self.eps)
        return band

    def _field_at(self, x):
        """The field that the regularized run steps from x: the ``_Band``
        closure of the band that holds x, the stacked blend ``field`` where
        no closure applies, and outside every band the plain mode's."""
        H = self._H(x)
        if not self._bands_of(H):
            return self.base.mode(locate(self.base, x, tol_boundary=0.0).mode).f
        band = self.band(H)
        return self.field if band is None else band.field

    def _stage(self, x) -> tuple:
        """(f, H, None): the stacked blend ``field`` at x and the manifold
        values, the stage of a step that no ``_Band`` serves."""
        return self.field(x), self._H(x), None


def _band_edges(man: Manifold, eps: float) -> tuple:
    """The two edges H = +eps and H = -eps of the regularization band of man."""
    if man.is_affine:
        c, d = man.affine
        return (Manifold.from_affine(f"{man.label}+", c, d + eps),
                Manifold.from_affine(f"{man.label}-", c, d - eps))
    return (Manifold.from_handles(f"{man.label}+", lambda x: man.h(x) - eps, man.grad),
            Manifold.from_handles(f"{man.label}-", lambda x: man.h(x) + eps, man.grad))


def _rk4_from(stage, x, k1, d: float):
    """One RK4 step of size d from x whose first stage k1 is given: (x1, k4)."""
    k2 = stage(x + (0.5 * d) * k1)[0]
    k3 = stage(x + (0.5 * d) * k2)[0]
    k4 = stage(x + d * k3)[0]
    return x + (d / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), k4


def _crosses_edge(H0, H1, eps: float) -> bool:
    """Whether ``_event_flags`` flags a band edge H_k = +-eps between the
    manifold values H0 and H1: its four comparisons on Python floats."""
    for a, b in zip(H0.tolist(), H1.tolist()):
        for e0, e1 in ((a - eps, b - eps), (a + eps, b + eps)):
            if (e0 > TOL_EVENT and e1 <= TOL_EVENT) or (e0 < -TOL_EVENT and e1 >= -TOL_EVENT):
                return True
    return False


def _run_bands(reg: RegularizedSystem, x, t: float, t_stop: float, edges, opts,
               builder, seg_id):
    """Step the blend from (t, x), in a band, until t_stop or until the run
    leaves every band; returns (t, x) there. Every accepted step is a
    sample, and so is every cut.

    A step in the band of one manifold of an affine system takes that
    band's ``_Band.stage``, any other the stacked blend. A step of size d is
    one RK4 step whose first stage is the last stage of the step before
    (FSAL), so each step makes four products. Its error estimate, the
    distance (d/6) ||k4 - f(x1)|| to the third-order solution of weights
    (1/6, 1/3, 1/3, 0, 1/6), must stay below TOL_BAND eps; a step above it
    is halved and taken again, and one below 1/16 of it (the estimate is of
    order d^4) lets the next double, up to the grid step. Each grid step
    also caps its substeps at the fewest equal parts that pass the RK4
    stability check on the blend's Jacobian where it starts
    (``_stable_substeps``); a band step whose grid step times the band's
    radius bound lies in RK4_DISK passes without it. A step that crosses a
    band edge H = +-eps (``edges``) is cut there, located by
    ``model._bisect`` on the edge's value along the step, so that no step
    crosses the clamp's kink. A cut that leaves the last band ends the
    stretch, and so does a step from an edge that ends outside every band;
    the flow engine takes over there.
    """
    h = opts.step
    eps = reg.eps
    tol = TOL_BAND * eps
    hs = h  # the error control's step
    stage = None
    while t < t_stop - 1e-14:
        if stage is None:  # entry, or a cut: the band that holds x
            band = reg.band(reg._H(x))
            stage = reg._stage if band is None else band.stage
            f0, H0, y0 = stage(x)
            tn = t
        if t == tn:  # a grid step starts
            tn = _next_grid(t, h, t_stop)
            delta = tn - t
            cap = delta
            if band is None or delta * band.bound(y0) > RK4_DISK:
                cap = delta / _stable_substeps(np.linalg.eigvals(reg.jacobian(x)), delta, 1)
        # equal parts of the rest of the grid step; a relative slack, since
        # tn - t carries the rounding of t
        parts = max(1, math.ceil((tn - t) / min(hs, cap) * (1.0 - 1e-9)))
        d = (tn - t) / parts
        x1, k4 = _rk4_from(stage, x, f0, d)
        f1, H1, y1 = stage(x1)
        v = k4 - f1
        err = (d / 6.0) * math.sqrt(v.dot(v))
        if err > tol:
            if d < 1e-12 * h:
                raise StepUnderflowError(f"band step underflow at t={t}")
            hs = 0.5 * d
            continue
        if _crosses_edge(H0, H1, eps):
            t, x, left = _cut(reg, stage, edges, x, t, d, f0, H0, H1)
            builder.add_point(t, x, seg_id)
            if left:
                break
            stage = None
            continue
        if err * 16.0 <= tol:
            hs = min(h, max(hs, 2.0 * d))
        t = tn if parts == 1 else t + d
        x, f0, H0, y0 = x1, f1, H1, y1
        builder.add_point(t, x, seg_id)
        if band is None:
            if not reg._bands_of(H0):
                break
            if reg.band(H0) is not None:
                stage = None
        elif abs(H0[band.k]) > reg._edge:
            break  # a step from an edge out of the band
    return t, x


def _cut(reg, stage, edges, x, t, d, f0, H0, H1):
    """The first band edge crossed by the step of size d from (t, x), with
    first stage f0, located by ``_first_hit`` on the edge's value along the
    step; (t_e, x_e, left) with x_e projected onto that edge and left set
    when the step left the band of that edge and no other band holds x_e."""
    eps = reg.eps
    offsets = np.tile([eps, -eps], len(H0))  # edge e is H[e // 2] - offsets[e]
    E0 = np.repeat(H0, 2) - offsets

    def along(e):
        j, off = e // 2, offsets[e]
        return lambda theta: stage(_rk4_from(stage, x, f0, theta * d)[0])[1][j] - off

    theta, e = _first_hit(along, _event_flags(E0, np.repeat(H1, 2) - offsets, TOL_EVENT), E0)
    xe = edges[e].project(_rk4_from(stage, x, f0, theta * d)[0])
    j = e // 2
    left = abs(H0[j]) <= eps and all(k == j for k in reg._bands_of(reg._H(xe)))
    return t + theta * d, xe, left


def integrate_regularized(system: PwsSystem, eps: float, x0, t_f: float,
                          opts: Optional[SolverOptions] = None, *,
                          reg: Optional[RegularizedSystem] = None) -> Trajectory:
    """RK4 trajectory of the regularized (continuous) dynamics.

    No event logic is needed inside a regularization band, where the blend
    is stepped by RK4 with steps sized by an error estimate against
    TOL_BAND eps and capped by RK4's stability on the blend
    (``_run_bands``), each step a sample; a step that crosses a band edge is
    cut there. Outside the bands the blend coincides with a single mode,
    which the Filippov flow engine advances until it reaches a band edge
    H = +-eps, from where the blend is stepped again (raising
    StiffStepError as in ``integrate`` when the step grows a decaying
    direction of that mode).

    ``reg`` is the ``RegularizedSystem(system, eps)`` to step, for a caller
    that holds one already; it is built when not given.
    """
    opts = opts or SolverOptions()
    if reg is None:
        reg = RegularizedSystem(system, eps)
    elif reg.base is not system or reg.eps != eps:
        raise ValueError("reg is not the regularization of system at eps")
    x0 = _check_start(system, x0, t_f)

    # a sample per grid step, a few for the band cuts and edge hits; a run
    # whose band steps are shorter than the grid step grows the buffers
    builder = _Builder(system.box, t_f / opts.step + SAMPLE_SLACK)
    sid = builder.open_segment("flow", 0.0, mode=None, manifold="regularized")
    builder.add_point(0.0, x0, sid)
    if t_f == 0.0:
        return builder.finish()

    events = _EventSurfaces(system, [e for m in system.manifolds
                                     for e in _band_edges(m, eps)])
    t, x = 0.0, x0.copy()
    in_band = reg.in_band(x)
    guard = 0
    while t < t_f - 1e-14:
        guard += 1
        if guard > MAX_TRANSITIONS:
            raise StepUnderflowError(
                "too many band transitions (chattering or step underflow)")
        if in_band:
            t, x = _run_bands(reg, x, t, t_f, events.surfaces, opts, builder, sid)
        else:
            mode = system.mode(locate(system, x, tol_boundary=0.0).mode)
            kind, _, t, x = _run_flow(events, mode, x, t, t_f, opts, builder, sid)
            if kind == "hit":
                builder.add_point(t, x, sid)
        # a stretch in the bands ends outside them or on an edge it left,
        # and a flow stretch on an edge it reached
        in_band = not in_band
    builder.close_segment(sid, t)
    return builder.finish()


@dataclass
class ConvergenceTable:
    """Rows of (eps, sup-norm gap, log-log slope against the previous row)."""

    rows: list

    @property
    def eps(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    @property
    def gaps(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])

    @property
    def fitted_slope(self) -> float:
        """Least-squares slope of log gap against log eps across all rows."""
        g = self.gaps
        if np.any(g <= 0):
            return math.nan
        return float(np.polyfit(np.log(self.eps), np.log(g), 1)[0])

    def is_monotone_decreasing(self) -> bool:
        g = self.gaps
        return bool(np.all(np.diff(g) < 0))


def _regularizations(system: PwsSystem, eps_list) -> list:
    """The ``RegularizedSystem`` of each band half-width of a convergence
    study; an entry that is one already, of ``system``, is kept. Raises
    ValueError unless the widths are positive, finite and strictly
    decreasing, and each gives a valid ``RegularizedSystem`` (for an affine
    chain: bands that stay apart inside the box)."""
    eps_list = list(eps_list)
    if any(isinstance(e, RegularizedSystem) and e.base is not system for e in eps_list):
        raise ValueError("a given regularization is not of this system")
    eps_arr = [e.eps if isinstance(e, RegularizedSystem) else float(e) for e in eps_list]
    if not eps_arr or any(not e > 0 for e in eps_arr):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps values must be strictly decreasing")
    return [e if isinstance(e, RegularizedSystem) else RegularizedSystem(system, eps)
            for e, eps in zip(eps_list, eps_arr)]


def convergence_study(system: PwsSystem, x0, t_f: float, eps_list,
                      opts: Optional[SolverOptions] = None) -> ConvergenceTable:
    """Integrate the Filippov solution and the regularized one for each band
    width, and tabulate the sup-norm gaps (``_peak_gap``). ``eps_list`` holds
    the widths, each a number or its ``RegularizedSystem`` of ``system``;
    one ``RegularizedSystem`` per width serves its run and its gap."""
    regs = _regularizations(system, eps_list)
    opts = opts or SolverOptions()
    ref = integrate(system, x0, t_f, opts)
    rows = []
    prev = None
    for reg in regs:
        eps = reg.eps
        traj = integrate_regularized(system, eps, x0, t_f, opts, reg=reg)
        gap = _peak_gap(system, reg, ref, traj)
        if prev is None or gap <= 0 or prev[1] <= 0:
            slope = math.nan
        else:
            slope = math.log(gap / prev[1]) / math.log(eps / prev[0])
        rows.append((eps, gap, slope))
        prev = (eps, gap)
    return ConvergenceTable(rows)


def _peak_gap(system: PwsSystem, reg: RegularizedSystem, ref: Trajectory,
              traj: Trajectory) -> float:
    """The largest distance between the Filippov run ref and the regularized
    run traj over the samples of both: the shared grid, the Filippov run's
    events, and the regularized run's band steps, cuts and edge hits, where
    an in-band transient faster than the grid peaks. Each run's state at
    the other's sample times comes from ``_states_at``."""
    idx = np.searchsorted(ref.times, traj.times, side="right") - 1
    at_reg = _states_at(ref, idx, traj.times, lambda seg: _filippov_step(system, seg))
    gap = np.max(_column_norms((at_reg - traj.states).T))
    # the Filippov run's samples at times the regularized run has none
    seen = np.zeros(len(ref.times), dtype=bool)
    seen[idx[ref.times.take(idx) == traj.times]] = True
    own = np.flatnonzero(~seen)
    if own.size:
        times = ref.times[own]

        def blend_step(x, dt):
            return _rk4(reg._field_at(x), x, dt)
        at_ref = _states_at(traj, np.searchsorted(traj.times, times, side="right") - 1,
                            times, lambda seg: blend_step)
        gap = max(gap, np.max(_column_norms((ref.states[own] - at_ref).T)))
    return float(gap)


def _states_at(traj: Trajectory, idx, times, step_of):
    """The run's states at the given times, from its samples idx, the last
    at or before each time: the sample at its own time, else a partial step
    from it by ``step_of(segment)``, a single step (x0, dt) -> x1, for the
    segment that starts last at or before the time."""
    X = traj.states.take(idx, axis=0)
    dt = times - traj.times.take(idx)
    off = np.flatnonzero(dt > 0.0)
    if off.size:
        starts = np.array([s.t_start for s in traj.segments])
        segs = np.searchsorted(starts, times[off], side="right") - 1
        for k in set(segs.tolist()):  # np.unique would import numpy.ma, 20 ms
            step = step_of(traj.segments[k])
            for r in off[segs == k].tolist():
                X[r] = step(X[r], dt[r])
    return X


def _filippov_step(system: PwsSystem, seg):
    """The single step of the Filippov engine on the segment seg: that of
    its mode for a flow (of its target mode for a crossing), that of its
    slide for a slide."""
    if seg.kind != "slide":
        mode = system.mode(seg.mode if seg.kind == "flow" else seg.pair[1])
        return _flow_step(mode, system.is_affine)
    k = next(k for k, m in enumerate(system.manifolds) if m.label == seg.manifold)
    return _slide_steps(system, k, *seg.pair)[0]


def write_convergence_csv(table: ConvergenceTable, fh) -> None:
    fh.write("eps,sup_gap,slope_to_prev\n")
    for eps, gap, slope in table.rows:
        slope_s = "" if math.isnan(slope) else f"{slope:.17g}"
        fh.write(f"{eps:.17g},{gap:.17g},{slope_s}\n")

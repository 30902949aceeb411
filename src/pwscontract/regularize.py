"""Clamp-function regularization of the piecewise-smooth field, its one
Jacobian, stiffness-aware integration of the regularized ODE, and band-width
convergence studies against the Filippov solver.

The blend weights the modes by tables W(p) of the clamps p_k = clip(H_k / eps,
-1, 1) (``_chain_weights``, ``_cross_weights``). W is affine in each clamp, so
its slope in p_k is half the difference of W at p_k = +1 and p_k = -1; both
the band closures ``_Band`` and the Jacobian ``RegularizedSystem.jacobian``
are built from that one fact.

The regularized integrator hands every stretch outside the bands |H| <= eps
to the Filippov solver's flow engine, which stops at the band edges
H = +-eps, and substeps the blend inside them; a point on an edge, or
within TOL_EVENT past it, counts as in the band (``_bands_of``). Inside the
band of one manifold k every other clamp sits at +-1, so for an affine
system the blend there is one closed form, ``_Band``: f = M0 x + m0 +
p (M1 x + m1) with p the clamp of H_k / eps, built once per (band, signs of
the other clamps). A grid step that ends in another band is taken again with
the stacked blend ``RegularizedSystem.field``, the one formula that also
serves handle systems and the cross's corner, where both bands are active.
A grid step delta takes the fewest equal substeps, at least
ceil(delta / min(step, eps/10)), at which RK4 grows no decaying direction
of the blend's Jacobian where the step starts.
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
    StiffStepError,
    _chain_bands_disjoint,
    _check_rk4_step,
    locate,
)
from .filippov import (
    MAX_TRANSITIONS,
    TOL_EVENT,
    SolverOptions,
    Trajectory,
    _Builder,
    _EventSurfaces,
    _check_start,
    _next_grid,
    _rk4,
    _run_flow,
    integrate,
)

__all__ = [
    "RegularizedSystem",
    "ConvergenceTable",
    "integrate_regularized",
    "convergence_study",
    "sweep_widths",
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
    so on: one product y = S x + s, S = [M0; M1; c^T], s = [m0; m1; -d], and
    the clip of p = y[-1] / eps.

    Its Jacobian M0 + p M1 + u c^T / eps, u = M1 x + m1, has a spectral
    radius that ``radius`` bounds by ||M0|| + ||M1|| + ||u|| ||c|| / eps."""

    def __init__(self, k: int, w0, w1, As, bs, c, d: float, eps: float):
        n = c.shape[0]
        M0, M1 = np.tensordot(w0, As, 1), np.tensordot(w1, As, 1)
        m0, m1 = w0 @ bs, w1 @ bs
        S = np.vstack((M0, M1, c))
        s = np.concatenate((m0, m1, [-d]))
        n2 = 2 * n
        fixed = np.linalg.norm(M0, 2) + np.linalg.norm(M1, 2)
        slope = float(np.linalg.norm(c / eps))

        def field(x):
            y = S @ x
            y += s
            p = y[n2] / eps
            if p > 1.0:
                p = 1.0
            elif p < -1.0:
                p = -1.0
            return y[:n] + p * y[n:n2]

        def radius(x):
            u = M1 @ x + m1
            return fixed + math.sqrt(u @ u) * slope

        self.k = k
        self.field = field
        self.radius = radius


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
            c, d = self.base.manifolds[k].affine
            band = self._bands[key] = _Band(k, 0.5 * (above + below), 0.5 * (above - below),
                                            self._As, self._bs, c, d, self.eps)
        return band


def _band_edges(man: Manifold, eps: float) -> tuple:
    """The two edges H = +eps and H = -eps of the regularization band of man."""
    if man.is_affine:
        c, d = man.affine
        return (Manifold.from_affine(f"{man.label}+", c, d + eps),
                Manifold.from_affine(f"{man.label}-", c, d - eps))
    return (Manifold.from_handles(f"{man.label}+", lambda x: man.h(x) - eps, man.grad),
            Manifold.from_handles(f"{man.label}-", lambda x: man.h(x) + eps, man.grad))


def _substeps(f, x, delta: float, ns: int):
    sub = delta / ns
    for _ in range(ns):
        x = _rk4(f, x, sub)
    return x


def _run_bands(reg: RegularizedSystem, x, t: float, t_stop: float, H, opts,
               builder, seg_id):
    """Substep the blend from (t, x), with manifold values H in a band, one
    grid step at a time until a step ends outside every band or at t_stop;
    returns (t, x, H) there.

    A step in the band of one manifold k of an affine system substeps its
    ``_Band``; if it ends in another band it is taken again with the stacked
    blend, which any other step takes. Each step takes the fewest substeps,
    at least ceil(delta / min(step, eps/10)), that pass the RK4 stability
    check on the blend's Jacobian (``RegularizedSystem.jacobian``) where the
    step starts; a band step whose
    substep times the band's spectral-radius bound lies in ``RK4_DISK``
    passes without it.
    """
    h = opts.step
    h_band = min(h, reg.eps / 10.0)
    while t < t_stop - 1e-14:
        band = reg.band(H)
        if band is None and not reg._bands_of(H):
            break
        tn = _next_grid(t, h, t_stop)
        delta = tn - t
        # a relative slack: delta = tn - t carries the rounding of t
        ns = max(1, int(math.ceil(delta / h_band * (1.0 - 1e-9))))
        if band is None or delta / ns * band.radius(x) > RK4_DISK:
            ns = _stable_substeps(np.linalg.eigvals(reg.jacobian(x)), delta, ns)
        x1 = _substeps(reg.field if band is None else band.field, x, delta, ns)
        H1 = reg._H(x1)
        if band is not None and any(k != band.k for k in reg._bands_of(H1)):
            # the step entered another band
            x1 = _substeps(reg.field, x, delta, ns)
            H1 = reg._H(x1)
        t, x, H = tn, x1, H1
        builder.add_point(t, x, seg_id)
    return t, x, H


def integrate_regularized(system: PwsSystem, eps: float, x0, t_f: float,
                          opts: Optional[SolverOptions] = None) -> Trajectory:
    """RK4 trajectory of the regularized (continuous) dynamics.

    No event logic is needed inside a regularization band, where each grid
    step is split into substeps of at most eps/10, more where the blend is
    stiffer (``_run_bands``). Outside the bands the blend coincides with a
    single mode, which the Filippov flow engine advances until it reaches a
    band edge H = +-eps, from where the blend is substepped again (raising
    StiffStepError as in ``integrate`` when the step grows a decaying
    direction of that mode).
    """
    opts = opts or SolverOptions()
    reg = RegularizedSystem(system, eps)
    x0 = _check_start(system, x0, t_f)

    builder = _Builder(system.box)
    sid = builder.open_segment("flow", 0.0, mode=None, manifold="regularized")
    builder.add_point(0.0, x0, sid)
    if t_f == 0.0:
        return builder.finish()

    events = _EventSurfaces(system, [e for m in system.manifolds
                                     for e in _band_edges(m, eps)])
    t, x = 0.0, x0.copy()
    H = reg._H(x)
    guard = 0
    while t < t_f - 1e-14:
        guard += 1
        if guard > MAX_TRANSITIONS:
            raise RuntimeError("regularized integration stalled")
        if reg._bands_of(H):
            t, x, H = _run_bands(reg, x, t, t_f, H, opts, builder, sid)
        else:
            mode = system.mode(locate(system, x, tol_boundary=0.0).mode)
            kind, _, t, x = _run_flow(events, mode, x, t, t_f, opts, builder, sid)
            if kind == "hit":
                builder.add_point(t, x, sid)
            H = reg._H(x)
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


def sweep_widths(system: PwsSystem, eps_list) -> list:
    """The band half-widths of a convergence study as floats. Raises
    ValueError unless they are positive, finite and strictly decreasing, and
    each gives a valid ``RegularizedSystem`` (for an affine chain: bands that
    stay apart inside the box)."""
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr or any(not e > 0 for e in eps_arr):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps values must be strictly decreasing")
    for eps in eps_arr:
        RegularizedSystem(system, eps)
    return eps_arr


def convergence_study(system: PwsSystem, x0, t_f: float, eps_list,
                      opts: Optional[SolverOptions] = None) -> ConvergenceTable:
    """Integrate the Filippov and regularized solutions on a shared time grid
    for each band width and tabulate the sup-norm gaps."""
    eps_arr = sweep_widths(system, eps_list)
    opts = opts or SolverOptions()
    ref = integrate(system, x0, t_f, opts)
    t_ref, x_ref = ref.grid_samples(opts.step)
    rows = []
    prev = None
    for eps in eps_arr:
        traj = integrate_regularized(system, eps, x0, t_f, opts)
        t_reg, x_reg = traj.grid_samples(opts.step)
        m = min(len(t_ref), len(t_reg))
        if not np.allclose(t_ref[:m], t_reg[:m], atol=1e-9):
            raise RuntimeError("solvers disagree on the shared time grid")
        gap = float(np.max(_column_norms((x_ref[:m] - x_reg[:m]).T)))
        if prev is None or gap <= 0 or prev[1] <= 0:
            slope = math.nan
        else:
            slope = math.log(gap / prev[1]) / math.log(eps / prev[0])
        rows.append((eps, gap, slope))
        prev = (eps, gap)
    return ConvergenceTable(rows)


def write_convergence_csv(table: ConvergenceTable, fh) -> None:
    fh.write("eps,sup_gap,slope_to_prev\n")
    for eps, gap, slope in table.rows:
        slope_s = "" if math.isnan(slope) else f"{slope:.17g}"
        fh.write(f"{eps:.17g},{gap:.17g},{slope_s}\n")

"""Clamp-function regularization of the piecewise-smooth field, regularized
Jacobians, stiffness-aware integration of the regularized ODE, the reduced
sliding field, and band-width convergence studies against the Filippov solver.

The regularized integrator substeps the blend inside the bands |H| <= eps and
hands every stretch outside them to the Filippov solver's flow engine, which
stops at the band edges H = +-eps; a point on an edge counts as in the band.
Affine and handle systems take the same path. ``regularized_field_chain``/
``_cross`` are the plain per-mode loops that ``RegularizedSystem.field`` is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Manifold, PwsSystem, TopologyError, _chain_bands_disjoint, locate
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
    "phi",
    "phi_prime",
    "RegularizedSystem",
    "ConvergenceTable",
    "regularized_field_chain",
    "regularized_field_cross",
    "regularized_jacobian_chain",
    "regularized_jacobian_cross",
    "integrate_regularized",
    "reduced_sliding_field",
    "convergence_study",
    "sweep_widths",
    "write_convergence_csv",
]


def phi(s: float) -> float:
    """Transition clamp: 1 for s >= 1, s on (-1, 1), -1 for s <= -1."""
    if s >= 1.0:
        return 1.0
    if s <= -1.0:
        return -1.0
    return float(s)


def phi_prime(s: float) -> float:
    """Derivative of the clamp; at the kinks |s| = 1 the inner-closure value 1."""
    return 1.0 if abs(s) <= 1.0 else 0.0


def _chain_weights(phis: np.ndarray) -> np.ndarray:
    """Mode weights of the chain blend for given phi(H_k / eps) values."""
    nman = phis.shape[0]
    if nman == 0:
        return np.ones(1)
    w = np.empty(nman + 1)
    w[0] = 0.5 * (1.0 - phis[0])
    for i in range(1, nman):
        w[i] = 0.5 * (phis[i - 1] - phis[i])
    w[nman] = 0.5 * (1.0 + phis[nman - 1])
    return w


def _cross_weights(phis) -> np.ndarray:
    """Mode weights of the planar-cross blend for phi(H_1/eps), phi(H_2/eps)."""
    p1, p2 = phis
    return 0.25 * np.array([
        (1.0 + p1) * (1.0 - p2),
        (1.0 + p1) * (1.0 + p2),
        (1.0 - p1) * (1.0 + p2),
        (1.0 - p1) * (1.0 - p2),
    ])


def regularized_field_chain(system: PwsSystem, eps: float, x) -> np.ndarray:
    """Blended field of a chain system: each mode weighted by clamp values of
    its two bounding manifold functions. Equals f_i(x) outside all bands."""
    if system.topology != "chain":
        raise TopologyError("chain regularization needs a chain system")
    x = np.asarray(x, dtype=float)
    if not system.manifolds:
        return system.f(1, x)
    phis = np.clip(system.h_values(x) / eps, -1.0, 1.0)
    w = _chain_weights(phis)
    out = np.zeros(system.dimension)
    for i, wi in enumerate(w):
        if wi != 0.0:
            out += wi * system.f(i + 1, x)
    return out


def regularized_field_cross(system: PwsSystem, eps: float, x) -> np.ndarray:
    """Blended field of a planar cross: four clamp-product weights."""
    if system.topology != "planar_cross":
        raise TopologyError("cross regularization needs a planar_cross system")
    x = np.asarray(x, dtype=float)
    w = _cross_weights(np.clip(system.h_values(x) / eps, -1.0, 1.0))
    out = np.zeros(2)
    for i, wi in enumerate(w):
        if wi != 0.0:
            out += wi * system.f(i + 1, x)
    return out


def regularized_jacobian_chain(system: PwsSystem, eps: float, x) -> np.ndarray:
    """Jacobian of the chain blend: weighted mode Jacobians plus one rank-one
    clamp-slope term per manifold band. At clamp kinks the inner-closure slope
    value 1 is used."""
    if system.topology != "chain":
        raise TopologyError("chain regularization needs a chain system")
    x = np.asarray(x, dtype=float)
    n = system.dimension
    if not system.manifolds:
        return system.modes[0].jac(x)
    hvals = system.h_values(x)
    phis = np.clip(hvals / eps, -1.0, 1.0)
    w = _chain_weights(phis)
    J = np.zeros((n, n))
    for i, wi in enumerate(w):
        if wi != 0.0:
            J += wi * system.modes[i].jac(x)
    for k, man in enumerate(system.manifolds):
        slope = phi_prime(hvals[k] / eps)
        if slope != 0.0:
            df = system.f(k + 2, x) - system.f(k + 1, x)
            J += (slope / (2.0 * eps)) * np.outer(df, man.grad(x))
    return J


def regularized_jacobian_cross(system: PwsSystem, eps: float, x) -> np.ndarray:
    """Jacobian of the cross blend: four weighted mode Jacobians plus the four
    clamp-slope rank-one terms (two plain, two mixed with the other clamp)."""
    if system.topology != "planar_cross":
        raise TopologyError("cross regularization needs a planar_cross system")
    x = np.asarray(x, dtype=float)
    h1, h2 = system.h_values(x)
    p1, p2 = phi(h1 / eps), phi(h2 / eps)
    dp1, dp2 = phi_prime(h1 / eps), phi_prime(h2 / eps)
    f1, f2, f3, f4 = (system.f(i, x) for i in (1, 2, 3, 4))
    g1 = system.manifolds[0].grad(x)
    g2 = system.manifolds[1].grad(x)
    J = np.zeros((2, 2))
    if dp1 != 0.0:
        J += dp1 * np.outer(f1 + f2 - f3 - f4, g1)
        J += dp1 * p2 * np.outer(f2 + f4 - f3 - f1, g1)
    if dp2 != 0.0:
        J += dp2 * np.outer(f2 + f3 - f1 - f4, g2)
        J += dp2 * p1 * np.outer(f2 + f4 - f3 - f1, g2)
    J /= 4.0 * eps
    for i, wi in enumerate(_cross_weights((p1, p2))):
        if wi != 0.0:
            J += wi * system.modes[i].jac(x)
    return J


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
        # the manifold values H(x) and the stacked mode fields f_i(x)
        self._H = _EventSurfaces(base, base.manifolds).values
        if base.is_affine:
            As = np.stack([m.affine.A for m in base.modes])
            bs = np.stack([m.affine.b for m in base.modes])
            self._fields = lambda x: As @ x + bs
        else:
            self._fields = lambda x: np.array([m.f(x) for m in base.modes])

    def field(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (self._weights(np.clip(self._H(x) / self.eps, -1.0, 1.0))
                @ self._fields(x))

    def min_h_abs(self, x) -> float:
        return float(np.min(np.abs(self._H(np.asarray(x, dtype=float))),
                            initial=math.inf))

    def in_band(self, x) -> bool:
        return self.min_h_abs(x) <= self.eps


def _band_edges(man: Manifold, eps: float) -> tuple:
    """The two edges H = +eps and H = -eps of the regularization band of man."""
    if man.is_affine:
        c, d = man.affine
        return (Manifold.from_affine(f"{man.label}+", c, d + eps),
                Manifold.from_affine(f"{man.label}-", c, d - eps))
    return (Manifold.from_handles(f"{man.label}+", lambda x: man.h(x) - eps, man.grad),
            Manifold.from_handles(f"{man.label}-", lambda x: man.h(x) + eps, man.grad))


def integrate_regularized(system: PwsSystem, eps: float, x0, t_f: float,
                          opts: Optional[SolverOptions] = None) -> Trajectory:
    """RK4 trajectory of the regularized (continuous) dynamics.

    No event logic is needed inside a regularization band, where the step is
    clamped to min(step, eps/10) to control the stiffness of the blend.
    Outside the bands the blend coincides with a single mode, which the
    Filippov flow engine advances until it reaches a band edge H = +-eps,
    from where the blend is substepped again (raising StiffStepError as in
    ``integrate`` when the step grows a decaying direction of that mode).
    """
    opts = opts or SolverOptions()
    reg = RegularizedSystem(system, eps)
    x0 = _check_start(system, x0, t_f)

    builder = _Builder(system.dimension)
    sid = builder.open_segment("flow", 0.0, mode=None, manifold="regularized")
    builder.add_point(0.0, x0, sid)
    if t_f == 0.0:
        return builder.finish()

    h_band = min(opts.step, eps / 10.0)
    events = _EventSurfaces(system, [e for m in system.manifolds
                                     for e in _band_edges(m, eps)])
    # a point within TOL_EVENT of an edge counts as in the band: the flow
    # engine never flags a surface it starts on, so a stretch started there
    # would cross the band with the plain mode's field
    edge = eps + TOL_EVENT
    t, x = 0.0, x0.copy()
    guard = 0
    while t < t_f - 1e-14:
        guard += 1
        if guard > MAX_TRANSITIONS:
            raise RuntimeError("regularized integration stalled")
        if reg.min_h_abs(x) <= edge:
            # inside a band or on its edge: substep the blend
            while t < t_f - 1e-14 and reg.min_h_abs(x) <= edge:
                tn = _next_grid(t, opts.step, t_f)
                delta = tn - t
                ns = max(1, int(math.ceil(delta / h_band - 1e-12)))
                sub = delta / ns
                for _ in range(ns):
                    x = _rk4(reg.field, x, sub)
                t = tn
                builder.add_point(t, x, sid)
        else:
            mode = system.mode(locate(system, x, tol_boundary=0.0).mode)
            kind, _, t, x = _run_flow(events, mode, x, t, t_f, opts, builder, sid)
            if kind == "hit":
                builder.add_point(t, x, sid)
    builder.close_segment(sid, t)
    return builder.finish()


def reduced_sliding_field(system: PwsSystem, i: int, x) -> np.ndarray:
    """Slow components of the sliding motion on the manifold between modes
    i and i+1, computed with the critical-manifold weight
    sigma_{i+1} / (sigma_{i+1} - sigma_i) on f_i.

    For an axis-aligned manifold normal the weight reduces to the ratio of the
    fast field components; the component along the dominant normal axis is
    dropped and the remaining n-1 slow rates are returned.
    """
    if system.topology != "chain":
        raise TopologyError("reduced sliding dynamics applies to chain systems")
    x = np.asarray(x, dtype=float)
    man = system.manifolds[i - 1]
    fi = system.f(i, x)
    fj = system.f(i + 1, x)
    g = man.grad(x)
    si = float(np.dot(g, fi))
    sj = float(np.dot(g, fj))
    den = sj - si
    pivot = int(np.argmax(np.abs(g)))
    keep = [k for k in range(system.dimension) if k != pivot]
    if abs(den) <= 1e-14 * max(1.0, abs(si), abs(sj)):
        if np.allclose(fi, fj, rtol=0.0, atol=1e-12):
            return fi[keep]
        raise ValueError(
            "degenerate sliding configuration: equal Lie derivatives for "
            "distinct fields (transversality violated)")
    w = sj / den
    fred = w * fi + (1.0 - w) * fj
    return fred[keep]


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
        gap = float(np.max(np.linalg.norm(x_ref[:m] - x_reg[:m], axis=1)))
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

"""Reference computations made apart from pwscontract, used to check its outputs.

Everything here reads the shipped JSON configs directly and uses only numpy:
the matrix measure by ``numpy.linalg.eigvalsh``, equilibria by
``numpy.linalg.solve``, the certificate conditions of the paper by vertex
enumeration of the planar domains, the pairwise decay bound and the log-log
slope by their definitions. No result of the program is stored here.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL_ZERO = 1e-9  # allowance of the zero-bound conditions, as the program grants
TOL_FLOW = 1e-12  # a flow margin of exactly 0 passes (example1 at c = 0.5)
TOL_H = 1e-9  # |H| allowed on a sliding sample
TOL_EQ = 1e-4  # distance to the equilibrium at T = 20


class CheckError(Exception):
    """An output of the program contradicts a reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def mu(Q: np.ndarray, M: np.ndarray) -> float:
    """Matrix measure lambda_max(sym(Q M Q^-1)) by numpy's symmetric solver."""
    S = Q @ M @ np.linalg.inv(Q)
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])


class PlanarSystem:
    """An affine planar PWS system read straight from a config file."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["dimension"] != 2:
            raise ValueError("the reference checks handle planar systems only")
        self.topology = doc["topology"]
        self.A = [np.array(m["A"], dtype=float) for m in doc["modes"]]
        self.b = [np.array(m["b"], dtype=float) for m in doc["modes"]]
        self.planes = [(np.array(m["c"], dtype=float), float(m["d"]))
                       for m in doc["manifolds"]]
        self.lo = np.array(doc["box"]["lower"], dtype=float)
        self.hi = np.array(doc["box"]["upper"], dtype=float)

    def f(self, i: int, x) -> np.ndarray:
        """Field of mode i (0-based)."""
        return self.A[i] @ x + self.b[i]

    def h(self, x) -> np.ndarray:
        """Values of every manifold function at x."""
        return np.array([c @ x - d for c, d in self.planes])

    def region(self, x) -> int:
        """0-based mode whose open region holds x."""
        h = self.h(x)
        if self.topology == "chain":
            return int(np.sum(h > 0))
        return {(1, -1): 0, (1, 1): 1, (-1, 1): 2, (-1, -1): 3}[
            (int(np.sign(h[0])), int(np.sign(h[1])))]

    def equilibrium(self) -> np.ndarray:
        """The equilibrium of the affine mode that contains it."""
        found = []
        for i in range(len(self.A)):
            x = np.linalg.solve(self.A[i], -self.b[i])
            if np.all(x >= self.lo) and np.all(x <= self.hi) and self.region(x) == i:
                found.append(x)
        if len(found) != 1:
            raise ValueError(f"expected one admissible equilibrium, got {len(found)}")
        return found[0]

    def max_real_eig(self) -> float:
        return max(float(np.max(np.linalg.eigvals(A).real)) for A in self.A)

    def segment_points(self, k: int, halfplanes=()) -> list:
        """Candidate vertices of {c_k . x = d_k} in the box, cut by the
        half-planes a . x <= b; the endpoints of the segment are among them."""
        c, d = self.planes[k]
        cuts = list(halfplanes)
        lines = [(np.array(e), v) for e, v in (
            ((1.0, 0.0), self.hi[0]), ((-1.0, 0.0), -self.lo[0]),
            ((0.0, 1.0), self.hi[1]), ((0.0, -1.0), -self.lo[1]))] + cuts
        pts = []
        for a, v in lines:
            M = np.vstack([c, a])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            p = np.linalg.solve(M, np.array([d, v]))
            inside = np.all(p >= self.lo - 1e-9) and np.all(p <= self.hi + 1e-9)
            if inside and all(a2 @ p <= v2 + 1e-9 for a2, v2 in cuts):
                pts.append(p)
        return pts

    def certificate(self, Q, c: float) -> dict:
        """Worst value of every limit condition of the certificate at (Q, c):
        {condition id: (kind, worst)}. Flow conditions need worst <= -c, the
        jump and equality conditions worst <= 0."""
        Q = np.asarray(Q, dtype=float)
        out = {f"flow[{i + 1}]": ("flow", mu(Q, A)) for i, A in enumerate(self.A)}

        def worst(k, combo, halfplanes=()):
            g = self.planes[k][0]
            pts = self.segment_points(k, halfplanes)
            return max(mu(Q, np.outer(combo(x), g)) for x in pts)

        if self.topology == "chain":
            for k in range(len(self.planes)):
                out[f"jump[{k + 1}]"] = ("jump", worst(
                    k, lambda x, k=k: self.f(k + 1, x) - self.f(k, x)))
            return out
        f = self.f
        full1 = lambda x: f(0, x) + f(1, x) - f(2, x) - f(3, x)
        full2 = lambda x: -f(0, x) + f(1, x) + f(2, x) - f(3, x)
        diag = lambda x: -f(0, x) + f(1, x) - f(2, x) + f(3, x)
        neg = lambda x: -diag(x)
        (c1, d1), (c2, d2) = self.planes
        out["manifold[1]"] = ("jump", worst(0, full1))
        out["manifold[2]"] = ("jump", worst(1, full2))
        out["half[1,+]"] = ("jump", worst(0, diag, [(-c2, -d2)]))  # H2 >= 0
        out["half[1,-]"] = ("jump", worst(0, neg, [(c2, d2)]))  # H2 <= 0
        out["half[2,+]"] = ("jump", worst(1, diag, [(-c1, -d1)]))  # H1 >= 0
        out["half[2,-]"] = ("jump", worst(1, neg, [(c1, d1)]))  # H1 <= 0
        x_tilde = np.linalg.solve(np.vstack([c1, c2]), np.array([d1, d2]))
        out["intersection-eq"] = ("equality", float(np.linalg.norm(diag(x_tilde))))
        return out

    def certifies(self, Q, c: float, tol_flow: float = TOL_FLOW,
                  tol_zero: float = TOL_ZERO) -> bool:
        return all(w <= (-c + tol_flow if kind == "flow" else tol_zero)
                   for kind, w in self.certificate(Q, c).values())

    def flow_margin(self, Q, c: float) -> float:
        """Smallest -c - mu_Q(A_i): its sign decides the flow conditions."""
        Q = np.asarray(Q, dtype=float)
        return min(-c - mu(Q, A) for A in self.A)


def decay_violation(d: np.ndarray, t: np.ndarray, c: float) -> float:
    """Largest log(d(t) e^{c t}) - min_{s <= t} log(d(s) e^{c s}); the pair
    decays at rate c within a factor (1 + tol) iff this is <= log(1 + tol)."""
    g = np.log(d) + c * t
    return float(np.max(g - np.minimum.accumulate(g)))


def grid_index(t: np.ndarray, h: float) -> np.ndarray:
    """Indices of the first sample at each multiple of h, plus the last sample."""
    k = np.round(t / h)
    on = np.abs(t - k * h) <= 1e-9
    on[-1] = True
    idx = np.flatnonzero(on)
    return idx[np.concatenate(([True], np.diff(t[idx]) > 1e-12))]


def loglog_slope(eps, gaps) -> float:
    """Least-squares slope of log gap against log eps."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(gaps, dtype=float))
    xm, ym = x.mean(), y.mean()
    return float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))


def check_slides(system: PlanarSystem, states, lambdas, what: str) -> int:
    """|H| <= 1e-9 and lambda in [0, 1] on every sliding sample; returns
    the number of sliding samples."""
    states = np.asarray(states, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if len(states) == 0:
        return 0
    h = np.min(np.abs(np.stack([states @ c - d for c, d in system.planes], axis=1)),
               axis=1)
    require(float(np.max(h)) <= TOL_H,
            f"{what}: sliding sample off its manifold, |H| = {float(np.max(h)):.3g}")
    require(bool(np.all((lambdas >= 0.0) & (lambdas <= 1.0))),
            f"{what}: sliding weight outside [0, 1]")
    return len(states)


def check_final(system: PlanarSystem, eq: np.ndarray, x_final, what: str) -> None:
    dist = float(np.linalg.norm(np.asarray(x_final, dtype=float) - eq))
    require(dist <= TOL_EQ, f"{what}: ends {dist:.3g} from the equilibrium {eq}")


def check_flow_worsts(conditions, Q, A_list, what: str) -> None:
    """Flow 'worst' values reported by the program equal eigvalsh of
    sym(Q A Q^-1) to 1e-9."""
    Q = np.asarray(Q, dtype=float)
    seen = 0
    for cond_id, worst in conditions:
        if not cond_id.startswith("flow["):
            continue
        i = int(cond_id[5:-1]) - 1
        ref = mu(Q, A_list[i])
        require(math.isfinite(worst) and abs(worst - ref) <= 1e-9,
                f"{what}: {cond_id} worst {worst!r} != eigvalsh {ref!r}")
        seen += 1
    require(seen == len(A_list), f"{what}: {seen} flow conditions for {len(A_list)} modes")

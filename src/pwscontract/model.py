"""Piecewise-smooth system data model: modes, switching manifolds, topology,
region membership, and config ingestion.

Two topologies are supported. A "chain" has N modes separated by N-1
non-intersecting manifolds, mode 1 on the negative side of the first manifold.
A "planar_cross" is a planar system with two intersecting manifolds and four
modes in the fixed sign order::

    mode 1: H1 > 0, H2 < 0      mode 2: H1 > 0, H2 > 0
    mode 3: H1 < 0, H2 > 0      mode 4: H1 < 0, H2 < 0
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .measure import Metric

__all__ = [
    "ConfigError",
    "TopologyError",
    "StiffStepError",
    "EscapingRegionError",
    "IntersectionAssumptionError",
    "StepUnderflowError",
    "NonFiniteStateError",
    "AffineField",
    "Mode",
    "Manifold",
    "AnalysisBox",
    "PwsSystem",
    "RegionLocation",
    "IntersectionCheck",
    "load_system",
    "load_system_file",
    "builtin_config_path",
    "locate",
    "check_intersection_assumption",
    "check_box_invariance",
]

TOL_BOUNDARY = 1e-9
TOL_LIE = 1e-10
TOL_EVENT = 1e-10  # |H| at which a bisected root of a surface is accepted
MAX_BISECT = 80
TOL_CONTRACT = 1e-12  # an RK4 step map contracts when ||R(h)||_2 <= 1 - TOL_CONTRACT
TOL_CENTRE = 1e-10  # most error of a step map's fixed point, relative to 1 + its norm

# planar cross sign table: mode index -> (sign of H1, sign of H2)
_CROSS_SIGNS = {1: (1, -1), 2: (1, 1), 3: (-1, 1), 4: (-1, -1)}


class ConfigError(ValueError):
    """Raised when a config document violates the schema."""


class TopologyError(RuntimeError):
    """Raised when a state's sign pattern matches no region."""


def _require_finite(a, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} must be finite")


def _floats(v, name: str) -> np.ndarray:
    """v as a float array; raises ConfigError unless v is a number or a
    rectangular nesting of lists of numbers (a string, a boolean or a null
    is not a number)."""
    try:
        a = np.asarray(v)
    except ValueError:  # a ragged nesting
        raise ConfigError(f"{name} must be a rectangular array of numbers") from None
    if a.dtype.kind not in "iuf" or _has_bool(v):
        raise ConfigError(f"{name} must hold numbers only")
    return a.astype(float, copy=False)


def _has_bool(v) -> bool:
    """Whether a nesting of lists holds a boolean, which numpy would read
    as 0 or 1 among numbers."""
    return isinstance(v, bool) or (isinstance(v, list) and any(map(_has_bool, v)))


def _number(v, name: str) -> float:
    a = _floats(v, name)
    if a.ndim:
        raise ConfigError(f"{name} must be a number, got shape {a.shape}")
    return float(a)


def _vec(v, n: Optional[int] = None, name: str = "vector") -> np.ndarray:
    a = _floats(v, name)
    if a.ndim != 1:
        raise ConfigError(f"{name} must be a flat vector, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise ConfigError(f"{name} must have length {n}, got {a.shape[0]}")
    return a


class StiffStepError(RuntimeError):
    """Raised when an RK4 step is outside the stability region of a decaying
    mode, so the discrete flow would grow where the true flow decays."""


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


def _memo(store: dict, key, build: Callable):
    """``store[key]``: ``build()`` on the first call, kept and returned by
    every later one (None included). A build that raises stores nothing and
    raises again on the next call. Two threads may both build; both get the
    first value stored."""
    if key in store:
        return store[key]
    return store.setdefault(key, build())


def _check_rk4_step(eigenvalues, h: float) -> None:
    """Raise StiffStepError when an RK4 step of size h grows a decaying
    direction: some eigenvalue lam with Re lam < 0 has |p(h lam)| >= 1."""
    # The eigenvalues of the RK4 step map are p(h lam) with p(z) = 1 + z +
    # z^2/2 + z^3/6 + z^4/24. |p|^2 - 1 = 2 Re w + |w|^2 with w = p - 1 does
    # not cancel as h lam -> 0, so a slow decaying eigenvalue never reads 1.
    z = h * np.asarray(eigenvalues)
    w = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    growth = 2.0 * w.real + np.abs(w) ** 2
    if ((z.real < 0.0) & (growth >= 0.0)).any():
        rho = float(np.max(np.abs(1.0 + w)))
        raise StiffStepError(
            f"RK4 step h={h:g} is unstable for this decaying mode: the "
            f"spectral radius of the step map R(h) is {rho:.6g} >= 1; "
            "use a smaller --step")


@dataclass(frozen=True, eq=False)
class AffineField:
    """Affine vector field f(x) = A x + b, with the data of its classical RK4
    transition map.

    One RK4 step of x' = Ax + b with step h is exactly x -> R(h) x + r(h),
    R the degree-4 truncated exponential of hA. The powers of A behind it are
    formed at construction (ConfigError if one overflows); the block stacks of
    ``stacks`` and the fixed point of ``centre`` are built on first use, one
    entry per (step, block) and per step for the life of the field, and
    shared, read-only, by every integration that uses it.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"mode matrix must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ConfigError(f"mode offset b has shape {b.shape}, expected ({A.shape[0]},)")
        _require_finite(A, "mode matrix")
        _require_finite(b, "mode offset")
        A = A.copy()
        b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        eye = np.eye(A.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            A2 = A @ A
            A3 = A2 @ A
            powers = np.stack((eye, A, A2, A3, A3 @ A))
            offsets = np.stack((b, A @ b, A2 @ b, A3 @ b))
        if not (np.isfinite(powers).all() and np.isfinite(offsets).all()):
            raise ConfigError("the RK4 powers A^k or products A^k b overflow")
        object.__setattr__(self, "_powers", (powers, offsets))
        object.__setattr__(self, "_taylor", np.concatenate((eye, A / 2.0, A2 / 6.0, A3 / 24.0)))
        object.__setattr__(self, "_stacks", {})
        object.__setattr__(self, "_centres", {})

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    def step_map(self, h: float):
        """(R, r) of one RK4 step of size h: R = sum_m h^m A^m / m!, m = 0..4,
        and r = sum_m h^m A^(m-1) b / m!, m = 1..4, each a weighted sum of
        the stacked powers reduced along the stack in order, term by term
        as the written sum. (A BLAS product would fuse and round otherwise.)"""
        powers, offsets = self._powers
        coefs = np.array((1.0, h, h * h / 2.0, h ** 3 / 6.0, h ** 4 / 24.0))
        R = np.add.reduce(coefs[:, None, None] * powers)
        r = np.add.reduce(coefs[1:, None] * offsets)
        return R, r

    def step_taylor(self, x: np.ndarray) -> np.ndarray:
        """The (4, n) rows A^(m-1) v / m!, m = 1..4, with v = A x + b: one RK4
        step of size h from x ends at x + sum_m h^m rows[m - 1], the same
        polynomial as ``step_map``."""
        return (self._taylor @ (self.A @ x + self.b)).reshape(4, -1)

    def stacks(self, h: float, block: int):
        """Read-only (Rs, rs) with Rs[k] = R^(k+1) and rs[k] the offset of k+1
        steps, for k < block, built once per (h, block) by sequential products.

        Raises StiffStepError when building them for a step h at which a
        decaying eigenvalue of A has an RK4 growth factor of at least 1.
        """
        return _memo(self._stacks, (h, block), lambda: self._build_stacks(h, block))

    def centre(self, h: float):
        """The read-only fixed point x* of one RK4 step of size h,
        (I - R) x* = r, when that step is a Euclidean contraction,
        ||R(h)||_2 <= 1 - TOL_CONTRACT: every orbit of the step map then stays
        in the ball about x* that it starts in. None when the step does not
        contract, or when x* is not known to within TOL_CENTRE (1 + ||x*||).
        Built once per h (None included) and kept, as ``stacks``."""
        return _memo(self._centres, h, lambda: self._build_centre(h))

    def _build_centre(self, h: float):
        R, r = self.step_map(h)
        norm = float(np.linalg.norm(R, 2))
        if not norm <= 1.0 - TOL_CONTRACT:
            return None
        E = np.eye(len(r)) - R  # invertible: ||E v|| >= (1 - ||R||) ||v||
        xs = np.linalg.solve(E, r)
        size = float(np.linalg.norm(xs))
        # the exact fixed point lies within residual / (1 - ||R||) of xs; the
        # residual counts its own rounding (||E|| <= 2)
        residual = float(np.linalg.norm(E @ xs - r)) + 4 * len(r) * np.finfo(float).eps * (
            2.0 * size + float(np.linalg.norm(r)))
        if not residual <= TOL_CENTRE * (1.0 + size) * (1.0 - norm):
            return None
        xs.flags.writeable = False
        return xs

    def _build_stacks(self, h: float, block: int):
        _check_rk4_step(np.linalg.eigvals(self.A), h)
        R, r = self.step_map(h)
        n = self.A.shape[0]
        Rs = np.empty((block, n, n))
        rs = np.empty((block, n))
        Rs[0] = R
        rs[0] = r
        for k in range(1, block):
            Rs[k] = R @ Rs[k - 1]
            rs[k] = R @ rs[k - 1] + r
        Rs.flags.writeable = False
        rs.flags.writeable = False
        return Rs, rs


class Mode:
    """One smooth mode of the system: a vector field plus its Jacobian.

    Affine modes evaluate exactly as f(x) = A x + b with constant Jacobian A.
    Smooth modes wrap caller-supplied handles; a finite-difference Jacobian is
    available only behind the explicit ``allow_fd_jacobian`` opt-in.
    """

    def __init__(self, index: int, field_fn: Callable, jacobian_fn: Optional[Callable],
                 affine: Optional[AffineField] = None):
        self.index = int(index)
        self.affine = affine
        self._field = field_fn
        self._jac = jacobian_fn

    @classmethod
    def from_affine(cls, index: int, A, b) -> "Mode":
        try:
            aff = AffineField(A, b)
        except ConfigError as exc:
            raise ConfigError(f"mode {index}: {exc}") from None
        return cls(index, aff, lambda x, A=aff.A: A, affine=aff)

    @classmethod
    def from_handles(cls, index: int, field_fn: Callable, jacobian_fn: Optional[Callable] = None,
                     allow_fd_jacobian: bool = False) -> "Mode":
        if jacobian_fn is None:
            if not allow_fd_jacobian:
                raise ConfigError(
                    "smooth mode needs a Jacobian handle (or allow_fd_jacobian=True)")
            jacobian_fn = _fd_jacobian(field_fn)
        return cls(index, field_fn, jacobian_fn)

    @property
    def is_affine(self) -> bool:
        return self.affine is not None

    def f(self, x) -> np.ndarray:
        return np.asarray(self._field(np.asarray(x, dtype=float)), dtype=float)

    def f_many(self, X) -> np.ndarray:
        """f at every row of the (k, n) array X, with the bits of ``f``: one
        stacked product for an affine mode, the handle per row otherwise."""
        X = np.asarray(X, dtype=float)
        if self.affine is not None:
            return (self.affine.A @ X[..., None])[..., 0] + self.affine.b
        return np.array([self.f(x) for x in X]).reshape(X.shape)

    def jac(self, x) -> np.ndarray:
        return np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float)


def _fd_jacobian(field_fn: Callable) -> Callable:
    # central differences, step 1e-6 * (1 + |x_i|) per coordinate
    def jac(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        f0 = np.asarray(field_fn(x), dtype=float)
        J = np.empty((f0.shape[0], n))
        for i in range(n):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            J[:, i] = (np.asarray(field_fn(xp)) - np.asarray(field_fn(xm))) / (2.0 * h)
        return J

    return jac


class Manifold:
    """Codimension-one switching manifold {x | H(x) = 0}."""

    def __init__(self, label: str, h_fn: Callable, grad_fn: Callable,
                 affine: Optional[tuple] = None):
        self.label = label
        self.affine = affine  # (c, d) for H(x) = c.x - d
        self._h = h_fn
        self._grad = grad_fn
        if affine is not None:
            self._cc = float(np.dot(affine[0], affine[0]))

    @classmethod
    def from_affine(cls, label: str, c, d: float) -> "Manifold":
        c = _vec(c, name=f"manifold {label} normal").copy()
        _require_finite(c, f"manifold {label} normal")
        if not np.any(c):
            raise ConfigError(f"manifold {label} has zero normal vector")
        c.flags.writeable = False
        d = float(d)
        _require_finite(d, f"manifold {label} offset")
        return cls(label, lambda x: float(np.dot(c, x)) - d, lambda x: c, affine=(c, d))

    @classmethod
    def from_handles(cls, label: str, h_fn: Callable, grad_fn: Callable) -> "Manifold":
        return cls(label, h_fn, grad_fn)

    @property
    def is_affine(self) -> bool:
        return self.affine is not None

    def h(self, x) -> float:
        return float(self._h(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def h_many(self, X) -> np.ndarray:
        """H at every row of the (k, n) array X, with the bits of ``h``."""
        X = np.asarray(X, dtype=float)
        if self.affine is not None:
            c, d = self.affine
            return (c @ X[..., None])[..., 0] - d
        return np.array([self.h(x) for x in X])

    def grad_many(self, X) -> np.ndarray:
        """The gradient at every row of the (k, n) array X."""
        X = np.asarray(X, dtype=float)
        if self.affine is not None:
            return np.broadcast_to(self.affine[0], X.shape)
        return np.array([self.grad(x) for x in X]).reshape(X.shape)

    def project(self, x) -> np.ndarray:
        """Nearest-point projection onto {H = 0}; exact for the affine form."""
        x = np.asarray(x, dtype=float)
        if self.affine is not None:
            c, d = self.affine
            return x - c * ((float(np.dot(c, x)) - d) / self._cc)
        # one damped Newton step along the gradient, repeated
        for _ in range(8):
            hv = self.h(x)
            if abs(hv) < 1e-14:
                break
            g = self.grad(x)
            x = x - g * (hv / float(np.dot(g, g)))
        return x


@dataclass(frozen=True, eq=False)
class AnalysisBox:
    """Axis-aligned box standing in for the forward-invariant analysis set."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _vec(self.lower, name="box lower").copy()
        up = _vec(self.upper, n=lo.shape[0], name="box upper").copy()
        _require_finite(lo, "box lower")
        _require_finite(up, "box upper")
        if not np.all(lo < up):
            raise ConfigError("box lower bound must be strictly below upper bound")
        lo.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dimension(self) -> int:
        return int(self.lower.shape[0])

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True)
class RegionLocation:
    """Where a state sits relative to the switching manifolds."""

    kind: str  # "interior" | "on_manifold"
    mode: Optional[int]
    manifolds: tuple
    h_values: np.ndarray

    @property
    def is_interior(self) -> bool:
        return self.kind == "interior"


class PwsSystem:
    """A piecewise-smooth system: modes, manifolds, topology, analysis box.

    The box is the one set the system is analysed over: a chain's order is
    checked there, a planar cross's manifolds must meet in one point there,
    and every certificate condition is quantified there. To analyse another
    box, build ``PwsSystem(n, topology, system.modes, system.manifolds,
    box)``, which is validated and derives its own objects.

    A system is not changed after construction: its ``modes`` and
    ``manifolds`` are tuples, and what is derived from them is built once
    and kept, read-only, in one memo on the system (``_derived``): each
    ``ConditionTable`` of ``certify.condition_table``, the kernel of each
    slide (``filippov._slide_steps``), the event surfaces of the manifolds,
    the common-sector check, each ``RegularizedSystem`` and the set-up of
    the metric search (``qsearch``).
    """

    def __init__(self, dimension: int, topology: str, modes: Sequence[Mode],
                 manifolds: Sequence[Manifold], box: AnalysisBox,
                 metric: Optional[Metric] = None):
        self.dimension = int(dimension)
        self.topology = topology
        self.modes = tuple(modes)
        self.manifolds = tuple(manifolds)
        self.box = box
        self.metric = metric
        self._memo: dict = {}  # see ``_derived``
        self._validate()

    def _validate(self):
        if self.topology not in ("chain", "planar_cross"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.box.dimension != self.dimension:
            raise ConfigError("box dimension does not match system dimension")
        if self.topology == "chain":
            if len(self.modes) != len(self.manifolds) + 1:
                raise ConfigError(
                    f"chain needs N modes and N-1 manifolds, got {len(self.modes)} "
                    f"modes and {len(self.manifolds)} manifolds")
        else:
            if self.dimension != 2:
                raise ConfigError("planar_cross topology requires dimension 2")
            if len(self.modes) != 4 or len(self.manifolds) != 2:
                raise ConfigError("planar_cross needs exactly 4 modes and 2 manifolds")
        for k, mode in enumerate(self.modes, start=1):
            if mode.index != k:
                raise ConfigError(f"mode {k} carries index {mode.index}")
        if (self.topology == "chain" and all(m.is_affine for m in self.manifolds)
                and not _chain_bands_disjoint(self, 0.0)):
            raise ConfigError(
                "chain manifolds are out of order: inside the box, H_k <= 0 "
                "must imply H_k+1 < 0 for every consecutive pair")
        if self.topology == "planar_cross" and all(m.is_affine for m in self.manifolds):
            _cross_point(self)

    def _derived(self, key, build):
        """The object derived from this system under ``key``, kept in its
        memo by ``_memo``."""
        return _memo(self._memo, key, build)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def is_affine(self) -> bool:
        return all(m.is_affine for m in self.modes) and all(
            s.is_affine for s in self.manifolds)

    def mode(self, index: int) -> Mode:
        return self.modes[index - 1]

    def f(self, index: int, x) -> np.ndarray:
        return self.modes[index - 1].f(x)

    def h_values(self, x) -> np.ndarray:
        return np.array([s.h(x) for s in self.manifolds])

    def region_signs(self, mode_index: int) -> tuple:
        """Required sign of each manifold value inside mode ``mode_index``."""
        if self.topology == "chain":
            return tuple(1 if j < mode_index - 1 else -1
                         for j in range(len(self.manifolds)))
        return _CROSS_SIGNS[mode_index]

    def adjacent_modes(self, manifold_idx: int, x) -> tuple:
        """Mode pair (negative side, positive side) at x on the given manifold.

        For a planar cross the pair depends on the side of the other manifold;
        raises TopologyError at the intersection where the pair is ambiguous.
        """
        if self.topology == "chain":
            return manifold_idx + 1, manifold_idx + 2
        other = 1 - manifold_idx
        h_other = self.manifolds[other].h(x)
        if abs(h_other) <= TOL_BOUNDARY:
            raise TopologyError(
                "adjacent mode pair is ambiguous at the manifold intersection")
        if manifold_idx == 0:  # H1 switches; pair ordered by H1 sign
            return (4, 1) if h_other < 0 else (3, 2)
        return (1, 2) if h_other > 0 else (4, 3)

    def manifold_between(self, i: int, j: int) -> int:
        """Manifold index separating modes i and j."""
        if self.topology == "chain":
            if abs(i - j) != 1:
                raise TopologyError(f"modes {i} and {j} are not adjacent in the chain")
            return min(i, j) - 1
        pair = frozenset((i, j))
        table = {frozenset((4, 1)): 0, frozenset((3, 2)): 0,
                 frozenset((1, 2)): 1, frozenset((4, 3)): 1}
        if pair not in table:
            raise TopologyError(f"modes {i} and {j} do not share a manifold")
        return table[pair]


def _mode_from_config(idx: int, entry: dict, n: int) -> Mode:
    if not isinstance(entry, dict) or "A" not in entry or "b" not in entry:
        raise ConfigError(f"mode {idx} must be an object with keys 'A' and 'b'")
    A = _floats(entry["A"], f"mode {idx} matrix")
    if A.shape != (n, n):
        raise ConfigError(f"mode {idx} matrix has shape {A.shape}, expected ({n}, {n})")
    b = _vec(entry["b"], n, f"mode {idx} offset")
    return Mode.from_affine(idx, A, b)


def load_system(text: str) -> PwsSystem:
    """Parse a JSON config document into a validated PwsSystem.

    Schema::

        {
          "dimension": n,
          "topology": "chain" | "planar_cross",
          "modes": [{"A": [[...]], "b": [...]}, ...],
          "manifolds": [{"c": [...], "d": <float>, "label": <optional>}, ...],
          "box": {"lower": [...], "upper": [...]},
          "metric": {"Q": [[...]], "c": <float>}        # optional
        }

    Affine data is parsed exactly as written. Only affine modes and affine
    manifolds are accepted from config; smooth handles go through the
    programmatic constructors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key in ("dimension", "topology", "modes", "manifolds", "box"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    n = doc["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("dimension must be a positive integer")
    topology = doc["topology"]
    modes = [_mode_from_config(i, m, n) for i, m in enumerate(doc["modes"], start=1)]
    manifolds = []
    for k, entry in enumerate(doc["manifolds"]):
        if not isinstance(entry, dict) or "c" not in entry or "d" not in entry:
            raise ConfigError(f"manifold {k} must be an object with keys 'c' and 'd'")
        if topology == "chain":
            label = entry.get("label", f"sigma_{k + 1}_{k + 2}")
        else:
            label = entry.get("label", f"sigma_{k + 1}")
        manifolds.append(Manifold.from_affine(
            label, _vec(entry["c"], n, f"manifold {label} normal"),
            _number(entry["d"], f"manifold {label} offset")))
    box_doc = doc["box"]
    if not isinstance(box_doc, dict) or "lower" not in box_doc or "upper" not in box_doc:
        raise ConfigError("box must be an object with keys 'lower' and 'upper'")
    box = AnalysisBox(_vec(box_doc["lower"], n, "box lower"),
                      _vec(box_doc["upper"], n, "box upper"))
    metric = None
    if "metric" in doc:
        mdoc = doc["metric"]
        if not isinstance(mdoc, dict) or "Q" not in mdoc or "c" not in mdoc:
            raise ConfigError("metric must be an object with keys 'Q' and 'c'")
        Q, c = _floats(mdoc["Q"], "metric Q"), _number(mdoc["c"], "metric rate c")
        _require_finite(Q, "metric Q")
        _require_finite(c, "metric rate c")
        if Q.shape != (n, n):
            raise ConfigError(f"metric Q has shape {Q.shape}, expected ({n}, {n})")
        try:
            metric = Metric(Q, c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return PwsSystem(n, topology, modes, manifolds, box, metric)


def load_system_file(path) -> PwsSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return load_system(fh.read())


def builtin_config_path(name: str):
    """Path of a packaged config; accepts 'example1' or 'example2'."""
    ref = resources.files("pwscontract").joinpath(f"configs/{name}.json")
    if not ref.is_file():
        raise ConfigError(f"unknown builtin config {name!r}")
    return ref


def locate(system: PwsSystem, x, tol_boundary: float = TOL_BOUNDARY) -> RegionLocation:
    """Classify x as interior to a mode region or on one or more manifolds."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("state must be finite")
    h = system.h_values(x)
    on = [k for k, v in enumerate(h) if abs(v) <= tol_boundary]
    if on:
        labels = tuple(system.manifolds[k].label for k in on)
        return RegionLocation("on_manifold", None, labels, h)
    if system.topology == "chain":
        if len(h) == 0:
            return RegionLocation("interior", 1, (), h)
        pos = h > 0
        k = int(np.sum(pos))
        # valid chain patterns are monotone: all positives before all negatives
        if not np.all(pos[:k]) or np.any(pos[k:]):
            raise TopologyError(f"sign pattern {np.sign(h)} matches no chain region")
        return RegionLocation("interior", k + 1, (), h)
    signs = (1 if h[0] > 0 else -1, 1 if h[1] > 0 else -1)
    for mode_idx, pattern in _CROSS_SIGNS.items():
        if signs == pattern:
            return RegionLocation("interior", mode_idx, (), h)
    raise TopologyError(f"sign pattern {signs} matches no region")


def box_grid(box: AnalysisBox, per_axis: int, skip: Optional[int] = None) -> np.ndarray:
    """Tensor grid of ``per_axis`` points on every axis of the box except
    ``skip``, as an (N, n) array in ``indexing="ij"`` order. The ``skip``
    column holds 0 for the caller to fill."""
    axes = [np.zeros(1) if i == skip else
            np.linspace(box.lower[i], box.upper[i], per_axis)
            for i in range(box.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _dedupe(points: np.ndarray, tol=1e-9) -> np.ndarray:
    """The rows of ``points`` farther than tol (max norm) from every earlier
    row kept."""
    i, j = np.nonzero((np.abs(points[:, None] - points[None]) <= tol).all(axis=2))
    keep = np.ones(len(points), dtype=bool)
    for p, q in zip(i.tolist(), j.tolist()):  # row by row: keep[p] is final
        if p < q and keep[p]:
            keep[q] = False
    return points[keep]


def polytope_vertices(eqs, ineqs, box: AnalysisBox, tol=1e-9) -> list:
    """Vertices of {x in box : a.x = b for (a, b) in eqs, a.x <= b for (a, b)
    in ineqs}, in any dimension n: the feasible solutions of every n-subset of
    the boundary rows that holds all the equalities, with |det| >= 1e-12.

    The order is part of the result, since a reported worst case is the first
    maximum over these points: the rows are the given constraints, then the
    box faces from the last axis to the first, lower before upper; subsets go
    in ``itertools.combinations`` order, and a repeated point keeps its first
    occurrence. More than one equality is first reduced to an independent
    subset with the same solutions (``_independent_equalities``); an
    inconsistent set has no vertex."""
    n = box.dimension
    if len(eqs) > 1:
        eqs = _independent_equalities(eqs, tol)
        if eqs is None:
            return []
    rows = [(np.asarray(a, dtype=float), float(b)) for a, b in (*eqs, *ineqs)]
    for i in reversed(range(n)):
        e = np.eye(n)[i]
        rows += [(-e, -float(box.lower[i])), (e, float(box.upper[i]))]
    a = np.array([r for r, _ in rows])
    b = np.array([v for _, v in rows])
    m = len(eqs)
    subsets = np.array([(*range(m), *s) for s in
                        itertools.combinations(range(m, len(rows)), n - m)],
                       dtype=np.intp).reshape(-1, n)
    M, rhs = a[subsets], b[subsets]
    keep = np.abs(np.linalg.det(M)) >= 1e-12
    pts = np.linalg.solve(M[keep], rhs[keep][..., None])[..., 0]
    r = pts @ a.T - b
    r[:, :m] = np.abs(r[:, :m])
    return list(_dedupe(pts[(r <= tol).all(axis=1)]))


def _independent_equalities(eqs, tol):
    """The equalities a.x = b that are not linear combinations of earlier
    ones, in their order; None when a dropped equality contradicts the kept
    ones by more than tol (the set has no solution)."""
    kept = []
    for a, b in eqs:
        a, b = np.asarray(a, dtype=float), float(b)
        residual, implied = np.linalg.norm(a), 0.0
        if kept:
            A = np.array([k for k, _ in kept])
            coef = np.linalg.lstsq(A.T, a, rcond=None)[0]
            residual = np.linalg.norm(coef @ A - a)
            implied = float(coef @ [v for _, v in kept])
        if residual > 1e-12 * max(1.0, np.linalg.norm(a)):
            kept.append((a, b))
        elif abs(b - implied) > tol:
            return None
    return kept


def _chain_bands_disjoint(system: PwsSystem, eps: float) -> bool:
    """Whether the closed eps-bands of consecutive affine chain manifolds are
    disjoint and in chain order inside the system's box: {H_k <= eps} ∩ box
    must lie in {H_k+1 < -eps}. Exact via the vertices of {H_k <= eps} ∩ box;
    at eps = 0 this is the chain order of the manifolds themselves."""
    box = system.box
    for k in range(len(system.manifolds) - 1):
        c0, d0 = system.manifolds[k].affine
        below = np.reshape(polytope_vertices([], [(c0, d0 + eps)], box), (-1, box.dimension))
        if np.any(system.manifolds[k + 1].h_many(below) >= -eps):
            return False
    return True


def _bisect(H, h0: float) -> float:
    """The fraction theta in (0, 1] at which H(theta), the value of one
    surface along a step or a segment, is located: H changes sign over it,
    or lands on the surface from |h0| > TOL_EVENT. Dyadic midpoints until
    |H| <= TOL_EVENT, else the upper end after MAX_BISECT halvings."""
    pos0 = h0 > 0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        hm = H(mid)
        if abs(hm) <= TOL_EVENT:
            return mid
        if (hm > 0) == pos0:
            lo = mid
        else:
            hi = mid
    return hi


def _manifold_grid(box: AnalysisBox, manifold: Manifold, points_per_axis: int):
    """Mesh of points on {H = 0} inside the box, as the rows of an array."""
    if manifold.is_affine:
        c, d = manifold.affine
        pivot = int(np.argmax(np.abs(c)))
        pts = box_grid(box, points_per_axis, skip=pivot)
        pts[:, pivot] = (d - sum(c[i] * pts[:, i] for i in range(box.dimension)
                                 if i != pivot)) / c[pivot]
        inside = (pts >= box.lower - 1e-12) & (pts <= box.upper + 1e-12)
        return pts[inside.all(axis=1)]
    # smooth manifold: every root of H along each grid line of the first axis,
    # from the sign changes of a scan at the grid points, each located by
    # ``_bisect`` to |H| <= TOL_EVENT
    lines = box_grid(box, points_per_axis, skip=0)
    ts = np.linspace(box.lower[0], box.upper[0], points_per_axis)

    def on_line(line, t):
        x = line.copy()
        x[0] = t
        return x

    pts = []
    for line in lines:
        hs = np.array([manifold.h(on_line(line, t)) for t in ts])
        pts += [on_line(line, t) for t in ts[hs == 0.0]]
        for k in np.flatnonzero(hs[:-1] * hs[1:] < 0.0):
            t0, dt = ts[k], ts[k + 1] - ts[k]
            theta = _bisect(lambda th: manifold.h(on_line(line, t0 + th * dt)), hs[k])
            pts.append(on_line(line, t0 + theta * dt))
    return np.array(pts).reshape(-1, box.dimension)


@dataclass(frozen=True)
class IntersectionCheck:
    """Outcome of the common-crossing-sector test at the manifold intersection."""

    ok: bool
    sector: Optional[int]
    x_tilde: np.ndarray
    lie_values: np.ndarray  # shape (4, 2): sigma of each mode against H1, H2
    detail: str = ""


def _cross_point(system: PwsSystem) -> np.ndarray:
    """The intersection of the two affine manifolds of a planar cross; a
    ConfigError unless it is one point inside the box."""
    (c1, d1), (c2, d2) = (m.affine for m in system.manifolds)
    M = np.vstack([c1, c2])
    if abs(np.linalg.det(M)) < 1e-14:
        raise ConfigError("manifolds have no unique intersection point")
    x = np.linalg.solve(M, np.array([d1, d2]))
    if not system.box.contains(x, tol=1e-12):
        raise ConfigError("manifold intersection lies outside the analysis box")
    return x


def check_intersection_assumption(system: PwsSystem) -> IntersectionCheck:
    """Check that all four fields at the intersection point push strictly into
    one common sector (vertex test on the convex hull of the field values).

    Returns the sector's mode index when the check passes. Raises for systems
    that are not planar crosses, and when a Lie derivative vanishes at the
    intersection (that it is one point inside the box is checked when the
    system is built). The arrays of the result are read-only, so that it can
    be shared (``_intersection_check``).
    """
    if system.topology != "planar_cross":
        raise TopologyError("intersection check applies to planar_cross systems")
    m1, m2 = system.manifolds
    if not (m1.is_affine and m2.is_affine):
        raise ConfigError("intersection solving requires affine manifolds")
    (c1, _), (c2, _) = m1.affine, m2.affine
    x_tilde = _cross_point(system)
    F = np.stack([m.f_many(x_tilde[None])[0] for m in system.modes])
    sig = np.stack([(c @ F[..., None])[..., 0] for c in (c1, c2)], axis=1)
    x_tilde.flags.writeable = sig.flags.writeable = False
    if np.any(np.abs(sig) <= TOL_LIE):
        raise TopologyError(
            "a Lie derivative vanishes at the intersection; the common-sector "
            "test is undecidable")
    s1 = np.sign(sig[:, 0])
    s2 = np.sign(sig[:, 1])
    if not (np.all(s1 == s1[0]) and np.all(s2 == s2[0])):
        return IntersectionCheck(False, None, x_tilde, sig,
                                 "field directions disagree at the intersection")
    target = (int(s1[0]), int(s2[0]))
    sector = next(m for m, pattern in _CROSS_SIGNS.items() if pattern == target)
    return IntersectionCheck(True, sector, x_tilde, sig,
                             f"all fields enter mode {sector}")


def _intersection_check(system: PwsSystem) -> IntersectionCheck:
    """``check_intersection_assumption(system)``, run once per system."""
    return system._derived(("intersection",), lambda: check_intersection_assumption(system))


def check_box_invariance(system: PwsSystem, points_per_face: int = 21) -> list:
    """Diagnostic only: sample the box boundary and report outward-pointing
    flow samples (the box is asserted forward invariant by the user)."""
    box = system.box
    bad = []
    for face_axis in range(box.dimension):
        for side, bound in ((-1, box.lower[face_axis]), (1, box.upper[face_axis])):
            face = box_grid(box, points_per_face, skip=face_axis)
            face[:, face_axis] = bound
            for x in face:
                try:
                    loc = locate(system, x)
                except TopologyError:
                    continue
                if not loc.is_interior:
                    continue
                outward = side * system.f(loc.mode, x)[face_axis]
                if outward > 0:
                    bad.append((x.copy(), face_axis, side, float(outward)))
    return bad

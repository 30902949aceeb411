import collections
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from pwscontract import certify
from pwscontract.model import (
    TOL_LIE,
    AffineField,
    AnalysisBox,
    Manifold,
    Mode,
    PwsSystem,
    TopologyError,
    _manifold_grid,
    builtin_config_path,
    load_system,
    load_system_file,
)


@pytest.fixture(scope="session")
def ex1():
    return load_system_file(builtin_config_path("example1"))


@pytest.fixture(scope="session")
def ex2():
    return load_system_file(builtin_config_path("example2"))


# the eight starts of the shipped examples' golden runs
GOLDEN_STARTS = [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0),
                 (-3.0, -4.0), (-0.3, 2.0), (4.0, -3.0), (2.0, 4.0)]
# the golden starts of the chain4 and chain3d fixtures; the chains slide for
# most of their run, so they run briefly from few starts
CHAIN_STARTS = [(-5.0, -5.0), (4.0, -3.0), (2.0, 4.0)]
STARTS_3D = [(-4.0, 3.0, -2.0), (0.5, 1.0, -1.0)]
# starts inside example2's central square |x1|, |x2| <= 1e-2, where both
# bands of the cross meet: a regularized run at eps 1e-2 from there steps the
# stacked corner blend into one band's closure, and cuts from one band into
# the other
CORNER_STARTS = [(0.005, 0.005), (-0.005, 0.004), (0.004, -0.005), (-0.004, -0.004)]


def make_system(doc: dict):
    return load_system(json.dumps(doc))


# config entries of the wrong JSON type, as (path into example1, value, the
# error message's subject); each is a config error
WRONG_TYPES = [
    (("metric", "c"), "abc", "metric rate c"),
    (("metric", "c"), [1, 2], "metric rate c"),
    (("modes", 0, "b"), "ab", "mode 1 offset"),
    (("modes", 1, "A"), [[1, 0], [0]], "mode 2 matrix"),
    (("manifolds", 0, "d"), [1, 2], "manifold sigma_1_2 offset"),
    (("manifolds", 1, "c"), [1, None], "manifold sigma_2_3 normal"),
    (("box", "lower"), ["-5", -5], "box lower"),
    (("box", "upper"), [5, True], "box upper"),
    (("modes", 2, "A"), [[-1.5, 0.0], [False, -1.0]], "mode 3 matrix"),
    (("dimension",), True, "dimension"),
]


def with_entry(doc: dict, path: tuple, value) -> dict:
    """A deep copy of the config ``doc`` with the entry at ``path`` set to
    ``value``; a "metric" path adds the identity metric at rate 0.5 first."""
    doc = json.loads(json.dumps(doc))
    if path[0] == "metric":
        doc["metric"] = {"Q": np.eye(doc["dimension"]).tolist(), "c": 0.5}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def regularized_field_chain(system, eps, x):
    """The clamp blend of a chain system as a plain per-mode loop: mode i
    weighted by (phi_(i-1) - phi_i) / 2 of the clamps phi_k = phi(H_k(x)/eps)
    of its bounding manifolds, with phi_0 = 1 below the first manifold and
    phi_N = -1 above the last. The oracle the blends of
    ``RegularizedSystem`` are tested against."""
    if system.topology != "chain":
        raise TopologyError("chain regularization needs a chain system")
    x = np.asarray(x, dtype=float)
    phis = [1.0] + [min(max(m.h(x) / eps, -1.0), 1.0) for m in system.manifolds] + [-1.0]
    out = np.zeros(system.dimension)
    for i, mode in enumerate(system.modes):
        w = 0.5 * (phis[i] - phis[i + 1])
        if w != 0.0:
            out += w * mode.f(x)
    return out


def regularized_field_cross(system, eps, x):
    """The clamp blend of a planar cross as a plain per-mode loop: mode i
    weighted by (1 + s1 phi_1)(1 + s2 phi_2) / 4 with (s1, s2) the signs of
    its sector. The oracle the blends of ``RegularizedSystem`` are tested
    against."""
    if system.topology != "planar_cross":
        raise TopologyError("cross regularization needs a planar_cross system")
    x = np.asarray(x, dtype=float)
    p1, p2 = (min(max(m.h(x) / eps, -1.0), 1.0) for m in system.manifolds)
    out = np.zeros(2)
    for mode, (s1, s2) in zip(system.modes, [(1, -1), (1, 1), (-1, 1), (-1, -1)]):
        w = 0.25 * (1.0 + s1 * p1) * (1.0 + s2 * p2)
        if w != 0.0:
            out += w * mode.f(x)
    return out


def reduced_sliding_field(system, i, x):
    """Slow components of the sliding motion on the manifold between modes
    i and i+1 of a chain, computed with the critical-manifold weight
    sigma_{i+1} / (sigma_{i+1} - sigma_i) on f_i: the reduced field of the
    singular-perturbation limit of the blend, the oracle ``sliding_field`` is
    tested against.

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
class TransversalityReport:
    """Samples on each manifold where both adjacent Lie derivatives vanish."""

    violations: list = field(default_factory=list)
    samples_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_transversality(system, box=None, points_per_axis=101):
    """Sampled check of the paper's transversality assumption: on every
    manifold at least one adjacent Lie derivative is nonzero. The samples are
    the roots of ``model._manifold_grid`` on the grid lines of the box."""
    if points_per_axis < 2:
        raise ValueError("grid needs at least 2 points per axis")
    report = TransversalityReport()
    for k, manifold in enumerate(system.manifolds):
        for x in _manifold_grid(box or system.box, manifold, points_per_axis):
            try:
                i, j = system.adjacent_modes(k, x)
            except TopologyError:
                continue  # intersection point: pair ambiguous, skip sample
            g = manifold.grad(x)
            si = float(np.dot(g, system.f(i, x)))
            sj = float(np.dot(g, system.f(j, x)))
            report.samples_checked += 1
            if abs(si) <= TOL_LIE and abs(sj) <= TOL_LIE:
                report.violations.append((manifold.label, x.copy(), si, sj))
    return report


def handle_copy(system):
    """The system with each affine mode given as field and Jacobian handles,
    so that it takes the stepwise (non-affine) code paths."""
    modes = [Mode.from_handles(m.index,
                               lambda x, A=m.affine.A, b=m.affine.b: A @ x + b,
                               lambda x, A=m.affine.A: A)
             for m in system.modes]
    return PwsSystem(system.dimension, system.topology, modes, system.manifolds,
                     system.box)


def handle_manifold_copy(system):
    """The system with each affine manifold c.x - d given as value and
    gradient handles, so that its band edges are handle manifolds."""
    manifolds = [Manifold.from_handles(m.label,
                                       lambda x, c=c, d=d: c @ x - d,
                                       lambda x, c=c: np.asarray(c, dtype=float))
                 for m in system.manifolds for c, d in [m.affine]]
    return PwsSystem(system.dimension, system.topology, system.modes, manifolds,
                     system.box)


@pytest.fixture(scope="session")
def single_mode():
    return make_system({
        "dimension": 2,
        "topology": "chain",
        "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
        "manifolds": [],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


# one mode that grows along x1: from (1, 0) the state leaves the box
# [-5, 5]^2 at t = 10 ln 5 = 16.094...
LEAVES_BOX = {
    "dimension": 2,
    "topology": "chain",
    "modes": [{"A": [[0.1, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
    "manifolds": [],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}


@pytest.fixture(scope="session")
def swapped_ex1():
    # modes 1 and 2 of the first example exchanged: the sliding band of the
    # original becomes an escaping band
    return make_system({
        "dimension": 2,
        "topology": "chain",
        "modes": [
            {"A": [[-2.0, 1.0], [0.0, -1.0]], "b": [1.0, 0.0]},
            {"A": [[-1.0, 1.0], [0.0, -1.0]], "b": [3.0, 0.0]},
        ],
        "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


# four contracting modes pushing toward the middle manifold x1 = 0, which
# therefore carries a sliding segment ending in a Filippov equilibrium
_EYE = [[-1.0, 0.0], [0.0, -1.0]]
CHAIN4 = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": _EYE, "b": [3.0, 0.0]},
              {"A": _EYE, "b": [1.0, 0.0]},
              {"A": _EYE, "b": [-1.0, 0.0]},
              {"A": _EYE, "b": [-3.0, 0.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": -2.0},
                  {"c": [1.0, 0.0], "d": 0.0},
                  {"c": [1.0, 0.0], "d": 2.0}],
    "box": {"lower": [-6, -6], "upper": [6, 6]},
}
_EYE3 = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
CHAIN3D = {
    "dimension": 3, "topology": "chain",
    "modes": [{"A": _EYE3, "b": [1.0, 0.0, 1.0]},
              {"A": _EYE3, "b": [-1.0, 0.0, 1.0]}],
    "manifolds": [{"c": [1.0, 0.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5, -5], "upper": [5, 5, 5]},
}


@pytest.fixture(scope="session")
def chain4():
    return make_system(CHAIN4)


@pytest.fixture(scope="session")
def chain3d():
    return make_system(CHAIN3D)


# one mode whose fast eigenvalue -5000 puts h lambda = -5 outside RK4's real
# stability interval (about [-2.79, 0]) at the default step 1e-3
STIFF = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-5000.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
    "manifolds": [],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# two modes of the same stiff matrix on either side of x1 = 0: a start on the
# manifold slides at once, along the sliding field diag(0, -5000), whose
# h lambda = -5 at the default step is again outside RK4's stability interval
STIFF_SLIDE = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-1.0, 0.0], [0.0, -5000.0]], "b": [1.0, 0.0]},
              {"A": [[-1.0, 0.0], [0.0, -5000.0]], "b": [-1.0, 0.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# the same pair with mode 2's fast entry -5001: the jump is not rank-one in the
# normal, so the slide is stepwise, and its sliding field has the eigenvalue
# -5000.5 along the manifold
STIFF_STEPWISE_SLIDE = {
    **STIFF_SLIDE,
    "modes": [STIFF_SLIDE["modes"][0],
              {"A": [[-1.0, 0.0], [0.0, -5001.0]], "b": [-1.0, 0.0]}],
}


# a planar cross on H1 = x2 and H2 = x1 with constant fields: from (-2, 0.5)
# mode 1 flows onto sigma_1 at t = 0.5 and slides along it with the field
# (1, 0) into the intersection, reached at t = 2, where the fields disagree
SLIDE_TO_INTERSECTION = {
    "dimension": 2, "topology": "planar_cross",
    "modes": [{"A": [[0.0, 0.0], [0.0, 0.0]], "b": b}
              for b in ([1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0])],
    "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# one manifold x1 = 10, outside the box: its jump condition has no domain
OUTSIDE_MANIFOLD = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]},
              {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [1.0, 0.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": 10.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# planar crosses whose manifolds have no intersection point in the box: x1 = 0
# and 2 x1 = 1 are parallel, and x1 = 9 meets x2 = 0 at (9, 0); each is a
# config error when the system is built
BAD_CROSSES = {
    name: {"dimension": 2, "topology": "planar_cross",
           "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}] * 4,
           "manifolds": manifolds,
           "box": {"lower": [-5, -5], "upper": [5, 5]}}
    for name, manifolds in (
        ("parallel", [{"c": [1.0, 0.0], "d": 0.0}, {"c": [2.0, 0.0], "d": 1.0}]),
        ("outside", [{"c": [1.0, 0.0], "d": 9.0}, {"c": [0.0, 1.0], "d": 0.0}]))
}
BAD_CROSS_ERRORS = {"parallel": "no unique intersection", "outside": "outside the analysis box"}
# a planar cross that loads, but on which every field vanishes at the
# intersection (0, 0), so the common-sector test raises TopologyError
VANISHING_CROSS = {"dimension": 2, "topology": "planar_cross",
                   "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}] * 4,
                   "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
                   "box": {"lower": [-5, -5], "upper": [5, 5]}}


@pytest.fixture(scope="session")
def circle():
    """-I x inside and -I x + (1, 0) outside the circle x.x = 4: every grid
    line through the disc meets the manifold twice, and the jump measure at
    (2, 0) is (a.b + |a||b|)/2 = 4 > 0 for a = (1, 0), b = grad H = (4, 0)."""
    eye = np.eye(2)
    return PwsSystem(
        2, "chain",
        [Mode.from_affine(1, -eye, [0.0, 0.0]), Mode.from_affine(2, -eye, [1.0, 0.0])],
        [Manifold.from_handles("circle", lambda x: float(x @ x) - 4.0,
                               lambda x: 2.0 * np.asarray(x))],
        AnalysisBox([-5.0, -5.0], [5.0, 5.0]))


@pytest.fixture
def stack_builds(monkeypatch):
    """Counts of block-stack builds keyed by (id(field), h, block)."""
    counts = collections.Counter()
    build = AffineField._build_stacks

    def counting(field, h, block):
        counts[(id(field), h, block)] += 1
        return build(field, h, block)

    monkeypatch.setattr(AffineField, "_build_stacks", counting)
    return counts


@pytest.fixture
def table_builds(monkeypatch):
    """Counts of condition-table builds keyed by (id(system), strategy, eps)."""
    counts = collections.Counter()
    build = certify._build_table

    def counting(system, strategy, eps):
        counts[(id(system), strategy, eps)] += 1
        return build(system, strategy, eps)

    monkeypatch.setattr(certify, "_build_table", counting)
    return counts


def derived(system, kind):
    """The objects of one kind ("table", "slide", "events", "intersection",
    "regularized" or "search") that the system keeps in its memo; a "slide"
    entry is the (step, lam_at, affine, fs) kernel of ``_slide_steps``."""
    return [v for key, v in system._memo.items() if key[0] == kind]

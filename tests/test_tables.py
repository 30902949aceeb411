"""The batched condition tables against a point-by-point reference.

``reference_table`` rebuilds every certificate condition one point at a time,
the way the tables were first written: each vertex solved on its own and kept
unless it repeats an earlier one, each mesh point tested with
``AnalysisBox.contains`` and ``Manifold.h``, and each jump matrix formed as
``np.outer`` of the field jump at the point with the manifold gradient. The
batched ``condition_table`` must give the same bits: the matrices, the points
and their order, the row slices, the residuals, and every report.

``argmax_report`` is the report as first written, one ``np.argmax`` per
condition; ``ConditionTable.report`` finds every worst case and binding point
in one segmented pass and must agree with it on every shipped table."""

import itertools
import math

import numpy as np
import pytest

from pwscontract import certify
from pwscontract.certify import (
    GRID_MANIFOLD,
    GRID_REGION,
    CertificateError,
    ConditionTable,
    condition_table,
)
from pwscontract.measure import Metric
from pwscontract.model import Manifold, _manifold_grid, box_grid, check_intersection_assumption

from conftest import handle_copy, handle_manifold_copy

BUILDS = ["vertex", "grid", 1e-1, 1e-2, 1e-3]
SYSTEMS = ["ex1", "ex2", "chain4", "chain3d", "circle",
           "ex1-handle_copy", "ex1-handle_manifold_copy",
           "ex2-handle_copy", "ex2-handle_manifold_copy"]
DIAG = (-1, 1, -1, 1)  # f2 + f4 - f1 - f3


def ref_vertices(eqs, ineqs, box, tol=1e-9):
    n = box.dimension
    rows = [(np.asarray(a, dtype=float), float(b)) for a, b in (*eqs, *ineqs)]
    for i in reversed(range(n)):
        e = np.eye(n)[i]
        rows += [(-e, -float(box.lower[i])), (e, float(box.upper[i]))]
    out = []
    for s in itertools.combinations(range(len(rows)), n):
        if s[:len(eqs)] != tuple(range(len(eqs))):
            continue
        M = np.array([rows[k][0] for k in s])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, np.array([rows[k][1] for k in s]))
        if (all(abs(a @ x - b) <= tol for a, b in rows[:len(eqs)])
                and all(a @ x - b <= tol for a, b in rows[len(eqs):])
                and not any(np.max(np.abs(x - q)) <= tol for q in out)):
            out.append(x)
    return out


def ref_mesh(box, man):
    if not man.is_affine:
        return list(_manifold_grid(box, man, GRID_MANIFOLD))
    c, d = man.affine
    pivot = int(np.argmax(np.abs(c)))
    pts = box_grid(box, GRID_MANIFOLD, skip=pivot)
    pts[:, pivot] = (d - sum(c[i] * pts[:, i] for i in range(box.dimension)
                             if i != pivot)) / c[pivot]
    return [x for x in pts if box.contains(x, tol=1e-12)]


def band(man, w):
    c, d = man.affine
    return ([(c, d)], []) if w == 0 else ([], [(c, d + w), (-c, -(d - w))])


def ref_jump_points(system, strategy, man, w, arm=None):
    if strategy == "vertex":
        if not system.is_affine:
            raise CertificateError("vertex strategy requires affine data")
        eqs, ineqs = band(man, w)
        if arm is not None:
            (oc, od), side = arm[0].affine, arm[1]
            ineqs = ineqs + [((-side) * oc, (-side) * od - w)]
        return ref_vertices(eqs, ineqs, system.box)
    c, d = man.affine if w else (None, None)
    levels = [man] if w == 0 else [Manifold.from_affine(man.label, c, d - w), man,
                                   Manifold.from_affine(man.label, c, d + w)]
    pts = [p for s in levels for p in ref_mesh(system.box, s)]
    return pts if arm is None else [p for p in pts if arm[1] * arm[0].h(p) >= -1e-12]


def combo(system, signs, x):
    out = np.zeros(2)
    for k, s in enumerate(signs):
        out += s * system.f(k + 1, x)
    return out


def reference_table(system, strategy, eps):
    """[(cond_id, kind, method, mats, points, residual)], one point at a time."""
    if eps is not None and not system.is_affine:
        raise CertificateError("affine data only")
    out = []
    for i, mode in enumerate(system.modes, start=1):
        if mode.is_affine:
            out.append((f"flow[{i}]", "flow", "vertex (constant)", [mode.affine.A], [None], 0.0))
            continue
        if strategy == "vertex":
            raise CertificateError("vertex strategy requires affine data")
        pts = [x for x in box_grid(system.box, GRID_REGION)
               if all(s * system.manifolds[j].h(x) >= -1e-12
                      for j, s in enumerate(system.region_signs(i)))]
        out.append((f"flow[{i}]", "flow", f"grid({GRID_REGION})",
                    [mode.jac(x) for x in pts], pts, 0.0))
    method = "vertex" if strategy == "vertex" else f"grid({GRID_MANIFOLD})"
    w = eps or 0.0
    if system.topology == "chain":
        for k, man in enumerate(system.manifolds):
            pts = ref_jump_points(system, strategy, man, w)
            out.append((f"jump[{k + 1}]", "jump", method,
                        [np.outer(system.f(k + 2, x) - system.f(k + 1, x), man.grad(x))
                         for x in pts], pts, 0.0))
        return out
    x_tilde = check_intersection_assumption(system).x_tilde
    m1, m2 = system.manifolds
    neg_diag = tuple(-s for s in DIAG)
    specs = [("manifold[1]", m1, (1, 1, -1, -1), None),
             ("manifold[2]", m2, (-1, 1, 1, -1), None),
             ("half[1,+]", m1, DIAG, (m2, 1)), ("half[1,-]", m1, neg_diag, (m2, -1)),
             ("half[2,+]", m2, DIAG, (m1, 1)), ("half[2,-]", m2, neg_diag, (m1, -1))]
    arms = {"half[1,+]": "region[6]", "half[1,-]": "region[4]",
            "half[2,+]": "region[2]", "half[2,-]": "region[8]"}
    for cond_id, man, signs, arm in specs:
        pts = ref_jump_points(system, strategy, man, w, arm)
        if eps is not None:
            cond_id = arms.get(cond_id, cond_id.replace("manifold", "band"))
        out.append((cond_id, "jump", method,
                    [np.outer(combo(system, signs, x), man.grad(x)) for x in pts], pts, 0.0))
    if eps is None:
        out.append(("intersection-eq", "equality", "point", [], [x_tilde],
                    float(np.linalg.norm(combo(system, DIAG, x_tilde)))))
        return out
    square = ref_vertices([], band(m1, eps)[1] + band(m2, eps)[1], system.box)
    norms = [float(np.linalg.norm(combo(system, DIAG, p))) for p in square]
    out.append(("square-eq", "equality", "vertex", [], [square[norms.index(max(norms))]],
                max(norms)))
    return out


def bits(points):
    return [None if p is None else np.asarray(p, dtype=float).tobytes() for p in points]


@pytest.fixture(scope="module")
def systems(ex1, ex2, chain4, chain3d, circle):
    base = {"ex1": ex1, "ex2": ex2, "chain4": chain4, "chain3d": chain3d, "circle": circle}
    for name in ("ex1", "ex2"):
        base[f"{name}-handle_copy"] = handle_copy(base[name])
        base[f"{name}-handle_manifold_copy"] = handle_manifold_copy(base[name])
    return base


@pytest.mark.parametrize("build", BUILDS, ids=str)
@pytest.mark.parametrize("name", SYSTEMS)
def test_batched_table_matches_the_per_point_reference(systems, name, build):
    system = systems[name]
    strategy, eps = (build, None) if isinstance(build, str) else ("vertex", build)
    try:
        ref = reference_table(system, strategy, eps)
    except (CertificateError, ValueError):
        with pytest.raises((CertificateError, ValueError)):
            condition_table(system, strategy=strategy, eps=eps)
        return
    table = condition_table(system, strategy=strategy, eps=eps)
    n = system.dimension
    assert [c.cond_id for c in table.conditions] == [r[0] for r in ref]
    start = 0
    for cond, (_, kind, method, mats, points, residual) in zip(table.conditions, ref):
        assert (cond.kind, cond.method, cond.residual) == (kind, method, residual)
        assert cond.rows == slice(start, start + len(mats))
        start = cond.rows.stop
        assert table.mats[cond.rows].tobytes() == np.reshape(mats, (-1, n, n)).tobytes()
        assert bits(cond.points) == bits(points)
    assert len(table.mats) == start
    # the same reports as a table assembled from the reference rows
    twin = ConditionTable(n, table.strategy, [
        (cond_id, kind, "", method, mats, points, residual)
        for cond_id, kind, method, mats, points, residual in ref], table.notes)
    rng = np.random.default_rng(7)
    for _ in range(3):
        L = rng.normal(size=(n, n))
        metric = Metric(L @ L.T + 0.5 * np.eye(n), 0.5)
        got, want = table.report(metric), twin.report(metric)
        assert [(c.cond_id, c.worst, c.margin, c.point, c.status) for c in got.conditions] == \
            [(c.cond_id, c.worst, c.margin, c.point, c.status) for c in want.conditions]


def argmax_report(table, metric):
    """[(cond_id, worst, point, margin, status)] of every condition, its worst
    and binding point from one np.argmax over its own rows."""
    mu = metric.measures(table.mats)
    bounds = {"flow": -metric.c, "jump": certify.TOL_ZERO, "equality": certify.TOL_EQ}
    out = []
    for cond in table.conditions:
        status, point = "", None
        if cond.kind == "equality":
            worst, point = cond.residual, cond.points[0]
        elif cond.rows.stop > cond.rows.start:
            k = int(np.argmax(mu[cond.rows]))
            worst, point = float(mu[cond.rows][k]), cond.points[k]
        else:
            status = "empty" if table.strategy == "vertex" else "unsampled"
            worst = -math.inf if status == "empty" else math.inf
        out.append((cond.cond_id, worst,
                    None if point is None else tuple(np.asarray(point, dtype=float)),
                    bounds[cond.kind] - worst, status))
    return out


def report_rows(report):
    return [(c.cond_id, c.worst, c.point, c.margin, c.status) for c in report.conditions]


def seeded_metrics(n, seed, count=25):
    """Identity at c = 1.87 (where jump conditions tie at several points),
    then random positive definite Q with random c."""
    rng = np.random.default_rng(seed)
    out = [Metric(np.eye(n), 1.87)]
    while len(out) < count:
        L = np.tril(rng.uniform(-0.5, 0.5, (n, n)))
        L[np.diag_indices(n)] = rng.uniform(0.5, 1.5, n)
        out.append(Metric(L @ L.T, rng.uniform(0.0, 2.5)))
    return out


# every shipped table: both examples by vertices, by grid and regularized, the
# extended chains, and the grid tables of handle copies
SHIPPED_TABLES = ([(name, build) for name in ("ex1", "ex2")
                   for build in ("vertex", "grid", 1e-1, 1e-2, 1e-3)] +
                  [(name, build) for name in ("chain4", "chain3d")
                   for build in ("vertex", "grid", 1e-2)] +
                  [("ex1-handle_copy", "grid"), ("ex2-handle_copy", "grid"), ("circle", "grid")])


@pytest.mark.parametrize("name, build", SHIPPED_TABLES, ids=str)
def test_one_pass_report_matches_per_condition_argmax(systems, name, build):
    system = systems[name]
    strategy, eps = (build, None) if isinstance(build, str) else ("vertex", build)
    table = condition_table(system, strategy=strategy, eps=eps)
    for metric in seeded_metrics(system.dimension, SHIPPED_TABLES.index((name, build))):
        report = table.report(metric)
        assert report_rows(report) == argmax_report(table, metric)
        assert [c.worst for c in report.conditions if not c.status] == \
            [w for c, w in zip(table.conditions, table.worsts(metric.measures(table.mats)))
             if c.kind == "equality" or c.rows.stop > c.rows.start]
        assert all(type(v) is float for c in report.conditions if c.point for v in c.point)


def constructed_table(strategy):
    """A flow row, a jump whose largest matrix repeats at rows 1 and 3, a
    jump without points, an equality, and a jump whose two rows tie."""
    big, small = np.diag([1.0, -1.0]), np.diag([0.5, -1.0])
    return ConditionTable(2, strategy, [
        ("flow[1]", "flow", "", "vertex (constant)", -np.eye(2), [None], 0.0),
        ("jump[1]", "jump", "", strategy, [small, big, small, big],
         np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), 0.0),
        ("jump[2]", "jump", "", strategy, np.empty((0, 2, 2)), np.empty((0, 2)), 0.0),
        ("eq", "equality", "", "point", [], [np.array([0.5, 0.25])], 3e-10),
        ("jump[3]", "jump", "", strategy, [big, big], np.array([[4.0, 0.0], [5.0, 0.0]]), 0.0)])


@pytest.mark.parametrize("strategy, status, worst", [("vertex", "empty", -math.inf),
                                                     ("grid", "unsampled", math.inf)])
def test_constructed_ties_and_conditions_without_rows(strategy, status, worst):
    table = constructed_table(strategy)
    metric = Metric(np.eye(2), 0.5)
    report = table.report(metric)
    # the first row that attains a tied worst case binds
    assert report_rows(report) == [
        ("flow[1]", -1.0, None, 0.5, ""),
        ("jump[1]", 1.0, (1.0, 0.0), certify.TOL_ZERO - 1.0, ""),
        ("jump[2]", worst, None, certify.TOL_ZERO - worst, status),
        ("eq", 3e-10, (0.5, 0.25), certify.TOL_EQ - 3e-10, ""),
        ("jump[3]", 1.0, (4.0, 0.0), certify.TOL_ZERO - 1.0, ""),
    ] == argmax_report(table, metric)
    assert all(type(v) is float for c in report.conditions if c.point for v in c.point)
    assert report.binding.cond_id == ("jump[2]" if status == "unsampled" else "jump[1]")


def test_report_of_a_table_without_rows():
    table = ConditionTable(2, "grid", [
        ("jump[1]", "jump", "", "grid", np.empty((0, 2, 2)), np.empty((0, 2)), 0.0),
        ("eq", "equality", "", "point", [], [np.array([1.0, 2.0])], 0.0)])
    metric = Metric(np.eye(2), 0.5)
    assert report_rows(table.report(metric)) == argmax_report(table, metric) == [
        ("jump[1]", math.inf, None, -math.inf, "unsampled"),
        ("eq", 0.0, (1.0, 2.0), certify.TOL_EQ, "")]

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from pwscontract.measure import Metric
from pwscontract.model import (
    AffineField,
    AnalysisBox,
    ConfigError,
    Manifold,
    Mode,
    PwsSystem,
    TopologyError,
    box_grid,
    builtin_config_path,
    check_box_invariance,
    check_intersection_assumption,
    load_system,
    load_system_file,
    locate,
    polytope_vertices,
)
from pwscontract.model import _manifold_grid

from conftest import (
    BAD_CROSS_ERRORS,
    BAD_CROSSES,
    WRONG_TYPES,
    check_transversality,
    make_system,
    with_entry,
)


class TestLoadSystem:
    def test_example1_shape(self, ex1):
        assert ex1.topology == "chain"
        assert ex1.n_modes == 3
        assert ex1.dimension == 2
        assert len(ex1.manifolds) == 2
        assert ex1.is_affine

    def test_example2_shape(self, ex2):
        assert ex2.topology == "planar_cross"
        assert ex2.n_modes == 4
        assert len(ex2.manifolds) == 2

    def test_affine_data_round_trips_exactly(self, ex1):
        doc = json.loads(builtin_config_path("example1").read_text())
        for mode, entry in zip(ex1.modes, doc["modes"]):
            assert np.array_equal(mode.affine.A, np.array(entry["A"]))
            assert np.array_equal(mode.affine.b, np.array(entry["b"]))
        for man, entry in zip(ex1.manifolds, doc["manifolds"]):
            c, d = man.affine
            assert np.array_equal(c, np.array(entry["c"]))
            assert d == entry["d"]

    def test_single_mode_no_manifolds_is_valid(self, single_mode):
        assert single_mode.n_modes == 1
        assert single_mode.manifolds == ()

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing"):
            load_system(json.dumps({"dimension": 2}))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            load_system("{not json")

    def test_mode_count_mismatch(self):
        with pytest.raises(ConfigError, match="chain"):
            make_system({
                "dimension": 2, "topology": "chain",
                "modes": [{"A": [[0, 0], [0, 0]], "b": [0, 0]}] * 3,
                "manifolds": [{"c": [1, 0], "d": 0}],
                "box": {"lower": [-1, -1], "upper": [1, 1]},
            })

    def test_planar_cross_needs_dimension_two(self):
        with pytest.raises(ConfigError, match="dimension 2"):
            make_system({
                "dimension": 3, "topology": "planar_cross",
                "modes": [{"A": np.zeros((3, 3)).tolist(), "b": [0, 0, 0]}] * 4,
                "manifolds": [{"c": [1, 0, 0], "d": 0}, {"c": [0, 1, 0], "d": 0}],
                "box": {"lower": [-1, -1, -1], "upper": [1, 1, 1]},
            })

    def test_dimension_mismatch_in_mode(self):
        with pytest.raises(ConfigError, match="shape"):
            make_system({
                "dimension": 2, "topology": "chain",
                "modes": [{"A": [[1.0]], "b": [0.0]}],
                "manifolds": [],
                "box": {"lower": [-1, -1], "upper": [1, 1]},
            })

    def test_non_pd_embedded_metric(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_system({
                "dimension": 2, "topology": "chain",
                "modes": [{"A": [[-1, 0], [0, -1]], "b": [0, 0]}],
                "manifolds": [],
                "box": {"lower": [-1, -1], "upper": [1, 1]},
                "metric": {"Q": [[1, 0], [0, -1]], "c": 0.5},
            })

    def test_degenerate_box(self):
        with pytest.raises(ConfigError, match="box"):
            make_system({
                "dimension": 2, "topology": "chain",
                "modes": [{"A": [[-1, 0], [0, -1]], "b": [0, 0]}],
                "manifolds": [],
                "box": {"lower": [1, -1], "upper": [1, 1]},
            })

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_config_path("example9")


class TestChainOrder:
    @staticmethod
    def example1_with_manifold2_at(d):
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["manifolds"][1]["d"] = d
        return json.dumps(doc)

    @pytest.mark.parametrize("d", [-1.0, 0.0, -6.0])
    def test_out_of_order_rejected(self, d):
        # x1 = -1 empties mode 2's region; x1 = 0 doubles manifold 1; x1 = -6
        # lies outside the box but on the wrong side of manifold 1
        with pytest.raises(ConfigError, match="out of order"):
            load_system(self.example1_with_manifold2_at(d))

    def test_manifold_beyond_the_box_on_the_right_side(self):
        system = load_system(self.example1_with_manifold2_at(6.0))
        assert locate(system, [4.0, 0.0]).mode == 2


class TestBoxGrid:
    def test_ij_order_and_skipped_axis(self):
        box = AnalysisBox([0.0, 10.0, 20.0], [1.0, 11.0, 21.0])
        pts = box_grid(box, 2, skip=1)
        assert pts.tolist() == [[0.0, 0.0, 20.0], [0.0, 0.0, 21.0],
                                [1.0, 0.0, 20.0], [1.0, 0.0, 21.0]]
        assert box_grid(box, 3).shape == (27, 3)


# ---------------------------------------------------------------------------
# polytope vertices: {x in box : eqs, ineqs} for any n

tenths = st.integers(-20, 20).map(lambda k: k / 10)


@st.composite
def polytopes(draw):
    """A box around the origin cut by random planes, slabs |c.x - d| <= w and
    a half-space, and sometimes a slab entirely outside the box (empty).
    Integer normals and offsets in tenths keep every near-degenerate vertex
    exactly degenerate, so the LP reference agrees to rounding."""
    n = draw(st.sampled_from([2, 3]))
    box = AnalysisBox([draw(st.integers(-20, -1)) / 10 for _ in range(n)],
                      [draw(st.integers(1, 20)) / 10 for _ in range(n)])
    normals = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(
        lambda v: np.array(v, dtype=float))
    half = st.integers(1, 10).map(lambda k: k / 20)
    eqs = [(draw(normals), draw(tenths)) for _ in range(draw(st.integers(0, n - 1)))]
    ineqs = []
    for _ in range(draw(st.integers(0, 2))):
        c, d, w = draw(normals), draw(tenths), draw(half)
        ineqs += [(c, d + w), (-c, -(d - w))]
    if draw(st.booleans()):
        ineqs.append((draw(normals), draw(tenths)))
    if draw(st.booleans()):
        c, w = draw(normals), draw(half)
        top = float(np.sum(np.maximum(c * box.lower, c * box.upper)))
        ineqs += [(c, top + 0.5 + 2 * w), (-c, -(top + 0.5))]
    objectives = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                               min_size=1, max_size=4))
    return eqs, ineqs, box, [np.array(w) for w in objectives]


class TestPolytopeVertices:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polytopes())
    def test_feasible_and_maximises_every_linear_objective(self, case):
        eqs, ineqs, box, objectives = case
        pts = polytope_vertices(eqs, ineqs, box)
        for p in pts:
            assert all(abs(float(a @ p) - b) <= 1e-9 for a, b in eqs)
            assert all(float(a @ p) <= b + 1e-9 for a, b in ineqs)
            assert box.contains(p, tol=1e-9)
        lp = {"A_ub": [a for a, _ in ineqs] or None, "b_ub": [b for _, b in ineqs] or None,
              "A_eq": [a for a, _ in eqs] or None, "b_eq": [b for _, b in eqs] or None,
              "bounds": list(zip(box.lower, box.upper))}
        for w in objectives:
            res = linprog(-w, **lp)
            assert (res.status == 2) == (not pts), res.message
            if pts:
                best = max(float(w @ p) for p in pts)
                assert best == pytest.approx(-res.fun, abs=1e-9)

    def test_order_is_constraints_then_faces_last_axis_first_lower_first(self):
        box = AnalysisBox([-5.0, -5.0], [5.0, 5.0])
        assert [p.tolist() for p in polytope_vertices([], [], box)] == [
            [-5.0, -5.0], [5.0, -5.0], [-5.0, 5.0], [5.0, 5.0]]
        # example1's jump[1] ties at (0, +-5); the report names the first
        line = polytope_vertices([(np.array([1.0, 0.0]), 0.0)], [], box)
        assert [p.tolist() for p in line] == [[0.0, -5.0], [0.0, 5.0]]

    def test_band_vertices_lie_exactly_on_the_band_edges(self):
        eps = 0.0013640389004372535
        c = np.array([0.0, 1.0])
        pts = polytope_vertices([], [(c, eps), (-c, eps)], AnalysisBox([-5.0, -5.0],
                                                                       [5.0, 5.0]))
        assert sorted(abs(p[1]) for p in pts) == [eps] * 4


    BOX3 = AnalysisBox([-0.1] * 3, [0.1] * 3)
    E = np.eye(3)

    @pytest.mark.parametrize("eqs", [
        [(E[0], 0.0), (E[0], 0.0)],
        [(E[0], 0.0), (2.0 * E[0], 0.0)],
        [(E[0], 0.0), (E[0], 0.0), (-E[0], 0.0)],
    ])
    def test_dependent_equalities(self, eqs):
        face = polytope_vertices([(self.E[0], 0.0)], [], self.BOX3)
        assert len(face) == 4
        assert [p.tolist() for p in polytope_vertices(eqs, [], self.BOX3)] == [
            p.tolist() for p in face]

    def test_dependent_equalities_through_a_combination(self):
        E = self.E
        pts = polytope_vertices([(E[0], 0.05), (E[1], 0.0), (E[0] + E[1], 0.05)],
                                [], self.BOX3)
        assert [p.tolist() for p in pts] == [
            p.tolist() for p in polytope_vertices([(E[0], 0.05), (E[1], 0.0)], [],
                                                  self.BOX3)]
        assert [p.tolist() for p in pts] == [[0.05, 0.0, -0.1], [0.05, 0.0, 0.1]]

    @pytest.mark.parametrize("eqs", [
        [(E[0], 0.0), (E[0], 0.05)],
        [(E[0], 0.0), (E[1], 0.0), (E[0] + E[1], 0.05)],
    ])
    def test_inconsistent_equalities(self, eqs):
        assert polytope_vertices(eqs, [], self.BOX3) == []


class TestArrayHoldingDataclasses:
    def test_compare_by_identity_and_hash(self):
        for make in (lambda: AffineField(np.eye(2), np.zeros(2)),
                     lambda: AnalysisBox([-1.0, -1.0], [1.0, 1.0]),
                     lambda: Metric(np.eye(2), 0.5)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b, a}) == 2


class TestModeAndManifold:
    def test_affine_mode_evaluates_exactly(self):
        mode = Mode.from_affine(1, [[-2.0, 1.0], [0.0, -1.0]], [1.0, 0.0])
        x = np.array([0.5, 0.0])
        assert np.array_equal(mode.f(x), np.array([0.0, 0.0]))
        assert np.array_equal(mode.jac(x), np.array([[-2.0, 1.0], [0.0, -1.0]]))

    def test_smooth_mode_requires_jacobian(self):
        with pytest.raises(ConfigError, match="Jacobian"):
            Mode.from_handles(1, lambda x: -x)

    def test_fd_jacobian_opt_in(self):
        A = np.array([[-1.0, 2.0], [3.0, -4.0]])
        mode = Mode.from_handles(1, lambda x: A @ x, allow_fd_jacobian=True)
        J = mode.jac(np.array([0.3, -0.7]))
        assert np.max(np.abs(J - A)) < 1e-7

    def test_affine_manifold_exact(self):
        man = Manifold.from_affine("s", [2.0, 0.0], 1.0)
        assert man.h([0.5, 3.0]) == 0.0
        assert man.h([1.0, 0.0]) == 1.0
        assert np.array_equal(man.grad([9.0, 9.0]), np.array([2.0, 0.0]))

    def test_zero_normal_rejected(self):
        with pytest.raises(ConfigError, match="zero normal"):
            Manifold.from_affine("s", [0.0, 0.0], 0.0)

    def test_projection_is_exact_for_affine(self):
        man = Manifold.from_affine("s", [1.0, 1.0], 1.0)
        p = man.project([5.0, -2.0])
        assert abs(man.h(p)) < 1e-15


class TestNonFiniteData:
    EX1 = json.loads(builtin_config_path("example1").read_text())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_affine_field(self, bad):
        with pytest.raises(ConfigError, match="mode matrix"):
            AffineField([[-1.0, 0.0], [0.0, bad]], [0.0, 0.0])
        with pytest.raises(ConfigError, match="mode offset"):
            AffineField(-np.eye(2), [bad, 0.0])

    @pytest.mark.parametrize("scale", [-1e200, 1e100])
    def test_overflowing_rk4_powers(self, scale):
        # A^2 of -1e200 I overflows (A^4 of 1e100 I), and 0 * inf is NaN off
        # the diagonal: refused at load, naming the mode, with no warning
        doc = with_entry(self.EX1, ("modes", 0, "A"), (scale * np.eye(2)).tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="mode 1: .*overflow"):
                make_system(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_affine_manifold(self, bad):
        with pytest.raises(ConfigError, match="normal"):
            Manifold.from_affine("s", [1.0, bad], 0.0)
        with pytest.raises(ConfigError, match="offset"):
            Manifold.from_affine("s", [1.0, 0.0], bad)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_box(self, bad):
        with pytest.raises(ConfigError, match="box lower"):
            AnalysisBox([bad, -1.0], [1.0, 1.0])
        with pytest.raises(ConfigError, match="box upper"):
            AnalysisBox([-1.0, -1.0], [1.0, -bad])

    @pytest.mark.parametrize("path, value", [
        (("modes", 0, "A", 1, 1), math.nan),
        (("modes", 2, "b", 0), math.inf),
        (("manifolds", 1, "c", 0), math.nan),
        (("manifolds", 0, "d"), -math.inf),
        (("box", "upper", 1), math.inf),
    ])
    def test_config_document(self, path, value):
        with pytest.raises(ConfigError, match="finite"):
            make_system(with_entry(self.EX1, path, value))

    @pytest.mark.parametrize("Q, c", [([[1.0, 0.0], [0.0, math.nan]], 0.5),
                                      ([[1.0, 0.0], [0.0, 1.0]], math.inf)])
    def test_embedded_metric(self, Q, c):
        doc = dict(self.EX1, metric={"Q": Q, "c": c})
        with pytest.raises(ConfigError, match="metric"):
            make_system(doc)

    @pytest.mark.parametrize("Q, c, match", [
        (np.eye(3).tolist(), 0.5, "shape"),
        ([[1.0, 0.0], [0.0, -1.0]], 0.5, "positive definite"),
        ([[1.0, 0.0], [0.0, 1.0]], -0.5, "nonnegative"),
    ])
    def test_embedded_metric_refused_at_load(self, Q, c, match):
        # a config error, so every command on the config is a usage error
        doc = dict(self.EX1, metric={"Q": Q, "c": c})
        with pytest.raises(ConfigError, match=match):
            make_system(doc)

    def test_non_pd_embedded_metric_still_fails_at_build(self):
        doc = dict(self.EX1, metric={"Q": [[1.0, 0.0], [0.0, -1.0]], "c": 0.5})
        with pytest.raises(ValueError, match="positive definite"):
            make_system(doc)


class TestWrongJsonTypes:
    EX1 = json.loads(builtin_config_path("example1").read_text())

    @pytest.mark.parametrize("path, value, match", WRONG_TYPES)
    def test_refused_at_load(self, path, value, match):
        with pytest.raises(ConfigError, match=match):
            make_system(with_entry(self.EX1, path, value))

    def test_integers_are_numbers(self, ex1):
        doc = with_entry(self.EX1, ("metric", "c"), 1)
        doc["manifolds"][1]["d"] = 2
        system = make_system(doc)
        assert system.metric.c == 1.0 and system.manifolds[1].affine[1] == 2.0
        assert np.array_equal(system.modes[0].affine.A, ex1.modes[0].affine.A)


class TestLocate:
    def test_interior_mode2(self, ex1):
        loc = locate(ex1, [1.0, 0.0])
        assert loc.is_interior and loc.mode == 2

    def test_on_first_manifold(self, ex1):
        loc = locate(ex1, [0.0, 5.0])
        assert loc.kind == "on_manifold"
        assert loc.manifolds == ("sigma_1_2",)

    def test_cross_intersection(self, ex2):
        loc = locate(ex2, [0.0, 0.0])
        assert set(loc.manifolds) == {"sigma_1", "sigma_2"}

    def test_cross_quadrants(self, ex2):
        assert locate(ex2, [-1.0, 1.0]).mode == 1  # H1>0, H2<0
        assert locate(ex2, [1.0, 1.0]).mode == 2
        assert locate(ex2, [1.0, -1.0]).mode == 3
        assert locate(ex2, [-1.0, -1.0]).mode == 4

    def test_interior_satisfies_strict_signs(self, ex1, ex2):
        rng = np.random.default_rng(1)
        for system in (ex1, ex2):
            for _ in range(100):
                x = rng.uniform(-5, 5, 2)
                loc = locate(system, x)
                if not loc.is_interior:
                    continue
                for j, s in enumerate(system.region_signs(loc.mode)):
                    assert s * system.manifolds[j].h(x) > 0

    def test_inconsistent_pattern_raises(self):
        # smooth manifolds escape the affine chain-order check at construction
        zero = np.zeros((2, 2))
        system = PwsSystem(
            2, "chain", [Mode.from_affine(i, zero, [0.0, 0.0]) for i in (1, 2, 3)],
            [Manifold.from_handles("m1", lambda x: x[0], lambda x: np.array([1.0, 0.0])),
             Manifold.from_handles("m2", lambda x: -x[0] - 1.0,
                                   lambda x: np.array([-1.0, 0.0]))],
            AnalysisBox([-5.0, -5.0], [5.0, 5.0]))
        with pytest.raises(TopologyError, match="matches no"):
            locate(system, [-2.0, 0.0])

    def test_rejects_non_finite(self, ex1):
        with pytest.raises(ValueError, match="finite"):
            locate(ex1, [np.nan, 0.0])


class TestTransversality:
    def test_example1_clean(self, ex1):
        report = check_transversality(ex1, points_per_axis=101)
        assert report.ok
        assert report.samples_checked == 202

    def test_zero_fields_violate_everywhere(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [0, 0]}] * 2,
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-1, -1], "upper": [1, 1]},
        })
        report = check_transversality(system, points_per_axis=11)
        assert len(report.violations) == report.samples_checked == 11

    def test_circle_sampled_where_lines_meet_it_twice(self, circle):
        report = check_transversality(circle, points_per_axis=101)
        assert report.ok
        # 39 grid lines cross the disc twice, the lines x2 = +-2 touch it once
        assert report.samples_checked == 80
        for x in _manifold_grid(circle.box, circle.manifolds[0], 101):
            assert abs(circle.manifolds[0].h(x)) <= 1e-10

    def test_single_mode_empty(self, single_mode):
        report = check_transversality(single_mode)
        assert report.ok and report.samples_checked == 0

    def test_needs_two_points(self, ex1):
        with pytest.raises(ValueError, match="2 points"):
            check_transversality(ex1, points_per_axis=1)


class TestIntersectionAssumption:
    def test_example2_sector3(self, ex2):
        chk = check_intersection_assumption(ex2)
        assert chk.ok
        assert chk.sector == 3
        assert np.allclose(chk.x_tilde, [0.0, 0.0])
        # field values at the origin: (6,-1.5), (4,-1.5), (4,-1.3), (6,-1.3)
        assert np.allclose(chk.lie_values[:, 0], [-1.5, -1.5, -1.3, -1.3])
        assert np.allclose(chk.lie_values[:, 1], [6.0, 4.0, 4.0, 6.0])

    def test_invariant_under_positive_rescaling(self, ex2):
        scales = [0.5, 2.0, 7.0, 0.1]
        doc = json.loads(builtin_config_path("example2").read_text())
        for k, s in enumerate(scales):
            doc["modes"][k]["A"] = (s * np.array(doc["modes"][k]["A"])).tolist()
            doc["modes"][k]["b"] = (s * np.array(doc["modes"][k]["b"])).tolist()
        scaled = make_system(doc)
        chk = check_intersection_assumption(scaled)
        assert chk.ok and chk.sector == 3

    def test_disagreeing_fields(self):
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": list(b)} for b in
                      ([1, 1], [1, -1], [-1, 1], [-1, -1])],
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        chk = check_intersection_assumption(system)
        assert not chk.ok and chk.sector is None

    def test_identical_constant_fields(self):
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [1.0, 1.0]}] * 4,
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        chk = check_intersection_assumption(system)
        assert chk.ok and chk.sector == 2

    def test_vanishing_lie_derivative_is_undecidable(self):
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [1.0, 0.0]}] * 4,
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        with pytest.raises(TopologyError, match="undecidable"):
            check_intersection_assumption(system)

    def test_parallel_manifolds_rejected(self):
        # refused when the system is built, not when the check first runs
        with pytest.raises(ConfigError, match="unique intersection"):
            make_system({
                "dimension": 2, "topology": "planar_cross",
                "modes": [{"A": [[0, 0], [0, 0]], "b": [1.0, 1.0]}] * 4,
                "manifolds": [{"c": [1.0, 0.0], "d": 0.0}, {"c": [2.0, 0.0], "d": 1.0}],
                "box": {"lower": [-5, -5], "upper": [5, 5]},
            })

    @pytest.mark.parametrize("name", sorted(BAD_CROSSES))
    def test_cross_without_intersection_in_the_box_is_a_config_error(self, name):
        with pytest.raises(ConfigError, match=BAD_CROSS_ERRORS[name]):
            load_system(json.dumps(BAD_CROSSES[name]))

    def test_box_without_the_intersection_is_a_config_error(self, ex2):
        # example2's manifolds meet at the origin
        with pytest.raises(ConfigError, match="outside the analysis box"):
            PwsSystem(2, "planar_cross", ex2.modes, ex2.manifolds,
                      AnalysisBox([1.0, 1.0], [2.0, 2.0]))
        inside = PwsSystem(2, "planar_cross", ex2.modes, ex2.manifolds,
                           AnalysisBox([0.0, -1.0], [1.0, 1.0]))
        assert check_intersection_assumption(inside).ok

    def test_chain_rejected(self, ex1):
        with pytest.raises(TopologyError):
            check_intersection_assumption(ex1)


class TestBoxInvariance:
    def test_contracting_single_mode_has_no_outward_flow(self, single_mode):
        assert check_box_invariance(single_mode) == []

    def test_example2_reports_outward_samples(self, ex2):
        # the flow of mode 3 points out of the box near the corner (5, -5)
        bad = check_box_invariance(ex2)
        assert any(x[0] > 4.0 and x[1] < -2.0 for x, _, _, _ in bad)


class TestAdjacency:
    def test_chain_pairs(self, ex1):
        assert ex1.adjacent_modes(0, [0.0, 1.0]) == (1, 2)
        assert ex1.adjacent_modes(1, [2.0, -3.0]) == (2, 3)

    def test_cross_pairs_depend_on_side(self, ex2):
        assert ex2.adjacent_modes(0, [1.0, 0.0]) == (3, 2)   # H2 > 0
        assert ex2.adjacent_modes(0, [-1.0, 0.0]) == (4, 1)  # H2 < 0
        assert ex2.adjacent_modes(1, [0.0, 1.0]) == (1, 2)   # H1 > 0
        assert ex2.adjacent_modes(1, [0.0, -1.0]) == (4, 3)  # H1 < 0

    def test_cross_ambiguous_at_intersection(self, ex2):
        with pytest.raises(TopologyError, match="ambiguous"):
            ex2.adjacent_modes(0, [0.0, 0.0])

    def test_manifold_between(self, ex1, ex2):
        assert ex1.manifold_between(1, 2) == 0
        assert ex1.manifold_between(3, 2) == 1
        assert ex2.manifold_between(4, 1) == 0
        assert ex2.manifold_between(1, 2) == 1
        with pytest.raises(TopologyError):
            ex1.manifold_between(1, 3)

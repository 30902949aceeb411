import json
import math

import numpy as np
import pytest

from pwscontract.certify import condition_table
from pwscontract import qsearch
from pwscontract.measure import Metric
from pwscontract.model import builtin_config_path
from pwscontract.qsearch import (
    SearchOptions,
    _search_margin,
    margin,
    search_certificate,
)

from conftest import make_system

# example1 under x -> T x: Q = T^-1 certifies c = 0.5 there, identity does not
T = np.array([[2.0, 1.0], [1.0, 1.0]])


@pytest.fixture(scope="module")
def ex1_transformed():
    doc = json.loads(builtin_config_path("example1").read_text())
    T_inv = np.linalg.inv(T)
    for mode in doc["modes"]:
        mode["A"] = (T @ np.array(mode["A"]) @ T_inv).tolist()
        mode["b"] = (T @ np.array(mode["b"])).tolist()
    for man in doc["manifolds"]:
        man["c"] = (T_inv.T @ np.array(man["c"])).tolist()
    del doc["metric"]
    return make_system(doc)


class TestMargin:
    def test_binding_at_certified_rate(self, ex1):
        assert margin(ex1, Metric.identity(2, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_slack_below_certified_rate(self, ex1):
        assert margin(ex1, Metric.identity(2, 0.4)) == pytest.approx(0.1, abs=1e-12)

    def test_negative_above_certified_rate(self, ex1):
        assert margin(ex1, Metric.identity(2, 0.6)) == pytest.approx(-0.1, abs=1e-12)

    def test_cross_example(self, ex2):
        assert margin(ex2, Metric.identity(2, 1.87)) > 0.0
        assert margin(ex2, Metric.identity(2, 1.88)) < 0.0

    def test_violated_zero_bound_condition_counts(self):
        # jump matrix with positive measure on the manifold: hard gate
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0, 0.0]},
                      {"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [3.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        # difference field is (2, 0): outer with (1,0) has measure +2
        assert margin(system, Metric.identity(2, 0.5)) == pytest.approx(-2.0,
                                                                        abs=1e-9)


class TestSearch:
    def test_example1_finds_rate_at_least_half(self, ex1):
        result = search_certificate(ex1, opts=SearchOptions(c_hi=4.0))
        assert result.found
        assert result.metric.c >= 0.5
        assert result.report.passed

    def test_example2_finds_rate_above_baseline(self, ex2):
        result = search_certificate(ex2, opts=SearchOptions(c_hi=4.0))
        assert result.found
        assert result.metric.c >= 1.87
        assert result.report.passed

    def test_expanding_mode_not_found(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        result = search_certificate(system)
        assert not result.found
        assert result.metric is None
        assert "certifies c = " in result.reason

    def test_seed_determinism(self, ex1):
        opts = SearchOptions(c_hi=2.0)
        a = search_certificate(ex1, opts=opts)
        b = search_certificate(ex1, opts=opts)
        assert a.metric.c == b.metric.c
        assert np.array_equal(a.metric.Q, b.metric.Q)

    def test_returned_rate_tracks_trace(self, ex1):
        opts = SearchOptions(c_tol=1e-3, c_hi=2.0)
        result = search_certificate(ex1, opts=opts)
        feasible = [c for c, m in result.trace if m >= -1e-12]
        assert result.metric.c == max(feasible)
        infeasible = [c for c, m in result.trace if m < -1e-12]
        if infeasible:
            assert min(infeasible) - result.metric.c <= opts.c_tol + 1e-12

    def test_known_rate_single_mode(self):
        # mu_Q(-I) = -1 for every metric: the best certifiable rate is 1
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        result = search_certificate(system)
        assert result.found
        assert result.metric.c == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("kwargs, match", [
        ({"c_hi": math.inf}, "finite 0 <= c_lo < c_hi"),
        ({"c_hi": math.nan}, "finite 0 <= c_lo < c_hi"),
        ({"c_lo": 2.0, "c_hi": 1.0}, "finite 0 <= c_lo < c_hi"),
        ({"c_tol": 0.0}, "c_tol"),
        ({"c_tol": -1e-3}, "c_tol"),
        ({"c_tol": math.inf}, "c_tol"),
        ({"c_tol": math.nan}, "c_tol"),
    ])
    def test_options_must_be_finite(self, kwargs, match):
        # an infinite c_hi, or a c_tol <= 0, once made the bisection endless
        with pytest.raises(ValueError, match=match):
            SearchOptions(**kwargs)


class TestSearchMargin:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "chain4", "chain3d"])
    def test_agrees_with_public_margin(self, name, request):
        # the search reduces one batch evaluation of the condition table; the
        # public margin reduces the certificate report of the same table
        system = request.getfixturevalue(name)
        table = condition_table(system)
        n = system.dimension
        rng = np.random.default_rng(2024)
        for _ in range(25):
            L = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
            L[np.diag_indices(n)] = rng.uniform(0.2, 1.5, n)
            Q, c = L @ L.T, float(rng.uniform(0.0, 3.0))
            expected = margin(system, Metric(Q, c))
            assert _search_margin(table, Q, c) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_identity_values(self, ex1, ex2):
        assert _search_margin(condition_table(ex1), np.eye(2), 0.5) == 0.0
        assert _search_margin(condition_table(ex2), np.eye(2), 1.87) > 0.0


class TestExactSynthesis:
    # rates found by the earlier simplex search with default options; the
    # exact synthesis must find at least these, less the bisection tolerance
    EARLIER = {"ex1": 0.9994353027343749, "ex2": 1.8782536621093748,
               "chain4": 0.9994353027343749, "chain3d": 0.9994353027343749,
               "ex1_transformed": 0.9994353027343749}

    @pytest.mark.parametrize("name", sorted(EARLIER))
    def test_rate_at_least_the_earlier_search(self, name, request):
        opts = SearchOptions()
        result = search_certificate(request.getfixturevalue(name), opts=opts)
        assert result.found and result.reason == ""
        assert result.metric.c >= self.EARLIER[name] - opts.c_tol
        assert result.report.passed
        assert result.metric.cond() <= 1e6

    @pytest.mark.parametrize("name", sorted(EARLIER))
    def test_zero_bound_conditions_met_exactly(self, name, request):
        # P u = -kappa g holds in the admissible subspace itself, so the jump
        # and half-manifold worsts sit at rounding level, not at TOL_ZERO
        result = search_certificate(request.getfixturevalue(name))
        for cond in result.report.conditions:
            if cond.kind == "jump":
                assert cond.worst <= 1e-12, cond.cond_id

    def test_transformed_example_reference_metric(self, ex1_transformed):
        assert margin(ex1_transformed, Metric(np.linalg.inv(T), 0.5)) >= -1e-12
        assert margin(ex1_transformed, Metric.identity(2, 0.5)) < 0.0

    def test_example1_bench_bracket_stays_below_the_supremum(self, ex1):
        # c = 1 is the supremum over metrics, attained only as cond(Q) -> inf
        result = search_certificate(ex1, opts=SearchOptions(c_lo=0.99, c_hi=1.01))
        assert result.found
        assert 0.99 <= result.metric.c < 1.0
        assert result.metric.cond() <= 1e4

    def test_cond_bound_caps_the_metric(self, ex1, monkeypatch):
        monkeypatch.setattr(qsearch, "_MAX_COND", 10.0)
        result = search_certificate(ex1)
        assert result.found
        assert result.metric.cond() <= 10.0 * (1 + 1e-12)
        assert result.metric.c < 0.99

    def test_jump_vanishing_next_to_a_vertex(self):
        # the field jump (x2 - 5 + 1e-10, 0) on x1 = 0 vanishes 1e-10 inside the
        # box: the jump row at the vertex (0, 5) has u.g = +1e-10, within the
        # certificate's TOL_ZERO allowance, so it is no proof against a metric
        eye = [[-1.0, 0.0], [0.0, -1.0]]
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": eye, "b": [0.0, 0.0]},
                      {"A": [[-1.0, 1.0], [0.0, -1.0]], "b": [1e-10 - 5.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        table = condition_table(system)
        assert 0.0 < np.trace(table.mats[table.conditions[-1].rows][-1]) <= 1e-9
        opts = SearchOptions(c_hi=2.0)
        result = search_certificate(system, opts=opts)
        assert result.found and result.report.passed
        # the rate the earlier simplex search found here
        assert result.metric.c >= 0.9995239257812499 - opts.c_tol

    def test_jump_constraints_without_positive_definite_p(self):
        # P (-1, -1) and P (-1, 1) must both be parallel to e1: P is singular
        eye = [[-1.0, 0.0], [0.0, -1.0]]
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": eye, "b": [3.0, 1.0]}, {"A": eye, "b": [2.0, 0.0]},
                      {"A": eye, "b": [1.0, 1.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 2.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        result = search_certificate(system)
        assert not result.found and result.metric is None
        assert "jump conditions" in result.reason
        assert result.trace == []

    def test_jump_term_of_the_wrong_sign(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0, 0.0]},
                      {"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [3.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        result = search_certificate(system)
        assert not result.found
        assert result.reason.startswith("jump[1]:")

    def test_non_affine_table_says_why(self, circle):
        result = search_certificate(circle)
        assert not result.found
        assert "affine" in result.reason

import numpy as np
import pytest

from pwscontract.certify import condition_table
from pwscontract.measure import Metric
from pwscontract.qsearch import (
    SearchOptions,
    _search_margin,
    margin,
    search_certificate,
)

from conftest import make_system


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
        result = search_certificate(ex2, opts=SearchOptions(c_hi=4.0,
                                                            restarts=2,
                                                            max_iter=150))
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

    def test_seed_determinism(self, ex1):
        opts = SearchOptions(seed=42, c_hi=2.0, restarts=2, max_iter=80)
        a = search_certificate(ex1, opts=opts)
        b = search_certificate(ex1, opts=opts)
        assert a.metric.c == b.metric.c
        assert np.array_equal(a.metric.Q, b.metric.Q)

    def test_returned_rate_tracks_trace(self, ex1):
        opts = SearchOptions(c_tol=1e-3, c_hi=2.0, restarts=2, max_iter=80)
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

import json
import math

import numpy as np
import pytest

from pwscontract.certify import PASS_TOL, TOL_EQ, TOL_ZERO, ConditionTable, condition_table
from pwscontract import certify, qsearch
from pwscontract.measure import Metric
from pwscontract.model import ConfigError, builtin_config_path, load_system_file
from pwscontract.qsearch import SearchOptions, margin, search_certificate

from conftest import BAD_CROSS_ERRORS, BAD_CROSSES, VANISHING_CROSS, derived, make_system

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

    @pytest.mark.parametrize("b4, scale", [([6.05, -1.25], 1.0),
                                           ([6.0 + 3.5e-8, -1.3 + 3.5e-8], 1e-2)])
    def test_violated_intersection_equality_counts(self, b4, scale):
        # a cross whose field combination f2 + f4 - f1 - f3 misses zero at the
        # intersection: the residual caps the margin whatever the jump rows
        # read (with normals of length 1e-2 they read about 1e-9)
        doc = json.loads(builtin_config_path("example2").read_text())
        doc["modes"][3]["b"] = b4
        for man in doc["manifolds"]:
            man["c"] = [scale * v for v in man["c"]]
        system = make_system(doc)
        (eq,) = [c for c in condition_table(system).conditions if c.kind == "equality"]
        assert eq.residual > 1e-8
        assert margin(system, Metric.identity(2, 0.5)) <= -eq.residual

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

    def test_returned_rate_tracks_trace(self, ex1, ex2):
        # one trace entry per point (the start, then each centre): the returned
        # rate is the best accepted one, within c_tol of the duality bound
        opts = SearchOptions(c_hi=2.0)
        for system in (ex1, ex2):
            result = search_certificate(system, opts=opts)
            accepted = [c for c, m in result.trace if m >= -1e-12]
            assert result.metric.c == max(accepted)
            assert len(result.trace) == result.stats["centres"] + 1
            upper = result.stats["upper_bound"]
            assert result.metric.c <= upper
            if result.metric.c < opts.c_hi:
                assert upper - result.metric.c <= opts.c_tol

    def test_known_rate_single_mode(self):
        # mu_Q(-I) = -1 for every metric: the best certifiable rate is 1, and
        # the duality bound holds it from above
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        result = search_certificate(system)
        assert result.found
        assert result.metric.c <= 1.0 <= result.stats["upper_bound"]
        assert result.metric.c == pytest.approx(1.0, abs=2e-3)

    def test_statistics(self, ex1):
        result = search_certificate(ex1, opts=SearchOptions(c_lo=0.99, c_hi=1.01))
        stats = result.stats
        assert stats["centres"] == len(stats["newton_steps_per_centre"])
        assert stats["newton_steps"] == sum(stats["newton_steps_per_centre"])
        assert stats["cond_q"] == result.metric.cond()
        # each centre starts from a prediction of it: a few Newton steps each
        assert stats["newton_steps"] <= 8 * stats["centres"] <= 8 * 120

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
        # an infinite c_hi, or a c_tol <= 0, once made the search endless; the
        # stopping gap is now a constant, so any c_tol argument is refused
        error = TypeError if "c_tol" in kwargs else ValueError
        with pytest.raises(error, match=match):
            SearchOptions(**kwargs)

    def test_stopping_gap_is_fixed(self):
        # c_tol is a constant of the search, not an option (a c_tol <= 0 once
        # made the search endless)
        assert SearchOptions().c_tol == SearchOptions(c_hi=2.0).c_tol == 1e-3
        with pytest.raises(TypeError):
            SearchOptions(c_tol=1e-2)


def _validated_margin(table, Q, c):
    """The margin of Q at rate c (which may be negative), Q validated."""
    return table.margin(table.worsts(Metric(Q, 0.0).measures(table.mats)), c)


def _jump_chain(delta, scale=1.0):
    """A chain whose one jump term (delta, 0) (scale, 0)^T has measure
    delta * scale for Q = I: a zero-bound worst wherever delta puts it."""
    return make_system({
        "dimension": 2, "topology": "chain",
        "modes": [{"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0, 0.0]},
                  {"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0 + delta, 0.0]}],
        "manifolds": [{"c": [scale, 0.0], "d": 0.0}],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


class TestSearchMargin:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "chain4", "chain3d"])
    def test_agrees_with_public_margin(self, name, request):
        # the margin and the certificate report reduce the same evaluation of
        # the table: the same verdict, and the report's least flow margin
        # wherever no zero-bound condition fails
        system = request.getfixturevalue(name)
        table = condition_table(system)
        n = system.dimension
        rng = np.random.default_rng(2024)
        for _ in range(25):
            L = np.tril(rng.uniform(-1.0, 1.0, (n, n)))
            L[np.diag_indices(n)] = rng.uniform(0.2, 1.5, n)
            metric = Metric(L @ L.T, float(rng.uniform(0.0, 3.0)))
            m, report = margin(system, metric), table.report(metric)
            assert (m >= -PASS_TOL) == report.passed
            flows = min(r.margin for r in report.conditions if r.kind == "flow")
            gates = [r.margin for r in report.conditions if r.kind != "flow"]
            if all(g >= -PASS_TOL for g in gates):
                assert m == flows
            else:
                assert m < -PASS_TOL

    def test_identity_values(self, ex1, ex2):
        assert margin(ex1, Metric.identity(2, 0.5)) == 0.0
        assert margin(ex2, Metric.identity(2, 1.87)) > 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_zero_bound_allowance_is_the_report_s(self, scale, monkeypatch):
        # a jump worst just inside, then just outside, TOL_ZERO: the margin
        # passes exactly where the report does, also once the allowance moves
        for delta, inside in ((TOL_ZERO * (1 - 1e-2), True), (TOL_ZERO * (1 + 1e-2), False)):
            system, metric = _jump_chain(delta / scale, scale), Metric.identity(2, 0.5)
            report = condition_table(system).report(metric)
            assert report.condition("jump[1]").worst == pytest.approx(delta, rel=1e-6)
            assert report.passed == inside == (margin(system, metric) >= -PASS_TOL)
            monkeypatch.setattr(certify, "TOL_ZERO", 2 * TOL_ZERO)
            report = condition_table(system).report(metric)
            assert report.passed and margin(system, metric) >= -PASS_TOL
            monkeypatch.undo()

    def test_equality_allowance_is_the_report_s(self, monkeypatch):
        # example2 with mode 4's offset moved by delta along x1: the
        # intersection residual is delta, just inside, then just outside,
        # TOL_EQ; the report and the margin pass alike, also once the
        # allowance moves (normals of length 1e-2 keep the jump rows, which
        # move by delta too, far inside TOL_ZERO)
        def verdicts(system, metric):
            table = condition_table(system)
            worsts = table.worsts(metric.measures(table.mats))
            return (table.report(metric).passed, table.margin(worsts, metric.c) >= -PASS_TOL,
                    margin(system, metric) >= -PASS_TOL)

        for delta, inside in ((TOL_EQ * (1 - 1e-2), True), (TOL_EQ * (1 + 1e-2), False)):
            doc = json.loads(builtin_config_path("example2").read_text())
            doc["modes"][3]["b"][0] += delta
            for man in doc["manifolds"]:
                man["c"] = [1e-2 * v for v in man["c"]]
            system, metric = make_system(doc), Metric.identity(2, 0.5)
            report = condition_table(system).report(metric)
            assert report.condition("intersection-eq").worst == pytest.approx(delta, rel=1e-6)
            assert verdicts(system, metric) == (inside,) * 3
            monkeypatch.setattr(certify, "TOL_EQ", 2 * TOL_EQ)
            assert verdicts(system, metric) == (True,) * 3
            monkeypatch.undo()


def _recording_roots(monkeypatch):
    """The Q of every centre of the searches run after the call, in order."""
    roots, root = [], qsearch._root

    def recording(P):
        roots.append((out := root(P))[0])
        return out

    monkeypatch.setattr(qsearch, "_root", recording)
    return roots


def _counting(monkeypatch, module, name):
    """Calls of module.name from now on, counted in a list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


class TestCentreMargin:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "chain4", "chain3d", "ex1_transformed"])
    def test_equals_the_validated_margin(self, name, request, monkeypatch):
        # every condition is measured with the centre's own factor, Q not
        # re-validated: the validated margin of every centre's Q, to the
        # rounding of Q^-1, and never above it beyond PASS_TOL, also for the
        # cond(Q) of about 4e3 of the transformed example1
        system = request.getfixturevalue(name)
        for opts in (SearchOptions(), SearchOptions(c_lo=0.99, c_hi=1.01)):
            roots = _recording_roots(monkeypatch)
            result = search_certificate(system, opts=opts)
            monkeypatch.undo()
            assert len(roots) == len(result.trace) > 0
            table = condition_table(system)
            for (c, m), Q in zip(result.trace, roots):
                validated = _validated_margin(table, Q, c)
                assert m == pytest.approx(validated, abs=1e-12)
                assert m <= validated + 1e-12

    @pytest.mark.parametrize("name", ["ex1", "ex2", "chain4", "chain3d"])
    def test_one_validation_per_search(self, name, request, monkeypatch):
        # only the re-check of the returned metric validates a Q
        from pwscontract import measure

        system = request.getfixturevalue(name)
        factors = _counting(monkeypatch, measure, "_factor")
        result = search_certificate(system)
        assert result.found and result.report.passed
        assert len(factors) == 1

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex1_transformed"])
    def test_one_re_check_per_search(self, name, request, monkeypatch):
        # the best accepted centre is the one metric the table re-checks
        system = request.getfixturevalue(name)
        reports = _counting(monkeypatch, ConditionTable, "report")
        result = search_certificate(system)
        assert result.found and result.report.passed and len(reports) == 1
        assert result.metric.c == max(c for c, m in result.trace if m >= -1e-12)
        assert margin(system, result.metric) >= -1e-12

    def test_a_failing_equality_caps_every_centre(self, monkeypatch):
        # the intersection equality does not depend on the metric: violated,
        # it caps the margin of every centre, and no centre is re-checked
        system = load_system_file(builtin_config_path("example2"))
        built, residual = condition_table(system), 1e-6
        table = ConditionTable(2, "vertex", [
            (cond.cond_id, cond.kind, cond.domain, cond.method, built.mats[cond.rows],
             cond.points, residual if cond.kind == "equality" else cond.residual)
            for cond in built.conditions])
        monkeypatch.setattr(qsearch, "condition_table", lambda system: table)
        reports = _counting(monkeypatch, ConditionTable, "report")
        result = search_certificate(system)
        assert not result.found and result.reason.startswith("no Q with cond(Q) <= ")
        assert result.trace and all(m <= -residual for c, m in result.trace)
        assert reports == []

    @pytest.mark.parametrize("first", [1, 3])
    def test_a_refused_centre_stops_the_search(self, first, ex1, monkeypatch):
        # the measure refuses the table from trace point `first` on: the
        # search has no rate to step from there and stops, its trace entry
        # the target of that centring (c_lo at the start point), which the
        # refused centre's rate exceeds; the best earlier centre is
        # re-checked and returned, or the reason names the refusal
        calls, measures, opts = [], qsearch._measures, SearchOptions(c_hi=2.0)

        def refusing(factor, mats):
            calls.append(1)
            if len(calls) >= first:
                raise ValueError("A must have finite entries (and Q A Q^-1 must not overflow)")
            return measures(factor, mats)

        roots = _recording_roots(monkeypatch)
        monkeypatch.setattr(qsearch, "_measures", refusing)
        result = search_certificate(ex1, opts=opts)
        assert len(calls) == len(result.trace) == len(roots) == first
        assert result.stats["centres"] == first - 1
        c, m = result.trace[-1]
        assert m == -math.inf and math.isfinite(c)
        assert c == (result.stats["targets"][-1] if first > 1 else opts.c_lo)
        table = condition_table(ex1)
        flows = Metric(roots[-1], 0.0).measures(table.mats)
        assert c < -max(flows[cond.rows].max() for cond in table.conditions
                        if cond.kind == "flow")
        earlier = [rate for rate, slack in result.trace[:-1] if slack >= -PASS_TOL]
        if first > 1:
            assert earlier and result.found and result.report.passed
            assert result.metric.c == max(earlier)
        else:
            assert not result.found and result.trace == [(opts.c_lo, -math.inf)]
            assert result.reason.startswith("the measure refused the table at point 1 of the trace: ")

    def test_phase_times(self, ex1):
        for system, opts in ((ex1, SearchOptions(c_lo=0.99, c_hi=1.01)),
                             (ex1, SearchOptions(c_lo=5.0, c_hi=6.0))):
            phases = search_certificate(system, opts=opts).stats["phase_ms"]
            assert set(phases) == {"setup", "centring", "checks", "recheck"}
            assert all(math.isfinite(ms) and ms >= 0.0 for ms in phases.values())


def _counts(result):
    stats = dict(result.stats)
    del stats["phase_ms"]
    return stats


class TestSearchMemo:
    def test_second_search_builds_no_set_up(self, monkeypatch):
        system = load_system_file(builtin_config_path("example1"))
        admissible = _counting(monkeypatch, qsearch, "_admissible")
        opts = SearchOptions(c_lo=0.99, c_hi=1.01)
        cold = search_certificate(system, opts=opts)
        assert len(admissible) == 1
        warm = search_certificate(system, opts=opts)
        assert len(admissible) == 1
        assert warm.trace == cold.trace and _counts(warm) == _counts(cold)
        assert np.array_equal(warm.metric.Q, cold.metric.Q)
        assert warm.metric.c == cold.metric.c
        assert warm.report.to_dict() == cold.report.to_dict()

    def test_memoized_arrays_are_read_only(self, ex2):
        search_certificate(ex2)
        (setup,) = derived(ex2, "search")
        arrays = list(vars(setup).values())
        assert len(arrays) == 4
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_a_set_up_reason_is_returned_again(self, monkeypatch):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0, 0.0]},
                      {"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [3.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        admissible = _counting(monkeypatch, qsearch, "_admissible")
        first, second = search_certificate(system), search_certificate(system)
        assert len(admissible) == 1
        assert not second.found and second.reason == first.reason
        assert second.reason.startswith("jump[1]:")

    def test_an_undecidable_common_sector_is_a_reason(self):
        # the common-sector test of the table raises TopologyError on this
        # cross; the search once let it through instead of saying why
        result = search_certificate(make_system(VANISHING_CROSS))
        assert not result.found and result.metric is None and result.trace == []
        assert "Lie derivative vanishes" in result.reason
        assert result.stats["centres"] == 0

    @pytest.mark.parametrize("name", sorted(BAD_CROSSES))
    def test_cross_without_intersection_in_the_box_never_reaches_a_search(self, name):
        # such a cross once made the search raise TopologyError from its
        # table; the system is now refused when it is built
        with pytest.raises(ConfigError, match=BAD_CROSS_ERRORS[name]):
            search_certificate(make_system(BAD_CROSSES[name]))


class TestExactSynthesis:
    # rates found by the earlier simplex search with default options; the
    # exact synthesis must find at least these, less the stopping gap c_tol
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

    # rates the bisection on c returned before the method of centres replaced
    # it; the search must not fall below them
    BISECTION = {("ex1", None): 0.999435, ("ex2", None): 1.878254,
                 ("ex1", (0.99, 1.01)): 0.999375, ("ex2", (1.87, 1.89)): 1.878125}

    @pytest.mark.parametrize("name, bracket", sorted(BISECTION, key=str))
    def test_rate_at_least_the_bisection(self, name, bracket, request):
        system = request.getfixturevalue(name)
        opts = SearchOptions(*bracket) if bracket else SearchOptions()
        result = search_certificate(system, opts=opts)
        assert result.found and result.report.passed
        assert result.metric.c >= self.BISECTION[name, bracket]
        # no metric beats the slowest mode's decay rate
        bound = min(-np.linalg.eigvals(m.affine.A).real.max() for m in system.modes)
        assert result.metric.c <= bound + 1e-12

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
        # phase 1 proves it in as many centres as with _THETA's rule alone:
        # with no free coordinate there is nothing to predict, so every
        # target takes that rule and no long step is tried
        assert result.stats["centres"] == 18
        assert result.stats["predictor"] == {"accepted": 0, "cuts": 0, "fallbacks": 0}

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


def _z_of(setup, Q):
    """The coordinates z of Q^2 / tr Q^2 = P0 + sum_k z_k D[k]."""
    P = Q @ Q / np.trace(Q @ Q)
    return np.linalg.lstsq(setup.D.reshape(len(setup.D), -1).T, (P - setup.P0).ravel(),
                           rcond=None)[0]


def _predictor_counts():
    return dict.fromkeys(("accepted", "cuts", "fallbacks"), 0)


class TestPathFollowing:
    def test_flow_path_tangent_matches_central_difference(self, ex1, monkeypatch):
        # dz/dlam at a centre against (z*(lam + h) - z*(lam - h)) / 2h of two
        # tightly centred runs: a wrong sign or factor would only cost steps
        setup = qsearch._setup(condition_table(ex1), 2)
        path = qsearch._paths(setup, 1.0 / qsearch._MAX_COND ** 2)[1]
        z0 = _z_of(setup, search_certificate(ex1).metric.Q)  # rate 0.9997
        monkeypatch.setattr(qsearch, "_CENTRED", 1e-20)
        h = 1e-4
        for lam in (0.5, 0.9, 0.99):
            z, _, _, (at, dzdl) = qsearch._centre(path, lam, z0, [])
            plus = qsearch._centre(path, lam + h, z, [])[0]
            minus = qsearch._centre(path, lam - h, z, [])[0]
            assert at == lam
            np.testing.assert_allclose(dzdl, (plus - minus) / (2 * h), rtol=1e-4)
            assert np.abs(dzdl).max() > 1e-2  # the centres do move

    def test_phase_one_tangent_matches_central_difference(self, monkeypatch):
        # the single block P0 - t I + sum_k z_k D[k] on a 3 x 3 space whose
        # centre moves with t
        rng = np.random.default_rng(7)
        D = rng.normal(size=(2, 3, 3))
        D = D + D.swapaxes(1, 2)
        D -= np.trace(D, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
        setup = qsearch._Setup(np.diag([0.6, 0.3, 0.1]), D / 10,
                               np.zeros((1, 3, 3)), np.zeros((1, 2, 3, 3)))
        path = qsearch._paths(setup, 1e-12)[0]
        monkeypatch.setattr(qsearch, "_CENTRED", 1e-20)
        h = 1e-5
        z, _, _, (_, dzdt) = qsearch._centre(path, 0.05, np.zeros(2), [])
        plus = qsearch._centre(path, 0.05 + h, z, [])[0]
        minus = qsearch._centre(path, 0.05 - h, z, [])[0]
        np.testing.assert_allclose(dzdt, (plus - minus) / (2 * h), rtol=1e-4)
        assert np.abs(dzdt).max() > 1e-2

    @pytest.mark.parametrize("name, steps, centres", [("ex1", 70, 20), ("ex2", 10, 10)])
    def test_newton_steps_stay_few(self, name, steps, centres, request):
        # a deterministic gate on the work, free of the host's timing noise:
        # the default bracket takes 57 steps in 16 centres on example1 and 6
        # in 8 on example2; targets of _THETA's rule alone took 23 in 73 and
        # 1 in 14, and without the predictor 410 in 82 and 34 in 14
        stats = search_certificate(request.getfixturevalue(name)).stats
        assert stats["newton_steps"] <= steps
        assert stats["centres"] <= centres

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_every_prediction_is_accepted(self, name, request):
        # every centring but the first (no phase 1 runs: P0 = I/2) starts
        # from its prediction; a long step is cut where the prediction
        # leaves the feasible set, and no target falls back to its centre
        result = search_certificate(request.getfixturevalue(name))
        assert result.stats["predictor"] == {
            "accepted": result.stats["centres"] - 1, "cuts": {"ex1": 2, "ex2": 5}[name],
            "fallbacks": 0}

    def test_an_infeasible_prediction_is_cut_or_dropped(self, ex1):
        setup = qsearch._setup(condition_table(ex1), 2)
        path = qsearch._paths(setup, 1.0 / qsearch._MAX_COND ** 2)[1]
        z0 = _z_of(setup, search_certificate(ex1).metric.Q)
        lam, A0, B0, AD, BD = 0.9, *path
        z, _, _, tangent = qsearch._centre(path, lam, z0, [])

        def feasible(y, at):
            F = A0 + at * B0 + np.einsum("k,kjab->jab", y, AD + at * BD)
            return np.linalg.eigvalsh(F)[:, 0].min() > 0.0

        def edge(ok):  # the sup of the targets above lam at which ok holds
            inside, outside = lam, lam + 1.0
            assert ok(inside) and not ok(outside)
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                inside, outside = (mid, outside) if ok(mid) else (inside, mid)
            return inside

        rate = edge(lambda at: feasible(z, at))  # c(P(z)) = 0.9124
        reach = edge(lambda at: feasible(z + (at - lam) * tangent[1], at))
        assert qsearch._OMEGAS[0] == 1.0 - qsearch._THETA and qsearch._OMEGAS[-1] == 4.0
        # after an easy centring level 1 is raised to 2, whose target lies 1.2
        # times as far as the prediction stays feasible: it is cut once to
        # level 1, 0.8 times as far, and taken at its prediction
        c, counts = lam + 1.2 * (reach - lam) / qsearch._OMEGAS[2], _predictor_counts()
        target, start, level = qsearch._target(path, lam, c, z, tangent, 1,
                                               [qsearch._EASY], counts)
        assert counts == {"accepted": 1, "cuts": 1, "fallbacks": 0}
        assert (target, level) == (lam + qsearch._OMEGAS[1] * (c - lam), 1)
        np.testing.assert_array_equal(start, z + (target - lam) * tangent[1])
        assert feasible(start, target)
        # a prediction a thousand times too long is infeasible at levels 2
        # (kept after a hard centring), 1 and 0: the target is _THETA's rule
        # at the last centre, where every block is positive definite
        far = (lam, 1e3 * tangent[1])
        target, start, level = qsearch._target(path, lam, rate, z, far, 2,
                                               [qsearch._EASY + 1], counts)
        assert counts == {"accepted": 1, "cuts": 4, "fallbacks": 1}
        assert (target, level) == (qsearch._THETA * lam + (1.0 - qsearch._THETA) * rate, 0)
        assert start is z and feasible(z, target)


def _scanned_optimum(system, points=4001):
    """max c(P(z)) = -max_j mu_Q(A_j), Q = P(z)^(1/2), over the admissible line
    P(z) = P0 + z D >= I/_MAX_COND^2, on a grid refined about its best point."""
    table = condition_table(system)
    setup = qsearch._setup(table, system.dimension)
    assert setup.D.shape == (1, 2, 2)
    P0, (D,) = setup.P0, setup.D
    M = P0 - np.eye(2) / qsearch._MAX_COND ** 2
    # det(M + z D) is a quadratic in z; tr D = 0, so it is >= 0 between its roots
    lo, hi = np.sort(np.roots([np.linalg.det(D),
                               M[0, 0] * D[1, 1] + M[1, 1] * D[0, 0] - 2.0 * M[0, 1] * D[0, 1],
                               np.linalg.det(M)]).real)
    A = np.concatenate([table.mats[c.rows] for c in table.conditions if c.kind == "flow"])

    def rates(z):
        w, V = np.linalg.eigh(P0 + z[:, None, None] * D)
        s = np.sqrt(w)[:, None, :]
        Q, Qi = (V * s) @ V.swapaxes(1, 2), (V / s) @ V.swapaxes(1, 2)
        S = Q[:, None] @ A @ Qi[:, None]
        return -np.linalg.eigvalsh(0.5 * (S + S.swapaxes(2, 3)))[..., -1].max(axis=1)

    z = np.linspace(lo, hi, points)
    c = rates(z)
    i = int(np.argmax(c))
    fine = rates(np.linspace(z[max(i - 1, 0)], z[min(i + 1, points - 1)], points))
    assert np.isfinite(c).all() and np.isfinite(fine).all()
    return max(c.max(), fine.max())


class TestOptimumOracle:
    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_search_reaches_the_scanned_optimum(self, name, request):
        # both examples have a one-dimensional admissible space: the best
        # rate is a scan over it, independent of the centres and their bound
        system = request.getfixturevalue(name)
        best, opts = _scanned_optimum(system), SearchOptions()
        result = search_certificate(system, opts=opts)
        assert result.found and result.report.passed
        assert result.metric.c >= best - opts.c_tol
        assert result.stats["upper_bound"] >= best - 1e-9

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_no_target_overshoots_the_scanned_optimum(self, name, request):
        # a target is a rate some P is feasible at, so a long step stays
        # below the best rate, however far its level reaches
        system = request.getfixturevalue(name)
        best, stats = _scanned_optimum(system), search_certificate(system).stats
        assert len(stats["targets"]) == stats["centres"]
        assert max(stats["targets"]) < best

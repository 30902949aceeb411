import inspect
import json
import math

import numpy as np
import pytest

from pwscontract.measure import Metric
from pwscontract.model import (AnalysisBox, ConfigError, Manifold, Mode, PwsSystem,
                               builtin_config_path, load_system_file)
from pwscontract import certify, qsearch, regularize
from pwscontract.certify import (
    CertificateError,
    check_chain_certificate,
    check_cross_certificate,
    check_regularized_chain,
    check_regularized_cross,
    condition_table,
    pairwise_contraction_test,
)
from pwscontract.qsearch import SearchOptions, margin, search_certificate

from conftest import CHAIN4, OUTSIDE_MANIFOLD, make_system


def perturbed_ex2(b4):
    doc = json.loads(builtin_config_path("example2").read_text())
    doc["modes"][3]["b"] = list(b4)
    return make_system(doc)


IDENTICAL_CROSS = {
    "dimension": 2, "topology": "planar_cross",
    "modes": [{"A": [[-3.0, 0.0], [0.0, -3.0]], "b": [1.0, -2.0]}] * 4,
    "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# a jump field (10 x2, 0) that vanishes on the manifold x1 = 0 only at x2 = 0
# and grows across the band
BAND_SYSTEM = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-5.0, 0.0], [0.0, -5.0]], "b": [1.0, 0.0]},
              {"A": [[-5.0, 10.0], [0.0, -5.0]], "b": [1.0, 0.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}


class TestChainCertificate:
    def test_example1_passes_at_half(self, ex1):
        report = check_chain_certificate(ex1, Metric.identity(2, 0.5))
        assert report.passed
        margins = [report.condition(f"flow[{i}]").margin for i in (1, 2, 3)]
        assert margins[0] == pytest.approx(0.0, abs=1e-12)
        assert margins[1] == pytest.approx((3 - math.sqrt(2)) / 2 - 0.5, abs=1e-12)
        assert margins[2] == pytest.approx((4 - math.sqrt(5)) / 2 - 0.5, abs=1e-12)
        for k in (1, 2):
            assert report.condition(f"jump[{k}]").worst <= 1e-9

    def test_example1_fails_at_point_six(self, ex1):
        report = check_chain_certificate(ex1, Metric.identity(2, 0.6))
        assert not report.passed
        assert report.condition("flow[1]").margin == pytest.approx(-0.1, abs=1e-12)

    def test_single_contracting_smooth_mode(self):
        A = np.array([[-2.0, 0.5], [0.0, -1.0]])
        mode = Mode.from_handles(1, lambda x: A @ x + np.tanh(x) * 0.0,
                                 lambda x: A)
        from pwscontract.model import AnalysisBox
        system = PwsSystem(2, "chain", [mode], [],
                           AnalysisBox([-1.0, -1.0], [1.0, 1.0]))
        report = check_chain_certificate(system, Metric.identity(2, 0.5),
                                         strategy="grid")
        assert report.passed
        assert len(report.conditions) == 1  # no jump conditions

    def test_vertex_needs_affine(self):
        mode = Mode.from_handles(1, lambda x: -x, lambda x: -np.eye(2))
        from pwscontract.model import AnalysisBox
        system = PwsSystem(2, "chain", [mode], [],
                           AnalysisBox([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(CertificateError, match="affine"):
            check_chain_certificate(system, Metric.identity(2, 0.5))

    def test_grid_agrees_with_vertex(self, ex1):
        metric = Metric.identity(2, 0.5)
        rv = check_chain_certificate(ex1, metric, strategy="vertex")
        rg = check_chain_certificate(ex1, metric, strategy="grid")
        for cond in rg.conditions:
            assert cond.worst <= rv.condition(cond.cond_id).worst + 1e-9

    def test_grid_meshes_the_callers_box(self, ex1):
        # to certify over another box, the caller builds the system with it
        box = AnalysisBox([-1.0, -1.0], [1.0, 1.0])
        small = PwsSystem(2, "chain", ex1.modes, ex1.manifolds, box)
        report = check_chain_certificate(small, Metric.identity(2, 0.5),
                                         strategy="grid")
        assert report.condition("jump[1]").point is not None
        for cond_id in ("jump[1]", "jump[2]"):
            point = report.condition(cond_id).point
            assert point is None or box.contains(point)

    def test_rejects_cross_topology(self, ex2):
        with pytest.raises(CertificateError):
            check_chain_certificate(ex2, Metric.identity(2, 1.0))


    def test_grid_samples_a_closed_smooth_manifold(self, circle):
        report = check_chain_certificate(circle, Metric.identity(2, 0.5),
                                         strategy="grid")
        jump = next(c for c in report.conditions if c.cond_id == "jump[1]")
        assert math.isfinite(jump.worst) and jump.worst > 0.0
        assert jump.point is not None
        assert not report.passed


class TestCrossCertificate:
    def test_example2_passes(self, ex2):
        report = check_cross_certificate(ex2, Metric.identity(2, 1.87))
        assert report.passed
        mus = [report.condition(f"flow[{i}]").worst for i in (1, 2, 3, 4)]
        expected = [-6 + math.sqrt(5), -3 + math.sqrt(5) / 2,
                    -6 + math.sqrt(17), -9 + math.sqrt(5) / 2]
        assert np.allclose(mus, expected, atol=1e-12)
        for cid in ("manifold[1]", "manifold[2]", "half[1,+]", "half[1,-]",
                    "half[2,+]", "half[2,-]"):
            assert abs(report.condition(cid).worst) <= 1e-9
        assert report.condition("intersection-eq").worst <= 1e-9
        assert "S_3" in report.notes

    def test_example2_fails_above_mode3_measure(self, ex2):
        report = check_cross_certificate(ex2, Metric.identity(2, 1.88))
        assert not report.passed

    def test_perturbed_offset_breaks_equality(self):
        system = perturbed_ex2([7.0, -1.3])
        report = check_cross_certificate(system, Metric.identity(2, 1.0))
        assert not report.passed
        assert report.condition("intersection-eq").worst == pytest.approx(1.0, abs=1e-12)

    def test_identical_modes_trivially_pass(self):
        system = make_system(IDENTICAL_CROSS)
        report = check_cross_certificate(system, Metric.identity(2, 2.9))
        assert report.passed
        for cond in report.conditions:
            if cond.kind != "flow":
                assert cond.worst == pytest.approx(0.0, abs=1e-12)

    def test_grid_agrees_with_vertex(self, ex2):
        metric = Metric.identity(2, 1.87)
        rv = check_cross_certificate(ex2, metric, strategy="vertex")
        rg = check_cross_certificate(ex2, metric, strategy="grid")
        for cond in rg.conditions:
            assert cond.worst <= rv.condition(cond.cond_id).worst + 1e-9

    def test_assumption_failure_raises(self):
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": list(b)} for b in
                      ([1, 1], [1, -1], [-1, 1], [-1, -1])],
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        with pytest.raises(CertificateError, match="common-sector"):
            check_cross_certificate(system, Metric.identity(2, 0.1))


class TestRegularizedChain:
    def test_example1_passes(self, ex1):
        report = check_regularized_chain(ex1, Metric.identity(2, 0.5), 0.05)
        assert report.passed

    def test_overlapping_bands_rejected(self, ex1):
        with pytest.raises(CertificateError, match="bands intersect"):
            check_regularized_chain(ex1, Metric.identity(2, 0.5), 1.5)

    def test_fails_at_too_large_rate(self, ex1):
        report = check_regularized_chain(ex1, Metric.identity(2, 0.9), 0.05)
        assert not report.passed

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.05])
    def test_rejects_eps_that_is_not_finite_positive(self, ex1, eps):
        # at nan every band test was false: both jump conditions read "empty"
        # and the certificate passed
        with pytest.raises(CertificateError, match="finite positive"):
            check_regularized_chain(ex1, Metric.identity(2, 0.5), eps)

    def test_band_domain_covers_offset_worst_case(self):
        # a jump field growing away from the manifold is caught on the band
        # even though it vanishes on the manifold itself
        system = make_system(BAND_SYSTEM)
        metric = Metric.identity(2, 1.0)
        limit = check_chain_certificate(system, metric)
        inflated = check_regularized_chain(system, metric, 0.5)
        # difference field (10 x2, 0): zero on x1 = 0 for x2 = 0 only
        assert limit.condition("jump[1]").worst > 1e-9
        assert inflated.condition("jump[1]").worst > \
            limit.condition("jump[1]").worst - 1e-12

    def test_grid_samples_the_closed_band(self):
        system = make_system(BAND_SYSTEM)
        metric = Metric.identity(2, 1.0)
        eps = 0.5
        grid = check_regularized_chain(system, metric, eps, strategy="grid")
        vertex = check_regularized_chain(system, metric, eps)
        jump = grid.condition("jump[1]")
        assert abs(system.manifolds[0].h(jump.point)) == eps
        assert jump.worst == vertex.condition("jump[1]").worst


class TestRegularizedCross:
    def test_identical_modes_pass(self):
        system = make_system(IDENTICAL_CROSS)
        report = check_regularized_cross(system, Metric.identity(2, 2.9), 0.05)
        assert report.passed

    def test_example2_fails_for_positive_band_width(self, ex2):
        # the diagonal field combination of the second example vanishes only
        # at the intersection point, so the band-arm conditions and the
        # central-square equality cannot hold over two-dimensional regions
        report = check_regularized_cross(ex2, Metric.identity(2, 1.87), 0.05)
        assert not report.passed
        violated = {c.cond_id for c in report.conditions if c.margin < -1e-12}
        assert violated == {"band[1]", "region[2]", "region[4]", "region[6]",
                            "region[8]", "square-eq"}
        sq = report.condition("square-eq")
        assert sq.worst == pytest.approx(math.hypot(4 * 0.05, 2 * 0.05), abs=1e-12)

    def test_perturbed_offset_breaks_square_equality(self):
        system = perturbed_ex2([7.0, -1.3])
        report = check_regularized_cross(system, Metric.identity(2, 1.0), 0.05)
        assert report.condition("square-eq").margin < 0

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.05])
    def test_rejects_eps_that_is_not_finite_positive(self, ex2, eps):
        # nan raised a numpy matmul ValueError on the empty central square,
        # and inf reported the four band arms "empty"
        with pytest.raises(CertificateError, match="finite positive"):
            check_regularized_cross(ex2, Metric.identity(2, 1.87), eps)
        with pytest.raises(CertificateError, match="finite positive"):
            condition_table(ex2, eps=eps)


def fresh(name):
    """A system of the caller's own, with no table built yet."""
    return load_system_file(builtin_config_path(name))


# each certificate check, with the system it applies to and its band width
CHECKS = [("example1", check_chain_certificate, None),
          ("example1", check_regularized_chain, 1e-2),
          ("example2", check_cross_certificate, None),
          ("example2", check_regularized_cross, 1e-2)]


class TestTableMemo:
    @pytest.mark.parametrize("name, check, eps", CHECKS)
    def test_second_check_builds_no_table(self, table_builds, name, check, eps):
        system = fresh(name)
        args = () if eps is None else (eps,)
        first = check(system, Metric.identity(2, 0.5), *args)
        second = check(system, Metric.identity(2, 0.5), *args, strategy="vertex")
        third = check(system, Metric(np.diag([1.0, 0.5]), 1.0), *args)
        assert list(table_builds.values()) == [1]
        assert first.to_dict() == second.to_dict()
        # a memoized table reports what a cold one reports
        assert third.to_dict() == check(fresh(name), third.metric, *args).to_dict()

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_search_and_margin_after_a_check_build_none(self, table_builds, name):
        system = fresh(name)
        check = check_chain_certificate if name == "example1" else check_cross_certificate
        check(system, Metric.identity(2, 0.5))
        assert sum(table_builds.values()) == 1
        qsearch.margin(system, Metric.identity(2, 0.5))
        assert search_certificate(system).found
        assert sum(table_builds.values()) == 1

    def test_box_strategy_and_eps_never_share_a_table(self, table_builds):
        # a smaller box is another system, with tables of its own
        system = fresh("example1")
        small = PwsSystem(2, "chain", system.modes, system.manifolds,
                          AnalysisBox([-4.0, -5.0], [5.0, 5.0]))

        def build_all(eps=1e-2):
            return [condition_table(system), condition_table(small),
                    condition_table(system, strategy="grid"),
                    condition_table(system, eps=eps), condition_table(system, eps=3e-2),
                    condition_table(small, eps=eps)]

        tables = build_all()
        assert len({id(t) for t in tables}) == len(tables)
        assert sum(table_builds.values()) == len(tables)
        assert all(a is t for a, t in zip(build_all(np.float64(1e-2)), tables))
        assert sum(table_builds.values()) == len(tables)

    def test_failing_build_raises_on_every_call(self, table_builds):
        # the 1.5-bands of chain4's manifolds x1 = -2, 0, 2 overlap
        system = make_system(CHAIN4)
        for _ in range(2):
            with pytest.raises(CertificateError, match="bands intersect"):
                check_regularized_chain(system, Metric.identity(2, 0.5), 1.5)
        assert sum(table_builds.values()) == 2
        check_regularized_chain(system, Metric.identity(2, 0.5), 0.5)
        assert sum(table_builds.values()) == 3

    def test_memoized_table_is_read_only(self):
        system = fresh("example1")
        table = condition_table(system, eps=1e-2)
        assert isinstance(system.modes, tuple) and isinstance(system.manifolds, tuple)
        assert isinstance(table.conditions, tuple)
        with pytest.raises(ValueError):
            table.mats[0, 0, 0] = 1.0
        with pytest.raises(TypeError):
            table.conditions[-1].points[0][0] = 1.0


class TestOneBox:
    """Every condition is quantified over the system's own box."""

    @pytest.mark.parametrize("name, check, eps", CHECKS)
    @pytest.mark.parametrize("strategy", ["Vertex", None])
    def test_unknown_strategy_is_refused(self, table_builds, name, check, eps, strategy):
        system = fresh(name)
        args = () if eps is None else (eps,)
        with pytest.raises(CertificateError, match="unknown strategy"):
            check(system, Metric.identity(2, 0.5), *args, strategy=strategy)
        assert not table_builds

    def test_a_box_in_the_place_of_the_strategy_is_refused(self, ex1, table_builds):
        # a call written for a condition_table that took a box second
        with pytest.raises(CertificateError, match="unknown strategy"):
            condition_table(ex1, AnalysisBox([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(CertificateError, match="unknown strategy"):
            check_regularized_chain(ex1, Metric.identity(2, 0.5), 1e-2, ex1.box)
        assert not table_builds

    def test_a_box_that_breaks_the_chain_order_is_refused(self):
        # manifolds x1 = 0 and x1 + 0.1 x2 = 1 are in chain order in [-1, 1]^2
        # but meet inside [-1, 1] x [-50, 50]; a box of the caller's own once
        # let the checks quantify this unordered chain over that tall box
        modes = [Mode.from_affine(k, -np.eye(2), [0.0, 0.0]) for k in (1, 2, 3)]
        manifolds = [Manifold.from_affine("sigma_1", [1.0, 0.0], 0.0),
                     Manifold.from_affine("sigma_2", [1.0, 0.1], 1.0)]
        system = PwsSystem(2, "chain", modes, manifolds,
                           AnalysisBox([-1.0, -1.0], [1.0, 1.0]))
        assert check_chain_certificate(system, Metric.identity(2, 0.5)).passed
        with pytest.raises(ConfigError, match="out of order"):
            PwsSystem(2, "chain", system.modes, system.manifolds,
                      AnalysisBox([-1.0, -50.0], [1.0, 50.0]))

    @pytest.mark.parametrize("module", [certify, qsearch, regularize])
    def test_no_public_function_takes_a_box_or_a_regularization(self, module):
        functions = [getattr(module, name) for name in module.__all__
                     if inspect.isfunction(getattr(module, name))]
        assert functions
        for fn in functions:
            assert not {"box", "reg"} & set(inspect.signature(fn).parameters), fn


class TestConditionsWithoutPoints:
    def test_vertex_strategy_proves_the_domain_empty(self):
        system = make_system(OUTSIDE_MANIFOLD)
        for report in (check_chain_certificate(system, Metric.identity(2, 0.5)),
                       check_regularized_chain(system, Metric.identity(2, 0.5), 1e-2)):
            jump = report.condition("jump[1]")
            assert (jump.status, jump.point, jump.worst) == ("empty", None, -math.inf)
            assert report.passed
            doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
            assert (doc["conditions"][-1]["worst"], doc["conditions"][-1]["margin"],
                    doc["conditions"][-1]["status"]) == (None, None, "empty")
            assert "status" not in doc["conditions"][0]

    def test_grid_without_samples_fails(self):
        report = check_chain_certificate(make_system(OUTSIDE_MANIFOLD),
                                         Metric.identity(2, 0.5), strategy="grid")
        jump = report.condition("jump[1]")
        assert (jump.status, jump.point, jump.margin) == ("unsampled", None, -math.inf)
        assert not report.passed
        json.dumps(report.to_dict(), allow_nan=False)

    def test_circle_between_grid_lines_is_unsampled(self):
        # radius 0.1 around (0, 0.125): no grid line x2 = k/4 of the mesh meets it
        centre = np.array([0.0, 0.125])
        eye = np.eye(2)
        system = PwsSystem(
            2, "chain",
            [Mode.from_affine(1, -eye, [0.0, 0.0]), Mode.from_affine(2, -eye, [1.0, 0.0])],
            [Manifold.from_handles("small", lambda x: float((x - centre) @ (x - centre)) - 0.01,
                                   lambda x: 2.0 * (np.asarray(x) - centre))],
            AnalysisBox([-5.0, -5.0], [5.0, 5.0]))
        report = check_chain_certificate(system, Metric.identity(2, 0.5), strategy="grid")
        assert report.condition("jump[1]").status == "unsampled"
        assert not report.passed

    def test_search_treats_an_empty_condition_as_non_binding(self):
        system = make_system(OUTSIDE_MANIFOLD)
        assert margin(system, Metric.identity(2, 0.5)) == 0.5
        result = search_certificate(system, opts=SearchOptions(c_lo=0.5, c_hi=1.5))
        assert result.found and result.metric.c >= 0.999
        assert result.report.condition("jump[1]").status == "empty"


class TestBinding:
    def test_first_of_tied_conditions_binds(self, ex2):
        # at c = 1.87 the six jump conditions and the equality all hold with
        # margin 1e-9, and every flow condition with more
        report = check_cross_certificate(ex2, Metric.identity(2, 1.87))
        binding = report.binding
        assert (binding.cond_id, binding.margin, binding.point, binding.status) == (
            "manifold[1]", 1e-9, (-5.0, 0.0), "")
        assert [c.cond_id for c in report.conditions if c.margin == binding.margin][0] == \
            "manifold[1]"
        assert report.binding is binding  # computed once

    def test_failing_flow_binds(self, ex2):
        report = check_cross_certificate(ex2, Metric.identity(2, 1.88))
        binding = report.binding
        assert (binding.cond_id, binding.point, binding.status) == ("flow[3]", None, "")
        assert binding.margin == report.min_margin < 0.0
        assert not report.passed

    def test_unsampled_grid_condition_binds(self):
        report = check_chain_certificate(make_system(OUTSIDE_MANIFOLD),
                                         Metric.identity(2, 0.5), strategy="grid")
        binding = report.binding
        assert (binding.cond_id, binding.margin, binding.point, binding.status) == (
            "jump[1]", -math.inf, None, "unsampled")

    def test_empty_condition_never_binds(self):
        report = check_chain_certificate(make_system(OUTSIDE_MANIFOLD),
                                         Metric.identity(2, 0.5))
        assert report.binding.cond_id == "flow[1]"
        assert report.condition("jump[1]").status == "empty"

    def test_report_without_conditions(self):
        report = certify.CertificateReport(Metric.identity(2, 0.5), [], "vertex")
        assert report.binding is None and report.min_margin == math.inf


class TestReportShape:
    def test_to_dict_fields(self, ex1):
        report = check_chain_certificate(ex1, Metric.identity(2, 0.5))
        doc = report.to_dict()
        assert doc["verdict"] == "pass"
        assert doc["metric"]["Q"] == [[1.0, 0.0], [0.0, 1.0]]
        for cond in doc["conditions"]:
            assert set(cond) == {"id", "domain", "worst", "margin", "point",
                                 "method"}

    def test_pass_iff_min_margin(self, ex1):
        report = check_chain_certificate(ex1, Metric.identity(2, 0.5))
        assert report.passed == (report.min_margin >= -1e-12)

    def test_scaling_q_leaves_verdicts_unchanged(self, ex1, ex2):
        for system, checker, c in ((ex1, check_chain_certificate, 0.5),
                                   (ex2, check_cross_certificate, 1.87)):
            base = checker(system, Metric(np.eye(2), c))
            for gamma in (0.2, 5.0):
                scaled = checker(system, Metric(gamma * np.eye(2), c))
                assert scaled.passed == base.passed
                for a, b in zip(base.conditions, scaled.conditions):
                    assert a.worst == pytest.approx(b.worst, rel=1e-9, abs=1e-9)


class TestPairwise:
    def test_example1_pairs_decay(self, ex1):
        rng = np.random.default_rng(12345)
        pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)) for _ in range(4)]
        report = pairwise_contraction_test(ex1, Metric.identity(2, 0.5), pairs, 6.0)
        assert report.passed
        for e in report.entries:
            assert e["alpha"] >= 1.0 - 1e-9
            assert e["max_log_ratio"] <= math.log1p(1e-2)

    def test_identical_initial_states(self, ex1):
        report = pairwise_contraction_test(
            ex1, Metric.identity(2, 0.5),
            [(np.array([1.0, 1.0]), np.array([1.0, 1.0]))], 2.0)
        assert report.passed
        assert report.entries[0]["max_log_ratio"] == -math.inf

    def test_report_writes_no_non_finite_number(self):
        # both runs stay on x2 = 0 and reach the same float equilibrium, so a
        # later distance is exactly 0: the ratio test ends at the resolution
        # before that (it read log 0 - log 0 = NaN there). The second pair
        # starts at d(0) = 0 (max_log_ratio -inf, null in JSON)
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-15.0, 0.0], [0.0, -15.0]], "b": [15.0, 0.0]}],
            "manifolds": [],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        pairs = [(np.array([-3.0, 0.0]), np.array([4.0, 0.0])),
                 (np.array([1.0, 2.0]), np.array([1.0, 2.0]))]
        report = pairwise_contraction_test(system, Metric.identity(2, 0.5), pairs, 5.0)
        first, second = report.entries
        assert first["passed"] and 0.0 < first["resolved_from"] < 5.0
        assert first["worst_violation"] == 0.0
        assert second["passed"] and second["resolved_from"] == 0.0
        assert second["max_log_ratio"] == -math.inf
        doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert doc["pairs"][0]["max_log_ratio"] == 0.0
        assert doc["pairs"][1]["max_log_ratio"] is None

    def test_decay_test_ends_at_the_resolution(self, ex2):
        # a pair that never reaches the resolution keeps the whole ratio
        # test: resolved_from is None, in the report and in JSON
        pairs = [(np.array([-4.0, 3.0]), np.array([3.0, -4.0]))]
        report = pairwise_contraction_test(ex2, Metric.identity(2, 1.87), pairs, 5.0)
        assert report.passed and report.entries[0]["resolved_from"] is None
        assert report.to_dict()["pairs"][0]["resolved_from"] is None

    def test_uncertified_rate_fails(self, ex1):
        # rate far above the certified one: the bound must be violated
        pairs = [(np.array([-3.0, -4.0]), np.array([3.0, 4.0]))]
        report = pairwise_contraction_test(ex1, Metric.identity(2, 5.0), pairs, 5.0)
        assert not report.passed

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -5.0])
    def test_tol_decay_must_be_finite(self, ex1, tol):
        pairs = [(np.array([-3.0, -4.0]), np.array([3.0, 4.0]))]
        with pytest.raises(ValueError, match="tol_decay"):
            pairwise_contraction_test(ex1, Metric.identity(2, 0.5), pairs, 1.0,
                                      tol_decay=tol)

    def test_weighted_metric(self, ex2):
        # diag(1.2, 1) certifies the cross example at rate 1, so the weighted
        # separation must decay accordingly
        metric = Metric(np.diag([1.2, 1.0]), 1.0)
        assert check_cross_certificate(ex2, metric).passed
        rng = np.random.default_rng(7)
        pairs = [(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)) for _ in range(3)]
        report = pairwise_contraction_test(ex2, metric, pairs, 5.0)
        assert report.passed
        doc = report.to_dict()
        assert doc["verdict"] == "pass"
        assert doc["metric"]["Q"] == [[1.2, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_distance_is_the_row_norm(self, name):
        # the separations summed along the long axis have the bits of
        # np.linalg.norm over the rows of D Q^T, for identity and a full Q
        from pwscontract.filippov import integrate
        from pwscontract.measure import _column_norms
        from pwscontract.model import load_system_file

        system = load_system_file(builtin_config_path(name))
        ta = integrate(system, [-3.0, -4.0], 5.0).grid_samples(1e-3)[1]
        tb = integrate(system, [4.0, 2.5], 5.0).grid_samples(1e-3)[1]
        m = min(len(ta), len(tb))
        D = ta[:m] - tb[:m]
        full = np.array([[1.3, 0.4], [0.4, 0.9]])
        for Q in (np.eye(2), full):
            assert np.array_equal(_column_norms(Q @ D.T),
                                  np.linalg.norm(D @ Q.T, axis=1))
        rng = np.random.default_rng(3)
        for n in (1, 3, 7):
            D = rng.standard_normal((500, n))
            Q = rng.standard_normal((n, n))
            assert np.array_equal(_column_norms(Q @ D.T),
                                  np.linalg.norm(D @ Q.T, axis=1))

"""Wider-topology coverage: longer chains, a three-dimensional chain with a
sliding-mode equilibrium, a one-dimensional chain, and trajectories started
on a switching manifold."""

import math

import numpy as np
import pytest

from pwscontract.measure import Metric, matrix_measure
from pwscontract.model import locate
from pwscontract.filippov import integrate
from pwscontract.regularize import convergence_study
from pwscontract.certify import check_chain_certificate, check_regularized_chain
from pwscontract.qsearch import margin, search_certificate

from conftest import make_system, reduced_sliding_field


class TestFourModeChain:
    def test_locate_all_regions(self, chain4):
        assert locate(chain4, [-3.0, 0.0]).mode == 1
        assert locate(chain4, [-1.0, 0.0]).mode == 2
        assert locate(chain4, [1.0, 0.0]).mode == 3
        assert locate(chain4, [3.0, 0.0]).mode == 4

    def test_crossing_then_sliding_equilibrium(self, chain4):
        traj = integrate(chain4, [-4.0, 2.0], 12.0)
        kinds = [s.kind for s in traj.segments]
        assert kinds.count("cross") == 1  # through x1 = -2
        slides = [s for s in traj.segments if s.kind == "slide"]
        assert len(slides) == 1
        assert slides[0].manifold == "sigma_2_3"
        assert np.linalg.norm(traj.final_state) <= 1e-4
        lam = traj.lambdas[~np.isnan(traj.lambdas)]
        assert np.allclose(lam, 0.5, atol=1e-12)  # symmetric push

    def test_certificate_binds_at_rate_one(self, chain4):
        report = check_chain_certificate(chain4, Metric.identity(2, 1.0))
        assert report.passed
        assert margin(chain4, Metric.identity(2, 1.0)) == pytest.approx(0.0,
                                                                        abs=1e-12)
        assert not check_chain_certificate(chain4, Metric.identity(2, 1.1)).passed

    def test_regularized_certificate(self, chain4):
        report = check_regularized_chain(chain4, Metric.identity(2, 1.0), 0.2)
        assert report.passed

    def test_convergence_study(self, chain4):
        table = convergence_study(chain4, [-4.0, 2.0], 4.0, [1e-1, 1e-2, 1e-3])
        assert table.is_monotone_decreasing()
        assert table.fitted_slope >= 0.8


class TestThreeDimensionalChain:
    def test_slides_to_filippov_equilibrium(self, chain3d):
        traj = integrate(chain3d, [-2.0, 1.0, 0.0], 12.0)
        assert traj.has_sliding()
        assert np.linalg.norm(traj.final_state - [0.0, 0.0, 1.0]) <= 1e-4
        man = chain3d.manifolds[0]
        sid = next(i for i, s in enumerate(traj.segments) if s.kind == "slide")
        for x in traj.states[traj.seg_index == sid]:
            assert abs(man.h(x)) <= 1e-9

    def test_reduced_sliding_rates(self, chain3d):
        x = np.array([0.0, 2.0, -1.0])
        slow = reduced_sliding_field(chain3d, 1, x)
        assert np.allclose(slow, [-2.0, 2.0], atol=1e-14)

    def test_certificates_in_three_dimensions(self, chain3d):
        metric = Metric.identity(3, 1.0)
        assert check_chain_certificate(chain3d, metric).passed
        assert check_regularized_chain(chain3d, metric, 0.2).passed

    def test_convergence_study(self, chain3d):
        table = convergence_study(chain3d, [-2.0, 1.0, 0.0], 3.0,
                                  [1e-1, 1e-2, 1e-3])
        assert table.is_monotone_decreasing()


class TestOneDimensionalChain:
    """x' = -x + 2 for x < 0 and x' = -2x - 1 for x > 0: both fields push
    onto x = 0, where the sliding weight is 2/3 and the sliding field 0."""

    @pytest.fixture(scope="class")
    def line(self):
        return make_system({
            "dimension": 1, "topology": "chain",
            "modes": [{"A": [[-1.0]], "b": [2.0]}, {"A": [[-2.0]], "b": [-1.0]}],
            "manifolds": [{"c": [1.0], "d": 0.0}],
            "box": {"lower": [-5.0], "upper": [5.0]}})

    def test_slides_onto_the_point_and_stays(self, line):
        # x(t) = 2 - 5 exp(-t) reaches 0 at t = ln 2.5
        traj = integrate(line, [-3.0], 5.0)
        assert [(s.kind, s.pair) for s in traj.segments] == [("flow", None),
                                                             ("slide", (1, 2))]
        assert traj.segments[1].t_start == pytest.approx(math.log(2.5), abs=1e-6)
        on = traj.seg_index == 1
        assert np.all(np.abs(traj.states[on]) <= 1e-12)
        assert np.allclose(traj.lambdas[on], 2.0 / 3.0, rtol=0, atol=1e-12)

    def test_vertex_certificate_binds_at_rate_one(self, line):
        report = check_chain_certificate(line, Metric.identity(1, 1.0))
        assert report.passed
        assert [(c.cond_id, c.worst) for c in report.conditions] == [
            ("flow[1]", -1.0), ("flow[2]", -2.0), ("jump[1]", -3.0)]
        assert not check_chain_certificate(line, Metric.identity(1, 1.01)).passed

    def test_search_finds_rate_one(self, line):
        result = search_certificate(line)
        assert result.found and result.metric.c == 1.0

    @pytest.mark.parametrize("a", [-3.0, 0.1, 1e-300, -7e300, 2.0 / 3.0])
    def test_measure_of_a_scalar_is_the_scalar(self, a):
        assert matrix_measure(np.eye(1), [[a]]) == a


class TestOnManifoldStarts:
    def test_example1_immediate_slide(self, ex1):
        traj = integrate(ex1, [0.0, -2.0], 15.0)
        assert traj.segments[0].kind == "slide"
        assert traj.segments[0].t_start == 0.0
        assert np.linalg.norm(traj.final_state - [0.5, 0.0]) < 1e-4

    def test_example1_immediate_crossing(self, ex1):
        traj = integrate(ex1, [0.0, 0.0], 10.0)
        assert traj.segments[0].kind == "cross"
        assert traj.segments[0].pair == (1, 2)
        assert np.linalg.norm(traj.final_state - [0.5, 0.0]) < 1e-4

    def test_example2_immediate_slide(self, ex2):
        # on the vertical manifold at x2 = 2 both neighboring fields push
        # toward it, so the trajectory starts in a sliding segment
        traj = integrate(ex2, [0.0, 2.0], 15.0)
        assert traj.segments[0].kind == "slide"
        assert traj.segments[0].manifold == "sigma_2"
        assert traj.segments[0].pair == (1, 2)
        assert np.linalg.norm(traj.final_state - [1.1, 0.45]) < 1e-4

    def test_example2_start_at_intersection(self, ex2):
        traj = integrate(ex2, [0.0, 0.0], 15.0)
        assert traj.segments[0].kind == "flow"
        assert traj.segments[0].mode == 3  # the certified crossing sector
        assert np.linalg.norm(traj.final_state - [1.1, 0.45]) < 1e-4

import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pwscontract.model import (
    MAX_BISECT,
    TOL_LIE,
    AffineField,
    AnalysisBox,
    Manifold,
    Mode,
    PwsSystem,
    TopologyError,
    builtin_config_path,
    load_system_file,
    locate,
)
from pwscontract.filippov import (
    TOL_LAMBDA,
    EscapingRegionError,
    NonFiniteStateError,
    SolverOptions,
    StiffStepError,
    classify_boundary,
    integrate,
    sliding_field,
    write_trajectory_csv,
    _lambda_raw,
    _slide_field,
)
from pwscontract import filippov, regularize
from pwscontract.regularize import convergence_study, integrate_regularized

from conftest import (
    CHAIN3D,
    CHAIN_STARTS,
    GOLDEN_STARTS,
    LEAVES_BOX,
    STARTS_3D,
    STIFF,
    STIFF_SLIDE,
    STIFF_STEPWISE_SLIDE,
    SLIDE_TO_INTERSECTION,
    derived,
    handle_copy,
    handle_manifold_copy,
    make_system,
)


def fresh(name):
    return load_system_file(builtin_config_path(name))


def same_trajectory(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
               for k in ("times", "states", "lambdas", "seg_index"))


class TestClassifyBoundary:
    def test_crossing(self, ex1):
        cls = classify_boundary(ex1, 0, [0.0, 0.0])
        assert cls.kind == "crossing"
        assert (cls.sigma_i, cls.sigma_j) == (3.0, 1.0)

    def test_sliding(self, ex1):
        cls = classify_boundary(ex1, 0, [0.0, -2.0])
        assert cls.kind == "sliding"
        assert (cls.sigma_i, cls.sigma_j) == (1.0, -1.0)

    def test_escaping_on_swapped_fields(self, swapped_ex1):
        assert classify_boundary(swapped_ex1, 0, [0.0, -2.0]).kind == "escaping"

    def test_tangential_resolves_to_sliding(self, ex1):
        # sigma_j = x2 + 1 vanishes at the sliding-exit point
        cls = classify_boundary(ex1, 0, [0.0, -1.0])
        assert cls.kind == "sliding"
        assert abs(cls.sigma_j) <= TOL_LIE < abs(cls.sigma_i)

    def test_both_zero_raises(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [0, 1]}] * 2,
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-1, -1], "upper": [1, 1]},
        })
        with pytest.raises(TopologyError, match="transversality"):
            classify_boundary(system, 0, [0.0, 0.0])


class TestSlidingCoefficient:
    """The one Filippov weight, lambda = sigma_i / (sigma_i - sigma_j)."""

    def test_symmetric(self):
        assert _lambda_raw(1.0, -1.0) == 0.5

    def test_asymmetric(self):
        assert _lambda_raw(2.0, -6.0) == 0.25

    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            si = float(rng.uniform(0.01, 10))
            sj = float(-rng.uniform(0.01, 10))
            lam = _lambda_raw(si, sj)
            assert 0.0 < lam < 1.0
            scale = max(abs(si), abs(sj))
            assert (1 - lam) * si + lam * sj == pytest.approx(0.0, abs=1e-14 * scale)


class TestSlidingField:
    def test_example1_midband(self, ex1):
        fs = sliding_field(ex1, 1, 2, [0.0, -2.0])
        assert np.allclose(fs, [0.0, 2.0], atol=1e-14)

    def test_tangency_normal_component_vanishes(self, ex1):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = np.array([0.0, rng.uniform(-2.9, -1.1)])
            fs = sliding_field(ex1, 1, 2, x)
            g = ex1.manifolds[0].grad(x)
            assert abs(np.dot(g, fs)) <= 1e-12 * max(1.0, np.linalg.norm(fs))

    def test_exit_point_gives_other_field(self, ex1):
        # sigma_j = 0 there: lambda = 1 and the sliding vector equals f_2
        fs = sliding_field(ex1, 1, 2, [0.0, -1.0])
        assert np.allclose(fs, ex1.f(2, [0.0, -1.0]), atol=1e-14)
        assert np.allclose(fs, [0.0, 1.0], atol=1e-14)

    def test_equal_tangent_fields(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [0, 1]}] * 2,
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-1, -1], "upper": [1, 1]},
        })
        assert np.allclose(sliding_field(system, 1, 2, [0.0, 0.0]), [0.0, 1.0])

    def test_wrong_order_raises(self, ex1):
        with pytest.raises(ValueError, match="mode order"):
            sliding_field(ex1, 2, 1, [0.0, -2.0])

    def test_escaping_raises(self, swapped_ex1):
        with pytest.raises(ValueError, match="escaping"):
            sliding_field(swapped_ex1, 1, 2, [0.0, -2.0])

    def test_crossing_point_raises(self, ex1):
        # sigma = (3, 1) at the origin: lambda = 1.5 lies outside [0, 1]
        with pytest.raises(ValueError, match="sliding region"):
            sliding_field(ex1, 1, 2, [0.0, 0.0])


class TestIntegrateExample1:
    def test_slides_then_converges(self, ex1):
        traj = integrate(ex1, [-3.0, -4.0], 20.0)
        assert np.linalg.norm(traj.final_state - [0.5, 0.0]) < 1e-4
        slides = [s for s in traj.segments if s.kind == "slide"]
        assert len(slides) == 1
        assert slides[0].manifold == "sigma_1_2"
        assert slides[0].pair == (1, 2)

    def test_stationary_at_equilibrium(self, ex1):
        traj = integrate(ex1, [0.5, 0.0], 20.0)
        assert np.max(np.linalg.norm(traj.states - [0.5, 0.0], axis=1)) <= 1e-9

    def test_upper_manifold_slide(self, ex1):
        traj = integrate(ex1, [5.0, 5.0], 20.0)
        slides = [s for s in traj.segments if s.kind == "slide"]
        assert any(s.manifold == "sigma_2_3" for s in slides)
        assert np.linalg.norm(traj.final_state - [0.5, 0.0]) < 1e-4

    def test_segments_tile_time_range(self, ex1):
        traj = integrate(ex1, [-3.0, -4.0], 5.0)
        pieces = [s for s in traj.segments if s.kind != "cross"]
        assert pieces[0].t_start == 0.0
        assert pieces[-1].t_end == pytest.approx(5.0, abs=1e-12)
        for a, b in zip(pieces, pieces[1:]):
            assert a.t_end == pytest.approx(b.t_start, abs=1e-12)

    def test_samples_strictly_increasing(self, ex1):
        traj = integrate(ex1, [-3.0, -4.0], 5.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_sliding_consistency(self, ex1):
        # on slide samples: on the manifold, lambda in [0, 1], tangent motion
        traj = integrate(ex1, [-3.0, -4.0], 5.0)
        man = ex1.manifolds[0]
        sid = next(i for i, s in enumerate(traj.segments) if s.kind == "slide")
        mask = traj.seg_index == sid
        for x, lam in zip(traj.states[mask], traj.lambdas[mask]):
            assert abs(man.h(x)) <= 1e-9
            assert -1e-12 <= lam <= 1.0 + 1e-12
            fs = sliding_field(ex1, 1, 2, x)
            assert abs(np.dot(man.grad(x), fs)) <= 1e-8

    def test_event_localization(self, ex1):
        traj = integrate(ex1, [-3.0, 2.0], 5.0)  # crossing-rich start
        crosses = [s for s in traj.segments if s.kind == "cross"]
        assert crosses
        for seg in crosses:
            sid = traj.segments.index(seg)
            pts = traj.states[traj.seg_index == sid]
            man = next(m for m in ex1.manifolds if m.label == seg.manifold)
            for x in pts:
                assert abs(man.h(x)) <= 1e-10


class TestIntegrateExample2:
    def test_converges_to_equilibrium(self, ex2):
        traj = integrate(ex2, [-2.0, -2.0], 20.0)
        assert np.linalg.norm(traj.final_state - [1.1, 0.45]) < 1e-4

    def test_sliding_occurs_from_suitable_start(self, ex2):
        traj = integrate(ex2, [-0.3, 2.0], 20.0)
        assert traj.has_sliding()
        assert np.linalg.norm(traj.final_state - [1.1, 0.45]) < 1e-4

    def test_crossing_through_intersection(self):
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [1.0, 1.0]}] * 4,
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        traj = integrate(system, [-1.0, -1.0], 2.0)
        assert np.allclose(traj.final_state, [1.0, 1.0], atol=1e-9)
        crosses = [s for s in traj.segments if s.kind == "cross"]
        assert len(crosses) == 1
        assert crosses[0].pair == (4, 2)
        assert crosses[0].manifold == "sigma_1&sigma_2"

    def test_intersection_without_common_sector_halts(self):
        from pwscontract.filippov import IntersectionAssumptionError

        # mode 3's field disagrees with the others at the origin, and the
        # flow from the third quadrant runs straight into the intersection
        bs = ([1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0])
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[0, 0], [0, 0]], "b": list(b)} for b in bs],
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        with pytest.raises(IntersectionAssumptionError):
            integrate(system, [-1.0, -1.0], 3.0)

    def test_common_sector_checked_once_per_system(self, monkeypatch):
        # runs that reach the intersection, and the cross certificate, share
        # the system's one common-sector check, whose arrays are read-only
        from pwscontract import certify, model

        calls = []
        check = model.check_intersection_assumption
        monkeypatch.setattr(model, "check_intersection_assumption",
                            lambda system: calls.append(1) or check(system))
        system = fresh("example2")
        for _ in range(2):
            traj = integrate(system, [0.0, 0.0], 1.0)
            assert traj.segments[0].mode == 3
        certify.condition_table(system)
        assert len(calls) == 1
        (chk,) = derived(system, "intersection")
        with pytest.raises(ValueError):
            chk.x_tilde[0] = 1.0
        with pytest.raises(ValueError):
            chk.lie_values[0, 0] = 1.0

    def test_failing_common_sector_check_raises_on_every_call(self, monkeypatch):
        # every field vanishes at the intersection, so a Lie derivative does:
        # the check raises, is not kept, and raises again
        from pwscontract import certify, model

        calls = []
        check = model.check_intersection_assumption
        monkeypatch.setattr(model, "check_intersection_assumption",
                            lambda system: calls.append(1) or check(system))
        system = make_system({
            "dimension": 2, "topology": "planar_cross",
            "modes": [{"A": [[-1, 0], [0, -1]], "b": [0.0, 0.0]}] * 4,
            "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]},
        })
        for k in (1, 2):
            with pytest.raises(TopologyError, match="Lie derivative vanishes"):
                certify.condition_table(system)
            assert len(calls) == k
        assert not derived(system, "intersection")


    def test_slide_into_the_intersection_halts(self, monkeypatch):
        # the slide on sigma_1 reaches the other manifold; at the
        # intersection the fields disagree, so the run stops there
        from pwscontract import filippov
        from pwscontract.filippov import IntersectionAssumptionError

        builders = []

        class Recording(filippov._Builder):
            def __init__(self, box, rows):
                super().__init__(box, rows)
                builders.append(self)

        monkeypatch.setattr(filippov, "_Builder", Recording)
        system = make_system(SLIDE_TO_INTERSECTION)
        assert _slide_field(system, 0, 4, 1) is not None  # the block slide
        with pytest.raises(IntersectionAssumptionError,
                           match="field directions disagree"):
            integrate(system, [-2.0, 0.5], 3.0)
        (builder,) = builders
        flow, slide = builder.segments
        assert (flow.kind, flow.mode) == ("flow", 1)
        assert (slide.kind, slide.manifold, slide.pair) == ("slide", "sigma_1", (4, 1))
        assert abs(slide.t_start - 0.5) <= 1e-9
        assert abs(slide.t_end - 2.0) <= 1e-9
        last = builder._len - 1
        t_last, x_last, lam_last, seg_last = (builder._t[last], builder._x[last],
                                              builder._lam[last], builder._seg[last])
        assert seg_last == 1 and abs(t_last - slide.t_end) <= 1e-15
        assert np.allclose(x_last, [0.0, 0.0], atol=1e-9)
        assert lam_last == 0.5


class TestIntegrateEdgeCases:
    def test_zero_duration(self, ex1):
        traj = integrate(ex1, [-3.0, -4.0], 0.0)
        assert len(traj.times) == 1
        assert np.array_equal(traj.states[0], [-3.0, -4.0])

    def test_escaping_halts(self, swapped_ex1):
        with pytest.raises(EscapingRegionError):
            integrate(swapped_ex1, [0.0, -2.0], 1.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1e-3])
    def test_step_must_be_finite_and_positive(self, step):
        # an infinite step once ran example1 from (-3, -4) to (90606, -809)
        with pytest.raises(ValueError, match="finite positive"):
            SolverOptions(step=step)

    def test_outside_box_rejected(self, ex1):
        with pytest.raises(ValueError, match="analysis box"):
            integrate(ex1, [9.0, 0.0], 1.0)

    def test_negative_duration_rejected(self, ex1):
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(ex1, [1.0, 0.0], -1.0)

    @pytest.mark.parametrize("run", [
        integrate, lambda s, x0, t_f: integrate_regularized(s, 1e-2, x0, t_f)],
        ids=["filippov", "regularized"])
    @pytest.mark.parametrize("x0, t_f, match", [
        ([9.0, 9.0], 1.0, "analysis box"),
        ([math.nan, 0.0], 1.0, "x0 must be finite"),
        ([1.0, 0.0, 0.0], 1.0, r"x0 must have shape \(2,\)"),
        ([1.0, 0.0], -1.0, "t_f must be finite and nonnegative"),
        ([1.0, 0.0], math.nan, "t_f must be finite and nonnegative"),
        ([1.0, 0.0], math.inf, "t_f must be finite and nonnegative"),
    ], ids=["outside-box", "nan-x0", "shape", "negative-t", "nan-t", "inf-t"])
    def test_bad_start_rejected(self, ex1, run, x0, t_f, match):
        # the regularized run used to accept x0 outside the box, return one
        # sample for t_f = NaN, and both overflowed on t_f = inf
        with pytest.raises(ValueError, match=match):
            run(ex1, x0, t_f)

    def test_single_mode_matches_exact_flow(self, single_mode):
        traj = integrate(single_mode, [1.0, 1.0], 1.0)
        assert np.allclose(traj.final_state, np.exp(-1.0) * np.ones(2), atol=1e-10)

    def test_start_on_crossing_boundary(self, ex1):
        traj = integrate(ex1, [0.0, 0.0], 1.0)
        assert locate(ex1, traj.final_state).mode == 2


class TestNumericalBehavior:
    def test_matches_closed_form_solution(self, ex1):
        # from (-3, -4) the piecewise-linear dynamics solve in closed form:
        # mode 1 gives x1(t) = 3 - (6 + 4t) exp(-t), x2(t) = -4 exp(-t); the
        # boundary hit at x1 = 0 starts a slide with d/dt x2 = -x2 that ends
        # when x2 reaches -1, i.e. at t = ln 4; mode 2 then flows from (0, -1)
        from scipy.optimize import brentq

        t_hit = brentq(lambda t: 3.0 - (6.0 + 4.0 * t) * math.exp(-t),
                       1.0, 2.0, xtol=1e-14)
        t_exit = math.log(4.0)
        t_f = 2.0
        s = t_f - t_exit
        x_exact = np.array([0.5 - math.exp(-s) + 0.5 * math.exp(-2.0 * s),
                            -math.exp(-s)])
        traj = integrate(ex1, [-3.0, -4.0], t_f)
        kinds = [(seg.kind, seg.t_start, seg.t_end) for seg in traj.segments]
        assert [k for k, _, _ in kinds] == ["flow", "slide", "flow"]
        assert kinds[1][1] == pytest.approx(t_hit, abs=1e-9)
        assert kinds[1][2] == pytest.approx(t_exit, abs=1e-7)
        assert np.linalg.norm(traj.final_state - x_exact) < 1e-8

    def test_refinement_order_across_events(self, ex1):
        # flow -> boundary hit -> slide -> exit within t=1.6 from this start;
        # steps large enough that truncation error sits above rounding noise
        finals = {}
        for h in (8e-3, 4e-3, 2e-3):
            opts = SolverOptions(step=h)
            finals[h] = integrate(ex1, [-0.5, -3.0], 1.6, opts).final_state
        e1 = np.linalg.norm(finals[8e-3] - finals[4e-3])
        e2 = np.linalg.norm(finals[4e-3] - finals[2e-3])
        assert e2 > 1e-14, "errors collapsed to rounding noise"
        assert math.log2(e1 / e2) >= 3.0

    def test_generic_path_matches_affine_fast_path(self, ex1):
        generic = handle_copy(ex1)
        assert not generic.is_affine
        ta = integrate(ex1, [-3.0, -4.0], 5.0)
        tb = integrate(generic, [-3.0, -4.0], 5.0)
        m = min(len(ta.times), len(tb.times))
        assert np.allclose(ta.times[:m], tb.times[:m], atol=1e-9)
        assert np.max(np.abs(ta.states[:m] - tb.states[:m])) < 1e-8


class TestTrajectoryCsv:
    def test_schema_and_lambda_column(self, ex1):
        traj = integrate(ex1, [-3.0, -4.0], 3.0)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,segment,mode_or_pair,lambda"
        assert len(lines) == len(traj.times) + 1
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            if parts[3] == "slide":
                assert parts[4] == "1-2"
                assert 0.0 <= float(parts[5]) <= 1.0
            else:
                assert parts[5] == ""

    def test_roundtrip_values(self, ex1):
        traj = integrate(ex1, [1.0, 1.0], 1.0)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        ts = np.array([float(r[0]) for r in rows])
        xs = np.array([[float(r[1]), float(r[2])] for r in rows])
        assert np.array_equal(ts, traj.times)
        assert np.array_equal(xs, traj.states)


class TestNumericalRefusals:
    def test_stiff_mode_refused(self):
        with pytest.raises(StiffStepError,
                           match=r"mode 1: RK4 step h=0\.001 .* 13\.7083 >= 1; "
                                 r"use a smaller --step"):
            integrate(make_system(STIFF), [1.0, 1.0], 1.0)

    def test_stiff_handle_mode_refused(self):
        # the stepwise flow stays finite here (x1 reaches ~7e56 by t = 0.05),
        # so only the growth test on the Jacobian can refuse it
        A = np.diag([-5000.0, -1.0])
        mode = Mode.from_handles(1, lambda x: A @ x, lambda x: A)
        system = PwsSystem(2, "chain", [mode], [], AnalysisBox([-5.0, -5.0], [5.0, 5.0]))
        with pytest.raises(StiffStepError, match=r"mode 1: RK4 step h=0\.001 .* 13\.7083"):
            integrate(system, [1.0, 1.0], 0.05)
        traj = integrate(system, [1.0, 1.0], 0.05, SolverOptions(step=1e-4))
        assert abs(traj.final_state[1] - math.exp(-0.05)) < 1e-12

    def test_stiff_mode_refused_in_regularized_run(self):
        with pytest.raises(StiffStepError, match="mode 1"):
            integrate_regularized(make_system(STIFF), 1e-2, [1.0, 1.0], 1.0)

    def test_stiff_handle_mode_refused_in_regularized_run(self):
        # outside the bands the regularized run flows the mode through the
        # Filippov flow engine, whose growth test refuses the step; unchecked,
        # the run returned x1 ~ 7e56 here with no error
        A = np.diag([-5000.0, -1.0])
        mode = Mode.from_handles(1, lambda x: A @ x, lambda x: A)
        system = PwsSystem(2, "chain", [mode], [], AnalysisBox([-5.0, -5.0], [5.0, 5.0]))
        with pytest.raises(StiffStepError, match=r"mode 1: RK4 step h=0\.001 .* 13\.7083"):
            integrate_regularized(system, 1e-2, [1.0, 1.0], 0.05)
        traj = integrate_regularized(system, 1e-2, [1.0, 1.0], 0.05,
                                     SolverOptions(step=1e-4))
        assert abs(traj.final_state[1] - math.exp(-0.05)) < 1e-12

    def test_stiff_mode_runs_at_a_stable_step(self):
        traj = integrate(make_system(STIFF), [1.0, 1.0], 1.0, SolverOptions(step=1e-4))
        assert np.all(np.isfinite(traj.states))
        assert abs(traj.final_state[1] - math.exp(-1.0)) < 1e-12

    def test_slow_decay_is_not_refused(self):
        # |R(h)| rounds to 1 along the slow direction; the growth test must
        # not read that as instability
        Rs, _ = AffineField(np.diag([-1e-14, -1.0]), [0.0, 0.0]).stacks(1e-3, 4)
        assert Rs[-1, 0, 0] == 1.0

    def test_blow_up_refused(self):
        # x' = x^2 from x = 1 blows up at t = 1; RK4 overflows soon after
        mode = Mode.from_handles(1, lambda x: x * x, lambda x: np.diag(2.0 * x))
        system = PwsSystem(2, "chain", [mode], [], AnalysisBox([-5.0, -5.0], [5.0, 5.0]))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError,
                                                      match="not finite from t=1"):
            integrate(system, [1.0, 1.0], 2.0)


class TestBlockMapCache:
    def test_built_once_per_system(self, stack_builds):
        system = fresh("example2")
        for _ in range(3):
            for x0 in GOLDEN_STARTS:
                integrate(system, x0, 20.0)
        assert stack_builds and set(stack_builds.values()) == {1}
        fields = {id(m.affine) for m in system.modes}
        assert {key[0] for key in stack_builds} <= fields
        assert {key[1:] for key in stack_builds} == {(1e-3, 256)}

    def test_interleaved_options_match_fresh_system(self):
        shared = fresh("example1")
        plan = [SolverOptions(step=1e-3), SolverOptions(step=7.3e-3),
                SolverOptions(step=7.3e-3), SolverOptions(step=1e-3)]
        for opts in plan:
            for x0 in ((-3.0, -4.0), (4.0, -3.0)):
                assert same_trajectory(integrate(shared, x0, 5.0, opts),
                                       integrate(fresh("example1"), x0, 5.0, opts))
        for mode, new in zip(shared.modes, fresh("example1").modes):
            for h, block in ((1e-3, 256), (7.3e-3, 256)):
                for a, b in zip(mode.affine.stacks(h, block), new.affine.stacks(h, block)):
                    assert np.array_equal(a, b)

    def test_cached_arrays_are_read_only(self, ex1):
        Rs, rs = ex1.modes[0].affine.stacks(1e-3, 256)
        assert not Rs.flags.writeable and not rs.flags.writeable
        with pytest.raises(ValueError):
            Rs[0, 0, 0] = 0.0
        assert ex1.modes[0].affine.stacks(1e-3, 256)[0] is Rs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_step_map_is_the_written_sum(self, n):
        # the stacked powers are reduced term by term, in order, as the sum
        # I + h A + h^2/2 A^2 + ... is written: no fused BLAS product
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2.0, 2.0)
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
            field = AffineField(A, b)
            A2, A3 = A @ A, A @ A @ A
            hs = 10.0 ** rng.uniform(-6.0, 0.0, 25)
            for h in [*hs, *hs.tolist()]:  # np.float64 and Python float steps
                R, r = field.step_map(h)
                assert np.array_equal(R, np.eye(n) + h * A + (h * h / 2.0) * A2 +
                                      (h ** 3 / 6.0) * A3 + (h ** 4 / 24.0) * (A3 @ A))
                assert np.array_equal(r, h * b + (h * h / 2.0) * (A @ b) +
                                      (h ** 3 / 6.0) * (A2 @ b) + (h ** 4 / 24.0) * (A3 @ b))

    def test_stacks_are_sequential_powers(self, ex1):
        field = ex1.modes[0].affine
        R, r = field.step_map(1e-3)
        Rs, rs = field.stacks(1e-3, 8)
        acc, off = R, r
        for k in range(8):
            assert np.array_equal(Rs[k], acc) and np.array_equal(rs[k], off)
            acc, off = R @ acc, R @ off + r


@pytest.fixture(scope="module")
def oblique():
    """Two modes on c.x = 0.5 with c = (1, 1) whose jump A_2 - A_1 = u c^T,
    u = (-0.5, 0.25), is rank-one in the normal; the constant on-manifold
    jump w = u d + b_2 - b_1 is not parallel to c, so the sliding field's
    projection I - w c^T / c.w is oblique."""
    return make_system({
        "dimension": 2, "topology": "chain",
        "modes": [{"A": [[-1.0, 0.5], [0.0, -1.0]], "b": [1.0, 0.5]},
                  {"A": [[-1.5, 0.0], [0.25, -0.75]], "b": [-1.0, 0.0]}],
        "manifolds": [{"c": [1.0, 1.0], "d": 0.5}],
        "box": {"lower": [-5, -5], "upper": [5, 5]}})


def rebuilt(system):
    """The system with the same modes and manifolds and an empty cache of
    sliding fields."""
    return PwsSystem(system.dimension, system.topology, system.modes,
                     system.manifolds, system.box)


class TestAffineSlide:
    """Slides of an affine pair whose jump is rank-one in the normal advance
    in blocks of exact RK4 steps; the handle-mode copy of the same system
    takes the stepwise slide."""

    # (fixture, starts, horizon): every slide of the example1 runs ends by
    # t = 2; the chains and the oblique pair slide until the end
    CASES = [("ex1", GOLDEN_STARTS, 2.0), ("chain4", CHAIN_STARTS, 2.0),
             ("chain3d", STARTS_3D, 2.0),
             ("oblique", [(-0.3, 2.0), (4.0, -3.0), (5.0, -5.0)], 3.0)]

    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    @pytest.mark.parametrize("name, starts, t_f", CASES)
    def test_block_slide_matches_stepwise_slide(self, request, stack_builds,
                                                name, starts, t_f, step):
        system = rebuilt(request.getfixturevalue(name))
        stepwise = handle_copy(system)
        opts = SolverOptions(step=step)
        slid = 0
        for x0 in starts:
            a = integrate(system, x0, t_f, opts)
            b = integrate(stepwise, x0, t_f, opts)
            slid += a.has_sliding()
            assert ([(s.kind, s.pair, s.manifold) for s in a.segments]
                    == [(s.kind, s.pair, s.manifold) for s in b.segments])
            assert len(a.times) == len(b.times)
            assert np.array_equal(a.seg_index, b.seg_index)
            assert np.max(np.abs(a.times - b.times)) <= 1e-12
            assert np.max(np.abs(a.states - b.states)) <= 1e-12
            on = ~np.isnan(a.lambdas)
            assert np.array_equal(on, ~np.isnan(b.lambdas))
            assert np.max(np.abs(a.lambdas[on] - b.lambdas[on]), initial=0.0) <= 1e-12
            for sa, sb in zip(a.segments, b.segments):
                assert abs(sa.t_end - sb.t_end) <= 1e-12
        assert slid >= min(len(starts), 3)
        # the affine runs took the block path: a sliding field's block maps
        # were built
        slides = [affine.field for _, _, affine, _ in derived(system, "slide")]
        assert slides and all(f is not None for f in slides)
        assert {id(f) for f in slides} & {key[0] for key in stack_builds}

    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    def test_exit_at_unit_weight(self, ex1, step):
        # from (-3, -4) example1 slides on x1 = 0 until lambda reaches 1 near
        # t = ln 4, then flows on in mode 2
        opts = SolverOptions(step=step)
        runs = [integrate(s, (-3.0, -4.0), 2.0, opts)
                for s in (rebuilt(ex1), handle_copy(ex1))]
        exits = []
        for traj in runs:
            k = next(k for k, s in enumerate(traj.segments) if s.kind == "slide")
            assert traj.segments[k + 1].kind == "flow"
            assert traj.segments[k + 1].mode == 2
            assert traj.lambdas[traj.seg_index == k][-1] >= 1.0 - 2 * TOL_LAMBDA
            exits.append(traj.segments[k].t_end)
        assert abs(exits[0] - exits[1]) <= 1e-12
        assert abs(exits[0] - math.log(4.0)) <= 1e-6

    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    @pytest.mark.parametrize("x0", [(-3.0, -4.0), (5.0, -5.0), (5.0, 5.0), (2.0, 4.0)])
    def test_every_sample_has_the_affine_weight(self, ex1, x0, step):
        # block rows and single steps (entry, the step to the grid, the
        # located exit) alike hold lam_x . x + lam_0, bit for bit; the
        # weights of _pair missed it by an ulp at single steps from (5, 5)
        # and (2, 4)
        traj = integrate(ex1, x0, 20.0, SolverOptions(step=step))
        on = ~np.isnan(traj.lambdas)
        slides = [k for k, s in enumerate(traj.segments) if s.kind == "slide"]
        assert slides and set(traj.seg_index[on].tolist()) == set(slides)
        labels = [m.label for m in ex1.manifolds]
        for k in slides:
            seg = traj.segments[k]
            slide = _slide_field(ex1, labels.index(seg.manifold), *seg.pair)
            rows = traj.seg_index == k
            assert np.array_equal(traj.lambdas[rows],
                                  traj.states[rows] @ slide.lam_x + slide.lam_0)
        off = np.abs(traj.times[on] / step - np.round(traj.times[on] / step)) > 1e-6
        assert off.any()  # the located exit, a single step

    def test_pairs_on_the_block_path(self, ex1, ex2, chain4, chain3d, oblique):
        for system in (ex1, chain4, chain3d, oblique):
            for k in range(len(system.manifolds)):
                assert _slide_field(system, k, k + 1, k + 2) is not None
        for k, pair in ((0, (4, 1)), (0, (3, 2)), (1, (1, 2)), (1, (4, 3))):
            assert _slide_field(ex2, k, *pair) is None
        assert _slide_field(handle_copy(ex1), 0, 1, 2) is None

    def test_field_is_the_filippov_combination(self, ex1):
        slide = _slide_field(ex1, 0, 1, 2)
        for x2 in (-2.9, -2.0, -1.1):  # sliding needs -3 < x2 < -1
            x = np.array([0.0, x2])
            assert np.allclose(slide.field(x), sliding_field(ex1, 1, 2, x),
                               rtol=0, atol=1e-14)
            cls = classify_boundary(ex1, 0, x)
            si, sj = cls.sigma_i, cls.sigma_j
            assert abs(slide.lam_x @ x + slide.lam_0 - si / (si - sj)) <= 1e-15

    def test_non_rank_one_jump_is_stepwise(self):
        doc = json.loads(builtin_config_path("example1").read_text())
        doc["modes"][1]["A"][1][1] += 1e-6
        assert _slide_field(make_system(doc), 0, 1, 2) is None

    def test_zero_normal_jump_is_stepwise(self):
        # equal matrices and a jump b_2 - b_1 = (0, 1) along the manifold
        eye = [[-1.0, 0.0], [0.0, -1.0]]
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": eye, "b": [0.0, 0.0]}, {"A": eye, "b": [0.0, 1.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]}})
        assert _slide_field(system, 0, 1, 2) is None

    def test_stiff_sliding_field_refused(self):
        system = make_system(STIFF_SLIDE)
        with pytest.raises(StiffStepError,
                           match=r"sliding field on sigma_1_2, pair \(1, 2\): RK4 step"):
            integrate(system, [0.0, 1.0], 1.0)
        traj = integrate(system, [0.0, 1.0], 1.0, SolverOptions(step=1e-4))
        assert [s.kind for s in traj.segments] == ["slide"]
        assert np.abs(traj.final_state).max() <= 1e-12

    def test_stiff_stepwise_slide_refused(self):
        system = make_system(STIFF_STEPWISE_SLIDE)
        assert _slide_field(system, 0, 1, 2) is None
        # before the entry check this returned x2 = 7.2e56 without an error
        with pytest.raises(StiffStepError,
                           match=r"sliding field on sigma_1_2, pair \(1, 2\): RK4 step"):
            integrate(system, [0.0, 1.0], 0.05)
        traj = integrate(system, [0.0, 1.0], 0.05, SolverOptions(step=1e-4))
        assert [s.kind for s in traj.segments] == ["slide"]
        assert np.abs(traj.final_state).max() <= 1e-12


def oblique_chain(seed):
    """A seeded planar chain of two affine modes on an oblique line c.x = d:
    A_k = -I plus a random 0.3-scaled perturbation, so the jump is not
    rank-one in the normal, and b_k = +-8 c plus a random tangential part,
    so each mode drives onto the line from its side over most of the box."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2)
    c /= np.linalg.norm(c)
    tangent = np.array([-c[1], c[0]])
    modes = [{"A": (-np.eye(2) + 0.3 * rng.normal(size=(2, 2))).tolist(),
              "b": (sign * 8.0 * c + rng.normal() * tangent).tolist()}
             for sign in (1.0, -1.0)]
    return make_system({
        "dimension": 2, "topology": "chain", "modes": modes,
        "manifolds": [{"c": c.tolist(), "d": float(rng.uniform(-1.0, 1.0))}],
        "box": {"lower": [-5, -5], "upper": [5, 5]}})


class TestPlanarSlide:
    """A stepwise slide of two affine modes on an affine manifold in the
    plane steps on Python floats (``_planar_slide``); the handle copies of
    the same system step the numpy sliding field of ``_pair``."""

    @staticmethod
    def on_floats(system, k, i, j):
        """Whether the slide of (i, j) on manifold k steps on the float kernel."""
        step = filippov._slide_steps(system, k, i, j)[0]
        return step.__qualname__.startswith(filippov._planar_slide.__name__ + ".")

    def test_kernel_selection(self, ex1, ex2, chain4, chain3d, oblique):
        for k, pair in ((0, (4, 1)), (0, (3, 2)), (1, (1, 2)), (1, (4, 3))):
            assert self.on_floats(ex2, k, *pair)
            for copy in (handle_copy, handle_manifold_copy):
                assert not self.on_floats(copy(ex2), k, *pair)
        chain = oblique_chain(0)
        assert _slide_field(chain, 0, 1, 2) is None and self.on_floats(chain, 0, 1, 2)
        for system in (ex1, chain4, chain3d, oblique):  # the block slides
            for k in range(len(system.manifolds)):
                assert not self.on_floats(system, k, k + 1, k + 2)
        doc = json.loads(json.dumps(CHAIN3D))
        doc["modes"][1]["A"][1][1] += 0.5
        skew3d = make_system(doc)
        assert _slide_field(skew3d, 0, 1, 2) is None
        assert filippov._planar_slide(skew3d, 0, 1, 2) is None
        traj = integrate(skew3d, STARTS_3D[0], 2.0)
        assert traj.has_sliding()

    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    @pytest.mark.parametrize("case", ["example2", 0, 1, 2])
    def test_matches_the_numpy_slide(self, ex2, case, step):
        # example2 from its golden starts to T = 2 (its slides end by
        # t = 0.33), or a seeded oblique chain from the box's corners to T = 3
        system, starts, t_f = ((ex2, GOLDEN_STARTS, 2.0) if case == "example2"
                               else (oblique_chain(case), GOLDEN_STARTS[:4], 3.0))
        stepwise = handle_copy(system)
        opts = SolverOptions(step=step)

        def close(u, v):
            return np.all(np.abs(u - v) <= 1e-12 * np.maximum(1.0, np.abs(v)))
        slid = 0
        for x0 in starts:
            a = integrate(system, x0, t_f, opts)
            b = integrate(stepwise, x0, t_f, opts)
            slid += a.has_sliding()
            assert ([(s.kind, s.pair, s.manifold) for s in a.segments]
                    == [(s.kind, s.pair, s.manifold) for s in b.segments])
            assert len(a.times) == len(b.times)
            assert np.array_equal(a.seg_index, b.seg_index)
            assert close(a.times, b.times) and close(a.states, b.states)
            on = ~np.isnan(a.lambdas)
            assert np.array_equal(on, ~np.isnan(b.lambdas))
            assert close(a.lambdas[on], b.lambdas[on])
            assert close(np.array([(s.t_start, s.t_end) for s in a.segments]),
                         np.array([(s.t_start, s.t_end) for s in b.segments]))
        assert slid >= 2

    def test_slides_on_one_manifold_share_their_surfaces(self, monkeypatch):
        system = fresh("example2")
        sets = []
        events = filippov._events

        def spy(system, skip=None):
            surfaces = events(system, skip)
            if skip is not None:
                sets.append((skip, surfaces))
            return surfaces

        monkeypatch.setattr(filippov, "_events", spy)
        for x0 in GOLDEN_STARTS:
            integrate(system, x0, 20.0)
        # the golden runs slide twice on sigma_2, never on sigma_1
        assert [skip for skip, _ in sets] == [1, 1]
        assert sets[0][1] is sets[1][1]
        assert sets[0][1].surfaces == [system.manifolds[0]]


class TestSegmentTimes:
    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_golden_runs_hold_python_floats(self, name, step):
        # the engines read a time from an array of times; such a time was an
        # np.float64 on the segment, e.g. the end of example2 from (0, 5)
        system = fresh(name)
        for x0 in [*GOLDEN_STARTS, (0.0, 5.0)]:
            for s in integrate(system, x0, 20.0, SolverOptions(step=step)).segments:
                assert type(s.t_start) is float and type(s.t_end) is float

    def test_engines_and_gap_steps_take_python_floats(self, monkeypatch):
        # a time read from an array reached 3 of the 6 slides of the golden
        # runs (each entered after a block flow) as an np.float64, and every
        # partial step of a convergence gap took its dt as one, so the float
        # slide kernel ran numpy scalar arithmetic
        seen = []

        def spy(module, name, t_arg):
            engine = getattr(module, name)

            def spying(*args):
                result = engine(*args)
                seen.append((name, type(args[t_arg]), type(result[2])))
                return result
            monkeypatch.setattr(module, name, spying)

        spy(filippov, "_run_flow", 3)
        spy(filippov, "_run_slide", 5)
        spy(regularize, "_run_flow", 3)
        states_at = regularize._states_at

        def gap_steps(traj, idx, times, step_of):
            def spied(seg):
                step = step_of(seg)

                def spying(x, dt):
                    seen.append(("gap", type(dt), float))
                    return step(x, dt)
                return spying
            return states_at(traj, idx, times, spied)

        monkeypatch.setattr(regularize, "_states_at", gap_steps)
        for name, x0 in (("example1", (-3.0, -4.0)), ("example2", (-0.3, 2.0))):
            system = fresh(name)
            for start in GOLDEN_STARTS:
                integrate(system, start, 20.0)
            convergence_study(system, x0, 2.0, [1e-1, 1e-2])
            # a step and a final time given as numpy numbers
            traj = integrate(system, x0, np.float64(2.0),
                             SolverOptions(step=np.float64(1e-3)))
            assert {(type(s.t_start), type(s.t_end)) for s in traj.segments} == {
                (float, float)}
        kinds = {kind for kind, _, _ in seen}
        assert kinds == {"_run_flow", "_run_slide", "gap"}
        assert sum(kind == "_run_slide" for kind, _, _ in seen) >= 6
        assert all(t_in is float and t_out is float for _, t_in, t_out in seen)


class TestPersistenceProbe:
    """A slide step that ends with its weight outside the bounds is located
    and finished by the persistence probe; when the probe ends inside, the
    excursion was transient and the slide goes on from the probe's state."""

    def test_transient_excursion_does_not_exit(self):
        # x2 moves by sqrt(dt / h) / 2 a step, which no flow does, so the
        # probe from the located exit ends past the dip of the weight, on
        # 0.4 < x2 < 0.6, that the whole step ended in
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[-1.0, 0.0], [0.0, 0.0]], "b": [1.0, 0.0]},
                      {"A": [[-1.0, 0.0], [0.0, 0.0]], "b": [-1.0, 0.0]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-5, -5], "upper": [5, 5]}})
        h = SolverOptions().step

        def step(x0, dt):
            return np.array((x0[0], x0[1] + 0.5 * math.sqrt(dt / h)))

        def lam_at(x):
            return min(0.9, 5.0 * abs(x[1] - 0.5) - 0.5)

        system._memo[("slide", 0, 1, 2)] = (step, lam_at, None, lambda x: np.zeros(2))
        builder = filippov._Builder(system.box, 10)
        sid = builder.open_segment("slide", 0.0)
        kind, _, t, x = filippov._run_slide(system, 0, 1, 2, np.zeros(2), 0.0, 3 * h,
                                            SolverOptions(), builder, sid)
        traj = builder.finish()
        assert (kind, t) == ("t_stop", 3 * h)
        assert np.array_equal(traj.times, [0.0, h, 2 * h, 3 * h])
        # the first step ends at x2 = 0.5, weight -0.5; its exit is located
        # at x2 = 0.4 (theta = 0.64) and the probe over the rest of the step
        # ends near x2 = 0.7, inside the bounds: one sample at the grid time
        # with the probe's weight, and the slide goes on
        probe = traj.states[1]
        assert probe[1] == pytest.approx(0.7, abs=1e-6)
        assert traj.lambdas[1] == lam_at(probe) == pytest.approx(0.5, abs=1e-5)
        assert np.array_equal(traj.states[2], step(probe, h))
        assert np.allclose(traj.lambdas[2:], 0.9)


class TestChainedBlocks:
    """A flow advances its event-free stretches in chains of up to
    ``MAX_CHAIN`` blocks with one event scan per chain; a chain has the bits
    of its blocks advanced one at a time (``MAX_CHAIN`` = 1). The chains of
    an event-free tail are advanced but not scanned, so the chain lengths
    are read from ``_advance_blocks`` and the flagged rows from the scans."""

    @staticmethod
    def both(monkeypatch, run):
        """(chained, one-block) runs of ``run()`` and, for the chained run,
        the rows of every chain that ``_advance_blocks`` returned and the
        length of every scanned chain with its first flagged row (None when
        no event was flagged)."""
        chains, scans = [], []
        advance = filippov._advance_blocks
        scan = filippov._EventSurfaces.scan_block

        def advance_spy(*args):
            block = advance(*args)
            if block is not None:
                chains.append(len(block[1]))
            return block

        def scan_spy(self, x, X):
            Hs, ev = scan(self, x, X)
            rows = np.flatnonzero(ev.any(axis=1))
            scans.append((len(X), int(rows[0]) if rows.size else None))
            return Hs, ev

        with monkeypatch.context() as m:
            m.setattr(filippov, "_advance_blocks", advance_spy)
            m.setattr(filippov._EventSurfaces, "scan_block", scan_spy)
            chained = run()
        with monkeypatch.context() as m:
            m.setattr(filippov, "MAX_CHAIN", 1)
            single = run()
        for k in ("times", "states", "lambdas", "seg_index"):
            assert np.array_equal(getattr(chained, k), getattr(single, k),
                                  equal_nan=True), k
        assert ([(s.kind, s.t_start, s.t_end) for s in chained.segments]
                == [(s.kind, s.t_start, s.t_end) for s in single.segments])
        assert max(chains) > filippov.BLOCK  # it did chain
        assert max(chains) <= filippov.MAX_CHAIN * filippov.BLOCK
        return chained, chains, scans

    def test_stop_inside_a_chain(self, ex1, monkeypatch):
        # the last chain, a tail chain from t = 19.884, stops 617 rows in
        traj, chains, _ = self.both(
            monkeypatch, lambda: integrate(ex1, (-5.0, -5.0), 20.5))
        n = chains[-1]
        assert n > filippov.BLOCK and n % filippov.BLOCK
        assert traj.times[-1] == 20.5

    @pytest.mark.parametrize("x0", [(5.0, -5.0), (-3.0, -4.0)])
    def test_hit_in_a_later_block(self, ex1, monkeypatch, x0):
        _, _, scans = self.both(monkeypatch, lambda: integrate(ex1, x0, 20.0))
        assert any(row is not None and row >= filippov.BLOCK for _, row in scans)

    def test_off_grid_restart_after_crossing(self, ex2, monkeypatch):
        h = SolverOptions().step
        traj, _, scans = self.both(
            monkeypatch, lambda: integrate(ex2, (-3.0, -4.0), 20.0))
        crossings = [s.t_end for s in traj.segments if s.kind == "cross"]
        assert len(crossings) == 2
        assert all(abs(t / h - round(t / h)) > 1e-6 for t in crossings)
        assert sum(row is not None for _, row in scans) == 2

    def test_step_not_dividing_the_horizon(self, ex1, monkeypatch):
        opts = SolverOptions(step=7.3e-3)
        traj, _, _ = self.both(
            monkeypatch, lambda: integrate(ex1, (-5.0, 5.0), 20.0, opts))
        assert 20.0 / opts.step % 1.0 > 0.5
        assert traj.times[-1] == 20.0

    @pytest.mark.parametrize("x0", [(-5.0, 5.0), (-3.0, -4.0)])
    def test_regularized_band_edge_flows(self, ex1, monkeypatch, x0):
        _, _, scans = self.both(
            monkeypatch, lambda: integrate_regularized(ex1, 1e-2, x0, 5.0))
        assert any(row is not None and row >= filippov.BLOCK for _, row in scans)


def _one_surface_system(A, b):
    """A two-mode chain split by x1 = 0: mode 1 is x' = A x + b, mode 2
    contracts to (1, 0)."""
    return make_system({
        "dimension": 2, "topology": "chain",
        "modes": [{"A": A, "b": b},
                  {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [1.0, 0.0]}],
        "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
        "box": {"lower": [-5, -5], "upper": [5, 5]},
    })


class TestEventFreeTail:
    """A flow that starts a chain within the ``clearance`` margin of its
    step map's fixed point is advanced unscanned: the outputs keep their
    bits, and the tail engages only where the contraction proves that no
    surface can be flagged."""

    @staticmethod
    def rows(monkeypatch, run):
        """(result of run(), rows advanced in blocks, rows scanned)."""
        counts = {"advanced": 0, "scanned": 0}
        advance = filippov._advance_blocks
        scan = filippov._EventSurfaces.scan_block

        def advance_spy(*args):
            block = advance(*args)
            if block is not None:
                counts["advanced"] += len(block[1])
            return block

        def scan_spy(self, x, X):
            counts["scanned"] += len(X)
            return scan(self, x, X)

        with monkeypatch.context() as m:
            m.setattr(filippov, "_advance_blocks", advance_spy)
            m.setattr(filippov._EventSurfaces, "scan_block", scan_spy)
            out = run()
        return out, counts["advanced"], counts["scanned"]

    # name -> (system fixture, starts, runner, whether the tail engages)
    CASES = {
        "ex1": ("ex1", GOLDEN_STARTS, lambda s, x: integrate(s, x, 20.0), True),
        "ex2": ("ex2", GOLDEN_STARTS, lambda s, x: integrate(s, x, 20.0), True),
        "chain4": ("chain4", CHAIN_STARTS, lambda s, x: integrate(s, x, 3.0), False),
        "chain3d": ("chain3d", STARTS_3D, lambda s, x: integrate(s, x, 3.0), False),
        "regularized-ex1": ("ex1", GOLDEN_STARTS,
                            lambda s, x: integrate_regularized(s, 1e-2, x, 20.0), True),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_same_bits_without_the_tail(self, request, monkeypatch, name):
        fixture, starts, run, engages = self.CASES[name]
        system = request.getfixturevalue(fixture)
        for x0 in starts:
            x0 = np.array(x0, dtype=float)
            tail, _, scanned = self.rows(monkeypatch, lambda: run(system, x0))
            with monkeypatch.context() as m:
                m.setattr(filippov._EventSurfaces, "clearance", lambda self, field, h: None)
                scanned_all, advanced, full = self.rows(monkeypatch, lambda: run(system, x0))
            assert same_trajectory(tail, scanned_all), x0
            assert ([(s.kind, s.t_start, s.t_end, s.mode, s.pair) for s in tail.segments]
                    == [(s.kind, s.t_start, s.t_end, s.mode, s.pair)
                        for s in scanned_all.segments])
            assert full == advanced and scanned <= full
            if engages:
                assert scanned < full, x0

    def test_engages_on_the_pairwise_pool(self, ex1, monkeypatch):
        starts = np.random.default_rng(2024).uniform(ex1.box.lower, ex1.box.upper, (20, 2))
        trajs, _, scanned = self.rows(
            monkeypatch, lambda: [integrate(ex1, x0, 10.0) for x0 in starts])
        assert scanned <= 0.3 * sum(len(t.times) for t in trajs)

    def test_clearance_is_kept_for_the_life_of_the_system(self, monkeypatch):
        ex1 = fresh("example1")
        builds = []
        build = filippov._EventSurfaces._clearance

        def counting(self, field, h):
            builds.append((self, field, h))
            return build(self, field, h)

        monkeypatch.setattr(filippov._EventSurfaces, "_clearance", counting)
        for _ in range(2):
            for x0 in GOLDEN_STARTS:
                integrate(ex1, x0, 20.0)
                integrate_regularized(ex1, 1e-2, x0, 5.0)
        assert len(builds) == len(set((id(e), id(f), h) for e, f, h in builds))
        assert {e for e, _, _ in builds} == {filippov._events(ex1),
                                             derived(ex1, "regularized")[0]._edges}

    def test_non_normal_mode_is_scanned(self, monkeypatch):
        # stable (both eigenvalues -1) but mu_2(A) = 4 > 0, so one exact RK4
        # step stretches some direction: ||R(h)||_2 > 1
        A = [[-1.0, 10.0], [0.0, -1.0]]
        system = _one_surface_system(A, [-2.0, 0.0])
        field = system.mode(1).affine
        assert np.linalg.norm(field.step_map(1e-3)[0], 2) > 1.0
        assert field.centre(1e-3) is None
        traj, advanced, scanned = self.rows(
            monkeypatch, lambda: integrate(system, (-3.0, 0.1), 10.0))
        assert traj.segments[-1].mode == 1 and advanced > 9000
        assert scanned == advanced

    @pytest.mark.parametrize("slack, engages", [(0.5, False), (2.0, True)])
    def test_equilibrium_near_a_surface(self, monkeypatch, slack, engages):
        # mode 1 contracts to (-delta, 0), delta = TOL_EVENT + slack
        # TAIL_SLACK off x1 = 0: inside the allowance no tail is proved
        delta = filippov.TOL_EVENT + slack * filippov.TAIL_SLACK
        system = _one_surface_system([[-1.0, 0.0], [0.0, -1.0]], [-delta, 0.0])
        field = system.mode(1).affine
        assert np.allclose(field.centre(1e-3), (-delta, 0.0), rtol=0.0, atol=1e-15)
        clearance = filippov._events(system).clearance(field, 1e-3)
        assert (clearance is not None) == engages
        traj, advanced, scanned = self.rows(
            monkeypatch, lambda: integrate(system, (-1.0, 0.5), 60.0))
        assert [s.kind for s in traj.segments] == ["flow"]
        assert (scanned < advanced) == engages

    @pytest.mark.parametrize("copy", [handle_copy, handle_manifold_copy])
    def test_handle_system_has_no_tail(self, ex1, monkeypatch, copy):
        system = copy(ex1)

        def refuse(self, field, h):
            raise AssertionError("a handle system asked for a clearance")

        monkeypatch.setattr(filippov._EventSurfaces, "clearance", refuse)
        for x0 in GOLDEN_STARTS:
            integrate(system, x0, 1.5)
            integrate_regularized(system, 1e-2, x0, 1.5)

    def test_no_surface(self, single_mode, monkeypatch):
        field = single_mode.mode(1).affine
        assert filippov._events(single_mode).clearance(field, 1e-3)[1] == math.inf
        traj, advanced, scanned = self.rows(
            monkeypatch, lambda: integrate(single_mode, (3.0, -4.0), 5.0))
        assert traj.times[-1] == 5.0 and advanced == 5000 and scanned == 0


def step_map_bisection(field, surfaces, flagged, x0, delta, h0):
    """The reference localization: bisection on surfaces[k].h of the step
    map's state, rebuilt at every midpoint; (theta, k, state) of the
    earliest root, the lowest index on ties."""
    best = None
    for k in np.flatnonzero(flagged):
        pos0 = h0[k] > 0
        lo, hi = 0.0, 1.0
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            R, r = field.step_map(mid * delta)
            xm = R @ x0 + r
            hm = surfaces[k].h(xm)
            if abs(hm) <= filippov.TOL_EVENT:
                break
            if (hm > 0) == pos0:
                lo = mid
            else:
                hi = mid
        else:
            R, r = field.step_map(hi * delta)
            mid, xm = hi, R @ x0 + r
        if best is None or mid < best[0]:
            best = (mid, int(k), xm)
    return best


class TestStepQuartic:
    """An affine flow locates its events on the quartic of the exact RK4
    step (``_step_quartics``); each hit has the theta, surface and state of
    the bisection on the step map."""

    @staticmethod
    def both(field, C, d, x0, delta):
        """(quartic, step-map) hits over one step, or None if no surface is
        flagged."""
        surfaces = [Manifold.from_affine(f"s{k}", c, dk) for k, (c, dk) in enumerate(zip(C, d))]
        R, r = field.step_map(delta)
        h0 = np.array([s.h(x0) for s in surfaces])
        h1 = np.array([s.h(R @ x0 + r) for s in surfaces])
        flagged = filippov._event_flags(h0, h1, filippov.TOL_EVENT)
        if not flagged.any():
            return None
        events = SimpleNamespace(C=np.asarray(C, dtype=float))
        theta, k = filippov._first_hit(
            filippov._step_quartics(field, events, x0, delta, h0), flagged, h0)
        Rt, rt = field.step_map(theta * delta)
        return ((theta, k, Rt @ x0 + rt),
                step_map_bisection(field, surfaces, flagged, x0, delta, h0))

    @staticmethod
    def assert_same(quartic, reference):
        assert quartic[:2] == reference[:2]
        assert np.array_equal(quartic[2], reference[2])

    def test_random_affine_hits(self):
        rng = np.random.default_rng(15)
        hits = 0
        for _ in range(200):
            n = int(rng.integers(2, 4))
            field = AffineField(rng.normal(0.0, 1.5, (n, n)), rng.normal(0.0, 2.0, n))
            x0 = rng.uniform(-5.0, 5.0, n)
            delta = float(rng.uniform(1e-3, 0.2))
            C = rng.normal(size=(3, n))
            # each surface passes through the state at a random fraction of the step
            R, r = field.step_map(float(rng.uniform(0.0, 1.0)) * delta)
            out = self.both(field, C, C @ (R @ x0 + r), x0, delta)
            if out is not None:
                hits += 1
                self.assert_same(*out)
        assert hits >= 150

    def test_two_surfaces_flagged_in_one_step(self, ex1):
        field = ex1.mode(1).affine
        x0 = np.array([-0.5, -2.0])
        R, r = field.step_map(0.3)
        x1 = R @ x0 + r
        # a copy of surface 0 ties with it; surface 2 is reached first
        C = np.array([[1.0, 0.0], [1.0, 0.0], [0.3, 1.0]])
        early = field.step_map(0.1)
        d = np.array([x1[0] - 0.05, x1[0] - 0.05,
                      C[2] @ (early[0] @ x0 + early[1])])
        quartic, reference = self.both(field, C, d, x0, 0.3)
        self.assert_same(quartic, reference)
        assert quartic[1] == 2
        quartic, reference = self.both(field, C[:2], d[:2], x0, 0.3)
        self.assert_same(quartic, reference)
        assert quartic[1] == 0

    def test_landing_from_off_the_surface(self, ex1):
        field = ex1.mode(1).affine
        x0 = np.array([-1.0, -2.0])
        R, r = field.step_map(0.05)
        x1 = R @ x0 + r
        c = np.array([1.0, 0.5])
        for side in (1.0, -1.0):
            # H ends 5e-11 off the surface, on the side it starts on
            d = c @ x1 - side * 5e-11
            quartic, reference = self.both(field, side * c[None], [side * d], x0, 0.05)
            assert abs(quartic[0] - 1.0) < 1e-3
            self.assert_same(quartic, reference)

    @pytest.mark.parametrize("eps, x0, step", [
        (1e-1, (-5.0, 5.0), 1e-3),
        (1e-2, (-3.0, -4.0), 1e-3),
        (1e-2, (4.0, -3.0), 7.3e-3),
        (None, (5.0, -5.0), 1e-3),
    ])
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_runs_match_step_map_localization(self, name, eps, x0, step, monkeypatch):
        # the same runs with each hit located by the step-map bisection; the
        # hits of a regularized run are its band edges H = +-eps
        def run(system):
            opts = SolverOptions(step=step)
            if eps is None:
                return integrate(system, x0, 20.0, opts)
            return integrate_regularized(system, eps, x0, 5.0, opts)

        system = fresh(name)
        quartics = []
        step_quartics = filippov._step_quartics

        def counting(field, events, x0, delta, h0):
            quartics.append(len(events.surfaces))
            return step_quartics(field, events, x0, delta, h0)

        def step_map_along(field, events, x0, delta, h0):
            def state(x, dt):
                R, r = field.step_map(dt)
                return R @ x + r
            return filippov._along_step(state, events.surfaces, x0, delta)

        monkeypatch.setattr(filippov, "_step_quartics", counting)
        traj = run(system)
        monkeypatch.setattr(filippov, "_step_quartics", step_map_along)
        reference = run(system)
        edges = len(system.manifolds) * (1 if eps is None else 2)
        assert quartics and set(quartics) == {edges}
        assert same_trajectory(traj, reference)
        assert ([(s.kind, s.t_start, s.t_end, s.pair) for s in traj.segments]
                == [(s.kind, s.t_start, s.t_end, s.pair) for s in reference.segments])


class TestSlideExit:
    """A slide leaves when its weight leaves [TOL_LAMBDA, 1 - TOL_LAMBDA]:
    the weight's margin is surface 0 of ``_first_hit``, ahead of the other
    manifolds, located by the one bisection."""

    # a cross whose slide on x2 = 0 (modes 4 | 1) moves at unit speed to
    # x1 = 0, the other manifold, where sigma_1 = x1 - 1e-10 puts lambda =
    # 1 / (1 + 1e-10 - x1) on its upper bound: the margin 1 - TOL_LAMBDA -
    # lambda and H_2 = x1 share their root and their sign pattern
    TIE = {
        "dimension": 2, "topology": "planar_cross",
        "modes": [{"A": [[0.0, 0.0], [1.0, 0.0]], "b": [1.0, -1e-10]},
                  {"A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, -1.0]},
                  {"A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0]},
                  {"A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 1.0]}],
        "manifolds": [{"c": [0.0, 1.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.0}],
        "box": {"lower": [-1, -1], "upper": [1, 1]},
    }

    def test_exit_wins_a_tie_with_another_manifold(self, monkeypatch):
        system = make_system(self.TIE)
        assert _slide_field(system, 0, 4, 1) is None  # the stepwise slide
        located = []
        bisect = filippov._bisect

        def recording(H, h0):
            located.append(bisect(H, h0))
            return located[-1]

        monkeypatch.setattr(filippov, "_bisect", recording)
        builder = filippov._Builder(system.box, 1000)
        sid = builder.open_segment("slide", 0.0)
        # one step of 1e-3 from x1 = -5e-4 flags both surfaces
        kind, mode, t, x = filippov._run_slide(
            system, 0, 4, 1, np.array([-5e-4, 0.0]), 0.0, 1.0, SolverOptions(),
            builder, sid)
        assert len(located) == 2 and located[0] == located[1]
        assert (kind, mode) == ("exit", 1)
        assert t == pytest.approx(5e-4, abs=1e-12)

    @pytest.mark.parametrize("step", [1e-3, 7.3e-3])
    def test_unit_weight_exit_steps(self, ex1, monkeypatch, step):
        # from (-3, -4) the one stepwise slide step of the run is the one
        # that holds the exit near t = ln 4; locating the exit took 43
        # sliding RK4 steps when the weight had its own bisection to 1e-12
        # in the step fraction. The slide is affine, so each of its single
        # steps is one evaluation of its field's step map
        system = rebuilt(ex1)
        field = filippov._slide_steps(system, 0, 1, 2)[2].field
        calls = []
        step_map = AffineField.step_map

        def counting(self, h):
            if self is field:
                calls.append(h)
            return step_map(self, h)

        monkeypatch.setattr(AffineField, "step_map", counting)
        traj = integrate(system, (-3.0, -4.0), 2.0, SolverOptions(step=step))
        k = next(k for k, s in enumerate(traj.segments) if s.kind == "slide")
        assert traj.segments[k + 1].kind == "flow"
        assert 0 < len(calls) <= 30
        xe = traj.states[traj.seg_index == k][-1]
        _, _, si, sj = filippov._pair(ex1, 0, 1, 2)(xe)
        lam = _lambda_raw(si, sj)
        assert abs(min(lam - TOL_LAMBDA, 1.0 - TOL_LAMBDA - lam)) <= filippov.TOL_EVENT


class TestBoxExit:
    def test_first_sample_outside_the_box(self):
        traj = integrate(make_system(LEAVES_BOX), [1.0, 0.0], 30.0)
        t, x = traj.box_exit
        assert t == pytest.approx(16.095, abs=1e-9)
        assert x[0] > 5.0 + 1e-9 and np.array_equal(x, traj.states[traj.times == t][0])
        before = traj.states[traj.times < t]
        assert np.all(np.abs(before) <= 5.0 + 1e-9)
        assert traj.states[-1, 0] > 20.0  # reported, not refused

    def test_example2_corner_start_leaves_at_once(self, ex2):
        t, x = integrate(ex2, [5.0, -5.0], 20.0).box_exit
        assert t == 0.001 and x[0] > 5.0

    def test_golden_starts_of_example1_stay_inside(self, ex1):
        for x0 in GOLDEN_STARTS:
            assert integrate(ex1, x0, 20.0).box_exit is None

    def test_regularized_trajectory_reports_it_too(self):
        t, _ = integrate_regularized(make_system(LEAVES_BOX), 1e-2, [1.0, 0.0],
                                     30.0).box_exit
        assert t == pytest.approx(16.095, abs=1e-9)

    def test_non_cube_box(self):
        # the cube inside [-5, 5] x [-1, 20] is [-1, 5]^2 and its hull is
        # [-5, 20]^2: x = (t/2, t) leaves the cube at t = 5 and the box at
        # t = 10, inside the hull
        doc = {**LEAVES_BOX, "modes": [{"A": [[0.0, 0.0], [0.0, 0.0]],
                                        "b": [0.5, 1.0]}],
               "box": {"lower": [-5, -1], "upper": [5, 20]}}
        system = make_system(doc)
        assert integrate(system, [0.0, 0.0], 9.0).box_exit is None
        t, x = integrate(system, [0.0, 0.0], 11.0).box_exit
        assert t == pytest.approx(10.001) and x[0] > 5.0


class TestSampleBuffers:
    """A trajectory's samples go into buffers that its builder owns, sized
    from t_f / step and grown past that by copying the rows in use."""

    COLUMNS = ("times", "states", "lambdas", "seg_index")

    @pytest.mark.parametrize("name, x0", [("example2", (-5.0, -5.0)),
                                          ("example1", (5.0, -5.0)),
                                          ("example1", (-3.0, -4.0))])
    def test_growth_from_one_row_keeps_the_arrays(self, monkeypatch, name, x0):
        system = fresh(name)
        runs = [lambda: integrate(system, x0, 20.0),
                lambda: integrate(system, x0, 20.0, SolverOptions(step=7.3e-3)),
                lambda: integrate_regularized(system, 1e-2, x0, 5.0)]
        default = [run() for run in runs]
        monkeypatch.setattr(filippov, "MAX_RESERVE", 1)
        grown = []

        def watching(self, k):
            grown.append(self._len + k > len(self._t))
            room(self, k)

        room = filippov._Builder._room
        monkeypatch.setattr(filippov._Builder, "_room", watching)
        for run, ref in zip(runs, default):
            traj = run()
            assert same_trajectory(traj, ref)
            assert [(s.kind, s.t_start, s.t_end) for s in traj.segments] == [
                (s.kind, s.t_start, s.t_end) for s in ref.segments]
        assert sum(grown) >= 10

    def test_trajectories_share_no_memory(self, ex1):
        a = integrate(ex1, (5.0, -5.0), 2.0)
        b = integrate(ex1, (5.0, -5.0), 2.0)
        c = integrate_regularized(ex1, 1e-2, (5.0, -5.0), 2.0)
        for u, v in ((a, b), (a, c), (b, c)):
            for p in self.COLUMNS:
                for q in self.COLUMNS:
                    assert not np.shares_memory(getattr(u, p), getattr(v, q))
        for p in self.COLUMNS:  # nor do the columns of one trajectory
            for q in self.COLUMNS:
                assert p == q or not np.shares_memory(getattr(a, p), getattr(a, q))

    def test_reserved_rows_are_sized_from_the_horizon(self, ex1, monkeypatch):
        sizes = []
        init = filippov._Builder.__init__

        def recording(self, box, rows):
            init(self, box, rows)
            sizes.append(len(self._t))

        monkeypatch.setattr(filippov._Builder, "__init__", recording)
        traj = integrate(ex1, (-3.0, -4.0), 20.0)
        assert sizes == [20_000 + filippov.SAMPLE_SLACK] and len(traj.times) <= sizes[0]
        monkeypatch.setattr(filippov, "MAX_RESERVE", 4096)
        integrate(ex1, (-3.0, -4.0), 20.0)
        assert sizes[-1] == 4096


class TestLongAxisScan:
    """The whole-trajectory passes along the long axis give the results of
    the per-row reductions they replace."""

    MESSAGE = ("the state is not finite from t={t:.6g} on: the step is too large "
               "for the dynamics, or a field returned a non-finite value; use a "
               "smaller --step")

    @pytest.mark.parametrize("row", [0, 517, 999])
    @pytest.mark.parametrize("col", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finish_names_the_first_non_finite_row(self, row, col, value):
        builder = filippov._Builder(AnalysisBox([-5.0, -5.0], [5.0, 5.0]), 1000)
        sid = builder.open_segment("flow", 0.0)
        ts = 1e-3 * np.arange(1000)
        X = np.zeros((1000, 2))
        X[row, col] = value
        X[row + 1:, 1 - col] = math.nan  # later rows do not count
        X[:row, 0] = 7.0  # nor do earlier rows outside the box
        builder.reserve(1000)[:] = X
        builder.commit(ts, sid)
        with pytest.raises(NonFiniteStateError) as info:
            builder.finish()
        assert str(info.value) == self.MESSAGE.format(t=ts[row])

    def test_event_flags_are_the_sign_product_rule(self):
        tol = filippov.TOL_EVENT
        edge = np.array([0.0, -0.0, tol, -tol, 2 * tol, -2 * tol, tol / 2, -tol / 2,
                         math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-300])
        h0, h1 = (a.ravel() for a in np.meshgrid(edge, edge))
        rng = np.random.default_rng(21)
        for _ in range(20):
            H = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-12, 2, (2000, 3))
            h0 = np.concatenate((h0, H[:-1].ravel()))
            h1 = np.concatenate((h1, H[1:].ravel()))
        assert np.array_equal(filippov._event_flags(h0, h1, tol),
                              (np.abs(h0) > tol) & (np.copysign(1.0, h0) * h1 <= tol))

    def test_any_event_is_the_flag_rule(self):
        tol = filippov.TOL_EVENT
        edge = [0.0, -0.0, tol, -tol, 2 * tol, -2 * tol, tol / 2, -tol / 2,
                math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-300]
        pairs = [(np.array([a]), np.array([b])) for a in edge for b in edge]
        rng = np.random.default_rng(22)
        for m in (0, 1, 2, 3):
            for _ in range(500):
                h0, h1 = rng.standard_normal((2, m)) * 10.0 ** rng.integers(-12, 2, (2, m))
                pairs.append((h0, h1))
                pairs.append((h0, np.where(rng.random(m) < 0.5, h0, -h1)))
        flagged = 0
        for h0, h1 in pairs:
            expected = bool(filippov._event_flags(h0, h1, tol).any())
            assert filippov._any_event(h0, h1) == expected
            flagged += expected
        assert 0 < flagged < len(pairs)

    @pytest.mark.parametrize("name, x0, step", [("example1", (-3.0, -4.0), 1e-3),
                                                ("example2", (-5.0, 5.0), 7.3e-3),
                                                ("example2", (5.0, -5.0), 1e-3)])
    def test_grid_samples_select_the_on_grid_times(self, name, x0, step):
        traj = integrate(fresh(name), x0, 5.0, SolverOptions(step=step))
        for h in (step, 2 * step, 1e-2, 0.3):
            # the selection as first written, in fresh arrays
            k = np.round(traj.times / h)
            on_grid = np.abs(traj.times - k * h) <= 1e-9 * max(h, 1.0)
            on_grid[-1] = True
            idx = np.flatnonzero(on_grid)
            idx = idx[np.concatenate(([True], np.diff(traj.times[idx]) > 1e-12))]
            ts, xs = traj.grid_samples(h)
            assert np.array_equal(ts, traj.times[idx]) and np.array_equal(xs, traj.states[idx])

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_grid_samples_refuse_a_bad_step(self, ex1, h):
        # nan once gave one sample, 0 one sample with RuntimeWarnings
        traj = integrate(ex1, (-3.0, -4.0), 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            traj.grid_samples(h)

    def test_first_row_rule(self):
        rng = np.random.default_rng(20)
        for m in (1, 2, 3, 4):
            for density in (0.0, 1e-3, 0.05, 0.5):
                ev = rng.random((4096, m)) < density
                if density:  # every surface flagged on one row: a tie
                    ev[rng.integers(4096)] = True
                rows = np.flatnonzero(ev.any(axis=1))
                expected = int(rows[0]) if rows.size else len(ev)
                assert filippov._first_row(ev) == expected

    @pytest.mark.parametrize("name", ["example1", "example2", "chain3d"])
    def test_scan_block_values(self, name, chain3d):
        system = chain3d if name == "chain3d" else fresh(name)
        events = filippov._EventSurfaces(system, system.manifolds)
        rng = np.random.default_rng(5)
        box = system.box
        for mode in system.modes:
            for _ in range(4):
                x = rng.uniform(box.lower, box.upper)
                _, X = filippov._advance_blocks(mode.affine, "", x, 0.0, 1e-3, 20.0,
                                                filippov.MAX_CHAIN,
                                                filippov._Builder(box, 0))
                Hs, ev = events.scan_block(x, X)
                assert np.array_equal(Hs[1:], X @ events.C.T - events.d)
                assert np.array_equal(
                    ev, filippov._event_flags(Hs[:-1], Hs[1:], filippov.TOL_EVENT))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_stacked_pair_is_the_mode_fields(self, name):
        system = fresh(name)
        rng = np.random.default_rng(6)
        for k, man in enumerate(system.manifolds):
            for i in range(1, system.n_modes + 1):
                for j in range(1, system.n_modes + 1):
                    pair = filippov._pair(system, k, i, j)
                    for x in rng.uniform(-5.0, 5.0, (20, 2)):
                        fi, fj, si, sj = pair(x)
                        g = man.grad(x)
                        assert np.array_equal(fi, system.mode(i).f(x))
                        assert np.array_equal(fj, system.mode(j).f(x))
                        assert (si, sj) == (float(np.dot(g, fi)), float(np.dot(g, fj)))

import io
import json
import math

import numpy as np
import pytest

from pwscontract.filippov import SolverOptions, _rk4, integrate, sliding_field
from pwscontract.model import (
    AnalysisBox,
    Manifold,
    Mode,
    PwsSystem,
    TopologyError,
    builtin_config_path,
)
from pwscontract.regularize import (
    ConvergenceTable,
    RegularizedSystem,
    convergence_study,
    integrate_regularized,
    phi,
    phi_prime,
    reduced_sliding_field,
    regularized_field_chain,
    regularized_field_cross,
    regularized_jacobian_chain,
    regularized_jacobian_cross,
    write_convergence_csv,
)

from conftest import handle_copy, handle_manifold_copy, make_system


def fd_jacobian(fn, x, d=1e-6):
    n = len(x)
    J = np.empty((n, n))
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = d
        J[:, k] = (fn(x + dp) - fn(x - dp)) / (2.0 * d)
    return J


def interior_points(system, eps, rng, count):
    """Seeded box samples staying clear of every clamp kink by a safe margin."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(system.box.lower + 0.1, system.box.upper - 0.1)
        margins = [abs(abs(m.h(x)) - eps) for m in system.manifolds]
        if min(margins) > 1e-4:
            pts.append(x)
    return pts


def substepped_blend(system, eps, x0, t_f, step=1e-2):
    """Grid samples of plain RK4 on the blend with substeps of at most eps/40
    everywhere: a reference that stops at no band edge."""
    field = RegularizedSystem(system, eps).field
    ns = int(math.ceil(step / (eps / 40.0)))
    x = np.asarray(x0, dtype=float)
    out = [x]
    for _ in range(int(round(t_f / step))):
        for _ in range(ns):
            x = _rk4(field, x, step / ns)
        out.append(x)
    return np.array(out)


class TestPhi:
    def test_branches(self):
        assert phi(2.0) == 1.0
        assert phi(0.3) == 0.3
        assert phi(-5.0) == -1.0
        assert phi(1.0) == 1.0 and phi(-1.0) == -1.0

    def test_prime_branches(self):
        assert phi_prime(0.0) == 1.0
        assert phi_prime(3.0) == 0.0
        assert phi_prime(1.0) == 1.0  # inner-closure value at the kink
        assert phi_prime(-1.0) == 1.0


class TestChainField:
    def test_band_center_is_midpoint(self, ex1):
        x = np.array([0.0, 5.0])
        expected = 0.5 * (ex1.f(1, x) + ex1.f(2, x))
        assert np.array_equal(regularized_field_chain(ex1, 0.1, x), expected)

    def test_outside_band_is_exact(self, ex1):
        x = np.array([1.0, 0.0])
        out = regularized_field_chain(ex1, 0.1, x)
        assert np.array_equal(out, ex1.f(2, x))

    def test_partial_weights(self, ex1):
        x = np.array([0.05, 0.0])
        expected = 0.25 * ex1.f(1, x) + 0.75 * ex1.f(2, x)
        assert np.allclose(regularized_field_chain(ex1, 0.1, x), expected,
                           atol=1e-15)

    def test_outside_band_identity_property(self, ex1):
        rng = np.random.default_rng(21)
        eps = 0.1
        count = 0
        while count < 100:
            x = rng.uniform(-5, 5, 2)
            hmin = min(abs(m.h(x)) for m in ex1.manifolds)
            if hmin <= eps:
                continue
            i = 1 + sum(m.h(x) > 0 for m in ex1.manifolds)
            assert np.array_equal(regularized_field_chain(ex1, eps, x),
                                  ex1.f(i, x))
            count += 1

    def test_continuity_at_band_edges(self, ex1):
        eps = 0.1
        rng = np.random.default_rng(22)
        for _ in range(50):
            y = rng.uniform(-5, 5)
            for edge in (-eps, eps, 2.0 - eps, 2.0 + eps):
                a = regularized_field_chain(ex1, eps, [edge - 1e-12, y])
                b = regularized_field_chain(ex1, eps, [edge + 1e-12, y])
                assert np.max(np.abs(a - b)) <= 1e-9

    def test_single_mode_is_plain_field(self, single_mode):
        x = np.array([0.3, -0.7])
        assert np.array_equal(regularized_field_chain(single_mode, 0.1, x),
                              single_mode.f(1, x))

    def test_rejects_cross(self, ex2):
        with pytest.raises(TopologyError):
            regularized_field_chain(ex2, 0.1, [0.0, 0.0])


class TestCrossField:
    def test_intersection_is_mean(self, ex2):
        x = np.zeros(2)
        expected = 0.25 * sum(ex2.f(i, x) for i in (1, 2, 3, 4))
        assert np.allclose(regularized_field_cross(ex2, 0.1, x), expected,
                           atol=1e-15)

    def test_deep_in_mode2_is_exact(self, ex2):
        x = np.array([2.0, 2.0])
        assert np.array_equal(regularized_field_cross(ex2, 0.1, x), ex2.f(2, x))

    def test_product_weights(self, ex2):
        x = np.array([0.05, 0.0])
        w = [0.125, 0.375, 0.375, 0.125]
        expected = sum(wi * ex2.f(i + 1, x) for i, wi in enumerate(w))
        assert np.allclose(regularized_field_cross(ex2, 0.1, x), expected,
                           atol=1e-15)


class TestJacobians:
    def test_chain_outside_band_is_mode_matrix(self, ex1):
        J = regularized_jacobian_chain(ex1, 0.1, [1.0, 0.0])
        assert np.array_equal(J, ex1.modes[1].affine.A)

    def test_chain_band_center_closed_form(self, ex1):
        x = np.array([0.0, -2.0])
        A1, A2 = ex1.modes[0].affine.A, ex1.modes[1].affine.A
        df = ex1.f(2, x) - ex1.f(1, x)
        expected = 0.5 * (A1 + A2) + (1.0 / 0.2) * np.outer(df, [1.0, 0.0])
        assert np.allclose(regularized_jacobian_chain(ex1, 0.1, x), expected,
                           atol=1e-13)

    def test_chain_matches_finite_differences(self, ex1):
        rng = np.random.default_rng(23)
        eps = 0.1
        for x in interior_points(ex1, eps, rng, 100):
            J = regularized_jacobian_chain(ex1, eps, x)
            Jfd = fd_jacobian(lambda y: regularized_field_chain(ex1, eps, y), x)
            assert np.max(np.abs(J - Jfd)) <= 1e-6

    def test_cross_outside_bands_is_mode_matrix(self, ex2):
        J = regularized_jacobian_cross(ex2, 0.1, [2.0, 2.0])
        assert np.array_equal(J, ex2.modes[1].affine.A)

    def test_cross_at_intersection_closed_form(self, ex2):
        eps = 0.1
        x = np.zeros(2)
        f = [ex2.f(i, x) for i in (1, 2, 3, 4)]
        g1, g2 = ex2.manifolds[0].grad(x), ex2.manifolds[1].grad(x)
        expected = (np.outer(f[0] + f[1] - f[2] - f[3], g1)
                    + np.outer(f[1] + f[2] - f[0] - f[3], g2)) / (4 * eps)
        expected += 0.25 * sum(m.affine.A for m in ex2.modes)
        assert np.allclose(regularized_jacobian_cross(ex2, eps, x), expected,
                           atol=1e-13)

    def test_cross_matches_finite_differences(self, ex2):
        rng = np.random.default_rng(24)
        eps = 0.1
        for x in interior_points(ex2, eps, rng, 100):
            J = regularized_jacobian_cross(ex2, eps, x)
            Jfd = fd_jacobian(lambda y: regularized_field_cross(ex2, eps, y), x)
            assert np.max(np.abs(J - Jfd)) <= 1e-6

    def test_kink_uses_inner_closure_slope(self, ex1):
        # exactly on |H| = eps the rank-one band term is included
        eps = 0.1
        x = np.array([eps, 0.0])
        df = ex1.f(2, x) - ex1.f(1, x)
        expected = ex1.modes[1].affine.A + (1.0 / (2 * eps)) * np.outer(df, [1, 0])
        assert np.allclose(regularized_jacobian_chain(ex1, eps, x), expected,
                           atol=1e-13)


class TestRegularizedSystem:
    def test_fast_field_matches_reference(self, ex1, ex2):
        # the stacked affine primitives and the per-mode handle loops of the
        # one blend formula, each against the reference loop
        rng = np.random.default_rng(25)
        for system, ref in ((ex1, regularized_field_chain),
                            (ex2, regularized_field_cross),
                            (handle_copy(ex1), regularized_field_chain),
                            (handle_copy(ex2), regularized_field_cross)):
            reg = RegularizedSystem(system, 0.05)
            for _ in range(100):
                x = rng.uniform(-5, 5, 2)
                assert np.allclose(reg.field(x), ref(system, 0.05, x), atol=1e-13)

    def test_band_membership(self, ex1):
        reg = RegularizedSystem(ex1, 0.1)
        assert reg.in_band([0.05, 0.0])
        assert not reg.in_band([1.0, 0.0])

    def test_rejects_nonpositive_eps(self, ex1):
        with pytest.raises(ValueError):
            RegularizedSystem(ex1, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, ex1, eps):
        with pytest.raises(ValueError, match="finite positive"):
            RegularizedSystem(ex1, eps)

    @pytest.mark.parametrize("eps", [1.0, 1.5])
    def test_rejects_meeting_bands(self, ex1, eps):
        # example1's manifolds x1 = 0 and x1 = 2 are 2 apart: the 1-bands touch
        with pytest.raises(ValueError, match="meet inside the box"):
            RegularizedSystem(ex1, eps)
        with pytest.raises(ValueError, match="meet inside the box"):
            integrate_regularized(ex1, eps, [-3.0, -4.0], 1.0)


class TestIntegrateRegularized:
    def test_stationary_equilibrium(self, ex1):
        traj = integrate_regularized(ex1, 1e-2, [0.5, 0.0], 5.0)
        assert np.max(np.abs(traj.states - [0.5, 0.0])) <= 1e-9

    def test_single_mode_identical_to_filippov_solver(self, single_mode):
        a = integrate(single_mode, [1.0, -2.0], 3.0)
        b = integrate_regularized(single_mode, 1e-2, [1.0, -2.0], 3.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_tracks_filippov_solution(self, ex1):
        ref = integrate(ex1, [-3.0, -4.0], 10.0)
        traj = integrate_regularized(ex1, 1e-3, [-3.0, -4.0], 10.0)
        tr, xr = ref.grid_samples(1e-3)
        tg, xg = traj.grid_samples(1e-3)
        m = min(len(tr), len(tg))
        gap = np.max(np.linalg.norm(xr[:m] - xg[:m], axis=1))
        assert gap < 5e-3

    def test_generic_path_matches_affine_path(self, ex1, ex2):
        # both take the Filippov flow engine outside the bands and the same
        # blend inside, so only the rounding of the primitives differs
        for system in (ex1, ex2):
            for eps in (3e-2, 1e-3):
                a = integrate_regularized(system, eps, [-3.0, -4.0], 4.0)
                b = integrate_regularized(handle_copy(system), eps, [-3.0, -4.0], 4.0)
                assert len(a.times) == len(b.times)
                ta, xa = a.grid_samples(1e-3)
                tb, xb = b.grid_samples(1e-3)
                assert np.array_equal(ta, tb)
                assert np.max(np.abs(xa - xb)) < 1e-9

    def test_handle_manifolds_match_affine_path(self, ex1, ex2):
        # band edges H -+ eps as handles: Newton projection and the stepwise
        # engine against the exact projection and the block engine
        for system in (ex1, ex2):
            copy = handle_manifold_copy(system)
            for eps in (3e-2, 1e-3):
                for x0 in ([-3.0, -4.0], [4.0, -3.0]):
                    a = integrate_regularized(system, eps, x0, 4.0)
                    b = integrate_regularized(copy, eps, x0, 4.0)
                    assert len(a.times) == len(b.times)
                    ta, xa = a.grid_samples(1e-3)
                    tb, xb = b.grid_samples(1e-3)
                    assert np.array_equal(ta, tb)
                    assert np.max(np.abs(xa - xb)) < 1e-9

    @pytest.mark.parametrize("copy", [lambda s: s, handle_copy, handle_manifold_copy],
                             ids=["affine", "handle-modes", "handle-manifolds"])
    @pytest.mark.parametrize("x0", [[4.0, -3.0], [-3.0, -4.0]])
    def test_band_entered_at_an_edge_is_blended(self, ex1, copy, x0):
        # (4, -3) enters the x1 = 2 band at its edge x1 = 2.1 near t = 0.138
        # and (-3, -4) the x1 = 0 band at x1 = -0.1; a flow stretch restarted
        # on the edge it stopped at would cross the band with the plain mode
        # (gap 4e-2 for (4, -3))
        system = copy(ex1)
        t, x = integrate_regularized(system, 0.1, x0, 1.0).grid_samples(1e-2)
        ref = substepped_blend(system, 0.1, x0, 1.0)
        assert len(x) == len(ref)
        assert np.max(np.linalg.norm(x - ref, axis=1)) < 1e-4

    @pytest.mark.parametrize("eps", [1e-1, 1e-2])
    def test_circle_tracks_substepped_blend(self, circle, eps):
        # a curved handle manifold: the band edges |x|^2 = 4 +- eps
        for x0 in ([4.0, 3.0], [-4.5, 1.0]):
            t, x = integrate_regularized(circle, eps, x0, 2.0).grid_samples(1e-2)
            ref = substepped_blend(circle, eps, x0, 2.0)
            assert len(x) == len(ref)
            assert np.max(np.linalg.norm(x - ref, axis=1)) < 5e-5


class TestReducedSlidingField:
    def test_example1_slow_rate(self, ex1):
        out = reduced_sliding_field(ex1, 1, [0.0, -2.0])
        assert out.shape == (1,)
        assert out[0] == pytest.approx(2.0, abs=1e-14)

    def test_equal_tangent_fields(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [0, 3]}] * 2,
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-1, -5], "upper": [1, 5]},
        })
        assert np.allclose(reduced_sliding_field(system, 1, [0.0, 1.0]), [3.0])

    def test_matches_sliding_field_on_random_configurations(self):
        # the module's key identity: critical-manifold weights against the
        # convex-combination weights, two algebra routes to the same motion
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 5))
            c = rng.normal(size=n)
            if abs(c[np.argmax(np.abs(c))]) < 0.3:
                continue
            d = float(rng.uniform(-1, 1))
            A1, A2 = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            b1, b2 = rng.normal(size=n), rng.normal(size=n)
            x = rng.uniform(-2, 2, n)
            man = Manifold.from_affine("s", c, d)
            x = man.project(x)
            si = float(np.dot(c, A1 @ x + b1))
            sj = float(np.dot(c, A2 @ x + b2))
            if not (si > 0.1 and sj < -0.1):
                continue
            system = PwsSystem(
                n, "chain",
                [Mode.from_affine(1, A1, b1), Mode.from_affine(2, A2, b2)],
                [man],
                AnalysisBox(np.full(n, -100.0), np.full(n, 100.0)))
            slow = reduced_sliding_field(system, 1, x)
            full = sliding_field(system, 1, 2, x)
            pivot = int(np.argmax(np.abs(c)))
            keep = [k for k in range(n) if k != pivot]
            assert np.max(np.abs(slow - full[keep])) <= 1e-12
            checked += 1

    def test_degenerate_configuration_raises(self):
        system = make_system({
            "dimension": 2, "topology": "chain",
            "modes": [{"A": [[0, 0], [0, 0]], "b": [1, 0]},
                      {"A": [[0, 0], [0, 0]], "b": [1, 5]}],
            "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
            "box": {"lower": [-1, -9], "upper": [1, 9]},
        })
        with pytest.raises(ValueError, match="degenerate"):
            reduced_sliding_field(system, 1, [0.0, 0.0])


class TestConvergenceStudy:
    def test_example1_monotone(self, ex1):
        table = convergence_study(ex1, [-3.0, -4.0], 10.0, [1e-1, 1e-2, 1e-3])
        assert table.is_monotone_decreasing()
        assert table.fitted_slope >= 0.8

    def test_example2_monotone(self, ex2):
        table = convergence_study(ex2, [-2.0, 3.0], 10.0, [1e-1, 1e-2, 1e-3])
        assert table.is_monotone_decreasing()
        assert table.fitted_slope >= 0.8

    def test_single_mode_gaps_at_noise_floor(self, single_mode):
        table = convergence_study(single_mode, [1.0, 1.0], 5.0, [1e-1, 1e-2])
        assert np.all(table.gaps <= 1e-12)

    def test_oracle_equivalence_bound(self, ex1, ex2):
        # the sup gap at a small band width stays within 5 eps L, with the
        # rate constant L reported from a coarse band
        for system, x0 in ((ex1, [-3.0, -4.0]), (ex2, [-2.0, -2.0])):
            table = convergence_study(system, x0, 5.0, [1e-2, 1e-4])
            L = table.gaps[0] / table.eps[0]
            assert table.gaps[1] <= 5.0 * 1e-4 * L

    def test_rejects_non_decreasing(self, ex1):
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(ex1, [0.0, 0.0], 1.0, [1e-2, 1e-1])

    def test_base_block_maps_built_once(self, stack_builds):
        # the Filippov reference and every band width share the base modes;
        # the reference's slide advances through the system's cached field
        system = make_system(json.loads(builtin_config_path("example1").read_text()))
        convergence_study(system, [-3.0, -4.0], 5.0, [1e-1, 1e-2, 1e-3])
        assert stack_builds and set(stack_builds.values()) == {1}
        slides = {id(s.field) for s in system._slide_fields.values() if s is not None}
        assert slides
        assert {key[0] for key in stack_builds} <= (
            {id(m.affine) for m in system.modes} | slides)

    def test_rejects_nonpositive(self, ex1):
        with pytest.raises(ValueError, match="positive"):
            convergence_study(ex1, [0.0, 0.0], 1.0, [1e-1, 0.0])

    def test_csv_schema(self):
        table = ConvergenceTable([(0.1, 0.5, math.nan), (0.01, 0.05, 1.0)])
        buf = io.StringIO()
        write_convergence_csv(table, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "eps,sup_gap,slope_to_prev"
        assert lines[1].endswith(",")  # first slope is empty
        assert len(lines) == 3

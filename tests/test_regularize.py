import io
import json
import math

import numpy as np
import pytest

from pwscontract import regularize
from pwscontract.filippov import TOL_EVENT, SolverOptions, _rk4, integrate, sliding_field
from pwscontract.model import (
    AnalysisBox,
    Manifold,
    Mode,
    PwsSystem,
    StepUnderflowError,
    StiffStepError,
    _check_rk4_step,
    builtin_config_path,
    load_system_file,
)
from pwscontract.regularize import (
    ConvergenceTable,
    RegularizedSystem,
    convergence_study,
    integrate_regularized,
    write_convergence_csv,
)

from conftest import (
    CHAIN4,
    CORNER_STARTS,
    derived,
    handle_copy,
    handle_manifold_copy,
    make_system,
    reduced_sliding_field,
    regularized_field_chain,
    regularized_field_cross,
)


def fresh_ex1():
    """example1 as a system of the caller's own, with an empty memo."""
    return load_system_file(builtin_config_path("example1"))


@pytest.fixture
def built_regularizations(monkeypatch):
    """The eps of every ``RegularizedSystem`` built, in order."""
    built = []
    post_init = RegularizedSystem.__post_init__

    def counting(self):
        built.append(self.eps)
        post_init(self)

    monkeypatch.setattr(RegularizedSystem, "__post_init__", counting)
    return built


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


def blend(system, eps, x):
    """The stacked blend of ``RegularizedSystem``, the one in the package."""
    return RegularizedSystem(system, eps).field(x)


class TestPhi:
    # the clamp p = clip(H / eps, -1, 1) of example1's manifold x1 = 0, read
    # through the blend and, for its slope, through the Jacobian; the
    # manifold x1 = 2 stays clamped at -1
    def test_branches(self, ex1):
        eps = 0.1
        reg = RegularizedSystem(ex1, eps)
        for s, p in ((2.0, 1.0), (0.3, 0.3), (-5.0, -1.0), (1.0, 1.0), (-1.0, -1.0)):
            x = np.array([s * eps, 0.5])
            expected = 0.5 * (1.0 - p) * ex1.f(1, x) + 0.5 * (1.0 + p) * ex1.f(2, x)
            assert np.allclose(reg.field(x), expected, rtol=0.0, atol=1e-15)

    def test_prime_branches(self, ex1):
        eps = 0.1
        reg = RegularizedSystem(ex1, eps)
        for s, slope in ((0.0, 1.0), (3.0, 0.0), (1.0, 1.0), (-1.0, 1.0)):
            x = np.array([s * eps, 0.5])
            p = min(max(s, -1.0), 1.0)
            df = ex1.f(2, x) - ex1.f(1, x)
            expected = (0.5 * (1.0 - p) * ex1.modes[0].affine.A
                        + 0.5 * (1.0 + p) * ex1.modes[1].affine.A
                        + slope / (2.0 * eps) * np.outer(df, [1.0, 0.0]))
            assert np.allclose(reg.jacobian(x), expected, rtol=0.0, atol=1e-12)


class TestChainField:
    def test_band_center_is_midpoint(self, ex1):
        x = np.array([0.0, 5.0])
        expected = 0.5 * (ex1.f(1, x) + ex1.f(2, x))
        assert np.array_equal(blend(ex1, 0.1, x), expected)

    def test_outside_band_is_exact(self, ex1):
        x = np.array([1.0, 0.0])
        out = blend(ex1, 0.1, x)
        assert np.array_equal(out, ex1.f(2, x))

    def test_partial_weights(self, ex1):
        x = np.array([0.05, 0.0])
        expected = 0.25 * ex1.f(1, x) + 0.75 * ex1.f(2, x)
        assert np.allclose(blend(ex1, 0.1, x), expected, atol=1e-15)

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
            assert np.array_equal(blend(ex1, eps, x), ex1.f(i, x))
            count += 1

    def test_continuity_at_band_edges(self, ex1):
        eps = 0.1
        rng = np.random.default_rng(22)
        for _ in range(50):
            y = rng.uniform(-5, 5)
            for edge in (-eps, eps, 2.0 - eps, 2.0 + eps):
                a = blend(ex1, eps, [edge - 1e-12, y])
                b = blend(ex1, eps, [edge + 1e-12, y])
                assert np.max(np.abs(a - b)) <= 1e-9

    def test_single_mode_is_plain_field(self, single_mode):
        x = np.array([0.3, -0.7])
        assert np.array_equal(blend(single_mode, 0.1, x), single_mode.f(1, x))


class TestCrossField:
    def test_intersection_is_mean(self, ex2):
        x = np.zeros(2)
        expected = 0.25 * sum(ex2.f(i, x) for i in (1, 2, 3, 4))
        assert np.allclose(blend(ex2, 0.1, x), expected, atol=1e-15)

    def test_deep_in_mode2_is_exact(self, ex2):
        x = np.array([2.0, 2.0])
        assert np.array_equal(blend(ex2, 0.1, x), ex2.f(2, x))

    def test_product_weights(self, ex2):
        x = np.array([0.05, 0.0])
        w = [0.125, 0.375, 0.375, 0.125]
        expected = sum(wi * ex2.f(i + 1, x) for i, wi in enumerate(w))
        assert np.allclose(blend(ex2, 0.1, x), expected, atol=1e-15)


def jacobian(system, eps, x):
    """The one Jacobian of the blend, ``RegularizedSystem.jacobian``."""
    return RegularizedSystem(system, eps).jacobian(x)


def corner_points(system, eps, rng, count):
    """Seeded points of a planar cross with both |H_k| <= 0.9 eps: the
    corner where both bands are active."""
    C = np.array([m.affine[0] for m in system.manifolds])
    d = np.array([m.affine[1] for m in system.manifolds])
    return [np.linalg.solve(C, d + rng.uniform(-0.9 * eps, 0.9 * eps, 2))
            for _ in range(count)]


class TestJacobians:
    def test_chain_outside_band_is_mode_matrix(self, ex1):
        J = jacobian(ex1, 0.1, [1.0, 0.0])
        assert np.array_equal(J, ex1.modes[1].affine.A)

    def test_chain_band_center_closed_form(self, ex1):
        x = np.array([0.0, -2.0])
        A1, A2 = ex1.modes[0].affine.A, ex1.modes[1].affine.A
        df = ex1.f(2, x) - ex1.f(1, x)
        expected = 0.5 * (A1 + A2) + (1.0 / 0.2) * np.outer(df, [1.0, 0.0])
        assert np.allclose(jacobian(ex1, 0.1, x), expected, atol=1e-13)

    def test_chain_matches_finite_differences(self, ex1):
        rng = np.random.default_rng(23)
        eps = 0.1
        for x in interior_points(ex1, eps, rng, 100):
            J = jacobian(ex1, eps, x)
            Jfd = fd_jacobian(lambda y: regularized_field_chain(ex1, eps, y), x)
            assert np.max(np.abs(J - Jfd)) <= 1e-6

    def test_cross_outside_bands_is_mode_matrix(self, ex2):
        J = jacobian(ex2, 0.1, [2.0, 2.0])
        assert np.array_equal(J, ex2.modes[1].affine.A)

    def test_cross_at_intersection_closed_form(self, ex2):
        eps = 0.1
        x = np.zeros(2)
        f = [ex2.f(i, x) for i in (1, 2, 3, 4)]
        g1, g2 = ex2.manifolds[0].grad(x), ex2.manifolds[1].grad(x)
        expected = (np.outer(f[0] + f[1] - f[2] - f[3], g1)
                    + np.outer(f[1] + f[2] - f[0] - f[3], g2)) / (4 * eps)
        expected += 0.25 * sum(m.affine.A for m in ex2.modes)
        assert np.allclose(jacobian(ex2, eps, x), expected, atol=1e-13)

    def test_cross_matches_finite_differences(self, ex2):
        rng = np.random.default_rng(24)
        eps = 0.1
        for x in interior_points(ex2, eps, rng, 100):
            J = jacobian(ex2, eps, x)
            Jfd = fd_jacobian(lambda y: regularized_field_cross(ex2, eps, y), x)
            assert np.max(np.abs(J - Jfd)) <= 1e-6

    def test_kink_uses_inner_closure_slope(self, ex1, ex2):
        # exactly on |H| = eps the rank-one band term is included, at both
        # edges; just past an edge it is gone
        eps = 0.1
        g = np.array([1.0, 0.0])
        for edge, mode in ((1.0, 2), (-1.0, 1)):
            x = np.array([edge * eps, 0.0])
            df = ex1.f(2, x) - ex1.f(1, x)
            expected = ex1.modes[mode - 1].affine.A + (1.0 / (2 * eps)) * np.outer(df, g)
            assert np.allclose(jacobian(ex1, eps, x), expected, atol=1e-13)
            past = np.array([edge * eps * (1.0 + 1e-9), 0.0])
            assert np.array_equal(jacobian(ex1, eps, past), ex1.modes[mode - 1].affine.A)
            # the cross's band of H2 = x1 where H1 = x2 > eps: modes 1 and 2
            x = np.array([edge * eps, 2.0])
            df = ex2.f(2, x) - ex2.f(1, x)
            expected = ex2.modes[mode - 1].affine.A + (1.0 / (2 * eps)) * np.outer(df, g)
            assert np.allclose(jacobian(ex2, eps, x), expected, atol=1e-13)

    def test_matches_field_differences_on_the_stacked_paths(self, ex1, ex2):
        # the paths the stacked blend serves: handle systems in every band,
        # and the cross's corner, where both bands and both rank-one terms
        # are active
        rng = np.random.default_rng(27)
        for eps in (1e-1, 1e-2, 1e-3):
            for system in (ex1, ex2):
                for copy in (handle_copy, handle_manifold_copy):
                    reg = RegularizedSystem(copy(system), eps)
                    for k, man in enumerate(system.manifolds):
                        for x in band_points(system, eps, k, rng, 20):
                            if abs(abs(man.h(x)) - eps) > 0.1 * eps:
                                assert np.allclose(reg.jacobian(x), fd_jacobian(reg.field, x),
                                                   rtol=1e-6, atol=1e-6)
            for system in (ex2, handle_copy(ex2)):
                reg = RegularizedSystem(system, eps)
                for x in corner_points(ex2, eps, rng, 30):
                    assert np.allclose(reg.jacobian(x), fd_jacobian(reg.field, x),
                                       rtol=1e-6, atol=1e-6)


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

    @pytest.mark.parametrize("past, inside", [(0.5, True), (2.0, False)])
    def test_band_membership_is_the_integrators(self, ex1, monkeypatch, past, inside):
        # a point within TOL_EVENT past the edge x1 = eps is in the band for
        # in_band and for the integrator, which substeps the blend from it;
        # in_band used to test |H| <= eps there
        eps = 1e-2
        x0 = np.array([eps + past * TOL_EVENT, -2.0])
        assert RegularizedSystem(ex1, eps).in_band(x0) is inside
        starts = []
        run_bands = regularize._run_bands
        monkeypatch.setattr(regularize, "_run_bands",
                            lambda reg, x, t, *rest: starts.append(t)
                            or run_bands(reg, x, t, *rest))
        integrate_regularized(ex1, eps, x0, 0.01)
        assert (starts[:1] == [0.0]) is inside

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


# a chain whose bands at eps 0.1 are 0.05 apart: moving at x1' ~ 100, one
# grid step of 1e-3 runs from the band of x1 = 0 into the band of x1 = 0.25
NEAR_BANDS = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": b}
              for b in ([100.0, 0.0], [100.0, 0.0], [-100.0, 0.0])],
    "manifolds": [{"c": [1.0, 0.0], "d": 0.0}, {"c": [1.0, 0.0], "d": 0.25}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}

# a certified pair -I x + (+-50, 1) split by x1 = 0. The blend's normal
# eigenvalue is -1 - 50/eps, so at eps 1e-2 a step of eps/10 = 1e-3 has
# h lambda = -5, outside RK4's real stability interval (about [-2.79, 0])
STIFF_BAND = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [50.0, 1.0]},
              {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [-50.0, 1.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}


# the pair (1.5 + 20 x2, 1) below x1 = 0 and (-0.5 - 20 x2, 1) above it: a
# slide along x1 = 0 at x2' = 1 whose normal eigenvalue in the band,
# -(1 + 20 x2) / eps, grows along the slide
DRIFTING_BAND = {
    "dimension": 2, "topology": "chain",
    "modes": [{"A": [[0.0, 20.0], [0.0, 0.0]], "b": [1.5, 1.0]},
              {"A": [[0.0, -20.0], [0.0, 0.0]], "b": [-0.5, 1.0]}],
    "manifolds": [{"c": [1.0, 0.0], "d": 0.0}],
    "box": {"lower": [-5, -5], "upper": [5, 5]},
}


def band_points(system, eps, k, rng, count, past=False):
    """Seeded box points with H_k inside the closed band |H_k| <= eps, or
    with past=True just past one of its edges (eps < |H_k| <= 1.5 eps, where
    the clamp is clipped), and every other |H_j| above 2 eps."""
    c, d = system.manifolds[k].affine
    pts = []
    while len(pts) < count:
        x = rng.uniform(system.box.lower + 0.2, system.box.upper - 0.2)
        target = rng.uniform(-eps, eps)
        if past:
            target = math.copysign(eps * (1.0 + rng.uniform(1e-9, 0.5)), target)
        x = x + (target - (c @ x - d)) * c / (c @ c)
        if all(abs(m.h(x)) > 2 * eps for j, m in enumerate(system.manifolds) if j != k):
            pts.append(x)
    return pts


class TestBandClosure:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "chain4", "chain3d"])
    @pytest.mark.parametrize("past", [False, True], ids=["inside", "past-edge"])
    def test_equals_stacked_blend(self, request, name, past):
        # every band of each system, its closure selected at the band's edge;
        # past the edge the clip of the band's own clamp is active, and the
        # closure still is the blend there (a substep may leave the band)
        system = request.getfixturevalue(name)
        rng = np.random.default_rng(31)
        for eps in (1e-1, 1e-3):
            reg = RegularizedSystem(system, eps)
            for k in range(len(system.manifolds)):
                for x in band_points(system, eps, k, rng, 50, past):
                    band = reg.band(np.array([eps if j == k else m.h(x)
                                              for j, m in enumerate(system.manifolds)]))
                    assert band is not None and band.k == k
                    assert np.allclose(band.field(x), reg.field(x), rtol=1e-14, atol=1e-14)

    def test_equals_reference_loop(self, ex1, ex2):
        rng = np.random.default_rng(32)
        for system, ref in ((ex1, regularized_field_chain), (ex2, regularized_field_cross)):
            reg = RegularizedSystem(system, 0.05)
            for k in range(len(system.manifolds)):
                for x in band_points(system, 0.05, k, rng, 50):
                    band = reg.band(system.h_values(x))
                    assert np.allclose(band.field(x), ref(system, 0.05, x), atol=1e-13)

    def test_built_once_per_band(self, chain4):
        reg = RegularizedSystem(chain4, 1e-2)
        rng = np.random.default_rng(33)
        for k in range(3):
            bands = {id(reg.band(chain4.h_values(x)))
                     for x in band_points(chain4, 1e-2, k, rng, 10)}
            assert len(bands) == 1

    def test_jacobian_and_radius(self, ex1, chain4):
        # the band of x1 = 0 between -I x + (1, 0) and -I x + (-1, 0) of the
        # 4-mode chain: x1' = -x1 - x1/eps inside it; every band's radius
        # bounds the spectral radius of the blend's Jacobian there, which is
        # the closure's
        reg = RegularizedSystem(chain4, 1e-2)
        band = reg.band(np.array([2.0, 0.0, -2.0]))
        x = np.array([0.003, 0.5])
        assert np.allclose(reg.jacobian(x), [[-101.0, 0.0], [0.0, -1.0]], rtol=1e-15)
        assert band.bound(band.stage(x)[2]) == pytest.approx(101.0, rel=1e-15)
        rng = np.random.default_rng(34)
        for system in (ex1, chain4):
            reg = RegularizedSystem(system, 1e-2)
            for k in range(len(system.manifolds)):
                for x in band_points(system, 1e-2, k, rng, 20):
                    band = reg.band(system.h_values(x))
                    J = reg.jacobian(x)
                    rho = np.max(np.abs(np.linalg.eigvals(J)))
                    assert rho <= band.bound(band.stage(x)[2]) * (1.0 + 1e-12)
                    assert np.allclose(J, fd_jacobian(band.field, x),
                                       rtol=1e-6, atol=1e-4)

    def test_corner_and_handle_copies_take_stacked_blend(self, ex1, ex2):
        eps = 1e-2
        corner = RegularizedSystem(ex2, eps)
        for H in ([0.0, 0.0], [eps, -eps], [0.5 * eps, eps + 0.5 * TOL_EVENT]):
            assert corner.band(np.array(H)) is None
        assert corner.band(np.array([0.0, 2.0])) is not None
        for copy in (handle_copy(ex1), handle_copy(ex2), handle_manifold_copy(ex2)):
            assert RegularizedSystem(copy, eps).band(np.array([0.0, 1.0])) is None

    def test_no_band_outside_the_bands(self, ex1):
        assert RegularizedSystem(ex1, 1e-2).band(np.array([0.5, -1.5])) is None


class TestBandStepping:
    def test_step_into_another_band_is_cut_at_each_edge(self):
        # one grid step of 1e-3 at x1' ~ 100 runs from the band of x1 = 0
        # through the gap into the band of x1 = 0.25. The band step is cut
        # where it leaves its band, the flow engine crosses the gap and stops
        # at the next band's edge, so both edges are samples. A closure holds
        # the other clamps at +-1, and used to step into the second band
        system = make_system(NEAR_BANDS)
        eps = 0.1
        x0 = [-0.95, 1.0]
        traj = integrate_regularized(system, eps, x0, 0.05)
        H = np.array([system.h_values(x) for x in traj.states])
        assert np.min(np.abs(H[:, 0] - eps)) <= 1e-9  # left the band of x1 = 0
        assert np.min(np.abs(H[:, 1] + eps)) <= 1e-9  # entered the band of x1 = 0.25
        t, x = traj.grid_samples(1e-3)
        tr, xr = integrate_regularized(system, eps, x0, 0.05,
                                       SolverOptions(step=1e-5)).grid_samples(1e-3)
        assert np.allclose(t, tr, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(x - xr)) <= 1e-3 * eps

    @pytest.mark.parametrize("name, x0, t_f", [
        ("ex1", [-3.0, -4.0], 5.0), ("ex1", [4.0, -3.0], 2.0),
        ("ex2", [-2.0, -2.0], 5.0), ("chain4", [-5.0, -5.0], 3.0)])
    def test_no_step_crosses_a_band_edge(self, request, name, x0, t_f):
        # every band entry and exit is a sample on its edge: no two
        # consecutive samples lie on opposite sides of an edge, so no RK4
        # step crosses the clamp's kink, where its error estimate fails
        system = request.getfixturevalue(name)
        for eps in (1e-1, 1e-2, 1e-3):
            traj = integrate_regularized(system, eps, x0, t_f)
            side = np.array([[abs(m.h(x)) - eps for m in system.manifolds]
                             for x in traj.states])
            side[np.abs(side) <= 1e-9] = 0.0  # on an edge
            assert not np.any(side[:-1] * side[1:] < 0.0)

    def test_chain_band_crossing_is_accurate(self, chain4):
        # the 4-mode chain crosses the band of x1 = -2 at t ~ 0.47; without
        # the cut at the band's edges the step's error estimate missed the
        # kink, and the grid states were 1.9e-5 (2 % of eps) off from this
        # crossing on
        eps = 1e-3
        t, x = integrate_regularized(chain4, eps, [-5.0, -5.0], 1.0).grid_samples(1e-3)
        tr, xr = integrate_regularized(chain4, eps, [-5.0, -5.0], 1.0,
                                       SolverOptions(step=1e-4)).grid_samples(1e-3)
        assert np.allclose(t, tr, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(x - xr)) <= 1e-2 * eps

    def test_field_not_called_in_one_band(self, chain4, monkeypatch):
        # from (-5, -5) the run crosses the band of x1 = -2 and slides in the
        # band of x1 = 0 from about t = 1.6 on, all through band closures
        calls = []
        field = RegularizedSystem.field
        monkeypatch.setattr(RegularizedSystem, "field",
                            lambda self, x: calls.append(1) or field(self, x))
        traj = integrate_regularized(chain4, 1e-3, [-5.0, -5.0], 2.5)
        assert abs(traj.final_state[0]) <= 1e-3 and not calls


class TestStiffBands:
    def test_least_stable_substeps(self):
        # lambda = -50001 at delta = 1e-3: ten substeps give h lambda = -5,
        # and eighteen are the fewest inside the stability interval
        eigs = np.array([-50001.0, -1.0])
        assert regularize._stable_substeps(eigs, 1e-3, 10) == 18
        for ns in range(10, 18):
            with pytest.raises(StiffStepError):
                _check_rk4_step(eigs, 1e-3 / ns)
        assert regularize._stable_substeps(eigs, 1e-3, 40) == 40
        assert regularize._stable_substeps(np.array([-1.0]), 1e-3, 3) == 3

    def test_disk_passes_the_stability_check(self):
        # every decaying h lambda within RK4_DISK of 0, on and off the axes
        angles = np.linspace(0.5 * np.pi, 1.5 * np.pi, 2001)
        for r in np.linspace(0.01, 1.0, 100) * regularize.RK4_DISK:
            _check_rk4_step(r * np.exp(1j * angles[1:-1]), 1.0)

    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3])
    def test_stiff_band_reaches_the_blend_equilibrium(self, eps):
        # the blend's own equilibrium is x1 = 0, where the Filippov solution
        # slides; with eps/10 substeps the run ended on the band edge, one
        # eps away
        system = make_system(STIFF_BAND)
        traj = integrate_regularized(system, eps, [1.0, 0.0], 1.0)
        assert abs(traj.final_state[0]) <= 1e-12
        assert traj.final_state[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    @pytest.mark.parametrize("copy", [lambda s: s, handle_copy],
                             ids=["affine", "handle-modes"])
    def test_stiff_band_matches_fine_step(self, copy):
        # the stacked blend of a handle system gets the same substeps, from
        # the eigenvalues of its Jacobian at the start of each grid step
        system = copy(make_system(STIFF_BAND))
        eps = 1e-2
        t, x = integrate_regularized(system, eps, [1.0, 0.0], 0.2).grid_samples(1e-2)
        ref = substepped_blend(system, eps, [1.0, 0.0], 0.2, step=1e-2)
        assert len(x) == len(ref)
        assert np.max(np.abs(x[-5:] - ref[-5:])) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    def test_stiff_band_grid_states_meet_the_tolerance(self, eps):
        # the band is entered at t ~ 0.0198, and its transient (time scale
        # eps/50) is over by T = 0.05; the largest error to T = 1 is the
        # same. Substeps that kept RK4 stable but not accurate left the grid
        # states up to 0.21 eps off a step-1e-5 run
        system = make_system(STIFF_BAND)
        t, x = integrate_regularized(system, eps, [1.0, 0.0], 0.05).grid_samples(1e-3)
        tr, xr = integrate_regularized(system, eps, [1.0, 0.0], 0.05,
                                       SolverOptions(step=1e-5)).grid_samples(1e-3)
        assert np.allclose(t, tr, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(x - xr)) <= 1e-3 * eps

    def test_stiff_band_gap_peaks_at_the_slide_entry(self):
        # the Filippov run reaches x1 = 0 at t_F = ln(51/50); the regularized
        # one entered its band eps/50 earlier and decays there at rate about
        # 50/eps, so at t_F it is still about eps/e away. The grid misses
        # that peak once eps/50 is near the step: with accurate band steps a
        # grid-sampled gap reads 1.2e-4 eps at eps 1e-3 (slope 2.6), and
        # 0.29 eps even at step 1e-5
        system = make_system(STIFF_BAND)
        sweep = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        table = convergence_study(system, [1.0, 0.0], 0.1, sweep)
        assert np.allclose(table.gaps / table.eps, math.exp(-1.0), rtol=5e-3)

    @pytest.mark.parametrize("eps", [1e-2, 3e-3])
    def test_rechecked_along_a_slide(self, eps):
        # the blend's normal eigenvalue -(1 + 20 x2) / eps grows as the slide
        # carries x2 from 0.2 to 2, so a count that was stable where the run
        # entered the band is not at its end; the clamp then tracks its
        # quasi-steady value 0.5 / (1 + 20 x2). Checked only at entry, the
        # run chattered across the band, up to 0.46 eps off that value
        system = make_system(DRIFTING_BAND)
        traj = integrate_regularized(system, eps, [-0.5, 0.0], 2.0)
        x = traj.states[traj.times >= 0.5]
        assert np.max(np.abs(x[:, 0] / eps - 0.5 / (1.0 + 20.0 * x[:, 1]))) <= 1e-3

    def test_shipped_systems_keep_the_least_substeps(self, ex1, ex2, chain4, chain3d,
                                                     monkeypatch):
        # the stability rule caps no step in any band of the shipped examples
        # or of the extended chains: wherever the radius bound does not pass
        # a grid step, its eigenvalues do, so the error estimate alone sizes
        # the steps
        raised = []
        substeps = regularize._stable_substeps

        def recording(eigs, delta, ns):
            out = substeps(eigs, delta, ns)
            if out != ns:
                raised.append((delta, ns, out))
            return out

        monkeypatch.setattr(regularize, "_stable_substeps", recording)
        sweep = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        convergence_study(ex1, [-3.0, -4.0], 20.0, sweep)
        convergence_study(ex2, [-2.0, -2.0], 20.0, sweep)
        convergence_study(chain4, [-4.0, 2.0], 4.0, sweep)
        convergence_study(chain3d, [-2.0, 1.0, 0.0], 3.0, sweep)
        for x0 in ([-3.0, -4.0], [4.0, -3.0]):
            integrate_regularized(handle_copy(ex1), 1e-2, x0, 1.5)
            integrate_regularized(handle_manifold_copy(ex2), 1e-2, x0, 1.5)
        assert not raised


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

    def test_one_regularized_system_per_width(self, built_regularizations):
        # each width's system serves its run and its gap, so the study
        # validates each width's bands once
        sweep = [1e-1, 1e-2, 1e-3]
        convergence_study(fresh_ex1(), [-3.0, -4.0], 2.0, sweep)
        assert built_regularizations == sweep

    def test_a_second_run_builds_no_regularized_system(self, built_regularizations):
        # the system keeps one RegularizedSystem per float(eps): later
        # studies and runs at those widths build none
        sweep = [1e-1, 1e-2]
        system = fresh_ex1()
        first = convergence_study(system, [-3.0, -4.0], 2.0, sweep)
        regs = derived(system, "regularized")
        assert built_regularizations == sweep and len(regs) == 2
        again = convergence_study(system, [-3.0, -4.0], 2.0, [np.float64(1e-1), 1e-2])
        runs = [integrate_regularized(system, eps, [-3.0, -4.0], 1.0)
                for eps in (1e-2, 1e-2, np.float64(1e-1))]
        assert built_regularizations == sweep
        assert derived(system, "regularized") == regs
        assert again.rows == first.rows
        for k in ("times", "states", "lambdas", "seg_index"):
            assert np.array_equal(getattr(runs[0], k), getattr(runs[1], k), equal_nan=True)

    def test_bands_that_meet_raise_on_every_call(self, built_regularizations):
        # chain4's 1.5-bands overlap: the build raises, is not kept, and
        # raises again
        system = make_system(CHAIN4)
        for k in (1, 2):
            with pytest.raises(ValueError, match="bands of consecutive manifolds meet"):
                integrate_regularized(system, 1.5, [-5.0, -5.0], 1.0)
            assert built_regularizations == [1.5] * k
        with pytest.raises(ValueError, match="bands of consecutive manifolds meet"):
            convergence_study(system, [-5.0, -5.0], 1.0, [1.5, 1e-2])
        assert not derived(system, "regularized")

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

    @pytest.mark.parametrize("name, x0", [
        ("ex1", [-3.0, -4.0]), ("ex2", [-5.0, 5.0]), ("chain4", [-5.0, -5.0]),
        ("handle_ex1", [-3.0, -4.0])], ids=["slide", "crossing", "chain", "handle-slide"])
    def test_filippov_states_between_samples(self, request, name, x0):
        # the study takes a Filippov run's state at a time between its
        # samples by a partial step of the segment there: a flow, a slide
        # (affine, or stepwise for handle modes) or the mode after a crossing
        system = (handle_copy(request.getfixturevalue("ex1")) if name == "handle_ex1"
                  else request.getfixturevalue(name))
        ref = integrate(system, x0, 2.0)
        tf, xf = integrate(system, x0, 2.0, SolverOptions(step=1e-4)).grid_samples(1e-4)
        times = np.arange(1, 2000) * 1e-3 - 4e-4
        idx = np.searchsorted(ref.times, times, side="right") - 1
        X = regularize._states_at(ref, idx, times,
                                  lambda seg: regularize._filippov_step(system, seg))
        assert np.max(np.abs(X - xf[np.round(times / 1e-4).astype(int)])) <= 1e-9

    @pytest.mark.parametrize("name, x0, t_f, kind", [
        ("ex1", [-3.0, -4.0], 0.7004, "flow"), ("ex1", [-3.0, -4.0], 1.3504, "slide"),
        ("ex2", [-0.3, 2.0], 0.1004, "slide")],
        ids=["flow", "affine-slide", "stepwise-slide"])
    def test_filippov_partial_step_is_the_engines_step(self, request, name, x0, t_f, kind):
        # a run that stops off the grid takes its last sample by one single
        # step of its segment's engine from the sample before; the gap's
        # partial step of that segment over the same interval has its bits
        system = request.getfixturevalue(name)
        ref = integrate(system, x0, t_f)
        assert ref.segments[-1].kind == kind and ref.final_time == t_f
        assert ref.seg_index[-2] == ref.seg_index[-1]
        X = regularize._states_at(ref, np.array([len(ref.times) - 2]), np.array([t_f]),
                                  lambda seg: regularize._filippov_step(system, seg))
        assert np.array_equal(X[0], ref.final_state)

    def test_transition_guard_is_a_numerical_refusal(self, monkeypatch, ex1, tmp_path):
        # the regularized run's guard refuses as the Filippov run's does
        from pwscontract.cli import main
        monkeypatch.setattr(regularize, "MAX_TRANSITIONS", 2)
        with pytest.raises(StepUnderflowError, match="transitions"):
            integrate_regularized(ex1, 1e-2, [-3.0, -4.0], 20.0)
        out = tmp_path / "conv.csv"
        assert main(["regularize", "--config", "example1", "--x0", "-3,-4",
                     "--t-final", "20", "--out", str(out)]) == 3
        assert not out.exists()

    def test_rejects_non_decreasing(self, ex1):
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(ex1, [0.0, 0.0], 1.0, [1e-2, 1e-1])

    def test_base_block_maps_built_once(self, stack_builds):
        # the Filippov reference and every band width share the base modes;
        # the reference's slide advances through the system's cached field
        system = make_system(json.loads(builtin_config_path("example1").read_text()))
        convergence_study(system, [-3.0, -4.0], 5.0, [1e-1, 1e-2, 1e-3])
        assert stack_builds and set(stack_builds.values()) == {1}
        slides = {id(affine.field) for _, _, affine, _ in derived(system, "slide")
                  if affine is not None}
        assert slides
        assert {key[0] for key in stack_builds} <= (
            {id(m.affine) for m in system.modes} | slides)

    @pytest.mark.parametrize("x0", CORNER_STARTS)
    def test_gaps_from_the_cross_corner(self, ex2, x0):
        # from the square where both bands meet, each gap stays below its
        # band width and falls with it (about 0.0045 and 0.0007)
        table = convergence_study(ex2, x0, 3.0, [1e-2, 1e-3])
        assert np.all(table.gaps < table.eps)
        assert table.is_monotone_decreasing()

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

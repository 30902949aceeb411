import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwscontract.measure import (
    Metric,
    is_positive_definite,
    matrix_measure,
    measure_many,
    sym_eig_max,
)


def mu_oracle(Q, A):
    """Independent route: general inversion plus numpy's eigensolver."""
    Qi = np.linalg.inv(Q)
    S = 0.5 * (Q @ A @ Qi + Qi @ A.T @ Q)
    return float(np.linalg.eigvalsh(S)[-1])


class TestSymEigMax:
    def test_closed_form_2x2(self):
        assert sym_eig_max([[-1.0, 0.5], [0.5, -1.0]]) == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert sym_eig_max(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero(self, n):
        assert sym_eig_max(np.zeros((n, n))) == 0.0

    def test_large_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            S = rng.normal(size=(n, n))
            S = S + S.T
            ref = float(np.linalg.eigvalsh(S)[-1])
            assert sym_eig_max(S) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig_max([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig_max(np.zeros((2, 3)))


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_indefinite_diag(self):
        assert not is_positive_definite(np.diag([1.0, -1.0]))

    def test_pd_example(self):
        # eigenvalues 1 and 3
        assert is_positive_definite([[2.0, 1.0], [1.0, 2.0]])

    def test_nonsymmetric_is_rejected(self):
        assert not is_positive_definite([[1.0, 0.5], [0.0, 1.0]])

    def test_random_cases_match_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            G = rng.normal(size=(n, n))
            S = G + G.T
            expected = bool(np.linalg.eigvalsh(S)[0] > 0)
            assert is_positive_definite(S) == expected


class TestMatrixMeasure:
    def test_example1_modes(self):
        A = [np.array([[-1.0, 1.0], [0.0, -1.0]]),
             np.array([[-2.0, 1.0], [0.0, -1.0]]),
             np.array([[-3.0, 1.0], [0.0, -1.0]])]
        expected = [-0.5, (-3.0 + math.sqrt(2.0)) / 2.0, (-4.0 + math.sqrt(5.0)) / 2.0]
        for a, e in zip(A, expected):
            assert matrix_measure(np.eye(2), a) == pytest.approx(e, abs=1e-12)

    def test_example2_modes(self):
        A = [np.array([[-8.0, -2.0], [4.0, -4.0]]),
             np.array([[-2.0, -4.0], [3.0, -4.0]]),
             np.array([[-2.0, -2.0], [4.0, -10.0]]),
             np.array([[-8.0, -4.0], [3.0, -10.0]])]
        expected = [-6.0 + math.sqrt(5.0), -3.0 + math.sqrt(5.0) / 2.0,
                    -6.0 + math.sqrt(17.0), -9.0 + math.sqrt(5.0) / 2.0]
        for a, e in zip(A, expected):
            assert matrix_measure(np.eye(2), a) == pytest.approx(e, abs=1e-12)

    def test_weighted_shear(self):
        # Q A Q^-1 = [[0, 2], [0, 0]], symmetrized eigenvalues +-1
        assert matrix_measure(np.diag([2.0, 1.0]),
                              [[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_weight_is_symmetric_part(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            ref = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
            assert matrix_measure(np.eye(3), A) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_against_independent_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            G = rng.normal(size=(n, n))
            Q = G @ G.T + 0.5 * np.eye(n)
            A = rng.normal(size=(n, n))
            assert matrix_measure(Q, A) == pytest.approx(mu_oracle(Q, A),
                                                         rel=1e-9, abs=1e-9)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            matrix_measure(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            matrix_measure(np.diag([1.0, 1e-14]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matrix_measure(np.eye(2), np.eye(3))


class TestMeasureProperties:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            G = rng.normal(size=(2, 2))
            Q = G @ G.T + 0.3 * np.eye(2)
            A = rng.normal(size=(2, 2))
            s = float(rng.uniform(0.0, 5.0))
            lhs = matrix_measure(Q, s * A)
            rhs = s * matrix_measure(Q, A)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_subadditivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            G = rng.normal(size=(2, 2))
            Q = G @ G.T + 0.3 * np.eye(2)
            A = rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 2))
            assert matrix_measure(Q, A + B) <= (
                matrix_measure(Q, A) + matrix_measure(Q, B) + 1e-9)

    def test_congruence_lmi_equivalence(self):
        # mu_Q(A) <= -c iff Q^2 A + A^T Q^2 + 2 c Q^2 is negative semidefinite
        rng = np.random.default_rng(9)
        for _ in range(100):
            G = rng.normal(size=(2, 2))
            Q = G @ G.T + 0.3 * np.eye(2)
            A = rng.normal(size=(2, 2))
            c_star = -matrix_measure(Q, A)
            Q2 = Q @ Q

            def lam_max(c):
                return float(np.linalg.eigvalsh(Q2 @ A + A.T @ Q2 + 2 * c * Q2)[-1])

            scale = max(1.0, float(np.linalg.norm(Q2 @ A)))
            assert abs(lam_max(c_star)) <= 1e-9 * scale
            assert lam_max(c_star - 1e-2) < 0.0
            assert lam_max(c_star + 1e-2) > 0.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            G = rng.normal(size=(2, 2))
            Q = G @ G.T + 0.3 * np.eye(2)
            A = rng.normal(size=(2, 2))
            gamma = float(rng.uniform(0.1, 10.0))
            assert matrix_measure(gamma * Q, A) == pytest.approx(
                matrix_measure(Q, A), rel=1e-9, abs=1e-9)

    def test_rank_one_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            expected = 0.5 * (float(np.dot(u, v))
                              + float(np.linalg.norm(u) * np.linalg.norm(v)))
            assert matrix_measure(np.eye(n), np.outer(u, v)) == pytest.approx(
                expected, rel=1e-11, abs=1e-11)


class TestMetric:
    def test_accepts_pd(self):
        m = Metric([[2.0, 1.0], [1.0, 2.0]], 0.5)
        assert m.dimension == 2
        assert m.c == 0.5

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            Metric(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            Metric(np.eye(2), -0.1)

    def test_identity_and_cond(self):
        m = Metric.identity(3, 1.0)
        assert m.cond() == pytest.approx(1.0, abs=1e-12)
        assert m.weighted_norm([3.0, 4.0, 0.0]) == pytest.approx(5.0)

    def test_cond_does_not_cancel(self):
        # lambda_min as -lambda_max(-Q) loses it to cancellation: 1.0008e14
        assert Metric(np.diag([1.0, 1e-14]), 0.5).cond() == pytest.approx(1e14, rel=1e-12)
        assert Metric(np.diag([4.0, 1.0, 0.5]), 0.5).cond() == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the batched kernel: one factor of Q, a (k, n, n) stack of matrices

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def spd_matrices(draw, n):
    """Q = L L^T with a lower factor bounded so that cond(Q) stays below
    1e11: det(L) and the largest singular value of L bound the smallest."""
    diag, off = ((0.05, 20.0), 20.0) if n == 2 else ((0.5, 5.0), 2.0)
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = draw(st.floats(*diag))
        for j in range(i):
            L[i, j] = draw(st.floats(-off, off))
    return L @ L.T


@st.composite
def stacks(draw, n):
    """Random matrices mixed with rank-one u g^T, as the jump conditions use."""
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            u = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
            g = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
            mats.append(np.outer(u, g))
        else:
            mats.append(np.array(draw(st.lists(finite, min_size=n * n,
                                               max_size=n * n))).reshape(n, n))
    return np.array(mats)


def one_matrix_reference(Q, A):
    """The unbatched path: 2-D products with the same factor, then the
    closed form or eigvalsh of sym_eig_max."""
    Qs, Qinv = Metric(Q, 0.0).factor
    S = Qs @ A @ Qinv
    return sym_eig_max(0.5 * (S + S.T))


class TestBatchedKernel:
    @settings(max_examples=300, deadline=None)
    @given(spd_matrices(2), stacks(2))
    def test_2x2_equals_matrix_measure_exactly(self, Q, mats):
        batched = measure_many(Q, mats)
        assert batched.shape == (len(mats),)
        for value, A in zip(batched.tolist(), mats):
            assert value == matrix_measure(Q, A)
            assert value == one_matrix_reference(Q, A)
        assert np.array_equal(Metric(Q, 1.0).measures(mats), batched)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda n: st.tuples(spd_matrices(n), stacks(n))))
    def test_eigvalsh_sizes_equal_matrix_measure_exactly(self, case):
        Q, mats = case
        for value, A in zip(measure_many(Q, mats).tolist(), mats):
            assert value == matrix_measure(Q, A)
            assert value == one_matrix_reference(Q, A)

    @pytest.mark.parametrize("Q, A", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)),  # not symmetric
        (np.diag([1.0, -1.0]), np.eye(2)),  # not positive definite
        (np.diag([1.0, 1e-14]), np.eye(2)),  # cond > 1e12
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)),
        (np.diag([np.inf, 1.0]), np.eye(2)),
        (np.eye(2), np.array([[0.0, np.nan], [0.0, 0.0]])),
        (np.eye(2), np.diag([-np.inf, 1.0])),
    ])
    def test_same_error_as_matrix_measure(self, Q, A):
        with pytest.raises(ValueError) as single:
            matrix_measure(Q, A)
        with pytest.raises(ValueError) as batched:
            measure_many(Q, np.array([-np.eye(2), A]))
        assert str(batched.value) == str(single.value)

    def test_ill_conditioned_metric_fails_when_measured(self):
        metric = Metric(np.diag([1.0, 1e-14]), 0.5)  # built: Q is PD
        assert metric.cond() > 1e12
        with pytest.raises(ValueError, match="ill-conditioned"):
            metric.measure(np.eye(2))
        with pytest.raises(ValueError, match="ill-conditioned"):
            metric.measures(np.eye(2)[None])

    @pytest.mark.parametrize("Q, c", [
        ([[1.0, 0.0], [0.0, np.nan]], 0.5),
        ([[np.inf, 0.0], [0.0, 1.0]], 0.5),
        (np.eye(2), np.nan),
        (np.eye(2), np.inf),
    ])
    def test_metric_rejects_non_finite(self, Q, c):
        with pytest.raises(ValueError, match="finite"):
            Metric(Q, c)

"""Weighted matrix measure (logarithmic norm): closed-form 2x2 eigenvalues,
and numpy.linalg (Cholesky, eigvalsh) for the weight checks and larger
matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Metric", "is_positive_definite", "matrix_measure"]

_SYM_TOL = 1e-12
_COND_LIMIT = 1e12


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


def _is_symmetric(S: np.ndarray) -> bool:
    if bool((S == S.T).all()):
        return True
    scale = max(float(np.linalg.norm(S)), 1.0)
    return float(np.linalg.norm(S - S.T)) <= _SYM_TOL * scale


def _eig_max(S: np.ndarray) -> float:
    """Largest eigenvalue of a matrix known to be symmetric."""
    n = S.shape[0]
    if n == 1:
        return float(S[0, 0])
    if n == 2:
        a, c = S[0, 0], S[1, 1]
        b = 0.5 * (S[0, 1] + S[1, 0])
        return float(0.5 * (a + c) + math.hypot(0.5 * (a - c), b))
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])


def _eig_range(S: np.ndarray) -> tuple:
    """(smallest, largest) eigenvalue of a matrix known to be symmetric
    positive definite. For n = 2 the smallest is det / largest, which does not
    cancel when the two differ in scale."""
    n = S.shape[0]
    if n == 2:
        hi = _eig_max(S)
        b = 0.5 * (S[0, 1] + S[1, 0])
        return float((S[0, 0] * S[1, 1] - b * b) / hi), hi
    eig = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(eig[0]), float(eig[-1])


def _column_norms(P: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every column of an (n, N) array, its squares
    summed row by row along the long axis: for n < 8 the same sums in the
    same order as np.linalg.norm(P.T, axis=1), at a fraction of the cost
    per column of that reduction over the short axis."""
    sq = P[0] * P[0]
    for row in P[1:]:
        sq += row * row
    return np.sqrt(sq)


def is_positive_definite(Q) -> bool:
    """True iff Q is finite, symmetric and has a Cholesky factor."""
    Q = _as_square(Q, "Q")
    if not (np.all(np.isfinite(Q)) and _is_symmetric(Q)):
        return False
    try:
        np.linalg.cholesky(0.5 * (Q + Q.T))
    except np.linalg.LinAlgError:
        return False
    return True


def _factor(Q) -> tuple:
    """Validate a weight matrix once and return (Q_sym, Q^-1).

    Raises ValueError for non-finite entries, a non-symmetric or non-PD Q,
    and a condition estimate above 1e12."""
    Q = _as_square(Q, "Q")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must have finite entries")
    if not _is_symmetric(Q):
        raise ValueError("Q must be symmetric positive definite")
    Qs = 0.5 * (Q + Q.T)
    try:
        L = np.linalg.cholesky(Qs)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be symmetric positive definite") from None
    lam_lo, lam_hi = _eig_range(Qs)
    if lam_lo <= 0.0 or lam_hi / lam_lo > _COND_LIMIT:
        raise ValueError("Q is singular or too ill-conditioned (cond > 1e12)")
    Linv = np.linalg.inv(L)
    return Qs, Linv.T @ Linv


def _measures(factor: tuple, mats: np.ndarray) -> np.ndarray:
    """mu_Q of every matrix of a (k, n, n) stack, for a validated factor.

    The 2x2 closed form takes math.hypot per entry and larger matrices go
    through one batched eigvalsh, so each value equals the one-matrix
    evaluation bit for bit."""
    Qs, Qinv = factor
    n = Qs.shape[0]
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ValueError(f"shape mismatch: Q {Qs.shape} vs A {mats.shape[1:]}")
    with np.errstate(invalid="ignore", over="ignore"):
        S = Qs @ mats @ Qinv
        S = 0.5 * (S + S.transpose(0, 2, 1))
    if not np.all(np.isfinite(S)):
        # a non-finite entry of A always reaches S: Q and Q^-1 have positive diagonals
        raise ValueError("A must have finite entries (and Q A Q^-1 must not overflow)")
    if n == 1:
        return S[:, 0, 0].copy()
    if n == 2:
        a, c = S[:, 0, 0], S[:, 1, 1]
        b = 0.5 * (S[:, 0, 1] + S[:, 1, 0])
        half = (0.5 * (a - c)).tolist()
        hyp = np.array([math.hypot(h, v) for h, v in zip(half, b.tolist())])
        return 0.5 * (a + c) + hyp
    return np.linalg.eigvalsh(S)[:, -1]


def matrix_measure(Q, A) -> float:
    """Matrix measure mu_Q(A) = lambda_max((Q A Q^-1 + Q^-1 A^T Q) / 2).

    Q must be symmetric positive definite; Q^-1 is formed from the Cholesky
    factor L as L^-T L^-1. With Q = I this reduces to lambda_max((A + A^T) / 2).
    Raises ValueError for non-finite entries, non-PD Q or a condition
    estimate above 1e12.
    """
    Q = _as_square(Q, "Q")
    A = _as_square(A, "A")
    if Q.shape != A.shape:
        raise ValueError(f"shape mismatch: Q {Q.shape} vs A {A.shape}")
    return float(_measures(_factor(Q), A[None])[0])


@dataclass(frozen=True, eq=False)
class Metric:
    """Contraction certificate candidate: a PD weight matrix Q and a rate c >= 0."""

    Q: np.ndarray
    c: float

    def __post_init__(self):
        Q = _as_square(self.Q, "Q").copy()
        Q.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", float(self.c))
        if not (np.all(np.isfinite(Q)) and math.isfinite(self.c)):
            raise ValueError("metric Q and rate c must be finite")
        if not is_positive_definite(Q):
            raise ValueError("metric Q must be symmetric positive definite")
        if self.c < 0.0:
            raise ValueError("contraction rate c must be nonnegative")

    @classmethod
    def identity(cls, n: int, c: float) -> "Metric":
        return cls(np.eye(n), c)

    @property
    def dimension(self) -> int:
        return int(self.Q.shape[0])

    @cached_property
    def factor(self) -> tuple:
        """(Q_sym, Q^-1), validated on first use: an ill-conditioned Q fails
        only when it is measured."""
        return _factor(self.Q)

    def measures(self, mats) -> np.ndarray:
        """mu_Q of every matrix in a (k, n, n) stack, with the cached factor;
        each value equals ``matrix_measure(Q, mats[j])`` exactly."""
        return _measures(self.factor, np.asarray(mats, dtype=float))

    def cond(self) -> float:
        lam_lo, lam_hi = _eig_range(self.Q)
        return lam_hi / lam_lo

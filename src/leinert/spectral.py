"""Haar-unitary norm experiment: sample independent unitaries and compute
the 2-norm of T = a * sum_i (U_i (x) I + I (x) V_i) without forming it.

Trials run at unit weight: T = a T1 with T1 the tensor sum
A (x) I + I (x) B, A = sum_i U_i and B = sum_i V_i, and a multiplies the
norm of T1 once at the end, so the steps taken and the relative residual
do not depend on a.  A product with T1 costs two N x N matmuls for any s.

For s >= 2 the norm comes from three-term Lanczos on T1*T1, which keeps two
vectors and no Krylov basis.  It stops on the Ritz residual: with theta the
largest eigenvalue of the k x k Lanczos tridiagonal and y its unit
eigenvector, some eigenvalue of T1*T1 lies within beta_k |e_k^T y| of theta
(Parlett, The Symmetric Eigenvalue Problem, ch. 13), and theta approaches
the largest one from below.  For s = 1, U (x) I and I (x) V are commuting
normal operators, so T1 is normal and its norm is max |lambda_i + mu_j|
over the eigenvalues of U and V, computed directly.

The mean over trials estimates the reciprocal radius the bounds module
brackets.  As N grows the norm tends to the F_s x F_s norm of T, not to
the norm 2a sqrt(2s-1) of 2s free unitaries; both are 2a at s = 1.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from . import rng

# Lanczos steps per restart cycle.  It bounds the tridiagonal the stop test
# diagonalizes, so a trial that never converges costs O(MAX_ITERS) matvecs
# rather than O(MAX_ITERS^4) flops of eigh.
KRYLOV_DIM = 200
# Products with T*T per trial, restart rebuilds included.
MAX_ITERS = 5000
# A trial converges once its relative Ritz residual is at most this.
TOL = 1e-6


@dataclass(frozen=True)
class SpectralConfig:
    s: int
    N: int
    a: float = 1.0
    trials: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not 0 < self.a < math.inf:
            raise ValueError("a must be a positive finite number")
        # the norm is at most the ceiling 2sa: past the float range it would
        # overflow, below the normal range it would lose digits
        ceiling = 2.0 * self.s * self.a
        if ceiling == math.inf:
            raise ValueError(f"a = {self.a} is too large: the ceiling 2sa overflows a float")
        if ceiling < sys.float_info.min:
            raise ValueError(f"a = {self.a} is too small: the ceiling 2sa = {ceiling} is subnormal")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def haar_unitary(N: int, gen: np.random.Generator) -> np.ndarray:
    """Haar sample: complex Ginibre, QR, then fix the R-diagonal phases."""
    if N < 1:
        raise ValueError("N must be >= 1")
    ginibre = rng.standard_complex_normal(gen, (N, N))
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_T(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-major matrix-free product with T = A (x) I + I (x) B:
    (A (x) I)v = A M, (I (x) B)v = M B^T for v reshaped to the N x N matrix M."""
    n = a.shape[0]
    if v.shape != (n * n,):
        raise ValueError(f"vector must have length {n * n}")
    m = v.reshape(n, n)
    return (a @ m + m @ b.T).reshape(-1)


@dataclass(frozen=True)
class TrialNorm:
    """One trial's norm with its certificate.

    `residual` is relative: some singular value of T lies within
    residual * norm of norm (0 for the exact s = 1 path and on Lanczos
    breakdown).  `steps` counts products with T*T.
    """

    norm: float
    steps: int
    converged: bool
    residual: float


def _lanczos(op, q: np.ndarray, steps: int):
    """Three-term Lanczos recurrence for the Hermitian `op`, started at q.

    Yields (q_j, alpha_j, beta_j) for j = 1, 2, ... up to `steps`, holding
    two vectors at a time; stops early on breakdown (beta_j = 0, where the
    Krylov space is invariant and its Ritz values are exact eigenvalues).
    """
    q = q / np.linalg.norm(q)
    prev, beta = np.zeros_like(q), 0.0
    for _ in range(steps):
        w = op(q) - beta * prev
        alpha = float(np.vdot(q, w).real)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        prev, q = q, w / beta


def _top_ritz(alphas: list, betas: list) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Lanczos tridiagonal and its unit eigenvector."""
    k = len(alphas)
    tri = np.diag(alphas) + np.diag(betas[: k - 1], -1)
    values, vectors = np.linalg.eigh(tri)  # reads the lower triangle
    return float(values[-1]), vectors[:, -1]


def two_norm(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = TOL,
    gen: np.random.Generator | None = None,
) -> TrialNorm:
    """Largest singular value of T = A (x) I + I (x) B by restarted Lanczos
    on T*T.

    Converged means beta_k |e_k^T y| <= tol * theta, which puts a singular
    value of T within tol * sqrt(theta) of the returned sqrt(theta).  The
    test runs at steps 1..8 and then every k // 8 steps.  A cycle that
    reaches KRYLOV_DIM steps restarts from its top Ritz vector, rebuilt by
    running the recurrence again; the rebuild counts towards `steps`, which
    stops at MAX_ITERS.
    """
    gen = gen or np.random.default_rng(0)
    n = a.shape[0]
    a_adj, b_conj = a.conj().T, b.conj()

    def normal(v):  # T*T v, with T* = A^H (x) I + I (x) B^H
        t = apply_T(v, a, b).reshape(n, n)
        return (a_adj @ t + t @ b_conj).reshape(-1)

    start = rng.standard_complex_normal(gen, n * n)
    steps = 0
    while True:
        cycle = min(KRYLOV_DIM, MAX_ITERS - steps)
        alphas, betas, check = [], [], 1
        for _, alpha, beta in _lanczos(normal, start, cycle):
            alphas.append(alpha)
            betas.append(beta)
            k = len(alphas)
            if k in (check, cycle) or beta == 0.0:
                theta, y = _top_ritz(alphas, betas)
                bound = beta * float(abs(y[-1]))
                if bound <= tol * theta:
                    break
                check = k + max(1, k // 8)
        steps += k
        converged = bool(bound <= tol * theta)
        if converged or steps + k >= MAX_ITERS:
            residual = bound / theta if theta else 0.0
            return TrialNorm(math.sqrt(max(theta, 0.0)), steps, converged, residual)
        start = sum(yj * q for yj, (q, _, _) in zip(y, _lanczos(normal, start, k)))
        steps += k


@dataclass(frozen=True)
class NormEstimate:
    config: SpectralConfig
    norms: tuple[float, ...]
    iterations: tuple[int, ...]
    converged: tuple[bool, ...]
    residuals: tuple[float, ...]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.norms)

    @property
    def std(self) -> float:
        if len(self.norms) < 2:
            return 0.0
        return statistics.stdev(self.norms)

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


def estimate_z_inverse(config: SpectralConfig) -> NormEstimate:
    """Sample `trials` independent operand sets and average their norms.

    Each trial draws 2s Haar unitaries and, for s >= 2, a Lanczos start
    vector from its own derived stream, so trial k is reproducible in
    isolation.  Each trial runs at unit weight, A = sum_i U_i and
    B = sum_i V_i, and its norm is checked against the triangle-inequality
    ceiling 2s before it is multiplied by a.
    """
    results = []
    ceiling = 2.0 * config.s
    for trial in range(config.trials):
        gen = rng.philox(config.seed, 0x5EC7, trial)
        left = tuple(haar_unitary(config.N, gen) for _ in range(config.s))
        right = tuple(haar_unitary(config.N, gen) for _ in range(config.s))
        if config.s == 1:
            # T1 is normal with eigenvalues lambda_i + mu_j
            lam, mu = np.linalg.eigvals(left[0]), np.linalg.eigvals(right[0])
            result = TrialNorm(float(np.abs(lam[:, None] + mu).max()), 0, True, 0.0)
        else:
            result = two_norm(sum(left), sum(right), gen=gen)
        if result.norm > ceiling * (1.0 + 1e-9):
            raise RuntimeError(
                f"trial {trial}: unit-weight norm {result.norm} exceeds the ceiling {ceiling}"
            )
        results.append(result)
    return NormEstimate(
        config=config,
        norms=tuple(config.a * r.norm for r in results),
        iterations=tuple(r.steps for r in results),
        converged=tuple(r.converged for r in results),
        residuals=tuple(r.residual for r in results),
    )


def free_limit(s: int, a: float = 1.0) -> float:
    """2 a sqrt(2s-1), the norm of a times 2s free unitaries (Akemann-Ostrand).

    The U_i (x) I and I (x) V_j commute, so as N grows T's norm tends to the
    F_s x F_s norm instead, larger at s = 2.  At s = 1 both are 2a.
    """
    return 2.0 * a * math.sqrt(2.0 * s - 1.0)

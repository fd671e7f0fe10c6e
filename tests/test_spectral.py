"""Haar unitaries and the tensor-sum norm estimator."""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
import scipy.sparse.linalg
import scipy.stats

from leinert import (
    NormEstimate,
    SpectralConfig,
    apply_T,
    estimate_z_inverse,
    free_limit,
    haar_unitary,
    rng,
    two_norm,
)
from leinert import bounds, spectral
from leinert.cli import spectral_summary, write_spectral_csv


def haar_tuple(count, N, gen):
    return tuple(haar_unitary(N, gen) for _ in range(count))


def haar_pair(s, N, gen, a=1.0):
    # (A, B) = (a sum U_i, a sum V_i) with the U_i drawn before the V_i
    left = haar_tuple(s, N, gen)
    right = haar_tuple(s, N, gen)
    return a * sum(left), a * sum(right)


def dense_T(a, b):
    eye = np.eye(a.shape[0])
    return np.kron(a, eye) + np.kron(eye, b)


def trial_pair(config, trial):
    # the pair estimate_z_inverse forms for one trial
    gen = rng.philox(config.seed, 0x5EC7, trial)
    return haar_pair(config.s, config.N, gen, config.a)


class TestHaar:
    def test_unitarity(self):
        gen = rng.philox(0, 1)
        for N in (2, 7, 40):
            u = haar_unitary(N, gen)
            assert np.allclose(u @ u.conj().T, np.eye(N), atol=1e-12)

    def test_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            haar_unitary(0, rng.philox(0, 0))

    def test_determinism(self):
        a = haar_unitary(9, rng.philox(3, 4))
        b = haar_unitary(9, rng.philox(3, 4))
        assert (a == b).all()

    def test_eigenvalue_arguments_uniform(self):
        # the Haar spectral measure on the circle is uniform; pooled
        # eigenvalue phases should pass a KS test at a fixed seed
        gen = rng.philox(0, 99)
        phases = []
        for _ in range(30):
            eigs = np.linalg.eigvals(haar_unitary(30, gen))
            phases.extend(np.angle(eigs))
        stat = scipy.stats.kstest(
            phases, scipy.stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf
        )
        assert stat.pvalue > 0.01

    def test_phase_fix_changes_raw_qr(self):
        # without the diagonal phase correction qr output is biased;
        # the corrected matrix still satisfies unitarity but differs
        gen = rng.philox(5, 6)
        ginibre = rng.standard_complex_normal(gen, (12, 12))
        q, _ = np.linalg.qr(ginibre)
        u = haar_unitary(12, rng.philox(5, 6))
        assert not np.allclose(u, q)


class TestApplyT:
    def test_matches_dense_kronecker(self):
        N, s, a = 6, 2, 0.7
        gen = rng.philox(1, 2)
        left = haar_tuple(s, N, gen)
        right = haar_tuple(s, N, gen)
        eye = np.eye(N)
        # the per-pair sum, so the collapse to (A, B) is checked too
        dense = a * sum(
            np.kron(u, eye) + np.kron(eye, v) for u, v in zip(left, right)
        )
        v = rng.standard_complex_normal(gen, N * N)
        assert np.allclose(apply_T(v, a * sum(left), a * sum(right)), dense @ v, atol=1e-12)

    def test_shape_guard(self):
        u, v = haar_unitary(3, rng.philox(0, 0)), haar_unitary(3, rng.philox(0, 1))
        with pytest.raises(ValueError):
            apply_T(np.zeros(5, dtype=complex), u, v)


class TestTwoNorm:
    def test_identity_control(self):
        # U = V = I makes T = 2a * identity, norm exactly 2a
        eye = 0.5 * np.eye(8, dtype=complex)
        result = two_norm(eye, eye, tol=1e-12)
        assert result.converged
        assert result.norm == pytest.approx(1.0, rel=1e-12)

    def test_against_dense_svd(self):
        N, s = 5, 2
        gen = rng.philox(7, 8)
        left = haar_tuple(s, N, gen)
        right = haar_tuple(s, N, gen)
        a, b = sum(left), sum(right)
        exact = float(np.linalg.svd(dense_T(a, b), compute_uv=False)[0])
        result = two_norm(a, b, tol=1e-10, gen=rng.philox(7, 9))
        assert result.converged
        assert result.norm == pytest.approx(exact, rel=1e-5)

    def test_norm_below_triangle_ceiling(self):
        gen = rng.philox(4, 4)
        a, b = haar_pair(2, 20, gen)
        assert two_norm(a, b, gen=rng.philox(4, 5)).norm <= 4.0 * (1 + 1e-9)


class TestLanczos:
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("a", [1.0, 0.25])
    def test_within_residual_of_dense_norm(self, s, a):
        for N in (3, 8, 20):
            gen = rng.philox(N, s)
            pair = haar_pair(s, N, gen, a)
            exact = float(np.linalg.norm(dense_T(*pair), 2))
            result = two_norm(*pair, gen=gen)
            assert result.converged and 0 < result.residual <= 1e-6
            assert abs(result.norm - exact) <= (result.residual + 1e-13) * exact
            # a Ritz value of T*T approaches the top of the spectrum from below
            assert result.norm <= exact * (1 + 1e-13)

    def test_s2_N75_against_eigsh(self):
        config = SpectralConfig(s=2, N=75, trials=1, seed=0)
        est = estimate_z_inverse(config)
        a, b = trial_pair(config, 0)
        n = config.N

        def normal(v):
            t = apply_T(np.ravel(v), a, b).reshape(n, n)
            return (a.conj().T @ t + t @ b.conj()).reshape(-1)

        op = scipy.sparse.linalg.LinearOperator((n * n, n * n), matvec=normal, dtype=complex)
        top = scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=1e-12, return_eigenvectors=False)
        assert est.norms[0] == pytest.approx(math.sqrt(top[0]), rel=1e-9)

    def test_identity_control_breaks_down(self):
        # T = I: the start vector spans an invariant subspace, so beta_1 is
        # zero up to the rounding of alpha_1
        eye = 0.5 * np.eye(8, dtype=complex)
        result = two_norm(eye, eye, gen=rng.philox(0, 3))
        assert (result.steps, result.converged) == (1, True)
        assert result.residual < 1e-15
        assert result.norm == pytest.approx(1.0, rel=1e-14)

    def test_zero_operator_breaks_down(self):
        # T = 0 gives beta_1 = 0 exactly, with nothing left to normalize
        zero = np.zeros((5, 5), dtype=complex)
        result = two_norm(zero, zero)
        assert (result.norm, result.steps, result.converged) == (0.0, 1, True)

    def test_restarts_reach_the_dense_norm(self, monkeypatch):
        # cycles of 5 steps force several rebuilt restart vectors
        monkeypatch.setattr(spectral, "KRYLOV_DIM", 5)
        gen = rng.philox(2, 5)
        pair = haar_pair(2, 6, gen)
        result = two_norm(*pair, tol=1e-10, gen=gen)
        assert result.converged and result.steps > 5
        exact = float(np.linalg.norm(dense_T(*pair), 2))
        assert result.norm == pytest.approx(exact, rel=1e-9)

    def test_clustered_s1_gives_up_in_bounded_time(self):
        # at s = 1 the top of T*T is a cluster of N^2 eigenvalues; a residual
        # of 1e-12 is out of reach, and MAX_ITERS = 5000 must end the trial
        gen = rng.philox(0, 1)
        pair = haar_pair(1, 40, gen)
        started = time.perf_counter()
        result = two_norm(*pair, tol=1e-12, gen=gen)
        assert time.perf_counter() - started < 10.0
        assert not result.converged and result.steps <= spectral.MAX_ITERS == 5000


class TestEstimate:
    def test_deterministic(self):
        config = SpectralConfig(s=2, N=15, trials=3, seed=11)
        a = estimate_z_inverse(config)
        b = estimate_z_inverse(config)
        assert a.norms == b.norms

    def test_seed_matters(self):
        a = estimate_z_inverse(SpectralConfig(s=2, N=15, trials=2, seed=1))
        b = estimate_z_inverse(SpectralConfig(s=2, N=15, trials=2, seed=2))
        assert a.norms != b.norms

    def test_trials_are_independent_draws(self):
        est = estimate_z_inverse(SpectralConfig(s=2, N=15, trials=3, seed=0))
        assert len(set(est.norms)) == 3

    def test_stats(self):
        est = estimate_z_inverse(SpectralConfig(s=2, N=12, trials=4, seed=5))
        assert isinstance(est, NormEstimate)
        assert est.mean == pytest.approx(sum(est.norms) / 4)
        assert est.std >= 0
        single = estimate_z_inverse(SpectralConfig(s=2, N=12, trials=1, seed=5))
        assert single.std == 0.0

    def test_single_factor_hits_free_limit_fast(self):
        # s=1: U (x) I + I (x) V has norm 2 for Haar U, V at modest N
        est = estimate_z_inverse(SpectralConfig(s=1, N=40, trials=2, seed=0))
        assert est.mean == pytest.approx(2.0, rel=0.02)
        assert free_limit(1) == 2.0

    def test_s1_is_exact(self):
        config = SpectralConfig(s=1, N=12, a=0.25, trials=3, seed=4)
        est = estimate_z_inverse(config)
        assert est.iterations == (0, 0, 0) and est.residuals == (0.0, 0.0, 0.0)
        for trial, norm in enumerate(est.norms):
            exact = float(np.linalg.norm(dense_T(*trial_pair(config, trial)), 2))
            assert norm == pytest.approx(exact, rel=1e-12)
            assert norm < free_limit(1, 0.25)

    def test_csv_has_residual_column(self):
        est = estimate_z_inverse(SpectralConfig(s=2, N=10, trials=2, seed=3))
        header, *rows = write_spectral_csv(est).splitlines()
        assert header == "s,N,a,trial,norm,iterations,converged,residual"
        assert [float(r.split(",")[-1]) for r in rows] == pytest.approx(est.residuals, rel=1e-2)
        assert all(0 < r <= 1e-6 for r in est.residuals)

    def test_free_limit_values(self):
        assert free_limit(2) == pytest.approx(2 * math.sqrt(3))
        assert free_limit(2, 0.25) == pytest.approx(math.sqrt(3) / 2)

    def test_free_limit_is_the_bounds_one(self):
        # one definition of c = 2a sqrt(2s - 1), which the radius side reads
        assert spectral.free_limit is bounds.free_limit is free_limit

    def test_summary_fields(self):
        est = estimate_z_inverse(SpectralConfig(s=2, N=10, trials=2, seed=3))
        summary = spectral_summary(est)
        assert summary["s"] == 2 and summary["N"] == 10
        assert summary["free_limit"] == pytest.approx(2 * math.sqrt(3))
        assert summary["all_converged"] is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralConfig(s=0, N=10)
        with pytest.raises(ValueError):
            SpectralConfig(s=1, N=1)
        # a <= 0 fails the ceiling 2sa, nan fails the eigenvalue solver
        for a in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="a must be a positive finite number"):
                SpectralConfig(s=2, N=10, a=a)
        # the trials run at unit weight; only the ceiling 2sa must be a normal float
        top, bottom = sys.float_info.max / 4, sys.float_info.min / 4
        for a in (top, 1e-100, bottom):
            SpectralConfig(s=2, N=10, a=a)
        for a in (math.nextafter(top, math.inf), 1e308, math.nextafter(bottom, 0), 5e-324):
            with pytest.raises(ValueError, match=r"too (large|small): the ceiling 2sa"):
                SpectralConfig(s=2, N=10, a=a)
        with pytest.raises(TypeError):
            SpectralConfig(s=2, N=10, tol=1e-6)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("a", [0.25, 4.0, 1e-100])
    def test_norms_scale_exactly_with_a(self, s, a):
        # trials run at unit weight and a multiplies each norm once, so the
        # steps and residuals do not depend on a
        config = SpectralConfig(s=s, N=12, trials=3, seed=2)
        unit = estimate_z_inverse(config)
        scaled = estimate_z_inverse(dataclasses.replace(config, a=a))
        assert scaled.norms == tuple(a * x for x in unit.norms)
        assert scaled.iterations == unit.iterations
        assert scaled.residuals == unit.residuals
        assert scaled.converged == unit.converged

    @pytest.mark.parametrize("a", [1e76, 3.1e-78])
    def test_extreme_a_within_range_scales_the_norm(self, a):
        # the norm is a times the unit-weight norm, rounded once
        config = SpectralConfig(s=2, N=6, trials=1, seed=0)
        scaled = estimate_z_inverse(dataclasses.replace(config, a=a))
        assert scaled.norms[0] == pytest.approx(a * estimate_z_inverse(config).norms[0], rel=1e-5)

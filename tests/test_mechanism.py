import math

import numpy as np
import pytest
from scipy import stats

from dpattn import (
    NotPsd,
    ParamRange,
    SymMatrix,
    gaussian_sampling_mechanism,
    required_samples,
    rng,
    utility_radius,
    whitened_eigenvalues,
)
from helpers import direct_gaussian_samples, rand_orthogonal, rand_pd, relative_frobenius_distance


class TestSampleGaussian:
    # the direct k*n-normal sampler is the oracle the Bartlett release is
    # compared against, so its own behaviour is pinned here
    def test_zero_covariance(self):
        samples = direct_gaussian_samples(np.zeros((3, 3)), 10, seed=0)
        assert samples.shape == (10, 3)
        assert np.array_equal(samples, np.zeros((10, 3)))

    def test_empty(self):
        assert direct_gaussian_samples(np.eye(2), 0, seed=0).shape == (0, 2)

    def test_law_of_large_numbers(self):
        k = 100_000
        samples = direct_gaussian_samples(np.eye(2), k, seed=0)
        assert np.abs(samples.mean(axis=0)).max() <= 4.0 / math.sqrt(k)

    def test_reproducible(self):
        a = direct_gaussian_samples(np.diag([2.0, 1.0]), 100, seed=42)
        b = direct_gaussian_samples(np.diag([2.0, 1.0]), 100, seed=42)
        assert np.array_equal(a, b)


class TestGaussianSamplingMechanism:
    def test_zero_covariance(self):
        for k in (2, 10):
            out = gaussian_sampling_mechanism(SymMatrix.zeros(3), k, seed=0)
            assert np.array_equal(out.sigma_hat.values, np.zeros((3, 3)))
            assert math.isnan(out.rel_frob_error)

    def test_rejects_indefinite(self):
        for k in (1, 5):
            with pytest.raises(NotPsd):
                gaussian_sampling_mechanism(SymMatrix.diagonal([1.0, -1.0]), k, seed=0)

    def test_single_sample_is_rank_one(self):
        out = gaussian_sampling_mechanism(SymMatrix.identity(2), 1, seed=3)
        eigs = np.linalg.eigvalsh(out.sigma_hat.values)
        assert abs(eigs[0]) <= 1e-12
        assert out.warnings == ("SingularEstimate",)

    def test_no_warning_when_k_at_least_n(self):
        out = gaussian_sampling_mechanism(SymMatrix.identity(2), 2, seed=3)
        assert out.warnings == ()

    def test_relative_error_at_large_k(self):
        out = gaussian_sampling_mechanism(SymMatrix.identity(2), 100_000, seed=1)
        assert out.rel_frob_error <= 0.1

    def test_deterministic_bit_identical(self):
        sigma = SymMatrix([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        for k in (2, 500):
            a = gaussian_sampling_mechanism(sigma, k, seed=9)
            b = gaussian_sampling_mechanism(sigma, k, seed=9)
            assert np.array_equal(a.sigma_hat.values, b.sigma_hat.values)
            assert a.rel_frob_error == b.rel_frob_error
            c = gaussian_sampling_mechanism(sigma, k, seed=10)
            assert not np.array_equal(a.sigma_hat.values, c.sigma_hat.values)

    def test_estimate_is_psd(self):
        gen = np.random.default_rng(12)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 50))
            sigma = SymMatrix(rand_pd(gen, n))
            out = gaussian_sampling_mechanism(sigma, k, seed=int(gen.integers(1000)))
            min_eig = np.linalg.eigvalsh(out.sigma_hat.values).min()
            assert min_eig >= -1e-12
            if k >= n:
                assert min_eig > 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ParamRange):
            gaussian_sampling_mechanism(SymMatrix.identity(2), 0, seed=0)

    def test_unbiasedness(self):
        sigma = np.diag([2.0, 1.0])
        k = 1000
        estimates = np.array([
            gaussian_sampling_mechanism(SymMatrix(sigma), k, seed=s).sigma_hat.values
            for s in range(200)
        ])
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / math.sqrt(200)
        assert np.all(np.abs(mean - sigma) <= 5.0 * se + 1e-12)

    def test_whitening_invariance(self):
        # the whitened deviation has the same distribution for any PD
        # covariance; compare identity against a conditioned random one
        gen = np.random.default_rng(2)
        sigma = SymMatrix(rand_pd(gen, 3, eig_low=0.3, eig_high=3.0))
        errs_id = [
            gaussian_sampling_mechanism(SymMatrix.identity(3), 100, seed=(1, t)).rel_frob_error
            for t in range(500)
        ]
        errs_pd = [
            gaussian_sampling_mechanism(sigma, 100, seed=(2, t)).rel_frob_error
            for t in range(500)
        ]
        assert stats.ks_2samp(errs_id, errs_pd).pvalue > 0.01


class TestRelFrobError:
    # the whitened release is V (T T^T / k) V^T, so the error is
    # ||T T^T / k - I||_F and does not depend on sigma
    def conditioned(self, n, cond):
        q = rand_orthogonal(np.random.default_rng(4), n)
        return SymMatrix((q * np.geomspace(1.0, cond, n)) @ q.T)

    @pytest.mark.parametrize("k", [3, 50, 1_000_000])
    def test_independent_of_condition_number(self, k):
        errors = [
            gaussian_sampling_mechanism(self.conditioned(6, cond), k, seed=(7, k)).rel_frob_error
            for cond in (1.0, 1e3, 1e8)
        ]
        assert errors[0] == errors[1] == errors[2]

    @pytest.mark.parametrize("k", [1, 3, 50, 1_000_000])
    def test_matches_whitened_oracle(self, k):
        for cond in (1.0, 10.0, 1e3):
            for seed in range(5):
                sigma = self.conditioned(6, cond)
                out = gaussian_sampling_mechanism(sigma, k, seed=seed)
                oracle = relative_frobenius_distance(sigma, out.sigma_hat)
                assert out.rel_frob_error == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 50, 1_000_000])
    def test_whitened_spectrum_matches_oracle(self, k):
        for cond in (1.0, 1e3):
            for seed in range(5):
                sigma = self.conditioned(6, cond)
                out = gaussian_sampling_mechanism(sigma, k, seed=seed)
                mu = np.linalg.eigvalsh(out.whitened.values)[::-1]
                oracle = whitened_eigenvalues(out.sigma_hat, sigma)
                assert np.abs(mu - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_whitened_is_none_exactly_when_error_is_nan(self):
        for floor, defined in ((1e-9, False), (2e-9, True)):
            out = gaussian_sampling_mechanism(SymMatrix.diagonal([1.0, floor]), 10, 0)
            assert (out.whitened is not None) is defined
            assert math.isfinite(out.rel_frob_error) is defined

    def test_nan_at_the_singularity_floor(self):
        # the floor of psd_inv_sqrt: an eigenvalue at most 1e-9 times the largest
        assert math.isnan(
            gaussian_sampling_mechanism(SymMatrix.diagonal([1.0, 1e-9]), 10, 0).rel_frob_error)
        assert math.isfinite(
            gaussian_sampling_mechanism(SymMatrix.diagonal([1.0, 2e-9]), 10, 0).rel_frob_error)


class TestBartlettRelease:
    SIGMA = np.array([
        [1.0, 0.2, -0.5, 0.1],
        [0.2, 1.8, -0.1, 0.3],
        [-0.5, -0.1, 1.1, 0.1],
        [0.1, 0.3, 0.1, 1.6],
    ])

    @pytest.mark.parametrize("k,draws", [(1, 2000), (2, 2000), (3, 2000), (50, 2000),
                                         (10_000, 1000)])
    def test_matches_direct_sampler(self, k, draws):
        # Same Wishart(sigma, k) / k law as k * n direct normals, for k < n and
        # k >= n: per-entry two-sample KS, means against sigma, and variances
        # against (sigma_ij^2 + sigma_ii sigma_jj) / k, both within 5 standard
        # errors estimated from the draws.  The KS gate is per entry over 50
        # entry tests, so it is set where the whole set rarely trips by chance.
        sigma = self.SIGMA
        upper = np.triu_indices(4)

        def direct_release(seed):
            samples = direct_gaussian_samples(sigma, k, seed)
            return (samples.T @ samples / k)[upper]

        bartlett = np.array([
            gaussian_sampling_mechanism(sigma, k, seed=(1, t)).sigma_hat.values[upper]
            for t in range(draws)
        ])
        direct = np.array([direct_release((2, t)) for t in range(draws)])
        for e in range(bartlett.shape[1]):
            assert stats.ks_2samp(bartlett[:, e], direct[:, e]).pvalue > 1e-4
        mean = bartlett.mean(axis=0)
        var = bartlett.var(axis=0)
        assert np.all(np.abs(mean - sigma[upper]) <= 5.0 * np.sqrt(var / draws))
        wishart_var = (sigma[upper] ** 2 + np.diag(sigma)[upper[0]] * np.diag(sigma)[upper[1]]) / k
        fourth = ((bartlett - mean) ** 4).mean(axis=0)
        var_se = np.sqrt((fourth - var ** 2) / draws)
        assert np.all(np.abs(bartlett.var(axis=0, ddof=1) - wishart_var) <= 5.0 * var_se)

    def test_variates_do_not_grow_with_k(self, monkeypatch):
        drawn = []

        def counted(draw):
            def wrapper(*args):
                out = draw(*args)
                drawn.append(out.size)
                return out
            return wrapper

        for name in ("standard_normals", "chi_squares"):
            monkeypatch.setattr(rng, name, counted(getattr(rng, name)))
        n = 4
        for k in (1, 2, 3, 10**3, 10**9):
            drawn.clear()
            gaussian_sampling_mechanism(SymMatrix.identity(n), k, seed=5)
            m = min(n, k)
            assert sum(drawn) == m * n - m * (m - 1) // 2


class TestUtilityRadius:
    def test_vanishes_for_huge_k(self):
        assert utility_radius(4, 0.1, 10**12, 1.0) < 1e-4

    def test_reference_value(self):
        mass = 16 + math.log(10.0)
        expected = math.sqrt(mass / 1e4) + mass / 1e4
        assert utility_radius(4, 0.1, 10_000, 1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.0446, abs=5e-5)

    def test_sqrt_scaling_when_leading_term_dominates(self):
        k = 10**10
        ratio = utility_radius(4, 0.1, 2 * k, 1.0) / utility_radius(4, 0.1, k, 1.0)
        assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.01 / math.sqrt(2.0)

    def test_param_validation(self):
        with pytest.raises(ParamRange):
            utility_radius(0, 0.1, 10, 1.0)
        with pytest.raises(ParamRange):
            utility_radius(4, 1.5, 10, 1.0)
        with pytest.raises(ParamRange):
            utility_radius(4, 0.1, 0, 1.0)
        with pytest.raises(ParamRange):
            utility_radius(4, 0.1, 10, 0.0)


class TestRequiredSamples:
    def test_definitional_minimality(self):
        for target in (0.5, 0.05, 0.004):
            k = required_samples(4, 0.05, target, 1.0)
            assert utility_radius(4, 0.05, k, 1.0) <= target
            if k > 1:
                assert utility_radius(4, 0.05, k - 1, 1.0) > target

    def test_huge_target_gives_one(self):
        at_one = utility_radius(4, 0.1, 1, 1.0)
        assert required_samples(4, 0.1, at_one + 1.0, 1.0) == 1

    def test_consistency_with_radius_example(self):
        target = utility_radius(4, 0.1, 10_000, 1.0)
        assert required_samples(4, 0.1, target, 1.0) == 10_000

    def test_param_validation(self):
        with pytest.raises(ParamRange):
            required_samples(4, 0.1, 0.0, 1.0)

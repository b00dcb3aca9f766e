import math

import numpy as np
import pytest
from scipy import stats

from dpattn import (
    NotPsd,
    mechanism,
    Overflow,
    ParamRange,
    SymMatrix,
    gaussian_sampling_mechanism,
    required_samples,
    rng,
    utility_radius,
)
from dpattn.mechanism import bartlett_factors
from helpers import (bartlett_block, direct_gaussian_samples, rand_orthogonal, rand_pd,
                     relative_frobenius_distance, whitened_eigenvalues, whitened_error)


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
        # the read-only zero release has the bits the SymMatrix constructor gives it
        for n in (1, 3, 4, 5, 33, 64):
            for k in (1, 2, 3, 10, 17, 1196713):
                out = gaussian_sampling_mechanism(SymMatrix(np.zeros((n, n))), k, (5, n))
                assert np.array_equal(out.sigma_hat, np.zeros((n, n)))
                assert not out.sigma_hat.flags.writeable
                assert out.sigma_hat.tobytes() == SymMatrix(out.sigma_hat).values.tobytes()
                assert out.whitened is None

    @pytest.mark.parametrize("k", [1, 5])
    def test_singular_fallback_law(self, k):
        # a rank-one sigma = v v^T fails the Cholesky floor; its eigh factor gives
        # the release s v v^T with s ~ chi2(k) / k, and no whitened release.  The
        # factor drops the eigenvalues that eigh returns at rounding size for the
        # zero ones, so the release is rank one up to the rounding of its products.
        v = np.array([1.0, -2.0, 0.5])
        sigma = SymMatrix(np.outer(v, v))
        scale = []
        for seed in range(2000):
            out = gaussian_sampling_mechanism(sigma, k, seed)
            assert out.whitened is None
            s = float(v @ out.sigma_hat @ v) / float(v @ v) ** 2
            assert np.abs(out.sigma_hat - s * sigma.values).max() <= 1e-12 * max(s, 1.0)
            scale.append(s)
        again = gaussian_sampling_mechanism(sigma, k, 7).sigma_hat
        assert again.tobytes() == gaussian_sampling_mechanism(sigma, k, 7).sigma_hat.tobytes()
        assert stats.kstest(np.array(scale) * k, stats.chi2(k).cdf).pvalue > 1e-4

    def test_rejects_indefinite(self):
        for k in (1, 5):
            with pytest.raises(NotPsd):
                gaussian_sampling_mechanism(SymMatrix(np.diag([1.0, -1.0])), k, seed=0)

    def test_single_sample_is_rank_one(self):
        out = gaussian_sampling_mechanism(SymMatrix(np.eye(2)), 1, seed=3)
        eigs = np.linalg.eigvalsh(out.sigma_hat)
        assert abs(eigs[0]) <= 1e-12
        assert np.linalg.matrix_rank(out.whitened) == 1

    def test_relative_error_at_large_k(self):
        out = gaussian_sampling_mechanism(SymMatrix(np.eye(2)), 100_000, seed=1)
        assert whitened_error(out) <= 0.1

    def test_deterministic_bit_identical(self):
        sigma = SymMatrix([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        for k in (2, 500):
            a = gaussian_sampling_mechanism(sigma, k, seed=9)
            b = gaussian_sampling_mechanism(sigma, k, seed=9)
            assert np.array_equal(a.sigma_hat, b.sigma_hat)
            assert np.array_equal(a.whitened, b.whitened)
            c = gaussian_sampling_mechanism(sigma, k, seed=10)
            assert not np.array_equal(a.sigma_hat, c.sigma_hat)

    def test_estimate_is_psd(self):
        gen = np.random.default_rng(12)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 50))
            sigma = SymMatrix(rand_pd(gen, n))
            out = gaussian_sampling_mechanism(sigma, k, seed=int(gen.integers(1000)))
            min_eig = np.linalg.eigvalsh(out.sigma_hat).min()
            assert min_eig >= -1e-12
            if k >= n:
                assert min_eig > 0.0

    def test_an_overflowing_release_is_rejected(self):
        # the release is the mechanism's own product, checked only for the double range
        with np.errstate(over="ignore"), pytest.raises(
                Overflow, match="^the release exceeds the double range$"):
            gaussian_sampling_mechanism(SymMatrix(np.diag([1e300, 1e300])), 10**10, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_release_warns_nothing(self):
        # numpy's RuntimeWarning used to reach stderr ahead of the Overflow
        with pytest.raises(Overflow, match="^the release exceeds the double range$"):
            gaussian_sampling_mechanism(SymMatrix(np.diag([1e300, 1e300])), 10**10, seed=1)

    @pytest.mark.parametrize("scale", [1.0, 1e-155, 1e150])
    def test_release_arrays_are_the_read_only_products(self, scale):
        # sigma_hat = (L T)(L T)^T / k and whitened = T T^T / k as numpy forms them:
        # exactly symmetric, read-only float64.  The SymMatrix constructor keeps every
        # bit of a normal-scale product; at subnormal scale its halving may round, and
        # the release keeps the product's own bits.  Near overflow it is rejected.
        rs = np.random.default_rng(7)
        for n in (1, 4, 5, 33, 64):
            sigma = SymMatrix(scale**2 * rand_pd(rs, n))
            for k in (1, 3, 17, 1196713):
                release = gaussian_sampling_mechanism(sigma, k, (5, n))
                factor = block_of(n, k, (5, n), 1)[0]
                root = sigma.cholesky @ factor
                for values, product in ((release.sigma_hat, root @ root.T / k),
                                        (release.whitened, factor @ factor.T / k)):
                    assert values.dtype == np.float64 and not values.flags.writeable
                    assert np.array_equal(values, values.T)
                    assert values.tobytes() == product.tobytes()
                assert release.whitened.tobytes() == SymMatrix(release.whitened).values.tobytes()
                if scale != 1e-155:
                    assert (release.sigma_hat.tobytes()
                            == SymMatrix(release.sigma_hat).values.tobytes())
            huge = SymMatrix(sigma.values / np.abs(sigma.values).max() * 1e300)
            # inf - inf inside the product is an invalid value on some BLAS kernels
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Overflow):
                gaussian_sampling_mechanism(huge, 10**10, 0)

    def test_k_must_be_positive(self):
        with pytest.raises(ParamRange):
            gaussian_sampling_mechanism(SymMatrix(np.eye(2)), 0, seed=0)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_must_be_an_integer(self, k):
        # 2.5 used to draw chi-square(2.5 - j) diagonals, and a bool a bare TypeError
        with pytest.raises(ParamRange, match="k must be an integer"):
            gaussian_sampling_mechanism(SymMatrix(np.eye(2)), k, seed=0)

    def test_unbiasedness(self):
        sigma = np.diag([2.0, 1.0])
        k = 1000
        estimates = np.array([
            gaussian_sampling_mechanism(SymMatrix(sigma), k, seed=s).sigma_hat
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
            whitened_error(gaussian_sampling_mechanism(SymMatrix(np.eye(3)), 100, seed=(1, t)))
            for t in range(500)
        ]
        errs_pd = [
            whitened_error(gaussian_sampling_mechanism(sigma, 100, seed=(2, t)))
            for t in range(500)
        ]
        assert stats.ks_2samp(errs_id, errs_pd).pvalue > 0.01


class TestRelFrobError:
    # the release whitened by sigma's Cholesky factor L is T T^T / k, so the
    # error is ||T T^T / k - I||_F and does not depend on sigma
    def conditioned(self, n, cond):
        q = rand_orthogonal(np.random.default_rng(4), n)
        return SymMatrix((q * np.geomspace(1.0, cond, n)) @ q.T)

    @pytest.mark.parametrize("k", [3, 50, 1_000_000])
    def test_independent_of_condition_number(self, k):
        errors = [
            whitened_error(gaussian_sampling_mechanism(self.conditioned(6, cond), k, seed=(7, k)))
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
                assert whitened_error(out) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 50, 1_000_000])
    def test_whitened_spectrum_matches_oracle(self, k):
        for cond in (1.0, 1e3):
            for seed in range(5):
                sigma = self.conditioned(6, cond)
                out = gaussian_sampling_mechanism(sigma, k, seed=seed)
                mu = np.linalg.eigvalsh(out.whitened)[::-1]
                oracle = whitened_eigenvalues(out.sigma_hat, sigma)
                assert np.abs(mu - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_whitened_is_none_exactly_when_error_is_nan(self):
        for floor, defined in ((1e-9, False), (2e-9, True)):
            out = gaussian_sampling_mechanism(SymMatrix(np.diag([1.0, floor])), 10, 0)
            assert (out.whitened is not None) is defined
            assert math.isfinite(whitened_error(out)) is defined

    def test_nan_at_the_singularity_floor(self):
        # the Cholesky floor: for a diagonal sigma the pivots are its entries, so an
        # entry at most 1e-9 times the largest
        assert gaussian_sampling_mechanism(SymMatrix(np.diag([1.0, 1e-9])), 10, 0).whitened is None
        assert math.isfinite(
            whitened_error(gaussian_sampling_mechanism(SymMatrix(np.diag([1.0, 2e-9])), 10, 0)))


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
            gaussian_sampling_mechanism(sigma, k, seed=(1, t)).sigma_hat[upper]
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

        class Counted:
            """A generator whose every draw records how many variates it returned."""

            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                draw = getattr(self.gen, name)

                def wrapper(*args, **kwargs):
                    out = draw(*args, **kwargs)
                    drawn.append(np.size(out))
                    return out
                return wrapper

        generator = rng.generator
        monkeypatch.setattr(rng, "generator", lambda entropy: Counted(generator(entropy)))
        n = 4
        for k in (1, 2, 3, 10**3, 10**9):
            drawn.clear()
            gaussian_sampling_mechanism(SymMatrix(np.eye(n)), k, seed=5)
            m = min(n, k)
            assert sum(drawn) == m * n - m * (m - 1) // 2

    def test_release_draws_by_scalar_calls(self, monkeypatch):
        # a release draws m scalar chi-squares and one normal block: no array-shaped
        # standard_gamma call, whose broadcast and checks cost more than the draws
        calls = []

        class Recorded:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                draw = getattr(self.gen, name)

                def wrapper(*args, **kwargs):
                    out = draw(*args, **kwargs)
                    calls.append((name, np.shape(out)))
                    return out
                return wrapper

        generator = rng.generator
        monkeypatch.setattr(rng, "generator", lambda entropy: Recorded(generator(entropy)))
        n = 5
        for k in (1, 2, 3, 5, 1_196_713):
            calls.clear()
            gaussian_sampling_mechanism(SymMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])), k, 3)
            m = min(n, k)
            gammas = [shape for name, shape in calls if name == "standard_gamma"]
            assert gammas == [()] * m
            assert len(calls) <= m + 1


def block_of(n, k, seed, trials):
    return np.concatenate(list(bartlett_factors(n, k, seed, trials)))


class TestBartlettFactors:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rows_of_one_block(self, n):
        # n = 3: three normals per trial, an odd count
        for k in (1, 2, n, 50):
            block = block_of(n, k, (2, 1), 7)
            assert block.tobytes() == bartlett_block(n, k, (2, 1), 7).tobytes()
            assert np.array_equal(block_of(n, k, (2, 1), 4), block[:4])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_trial_zero_is_the_release(self, n):
        # the release draws its factor by scalar calls and the block by array calls;
        # they are one stream, also at 1 < k < n (m = k) and on a non-identity covariance
        sigma = SymMatrix(rand_pd(np.random.default_rng(n), n))
        for k in sorted({1, 2, 3, n, 1_196_713}):
            factor = block_of(n, k, (4, 2), 3)[0]
            whitened = SymMatrix(factor @ factor.T / k).values
            release = gaussian_sampling_mechanism(SymMatrix(np.eye(n)), k, (4, 2))
            assert release.whitened.tobytes() == whitened.tobytes()
            assert release.sigma_hat.tobytes() == whitened.tobytes()
            release = gaussian_sampling_mechanism(sigma, k, (4, 2))
            root = sigma.cholesky @ factor
            assert release.whitened.tobytes() == whitened.tobytes()
            assert (release.sigma_hat.tobytes()
                    == SymMatrix(root @ root.T / k).values.tobytes())

    def test_layout_is_kept_read_only(self):
        diag, below, count = mechanism._bartlett_layout(5, 3)
        assert mechanism._bartlett_layout(5, 3)[1] is below
        assert diag.tolist() == [0, 1, 2] and count == 9
        assert np.array_equal(below, np.tri(5, 3, -1, dtype=bool))
        with pytest.raises(ValueError):
            diag[0] = 1
        with pytest.raises(ValueError):
            below[0, 0] = True

    @pytest.mark.parametrize("n,k,trials,name", [
        (0, 3, 2, "n"), (2.5, 3, 2, "n"), (3, 0, 2, "k"), (3, -2, 2, "k"), (3, 2.5, 2, "k"),
        (3, True, 2, "k"), (3, 5, -1, "trials"), (3, 5, 2.5, "trials"), (3, 5, True, "trials")])
    def test_counts_must_be_integers(self, n, k, trials, name):
        # k = 0 used to yield 3 x 0 factors, n = 0 end in a ZeroDivisionError, trials = -1
        # yield nothing and trials = 2.5 end in a bare TypeError
        with pytest.raises(ParamRange, match=f"{name} must be an integer"):
            list(bartlett_factors(n, k, 0, trials))

    def test_counts_checked_at_the_call(self):
        # checked before the first stack is drawn, not on the first next()
        with pytest.raises(ParamRange, match="n must be an integer"):
            bartlett_factors(0, 5, 1, 3)
        with pytest.raises(ParamRange, match="trials must be an integer"):
            bartlett_factors(3, 5, 1, -1)

    def test_zero_trials_yield_nothing(self):
        assert list(bartlett_factors(3, 5, 0, 0)) == []

    def test_stacks_bound_the_product(self, monkeypatch):
        monkeypatch.setattr(mechanism, "_BLOCK_ENTRIES", 2 * 9)
        stacks = list(bartlett_factors(3, 50, 1, 5))
        assert [s.shape for s in stacks] == [(2, 3, 3), (2, 3, 3), (1, 3, 3)]
        assert np.array_equal(np.concatenate(stacks), bartlett_block(3, 50, 1, 5))


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

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ParamRange):
            utility_radius(4, 0.1, 10, scale)

    @pytest.mark.parametrize("n,k,name", [(2.5, 10, "n"), (True, 10, "n"), (2, 2.5, "k"),
                                          (2, True, "k")])
    def test_counts_must_be_integers(self, n, k, name):
        # utility_radius(2.5, 0.05, 2.5, 1.0) used to return 5.62
        with pytest.raises(ParamRange, match=f"{name} must be an integer"):
            utility_radius(n, 0.05, k, 1.0)


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

    def test_n_must_be_an_integer(self):
        # its range check goes through utility_radius; 2.5 used to give 94,298
        with pytest.raises(ParamRange, match="n must be an integer"):
            required_samples(2.5, 0.05, 0.01, 1.0)

    @pytest.mark.parametrize("radius_target,scale", [
        (0.004, math.nan), (0.004, math.inf), (math.nan, 1.0)])
    def test_non_finite_inputs(self, radius_target, scale):
        with pytest.raises(ParamRange):
            required_samples(4, 0.05, radius_target, scale)

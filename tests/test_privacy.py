import math

import numpy as np
import pytest

from dpattn import (
    DimMismatch,
    ParamRange,
    SingularMatrix,
    SubExpParams,
    SymMatrix,
    dp_certificate,
    expected_privacy_loss,
    mc_privacy_verify,
    privacy_loss_sample,
    privacy_loss_samples,
    privacy_spectrum,
    sensitivity_budget,
    sub_exp_params,
    tail_bound,
    wilson_upper,
)
from helpers import rand_pd


class TestSensitivityBudget:
    def test_reference_values(self):
        budget = sensitivity_budget(0.1, 0.01, 100)
        log_inv = math.log(100.0)
        assert budget.loose == pytest.approx(
            min(0.1 / math.sqrt(8 * 100 * log_inv), 0.1 / (8 * log_inv)), rel=1e-15
        )
        assert budget.loose == pytest.approx(0.001647, abs=1e-6)
        assert budget.strict == pytest.approx(
            0.1 * min(0.1 / math.sqrt(100 * log_inv), 0.1 / log_inv), rel=1e-15
        )
        assert budget.strict == pytest.approx(0.000466, abs=1e-6)

    def test_linear_in_eps(self):
        small = sensitivity_budget(1e-6, 0.01, 100)
        assert small.loose < 1e-7 and small.strict < 1e-7

    def test_strict_never_exceeds_loose(self):
        gen = np.random.default_rng(31)
        for _ in range(200):
            eps = float(gen.uniform(1e-4, 0.999))
            delta = float(gen.uniform(1e-4, 0.999))
            k = int(gen.integers(1, 10**6))
            budget = sensitivity_budget(eps, delta, k)
            assert budget.strict <= budget.loose

    def test_param_validation(self):
        for eps, delta, k in ((0.0, 0.1, 1), (1.0, 0.1, 1), (0.1, 0.0, 1), (0.1, 0.1, 0)):
            with pytest.raises(ParamRange):
                sensitivity_budget(eps, delta, k)


class TestPrivacySpectrum:
    def test_equal_covariances(self):
        spec = privacy_spectrum(SymMatrix.identity(3), SymMatrix.identity(3))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert spec.deviation_frob <= 1e-12
        assert spec.inverse_deviation_frob <= 1e-12

    def test_scaled_identity(self):
        spec = privacy_spectrum(SymMatrix(2.0 * np.eye(2)), SymMatrix.identity(2))
        assert np.allclose(spec.eigenvalues, [2.0, 2.0])

    def test_diagonal(self):
        spec = privacy_spectrum(SymMatrix.diagonal([1.1, 0.9]), SymMatrix.identity(2))
        assert np.allclose(spec.eigenvalues, [1.1, 0.9], atol=1e-12)

    def test_swap_gives_reciprocals(self):
        gen = np.random.default_rng(37)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            s1 = SymMatrix(rand_pd(gen, n))
            s2 = SymMatrix(rand_pd(gen, n))
            fwd = privacy_spectrum(s1, s2).eigenvalues
            rev = privacy_spectrum(s2, s1).eigenvalues
            assert np.abs(np.sort(fwd) - np.sort(1.0 / rev)).max() <= 1e-8

    def test_frobenius_identities_vs_independent_norms(self):
        gen = np.random.default_rng(41)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            s1, s2 = rand_pd(gen, n), rand_pd(gen, n)
            spec = privacy_spectrum(SymMatrix(s1), SymMatrix(s2))
            lam = spec.eigenvalues
            # independent route: plain numpy eigendecomposition square roots
            w2, v2 = np.linalg.eigh(s2)
            inv_root2 = (v2 / np.sqrt(w2)) @ v2.T
            w1, v1 = np.linalg.eigh(s1)
            root1 = (v1 * np.sqrt(w1)) @ v1.T
            comparison = root1 @ inv_root2 @ inv_root2 @ root1
            dev = np.linalg.norm(comparison - np.eye(n))
            inv_dev = np.linalg.norm(np.eye(n) - np.linalg.inv(comparison))
            sum_dev = ((lam - 1.0) ** 2).sum()
            sum_inv = ((1.0 - 1.0 / lam) ** 2).sum()
            assert abs(spec.deviation_frob**2 - sum_dev) <= 1e-9 * max(1.0, sum_dev)
            assert abs(spec.inverse_deviation_frob**2 - sum_inv) <= 1e-9 * max(1.0, sum_inv)
            assert spec.deviation_frob == pytest.approx(dev, rel=1e-7, abs=1e-10)
            assert spec.inverse_deviation_frob == pytest.approx(inv_dev, rel=1e-7, abs=1e-10)

    def test_singular_input(self):
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix.diagonal([1.0, 0.0]), SymMatrix.identity(2))
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix.identity(2), SymMatrix.diagonal([1.0, 0.0]))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            privacy_spectrum(SymMatrix.identity(2), SymMatrix.identity(3))


class TestExpectedPrivacyLoss:
    def test_zero_at_identity_spectrum(self):
        spec = privacy_spectrum(SymMatrix.identity(4), SymMatrix.identity(4))
        assert expected_privacy_loss(spec, 100) <= 1e-10

    def test_closed_form_oracle(self):
        spec = privacy_spectrum(SymMatrix.diagonal([1.1, 0.9]), SymMatrix.identity(2))
        expected = 5.0 * ((1.1 - 1.0 - math.log(1.1)) + (0.9 - 1.0 - math.log(0.9)))
        got = expected_privacy_loss(spec, 10)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.05025, abs=1e-5)

    def test_linear_in_k(self):
        spec = privacy_spectrum(SymMatrix.diagonal([1.2, 0.8]), SymMatrix.identity(2))
        assert expected_privacy_loss(spec, 20) == pytest.approx(
            2.0 * expected_privacy_loss(spec, 10), rel=1e-15
        )

    def test_non_negative(self):
        gen = np.random.default_rng(43)
        for _ in range(50):
            lam = gen.uniform(0.3, 3.0, int(gen.integers(1, 6)))
            spec = privacy_spectrum(SymMatrix.diagonal(lam), SymMatrix.identity(lam.size))
            assert expected_privacy_loss(spec, int(gen.integers(1, 100))) >= 0.0


class TestPrivacyLossSample:
    def test_identity_pair_is_exactly_zero(self):
        for seed in (0, 1, 77):
            z = privacy_loss_sample(SymMatrix.identity(3), SymMatrix.identity(3), 10, seed)
            assert z == 0.0

    def test_general_equal_pair_is_negligible(self):
        gen = np.random.default_rng(47)
        sigma = SymMatrix(rand_pd(gen, 3))
        assert abs(privacy_loss_sample(sigma, sigma, 20, seed=5)) <= 1e-9

    def test_zero_draws(self):
        assert privacy_loss_sample(SymMatrix.diagonal([1.3, 1.0]), SymMatrix.identity(2), 0, 0) == 0.0

    def test_reproducible(self):
        s1 = SymMatrix.diagonal([1.2, 0.9])
        s2 = SymMatrix.identity(2)
        assert privacy_loss_sample(s1, s2, 30, 11) == privacy_loss_sample(s1, s2, 30, 11)

    def test_monte_carlo_mean_matches_closed_form(self):
        gen = np.random.default_rng(53)
        for trial in range(3):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(5, 50))
            lam = gen.uniform(0.85, 1.2, n)
            s1 = SymMatrix.diagonal(lam)
            s2 = SymMatrix.identity(n)
            samples = privacy_loss_samples(s1, s2, k, trials=20_000, seed=trial)
            spec = privacy_spectrum(s1, s2)
            mean = expected_privacy_loss(spec, k)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - mean) <= 4.0 * se


class TestSubExpParams:
    def test_identity_spectrum(self):
        spec = privacy_spectrum(SymMatrix.identity(2), SymMatrix.identity(2))
        params = sub_exp_params(spec, 50)
        assert params.nu <= 1e-12 and params.alpha_se <= 1e-12 and params.mean <= 1e-12

    def test_reference_values(self):
        spec = privacy_spectrum(SymMatrix.diagonal([1.1, 0.9]), SymMatrix.identity(2))
        params = sub_exp_params(spec, 100)
        assert params.nu == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert params.alpha_se == pytest.approx(2.0 * math.sqrt(0.02), rel=1e-10)

    def test_fixed_ratio(self):
        gen = np.random.default_rng(59)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 200))
            lam = gen.uniform(0.7, 1.4, n)
            spec = privacy_spectrum(SymMatrix.diagonal(lam), SymMatrix.identity(n))
            params = sub_exp_params(spec, k)
            assert params.nu / params.alpha_se == pytest.approx(math.sqrt(k) / 2.0, rel=1e-12)


class TestTailBound:
    def test_approaches_one_for_tiny_t(self):
        params = SubExpParams(nu=1.0, alpha_se=1.0, mean=0.0)
        assert tail_bound(params, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        params = SubExpParams(nu=1.0, alpha_se=1.0, mean=0.0)
        assert tail_bound(params, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_monotone_decreasing(self):
        params = SubExpParams(nu=0.7, alpha_se=0.4, mean=0.0)
        grid = [tail_bound(params, t) for t in np.linspace(0.01, 5.0, 50)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_degenerate_point_mass(self):
        assert tail_bound(SubExpParams(nu=0.0, alpha_se=0.0, mean=0.0), 0.5) == 0.0

    def test_requires_positive_t(self):
        with pytest.raises(ParamRange):
            tail_bound(SubExpParams(nu=1.0, alpha_se=1.0, mean=0.0), 0.0)


class TestDpCertificate:
    def test_equal_pair_granted(self):
        cert = dp_certificate(SymMatrix.identity(3), SymMatrix.identity(3), 0.5, 0.05, 50)
        assert cert.granted
        assert cert.denial_reasons == ()

    def test_sensitivity_exceeded(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        budget = sensitivity_budget(eps, delta, k)
        delta_used = min(budget.loose, budget.strict)
        lam = 1.0 + 1.01 * delta_used / math.sqrt(n)
        cert = dp_certificate(
            SymMatrix.diagonal([lam] * n), SymMatrix.identity(n), eps, delta, k
        )
        assert not cert.granted
        assert "SensitivityExceeded" in cert.denial_reasons

    def test_granted_implies_low_empirical_rate(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        budget = sensitivity_budget(eps, delta, k)
        delta_used = min(budget.loose, budget.strict)
        lam = 1.0 + 0.999 * delta_used / math.sqrt(n)
        s1 = SymMatrix.diagonal([lam] * n)
        s2 = SymMatrix.identity(n)
        cert = dp_certificate(s1, s2, eps, delta, k)
        assert cert.granted
        mc = mc_privacy_verify(s1, s2, k, eps, trials=2000, seed=0)
        assert mc.empirical_rate <= delta


class TestMcPrivacyVerify:
    def test_equal_pair_rate_zero(self):
        mc = mc_privacy_verify(SymMatrix.identity(2), SymMatrix.identity(2), 20, 0.1, 1000, 0)
        assert mc.empirical_rate == 0.0
        assert mc.wilson_upper < 0.01

    def test_large_separation_rate_one(self):
        mc = mc_privacy_verify(
            SymMatrix.diagonal([4.0, 4.0]), SymMatrix.identity(2), 50, 0.1, 1000, 0
        )
        assert mc.empirical_rate == 1.0

    def test_minimum_trials_enforced(self):
        with pytest.raises(ParamRange):
            mc_privacy_verify(SymMatrix.identity(2), SymMatrix.identity(2), 10, 0.1, 999, 0)


class TestWilsonUpper:
    def test_zero_successes_large_n(self):
        assert wilson_upper(0, 100_000) <= 1e-4

    def test_monotone_in_successes(self):
        values = [wilson_upper(s, 1000) for s in (0, 1, 5, 50, 500)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_upper_bounds_the_rate(self):
        for s, n in ((0, 1000), (13, 1000), (990, 1000)):
            assert wilson_upper(s, n) >= s / n


def _boundary_spectrum(gen, n, target):
    """Eigenvalues 1 + c*u with max of the two Frobenius deviations == target."""
    u = gen.standard_normal(n)
    u /= np.linalg.norm(u)

    def worst(c):
        lam = 1.0 + c * u
        return max(
            math.sqrt(((lam - 1.0) ** 2).sum()), math.sqrt(((1.0 - 1.0 / lam) ** 2).sum())
        )

    lo, hi = 0.0, 2.0 * target
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if worst(mid) < target:
            lo = mid
        else:
            hi = mid
    return 1.0 + hi * u


class TestMeanBoundAtBudgetBoundary:
    def test_mean_within_half_eps(self):
        gen = np.random.default_rng(61)
        for _ in range(200):
            n = int(gen.integers(2, 7))
            eps = float(gen.uniform(0.01, 0.999))
            delta = float(gen.uniform(0.001, 0.0999))
            k = int(gen.integers(1, 1000))
            budget = sensitivity_budget(eps, delta, k)
            delta_used = min(budget.loose, budget.strict)
            lam = _boundary_spectrum(gen, n, delta_used)
            spec = privacy_spectrum(SymMatrix.diagonal(lam), SymMatrix.identity(n))
            assert spec.deviation_frob <= delta_used * (1 + 1e-9)
            assert spec.inverse_deviation_frob <= delta_used * (1 + 1e-9)
            assert expected_privacy_loss(spec, k) <= eps / 2.0


class TestEmpiricalTailDomination:
    def test_survival_below_bound(self):
        gen = np.random.default_rng(67)
        n, k = 3, 40
        eps, delta = 0.5, 0.05
        budget = sensitivity_budget(eps, delta, k)
        delta_used = min(budget.loose, budget.strict)
        lam = _boundary_spectrum(gen, n, delta_used)
        s1 = SymMatrix.diagonal(lam)
        s2 = SymMatrix.identity(n)
        spec = privacy_spectrum(s1, s2)
        params = sub_exp_params(spec, k)
        samples = privacy_loss_samples(s1, s2, k, trials=5000, seed=3)
        centered = samples - params.mean
        for t in np.linspace(0.2, 3.0, 12) * params.nu:
            survival = float((centered > t).mean())
            bound = tail_bound(params, float(t))
            se = math.sqrt(max(survival * (1 - survival), 1e-12) / samples.size)
            assert survival <= bound + 3.0 * se

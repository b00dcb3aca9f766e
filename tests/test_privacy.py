import math

import numpy as np
import pytest
from scipy import stats

from dpattn import (
    Dataset,
    NeighborPair,
    ParamRange,
    PrivacySpectrum,
    SingularMatrix,
    SymMatrix,
    dataset,
    dp_certificate,
    expected_privacy_loss,
    generate_good_dataset,
    make_neighbor,
    neighbor_spectrum,
    privacy_loss_samples,
    rng,
    sensitivity_budget,
    tail_bound,
    verify_neighbor_privacy,
    wilson_upper,
)
from dpattn.cli import read_matrix_csv, write_matrix_csv
from helpers import direct_loss_samples, gram_of, privacy_spectrum, rand_orthogonal, rand_pd


class TestSensitivityBudget:
    def test_reference_values(self):
        budget = sensitivity_budget(0.1, 0.01, 100)
        log_inv = math.log(100.0)
        assert budget == pytest.approx(
            0.1 * min(0.1 / math.sqrt(100 * log_inv), 0.1 / log_inv), rel=1e-15
        )
        assert budget == pytest.approx(0.000466, abs=1e-6)

    def test_linear_in_eps(self):
        assert sensitivity_budget(1e-6, 0.01, 100) < 1e-7

    def test_strict_never_exceeds_loose(self):
        # the budget is no looser than the 1/sqrt(8k log(1/delta)) and
        # 1/(8 log(1/delta)) calibration, since 0.1 < 1/sqrt(8) and 0.1 < 1/8
        gen = np.random.default_rng(31)
        for _ in range(200):
            eps = float(gen.uniform(1e-4, 0.999))
            delta = float(gen.uniform(1e-4, 0.999))
            k = int(gen.integers(1, 10**6))
            log_inv = math.log(1.0 / delta)
            loose = min(eps / math.sqrt(8.0 * k * log_inv), eps / (8.0 * log_inv))
            assert sensitivity_budget(eps, delta, k) <= loose

    def test_param_validation(self):
        for eps, delta, k in ((0.0, 0.1, 1), (1.0, 0.1, 1), (0.1, 0.0, 1), (0.1, 0.1, 0)):
            with pytest.raises(ParamRange):
                sensitivity_budget(eps, delta, k)


NON_INTEGER_KS = [2.5, 50.0, True, np.float64(50.0), math.nan]


@pytest.mark.parametrize("k", NON_INTEGER_KS)
def test_k_must_be_an_integer(k):
    # every function of this module that takes the sample count
    spec = PrivacySpectrum(np.array([1.1, 0.9]))
    for call in (lambda: sensitivity_budget(0.05, 0.01, k),
                 lambda: expected_privacy_loss(spec, k),
                 lambda: tail_bound(spec, k, 0.025),
                 lambda: privacy_loss_samples(spec, k, 10, 0),
                 lambda: dp_certificate(spec, 0.05, 0.01, k)):
        with pytest.raises(ParamRange):
            call()


def test_numpy_integer_k_gives_the_same_bits():
    spec = PrivacySpectrum(np.array([1.1, 0.9]))
    assert sensitivity_budget(0.05, 0.01, np.int64(50)) == sensitivity_budget(0.05, 0.01, 50)
    assert np.array_equal(privacy_loss_samples(spec, np.int64(50), 10, 0),
                          privacy_loss_samples(spec, 50, 10, 0))


@pytest.mark.parametrize("trials", [1000.5, 10.0, True])
def test_trials_must_be_an_integer(trials):
    spec = PrivacySpectrum(np.array([1.1, 0.9]))
    with pytest.raises(ParamRange):
        privacy_loss_samples(spec, 50, trials, 0)


class TestPrivacySpectrum:
    def test_equal_covariances(self):
        spec = privacy_spectrum(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert spec.deviation_frob <= 1e-12
        assert spec.reverse.deviation_frob <= 1e-12

    def test_scaled_identity(self):
        spec = privacy_spectrum(SymMatrix(2.0 * np.eye(2)), SymMatrix(np.eye(2)))
        assert np.allclose(spec.eigenvalues, [2.0, 2.0])

    def test_diagonal(self):
        spec = privacy_spectrum(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)))
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
            assert abs(spec.reverse.deviation_frob**2 - sum_inv) <= 1e-9 * max(1.0, sum_inv)
            assert spec.deviation_frob == pytest.approx(dev, rel=1e-7, abs=1e-10)
            assert spec.reverse.deviation_frob == pytest.approx(inv_dev, rel=1e-7, abs=1e-10)

    def test_singular_input(self):
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.eye(2)))
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.0])))

    def test_near_singular_first_input(self):
        # sigma1's smallest eigenvalue lies below the 1e-9 relative floor
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix(np.diag([1.0, 1e-10])), SymMatrix(np.eye(2)))

    def test_singularity_floor_is_scale_relative(self):
        gen = np.random.default_rng(43)
        s1, s2 = rand_pd(gen, 3), rand_pd(gen, 3)
        reference = privacy_spectrum(SymMatrix(s1), SymMatrix(s2)).eigenvalues
        for c in (1.0, 1e-8, 1e-10):
            lam = privacy_spectrum(SymMatrix(c * s1), SymMatrix(c * s2)).eigenvalues
            assert np.allclose(lam, reference, rtol=1e-12, atol=0.0)
            with pytest.raises(SingularMatrix):
                privacy_spectrum(SymMatrix(np.diag([c, 1e-10 * c])), SymMatrix(c * np.eye(2)))

    def test_dim_mismatch(self):
        with pytest.raises(ParamRange):
            privacy_spectrum(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))

    def test_floor_is_relative_to_one_or_the_largest(self):
        # the smallest eigenvalue must exceed 1e-9 * max(1, largest)
        for lam in ([2.0, 1e-10], [1e-10], [1e3, 1e-6]):
            with pytest.raises(SingularMatrix):
                PrivacySpectrum(np.array(lam))
        PrivacySpectrum(np.array([1e3, 2e-6]))

    @pytest.mark.parametrize("lam", [[np.nan, 1.0], [np.inf], [1.0, -np.inf]])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(ParamRange):
            PrivacySpectrum(np.array(lam))

    @pytest.mark.filterwarnings("error")
    def test_huge_entry_is_below_the_floor(self):
        # whitening does not overflow, and 1 lies below 1e-9 * 1e308
        with pytest.raises(SingularMatrix):
            privacy_spectrum(SymMatrix(np.diag([1e308, 1.0])), SymMatrix(np.eye(2)))

    def test_reverse_is_the_reciprocal_spectrum(self):
        gen = np.random.default_rng(47)
        for n in (1, 2, 5):
            lam = np.sort(gen.uniform(0.1, 10.0, n))[::-1]
            rev = PrivacySpectrum(lam).reverse.eigenvalues
            assert rev.tobytes() == (1.0 / lam[::-1]).tobytes()


class TestExpectedPrivacyLoss:
    def test_zero_at_identity_spectrum(self):
        spec = privacy_spectrum(SymMatrix(np.eye(4)), SymMatrix(np.eye(4)))
        assert expected_privacy_loss(spec, 100) <= 1e-10

    def test_closed_form_oracle(self):
        spec = privacy_spectrum(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)))
        expected = 5.0 * ((1.1 - 1.0 - math.log(1.1)) + (0.9 - 1.0 - math.log(0.9)))
        got = expected_privacy_loss(spec, 10)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.05025, abs=1e-5)

    def test_linear_in_k(self):
        spec = privacy_spectrum(SymMatrix(np.diag([1.2, 0.8])), SymMatrix(np.eye(2)))
        assert expected_privacy_loss(spec, 20) == pytest.approx(
            2.0 * expected_privacy_loss(spec, 10), rel=1e-15
        )

    def test_non_negative(self):
        gen = np.random.default_rng(43)
        for _ in range(50):
            lam = gen.uniform(0.3, 3.0, int(gen.integers(1, 6)))
            spec = privacy_spectrum(SymMatrix(np.diag(lam)), SymMatrix(np.eye(lam.size)))
            assert expected_privacy_loss(spec, int(gen.integers(1, 100))) >= 0.0


def diagonal_spectrum(lam):
    return privacy_spectrum(SymMatrix(np.diag(lam)), SymMatrix(np.eye(len(lam))))


def neighbor_pairs(n, beta, tmp_path):
    """An inline pair (``make_neighbor``) and a ``perturbed_csv`` pair (column ``n``
    moved by ``beta``, written and read back), each in both orderings."""
    data = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=3)
    moved = data.x.copy()
    moved[0, n] += beta
    write_matrix_csv(tmp_path / "perturbed.csv", moved)
    pairs = [make_neighbor(data, beta=beta, index=1, seed=5),
             NeighborPair(base=data, perturbed=read_matrix_csv(tmp_path / "perturbed.csv"),
                          beta=beta, index=n)]
    return pairs + [
        NeighborPair(base=Dataset(x=p.perturbed, eta=0.009, alpha=0.12), perturbed=p.base.x,
                     beta=beta, index=p.index)
        for p in pairs
    ]


class TestNeighborSpectrum:
    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    @pytest.mark.parametrize("beta", [1e-4, 1e-8])
    def test_matches_general_route(self, tmp_path, n, beta):
        # the general route's own eigensolver error sets the tolerance
        tol = 32 * n * np.finfo(float).eps
        for pair in neighbor_pairs(n, beta, tmp_path):
            fast = neighbor_spectrum(pair).eigenvalues
            full = privacy_spectrum(pair.base.gram_matrix, gram_of(pair.perturbed)).eigenvalues
            assert fast.shape == (2,)
            assert np.abs(fast - full[[0, -1]]).max() <= tol
            assert np.abs(full[1:-1] - 1.0).max() <= tol
            assert fast[0] - 1.0 > 10 * tol and 1.0 - fast[1] > 10 * tol

    def test_small_n_keeps_every_eigenvalue(self):
        for n in (1, 2):
            data = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=3)
            pair = make_neighbor(data, beta=1e-3, index=n, seed=5)
            fast = neighbor_spectrum(pair).eigenvalues
            full = privacy_spectrum(pair.base.gram_matrix, gram_of(pair.perturbed)).eigenvalues
            assert fast.shape == (n,)
            assert np.abs(fast - full).max() <= 1e-14

    def test_identical_pair_is_all_ones(self):
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=3)
        pair = NeighborPair(base=data, perturbed=data.x, beta=0.001, index=2)
        spec = neighbor_spectrum(pair)
        assert spec.eigenvalues.tolist() == [1.0, 1.0]
        assert np.all(privacy_loss_samples(spec, 50, 1000, 3) == 0.0)

    def test_whitens_by_the_base_gram(self, monkeypatch):
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=3)
        pair = make_neighbor(data, beta=1e-3, index=2, seed=5)
        whitened_by = []
        rank_two = dataset.rank_two_eigenvalues
        monkeypatch.setattr(dataset, "rank_two_eigenvalues",
                            lambda b, y, e: whitened_by.append(b) or rank_two(b, y, e))
        lam = neighbor_spectrum(pair).eigenvalues
        assert len(whitened_by) == 1 and whitened_by[0] is data.gram_matrix
        mu = rank_two(data.gram_matrix, data.column(2), pair.perturbed[:, 2] - data.column(2))
        assert lam.tolist() == (1.0 / (1.0 + mu))[::-1].tolist()

    def test_singular_perturbed_gram_raises(self):
        # exactly singular: 1 + mu is 0
        data = generate_good_dataset(2, 2, eta=0.01, alpha=0.11, seed=1)
        perturbed = data.x.copy()
        perturbed[:, 0] = 0.0
        pairs = [NeighborPair(base=data, perturbed=perturbed, beta=0.2, index=0)]
        # singular up to rounding in a rotated basis: 1 + mu is -4e-16
        q = 0.1 * rand_orthogonal(np.random.default_rng(5), 3)
        data = Dataset(x=q, eta=0.01 - 1e-12, alpha=0.11)
        perturbed = q.copy()
        perturbed[:, 0] = (q[:, 1] + q[:, 2]) / np.sqrt(2.0)
        pairs.append(NeighborPair(base=data, perturbed=perturbed, beta=0.2, index=0))
        for pair in pairs:
            with pytest.raises(SingularMatrix):
                privacy_spectrum(pair.base.gram_matrix, gram_of(pair.perturbed))
            with pytest.raises(SingularMatrix):
                neighbor_spectrum(pair)


class TestPrivacyLossSample:
    def test_identity_pair_is_exactly_zero(self):
        spec = privacy_spectrum(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)))
        for seed in (0, 1, 77):
            assert np.all(privacy_loss_samples(spec, 10, 100, seed) == 0.0)

    def test_general_equal_pair_is_negligible(self):
        gen = np.random.default_rng(47)
        sigma = SymMatrix(rand_pd(gen, 3))
        spec = privacy_spectrum(sigma, sigma)
        assert np.abs(privacy_loss_samples(spec, 20, 100, seed=5)).max() <= 1e-9

    def test_zero_draws(self):
        spec = diagonal_spectrum([1.3, 1.0])
        assert np.all(privacy_loss_samples(spec, 0, 100, 0) == 0.0)

    def test_reproducible(self):
        spec = diagonal_spectrum([1.2, 0.9])
        assert np.array_equal(privacy_loss_samples(spec, 30, 100, 11),
                              privacy_loss_samples(spec, 30, 100, 11))

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_column_sum_is_the_row_sum(self, m):
        # in-order column sums give the bits of numpy's row sum up to 7 eigenvalues
        spec = PrivacySpectrum(np.sort(np.random.default_rng(m).uniform(0.8, 1.2, m))[::-1])
        lam, k, trials, seed = spec.eigenvalues, 50, 2000, 11
        entropy = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
        chi = rng.chi_squares(k, (trials, m), rng.generator(entropy))
        rows = 0.5 * ((chi * (lam - 1.0)).sum(axis=1) - k * float(np.log(lam).sum()))
        got = privacy_loss_samples(spec, k, trials, seed)
        assert got.tobytes() == rows.tobytes()

    def test_longer_run_extends_shorter(self):
        spec = diagonal_spectrum([1.2, 0.9, 1.05])
        for m in (0, 1, 7, 500):
            assert np.array_equal(privacy_loss_samples(spec, 30, 1000, 11)[:m],
                                  privacy_loss_samples(spec, 30, m, 11))

    def test_monte_carlo_mean_matches_closed_form(self):
        gen = np.random.default_rng(53)
        ks = [int(gen.integers(5, 50)) for _ in range(3)] + [1_196_713]
        for trial, k in enumerate(ks):
            n = int(gen.integers(2, 6))
            spec = diagonal_spectrum(gen.uniform(0.85, 1.2, n))
            samples = privacy_loss_samples(spec, k, trials=20_000, seed=trial)
            mean = expected_privacy_loss(spec, k)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - mean) <= 4.0 * se

    def test_matches_direct_normal_sampler(self):
        # Same distribution as drawing k*n normals per trial, and the
        # closed-form variance (k/2) * sum (lam - 1)^2 = nu^2 / 2.
        for seed, k, lam in ((1, 5, [1.3, 0.8]), (2, 20, [1.1, 0.9, 1.15, 0.95]),
                             (3, 50, [0.85, 1.2, 1.02])):
            spec = diagonal_spectrum(lam)
            fast = privacy_loss_samples(spec, k, 20_000, seed)
            direct = direct_loss_samples(spec.eigenvalues, k, 20_000, seed)
            assert stats.ks_2samp(fast, direct).pvalue > 1e-3
            variance = 0.5 * k * spec.deviation_frob ** 2
            assert fast.var(ddof=1) / variance == pytest.approx(1.0, abs=0.03)


class TestSubExpParams:
    """The parameters ``nu = sqrt(k) F`` and ``alpha = 2 F`` that :func:`tail_bound`
    derives from a spectrum's Frobenius deviation ``F``."""

    def test_identity_spectrum(self):
        spec = privacy_spectrum(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)))
        assert spec.deviation_frob <= 1e-12 and expected_privacy_loss(spec, 50) <= 1e-12
        assert tail_bound(spec, 50, 1e-6) <= 1e-12

    def test_reference_values(self):
        # nu = sqrt(2) sets the bound at t = 1, alpha = 2 sqrt(0.02) at t = 10
        spec = privacy_spectrum(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)))
        assert tail_bound(spec, 100, 1.0) == pytest.approx(math.exp(-1.0 / 4.0), rel=1e-10)
        assert tail_bound(spec, 100, 10.0) == pytest.approx(
            math.exp(-10.0 / (4.0 * math.sqrt(0.02))), rel=1e-10)

    def test_fixed_ratio(self):
        # nu / alpha = sqrt(k) / 2, so at t = c k F the bound is
        # exp(-k min(c^2 / 2, c / 4)) whatever the spectrum
        gen = np.random.default_rng(59)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 200))
            lam = gen.uniform(0.7, 1.4, n)
            spec = privacy_spectrum(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)))
            for c in (0.25, 0.5, 1.0):
                t = c * k * spec.deviation_frob
                assert tail_bound(spec, k, t) == pytest.approx(
                    math.exp(-k * min(c * c / 2.0, c / 4.0)), rel=1e-12)


class TestTailBound:
    # PrivacySpectrum([1.5]) at k = 4 has nu = alpha = 1
    def test_approaches_one_for_tiny_t(self):
        assert tail_bound(PrivacySpectrum([1.5]), 4, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        assert tail_bound(PrivacySpectrum([1.5]), 4, 2.0) == pytest.approx(math.exp(-1.0),
                                                                          rel=1e-12)

    def test_monotone_decreasing(self):
        spec = PrivacySpectrum([1.2, 0.9])
        grid = [tail_bound(spec, 7, t) for t in np.linspace(0.01, 5.0, 50)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_degenerate_point_mass(self):
        assert tail_bound(PrivacySpectrum([1.0, 1.0]), 4, 0.5) == 0.0
        assert tail_bound(PrivacySpectrum([1.5]), 0, 0.5) == 0.0

    def test_requires_positive_t(self):
        for t in (0.0, math.nan):
            with pytest.raises(ParamRange):
                tail_bound(PrivacySpectrum([1.5]), 4, t)
        with pytest.raises(ParamRange):
            tail_bound(PrivacySpectrum([1.5]), -1, 0.5)


class TestDpCertificate:
    def test_equal_pair_granted(self):
        spec = privacy_spectrum(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)))
        cert = dp_certificate(spec, 0.5, 0.05, 50)
        assert cert.granted
        assert [c.name for c in cert.checks] == ["sensitivity", "mean", "tail"]
        assert all(c.passed for c in cert.checks)

    def test_sensitivity_exceeded(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        delta_used = sensitivity_budget(eps, delta, k)
        lam = 1.0 + 1.01 * delta_used / math.sqrt(n)
        cert = dp_certificate(diagonal_spectrum([lam] * n), eps, delta, k)
        assert not cert.granted
        assert [c.name for c in cert.checks if not c.passed] == ["sensitivity"]

    def test_both_orderings_checked(self):
        # lam < 1 keeps (diag(lam), I) inside the budget, but the swapped pair
        # has spectrum 1/lam, whose deviation exceeds it; neighboring is
        # symmetric, so both orderings must be denied with the same report.
        eps, delta, k, n = 0.5, 0.05, 50, 2
        budget = sensitivity_budget(eps, delta, k)
        lam = 1.0 - 0.999 * budget / math.sqrt(n)
        fwd = privacy_spectrum(SymMatrix(np.diag([lam] * n)), SymMatrix(np.eye(n)))
        rev = privacy_spectrum(SymMatrix(np.eye(n)), SymMatrix(np.diag([lam] * n)))
        assert fwd.deviation_frob <= budget < rev.deviation_frob
        certs = [dp_certificate(spec, eps, delta, k) for spec in (fwd, rev)]
        for cert in certs:
            assert not cert.granted
            assert [c.name for c in cert.checks if not c.passed] == ["sensitivity"]
            assert cert.checks[0].measured == pytest.approx(rev.deviation_frob, rel=1e-12)
        assert certs[0].checks[1].measured == pytest.approx(certs[1].checks[1].measured,
                                                            rel=1e-9)

    @pytest.mark.parametrize("scale,granted", [
        (0.0, True), (0.999, True), (1.01, False), (-0.999, False), (1000.0, False)])
    def test_granted_is_all_checks(self, scale, granted):
        # the spectra above: lam at 1, inside and past the budget, below 1 (whose
        # reverse exceeds it), and far past it
        eps, delta, k, n = 0.5, 0.05, 50, 2
        lam = 1.0 + scale * sensitivity_budget(eps, delta, k) / math.sqrt(n)
        cert = dp_certificate(diagonal_spectrum([lam] * n), eps, delta, k)
        assert cert.granted is all(c.passed for c in cert.checks) is granted
        for check, required in zip(cert.checks, (sensitivity_budget(eps, delta, k),
                                                 eps / 2.0, delta)):
            assert check.required == required and not check.warning_only
            assert check.passed == (check.measured <= check.required)

    def test_granted_implies_low_empirical_rate(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        delta_used = sensitivity_budget(eps, delta, k)
        lam = 1.0 + 0.999 * delta_used / math.sqrt(n)
        spec = diagonal_spectrum([lam] * n)
        cert = dp_certificate(spec, eps, delta, k)
        assert cert.granted
        losses = privacy_loss_samples(spec, k, trials=2000, seed=0)
        assert (losses > eps).mean() <= delta


class TestMcPrivacyVerify:
    """The Monte-Carlo exceedance count of ``Z > eps`` and its Wilson bound."""

    def test_equal_pair_rate_zero(self):
        spec = privacy_spectrum(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)))
        exceed = int((privacy_loss_samples(spec, 20, 1000, 0) > 0.1).sum())
        assert exceed == 0
        assert wilson_upper(exceed, 1000) < 0.01

    def test_large_separation_rate_one(self):
        losses = privacy_loss_samples(diagonal_spectrum([4.0, 4.0]), 50, 1000, 0)
        assert (losses > 0.1).all()

    def test_minimum_trials_enforced(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=2.0, seed=3)
        pair = make_neighbor(data, beta=0.1, index=1, seed=4)
        with pytest.raises(ParamRange):
            verify_neighbor_privacy(pair, eps=0.1, delta=0.01, k=10, trials=999, seed=0)


class TestWilsonUpper:
    def test_zero_successes_large_n(self):
        assert wilson_upper(0, 100_000) <= 1e-4

    def test_monotone_in_successes(self):
        values = [wilson_upper(s, 1000) for s in (0, 1, 5, 50, 500)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_upper_bounds_the_rate(self):
        for s, n in ((0, 1000), (13, 1000), (990, 1000)):
            assert wilson_upper(s, n) >= s / n

    @pytest.mark.parametrize("successes,trials,name", [
        (1.5, 10, "successes"), (True, 10, "successes"), (1, 10.0, "trials"),
        (1, True, "trials")])
    def test_counts_must_be_integers(self, successes, trials, name):
        # (1.5, 10) used to give 0.518 and (True, 10) 0.467
        with pytest.raises(ParamRange, match=f"{name} must be an integer"):
            wilson_upper(successes, trials)

    def test_range_violations(self):
        with pytest.raises(ParamRange, match="trials must be an integer of at least 1, got 0"):
            wilson_upper(0, 0)
        with pytest.raises(ParamRange, match=r"successes must be an integer in \[0, 10\], got 11"):
            wilson_upper(11, 10)
        with pytest.raises(ParamRange, match=r"successes must be an integer in \[0, 10\], got -1"):
            wilson_upper(-1, 10)
        assert wilson_upper(np.int64(3), np.int64(10)) == wilson_upper(3, 10)


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
            delta_used = sensitivity_budget(eps, delta, k)
            lam = _boundary_spectrum(gen, n, delta_used)
            spec = privacy_spectrum(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)))
            assert spec.deviation_frob <= delta_used * (1 + 1e-9)
            assert spec.reverse.deviation_frob <= delta_used * (1 + 1e-9)
            assert expected_privacy_loss(spec, k) <= eps / 2.0


class TestEmpiricalTailDomination:
    def test_survival_below_bound(self):
        gen = np.random.default_rng(67)
        n, k = 3, 40
        eps, delta = 0.5, 0.05
        delta_used = sensitivity_budget(eps, delta, k)
        lam = _boundary_spectrum(gen, n, delta_used)
        spec = diagonal_spectrum(lam)
        samples = privacy_loss_samples(spec, k, trials=5000, seed=3)
        centered = samples - expected_privacy_loss(spec, k)
        for t in np.linspace(0.2, 3.0, 12) * (math.sqrt(k) * spec.deviation_frob):
            survival = float((centered > t).mean())
            bound = tail_bound(spec, k, float(t))
            se = math.sqrt(max(survival * (1 - survival), 1e-12) / samples.size)
            assert survival <= bound + 3.0 * se

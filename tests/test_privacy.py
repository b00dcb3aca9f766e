import math

import numpy as np
import pytest
from scipy import stats

from dpattn import (
    Dataset,
    NeighborPair,
    ParamRange,
    PrivacyLoss,
    SingularMatrix,
    SymMatrix,
    dataset,
    dp_certificate,
    generate_good_dataset,
    make_neighbor,
    neighbor_loss,
    privacy_loss_samples,
    rng,
    sensitivity_budget,
    verify_neighbor_privacy,
    wilson_upper,
)
from dpattn.cli import read_matrix_csv, write_matrix_csv
from helpers import direct_loss_samples, gram_of, privacy_loss, rand_orthogonal, rand_pd


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

    def test_log_branch_binds_at_small_k(self):
        # eps / ln(1/delta) is the smaller term for k < ln(1/delta), k <= 4 at delta = 0.01
        log_inv = math.log(1.0 / 0.01)
        for k in (1, 2, 3, 4):
            assert sensitivity_budget(0.05, 0.01, k) == 0.1 * (0.05 / log_inv)
        assert sensitivity_budget(0.05, 0.01, 1) == pytest.approx(1.0857e-3, rel=1e-4)
        assert sensitivity_budget(0.05, 0.01, 5) == 0.1 * (0.05 / math.sqrt(5 * log_inv))

    def test_param_validation(self):
        for eps, delta, k in ((0.0, 0.1, 1), (1.0, 0.1, 1), (0.1, 0.0, 1), (0.1, 0.1, 0)):
            with pytest.raises(ParamRange):
                sensitivity_budget(eps, delta, k)


NON_INTEGER_KS = [2.5, 50.0, True, np.float64(50.0), math.nan]


@pytest.mark.parametrize("k", NON_INTEGER_KS)
def test_k_must_be_an_integer(k):
    # every function of this module that takes the sample count; the loss's members
    # and the functions that take a loss read the k it was built with
    pair = make_neighbor(generate_good_dataset(2, 4, 0.01, 0.11, 3), 1e-3, 1, 5)
    for call in (lambda: sensitivity_budget(0.05, 0.01, k),
                 lambda: PrivacyLoss(np.array([1.1, 0.9]), k),
                 lambda: neighbor_loss(pair, k)):
        with pytest.raises(ParamRange, match="^k must be an integer"):
            call()


def test_numpy_integer_k_gives_the_same_bits():
    lam = np.array([1.1, 0.9])
    loss, numpy_k = PrivacyLoss(lam, 50), PrivacyLoss(lam, np.int64(50))
    assert sensitivity_budget(0.05, 0.01, np.int64(50)) == sensitivity_budget(0.05, 0.01, 50)
    assert np.array_equal(privacy_loss_samples(numpy_k, 10, 0),
                          privacy_loss_samples(loss, 10, 0))
    assert numpy_k.mean == loss.mean and numpy_k.tail(0.025) == loss.tail(0.025)
    assert dp_certificate(numpy_k, 0.05, 0.01).checks == dp_certificate(loss, 0.05, 0.01).checks


@pytest.mark.parametrize("trials", [1000.5, 10.0, True])
def test_trials_must_be_an_integer(trials):
    loss = PrivacyLoss(np.array([1.1, 0.9]), 50)
    with pytest.raises(ParamRange):
        privacy_loss_samples(loss, trials, 0)


@pytest.mark.parametrize("k", [0, 1, 2, 50, 1000, 1_196_713])
def test_members_are_the_closed_forms_bit_for_bit(k):
    # the mean, the tail and the draws of both orderings, on spectra of 1 to 7 eigenvalues
    gen = np.random.default_rng(k)
    for m in (1, 2, 3, 7):
        forward = PrivacyLoss(np.sort(gen.uniform(0.7, 1.4, m))[::-1], k)
        for loss in (forward, forward.reverse):
            lam = loss.eigenvalues
            assert loss.mean == 0.5 * k * float((lam - 1.0 - np.log(lam)).sum())
            dev = math.sqrt(float(((lam - 1.0) ** 2).sum()))
            nu, alpha = math.sqrt(k) * dev, 2.0 * dev
            for t in (1e-3, 0.025, 1.0, 10.0):
                assert loss.tail(t) == (0.0 if k == 0 else max(
                    math.exp(-t * t / (2.0 * nu**2)), math.exp(-t / (2.0 * alpha))))
            chi = rng.chi_squares(k, (300, m), rng.generator((rng.TAG_PRIVACY, 5)))
            rows = 0.5 * ((chi * (lam - 1.0)).sum(axis=1) - k * float(np.log(lam).sum()))
            assert privacy_loss_samples(loss, 300, 5).tobytes() == rows.tobytes()


class TestPrivacySpectrum:
    """The comparison spectrum a ``PrivacyLoss`` is built from, and its floor."""

    def test_equal_covariances(self):
        loss = privacy_loss(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)))
        assert np.allclose(loss.eigenvalues, 1.0)
        assert loss.deviation_frob <= 1e-12
        assert loss.reverse.deviation_frob <= 1e-12

    def test_scaled_identity(self):
        loss = privacy_loss(SymMatrix(2.0 * np.eye(2)), SymMatrix(np.eye(2)))
        assert np.allclose(loss.eigenvalues, [2.0, 2.0])

    def test_diagonal(self):
        loss = privacy_loss(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)))
        assert np.allclose(loss.eigenvalues, [1.1, 0.9], atol=1e-12)

    def test_swap_gives_reciprocals(self):
        gen = np.random.default_rng(37)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            s1 = SymMatrix(rand_pd(gen, n))
            s2 = SymMatrix(rand_pd(gen, n))
            fwd = privacy_loss(s1, s2).eigenvalues
            rev = privacy_loss(s2, s1).eigenvalues
            assert np.abs(np.sort(fwd) - np.sort(1.0 / rev)).max() <= 1e-8

    def test_frobenius_identities_vs_independent_norms(self):
        gen = np.random.default_rng(41)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            s1, s2 = rand_pd(gen, n), rand_pd(gen, n)
            loss = privacy_loss(SymMatrix(s1), SymMatrix(s2))
            lam = loss.eigenvalues
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
            assert abs(loss.deviation_frob**2 - sum_dev) <= 1e-9 * max(1.0, sum_dev)
            assert abs(loss.reverse.deviation_frob**2 - sum_inv) <= 1e-9 * max(1.0, sum_inv)
            assert loss.deviation_frob == pytest.approx(dev, rel=1e-7, abs=1e-10)
            assert loss.reverse.deviation_frob == pytest.approx(inv_dev, rel=1e-7, abs=1e-10)

    def test_singular_input(self):
        with pytest.raises(SingularMatrix):
            privacy_loss(SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.eye(2)))
        with pytest.raises(SingularMatrix):
            privacy_loss(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.0])))

    def test_near_singular_first_input(self):
        # sigma1's smallest eigenvalue lies below the 1e-9 relative floor
        with pytest.raises(SingularMatrix):
            privacy_loss(SymMatrix(np.diag([1.0, 1e-10])), SymMatrix(np.eye(2)))

    def test_singularity_floor_is_scale_relative(self):
        gen = np.random.default_rng(43)
        s1, s2 = rand_pd(gen, 3), rand_pd(gen, 3)
        reference = privacy_loss(SymMatrix(s1), SymMatrix(s2)).eigenvalues
        for c in (1.0, 1e-8, 1e-10):
            lam = privacy_loss(SymMatrix(c * s1), SymMatrix(c * s2)).eigenvalues
            assert np.allclose(lam, reference, rtol=1e-12, atol=0.0)
            with pytest.raises(SingularMatrix):
                privacy_loss(SymMatrix(np.diag([c, 1e-10 * c])), SymMatrix(c * np.eye(2)))

    def test_dim_mismatch(self):
        with pytest.raises(ParamRange):
            privacy_loss(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))

    def test_floor_is_relative_to_one_or_the_largest(self):
        # the smallest eigenvalue must exceed 1e-9 * max(1, largest)
        for lam in ([2.0, 1e-10], [1e-10], [1e3, 1e-6]):
            with pytest.raises(SingularMatrix):
                PrivacyLoss(np.array(lam), 10)
        PrivacyLoss(np.array([1e3, 2e-6]), 10)

    def test_floor_rejects_at_equality(self):
        # the smallest eigenvalue must exceed the floor, so meeting it exactly fails
        for lam in ([1e-9], [2.0, 1e-9 * 2.0], [1e3, 1e-9 * 1e3]):
            with pytest.raises(SingularMatrix):
                PrivacyLoss(np.array(lam), 10)
            PrivacyLoss(np.array([*lam[:-1], math.nextafter(lam[-1], 1.0)]), 10)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ParamRange, match="non-empty vector, got shape"):
            PrivacyLoss(np.array([]), 5)

    @pytest.mark.parametrize("lam", [[np.nan, 1.0], [np.inf], [1.0, -np.inf]])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(ParamRange):
            PrivacyLoss(np.array(lam), 10)

    @pytest.mark.filterwarnings("error")
    def test_huge_entry_is_below_the_floor(self):
        # whitening does not overflow, and 1 lies below 1e-9 * 1e308
        with pytest.raises(SingularMatrix):
            privacy_loss(SymMatrix(np.diag([1e308, 1.0])), SymMatrix(np.eye(2)))

    def test_reverse_is_the_reciprocal_spectrum(self):
        gen = np.random.default_rng(47)
        for n in (1, 2, 5):
            lam = np.sort(gen.uniform(0.1, 10.0, n))[::-1]
            rev = PrivacyLoss(lam, 7).reverse
            assert rev.eigenvalues.tobytes() == (1.0 / lam[::-1]).tobytes()
            assert rev.k == 7 and rev.reverse.k == 7

    def test_floor_is_tested_before_k(self):
        with pytest.raises(SingularMatrix):
            PrivacyLoss(np.array([1e-10]), -1)


class TestExpectedPrivacyLoss:
    """``PrivacyLoss.mean``, the closed-form ``E[Z]``."""

    def test_zero_at_identity_spectrum(self):
        assert privacy_loss(SymMatrix(np.eye(4)), SymMatrix(np.eye(4)), 100).mean <= 1e-10

    def test_closed_form_oracle(self):
        loss = privacy_loss(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)), 10)
        expected = 5.0 * ((1.1 - 1.0 - math.log(1.1)) + (0.9 - 1.0 - math.log(0.9)))
        assert loss.mean == pytest.approx(expected, rel=1e-12)
        assert loss.mean == pytest.approx(0.05025, abs=1e-5)

    def test_linear_in_k(self):
        lam = privacy_loss(SymMatrix(np.diag([1.2, 0.8])), SymMatrix(np.eye(2))).eigenvalues
        assert PrivacyLoss(lam, 20).mean == pytest.approx(2.0 * PrivacyLoss(lam, 10).mean,
                                                          rel=1e-15)

    def test_non_negative(self):
        gen = np.random.default_rng(43)
        for _ in range(50):
            lam = gen.uniform(0.3, 3.0, int(gen.integers(1, 6)))
            k = int(gen.integers(1, 100))
            assert privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(lam.size)), k).mean >= 0.0


def diagonal_loss(lam, k):
    return privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(len(lam))), k)


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
            fast = neighbor_loss(pair, 50).eigenvalues
            full = privacy_loss(pair.base.gram_matrix, gram_of(pair.perturbed)).eigenvalues
            assert fast.shape == (2,)
            assert np.abs(fast - full[[0, -1]]).max() <= tol
            assert np.abs(full[1:-1] - 1.0).max() <= tol
            assert fast[0] - 1.0 > 10 * tol and 1.0 - fast[1] > 10 * tol

    def test_small_n_keeps_every_eigenvalue(self):
        for n in (1, 2):
            data = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=3)
            pair = make_neighbor(data, beta=1e-3, index=n, seed=5)
            fast = neighbor_loss(pair, 50).eigenvalues
            full = privacy_loss(pair.base.gram_matrix, gram_of(pair.perturbed)).eigenvalues
            assert fast.shape == (n,)
            assert np.abs(fast - full).max() <= 1e-14

    def test_identical_pair_is_all_ones(self):
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=3)
        pair = NeighborPair(base=data, perturbed=data.x, beta=0.001, index=2)
        loss = neighbor_loss(pair, 50)
        assert loss.eigenvalues.tolist() == [1.0, 1.0] and loss.k == 50
        assert np.all(privacy_loss_samples(loss, 1000, 3) == 0.0)

    def test_whitens_by_the_base_gram(self, monkeypatch):
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=3)
        pair = make_neighbor(data, beta=1e-3, index=2, seed=5)
        whitened_by = []
        rank_two = dataset.rank_two_eigenvalues
        monkeypatch.setattr(dataset, "rank_two_eigenvalues",
                            lambda b, y, e: whitened_by.append(b) or rank_two(b, y, e))
        lam = neighbor_loss(pair, 50).eigenvalues
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
                privacy_loss(pair.base.gram_matrix, gram_of(pair.perturbed))
            with pytest.raises(SingularMatrix):
                neighbor_loss(pair, 50)


class TestPrivacyLossSample:
    def test_identity_pair_is_exactly_zero(self):
        loss = privacy_loss(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)), 10)
        for seed in (0, 1, 77):
            assert np.all(privacy_loss_samples(loss, 100, seed) == 0.0)

    def test_general_equal_pair_is_negligible(self):
        gen = np.random.default_rng(47)
        sigma = SymMatrix(rand_pd(gen, 3))
        loss = privacy_loss(sigma, sigma, 20)
        assert np.abs(privacy_loss_samples(loss, 100, seed=5)).max() <= 1e-9

    def test_zero_draws(self):
        assert np.all(privacy_loss_samples(diagonal_loss([1.3, 1.0], 0), 100, 0) == 0.0)

    def test_reproducible(self):
        loss = diagonal_loss([1.2, 0.9], 30)
        assert np.array_equal(privacy_loss_samples(loss, 100, 11),
                              privacy_loss_samples(loss, 100, 11))

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_column_sum_is_the_row_sum(self, m):
        # in-order column sums give the bits of numpy's row sum up to 7 eigenvalues
        loss = PrivacyLoss(np.sort(np.random.default_rng(m).uniform(0.8, 1.2, m))[::-1], 50)
        lam, k, trials, seed = loss.eigenvalues, loss.k, 2000, 11
        entropy = (rng.TAG_PRIVACY, *rng.normalize_entropy(seed))
        chi = rng.chi_squares(k, (trials, m), rng.generator(entropy))
        rows = 0.5 * ((chi * (lam - 1.0)).sum(axis=1) - k * float(np.log(lam).sum()))
        got = privacy_loss_samples(loss, trials, seed)
        assert got.tobytes() == rows.tobytes()

    def test_longer_run_extends_shorter(self):
        loss = diagonal_loss([1.2, 0.9, 1.05], 30)
        for m in (0, 1, 7, 500):
            assert np.array_equal(privacy_loss_samples(loss, 1000, 11)[:m],
                                  privacy_loss_samples(loss, m, 11))

    def test_monte_carlo_mean_matches_closed_form(self):
        gen = np.random.default_rng(53)
        ks = [int(gen.integers(5, 50)) for _ in range(3)] + [1_196_713]
        for trial, k in enumerate(ks):
            n = int(gen.integers(2, 6))
            loss = diagonal_loss(gen.uniform(0.85, 1.2, n), k)
            samples = privacy_loss_samples(loss, trials=20_000, seed=trial)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - loss.mean) <= 4.0 * se

    def test_matches_direct_normal_sampler(self):
        # Same distribution as drawing k*n normals per trial, and the
        # closed-form variance (k/2) * sum (lam - 1)^2 = nu^2 / 2.
        for seed, k, lam in ((1, 5, [1.3, 0.8]), (2, 20, [1.1, 0.9, 1.15, 0.95]),
                             (3, 50, [0.85, 1.2, 1.02])):
            loss = diagonal_loss(lam, k)
            fast = privacy_loss_samples(loss, 20_000, seed)
            direct = direct_loss_samples(loss.eigenvalues, k, 20_000, seed)
            assert stats.ks_2samp(fast, direct).pvalue > 1e-3
            variance = 0.5 * k * loss.deviation_frob ** 2
            assert fast.var(ddof=1) / variance == pytest.approx(1.0, abs=0.03)


class TestSubExpParams:
    """The parameters ``nu = sqrt(k) F`` and ``alpha = 2 F`` that ``PrivacyLoss.tail``
    derives from a spectrum's Frobenius deviation ``F``."""

    def test_identity_spectrum(self):
        loss = privacy_loss(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)), 50)
        assert loss.deviation_frob <= 1e-12 and loss.mean <= 1e-12
        assert loss.tail(1e-6) <= 1e-12

    def test_reference_values(self):
        # nu = sqrt(2) sets the bound at t = 1, alpha = 2 sqrt(0.02) at t = 10
        loss = privacy_loss(SymMatrix(np.diag([1.1, 0.9])), SymMatrix(np.eye(2)), 100)
        assert loss.tail(1.0) == pytest.approx(math.exp(-1.0 / 4.0), rel=1e-10)
        assert loss.tail(10.0) == pytest.approx(
            math.exp(-10.0 / (4.0 * math.sqrt(0.02))), rel=1e-10)

    def test_fixed_ratio(self):
        # nu / alpha = sqrt(k) / 2, so at t = c k F the bound is
        # exp(-k min(c^2 / 2, c / 4)) whatever the spectrum
        gen = np.random.default_rng(59)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            k = int(gen.integers(1, 200))
            lam = gen.uniform(0.7, 1.4, n)
            loss = privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)), k)
            for c in (0.25, 0.5, 1.0):
                t = c * k * loss.deviation_frob
                assert loss.tail(t) == pytest.approx(
                    math.exp(-k * min(c * c / 2.0, c / 4.0)), rel=1e-12)


class TestTailBound:
    """``PrivacyLoss.tail``; ``PrivacyLoss([1.5], 4)`` has nu = alpha = 1."""

    def test_approaches_one_for_tiny_t(self):
        assert PrivacyLoss([1.5], 4).tail(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        assert PrivacyLoss([1.5], 4).tail(2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_monotone_decreasing(self):
        loss = PrivacyLoss([1.2, 0.9], 7)
        grid = [loss.tail(t) for t in np.linspace(0.01, 5.0, 50)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_degenerate_point_mass(self):
        assert PrivacyLoss([1.0, 1.0], 4).tail(0.5) == 0.0
        assert PrivacyLoss([1.5], 0).tail(0.5) == 0.0

    def test_requires_positive_t(self):
        for t in (0.0, math.nan):
            with pytest.raises(ParamRange, match="^t must be"):
                PrivacyLoss([1.5], 4).tail(t)
        with pytest.raises(ParamRange, match="^k must be"):
            PrivacyLoss([1.5], -1)


class TestDpCertificate:
    def test_equal_pair_granted(self):
        cert = dp_certificate(privacy_loss(SymMatrix(np.eye(3)), SymMatrix(np.eye(3)), 50),
                              0.5, 0.05)
        assert cert.granted
        assert [c.name for c in cert.checks] == ["sensitivity", "mean", "tail"]
        assert all(c.passed for c in cert.checks)

    def test_sensitivity_exceeded(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        delta_used = sensitivity_budget(eps, delta, k)
        lam = 1.0 + 1.01 * delta_used / math.sqrt(n)
        cert = dp_certificate(diagonal_loss([lam] * n, k), eps, delta)
        assert not cert.granted
        assert [c.name for c in cert.checks if not c.passed] == ["sensitivity"]

    def test_both_orderings_checked(self):
        # lam < 1 keeps (diag(lam), I) inside the budget, but the swapped pair
        # has spectrum 1/lam, whose deviation exceeds it; neighboring is
        # symmetric, so both orderings must be denied with the same report.
        eps, delta, k, n = 0.5, 0.05, 50, 2
        budget = sensitivity_budget(eps, delta, k)
        lam = 1.0 - 0.999 * budget / math.sqrt(n)
        fwd = privacy_loss(SymMatrix(np.diag([lam] * n)), SymMatrix(np.eye(n)), k)
        rev = privacy_loss(SymMatrix(np.eye(n)), SymMatrix(np.diag([lam] * n)), k)
        assert fwd.deviation_frob <= budget < rev.deviation_frob
        certs = [dp_certificate(loss, eps, delta) for loss in (fwd, rev)]
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
        cert = dp_certificate(diagonal_loss([lam] * n, k), eps, delta)
        assert cert.k == k and cert.granted is all(c.passed for c in cert.checks) is granted
        for check, required in zip(cert.checks, (sensitivity_budget(eps, delta, k),
                                                 eps / 2.0, delta)):
            assert check.required == required and not check.warning_only
            assert check.passed == (check.measured <= check.required)

    def test_tail_is_the_worse_ordering_at_half_eps(self):
        # nu = sqrt(k) F and alpha = 2 F of each ordering, at t = eps/2, bit for bit; the
        # worse ordering is the given one for one input and its reverse for the other
        eps, delta, k = 0.9, 0.05, 4
        t = eps / 2.0
        forward = PrivacyLoss(np.array([1.5, 0.8]), k)
        for loss in (forward, forward.reverse):
            levels = []
            for lam in (loss.eigenvalues, 1.0 / loss.eigenvalues[::-1]):
                dev = math.sqrt(float(((lam - 1.0) ** 2).sum()))
                nu, alpha = math.sqrt(k) * dev, 2.0 * dev
                levels.append(max(math.exp(-t * t / (2.0 * nu**2)),
                                  math.exp(-t / (2.0 * alpha))))
            tail = dp_certificate(loss, eps, delta).checks[2]
            assert tail.name == "tail" and tail.measured == max(levels)
            assert 0.5 < tail.measured < 1.0 and levels[0] != levels[1]

    def test_a_check_passes_at_equality(self):
        # E[Z] of the worse ordering is exactly eps/2 when eps is twice it
        loss = PrivacyLoss(np.array([1.05, 0.97]), 10)
        mean = max(loss.mean, loss.reverse.mean)
        check = dp_certificate(loss, 2.0 * mean, 0.05).checks[1]
        assert check.name == "mean" and check.measured == check.required == mean
        assert check.passed

    def test_granted_implies_low_empirical_rate(self):
        eps, delta, k, n = 0.5, 0.05, 50, 2
        delta_used = sensitivity_budget(eps, delta, k)
        lam = 1.0 + 0.999 * delta_used / math.sqrt(n)
        loss = diagonal_loss([lam] * n, k)
        cert = dp_certificate(loss, eps, delta)
        assert cert.granted
        losses = privacy_loss_samples(loss, trials=2000, seed=0)
        assert (losses > eps).mean() <= delta


class TestMcPrivacyVerify:
    """The Monte-Carlo exceedance count of ``Z > eps`` and its Wilson bound."""

    def test_equal_pair_rate_zero(self):
        loss = privacy_loss(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)), 20)
        exceed = int((privacy_loss_samples(loss, 1000, 0) > 0.1).sum())
        assert exceed == 0
        assert wilson_upper(exceed, 1000) < 0.01

    def test_large_separation_rate_one(self):
        losses = privacy_loss_samples(diagonal_loss([4.0, 4.0], 50), 1000, 0)
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

    @pytest.mark.parametrize("successes,trials", [(0, 1000), (30, 1000), (4468, 10000),
                                                  (1000, 1000)])
    def test_matches_the_scipy_wilson_interval(self, successes, trials):
        # the one-sided 99% bound is the upper end of the two-sided 98% interval
        ci = stats.binomtest(successes, trials).proportion_ci(confidence_level=0.98,
                                                              method="wilson")
        assert wilson_upper(successes, trials) == pytest.approx(ci.high, rel=1e-15)

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
            loss = privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)), k)
            assert loss.deviation_frob <= delta_used * (1 + 1e-9)
            assert loss.reverse.deviation_frob <= delta_used * (1 + 1e-9)
            assert loss.mean <= eps / 2.0


class TestEmpiricalTailDomination:
    def test_survival_below_bound(self):
        gen = np.random.default_rng(67)
        n, k = 3, 40
        eps, delta = 0.5, 0.05
        delta_used = sensitivity_budget(eps, delta, k)
        lam = _boundary_spectrum(gen, n, delta_used)
        loss = diagonal_loss(lam, k)
        samples = privacy_loss_samples(loss, trials=5000, seed=3)
        centered = samples - loss.mean
        for t in np.linspace(0.2, 3.0, 12) * (math.sqrt(k) * loss.deviation_frob):
            survival = float((centered > t).mean())
            bound = loss.tail(float(t))
            se = math.sqrt(max(survival * (1 - survival), 1e-12) / samples.size)
            assert survival <= bound + 3.0 * se

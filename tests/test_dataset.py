import numpy as np
import pytest

from dpattn import (
    Dataset,
    Infeasible,
    NeighborPair,
    ParamRange,
    check_good,
    generate_good_dataset,
    gram,
    is_psd,
    loewner_within,
    make_neighbor,
    sensitivity_bound,
    sensitivity_measured,
)


class TestCheckGood:
    def test_identity(self):
        assert check_good(np.eye(2), eta=1.0, alpha=1.0)

    def test_spectral_floor_violated(self):
        assert not check_good(np.eye(2), eta=1.5, alpha=1.0)

    def test_column_cap_violated(self):
        assert not check_good(2.0 * np.eye(2), eta=1.0, alpha=1.0)

    def test_scaled_diagonal(self):
        assert check_good(np.diag([2.0, 2.0]), eta=4.0, alpha=2.0)

    def test_param_validation(self):
        with pytest.raises(ParamRange):
            check_good(np.eye(2), eta=0.0, alpha=1.0)


class TestGenerateGoodDataset:
    def test_square_case_is_scaled_identity(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        assert np.array_equal(data.x, np.eye(2))

    def test_wide_case_passes_check(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.0, seed=7)
        assert check_good(data.x, 1.0, 1.0)
        assert data.n == 2 and data.d == 4

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            generate_good_dataset(2, 2, eta=4.0, alpha=1.0, seed=0)

    def test_narrow_rejected(self):
        with pytest.raises(ParamRange):
            generate_good_dataset(4, 2, eta=1.0, alpha=1.0, seed=0)

    def test_deterministic(self):
        a = generate_good_dataset(3, 9, eta=0.02, alpha=0.2, seed=123)
        b = generate_good_dataset(3, 9, eta=0.02, alpha=0.2, seed=123)
        assert np.array_equal(a.x, b.x)

    def test_column_norms_capped(self):
        data = generate_good_dataset(4, 12, eta=0.01, alpha=0.11, seed=5)
        assert np.linalg.norm(data.x, axis=0).max() <= 0.11 + 1e-12


class TestDatasetValidation:
    def test_rejects_bad_declaration(self):
        with pytest.raises(Infeasible):
            Dataset(x=np.eye(2), eta=1.5, alpha=1.0)

    def test_rejects_narrow(self):
        with pytest.raises(ParamRange):
            Dataset(x=np.eye(3)[:, :2], eta=0.1, alpha=1.0)

    def test_immutable(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        with pytest.raises(ValueError):
            data.x[0, 0] = 9.0


class TestMakeNeighbor:
    def test_tiny_beta_barely_moves(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.5, seed=1)
        pair = make_neighbor(data, beta=1e-15, index=0, seed=3)
        assert np.abs(pair.perturbed - data.x).max() <= 1e-15

    def test_exactly_one_column_changes(self):
        data = generate_good_dataset(3, 6, eta=0.5, alpha=1.0, seed=2)
        pair = make_neighbor(data, beta=0.01, index=4, seed=3)
        for j in range(data.d):
            same = np.array_equal(data.x[:, j], pair.perturbed[:, j])
            assert same == (j != 4)

    def test_displacement_is_beta_when_slack_allows(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=2.0, seed=0)
        pair = make_neighbor(data, beta=0.25, index=1, seed=9)
        moved = np.linalg.norm(data.x[:, 1] - pair.perturbed[:, 1])
        assert moved == pytest.approx(0.25, rel=1e-12)

    def test_projection_keeps_alpha_ball(self):
        # columns start on the alpha boundary (alpha = sqrt(eta)), so large
        # steps must be truncated to the in-ball slack
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.0, seed=4)
        pair = make_neighbor(data, beta=5.0, index=2, seed=6)
        assert np.linalg.norm(pair.perturbed[:, 2]) <= data.alpha + 1e-9
        assert np.linalg.norm(pair.perturbed[:, 2] - data.x[:, 2]) <= 5.0

    def test_index_out_of_range(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        with pytest.raises(ParamRange):
            make_neighbor(data, beta=0.1, index=2, seed=0)

    def test_beta_must_be_positive(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        with pytest.raises(ParamRange):
            make_neighbor(data, beta=0.0, index=0, seed=0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_beta_must_be_finite(self, beta):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        with pytest.raises(ParamRange):
            make_neighbor(data, beta=beta, index=0, seed=0)


class TestNeighborPairValidation:
    def test_rejects_two_changed_columns(self):
        data = generate_good_dataset(2, 3, eta=1.0, alpha=1.1, seed=0)
        perturbed = data.x.copy()
        perturbed[:, 0] += 1e-3
        perturbed[:, 1] += 1e-3
        with pytest.raises(ParamRange):
            NeighborPair(base=data, perturbed=perturbed, beta=0.01, index=0)

    def test_rejects_oversized_move(self):
        data = generate_good_dataset(2, 3, eta=1.0, alpha=1.1, seed=0)
        perturbed = data.x.copy()
        perturbed[:, 1] += 0.5
        with pytest.raises(ParamRange):
            NeighborPair(base=data, perturbed=perturbed, beta=0.01, index=1)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_rejects_non_finite_beta(self, beta):
        data = generate_good_dataset(2, 3, eta=1.0, alpha=1.1, seed=0)
        with pytest.raises(ParamRange):
            NeighborPair(base=data, perturbed=data.x.copy(), beta=beta, index=0)


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)).values, np.eye(2))

    def test_closed_form(self):
        assert np.array_equal(
            gram(np.array([[1.0, 1.0], [0.0, 0.0]])).values, [[2.0, 0.0], [0.0, 0.0]]
        )

    def test_random_good_dataset_is_psd(self):
        data = generate_good_dataset(3, 6, eta=0.1, alpha=0.5, seed=8)
        g = gram(data)
        assert is_psd(g)
        assert np.linalg.eigvalsh(g.values).min() >= data.eta - 1e-9


class TestSensitivity:
    def test_unchanged_pair_measures_zero(self):
        data = generate_good_dataset(2, 3, eta=1.0, alpha=1.1, seed=0)
        pair = NeighborPair(base=data, perturbed=data.x.copy(), beta=0.01, index=0)
        measured = sensitivity_measured(pair)
        assert measured.spectral <= 1e-12
        assert measured.frobenius <= 1e-12

    def test_hand_oracle_two_by_two(self):
        # base I2; stretch the first column to (1.01, 0): whitened deviation
        # is diag(1.01^2 - 1, 0)
        data = Dataset(x=np.eye(2), eta=1.0, alpha=1.0)
        perturbed = np.eye(2)
        perturbed[0, 0] = 1.01
        pair = NeighborPair(base=data, perturbed=perturbed, beta=0.01, index=0)
        measured = sensitivity_measured(pair)
        assert measured.spectral == pytest.approx(1.01**2 - 1.0, rel=1e-10)
        assert measured.frobenius == pytest.approx(1.01**2 - 1.0, rel=1e-10)
        bound = sensitivity_bound(eta=1.0, alpha=1.01, beta=0.01, n=2)
        assert measured.spectral <= bound.spectral_bound

    def test_bound_values(self):
        assert sensitivity_bound(1.0, 1.0, 0.0, 5) == (0.0, 0.0)
        bound = sensitivity_bound(1.0, 1.01, 0.01, 2)
        assert bound.spectral_bound == pytest.approx(0.0202, rel=1e-12)
        assert bound.frobenius_bound == pytest.approx(0.0202 * np.sqrt(2.0), rel=1e-12)

    def test_frobenius_at_most_sqrt_n_spectral(self):
        data = generate_good_dataset(4, 8, eta=0.5, alpha=1.0, seed=3)
        pair = make_neighbor(data, beta=0.05, index=1, seed=4)
        measured = sensitivity_measured(pair)
        assert measured.frobenius <= np.sqrt(4) * measured.spectral * (1 + 1e-9)


def test_sensitivity_bounds_hold_on_generated_pairs():
    # the end-to-end neighbor-sensitivity property at full scale (the
    # acceptance suite re-runs it on its own seed)
    gen = np.random.default_rng(9_000)
    violations = 0
    count = 0
    for n in (2, 4, 8):
        for d_factor in (1, 2, 4):
            for _ in range(500 // 9 + 1):
                if count >= 500:
                    break
                count += 1
                eta = float(gen.uniform(0.05, 2.0))
                alpha = float(np.sqrt(eta) * gen.uniform(1.0, 1.5))
                beta = float(gen.uniform(1e-3, 0.3))
                seed_ds = int(gen.integers(0, 2**31))
                seed_nb = int(gen.integers(0, 2**31))
                data = generate_good_dataset(n, n * d_factor, eta, alpha, seed_ds)
                index = int(gen.integers(0, data.d))
                pair = make_neighbor(data, beta, index, seed_nb)
                measured = sensitivity_measured(pair)
                bound = sensitivity_bound(eta, alpha, beta, n)
                if (measured.spectral > bound.spectral_bound
                        or measured.frobenius > bound.frobenius_bound):
                    violations += 1
                assert loewner_within(
                    gram(pair.perturbed), gram(data), bound.spectral_bound + 1e-9
                )
                assert np.linalg.eigvalsh(gram(data).values).min() >= eta - 1e-9
    assert count == 500
    assert violations == 0

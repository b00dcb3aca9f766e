import math

import numpy as np
import pytest

from dpattn import (
    Activation,
    Dataset,
    DpParams,
    Infeasible,
    NeighborPair,
    ParamRange,
    SingularMatrix,
    dp_attention,
    generate_good_dataset,
    make_neighbor,
    sensitivity_bound,
)
from helpers import gram_of, is_psd, loewner_within, sensitivity_measured, whitened_eigenvalues


NON_FINITE_DECLARATIONS = [(np.nan, 1.0), (np.inf, 1.0), (0.01, np.nan), (0.01, np.inf)]


class TestCheckGood:
    """``Dataset`` accepts exactly the matrices that meet their declared bounds."""

    def test_identity(self):
        Dataset(np.eye(2), eta=1.0, alpha=1.0)

    def test_spectral_floor_violated(self):
        with pytest.raises(Infeasible):
            Dataset(np.eye(2), eta=1.5, alpha=1.0)

    def test_column_cap_violated(self):
        with pytest.raises(Infeasible):
            Dataset(2.0 * np.eye(2), eta=1.0, alpha=1.0)

    def test_scaled_diagonal(self):
        Dataset(np.diag([2.0, 2.0]), eta=4.0, alpha=2.0)

    def test_tiny_spectral_floor_violated(self):
        # Gram eigenvalues {0, 2}: an absolute 1e-9 tolerance accepted eta = 1e-12
        with pytest.raises(Infeasible):
            Dataset([[1.0, 0.0], [1.0, 0.0]], eta=1e-12, alpha=1.5)

    def test_tiny_column_cap_violated(self):
        # a column of norm 1.1e-12 passed alpha = 1e-12 under an absolute tolerance
        with pytest.raises(Infeasible):
            Dataset(1.1e-12 * np.eye(2), eta=1e-24, alpha=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1e-6, 1.0, 1e6, 1e150])
    def test_declaration_is_tested_at_any_scale(self, scale):
        # the tolerances are relative to eta and alpha
        x = scale * np.eye(2)
        Dataset(x, eta=scale**2, alpha=scale)
        with pytest.raises(Infeasible):
            Dataset(x, eta=1.01 * scale**2, alpha=scale)
        with pytest.raises(Infeasible):
            Dataset(x, eta=scale**2, alpha=0.99 * scale)

    def test_param_validation(self):
        with pytest.raises(ParamRange):
            Dataset(np.eye(2), eta=0.0, alpha=1.0)

    @pytest.mark.parametrize("eta,alpha", NON_FINITE_DECLARATIONS)
    def test_non_finite_declaration(self, eta, alpha):
        # a NaN or infinite eta is out of range, not an unmet floor, and an
        # infinite alpha would make every sensitivity bound infinite
        with pytest.raises(ParamRange):
            Dataset(np.eye(2), eta=eta, alpha=alpha)


class TestGenerateGoodDataset:
    def test_square_case_is_scaled_identity(self):
        data = generate_good_dataset(2, 2, eta=1.0, alpha=1.0, seed=0)
        assert np.array_equal(data.x, np.eye(2))

    def test_wide_case_passes_check(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.0, seed=7)
        Dataset(data.x, 1.0, 1.0)
        assert data.n == 2 and data.d == 4

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            generate_good_dataset(2, 2, eta=4.0, alpha=1.0, seed=0)

    def test_narrow_rejected(self):
        with pytest.raises(ParamRange):
            generate_good_dataset(4, 2, eta=1.0, alpha=1.0, seed=0)

    @pytest.mark.parametrize("eta,alpha", NON_FINITE_DECLARATIONS)
    def test_non_finite_declaration(self, eta, alpha):
        with pytest.raises(ParamRange):
            generate_good_dataset(2, 4, eta=eta, alpha=alpha, seed=0)

    @pytest.mark.parametrize("n,d,name", [(2.5, 4, "n"), (True, 4, "n"), (2, 4.5, "d"),
                                          (1, True, "d")])
    def test_counts_must_be_integers(self, n, d, name):
        # 2.5 and 4.5 used to end in a bare TypeError
        with pytest.raises(ParamRange, match=f"{name} must be an integer"):
            generate_good_dataset(n, d, eta=0.01, alpha=0.11, seed=1)

    @pytest.mark.parametrize("seed", [True, -1, "x", 2**40, 1.5], ids=repr)
    def test_square_case_checks_its_seed(self, seed):
        # the seed was read only when d > n, so d == n took any seed
        with pytest.raises(ParamRange, match="^seed word must be an integer"):
            generate_good_dataset(2, 2, eta=0.01, alpha=0.11, seed=seed)

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

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_rejects_zero_rows(self, shape):
        # used to end in a bare ValueError from the minimum of no eigenvalues
        with pytest.raises(ParamRange, match=r"^dataset requires 1 <= n <= d, got n=0"):
            Dataset(x=np.empty(shape), eta=0.01, alpha=0.11)

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
        with pytest.raises(ParamRange, match=r"^index must be an integer in \[0, 1\], got 2$"):
            make_neighbor(data, beta=0.1, index=2, seed=0)

    @pytest.mark.parametrize("index", [True, False, 1.5, 1.0, np.float64(1.0), -1])
    def test_index_must_be_an_integer(self, index):
        # a bool would select columns by mask, a float would fail as a bare
        # IndexError
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.0, seed=0)
        with pytest.raises(ParamRange):
            make_neighbor(data, beta=1e-8, index=index, seed=5)

    def test_numpy_integer_index(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=1.0, seed=0)
        pair = make_neighbor(data, beta=1e-8, index=np.int64(1), seed=5)
        assert pair.index == 1
        assert np.array_equal(pair.perturbed, make_neighbor(data, 1e-8, 1, 5).perturbed)

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

    @pytest.mark.parametrize("beta, move", [(1e-14, 5e-13), (1e-14, 9e-13), (0.0, 9e-13),
                                            (0.0, 1e-15)])
    def test_rejects_a_small_move_past_a_tiny_beta(self, beta, move):
        # the tolerance is a few ulps of the column (about 1e-16 here), not 1e-12
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=7)
        perturbed = data.x.copy()
        perturbed[0, 5] += move
        with pytest.raises(ParamRange, match="more than beta"):
            NeighborPair(base=data, perturbed=perturbed, beta=beta, index=5)

    @pytest.mark.parametrize("scale", [1e-150, 1e-6, 1.0, 1e6, 1e150])
    def test_make_neighbor_pairs_pass_at_any_scale(self, scale):
        # make_neighbor's own pairs pass NeighborPair at every scale; at scale 1e6 and
        # beta 1e-2 (the README dataset scaled by 1e6), 46 of 200 (index, seed) pairs were
        # rejected when the tolerance was 1e-12 * max(1, beta), below the column's rounding
        data = generate_good_dataset(4, 8, eta=0.01 * scale**2, alpha=0.11 * scale, seed=7)
        for exponent in range(-16, 1):
            for index in range(8):
                for seed in range(5):
                    pair = make_neighbor(data, 10.0**exponent * scale, index, seed)
                    assert not np.array_equal(pair.perturbed, data.x)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_rejects_non_finite_beta(self, beta):
        data = generate_good_dataset(2, 3, eta=1.0, alpha=1.1, seed=0)
        with pytest.raises(ParamRange):
            NeighborPair(base=data, perturbed=data.x.copy(), beta=beta, index=0)


class TestGram:
    """A ``Dataset`` keeps its Gram matrix ``X X^T``, and a release reads that one."""

    def test_identity(self):
        data = Dataset(np.eye(2), eta=1.0, alpha=1.0)
        assert np.array_equal(data.gram_matrix.values, np.eye(2))

    def test_closed_form(self):
        data = Dataset(np.array([[1.0, 1.0], [0.0, 1.0]]), eta=0.3, alpha=1.5)
        assert np.array_equal(data.gram_matrix.values, [[2.0, 1.0], [1.0, 1.0]])

    def test_random_good_dataset_is_psd(self):
        data = generate_good_dataset(3, 6, eta=0.1, alpha=0.5, seed=8)
        g = data.gram_matrix
        assert is_psd(g)
        assert np.linalg.eigvalsh(g.values).min() >= data.eta - 1e-9

    def test_dataset_keeps_its_gram_and_floor(self):
        data = generate_good_dataset(3, 6, eta=0.1, alpha=0.5, seed=8)
        # a release reads the kept matrix: re-forming X X^T would give a new object
        params = DpParams(eps=0.05, delta=0.01, gamma=0.3, k=400_000, r=0.1,
                          kind=Activation.EXP, utility_const=1.0, seed=0)
        assert dp_attention(data, 1e-9, params).gram_matrix is data.gram_matrix
        assert np.array_equal(gram_of(data.x).values, data.gram_matrix.values)
        assert np.linalg.eigvalsh(data.gram_matrix.values).min() >= data.eta - 1e-9


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

    @pytest.mark.parametrize("eta, alpha, beta, n", [
        (math.nan, 1.0, 1.0, 2), (math.inf, 1.0, 1.0, 2), (0.0, 1.0, 1.0, 2),
        (-1.0, 1.0, 1.0, 2),
        (1.0, math.nan, 1.0, 2), (1.0, math.inf, 1.0, 2), (1.0, 0.0, 1.0, 2),
        (1.0, -1.0, 1.0, 2),
        (1.0, 1.0, math.nan, 2), (1.0, 1.0, math.inf, 2), (1.0, 1.0, -1.0, 2),
        (1.0, 1.0, 1.0, 0), (1.0, 1.0, 1.0, -1), (1.0, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, True),
    ])
    def test_bound_param_range(self, eta, alpha, beta, n):
        with pytest.raises(ParamRange):
            sensitivity_bound(eta, alpha, beta, n)

    def test_bound_values(self):
        assert sensitivity_bound(1.0, 1.0, 0.0, 5) == (0.0, 0.0)
        assert sensitivity_bound(1.0, 1.0, 1.0, np.int64(4)) == (2.0, 4.0)
        # an n past the int64 range ended in a bare TypeError from np.sqrt
        assert sensitivity_bound(1.0, 1.0, 1.0, 10**20) == (2.0, 2e10)
        bound = sensitivity_bound(1.0, 1.01, 0.01, 2)
        assert bound.spectral_bound == pytest.approx(0.0202, rel=1e-12)
        assert bound.frobenius_bound == pytest.approx(0.0202 * np.sqrt(2.0), rel=1e-12)

    def test_frobenius_at_most_sqrt_n_spectral(self):
        data = generate_good_dataset(4, 8, eta=0.5, alpha=1.0, seed=3)
        pair = make_neighbor(data, beta=0.05, index=1, seed=4)
        measured = sensitivity_measured(pair)
        assert measured.frobenius <= np.sqrt(4) * measured.spectral * (1 + 1e-9)


    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_rank_two_frobenius_bound(self, n):
        # D has rank two, so ||D||_F <= sqrt(2) ||D||_2 <= 2 sqrt(2) alpha beta / eta
        # at any n; the whitening oracle measures the same two norms
        eta, alpha = 0.01, 0.11
        tol = 32 * n * np.finfo(float).eps
        data = generate_good_dataset(n, 2 * n, eta, alpha, seed=3)
        for beta in (1e-8, 1e-4, 1e-2):
            for index, seed in ((0, 5), (n, 6), (2 * n - 1, 7)):
                pair = make_neighbor(data, beta, index, seed)
                measured = sensitivity_measured(pair)
                assert measured.frobenius <= 2.0 * np.sqrt(2.0) * alpha * beta / eta
                dev = whitened_eigenvalues(gram_of(pair.perturbed), data.gram_matrix) - 1.0
                assert measured.spectral == pytest.approx(np.abs(dev).max(), rel=0, abs=tol)
                assert measured.frobenius == pytest.approx(np.linalg.norm(dev), rel=0, abs=tol)

    def test_singular_base_gram_raises(self):
        data = Dataset(x=np.diag([1.0, 1e-12]), eta=1e-24, alpha=1.0)
        pair = make_neighbor(data, beta=0.01, index=0, seed=1)
        with pytest.raises(SingularMatrix):
            sensitivity_measured(pair)


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
                    gram_of(pair.perturbed), data.gram_matrix, bound.spectral_bound + 1e-9
                )
                assert np.linalg.eigvalsh(data.gram_matrix.values).min() >= eta - 1e-9
    assert count == 500
    assert violations == 0

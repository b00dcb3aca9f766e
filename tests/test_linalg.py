import numpy as np
import pytest
from scipy import linalg as sla

from dpattn import (
    ParamRange,
    SingularMatrix,
    SymMatrix,
    gaussian_sampling_mechanism,
)
from dpattn.linalg import rank_two_eigenvalues, spectrum_within
from helpers import (is_psd, loewner_within, rand_pd, relative_frobenius_distance,
                     whitened_eigenvalues)


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(m.values, m.values.T)
        assert m.values[0, 1] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ParamRange):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ParamRange):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParamRange):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ParamRange):
            SymMatrix([[np.inf]])

    def test_symmetrizing_keeps_the_largest_finite_entries(self):
        # (M + M.T) / 2 overflows to inf above about 9e307; RuntimeWarnings fail the suite
        assert SymMatrix([[1e308]]).values[0, 0] == 1e308
        big = np.finfo(float).max
        m = SymMatrix([[big, -big], [big, big]])
        assert np.array_equal(m.values, [[big, 0.0], [0.0, big]])

    @pytest.mark.parametrize("scale", [1.0, 1e-155, 1e150, 0.0])
    def test_scaled_gram_is_the_constructor_on_the_product(self, scale):
        # a scaled Gram product root @ root.T / k, the form of every release, is exactly
        # symmetric, so the constructor keeps its bits at normal and zero scale; at
        # subnormal scale it rounds a subnormal's half, by at most one subnormal step
        rs = np.random.default_rng(7)
        tiny = np.finfo(float).smallest_subnormal
        for n, m in ((1, 1), (4, 4), (5, 3), (33, 17), (64, 64)):
            root = scale * rs.standard_normal((n, m))
            for k in (1, 3, 1196713):
                product = root @ root.T / k
                gram = SymMatrix(product)
                assert np.array_equal(product, product.T)
                assert not gram.values.flags.writeable
                if scale == 1e-155:
                    assert np.abs(gram.values - product).max() <= tiny
                else:
                    assert gram.values.tobytes() == product.tobytes()

    def test_values_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestCholesky:
    def test_factor_reconstructs(self):
        gen = np.random.default_rng(11)
        for _ in range(30):
            n = int(gen.integers(1, 8))
            m = SymMatrix(rand_pd(gen, n))
            chol = m.cholesky
            assert np.array_equal(chol, np.tril(chol))
            assert np.linalg.norm(chol @ chol.T - m.values) <= 1e-12 * np.linalg.norm(m.values)

    def test_kept_factor_is_read_only(self):
        m = SymMatrix(rand_pd(np.random.default_rng(4), 3))
        assert m.cholesky is m.cholesky
        with pytest.raises(ValueError):
            m.cholesky[0, 0] = 0.0
        with pytest.raises(AttributeError):
            m.cholesky = np.eye(3)

    def test_one_factor_and_no_eigh(self, monkeypatch):
        # the release, the whitening, the sandwich and the rank-two spectrum
        # all read the one kept factor
        gen = np.random.default_rng(3)
        m, a = SymMatrix(rand_pd(gen, 5)), SymMatrix(rand_pd(gen, 5))
        calls = {"cholesky": 0, "eigh": 0}

        def counting(name, solve):
            def counted(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        assert gaussian_sampling_mechanism(m, 10, 0).whitened is not None
        whitened_eigenvalues(a, m)
        assert loewner_within(m, m, 0.0)
        rank_two_eigenvalues(m, gen.standard_normal(5), gen.standard_normal(5))
        assert calls == {"cholesky": 1, "eigh": 0}

    @pytest.mark.parametrize("b,singular", [
        pytest.param(np.diag([1.0, 1e-9]), True, id="floor"),
        pytest.param(np.diag([1.0, 2e-9]), False, id="above-floor"),
        pytest.param(np.zeros((2, 2)), True, id="zero"),
        pytest.param(np.ones((2, 2)), True, id="rank-one"),
        pytest.param(np.diag([1.0, 1e-10]), True, id="below-floor"),
        pytest.param(1e-10 * np.diag([1.0, 1e-10]), True, id="below-floor-scaled"),
    ])
    def test_floors_agree(self, b, singular):
        # the whitening, the rank-two spectrum and the release's whitened
        # matrix share the one positive-definiteness test
        def raises(check):
            try:
                check()
            except SingularMatrix:
                return True
            return False

        assert raises(lambda: whitened_eigenvalues(np.eye(2), b)) is singular
        assert raises(lambda: rank_two_eigenvalues(b, [1.0, 0.5], [0.1, 0.2])) is singular
        assert (gaussian_sampling_mechanism(b, 10, 0).whitened is None) is singular


class TestIsPsd:
    def test_identity_zero_tol(self):
        assert is_psd(SymMatrix(np.eye(3)))

    def test_negative_eigenvalue(self):
        assert not is_psd(SymMatrix(np.diag([1.0, -0.5])))

    def test_tolerance_absorbs_tiny_negative(self):
        assert is_psd(SymMatrix(np.diag([1.0, -1e-12])))


class TestWhitenedEigenvalues:
    def test_matches_scipy_generalized_eigenvalues(self):
        gen = np.random.default_rng(13)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            a, b = rand_pd(gen, n), rand_pd(gen, n)
            got = whitened_eigenvalues(a, b)
            want = sla.eigh(a, b, eigvals_only=True)[::-1]
            assert np.all(np.diff(got) <= 0)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_diagonal_hand_oracle(self):
        # b^{-1/2} a b^{-1/2} = diag(2/4, 9/1, 3/2), sorted descending
        got = whitened_eigenvalues(SymMatrix(np.diag([2.0, 9.0, 3.0])),
                                   SymMatrix(np.diag([4.0, 1.0, 2.0])))
        assert np.allclose(got, [9.0, 1.5, 0.5], rtol=1e-14, atol=0.0)

    def test_singular_reference(self):
        with pytest.raises(SingularMatrix):
            whitened_eigenvalues(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.0])))

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_do_not_overflow(self):
        got = whitened_eigenvalues(SymMatrix(np.diag([1e308, 1.0])), SymMatrix(np.eye(2)))
        assert got.tolist() == [1e308, 1.0]

    def test_dim_mismatch(self):
        with pytest.raises(ParamRange):
            whitened_eigenvalues(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))


class TestLoewnerWithin:
    def test_reflexive(self):
        gen = np.random.default_rng(17)
        for _ in range(20):
            n = int(gen.integers(2, 7))
            m = SymMatrix(rand_pd(gen, n))
            assert loewner_within(m, m, 0.0)

    def test_double_is_outside(self):
        gen = np.random.default_rng(19)
        b = SymMatrix(rand_pd(gen, 3))
        a = SymMatrix(2.0 * b.values)
        assert not loewner_within(a, b, 0.1)

    def test_scalar_boundary(self):
        assert loewner_within(SymMatrix(1.05 * np.eye(2)), SymMatrix(np.eye(2)), 0.05)

    def test_singular_reference(self):
        with pytest.raises(SingularMatrix):
            loewner_within(SymMatrix(np.eye(2)), SymMatrix(np.diag([1.0, 0.0])), 0.1)

    def test_negative_eps_rejected(self):
        with pytest.raises(ParamRange):
            loewner_within(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)), -0.1)

    def test_dim_mismatch(self):
        with pytest.raises(ParamRange):
            loewner_within(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)), 0.1)

    def test_scale_consistency(self):
        gen = np.random.default_rng(23)
        for _ in range(30):
            n = int(gen.integers(2, 6))
            b = rand_pd(gen, n)
            w, v = np.linalg.eigh(b)
            half = (v * np.sqrt(w)) @ v.T
            s_eigs = gen.uniform(0.8, 1.2, n)
            a = half @ ((v * s_eigs) @ v.T) @ half
            eps = float(gen.uniform(0.05, 0.3))
            reference = loewner_within(a, b, eps)
            for c in (1e-10, 1e-8, 1e-3, 7.0, 1e3):
                assert loewner_within(c * a, c * b, eps) == reference


class TestSpectrumWithin:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1])
    def test_both_tolerance_ends_are_inside(self, eps):
        # the two float endpoints pass, and the next float past either fails
        low, high = 1.0 - eps - 1e-9, 1.0 + eps + 1e-9
        assert spectrum_within(np.array([low, 1.0]), eps)
        assert spectrum_within(np.array([1.0, high]), eps)
        assert not spectrum_within(np.array([np.nextafter(low, 0.0), 1.0]), eps)
        assert not spectrum_within(np.array([1.0, np.nextafter(high, 2.0)]), eps)


class TestRelativeFrobeniusDistance:
    def test_equal(self):
        assert relative_frobenius_distance(SymMatrix(np.eye(3)), SymMatrix(np.eye(3))) <= 1e-9

    def test_doubled_identity(self):
        # deviation matrix is exactly I for n = 2, norm sqrt(2)
        d = relative_frobenius_distance(SymMatrix(np.eye(2)), SymMatrix(2.0 * np.eye(2)))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_equal_diagonal(self):
        m = SymMatrix(np.diag([4.0, 1.0]))
        assert relative_frobenius_distance(m, m) <= 1e-9

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            relative_frobenius_distance(SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.eye(2)))

    def test_dim_mismatch(self):
        with pytest.raises(ParamRange):
            relative_frobenius_distance(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))

import numpy as np
import pytest
from scipy import linalg as sla

from dpattn import (
    DimMismatch,
    InvalidMatrix,
    ParamRange,
    SingularMatrix,
    SymMatrix,
    is_psd,
    loewner_within,
    psd_inv_sqrt,
    sym_eigendecompose,
    whitened_eigenvalues,
)
from helpers import (rand_pd, rand_symmetric, relative_frobenius_distance,
                     sign_rule_loop)


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(m.values, m.values.T)
        assert m.values[0, 1] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.inf]])

    def test_symmetrizing_keeps_the_largest_finite_entries(self):
        # (M + M.T) / 2 overflows to inf above about 9e307; RuntimeWarnings fail the suite
        assert SymMatrix([[1e308]]).values[0, 0] == 1e308
        big = np.finfo(float).max
        m = SymMatrix([[big, -big], [big, big]])
        assert np.array_equal(m.values, [[big, 0.0], [0.0, big]])

    def test_values_read_only(self):
        m = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0


class TestEigendecompose:
    def test_identity(self):
        dec = sym_eigendecompose(SymMatrix.identity(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_axis_aligned(self):
        dec = sym_eigendecompose(SymMatrix.diagonal([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_oracle(self):
        # characteristic polynomial of [[2,1],[1,2]]: t^2 - 4t + 3 = (t-3)(t-1)
        dec = sym_eigendecompose(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_sign_convention(self):
        dec = sym_eigendecompose(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        for j in range(2):
            col = dec.eigenvectors[:, j]
            lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert col[lead] > 0

    def test_deterministic(self):
        gen = np.random.default_rng(5)
        m = SymMatrix(rand_symmetric(gen, 6))
        a = sym_eigendecompose(m)
        b = sym_eigendecompose(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_reconstruction_and_orthonormality(self):
        gen = np.random.default_rng(42)
        for _ in range(100):
            n = int(gen.integers(2, 9))
            m = SymMatrix(rand_symmetric(gen, n, scale=gen.uniform(0.1, 10.0)))
            dec = sym_eigendecompose(m)
            frob = np.linalg.norm(m.values)
            v, w = dec.eigenvectors, dec.eigenvalues
            assert np.linalg.norm((v * w) @ v.T - m.values) <= 1e-8 * max(1.0, frob)
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-8 * n
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_sym_matrix_decomposes_once(self, monkeypatch):
        # psd_inv_sqrt and loewner_within's whitening share the first eigh
        m = SymMatrix(rand_pd(np.random.default_rng(3), 5))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        dec = sym_eigendecompose(m)
        psd_inv_sqrt(m)
        assert loewner_within(m, m, 0.0)
        assert sym_eigendecompose(m) is dec
        assert len(calls) == 1

    def test_kept_arrays_are_read_only(self):
        dec = sym_eigendecompose(SymMatrix(rand_symmetric(np.random.default_rng(4), 3)))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0

    def test_array_input_shares_nothing(self):
        values = rand_symmetric(np.random.default_rng(6), 4)
        kept = sym_eigendecompose(SymMatrix(values))
        a, b = sym_eigendecompose(values), sym_eigendecompose(values)
        assert a is not b
        for name in ("eigenvalues", "eigenvectors"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
            assert getattr(a, name).tobytes() == getattr(kept, name).tobytes()

    @staticmethod
    def loop_oracle(m):
        w, v = np.linalg.eigh(np.asarray(m, dtype=float))
        return sign_rule_loop(v[:, np.argsort(-w, kind="stable")])

    @pytest.mark.parametrize("m", [np.eye(4), np.zeros((3, 3)), np.diag([2.0, 2.0, 1.0]),
                                   np.ones((5, 5)), np.ones((1, 1)), -np.eye(2)],
                             ids=["identity", "zero", "repeated", "all-ones", "one", "neg"])
    def test_sign_rule_matches_loop(self, m):
        assert np.array_equal(sym_eigendecompose(m).eigenvectors, self.loop_oracle(m))

    def test_sign_rule_matches_loop_on_random_matrices(self):
        gen = np.random.default_rng(11)
        for _ in range(300):
            m = rand_symmetric(gen, int(gen.integers(1, 10)))
            assert np.array_equal(sym_eigendecompose(m).eigenvectors, self.loop_oracle(m))

    def test_sign_rule_threshold_and_zero_column(self, monkeypatch):
        # eigh is replaced so the rule sees entries at the 1e-12 threshold
        # and a column with no entry above it
        v = np.array([[-1e-13, 0.0, -1e-12, 0.0],
                      [-0.6, 0.0, 2e-12, 1e-13],
                      [0.8, 0.0, -1.0, -1e-13],
                      [0.0, 0.0, 0.0, 0.0]])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (w.copy(), v.copy()))
        got = sym_eigendecompose(np.eye(4)).eigenvectors
        assert np.array_equal(got, sign_rule_loop(v[:, ::-1]))
        assert np.array_equal(got[:, 3], [1e-13, 0.6, -0.8, 0.0])


class TestIsPsd:
    def test_identity_zero_tol(self):
        assert is_psd(SymMatrix.identity(3))

    def test_negative_eigenvalue(self):
        assert not is_psd(SymMatrix.diagonal([1.0, -0.5]))

    def test_tolerance_absorbs_tiny_negative(self):
        assert is_psd(SymMatrix.diagonal([1.0, -1e-12]))


class TestPsdInvSqrt:
    def test_identity(self):
        assert np.allclose(psd_inv_sqrt(SymMatrix.identity(4)).values, np.eye(4))

    def test_diagonal(self):
        r = psd_inv_sqrt(SymMatrix.diagonal([4.0, 16.0]))
        assert np.allclose(r.values, np.diag([0.5, 0.25]))

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            psd_inv_sqrt(SymMatrix.diagonal([1.0, 0.0]))

    def test_whitening_property(self):
        gen = np.random.default_rng(11)
        for _ in range(30):
            n = int(gen.integers(2, 8))
            m = SymMatrix(rand_pd(gen, n))
            r = psd_inv_sqrt(m).values
            assert np.linalg.norm(r @ m.values @ r - np.eye(n)) <= 1e-7 * n


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
        got = whitened_eigenvalues(SymMatrix.diagonal([2.0, 9.0, 3.0]),
                                   SymMatrix.diagonal([4.0, 1.0, 2.0]))
        assert np.allclose(got, [9.0, 1.5, 0.5], rtol=1e-14, atol=0.0)

    def test_singular_reference(self):
        with pytest.raises(SingularMatrix):
            whitened_eigenvalues(SymMatrix.identity(2), SymMatrix.diagonal([1.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_do_not_overflow(self):
        got = whitened_eigenvalues(SymMatrix.diagonal([1e308, 1.0]), SymMatrix.identity(2))
        assert got.tolist() == [1e308, 1.0]

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            whitened_eigenvalues(SymMatrix.identity(2), SymMatrix.identity(3))


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
        assert loewner_within(SymMatrix(1.05 * np.eye(2)), SymMatrix.identity(2), 0.05)

    def test_singular_reference(self):
        with pytest.raises(SingularMatrix):
            loewner_within(SymMatrix.identity(2), SymMatrix.diagonal([1.0, 0.0]), 0.1)

    def test_negative_eps_rejected(self):
        with pytest.raises(ParamRange):
            loewner_within(SymMatrix.identity(2), SymMatrix.identity(2), -0.1)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loewner_within(SymMatrix.identity(2), SymMatrix.identity(3), 0.1)

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


class TestRelativeFrobeniusDistance:
    def test_equal(self):
        assert relative_frobenius_distance(SymMatrix.identity(3), SymMatrix.identity(3)) <= 1e-9

    def test_doubled_identity(self):
        # deviation matrix is exactly I for n = 2, norm sqrt(2)
        d = relative_frobenius_distance(SymMatrix.identity(2), SymMatrix(2.0 * np.eye(2)))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_equal_diagonal(self):
        m = SymMatrix.diagonal([4.0, 1.0])
        assert relative_frobenius_distance(m, m) <= 1e-9

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            relative_frobenius_distance(SymMatrix.diagonal([1.0, 0.0]), SymMatrix.identity(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            relative_frobenius_distance(SymMatrix.identity(2), SymMatrix.identity(3))

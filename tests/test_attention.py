import math

import numpy as np
import pytest

from dpattn import (
    Activation,
    DimMismatch,
    Overflow,
    ParamRange,
    PreconditionFailed,
    SymMatrix,
    attention_error,
    attention_matrix,
    entrywise_activation,
    perturbation_chain_check,
    theoretical_error_bound,
)
from helpers import chain_pair, rand_psd


class TestEntrywiseActivation:
    def test_zero_matrix(self):
        for kind in Activation:
            out = entrywise_activation(SymMatrix.zeros(2), kind)
            assert np.array_equal(out.values, np.ones((2, 2)))

    def test_closed_form(self):
        out = entrywise_activation(SymMatrix.diagonal([math.log(2.0), 0.0]), Activation.EXP)
        assert np.allclose(out.values, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_symmetry_exact(self):
        gen = np.random.default_rng(3)
        m = SymMatrix(rand_psd(gen, 5) * 0.01)
        out = entrywise_activation(m, Activation.COSH)
        assert np.array_equal(out.values, out.values.T)

    def test_overflow(self):
        with pytest.raises(Overflow):
            entrywise_activation(SymMatrix(np.full((2, 2), 1000.0)), Activation.EXP)


class TestAttentionMatrix:
    def test_uniform_for_zero_logits(self):
        out = attention_matrix(SymMatrix.zeros(4), Activation.EXP)
        assert np.allclose(out, np.full((4, 4), 0.25))

    def test_single_row(self):
        assert np.allclose(attention_matrix(SymMatrix([[12.3]]), Activation.EXP), [[1.0]])

    def test_closed_form(self):
        m = SymMatrix([[0.0, math.log(2.0)], [math.log(2.0), 0.0]])
        out = attention_matrix(m, Activation.EXP)
        assert np.allclose(out, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15)

    def test_row_sums_and_entry_range(self):
        gen = np.random.default_rng(101)
        for _ in range(1000):
            n = int(gen.integers(1, 7))
            m = SymMatrix(rand_psd(gen, n) * 0.05)
            kind = Activation.EXP if gen.integers(2) else Activation.COSH
            out = attention_matrix(m, kind)
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12 * n
            assert out.min() > 0.0
            assert out.max() <= 1.0


class TestAttentionError:
    def test_zero_for_equal(self):
        gen = np.random.default_rng(5)
        m = SymMatrix(rand_psd(gen, 3) * 0.03)
        assert attention_error(m, m, Activation.EXP) == 0.0
        assert attention_error(SymMatrix.zeros(2), SymMatrix.zeros(2), Activation.COSH) == 0.0

    def test_symmetric_in_arguments(self):
        gen = np.random.default_rng(6)
        a = SymMatrix(rand_psd(gen, 3) * 0.03)
        b = SymMatrix(rand_psd(gen, 3) * 0.03)
        assert attention_error(a, b, Activation.EXP) == attention_error(b, a, Activation.EXP)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            attention_error(SymMatrix.identity(2), SymMatrix.identity(3), Activation.EXP)

    def test_direct_evaluation_oracle(self):
        a = np.diag([0.05, 0.05])
        b = np.diag([0.04, 0.04])
        # independent evaluation with raw numpy
        fa, fb = np.exp(a), np.exp(b)
        expected = np.abs(fa / fa.sum(1)[:, None] - fb / fb.sum(1)[:, None]).max()
        got = attention_error(SymMatrix(a), SymMatrix(b), Activation.EXP)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0


class TestTheoreticalErrorBound:
    def test_reference_values(self):
        assert theoretical_error_bound(0.05, 0.05) == pytest.approx(0.23, rel=1e-12)
        assert theoretical_error_bound(0.1, 0.1) == pytest.approx(0.52, rel=1e-12)

    def test_vanishes_in_the_limit(self):
        assert theoretical_error_bound(1e-6, 1e-6) < 1e-5

    def test_param_range(self):
        for eps, r in ((0.2, 0.05), (0.05, 0.2), (0.0, 0.05), (0.05, 0.0), (-0.1, 0.05)):
            with pytest.raises(ParamRange):
                theoretical_error_bound(eps, r)


class TestSeriesInequalities:
    def test_exp_and_cosh_deviation_bounds(self):
        gen = np.random.default_rng(77)
        x = gen.uniform(-0.1, 0.1, 10_000)
        assert np.all(np.abs(np.exp(x) - 1.0) <= np.abs(x) + x * x)
        assert np.all(np.abs(np.cosh(x) - 1.0) <= x * x)


class TestPerturbationChain:
    def test_trivial_pair_passes(self):
        m = SymMatrix(0.01 * np.eye(2))
        report = perturbation_chain_check(m, m, eps=0.05, r=0.05, kind=Activation.EXP)
        assert report.all_passed
        by_name = {s.name: s for s in report.stages}
        assert by_name["activation_ratio"].measured == 0.0
        assert by_name["normalizer_ratio"].measured == 0.0
        assert by_name["attention_bound"].measured == 0.0

    def test_upper_boundary_pair_passes(self):
        base = SymMatrix(0.05 * np.eye(2))
        perturbed = SymMatrix(base.values / 1.05)
        report = perturbation_chain_check(base, perturbed, 0.05, 0.05, Activation.EXP)
        assert report.all_passed

    def test_lower_boundary_entry_stage_reported_honestly(self):
        # With the whitened spectrum pinned at 1 - eps, the perturbed entries
        # reach r / (1 - eps) which exceeds the printed (1 + eps) r stage
        # bound; the checker must report that stage as failed while the rest
        # of the chain still holds.
        base = SymMatrix(0.05 * np.eye(2))
        perturbed = SymMatrix(base.values / (1.0 - 0.05))
        report = perturbation_chain_check(base, perturbed, 0.05, 0.05, Activation.EXP)
        by_name = {s.name: s for s in report.stages}
        assert not by_name["entry_range"].passed
        assert by_name["entry_range"].measured == pytest.approx(0.05 / 0.95, rel=1e-12)
        assert by_name["activation_ratio"].passed
        assert by_name["normalizer_ratio"].passed
        assert by_name["attention_bound"].passed

    def test_entry_bound_precondition(self):
        base = SymMatrix(np.diag([0.2, 0.1]))
        with pytest.raises(PreconditionFailed) as err:
            perturbation_chain_check(base, base, 0.05, 0.05, Activation.EXP)
        assert err.value.requirement == "entry_bound"

    def test_psd_precondition(self):
        base = SymMatrix(np.diag([0.05, -0.05]))
        with pytest.raises(PreconditionFailed) as err:
            perturbation_chain_check(base, base, 0.05, 0.05, Activation.EXP)
        assert err.value.requirement == "psd_base"

    def test_loewner_precondition(self):
        base = SymMatrix(0.01 * np.eye(2))
        far = SymMatrix(0.03 * np.eye(2))
        with pytest.raises(PreconditionFailed) as err:
            perturbation_chain_check(base, far, 0.05, 0.05, Activation.EXP)
        assert err.value.requirement == "loewner"

    def test_range_preconditions(self):
        m = SymMatrix(0.01 * np.eye(2))
        with pytest.raises(PreconditionFailed) as err:
            perturbation_chain_check(m, m, 0.5, 0.05, Activation.EXP)
        assert err.value.requirement == "eps_range"
        with pytest.raises(PreconditionFailed) as err:
            perturbation_chain_check(m, m, 0.05, 0.5, Activation.EXP)
        assert err.value.requirement == "r_range"

    @pytest.mark.parametrize("kind", list(Activation))
    def test_random_constructed_pairs_all_pass(self, kind):
        gen = np.random.default_rng(20_240 if kind is Activation.EXP else 20_241)
        for _ in range(1000):
            n = int(gen.integers(2, 7))
            eps = float(gen.uniform(0.01, 0.1))
            r = float(gen.uniform(0.01, 0.1))
            base, perturbed = chain_pair(gen, n, eps, r)
            report = perturbation_chain_check(base, perturbed, eps, r, kind)
            assert report.all_passed, [
                (s.name, s.measured, s.bound) for s in report.stages if not s.passed
            ]

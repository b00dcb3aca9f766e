import math
import warnings

import numpy as np
import pytest

from dpattn import (
    Activation,
    Overflow,
    ParamRange,
    RequirementCheck,
    SymMatrix,
    attention_matrix,
    theoretical_error_bound,
)
from dpattn.attention import _activation, perturbation_chain_check
from helpers import chain_pair, chain_spectrum, rand_psd


class TestEntrywiseActivation:
    """The core ``_activation`` that ``attention_matrix`` and the chain share."""

    def test_zero_matrix(self):
        for kind in Activation:
            out = _activation(np.zeros((2, 2)), kind)
            assert np.array_equal(out, np.ones((2, 2)))

    def test_closed_form(self):
        out = _activation(np.diag([math.log(2.0), 0.0]), Activation.EXP)
        assert np.allclose(out, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_symmetry_exact(self):
        gen = np.random.default_rng(3)
        m = SymMatrix(rand_psd(gen, 5) * 0.01)
        out = _activation(m.values, Activation.COSH)
        assert np.array_equal(out, out.T)

    def test_overflow(self):
        m = SymMatrix(np.full((2, 2), 1000.0))
        for call in (lambda: _activation(m.values, Activation.EXP),
                     lambda: attention_matrix(m, Activation.EXP)):
            with pytest.raises(Overflow):
                call()


class TestAttentionMatrix:
    def test_uniform_for_zero_logits(self):
        out = attention_matrix(SymMatrix(np.zeros((4, 4))), Activation.EXP)
        assert np.allclose(out, np.full((4, 4), 0.25))

    def test_read_only(self):
        out = attention_matrix(SymMatrix(np.zeros((2, 2))), Activation.COSH)
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 0.0

    def test_single_row(self):
        assert np.allclose(attention_matrix(SymMatrix([[12.3]]), Activation.EXP), [[1.0]])

    def test_closed_form(self):
        m = SymMatrix([[0.0, math.log(2.0)], [math.log(2.0), 0.0]])
        out = attention_matrix(m, Activation.EXP)
        assert np.allclose(out, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15)

    def test_activation_near_the_double_range(self):
        # exp(709.5) = 1.35e308 is finite, so the map is defined: finite rows summing to 1
        out = attention_matrix(SymMatrix([[709.5, 0.0], [0.0, 0.0]]), Activation.EXP)
        assert np.isfinite(out).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-15
        assert out[1, 0] == out[1, 1] == 0.5

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


def chain(a, b, eps, r, kind=Activation.EXP):
    """The chain on the values of ``(a, b)`` with the spectrum of ``b`` whitened by ``a``."""
    return perturbation_chain_check(a.values, b.values, chain_spectrum(a, b), eps, r, kind)


class TestPerturbationChain:
    def test_trivial_pair_passes(self):
        m = SymMatrix(0.01 * np.eye(2))
        report = chain(m, m, eps=0.05, r=0.05)
        assert all(s.passed for s in report.stages)
        by_name = {s.name: s for s in report.stages}
        assert by_name["loewner"].measured == 0.0
        assert by_name["activation_ratio"].measured == 0.0
        assert by_name["normalizer_ratio"].measured == 0.0
        assert by_name["attention_bound"].measured == 0.0

    def test_maps_are_the_attention_matrices(self):
        gen = np.random.default_rng(5)
        base, perturbed = chain_pair(gen, 4, 0.05, 0.05)
        report = chain(base, perturbed, 0.05, 0.05, Activation.COSH)
        for m, att in ((base, report.attention_base), (perturbed, report.attention_perturbed)):
            assert np.array_equal(att, attention_matrix(m, Activation.COSH))
            with pytest.raises(ValueError, match="read-only"):
                att[0, 0] = 0.0
        assert report.stages[-1].measured == \
            np.abs(report.attention_base - report.attention_perturbed).max()

    def test_upper_boundary_pair_passes(self):
        base = SymMatrix(0.05 * np.eye(2))
        perturbed = SymMatrix(base.values / 1.05)
        report = chain(base, perturbed, 0.05, 0.05)
        assert all(s.passed for s in report.stages)

    def test_lower_boundary_entry_stage_reported_honestly(self):
        # With the whitened spectrum pinned at 1 - eps, the perturbed entries
        # reach r / (1 - eps) which exceeds the printed (1 + eps) r stage
        # bound; the checker must report that stage as failed while the rest
        # of the chain still holds.
        base = SymMatrix(0.05 * np.eye(2))
        perturbed = SymMatrix(base.values / (1.0 - 0.05))
        report = chain(base, perturbed, 0.05, 0.05)
        by_name = {s.name: s for s in report.stages}
        assert not by_name["entry_range"].passed
        assert by_name["entry_range"].measured == pytest.approx(0.05 / 0.95, rel=1e-12)
        assert by_name["loewner"].passed
        assert by_name["activation_ratio"].passed
        assert by_name["normalizer_ratio"].passed
        assert by_name["attention_bound"].passed

    def test_attention_bound_passes_at_equality(self):
        # At r = 1/16 every step of 4 (1 + eps + 2r) r is exact, (1 + eps + 1/8) / 4, so
        # eps = 4 E - 9/8 puts the bound on any error E in [9/32, 49/160]; E does not
        # depend on eps.
        base, perturbed = SymMatrix(np.zeros((2, 2))), SymMatrix(np.diag([1.36, 1.36]))
        error = chain(base, perturbed, 0.05, 0.0625).stages[-1].measured
        eps = 4.0 * error - 1.125
        assert 0.0 < eps <= 0.1
        check = chain(base, perturbed, eps, 0.0625).stages[-1]
        assert check.name == "attention_bound"
        assert check.measured == check.required == error
        assert check.passed

    def test_entry_range_passes_at_equality(self):
        # a perturbed entry on the stage bound (1 + eps) r, as the chain rounds it
        bound = (1.0 + 0.05) * 0.05
        base, perturbed = SymMatrix(0.05 * np.eye(2)), SymMatrix(np.diag([bound, 0.05]))
        check = chain(base, perturbed, 0.05, 0.05).stages[1]
        assert check.name == "entry_range"
        assert check.measured == check.required == bound
        assert check.passed

    @pytest.mark.parametrize("stage, step", [(2, 0.137), (3, 0.258)])
    def test_ratio_checks_pass_at_equality(self, stage, step):
        # At r = 1/16 the ratio bound (2 + 2 eps + 4r) r is (2.25 + 2 eps) / 16, exact
        # for 16 R in [2.25, 2.45], so eps = (16 R - 2.25) / 2 puts it on a ratio R in
        # [9/64, 49/320].  Against zero logits, diag(s, s) has activation ratio e^s - 1
        # and normalizer ratio (e^s - 1) / 2, neither depending on eps.
        base, perturbed = SymMatrix(np.zeros((2, 2))), SymMatrix(np.diag([step, step]))
        ratio = chain(base, perturbed, 0.05, 0.0625).stages[stage].measured
        eps = (16.0 * ratio - 2.25) / 2.0
        assert 0.0 < eps <= 0.1
        check = chain(base, perturbed, eps, 0.0625).stages[stage]
        assert check.name == ("activation_ratio", "normalizer_ratio")[stage - 2]
        assert check.measured == check.required == ratio
        assert check.passed

    def test_stages_are_requirement_checks(self):
        # the lower boundary pair, whose entry stage fails
        base = SymMatrix(0.05 * np.eye(2))
        perturbed = SymMatrix(base.values / (1.0 - 0.05))
        report = chain(base, perturbed, 0.05, 0.05)
        assert [s.name for s in report.stages] == [
            "loewner", "entry_range", "activation_ratio", "normalizer_ratio", "attention_bound"]
        for stage in report.stages:
            assert type(stage) is RequirementCheck and not stage.warning_only
        for stage in report.stages[1:]:
            assert stage.passed == (stage.measured <= stage.required)
        assert report.stages[0].required == 0.05
        assert report.stages[-1].required == theoretical_error_bound(0.05, 0.05)
        assert not all(s.passed for s in report.stages)

    def test_loewner_within_its_tolerance(self):
        # spectrum_within's 1e-9 tolerance: the check passes a measured level
        # just above eps, and fails one past the tolerance
        m = SymMatrix(0.01 * np.eye(2))
        for excess, passed in ((5e-10, True), (2e-9, False)):
            mu = np.full(2, 1.0 / (1.0 + 0.05 + excess))
            report = perturbation_chain_check(m.values, m.values, mu, 0.05, 0.05,
                                              Activation.EXP)
            assert report.stages[0].passed is passed
            assert report.stages[0].measured == pytest.approx(0.05 + excess, abs=1e-15)

    def test_entry_bound_precondition(self):
        # the base exceeds r: no check of the chain names the base's entries,
        # and the perturbed entries (here the same) fail entry_range
        base = SymMatrix(np.diag([0.2, 0.1]))
        by_name = {s.name: s for s in chain(base, base, 0.05, 0.05).stages}
        assert not by_name["entry_range"].passed
        assert by_name["entry_range"].measured == 0.2
        assert by_name["loewner"].passed

    def test_psd_precondition(self):
        # no Cholesky factor, so no whitened spectrum: the sandwich is undefined
        base = SymMatrix(np.diag([0.05, -0.05]))
        report = chain(base, base, 0.05, 0.05)
        assert report.stages[0].name == "loewner"
        assert not report.stages[0].passed and report.stages[0].measured == math.inf
        assert len(report.stages) == 5

    def test_psd_perturbed_precondition(self):
        # a positive definite base, a perturbed matrix of rank one: mu has a 0
        base = SymMatrix(0.01 * np.eye(2))
        perturbed = SymMatrix([[0.01, 0.0], [0.0, 0.0]])
        mu = chain_spectrum(base, perturbed)
        assert mu.min() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the zero eigenvalue
            report = perturbation_chain_check(base.values, perturbed.values, mu, 0.05, 0.05,
                                              Activation.EXP)
        assert not report.stages[0].passed and report.stages[0].measured == math.inf

    def test_loewner_precondition(self):
        base = SymMatrix(0.01 * np.eye(2))
        far = SymMatrix(0.03 * np.eye(2))
        report = chain(base, far, 0.05, 0.05)
        assert not report.stages[0].passed
        assert report.stages[0].measured == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert not all(s.passed for s in report.stages)

    def test_range_preconditions(self):
        m = SymMatrix(0.01 * np.eye(2))
        for eps, r in ((0.5, 0.05), (0.05, 0.5), (0.0, 0.05), (0.05, math.nan)):
            with pytest.raises(ParamRange):
                chain(m, m, eps, r)

    @pytest.mark.parametrize("kind", list(Activation))
    def test_random_constructed_pairs_all_pass(self, kind):
        gen = np.random.default_rng(20_240 if kind is Activation.EXP else 20_241)
        for _ in range(1000):
            n = int(gen.integers(2, 7))
            eps = float(gen.uniform(0.01, 0.1))
            r = float(gen.uniform(0.01, 0.1))
            base, perturbed = chain_pair(gen, n, eps, r)
            report = chain(base, perturbed, eps, r, kind)
            assert all(s.passed for s in report.stages), [
                (s.name, s.measured, s.required) for s in report.stages if not s.passed
            ]

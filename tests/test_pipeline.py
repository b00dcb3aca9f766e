import ast
import dataclasses
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import dpattn
from dpattn import (
    Activation,
    Dataset,
    DpAttentionReport,
    DpParams,
    MechanismOutput,
    NeighborPair,
    NeighborPrivacyReport,
    ParamRange,
    PrivacyLoss,
    SymMatrix,
    attention,
    dataset,
    dp_attention,
    gaussian_sampling_mechanism,
    generate_good_dataset,
    linalg,
    make_neighbor,
    mechanism,
    neighbor_loss,
    pipeline,
    privacy,
    rng,
    privacy_loss_samples,
    required_samples,
    sensitivity_bound,
    utility_radius,
    verify_neighbor_privacy,
    wilson_upper,
)
from dpattn.attention import ChainReport, perturbation_chain_check
from dpattn.cli import _jsonable
from helpers import (check_named, conversion_holds, loewner_event, privacy_loss,
                     sensitivity_measured)

EXPECTED_CHECK_NAMES = ["entry_bound", "eta_below_r", "sensitivity", "utility"]
CHAIN_CHECK_NAMES = ["loewner", "entry_range", "activation_ratio", "normalizer_ratio",
                     "attention_bound"]


def fast_params(seed=0, k=None, gamma=0.3):
    if k is None:
        k = required_samples(2, gamma, 0.004, 1.0)
    return DpParams(
        eps=0.05, delta=0.01, gamma=gamma, k=k, r=0.05,
        kind=Activation.EXP, utility_const=1.0, seed=seed,
    )


def fast_dataset():
    return generate_good_dataset(2, 4, eta=0.01, alpha=0.11, seed=7)


class TestDpParams:
    def test_valid(self):
        fast_params()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("eps", 0.2), ("eps", 0.0),
            ("delta", 0.2), ("delta", 0.0),
            ("gamma", 0.0), ("gamma", 1.0),
            ("k", 0), ("k", 1.5), ("k", True),
            ("r", 0.2), ("r", -0.1),
            ("utility_const", 0.0), ("utility_const", float("nan")),
            ("utility_const", float("inf")),
            ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", False),
        ],
    )
    def test_range_violations(self, field, value):
        kwargs = dict(eps=0.05, delta=0.01, gamma=0.3, k=10, r=0.05,
                      kind=Activation.EXP, utility_const=1.0, seed=0)
        kwargs[field] = value
        with pytest.raises(ParamRange):
            DpParams(**kwargs)

    def test_kind_must_be_activation(self):
        with pytest.raises(ParamRange):
            DpParams(eps=0.05, delta=0.01, gamma=0.3, k=10, r=0.05,
                     kind="exp", utility_const=1.0, seed=0)


class TestDpAttention:
    def test_rejects_non_finite_beta(self):
        for beta in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ParamRange):
                dp_attention(fast_dataset(), beta, fast_params())

    def test_reuses_what_it_computed(self):
        data = fast_dataset()
        params = fast_params()
        report = dp_attention(data, 1e-9, params)
        sensitivity = check_named(report.requirement_checks, "sensitivity")
        assert sensitivity.measured == \
            sensitivity_bound(data.eta, data.alpha, 1e-9, data.n).frobenius_bound
        assert sensitivity.required == privacy.sensitivity_budget(params.eps, params.delta,
                                                                  params.k)
        assert check_named(report.requirement_checks, "utility").measured == \
            utility_radius(data.n, params.gamma, params.k, params.utility_const)
        assert report.measured_error == \
            np.abs(report.attention_base - report.attention_released).max()
        for matrix, att in ((report.gram_matrix, report.attention_base),
                            (report.released, report.attention_released)):
            assert np.array_equal(att, attention.attention_matrix(matrix, params.kind))

    def test_the_arrays_are_read_only(self):
        # the report is frozen, and so are its arrays: the Gram matrix's own values, the
        # release and both attention maps
        report = dp_attention(fast_dataset(), 1e-8, fast_params())
        for arr in (report.gram_matrix, report.released, report.attention_base,
                    report.attention_released):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0

    def test_certified_end_to_end(self):
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params())
        assert report.certified
        assert report.measured_error <= report.error_bound
        assert report.loewner_eps_event
        assert conversion_holds(report)
        assert all(c.passed for c in report.requirement_checks)
        # released attention is row stochastic
        assert np.abs(report.attention_released.sum(axis=1) - 1.0).max() <= 1e-12 * 2

    def test_completes_at_huge_k(self):
        # k * n direct normals would allocate 32 GB here; the sensitivity budget
        # shrinks with k, so the release is not certified.
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params(k=10**9))
        assert report.attention_released.shape == (2, 2)

    def test_report_check_names_complete_and_ordered(self):
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params())
        assert [c.name for c in report.requirement_checks] == EXPECTED_CHECK_NAMES
        warnings_only = [c.name for c in report.requirement_checks if c.warning_only]
        assert warnings_only == ["eta_below_r"]

    def test_utility_gate_failure(self):
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params(k=10))
        assert not report.certified
        failing = {c.name for c in report.requirement_checks if not c.passed}
        assert "utility" in failing

    def test_sensitivity_gate_failure(self):
        report = dp_attention(fast_dataset(), beta=1.0, params=fast_params())
        assert not report.certified
        failing = {c.name for c in report.requirement_checks if not c.passed}
        assert failing == {"sensitivity"}

    def test_sensitivity_bound_on_the_budget_passes(self):
        # 2 alpha beta sqrt(n) / eta is exactly 8 beta here; the check is
        # <=, as the certificate's sensitivity check on the same budget
        data = generate_good_dataset(1, 2, eta=0.0625, alpha=0.25, seed=1)
        params = fast_params(k=1_196_713)
        beta = privacy.sensitivity_budget(params.eps, params.delta, params.k) / 8
        check = check_named(dp_attention(data, beta, params).requirement_checks, "sensitivity")
        assert check.measured == check.required
        assert check.passed

    def test_utility_radius_on_the_bound_passes(self):
        # a utility constant whose radius lands exactly on 0.1 eps
        target, gamma = 0.1 * fast_params().eps, fast_params().gamma
        k, scale = next((k, c) for k in range(2, 1000)
                        for c in [target / utility_radius(2, gamma, k, 1.0)]
                        if utility_radius(2, gamma, k, c) == target)
        params = dataclasses.replace(fast_params(k=k), utility_const=scale)
        check = check_named(dp_attention(fast_dataset(), 1e-8, params).requirement_checks,
                            "utility")
        assert check.measured == check.required
        assert check.passed

    def test_entry_bound_on_r_passes(self):
        # one row of norm 1/4: the Gram matrix is the single entry 1/16, exactly r
        data = Dataset(x=np.array([[0.25, 0.0]]), eta=0.0625, alpha=0.25)
        params = dataclasses.replace(fast_params(), r=0.0625)
        check = check_named(dp_attention(data, 1e-8, params).requirement_checks, "entry_bound")
        assert check.measured == check.required == 0.0625
        assert check.passed

    def test_entry_bound_gate_failure(self):
        # eta alone pushes the diagonal above r
        wide = generate_good_dataset(2, 4, eta=0.09, alpha=0.3, seed=1)
        report = dp_attention(wide, beta=1e-10, params=fast_params())
        failing = {c.name for c in report.requirement_checks if not c.passed}
        assert "entry_bound" in failing
        assert not report.certified

    def test_singular_estimate_flagged(self):
        # k < n, both in the report, is what makes the release singular
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params(k=1))
        assert report.params.k < len(report.gram_matrix)
        assert np.linalg.matrix_rank(report.released) == report.params.k
        assert not report.loewner_eps_event
        assert not report.certified

    def test_certified_is_its_checks_event_and_bound(self):
        data = fast_dataset()
        seen = set()
        for k, beta in ((None, 1e-8), (1, 1e-8), (10, 1e-8), (20_000, 1e-8), (None, 1.0)):
            for seed in range(3):
                report = dp_attention(data, beta, fast_params(seed=seed, k=k))
                hard = all(c.passed for c in report.requirement_checks if not c.warning_only)
                assert report.certified == (hard and report.loewner_eps_event
                                            and report.measured_error <= report.error_bound)
                seen.add(report.certified)
        assert seen == {True, False}

    def test_missed_sandwich_is_not_certified(self):
        # a small utility constant passes every hard check at k = 50, where
        # the release misses the eps sandwich while the attention bound holds
        params = dataclasses.replace(fast_params(k=50), utility_const=1e-3)
        report = dp_attention(fast_dataset(), 1e-8, params)
        assert all(c.passed for c in report.requirement_checks)
        assert check_named(report.chain, "attention_bound").passed
        assert not check_named(report.chain, "loewner").passed
        assert not report.certified

    def test_eta_warning_does_not_gate(self):
        # eta = 0.04 < r = 0.05 keeps the warning green; flip it by raising
        # eta above r while keeping entries under r is impossible (the
        # diagonal carries eta), so check the warning-only wiring instead
        report = dp_attention(fast_dataset(), beta=1e-8, params=fast_params())
        eta_check = next(c for c in report.requirement_checks if c.name == "eta_below_r")
        assert eta_check.warning_only
        assert eta_check.passed

    def test_monotone_utility_in_k(self):
        gamma = 0.3
        radii = [utility_radius(2, gamma, k, 1.0) for k in (10, 100, 10_000, 10**6)]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_deterministic_report(self):
        a = dp_attention(fast_dataset(), beta=1e-8, params=fast_params(seed=5))
        b = dp_attention(fast_dataset(), beta=1e-8, params=fast_params(seed=5))
        assert np.array_equal(a.released, b.released)
        assert a.measured_error == b.measured_error

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("eta", [1e-2, 1e-4])
    def test_events_match_the_whitening_oracle(self, n, eta):
        # Both events come from the spectrum of the mechanism's T T^T / k; the
        # oracle whitens the actual matrices, the release by the Gram matrix
        # for rho and the Gram matrix by the release for eps.
        data = generate_good_dataset(n, 2 * n, eta=eta, alpha=0.11, seed=n)
        seen = set()
        for k in sorted({1, 2, n, n + 1, *(10**e for e in range(1, 8))}):
            for eps in (0.01, 0.05, 0.1):
                for seed in range(6):
                    params = DpParams(eps=eps, delta=0.01, gamma=0.05, k=k, r=0.1,
                                      kind=Activation.EXP, utility_const=1.0, seed=seed)
                    report = dp_attention(data, 1e-8, params)
                    rho = check_named(report.requirement_checks, "utility").measured
                    rho_event = loewner_event(report.released, report.gram_matrix, rho)
                    eps_event = loewner_event(report.gram_matrix, report.released, eps)
                    assert report.loewner_rho_event is rho_event
                    assert report.loewner_eps_event is eps_event
                    seen.add(eps_event)
        assert seen == {True, False}

    @pytest.mark.parametrize("k", [1, 2, 10, 10**6])
    def test_events_false_on_a_singular_gram(self, k):
        # the Gram matrix meets its declared floor but fails the Cholesky floor
        x = np.zeros((3, 6))
        x[:, :3] = np.diag([0.1, 1e-7, 1e-7])
        data = Dataset(x=x, eta=1e-14, alpha=0.11)
        report = dp_attention(data, 1e-8, fast_params(k=k))
        assert report.loewner_rho_event is False
        assert report.loewner_eps_event is False
        rho = check_named(report.requirement_checks, "utility").measured
        assert loewner_event(report.released, report.gram_matrix, rho) is False
        assert loewner_event(report.gram_matrix, report.released, 0.05) is False

    def test_no_eigh_and_one_eigvalsh(self, monkeypatch):
        # eigvalsh: the whitened release; cholesky: the mechanism's factor of
        # the Gram matrix, which the Gram matrix keeps, so a second release on
        # the Dataset makes none.  No array is checked: the Dataset was checked
        # when it was made, and the release, its whitened draw and their
        # spectrum mu are the release's own.  Two generators: the two Bartlett
        # substreams.
        data = fast_dataset()
        calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0, "check_array": 0, "generator": 0}

        def counting(name, solve):
            def counted(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return counted

        for name in ("eigh", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for module in (linalg, dataset, privacy):
            monkeypatch.setattr(module, "check_array", counting("check_array", module.check_array))
        monkeypatch.setattr(rng, "generator", counting("generator", rng.generator))
        dp_attention(data, 1e-8, fast_params())
        assert calls == {"eigh": 0, "eigvalsh": 1, "cholesky": 1, "check_array": 0,
                         "generator": 2}
        calls.update(dict.fromkeys(calls, 0))
        dp_attention(data, 1e-8, fast_params(seed=1))
        assert calls == {"eigh": 0, "eigvalsh": 1, "cholesky": 0, "check_array": 0,
                         "generator": 2}

    def test_the_chain_runs_once_by_its_public_name(self, monkeypatch):
        # a release calls the chain by its public name in attention, the binding a
        # tracer wraps, once, on the Gram matrix's values and the release
        calls = []
        chain = attention.perturbation_chain_check

        def counted(*args):
            calls.append(args)
            return chain(*args)

        for module in (attention, pipeline):
            monkeypatch.setattr(module, "perturbation_chain_check", counted)
        report = dp_attention(fast_dataset(), 1e-8, fast_params())
        assert len(calls) == 1
        assert calls[0][0] is report.gram_matrix and calls[0][1] is report.released

    def test_shared_dataset_matches_fresh_datasets(self):
        # the kept factor changes no byte of any report
        for n in (1, 2, 4, 8):
            shared = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=n)
            for k in sorted({1, n, n + 1, 1_196_713}):
                for kind in Activation:
                    for seed in range(3):
                        params = dataclasses.replace(fast_params(seed=seed, k=k), kind=kind)
                        fresh = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=n)
                        shared_doc, fresh_doc = (
                            json.dumps(_jsonable(dp_attention(d, 1e-8, params)))
                            for d in (shared, fresh))
                        assert shared_doc == fresh_doc

    def test_chain_states_the_report_scalars(self):
        # 240 releases: the chain's loewner check is the eps event and the
        # whitening oracle on the actual matrices, and its attention_bound
        # check carries measured_error and error_bound bit for bit.  The
        # release runs the chain and builds its matrices unchecked; the checked
        # entry points give the same bits.
        seen = set()
        for n in (2, 4, 8):
            data = generate_good_dataset(n, 2 * n, eta=0.01, alpha=0.11, seed=n)
            for k in (n, 50, 5000, 1_196_713):
                for kind in Activation:
                    for seed in range(10):
                        params = DpParams(eps=0.05, delta=0.01, gamma=0.05, k=k, r=0.1,
                                          kind=kind, utility_const=1.0, seed=seed)
                        report = dp_attention(data, 1e-8, params)
                        assert [c.name for c in report.chain] == CHAIN_CHECK_NAMES
                        loewner = check_named(report.chain, "loewner")
                        oracle = loewner_event(report.gram_matrix, report.released, 0.05)
                        assert loewner.passed is report.loewner_eps_event is oracle
                        error = check_named(report.chain, "attention_bound")
                        assert error.measured == report.measured_error
                        assert error.required == report.error_bound
                        whitened = gaussian_sampling_mechanism(data.gram_matrix, k,
                                                               seed).whitened
                        checked = perturbation_chain_check(
                            report.gram_matrix, report.released,
                            np.linalg.eigvalsh(whitened), 0.05, 0.1, kind)
                        assert checked.stages == report.chain
                        assert checked.attention_base.tobytes() == \
                            report.attention_base.tobytes()
                        assert checked.attention_perturbed.tobytes() == \
                            report.attention_released.tobytes()
                        assert SymMatrix(report.released).values.tobytes() == \
                            report.released.tobytes()
                        seen.add(loewner.passed)
        assert seen == {True, False}

    def test_conversion_holds_across_seeds(self):
        data = fast_dataset()
        for seed in range(10):
            report = dp_attention(data, beta=1e-8, params=fast_params(seed=seed, k=20_000))
            assert conversion_holds(report)


class TestVerifyNeighborPrivacy:
    def test_identical_pair_trivially_certified(self):
        data = fast_dataset()
        pair = NeighborPair(base=data, perturbed=data.x.copy(), beta=0.001, index=0)
        report = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=0)
        assert report.certificate.granted
        assert report.empirical_rate == 0.0
        assert report.samples.shape == (1000,)

    def test_oversized_perturbation_denied(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=2.0, seed=3)
        pair = make_neighbor(data, beta=0.5, index=1, seed=4)
        report = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=0)
        assert not report.certificate.granted
        assert not check_named(report.certificate.checks, "sensitivity").passed

    def test_spectrum_computed_once(self, monkeypatch):
        # one loss of the rank-two spectrum feeds both sides, and the draws are one
        # (trials, 2) chi-square block whatever n is
        calls, shapes = [], []
        chi_squares = rng.chi_squares

        def counted(pair, k):
            calls.append(pair)
            return neighbor_loss(pair, k)

        def drawn(df, shape, gen):
            shapes.append(shape)
            return chi_squares(df, shape, gen)

        monkeypatch.setattr(pipeline, "neighbor_loss", counted)
        monkeypatch.setattr(rng, "chi_squares", drawn)
        data = generate_good_dataset(8, 16, eta=0.01, alpha=0.11, seed=7)
        pair = make_neighbor(data, beta=1e-8, index=1, seed=4)
        verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=0)
        assert len(calls) == 1
        assert shapes == [(1000, 2)]

    def test_shorter_run_is_a_prefix(self):
        data = generate_good_dataset(8, 16, eta=0.01, alpha=0.11, seed=3)
        pair = make_neighbor(data, beta=1e-4, index=1, seed=5)
        short = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=7)
        long = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=5000, seed=7)
        assert np.array_equal(short.samples, long.samples[:1000])
        assert np.any(short.samples != 0.0)
        # past 7 eigenvalues the column sum no longer matches a row sum's bits,
        # but it still does not depend on the number of trials
        loss = PrivacyLoss(np.linspace(1.2, 0.8, 9), 50)
        short = privacy_loss_samples(loss, 1000, 7)
        assert np.array_equal(short, privacy_loss_samples(loss, 5000, 7)[:1000])
        assert np.any(short != 0.0)

    def test_base_gram_factored_once(self, monkeypatch):
        # the base's kept Gram matrix keeps its Cholesky factor too
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
        data = generate_good_dataset(8, 16, eta=0.01, alpha=0.11, seed=7)
        pair = make_neighbor(data, beta=1e-4, index=1, seed=4)
        first, second = (verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50,
                                                 trials=1000, seed=0) for _ in range(2))
        sensitivity_measured(pair)
        assert len(factored) == 1
        assert np.array_equal(first.samples, second.samples)

    def test_rate_counts_the_draws_above_eps(self):
        data = generate_good_dataset(2, 4, eta=1.0, alpha=2.0, seed=3)
        pair = make_neighbor(data, beta=0.1, index=1, seed=4)
        report = verify_neighbor_privacy(pair, eps=0.5, delta=0.01, k=50, trials=1000, seed=0)
        exceed = int((report.samples > 0.5).sum())
        assert 0 < exceed < 1000
        assert report.empirical_rate == exceed / 1000
        assert report.wilson_upper == wilson_upper(exceed, 1000)

    def test_a_draw_at_eps_is_not_counted(self, monkeypatch):
        # the rate counts the draws strictly above eps: one draw equal to eps is not
        # counted, the next double above it is
        eps = 0.05
        draws = np.zeros(1000)
        draws[:2] = eps, math.nextafter(eps, math.inf)
        monkeypatch.setattr(pipeline, "privacy_loss_samples", lambda loss, trials, seed: draws)
        pair = make_neighbor(fast_dataset(), beta=1e-8, index=1, seed=4)
        report = verify_neighbor_privacy(pair, eps=eps, delta=0.01, k=50, trials=1000, seed=0)
        assert report.empirical_rate == 1 / 1000
        assert report.wilson_upper == wilson_upper(1, 1000)

    @pytest.mark.parametrize("k, trials", [(2.5, 1000), (True, 1000), (50.0, 1000),
                                           (50, 1000.5), (50, 1000.0)])
    def test_k_and_trials_must_be_integers(self, k, trials):
        pair = make_neighbor(fast_dataset(), beta=1e-8, index=1, seed=4)
        with pytest.raises(ParamRange):
            verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=k, trials=trials, seed=0)

    def test_minimum_trials(self, monkeypatch):
        # checked before the spectrum is computed
        calls = []
        monkeypatch.setattr(pipeline, "neighbor_loss", lambda pair, k: calls.append(pair))
        data = fast_dataset()
        pair = NeighborPair(base=data, perturbed=data.x.copy(), beta=0.001, index=0)
        for trials in (999, 0, -1):
            with pytest.raises(ParamRange):
                verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=trials, seed=0)
        assert calls == []


PUBLIC_NAMES = {
    "Activation", "CertificateReport", "Dataset",
    "DpAttentionReport", "DpAttnError", "DpParams", "Infeasible",
    "MechanismOutput", "NeighborPair", "NeighborPrivacyReport", "NotPsd", "Overflow",
    "ParamRange", "PrivacyLoss", "RequirementCheck",
    "SensitivityBound", "SingularMatrix", "SymMatrix",
    "attention_matrix", "dp_attention", "dp_certificate",
    "gaussian_sampling_mechanism", "generate_good_dataset",
    "make_neighbor", "neighbor_loss",
    "privacy_loss_samples", "required_samples",
    "sensitivity_bound", "sensitivity_budget",
    "theoretical_error_bound", "utility_radius", "verify_neighbor_privacy", "wilson_upper",
}


def test_public_names_are_pinned():
    # every name the package exports, submodules aside: growing or shrinking
    # the API means editing this set
    exported = {name for name, value in vars(dpattn).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own: another module calls its public ones
    imported = [(path.name, alias.name)
                for path in sorted(Path(dpattn.__file__).parent.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").split(".")[0] == "dpattn")
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_array_dataclasses_compare_by_identity():
    # A generated __eq__ compares the ndarray fields and raises, and the
    # generated hash raises with it; these classes compare by identity.
    data = fast_dataset()
    pair = make_neighbor(data, beta=1e-8, index=1, seed=4)
    makers = {
        SymMatrix: lambda: SymMatrix(np.eye(2)),
        MechanismOutput: lambda: gaussian_sampling_mechanism(np.eye(2), 3, 0),
        ChainReport: lambda: perturbation_chain_check(
            np.eye(2) / 20, np.eye(2) / 20, np.ones(2), 0.05, 0.05, Activation.EXP),
        Dataset: fast_dataset,
        NeighborPair: lambda: make_neighbor(data, beta=1e-8, index=1, seed=4),
        PrivacyLoss: lambda: privacy_loss(data.gram_matrix, data.gram_matrix, 50),
        DpAttentionReport: lambda: dp_attention(data, 1e-9, fast_params()),
        NeighborPrivacyReport: lambda: verify_neighbor_privacy(
            pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=0),
    }
    with_arrays = {
        cls for module in (attention, dataset, linalg, mechanism, pipeline, privacy)
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    }
    assert with_arrays == set(makers)
    for cls, make in makers.items():
        x, copy = make(), make()
        assert type(x) is cls
        assert x == x and not x != x
        assert (x == copy) is False and x != copy
        assert hash(x) == hash(x)
        assert x in [copy, x] and x not in [copy]
        assert len({x, copy, x}) == 2

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output capture disabled to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np

from dpattn import (
    Activation,
    DpParams,
    SymMatrix,
    cli,
    dp_attention,
    dp_certificate,
    generate_good_dataset,
    make_neighbor,
    gaussian_sampling_mechanism,
    privacy_loss_samples,
    required_samples,
    sensitivity_bound,
    sensitivity_budget,
    wilson_upper,
)
from dpattn.attention import perturbation_chain_check
from helpers import (chain_pair, chain_spectrum, conversion_holds, gram_of, loewner_within,
                     privacy_loss, rand_orthogonal, sensitivity_measured, whitened_error)


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_end_to_end_error_bound():
    # 200 seeded runs at n=4, d=8, eps=0.05, delta=0.01, gamma=0.05, r=0.05,
    # k from the utility-radius inverse at rho=0.004; every certified run must
    # respect the 0.23 infinity-norm bound and the fraction of runs missing
    # the eps-level spectral sandwich must stay within the gamma allowance.
    start = time.perf_counter()
    runs = 200
    eps, delta, gamma, r = 0.05, 0.01, 0.05, 0.05
    k = required_samples(4, gamma, 0.004, 1.0)
    data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=2024)
    certified = 0
    loewner_misses = 0
    worst_certified_error = 0.0
    for seed in range(runs):
        params = DpParams(eps=eps, delta=delta, gamma=gamma, k=k, r=r,
                          kind=Activation.EXP, utility_const=1.0, seed=seed)
        rep = dp_attention(data, beta=1e-8, params=params)
        if not rep.loewner_eps_event:
            loewner_misses += 1
        if rep.certified:
            certified += 1
            worst_certified_error = max(worst_certified_error, rep.measured_error)
            assert rep.measured_error <= 0.23
        assert conversion_holds(rep)
    elapsed = time.perf_counter() - start
    allowance = gamma + 3.0 * math.sqrt(gamma * (1.0 - gamma) / runs)
    ok = (
        worst_certified_error <= 0.23
        and loewner_misses / runs <= allowance
        and elapsed <= 120.0
    )
    report(
        "criterion_1_end_to_end_error_bound",
        ok,
        f"k={k}, certified {certified}/{runs}, worst error {worst_certified_error:.2e} <= 0.23, "
        f"non-Loewner {loewner_misses / runs:.3f} <= {allowance:.3f}, {elapsed:.1f}s <= 120s",
    )


def test_criterion_2_utility_scaling():
    # n=8, 100 trials at k in {1e3, 1e4, 1e5}: median whitened error drops by
    # ~sqrt(10) per decade and is at most 0.1 at k=1e5.
    start = time.perf_counter()
    n, trials = 8, 100
    gen = np.random.default_rng(11)
    basis = rand_orthogonal(gen, n)
    sigma = SymMatrix((basis * np.geomspace(1.0, 10.0, n)) @ basis.T)  # condition number 10
    medians = []
    for ki, k in enumerate((10**3, 10**4, 10**5)):
        errors = [
            whitened_error(gaussian_sampling_mechanism(sigma, k, seed=(2, ki, t)))
            for t in range(trials)
        ]
        medians.append(float(np.median(errors)))
    ratios = [medians[0] / medians[1], medians[1] / medians[2]]
    lo, hi = 0.7 * math.sqrt(10.0), 1.3 * math.sqrt(10.0)
    elapsed = time.perf_counter() - start
    ok = all(lo <= ratio <= hi for ratio in ratios) and medians[2] <= 0.1 and elapsed <= 180.0
    report(
        "criterion_2_utility_scaling",
        ok,
        f"medians {[f'{m:.4f}' for m in medians]}, decade ratios "
        f"{[f'{q:.2f}' for q in ratios]} in [{lo:.2f}, {hi:.2f}], {elapsed:.1f}s <= 180s",
    )


def test_criterion_3_privacy_tail():
    # diagonal pair placed at the deviation budget for eps=0.5,
    # delta=0.05, k=50; the certificate must hold and 1e5 Monte-Carlo trials
    # must keep the exceedance rate and its Wilson bound within delta.
    start = time.perf_counter()
    eps, delta, k, n = 0.5, 0.05, 50, 4
    budget_used = sensitivity_budget(eps, delta, k)
    lam = 1.0 + (1.0 - 1e-9) * budget_used / math.sqrt(n)
    loss = privacy_loss(SymMatrix(np.diag([lam] * n)), SymMatrix(np.eye(n)), k)
    cert = dp_certificate(loss, eps, delta)
    trials = 100_000
    exceed = int((privacy_loss_samples(loss, trials, seed=7) > eps).sum())
    rate, upper = exceed / trials, wilson_upper(exceed, trials)
    elapsed = time.perf_counter() - start
    ok = (
        cert.granted
        and rate <= delta
        and upper <= delta
        and rate + upper <= delta
        and elapsed <= 60.0
    )
    report(
        "criterion_3_privacy_tail",
        ok,
        f"budget {budget_used:.3e}, rate {rate:.2e}, "
        f"wilson {upper:.2e} <= {delta}, {elapsed:.1f}s <= 60s",
    )


def _boundary_spectrum(gen, n, target):
    u = gen.standard_normal(n)
    u /= np.linalg.norm(u)

    def worst(c):
        lam = 1.0 + c * u
        return max(
            math.sqrt(((lam - 1.0) ** 2).sum()),
            math.sqrt(((1.0 - 1.0 / lam) ** 2).sum()),
        )

    lo, hi = 0.0, 2.0 * target
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if worst(mid) < target:
            lo = mid
        else:
            hi = mid
    return 1.0 + hi * u


def test_criterion_4_closed_form_mean():
    # 20 random spectra: the Monte-Carlo mean of 1e5 loss draws must sit
    # within 4 standard errors of the closed form; 1000 spectra scaled onto
    # the deviation budget must satisfy E[Z] <= eps/2 with zero violations.
    gen = np.random.default_rng(4_000)
    worst_pull = 0.0
    for i in range(20):
        n = int(gen.integers(2, 7))
        k = int(gen.integers(5, 51))
        lam = gen.uniform(0.85, 1.2, n)
        loss = privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)), k)
        samples = privacy_loss_samples(loss, trials=100_000, seed=i)
        mean = loss.mean
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        pull = abs(samples.mean() - mean) / se
        worst_pull = max(worst_pull, pull)
        assert pull <= 4.0, f"spectrum {i}: MC mean off by {pull:.2f} standard errors"

    violations = 0
    for _ in range(1000):
        n = int(gen.integers(2, 7))
        eps = float(gen.uniform(0.01, 0.999))
        delta = float(gen.uniform(0.001, 0.0999))
        k = int(gen.integers(1, 1000))
        budget_used = sensitivity_budget(eps, delta, k)
        lam = _boundary_spectrum(gen, n, budget_used)
        loss = privacy_loss(SymMatrix(np.diag(lam)), SymMatrix(np.eye(n)), k)
        assert loss.deviation_frob <= budget_used * (1 + 1e-9)
        assert loss.reverse.deviation_frob <= budget_used * (1 + 1e-9)
        if loss.mean > eps / 2.0:
            violations += 1
    ok = worst_pull <= 4.0 and violations == 0
    report(
        "criterion_4_closed_form_mean",
        ok,
        f"worst MC pull {worst_pull:.2f} <= 4 SE, boundary mean violations {violations}/1000",
    )


def test_criterion_5_sensitivity_lemma():
    # 500 generated (dataset, neighbor) pairs over n in {2,4,8} and widths
    # {n,2n,4n}: measured whitened deviations never exceed the closed-form
    # bounds, and the relative spectral sandwich holds at 1e-9 tolerance.
    gen = np.random.default_rng(5_000)
    shapes = [(n, n * f) for n in (2, 4, 8) for f in (1, 2, 4)]
    violations = 0
    for i in range(500):
        n, d = shapes[i % len(shapes)]
        eta = float(gen.uniform(0.05, 2.0))
        alpha = float(np.sqrt(eta) * gen.uniform(1.0, 1.5))
        beta = float(gen.uniform(1e-3, 0.3))
        data = generate_good_dataset(n, d, eta, alpha, seed=int(gen.integers(2**31)))
        pair = make_neighbor(data, beta, int(gen.integers(d)), seed=int(gen.integers(2**31)))
        measured = sensitivity_measured(pair)
        bound = sensitivity_bound(eta, alpha, beta, n)
        if measured.spectral > bound.spectral_bound:
            violations += 1
        if measured.frobenius > bound.frobenius_bound:
            violations += 1
        perturbed = gram_of(pair.perturbed)
        if not loewner_within(perturbed, data.gram_matrix, bound.spectral_bound + 1e-9):
            violations += 1
    report(
        "criterion_5_sensitivity_lemma",
        violations == 0,
        f"violations {violations}/500 pairs",
    )


def test_criterion_6_perturbation_chain():
    # 1000 constructed pairs per activation inside the sandwich: all five
    # chain checks must pass with zero violations.
    failures = 0
    for kind, seed in ((Activation.EXP, 6_000), (Activation.COSH, 6_001)):
        gen = np.random.default_rng(seed)
        for _ in range(1000):
            n = int(gen.integers(2, 7))
            eps = float(gen.uniform(0.01, 0.1))
            r = float(gen.uniform(0.01, 0.1))
            base, perturbed = chain_pair(gen, n, eps, r)
            mu = chain_spectrum(base, perturbed)
            chain = perturbation_chain_check(base.values, perturbed.values, mu, eps, r, kind)
            if not all(s.passed for s in chain.stages):
                failures += 1
    report(
        "criterion_6_perturbation_chain",
        failures == 0,
        f"violations {failures}/2000 pairs (1000 per activation)",
    )


def test_criterion_7_cli_determinism(tmp_path):
    # every command, run twice, must produce byte-identical output files.
    configs = {
        "gen-dataset": {"name": "demo", "n": 2, "d": 4, "eta": 0.01, "alpha": 0.11, "seed": 7},
        "dp-attention": {
            "dataset": "demo.json", "beta": 1e-9, "eps": 0.05, "delta": 0.01,
            "gamma": 0.3, "k": 400_000, "r": 0.05, "f": "exp",
            "utility_const": 1.0, "seed": 11,
        },
        "verify-privacy": {
            "dataset": "demo.json", "eps": 0.05, "delta": 0.01, "k": 50,
            "trials": 1000, "seed": 3,
            "neighbor": {"beta": 1e-9, "index": 1, "seed": 5},
        },
        "bench-utility": {"n": 3, "ks": [100, 200], "trials": 8, "seed": 1, "cond": 4.0},
    }
    outputs = {
        "gen-dataset": ["demo.csv", "demo.json"],
        "dp-attention": ["dp_attention_report.json"],
        "verify-privacy": ["privacy_report.json", "privacy_report_samples.npy"],
        "bench-utility": ["bench_utility.csv"],
    }
    mismatches = []
    for command, cfg in configs.items():
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            out.mkdir()
            if "dataset" in cfg:
                # commands that consume a dataset need it in their out dir
                gen_cfg = out / "gen.json"
                gen_cfg.write_text(json.dumps(configs["gen-dataset"]))
                assert cli.main(["gen-dataset", "--config", str(gen_cfg), "--out", str(out)]) == 0
            cfg_path = out / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            runs.append([(out / name).read_bytes() for name in outputs[command]])
        if runs[0] != runs[1]:
            mismatches.append(command)
    report(
        "criterion_7_cli_determinism",
        not mismatches,
        f"byte-identical across reruns; mismatches: {mismatches or 'none'}",
    )

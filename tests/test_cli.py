import argparse
import dataclasses
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpattn import (Activation, Dataset, DpParams, SymMatrix, cli, dp_attention,
                    gaussian_sampling_mechanism, make_neighbor, mechanism, rng,
                    verify_neighbor_privacy)
from dpattn.cli import read_matrix_csv, write_matrix_csv
from dpattn.mechanism import bartlett_factors
from helpers import bartlett_block

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def gen_config(tmp_path):
    return write_config(
        tmp_path / "gen.json",
        {"name": "demo", "n": 2, "d": 4, "eta": 0.01, "alpha": 0.11, "seed": 7},
    )


def make_dataset(tmp_path, gen_config):
    assert run(["gen-dataset", "--config", gen_config, "--out", tmp_path]) == 0
    return tmp_path / "demo.json"


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls) if f.name != "samples"]


def assert_written(path, kind, report):
    """The JSON at ``path`` is schema 2's header, then ``report``'s fields in order."""
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "kind", *field_names(type(report))]
    assert doc == {"schema_version": 2, "kind": kind,
                   **json.loads(json.dumps(cli._jsonable(report)))}
    return doc


class TestMatrixCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(1)
        m = gen.standard_normal((3, 5)) * 1e-3
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(cli.ConfigError):
            read_matrix_csv(path)


class TestArgv:
    @pytest.mark.parametrize("argv", [
        ["fit", "--config", "cfg.json"],
        ["gen-dataset"],
        ["gen-dataset", "--out", "."],
        ["--config", "cfg.json"],
        [],
    ], ids=["unknown-command", "no-config", "no-config-with-out", "no-command", "empty"])
    def test_bad_argv_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage: dpattn" in capsys.readouterr().err

    def test_parser_built_once_at_import(self, tmp_path, gen_config, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        for _ in range(4):
            assert run(["gen-dataset", "--config", gen_config, "--out", tmp_path]) == 0
        assert built == []

    def test_parser_works_after_an_error(self, tmp_path, gen_config, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen-dataset", "--out", tmp_path])
        assert exc.value.code == 2
        assert "usage: dpattn" in capsys.readouterr().err
        assert run(["gen-dataset", "--config", gen_config, "--out", tmp_path]) == 0
        assert sorted(p.name for p in tmp_path.glob("demo.*")) == ["demo.csv", "demo.json"]

    def test_out_defaults_to_working_directory(self, tmp_path, gen_config, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run(["gen-dataset", "--config", gen_config]) == 0
        assert sorted(p.name for p in cwd.iterdir()) == ["demo.csv", "demo.json"]

    def test_module_entry_point(self, tmp_path):
        # python -m dpattn runs the CLI from a checkout, the package on PYTHONPATH
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dpattn", "gen-dataset", "--config", "missing.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: cannot read config missing.json")


class TestGenDataset:
    def test_writes_and_roundtrips(self, tmp_path, gen_config):
        assert run(["gen-dataset", "--config", gen_config, "--out", tmp_path]) == 0
        matrix = read_matrix_csv(tmp_path / "demo.csv")
        sidecar = json.loads((tmp_path / "demo.json").read_text())
        assert sidecar["n"] == 2 and sidecar["d"] == 4
        assert sidecar["csv"] == "demo.csv"
        assert matrix.shape == (2, 4)

    def test_deterministic(self, tmp_path, gen_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["gen-dataset", "--config", gen_config, "--out", out1]) == 0
        assert run(["gen-dataset", "--config", gen_config, "--out", out2]) == 0
        assert (out1 / "demo.csv").read_bytes() == (out2 / "demo.csv").read_bytes()
        assert (out1 / "demo.json").read_bytes() == (out2 / "demo.json").read_bytes()

    def test_infeasible_exit_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.json",
            {"name": "bad", "n": 2, "d": 2, "eta": 4.0, "alpha": 1.0, "seed": 0},
        )
        assert run(["gen-dataset", "--config", cfg, "--out", tmp_path]) == 2
        assert "Infeasible" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.json",
            {"name": "x", "n": 2, "d": 2, "eta": 1.0, "alpha": 1.0, "seed": 0, "extra": 1},
        )
        assert run(["gen-dataset", "--config", cfg, "--out", tmp_path]) == 2
        assert "extra" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run(["gen-dataset", "--config", cfg, "--out", tmp_path]) == 2
        assert "config error" in capsys.readouterr().err


class TestDpAttention:
    def attention_config(self, tmp_path, sidecar, **overrides):
        doc = {
            "dataset": sidecar.name,
            "beta": 1e-9,
            "eps": 0.05,
            "delta": 0.01,
            "gamma": 0.3,
            "k": 400_000,
            "r": 0.05,
            "f": "exp",
            "utility_const": 1.0,
            "seed": 11,
        }
        doc.update(overrides)
        return write_config(tmp_path / "att.json", doc)

    def test_certified_run_exit_zero(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar)
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "dp_attention_report.json").read_text())
        assert report["schema_version"] == 2
        assert report["certified"] is True
        assert report["measured_error"] <= report["error_bound"]
        assert [c["name"] for c in report["requirement_checks"]] == [
            "entry_bound", "eta_below_r", "sensitivity", "utility",
        ]

    def test_report_keys_are_the_dataclass_fields(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar)
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 0
        data = Dataset(x=read_matrix_csv(tmp_path / "demo.csv"), eta=0.01, alpha=0.11)
        params = DpParams(eps=0.05, delta=0.01, gamma=0.3, k=400_000, r=0.05,
                          kind=Activation.EXP, utility_const=1.0, seed=11)
        report = dp_attention(data, 1e-9, params)
        doc = assert_written(tmp_path / "dp_attention_report.json", "dp_attention_report", report)
        assert list(doc["params"]) == field_names(DpParams)
        assert doc["params"]["kind"] == "exp"
        assert doc["gram_matrix"] == data.gram_matrix.values.tolist()
        assert list(doc["requirement_checks"][0]) == \
            field_names(type(report.requirement_checks[0]))

    def test_small_k_fails_utility_exit_one(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar, k=1)
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 1
        report = json.loads((tmp_path / "dp_attention_report.json").read_text())
        failing = [c["name"] for c in report["requirement_checks"] if not c["passed"]]
        assert "utility" in failing

    def test_k_below_n_writes_false_eps_event(self, tmp_path, gen_config):
        # the release is singular at k < n; the event must still be a JSON bool
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar, k=1)
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 1
        report = json.loads((tmp_path / "dp_attention_report.json").read_text())
        assert report["loewner_eps_event"] is False
        assert report["warnings"] == ["SingularEstimate"]

    def test_unwritable_report_exit_two(self, tmp_path, gen_config, capsys):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar, report="nodir/r.json")
        capsys.readouterr()
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1

    def test_out_naming_a_file_exit_two(self, tmp_path, gen_config, capsys):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar)
        capsys.readouterr()
        assert run(["dp-attention", "--config", cfg, "--out", sidecar]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError: ") and err.count("\n") == 1

    def test_missing_dataset_file(self, tmp_path, gen_config):
        cfg = self.attention_config(tmp_path, tmp_path / "nothere.json")
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 2

    def test_bad_f_kind(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar, f="tanh")
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 2


class TestVerifyPrivacy:
    def privacy_config(self, tmp_path, sidecar, **overrides):
        doc = {
            "dataset": sidecar.name,
            "eps": 0.05,
            "delta": 0.01,
            "k": 50,
            "trials": 1000,
            "seed": 3,
            "neighbor": {"beta": 1e-9, "index": 1, "seed": 5},
        }
        doc.update(overrides)
        return write_config(tmp_path / "vp.json", doc)

    def test_identical_pair_file_form(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        doc = {
            "dataset": sidecar.name,
            "eps": 0.05,
            "delta": 0.01,
            "k": 50,
            "trials": 1000,
            "seed": 3,
            "perturbed_csv": "demo.csv",
            "beta": 0.001,
            "index": 0,
        }
        cfg = write_config(tmp_path / "vp.json", doc)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "privacy_report.json").read_text())
        assert report["empirical_rate"] == 0.0
        assert report["certificate"]["granted"] is True
        samples = np.load(tmp_path / "privacy_report_samples.npy", allow_pickle=False)
        assert samples.shape == (1000,)

    def test_samples_npy_are_the_library_draws(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(tmp_path, sidecar, trials=1234)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 0
        samples = np.load(tmp_path / "privacy_report_samples.npy", allow_pickle=False)
        data = Dataset(x=read_matrix_csv(tmp_path / "demo.csv"), eta=0.01, alpha=0.11)
        pair = make_neighbor(data, beta=1e-9, index=1, seed=5)
        report = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1234, seed=3)
        assert samples.dtype == np.float64 and samples.shape == (1234,)
        assert np.array_equal(samples, report.samples)

    def test_report_keys_are_the_dataclass_fields(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(tmp_path, sidecar)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 0
        data = Dataset(x=read_matrix_csv(tmp_path / "demo.csv"), eta=0.01, alpha=0.11)
        pair = make_neighbor(data, beta=1e-9, index=1, seed=5)
        report = verify_neighbor_privacy(pair, eps=0.05, delta=0.01, k=50, trials=1000, seed=3)
        doc = assert_written(tmp_path / "privacy_report.json", "neighbor_privacy_report", report)
        assert list(doc["certificate"]) == field_names(type(report.certificate))
        samples = np.load(tmp_path / "privacy_report_samples.npy", allow_pickle=False)
        assert np.array_equal(samples, report.samples)

    def test_generated_neighbor_form(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(tmp_path, sidecar)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 0

    def test_too_few_trials_rejected_at_parse(self, tmp_path, gen_config, capsys):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(tmp_path, sidecar, trials=999)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 2
        assert "trials" in capsys.readouterr().err

    def test_readme_neighbor_granted_above_attention_eps_cap(self, tmp_path):
        # The privacy analysis admits eps < 1; 0.1 caps only the attention side.
        gen_cfg = write_config(
            tmp_path / "gen.json",
            {"name": "demo", "n": 4, "d": 8, "eta": 0.01, "alpha": 0.11, "seed": 7},
        )
        assert run(["gen-dataset", "--config", gen_cfg, "--out", tmp_path]) == 0
        cfg = self.privacy_config(
            tmp_path, tmp_path / "demo.json", eps=0.5, delta=0.05,
            neighbor={"beta": 1e-8, "index": 1, "seed": 5},
        )
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "privacy_report.json").read_text())
        assert report["certificate"]["granted"] is True

    def test_eps_one_rejected(self, tmp_path, gen_config, capsys):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(tmp_path, sidecar, eps=1.0)
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 2
        assert "eps" in capsys.readouterr().err

    def test_both_pair_forms_rejected(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.privacy_config(
            tmp_path, sidecar, perturbed_csv="demo.csv", beta=0.001, index=0
        )
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 2

    def test_top_level_pair_keys_rejected_with_inline_neighbor(self, tmp_path, gen_config,
                                                               capsys):
        # The inline neighbor carries its own beta and index; top-level ones
        # would be silently ignored.
        sidecar = make_dataset(tmp_path, gen_config)
        for extra in ({"beta": 0.9}, {"index": 99}):
            cfg = self.privacy_config(tmp_path, sidecar, **extra)
            assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 2
            assert next(iter(extra)) in capsys.readouterr().err

    def test_oversized_neighbor_denied_exit_one(self, tmp_path):
        gen_cfg = write_config(
            tmp_path / "gen2.json",
            {"name": "wide", "n": 2, "d": 4, "eta": 1.0, "alpha": 2.0, "seed": 3},
        )
        assert run(["gen-dataset", "--config", gen_cfg, "--out", tmp_path]) == 0
        cfg = write_config(tmp_path / "vp2.json", {
            "dataset": "wide.json",
            "eps": 0.05,
            "delta": 0.01,
            "k": 50,
            "trials": 1000,
            "seed": 3,
            "neighbor": {"beta": 0.5, "index": 1, "seed": 5},
        })
        assert run(["verify-privacy", "--config", cfg, "--out", tmp_path]) == 1


class TestBenchUtility:
    def bench_config(self, tmp_path, **overrides):
        doc = {"n": 3, "ks": [100, 200], "trials": 3, "seed": 1, "cond": 4.0}
        doc.update(overrides)
        return write_config(tmp_path / "bench.json", doc)

    def test_table_shape(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 0
        lines = (tmp_path / "bench_utility.csv").read_text().splitlines()
        assert lines[0] == "n,k,trial,rel_frob_error"
        # 2 ks * (3 trials + 1 median row)
        assert len(lines) == 1 + 2 * 4
        assert lines[4].startswith("3,100,median,")

    def test_empty_grid(self, tmp_path):
        cfg = self.bench_config(tmp_path, ks=[])
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "bench_utility.csv").read_text() == "n,k,trial,rel_frob_error\n"

    def test_deterministic(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["bench-utility", "--config", cfg, "--out", out1]) == 0
        assert run(["bench-utility", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "bench_utility.csv").read_bytes() == (out2 / "bench_utility.csv").read_bytes()

    def test_bad_ks_rejected(self, tmp_path):
        cfg = self.bench_config(tmp_path, ks=[10, 0])
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 2

    def test_cond_does_not_change_errors(self, tmp_path):
        # the whitened release T T^T / k does not depend on the covariance,
        # so below the singularity floor cond changes no byte
        outputs = []
        for cond in (1.0, 10.0, 1e8):
            out = tmp_path / str(cond)
            cfg = self.bench_config(tmp_path, cond=cond)
            assert run(["bench-utility", "--config", cfg, "--out", out]) == 0
            outputs.append((out / "bench_utility.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("n,cond", [
        pytest.param(5, 1.0, id="1.0"), pytest.param(5, 10.0, id="10.0"),
        pytest.param(5, 1e9, id="1000000000.0"), pytest.param(1, 1e12, id="n1-1e12"),
        pytest.param(64, 10.0, id="n64-10.0"),
    ])
    def test_rows_are_the_mechanism_errors(self, tmp_path, n, cond):
        # The trials of the ki-th k are the rows of one Bartlett block under
        # (seed, ki); row 0 is the single release under that seed.
        ks = sorted({k for k in (1, n - 1, n, n + 1, 100_000) if k >= 1})
        trials, seed = 4, 2
        cfg = self.bench_config(tmp_path, n=n, ks=ks, trials=trials, seed=seed, cond=cond)
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "bench_utility.csv").read_text().splitlines()[1:]]
        sigma = SymMatrix.diagonal(np.geomspace(1.0, cond, n))  # the covariance's spectrum
        expected = []
        for ki, k in enumerate(ks):
            block = bartlett_block(n, k, (seed, ki), trials)
            stacks = list(bartlett_factors(n, k, (seed, ki), trials))
            assert np.concatenate(stacks).tobytes() == block.tobytes()
            release = gaussian_sampling_mechanism(sigma, k, (seed, ki))
            errors = [math.nan] * trials
            if release.whitened is not None:  # the direct formula, bit for bit
                errors = [float(np.linalg.norm(f @ f.T / k - np.eye(n))) for f in block]
                assert errors[0] == float(np.linalg.norm(release.whitened.values - np.eye(n)))
                assert np.array_equal(release.whitened.values,
                                      SymMatrix(block[0] @ block[0].T / k).values)
            expected += [[str(n), str(k), str(t), repr(e)] for t, e in enumerate(errors)]
            expected.append([str(n), str(k), "median", repr(statistics.median(errors))])
        assert rows == expected
        assert any(row[3] == "nan" for row in rows) == (cond == 1e9)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_blocked_run_equals_one_block(self, tmp_path, monkeypatch, n):
        # n = 3 has an odd count of normals per factor: a stack boundary must
        # not shift the Box-Muller pairs
        cfg = self.bench_config(tmp_path, n=n, ks=[1, 4, 5, 100_000], trials=7, cond=10.0)
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path / "one"]) == 0
        sizes = []
        factors = cli.bartlett_factors

        def recorded(*args):
            for stack in factors(*args):
                sizes.append(len(stack))
                yield stack

        monkeypatch.setattr(cli, "bartlett_factors", recorded)
        for block in (1, 3):
            monkeypatch.setattr(mechanism, "_BLOCK_ENTRIES", block * n * n)
            assert run(["bench-utility", "--config", cfg, "--out", tmp_path / str(block)]) == 0
            assert ((tmp_path / str(block) / "bench_utility.csv").read_bytes()
                    == (tmp_path / "one" / "bench_utility.csv").read_bytes())
        assert sizes == [1] * 28 + [3, 3, 1] * 4

    def test_no_eigh_per_run(self, tmp_path, monkeypatch):
        # the covariance's spectrum is geomspace(1, cond, n) by construction: no eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        cfg = self.bench_config(tmp_path, ks=[2, 3, 50], trials=4)
        assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 0
        assert len(calls) == 0

    @pytest.mark.parametrize("n,cond,defined", [
        pytest.param(n, cond, defined, id=f"n{n}-{cond!r}")
        for n in (2, 5, 64)
        for cond, defined in ((1e9, False), (math.nextafter(1e9, 0.0), True))
    ] + [pytest.param(1, 1e12, True, id="n1-1e12")])
    def test_nan_edge_does_not_depend_on_the_seed(self, tmp_path, n, cond, defined):
        # the rows are NaN exactly when n >= 2 and cond >= 1e9, the singularity floor
        for seed in range(4):
            cfg = self.bench_config(tmp_path, n=n, ks=[100], trials=2, seed=seed, cond=cond)
            assert run(["bench-utility", "--config", cfg, "--out", tmp_path]) == 0
            errors = [float(line.split(",")[3]) for line in
                      (tmp_path / "bench_utility.csv").read_text().splitlines()[1:]]
            assert [math.isfinite(e) for e in errors] == [defined] * 3, seed


DROP = object()  # the key is removed from the valid document
NAN, INF = float("nan"), float("inf")

VALID = {
    "gen-dataset": {"name": "demo", "n": 2, "d": 4, "eta": 0.01, "alpha": 0.11, "seed": 7},
    "dp-attention": {"dataset": "demo.json", "beta": 1e-9, "eps": 0.05, "delta": 0.01,
                     "gamma": 0.3, "k": 400_000, "r": 0.05, "f": "exp",
                     "utility_const": 1.0, "seed": 11},
    "verify-privacy": {"dataset": "demo.json", "eps": 0.05, "delta": 0.01, "k": 50,
                       "trials": 1000, "seed": 3,
                       "neighbor": {"beta": 1e-9, "index": 1, "seed": 5}},
    "verify-privacy-file": {"dataset": "demo.json", "eps": 0.05, "delta": 0.01, "k": 50,
                            "trials": 1000, "seed": 3, "perturbed_csv": "demo.csv",
                            "beta": 0.001, "index": 0},
    "bench-utility": {"n": 3, "ks": [100, 200], "trials": 3, "seed": 1, "cond": 4.0},
}

# (command, document, key, value, message): one fault in an otherwise valid
# document, which is the command's config, verify-privacy's inline neighbor
# or the dataset sidecar.  Each exits 2 with "config error: <message>".
SINGLE_FAULTS = [
    ("gen-dataset", "config", "extra", 1, "unknown config keys: ['extra']"),
    ("gen-dataset", "config", "name", 1, "name must be a string, got 1"),
    ("gen-dataset", "config", "name", "", "name must be a non-empty string, got ''"),
    ("gen-dataset", "config", "n", DROP, "missing config keys: ['n']"),
    ("gen-dataset", "config", "n", 1.5, "n must be an integer, got 1.5"),
    ("gen-dataset", "config", "n", 0, "n must be at least 1, got 0"),
    ("gen-dataset", "config", "d", DROP, "missing config keys: ['d']"),
    ("gen-dataset", "config", "d", 1.5, "d must be an integer, got 1.5"),
    ("gen-dataset", "config", "d", 0, "d must be at least 1, got 0"),
    ("gen-dataset", "config", "eta", DROP, "missing config keys: ['eta']"),
    ("gen-dataset", "config", "eta", "x", "eta must be a number, got 'x'"),
    ("gen-dataset", "config", "eta", 0, "eta must be positive, got 0.0"),
    ("gen-dataset", "config", "eta", NAN, "eta must be finite, got nan"),
    ("gen-dataset", "config", "eta", INF, "eta must be finite, got inf"),
    ("gen-dataset", "config", "alpha", DROP, "missing config keys: ['alpha']"),
    ("gen-dataset", "config", "alpha", "x", "alpha must be a number, got 'x'"),
    ("gen-dataset", "config", "alpha", 0, "alpha must be positive, got 0.0"),
    ("gen-dataset", "config", "alpha", NAN, "alpha must be finite, got nan"),
    ("gen-dataset", "config", "alpha", INF, "alpha must be finite, got inf"),
    ("gen-dataset", "config", "seed", DROP, "missing config keys: ['seed']"),
    ("gen-dataset", "config", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("gen-dataset", "config", "seed", -1, "seed must be at least 0, got -1"),
    ("gen-dataset", "config", "seed", 4294967295,
     "seed must be at most 4294967294, got 4294967295"),
    ("gen-dataset", "config", "seed", 4294967296,
     "seed must be at most 4294967294, got 4294967296"),
    ("dp-attention", "config", "extra", 1, "unknown config keys: ['extra']"),
    ("dp-attention", "config", "dataset", DROP, "missing config keys: ['dataset']"),
    ("dp-attention", "config", "dataset", 1, "dataset must be a string, got 1"),
    ("dp-attention", "config", "beta", DROP, "missing config keys: ['beta']"),
    ("dp-attention", "config", "beta", "x", "beta must be a number, got 'x'"),
    ("dp-attention", "config", "beta", -1, "beta must be non-negative, got -1.0"),
    ("dp-attention", "config", "beta", NAN, "beta must be finite, got nan"),
    ("dp-attention", "config", "beta", INF, "beta must be finite, got inf"),
    ("dp-attention", "config", "eps", DROP, "missing config keys: ['eps']"),
    ("dp-attention", "config", "eps", "x", "eps must be a number, got 'x'"),
    ("dp-attention", "config", "eps", 0.2, "eps must lie in (0, 0.1], got 0.2"),
    ("dp-attention", "config", "eps", NAN, "eps must lie in (0, 0.1], got nan"),
    ("dp-attention", "config", "eps", INF, "eps must lie in (0, 0.1], got inf"),
    ("dp-attention", "config", "delta", DROP, "missing config keys: ['delta']"),
    ("dp-attention", "config", "delta", "x", "delta must be a number, got 'x'"),
    ("dp-attention", "config", "delta", 0.2, "delta must lie in (0, 0.1], got 0.2"),
    ("dp-attention", "config", "delta", NAN, "delta must lie in (0, 0.1], got nan"),
    ("dp-attention", "config", "delta", INF, "delta must lie in (0, 0.1], got inf"),
    ("dp-attention", "config", "gamma", DROP, "missing config keys: ['gamma']"),
    ("dp-attention", "config", "gamma", "x", "gamma must be a number, got 'x'"),
    ("dp-attention", "config", "gamma", 1.0, "gamma must lie in (0, 1.0), got 1.0"),
    ("dp-attention", "config", "gamma", NAN, "gamma must lie in (0, 1.0), got nan"),
    ("dp-attention", "config", "gamma", INF, "gamma must lie in (0, 1.0), got inf"),
    ("dp-attention", "config", "k", DROP, "missing config keys: ['k']"),
    ("dp-attention", "config", "k", 1.5, "k must be an integer, got 1.5"),
    ("dp-attention", "config", "k", 0, "k must be at least 1, got 0"),
    ("dp-attention", "config", "r", DROP, "missing config keys: ['r']"),
    ("dp-attention", "config", "r", "x", "r must be a number, got 'x'"),
    ("dp-attention", "config", "r", 0, "r must lie in (0, 0.1], got 0.0"),
    ("dp-attention", "config", "r", NAN, "r must lie in (0, 0.1], got nan"),
    ("dp-attention", "config", "r", INF, "r must lie in (0, 0.1], got inf"),
    ("dp-attention", "config", "f", DROP, "missing config keys: ['f']"),
    ("dp-attention", "config", "f", 1, "f must be a string, got 1"),
    ("dp-attention", "config", "f", "tanh", "f must be one of ['exp', 'cosh'], got 'tanh'"),
    ("dp-attention", "config", "utility_const", DROP, "missing config keys: ['utility_const']"),
    ("dp-attention", "config", "utility_const", "x", "utility_const must be a number, got 'x'"),
    ("dp-attention", "config", "utility_const", 0, "utility_const must be positive, got 0.0"),
    ("dp-attention", "config", "utility_const", NAN, "utility_const must be finite, got nan"),
    ("dp-attention", "config", "utility_const", INF, "utility_const must be finite, got inf"),
    ("dp-attention", "config", "seed", DROP, "missing config keys: ['seed']"),
    ("dp-attention", "config", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("dp-attention", "config", "seed", -1, "seed must be at least 0, got -1"),
    ("dp-attention", "config", "seed", 4294967295,
     "seed must be at most 4294967294, got 4294967295"),
    ("dp-attention", "config", "report", 1, "report must be a string, got 1"),
    ("dp-attention", "config", "report", "", "report must be a non-empty string, got ''"),
    ("verify-privacy", "config", "extra", 1, "unknown config keys: ['extra']"),
    ("verify-privacy", "config", "dataset", DROP, "missing config keys: ['dataset']"),
    ("verify-privacy", "config", "dataset", 1, "dataset must be a string, got 1"),
    ("verify-privacy", "config", "eps", DROP, "missing config keys: ['eps']"),
    ("verify-privacy", "config", "eps", "x", "eps must be a number, got 'x'"),
    ("verify-privacy", "config", "eps", 1.0, "eps must lie in (0, 1.0), got 1.0"),
    ("verify-privacy", "config", "eps", NAN, "eps must lie in (0, 1.0), got nan"),
    ("verify-privacy", "config", "eps", INF, "eps must lie in (0, 1.0), got inf"),
    ("verify-privacy", "config", "delta", DROP, "missing config keys: ['delta']"),
    ("verify-privacy", "config", "delta", "x", "delta must be a number, got 'x'"),
    ("verify-privacy", "config", "delta", 1.0, "delta must lie in (0, 1.0), got 1.0"),
    ("verify-privacy", "config", "delta", NAN, "delta must lie in (0, 1.0), got nan"),
    ("verify-privacy", "config", "delta", INF, "delta must lie in (0, 1.0), got inf"),
    ("verify-privacy", "config", "k", DROP, "missing config keys: ['k']"),
    ("verify-privacy", "config", "k", 1.5, "k must be an integer, got 1.5"),
    ("verify-privacy", "config", "k", 0, "k must be at least 1, got 0"),
    ("verify-privacy", "config", "trials", DROP, "missing config keys: ['trials']"),
    ("verify-privacy", "config", "trials", 1.5, "trials must be an integer, got 1.5"),
    ("verify-privacy", "config", "trials", 999, "trials must be at least 1000, got 999"),
    ("verify-privacy", "config", "seed", DROP, "missing config keys: ['seed']"),
    ("verify-privacy", "config", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("verify-privacy", "config", "seed", -1, "seed must be at least 0, got -1"),
    ("verify-privacy", "config", "seed", 4294967295,
     "seed must be at most 4294967294, got 4294967295"),
    ("verify-privacy", "config", "neighbor", DROP,
     "missing config keys: ['beta', 'index', 'perturbed_csv']"),
    ("verify-privacy", "config", "neighbor", 1, "neighbor must be an object"),
    ("verify-privacy-file", "config", "extra", 1, "unknown config keys: ['extra']"),
    ("verify-privacy-file", "config", "perturbed_csv", DROP,
     "missing config keys: ['perturbed_csv']"),
    ("verify-privacy-file", "config", "perturbed_csv", 1, "perturbed_csv must be a string, got 1"),
    ("verify-privacy-file", "config", "beta", DROP, "missing config keys: ['beta']"),
    ("verify-privacy-file", "config", "beta", "x", "beta must be a number, got 'x'"),
    ("verify-privacy-file", "config", "beta", 0, "beta must be positive, got 0.0"),
    ("verify-privacy-file", "config", "beta", NAN, "beta must be finite, got nan"),
    ("verify-privacy-file", "config", "beta", INF, "beta must be finite, got inf"),
    ("verify-privacy-file", "config", "index", DROP, "missing config keys: ['index']"),
    ("verify-privacy-file", "config", "index", 1.5, "index must be an integer, got 1.5"),
    ("verify-privacy-file", "config", "index", -1, "index must be at least 0, got -1"),
    ("verify-privacy", "neighbor", "extra", 1, "unknown config keys: ['extra']"),
    ("verify-privacy", "neighbor", "beta", DROP, "missing config keys: ['beta']"),
    ("verify-privacy", "neighbor", "beta", "x", "beta must be a number, got 'x'"),
    ("verify-privacy", "neighbor", "beta", 0, "beta must be positive, got 0.0"),
    ("verify-privacy", "neighbor", "beta", NAN, "beta must be finite, got nan"),
    ("verify-privacy", "neighbor", "beta", INF, "beta must be finite, got inf"),
    ("verify-privacy", "neighbor", "index", DROP, "missing config keys: ['index']"),
    ("verify-privacy", "neighbor", "index", 1.5, "index must be an integer, got 1.5"),
    ("verify-privacy", "neighbor", "index", -1, "index must be at least 0, got -1"),
    ("verify-privacy", "neighbor", "seed", DROP, "missing config keys: ['seed']"),
    ("verify-privacy", "neighbor", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("verify-privacy", "neighbor", "seed", -1, "seed must be at least 0, got -1"),
    ("verify-privacy", "neighbor", "seed", 4294967295,
     "seed must be at most 4294967294, got 4294967295"),
    ("bench-utility", "config", "extra", 1, "unknown config keys: ['extra']"),
    ("bench-utility", "config", "n", DROP, "missing config keys: ['n']"),
    ("bench-utility", "config", "n", 1.5, "n must be an integer, got 1.5"),
    ("bench-utility", "config", "n", 0, "n must be at least 1, got 0"),
    ("bench-utility", "config", "ks", DROP, "missing config keys: ['ks']"),
    ("bench-utility", "config", "ks", "x", "ks must be a list of positive integers, got 'x'"),
    ("bench-utility", "config", "ks", [0], "ks must be a list of positive integers, got [0]"),
    ("bench-utility", "config", "trials", DROP, "missing config keys: ['trials']"),
    ("bench-utility", "config", "trials", 1.5, "trials must be an integer, got 1.5"),
    ("bench-utility", "config", "trials", 0, "trials must be at least 1, got 0"),
    ("bench-utility", "config", "seed", DROP, "missing config keys: ['seed']"),
    ("bench-utility", "config", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("bench-utility", "config", "seed", -1, "seed must be at least 0, got -1"),
    ("bench-utility", "config", "seed", 4294967295,
     "seed must be at most 4294967294, got 4294967295"),
    ("bench-utility", "config", "cond", "x", "cond must be a number, got 'x'"),
    ("bench-utility", "config", "cond", 0.5, "cond must be at least 1, got 0.5"),
    ("bench-utility", "config", "cond", NAN, "cond must be finite, got nan"),
    ("bench-utility", "config", "cond", INF, "cond must be finite, got inf"),
    ("bench-utility", "config", "report", 1, "report must be a string, got 1"),
    ("bench-utility", "config", "report", "", "report must be a non-empty string, got ''"),
    ("dp-attention", "sidecar", "extra", 1, "unknown config keys: ['extra']"),
    ("dp-attention", "sidecar", "schema_version", DROP, "missing config keys: ['schema_version']"),
    ("dp-attention", "sidecar", "kind", DROP, "missing config keys: ['kind']"),
    ("dp-attention", "sidecar", "kind", 1, "kind must be a string, got 1"),
    ("dp-attention", "sidecar", "kind", "model", "kind must be one of ['dataset'], got 'model'"),
    ("dp-attention", "sidecar", "csv", DROP, "missing config keys: ['csv']"),
    ("dp-attention", "sidecar", "csv", 1, "csv must be a string, got 1"),
    ("dp-attention", "sidecar", "n", DROP, "missing config keys: ['n']"),
    ("dp-attention", "sidecar", "n", 1.5, "n must be an integer, got 1.5"),
    ("dp-attention", "sidecar", "n", 0, "n must be at least 1, got 0"),
    ("dp-attention", "sidecar", "d", DROP, "missing config keys: ['d']"),
    ("dp-attention", "sidecar", "d", 1.5, "d must be an integer, got 1.5"),
    ("dp-attention", "sidecar", "d", 0, "d must be at least 1, got 0"),
    ("dp-attention", "sidecar", "eta", DROP, "missing config keys: ['eta']"),
    ("dp-attention", "sidecar", "eta", "x", "eta must be a number, got 'x'"),
    ("dp-attention", "sidecar", "eta", 0, "eta must be positive, got 0.0"),
    ("dp-attention", "sidecar", "eta", NAN, "eta must be finite, got nan"),
    ("dp-attention", "sidecar", "eta", INF, "eta must be finite, got inf"),
    ("dp-attention", "sidecar", "alpha", DROP, "missing config keys: ['alpha']"),
    ("dp-attention", "sidecar", "alpha", "x", "alpha must be a number, got 'x'"),
    ("dp-attention", "sidecar", "alpha", 0, "alpha must be positive, got 0.0"),
    ("dp-attention", "sidecar", "alpha", NAN, "alpha must be finite, got nan"),
    ("dp-attention", "sidecar", "alpha", INF, "alpha must be finite, got inf"),
    ("dp-attention", "sidecar", "seed", DROP, "missing config keys: ['seed']"),
    ("verify-privacy", "config", "beta", 0.9, "unknown config keys: ['beta']"),
    ("verify-privacy", "config", "perturbed_csv", "demo.csv",
     "unknown config keys: ['perturbed_csv']"),
    ("verify-privacy", "config", "report", 1, "report must be a string, got 1"),
    ("verify-privacy", "config", "report", "", "report must be a non-empty string, got ''"),
]


def fault_id(case):
    command, document, key, value = case[:4]
    shown = "missing" if value is DROP else json.dumps(value)
    return f"{command}-{document}-{key}={shown}"


def set_key(doc, key, value):
    if value is DROP:
        del doc[key]
    else:
        doc[key] = value


def readme_configs():
    """The README's ``jsonc`` block: each command's config, the file names its
    ``// <command>: writes ...`` line names, and the keys of the perturbed_csv form.
    """
    text = README.read_text()
    block = text[text.index("```jsonc"):]
    block = block[:block.index("```", 3)]
    docs, writes, command, pending, file_form_keys = {}, {}, None, "", None
    for line in block.splitlines()[1:]:
        if line.startswith("//"):
            named = re.match(r"// ([a-z-]+): writes (.*)", line)
            if named and named.group(1) in cli._COMMANDS:
                command = named.group(1)
                writes[command] = re.findall(r"[\w<>]+\.(?:csv|json|npy)", named.group(2))
            if "perturbed_csv" in line:
                file_form_keys = set(re.findall(r'"(\w+)":', line))
            continue
        pending += line
        if pending and pending.count("{") == pending.count("}"):
            docs[command] = json.loads(pending)
            pending = ""
    return docs, writes, file_form_keys


class TestConfigTables:
    @pytest.mark.parametrize("case", SINGLE_FAULTS, ids=fault_id)
    def test_single_fault(self, tmp_path, capsys, case):
        command, document, key, value, message = case
        cfg = json.loads(json.dumps(VALID[command]))
        if "dataset" in cfg:
            make_dataset(tmp_path, write_config(tmp_path / "gen.json", VALID["gen-dataset"]))
        if document == "config":
            set_key(cfg, key, value)
        elif document == "neighbor":
            set_key(cfg["neighbor"], key, value)
        else:
            sidecar = json.loads((tmp_path / "demo.json").read_text())
            set_key(sidecar, key, value)
            write_config(tmp_path / "demo.json", sidecar)
        capsys.readouterr()
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run([command.removesuffix("-file"), "--config", path,
                    "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any((tmp_path / "out").iterdir())

    def test_seed_bound_is_the_stream_bound(self):
        assert cli._SEED("seed", rng.MAX_SEED) == rng.MAX_SEED
        rng.normalize_entropy(rng.MAX_SEED)
        with pytest.raises(cli.ConfigError, match="seed"):
            cli._SEED("seed", rng.MAX_SEED + 1)

    def test_readme_configs_pass_their_tables(self):
        docs, _, file_form_keys = readme_configs()
        tables = {
            "gen-dataset": cli._GEN_DATASET,
            "dp-attention": cli._DP_ATTENTION,
            "verify-privacy": cli._VERIFY_PRIVACY | cli._INLINE_PAIR,
            "bench-utility": cli._BENCH_UTILITY,
        }
        assert set(docs) == set(tables)
        for command, doc in docs.items():
            cli._validate(doc, tables[command])
        # the perturbed_csv form named in the comment, built from the
        # inline neighbor's beta and index
        assert file_form_keys == set(cli._FILE_PAIR)
        file_doc = dict(docs["verify-privacy"])
        neighbor = file_doc.pop("neighbor")
        file_doc.update(perturbed_csv="demo.csv", beta=neighbor["beta"], index=neighbor["index"])
        cli._validate(file_doc, cli._VERIFY_PRIVACY | cli._FILE_PAIR)

    def test_readme_configs_write_the_files_they_name(self, tmp_path):
        docs, writes, _ = readme_configs()
        assert list(docs) == list(writes) == list(cli._COMMANDS)
        for command, doc in docs.items():
            path = write_config(tmp_path / f"{command}.cfg", doc)
            before = set(tmp_path.iterdir())
            assert run([command, "--config", path, "--out", tmp_path]) == 0
            named = {name.replace("<name>", doc.get("name", "")) for name in writes[command]}
            assert {p.name for p in set(tmp_path.iterdir()) - before} == named, command

import json

import numpy as np
import pytest

from dpattn import cli
from dpattn.cli import read_matrix_csv, write_matrix_csv


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
        assert report["schema_version"] == 1
        assert report["certified"] is True
        assert report["measured_error"] <= report["error_bound"]
        assert [c["name"] for c in report["requirement_checks"]] == [
            "d_ge_n", "r_range", "eps_range", "delta_range", "entry_bound",
            "dataset_good", "eta_below_r", "sensitivity", "utility",
        ]

    def test_small_k_fails_utility_exit_one(self, tmp_path, gen_config):
        sidecar = make_dataset(tmp_path, gen_config)
        cfg = self.attention_config(tmp_path, sidecar, k=1)
        assert run(["dp-attention", "--config", cfg, "--out", tmp_path]) == 1
        report = json.loads((tmp_path / "dp_attention_report.json").read_text())
        failing = [c["name"] for c in report["requirement_checks"] if not c["passed"]]
        assert "utility" in failing

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
        samples = (tmp_path / "privacy_report_samples.csv").read_text().splitlines()
        assert samples[0] == "trial,z"
        assert len(samples) == 1001

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

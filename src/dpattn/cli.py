"""Command-line front end for batch experiments.

Usage::

    dpattn gen-dataset    --config cfg.json [--out DIR]
    dpattn dp-attention   --config cfg.json [--out DIR]
    dpattn verify-privacy --config cfg.json [--out DIR]
    dpattn bench-utility  --config cfg.json [--out DIR]

Configs are single JSON documents with mandatory seeds; unknown keys are
rejected and range violations are reported by name at parse time.  Matrices
travel as headerless CSV (one row per line) with shortest round-trip float
formatting, so write/read cycles are bit-exact.  Reports are JSON with a
top-level ``schema_version``.

Exit codes: 0 success/certified, 1 requirement or certificate failure,
2 input or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import rng
from .attention import Activation
from .dataset import Dataset, NeighborPair, generate_good_dataset, make_neighbor
from .errors import DpAttnError
from .linalg import SymMatrix
from .mechanism import gaussian_sampling_mechanism
from .pipeline import DpAttentionReport, DpParams, NeighborPrivacyReport, dp_attention, \
    verify_neighbor_privacy

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Raised for malformed configs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing

def _load_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _check_keys(cfg: dict, required: set[str], optional: set[str] = frozenset()) -> None:
    unknown = set(cfg) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")


def _as_int(cfg: dict, key: str, minimum: int | None = None) -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def _as_float(cfg: dict, key: str) -> float:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _as_str(cfg: dict, key: str) -> str:
    value = cfg[key]
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _in_open_closed(cfg: dict, key: str, hi: float) -> float:
    value = _as_float(cfg, key)
    if not 0.0 < value <= hi:
        raise ConfigError(f"{key} must lie in (0, {hi}], got {value}")
    return value


def _in_open_open(cfg: dict, key: str, hi: float) -> float:
    value = _as_float(cfg, key)
    if not 0.0 < value < hi:
        raise ConfigError(f"{key} must lie in (0, {hi}), got {value}")
    return value


def _positive(cfg: dict, key: str) -> float:
    value = _as_float(cfg, key)
    if value <= 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _dp_params(cfg: dict) -> DpParams:
    kind_name = _as_str(cfg, "f")
    try:
        kind = Activation(kind_name)
    except ValueError:
        raise ConfigError(f"f must be one of {[a.value for a in Activation]}, got {kind_name!r}")
    return DpParams(
        eps=_in_open_closed(cfg, "eps", 0.1),
        delta=_in_open_closed(cfg, "delta", 0.1),
        gamma=_in_open_open(cfg, "gamma", 1.0),
        k=_as_int(cfg, "k", minimum=1),
        r=_in_open_closed(cfg, "r", 0.1),
        kind=kind,
        utility_const=_positive(cfg, "utility_const"),
        seed=_as_int(cfg, "seed", minimum=0),
    )


# ---------------------------------------------------------------------------
# matrix / report io

def _format_float(x: float) -> str:
    return repr(float(x))


def write_matrix_csv(path: Path, arr: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [",".join(_format_float(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def read_matrix_csv(path: Path) -> np.ndarray:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read matrix {path}: {exc}")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a comma-separated float row")
    if not rows:
        raise ConfigError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ConfigError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=float)


def _jfloat(x: float):
    x = float(x)
    return x if math.isfinite(x) else None


def _jmatrix(arr) -> list[list[float]]:
    vals = arr.values if isinstance(arr, SymMatrix) else np.asarray(arr)
    return [[_jfloat(v) for v in row] for row in vals]


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _attention_report_doc(report: DpAttentionReport) -> dict:
    p = report.params
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "dp_attention_report",
        "params": {
            "eps": _jfloat(p.eps),
            "delta": _jfloat(p.delta),
            "gamma": _jfloat(p.gamma),
            "k": p.k,
            "r": _jfloat(p.r),
            "f": p.kind.value,
            "utility_const": _jfloat(p.utility_const),
            "seed": p.seed,
        },
        "beta": _jfloat(report.beta),
        "gram": _jmatrix(report.gram_matrix),
        "released": _jmatrix(report.released),
        "attention_base": _jmatrix(report.attention_base),
        "attention_released": _jmatrix(report.attention_released),
        "measured_error": _jfloat(report.measured_error),
        "error_bound": _jfloat(report.error_bound),
        "rho": _jfloat(report.rho),
        "budget_used": _jfloat(report.budget_used),
        "sensitivity_bound_frob": _jfloat(report.sensitivity_bound_frob),
        "requirement_checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "measured": _jfloat(c.measured),
                "required": _jfloat(c.required),
                "warning_only": c.warning_only,
            }
            for c in report.requirement_checks
        ],
        "loewner_rho_event": report.loewner_rho_event,
        "loewner_eps_event": report.loewner_eps_event,
        "loewner_conversion_ok": report.loewner_conversion_ok,
        "psd_projection_applied": report.psd_projection_applied,
        "warnings": list(report.warnings),
        "certified": report.certified,
    }


def _privacy_report_doc(report: NeighborPrivacyReport) -> dict:
    cert = report.certificate
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "neighbor_privacy_report",
        "certificate": {
            "eps": _jfloat(cert.eps),
            "delta": _jfloat(cert.delta),
            "k": cert.k,
            "sensitivity": _jfloat(cert.sensitivity),
            "budget_loose": _jfloat(cert.budget.loose),
            "budget_strict": _jfloat(cert.budget.strict),
            "budget_used": _jfloat(cert.budget_used),
            "expected_loss": _jfloat(cert.expected_loss),
            "tail_at_half_eps": _jfloat(cert.tail_at_half_eps),
            "sensitivity_ok": cert.sensitivity_ok,
            "mean_ok": cert.mean_ok,
            "tail_ok": cert.tail_ok,
            "granted": cert.granted,
            "denial_reasons": list(cert.denial_reasons),
        },
        "trials": report.trials,
        "empirical_rate": _jfloat(report.empirical_rate),
        "wilson_upper": _jfloat(report.wilson_upper),
    }


# ---------------------------------------------------------------------------
# commands

def _load_dataset(cfg: dict, config_dir: Path) -> Dataset:
    sidecar_path = config_dir / _as_str(cfg, "dataset")
    sidecar = _load_json(sidecar_path)
    _check_keys(sidecar, {"schema_version", "kind", "csv", "n", "d", "eta", "alpha", "seed"})
    if sidecar.get("kind") != "dataset":
        raise ConfigError(f"{sidecar_path}: not a dataset sidecar")
    csv_path = sidecar_path.parent / _as_str(sidecar, "csv")
    matrix = read_matrix_csv(csv_path)
    n = _as_int(sidecar, "n", minimum=1)
    d = _as_int(sidecar, "d", minimum=1)
    if matrix.shape != (n, d):
        raise ConfigError(f"{csv_path}: shape {matrix.shape} does not match sidecar ({n}, {d})")
    return Dataset(x=matrix, eta=_positive(sidecar, "eta"), alpha=_positive(sidecar, "alpha"))


def cmd_gen_dataset(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    _check_keys(cfg, {"n", "d", "eta", "alpha", "seed"}, optional={"name"})
    name = _as_str(cfg, "name") if "name" in cfg else "dataset"
    data = generate_good_dataset(
        n=_as_int(cfg, "n", minimum=1),
        d=_as_int(cfg, "d", minimum=1),
        eta=_positive(cfg, "eta"),
        alpha=_positive(cfg, "alpha"),
        seed=_as_int(cfg, "seed", minimum=0),
    )
    csv_path = out_dir / f"{name}.csv"
    write_matrix_csv(csv_path, data.x)
    write_json(out_dir / f"{name}.json", {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "csv": csv_path.name,
        "n": data.n,
        "d": data.d,
        "eta": _jfloat(data.eta),
        "alpha": _jfloat(data.alpha),
        "seed": cfg["seed"],
    })
    print(f"wrote {csv_path} and {csv_path.with_suffix('.json')}")
    return 0


def cmd_dp_attention(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    _check_keys(
        cfg,
        {"dataset", "beta", "eps", "delta", "gamma", "k", "r", "f", "utility_const", "seed"},
        optional={"report"},
    )
    data = _load_dataset(cfg, config_dir)
    beta = _as_float(cfg, "beta")
    if beta < 0:
        raise ConfigError(f"beta must be non-negative, got {beta}")
    report = dp_attention(data, beta, _dp_params(cfg))
    name = _as_str(cfg, "report") if "report" in cfg else "dp_attention_report.json"
    write_json(out_dir / name, _attention_report_doc(report))
    failing = [c.name for c in report.requirement_checks if not c.passed and not c.warning_only]
    status = "certified" if report.certified else f"not certified (failing: {failing})"
    print(f"wrote {out_dir / name}: {status}")
    return 0 if report.certified else 1


def cmd_verify_privacy(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    _check_keys(
        cfg,
        {"dataset", "eps", "delta", "k", "trials", "seed"},
        optional={"neighbor", "perturbed_csv", "beta", "index", "report"},
    )
    data = _load_dataset(cfg, config_dir)
    trials = _as_int(cfg, "trials", minimum=1000)
    has_inline = "neighbor" in cfg
    has_file = "perturbed_csv" in cfg
    if has_inline == has_file:
        raise ConfigError("provide exactly one of 'neighbor' or 'perturbed_csv'")
    if has_inline:
        neighbor_cfg = cfg["neighbor"]
        if not isinstance(neighbor_cfg, dict):
            raise ConfigError("neighbor must be an object")
        _check_keys(neighbor_cfg, {"beta", "index", "seed"})
        pair = make_neighbor(
            data,
            beta=_positive(neighbor_cfg, "beta"),
            index=_as_int(neighbor_cfg, "index", minimum=0),
            seed=_as_int(neighbor_cfg, "seed", minimum=0),
        )
    else:
        for key in ("beta", "index"):
            if key not in cfg:
                raise ConfigError(f"perturbed_csv requires '{key}'")
        perturbed = read_matrix_csv(config_dir / _as_str(cfg, "perturbed_csv"))
        pair = NeighborPair(
            base=data,
            perturbed=perturbed,
            beta=_positive(cfg, "beta"),
            index=_as_int(cfg, "index", minimum=0),
        )
    report = verify_neighbor_privacy(
        pair,
        eps=_in_open_open(cfg, "eps", 1.0),
        delta=_in_open_open(cfg, "delta", 1.0),
        k=_as_int(cfg, "k", minimum=1),
        trials=trials,
        seed=_as_int(cfg, "seed", minimum=0),
    )
    name = _as_str(cfg, "report") if "report" in cfg else "privacy_report"
    write_json(out_dir / f"{name}.json", _privacy_report_doc(report))
    samples_path = out_dir / f"{name}_samples.csv"
    lines = ["trial,z"] + [
        f"{t},{_format_float(z)}" for t, z in enumerate(report.samples)
    ]
    samples_path.write_text("\n".join(lines) + "\n")
    granted = report.certificate.granted
    print(
        f"wrote {out_dir / (name + '.json')}: "
        f"{'granted' if granted else 'denied ' + str(list(report.certificate.denial_reasons))}, "
        f"empirical rate {report.empirical_rate}"
    )
    return 0 if granted else 1


def _bench_sigma(n: int, cond: float, seed: int) -> SymMatrix:
    """Positive definite benchmark covariance with the given condition number.

    Eigenvalues are geometrically spaced in [1, cond]; the basis is a seeded
    random orthogonal matrix (QR of stream normals) when cond > 1.
    """
    if cond == 1.0:
        return SymMatrix.identity(n)
    eigs = np.geomspace(1.0, cond, n)
    raw = rng.standard_normals(n * n, (rng.TAG_BENCH, seed)).reshape(n, n)
    q, _ = np.linalg.qr(raw)
    return SymMatrix((q * eigs) @ q.T)


def cmd_bench_utility(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    _check_keys(cfg, {"n", "ks", "trials", "seed"}, optional={"cond", "report"})
    n = _as_int(cfg, "n", minimum=1)
    ks = cfg["ks"]
    if not isinstance(ks, list) or any(
        isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in ks
    ):
        raise ConfigError(f"ks must be a list of positive integers, got {ks!r}")
    trials = _as_int(cfg, "trials", minimum=1)
    seed = _as_int(cfg, "seed", minimum=0)
    cond = _as_float(cfg, "cond") if "cond" in cfg else 1.0
    if cond < 1.0:
        raise ConfigError(f"cond must be at least 1, got {cond}")
    sigma = _bench_sigma(n, cond, seed)

    lines = ["n,k,trial,rel_frob_error"]
    for ki, k in enumerate(ks):
        errors = [
            gaussian_sampling_mechanism(sigma, k, (seed, ki, t)).rel_frob_error
            for t in range(trials)
        ]
        lines.extend(
            f"{n},{k},{t},{_format_float(err)}" for t, err in enumerate(errors)
        )
        if errors:
            lines.append(f"{n},{k},median,{_format_float(statistics.median(errors))}")
    name = _as_str(cfg, "report") if "report" in cfg else "bench_utility.csv"
    path = out_dir / name
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "gen-dataset": cmd_gen_dataset,
    "dp-attention": cmd_dp_attention,
    "verify-privacy": cmd_verify_privacy,
    "bench-utility": cmd_bench_utility,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpattn",
        description="Differentially private attention surrogates and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory (default: cwd)")
    args = parser.parse_args(argv)

    try:
        config_path = Path(args.config)
        cfg = _load_json(config_path)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, config_path.parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DpAttnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

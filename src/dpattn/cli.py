"""Command-line front end for batch experiments.

Usage::

    dpattn gen-dataset    --config cfg.json [--out DIR]
    dpattn dp-attention   --config cfg.json [--out DIR]
    dpattn verify-privacy --config cfg.json [--out DIR]
    dpattn bench-utility  --config cfg.json [--out DIR]

Configs are single JSON documents with mandatory seeds.  Each command, the
dataset sidecar and verify-privacy's inline ``neighbor`` object declare their
keys in one table, ``key -> (check, default)``; the default ``REQUIRED``
marks a mandatory key.  One validator reports unknown keys, then missing
keys, then the first value in table order that fails its check, by name and
before any file is read.  Numbers must be finite, output names non-empty;
seeds lie in ``[0, rng.MAX_SEED]``.  Matrices travel as headerless CSV (one
row per line) with shortest round-trip float formatting, so write/read
cycles are bit-exact.  Reports are JSON with a top-level ``schema_version``.

Exit codes: 0 success/certified, 1 requirement or certificate failure,
2 input or parse error, or an output that cannot be written.
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
# config tables; a check maps (key, value) to the parsed value or raises

REQUIRED = object()


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


def _validate(doc: dict, table: dict) -> dict:
    """The checked value, or the default, of every key of ``table``."""
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {key for key, (_, default) in table.items() if default is REQUIRED} - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return {key: check(key, doc[key]) if key in doc else default
            for key, (check, default) in table.items()}


def _integer(minimum: int, maximum: int | None = None):
    def check(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{key} must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{key} must be at most {maximum}, got {value}")
        return value
    return check


def _number(requirement: str, out_of_range):
    """A finite number; ``out_of_range(value)`` is true where ``requirement`` fails."""
    def check(key, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        value = float(value)
        if out_of_range(value):
            raise ConfigError(f"{key} must {requirement}, got {value}")
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        return value
    return check


def _string(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _name(key, value):
    if not _string(key, value):
        raise ConfigError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _choice(*options: str):
    def check(key, value):
        if _string(key, value) not in options:
            raise ConfigError(f"{key} must be one of {list(options)}, got {value!r}")
        return value
    return check


def _positive_ints(key, value):
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in value
    ):
        raise ConfigError(f"{key} must be a list of positive integers, got {value!r}")
    return value


def _unchecked(key, value):
    return value


def _object(table: dict):
    def check(key, value):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object")
        return _validate(value, table)
    return check


_COUNT = _integer(1)
_SEED = _integer(0, rng.MAX_SEED)
_POSITIVE = _number("be positive", lambda x: x <= 0)
_TENTH = _number("lie in (0, 0.1]", lambda x: not 0.0 < x <= 0.1)
_UNIT = _number("lie in (0, 1.0)", lambda x: not 0.0 < x < 1.0)

_SIDECAR = {
    "schema_version": (_unchecked, REQUIRED), "kind": (_choice("dataset"), REQUIRED),
    "csv": (_string, REQUIRED), "n": (_COUNT, REQUIRED), "d": (_COUNT, REQUIRED),
    "eta": (_POSITIVE, REQUIRED), "alpha": (_POSITIVE, REQUIRED), "seed": (_unchecked, REQUIRED),
}
_GEN_DATASET = {
    "name": (_name, "dataset"), "n": (_COUNT, REQUIRED), "d": (_COUNT, REQUIRED),
    "eta": (_POSITIVE, REQUIRED), "alpha": (_POSITIVE, REQUIRED), "seed": (_SEED, REQUIRED),
}
_DP_ATTENTION = {
    "dataset": (_string, REQUIRED),
    "beta": (_number("be non-negative", lambda x: x < 0), REQUIRED),
    "f": (_choice(*(a.value for a in Activation)), REQUIRED),
    "eps": (_TENTH, REQUIRED), "delta": (_TENTH, REQUIRED), "gamma": (_UNIT, REQUIRED),
    "k": (_COUNT, REQUIRED), "r": (_TENTH, REQUIRED), "utility_const": (_POSITIVE, REQUIRED),
    "seed": (_SEED, REQUIRED), "report": (_name, "dp_attention_report.json"),
}
# verify-privacy merges its common table with one of two pair tables: an
# inline "neighbor" recipe carries its own beta and index, "perturbed_csv"
# takes top-level ones.
_VERIFY_PRIVACY = {
    "dataset": (_string, REQUIRED), "eps": (_UNIT, REQUIRED), "delta": (_UNIT, REQUIRED),
    "k": (_COUNT, REQUIRED), "trials": (_integer(1000), REQUIRED), "seed": (_SEED, REQUIRED),
    "report": (_name, "privacy_report"),
}
_NEIGHBOR = {"beta": (_POSITIVE, REQUIRED), "index": (_integer(0), REQUIRED),
             "seed": (_SEED, REQUIRED)}
_INLINE_PAIR = {"neighbor": (_object(_NEIGHBOR), REQUIRED)}
_FILE_PAIR = {"perturbed_csv": (_string, REQUIRED), "beta": _NEIGHBOR["beta"],
              "index": _NEIGHBOR["index"]}
_BENCH_UTILITY = {
    "n": (_COUNT, REQUIRED), "ks": (_positive_ints, REQUIRED), "trials": (_COUNT, REQUIRED),
    "seed": (_SEED, REQUIRED), "cond": (_number("be at least 1", lambda x: x < 1.0), 1.0),
    "report": (_name, "bench_utility.csv"),
}


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

def _load_dataset(name: str, config_dir: Path) -> Dataset:
    sidecar_path = config_dir / name
    sidecar = _validate(_load_json(sidecar_path), _SIDECAR)
    csv_path = sidecar_path.parent / sidecar["csv"]
    matrix = read_matrix_csv(csv_path)
    n, d = sidecar["n"], sidecar["d"]
    if matrix.shape != (n, d):
        raise ConfigError(f"{csv_path}: shape {matrix.shape} does not match sidecar ({n}, {d})")
    return Dataset(x=matrix, eta=sidecar["eta"], alpha=sidecar["alpha"])


def cmd_gen_dataset(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    v = _validate(cfg, _GEN_DATASET)
    data = generate_good_dataset(n=v["n"], d=v["d"], eta=v["eta"], alpha=v["alpha"],
                                 seed=v["seed"])
    csv_path = out_dir / f"{v['name']}.csv"
    write_matrix_csv(csv_path, data.x)
    write_json(out_dir / f"{v['name']}.json", {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "csv": csv_path.name,
        "n": data.n,
        "d": data.d,
        "eta": _jfloat(data.eta),
        "alpha": _jfloat(data.alpha),
        "seed": v["seed"],
    })
    print(f"wrote {csv_path} and {csv_path.with_suffix('.json')}")
    return 0


def cmd_dp_attention(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    v = _validate(cfg, _DP_ATTENTION)
    data = _load_dataset(v["dataset"], config_dir)
    params = DpParams(eps=v["eps"], delta=v["delta"], gamma=v["gamma"], k=v["k"], r=v["r"],
                      kind=Activation(v["f"]), utility_const=v["utility_const"], seed=v["seed"])
    report = dp_attention(data, v["beta"], params)
    path = out_dir / v["report"]
    write_json(path, _attention_report_doc(report))
    failing = [c.name for c in report.requirement_checks if not c.passed and not c.warning_only]
    status = "certified" if report.certified else f"not certified (failing: {failing})"
    print(f"wrote {path}: {status}")
    return 0 if report.certified else 1


def cmd_verify_privacy(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    inline = "neighbor" in cfg
    v = _validate(cfg, _VERIFY_PRIVACY | (_INLINE_PAIR if inline else _FILE_PAIR))
    data = _load_dataset(v["dataset"], config_dir)
    if inline:
        pair = make_neighbor(data, **v["neighbor"])
    else:
        perturbed = read_matrix_csv(config_dir / v["perturbed_csv"])
        pair = NeighborPair(base=data, perturbed=perturbed, beta=v["beta"], index=v["index"])
    report = verify_neighbor_privacy(pair, eps=v["eps"], delta=v["delta"], k=v["k"],
                                     trials=v["trials"], seed=v["seed"])
    name = v["report"]
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
    v = _validate(cfg, _BENCH_UTILITY)
    n, seed = v["n"], v["seed"]
    sigma = _bench_sigma(n, v["cond"], seed)

    lines = ["n,k,trial,rel_frob_error"]
    for ki, k in enumerate(v["ks"]):
        errors = [
            gaussian_sampling_mechanism(sigma, k, (seed, ki, t)).rel_frob_error
            for t in range(v["trials"])
        ]
        lines.extend(
            f"{n},{k},{t},{_format_float(err)}" for t, err in enumerate(errors)
        )
        if errors:
            lines.append(f"{n},{k},median,{_format_float(statistics.median(errors))}")
    path = out_dir / v["report"]
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
    except (DpAttnError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

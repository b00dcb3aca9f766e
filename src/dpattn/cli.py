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
seeds lie in ``[0, rng.MAX_SEED]``.  Matrices and bench-utility's table are
CSV with shortest round-trip floats, so write/read cycles are bit-exact;
verify-privacy's privacy-loss draws are one float64 ``.npy`` array in trial
order.  Reports are JSON documents, ``schema_version`` 2: ``schema_version``
and ``kind``, then one key per field of the report's dataclass, in field
order.  One writer walks the fields: a nested dataclass becomes an object, a
matrix nested lists, a tuple a list, an enum its value and a non-finite float
``null``; ``NeighborPrivacyReport.samples`` goes to the ``.npy`` instead.  A
new report field therefore needs no change here.

Exit codes: 0 success/certified, 1 requirement or certificate failure,
2 input or parse error, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import rng
from .attention import Activation
from .dataset import Dataset, NeighborPair, generate_good_dataset, make_neighbor
from .errors import DpAttnError
from .linalg import SymMatrix, relative_tol
from .mechanism import bartlett_factors, frobenius_from_identity
from .pipeline import DpParams, dp_attention, verify_neighbor_privacy

SCHEMA_VERSION = 2


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

def write_matrix_csv(path: Path, arr: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
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


def _jsonable(value):
    """``value`` as JSON: a dataclass by its fields (but ``samples``, which goes to a
    ``.npy``), a matrix as nested lists, an enum by value, a non-finite float as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, SymMatrix):
        value = value.values
    if isinstance(value, np.ndarray):
        return np.where(np.isfinite(value), value, None).tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return {f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value) if f.name != "samples"}


def write_json(path: Path, kind: str, fields: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
    path.write_text(json.dumps(doc, indent=2) + "\n")


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
    write_json(out_dir / f"{v['name']}.json", "dataset", {
        "csv": csv_path.name, "n": data.n, "d": data.d, "eta": data.eta, "alpha": data.alpha,
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
    write_json(path, "dp_attention_report", _jsonable(report))
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
    write_json(out_dir / f"{name}.json", "neighbor_privacy_report", _jsonable(report))
    np.save(out_dir / f"{name}_samples.npy", report.samples)
    granted = report.certificate.granted
    print(
        f"wrote {out_dir / (name + '.json')}: "
        f"{'granted' if granted else 'denied ' + str(list(report.certificate.denial_reasons))}, "
        f"empirical rate {report.empirical_rate}"
    )
    return 0 if granted else 1


def cmd_bench_utility(cfg: dict, out_dir: Path, config_dir: Path) -> int:
    v = _validate(cfg, _BENCH_UTILITY)
    n, seed, trials = v["n"], v["seed"], v["trials"]
    # The covariance has the eigenvalues geomspace(1, cond, n) and the whitened error
    # does not depend on them, so it is defined exactly when they clear the floor.
    eigs = np.geomspace(1.0, v["cond"], n)
    defined = eigs.min() > relative_tol(eigs)

    lines = ["n,k,trial,rel_frob_error"]
    for ki, k in enumerate(v["ks"]):
        errors = [math.nan] * trials
        if defined:
            errors = [err for factors in bartlett_factors(n, k, (seed, ki), trials)
                      for err in frobenius_from_identity(factors @ factors.mT / k)]
        lines.extend(f"{n},{k},{t},{err!r}" for t, err in enumerate(errors))
        lines.append(f"{n},{k},median,{statistics.median(errors)!r}")
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


# Built once, at import: nothing in it depends on argv.
_PARSER = argparse.ArgumentParser(
    prog="dpattn",
    description="Differentially private attention surrogates and their verification.",
)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=".", help="output directory (default: cwd)")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

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

"""The benchmark's workloads: seeded inputs, one timed operation, its correctness gate.

Each workload is a closed loop with one caller.  ``call`` makes the inputs of
one operation from the workload's seeded stream, times the public call(s),
and returns the time with the outputs; ``check`` returns the list of gate
failures for those outputs (empty when the operation is correct).  Only the
public API is used: ``dpattn.*`` and ``dpattn.cli.main(argv)`` in-process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dpattn as dp
from dpattn import cli

from spans import maybe_span

# The README dataset and parameters.
N, D, ETA, ALPHA, BETA = 4, 8, 0.01, 0.11, 1e-8
EPS, DELTA, GAMMA, R = 0.05, 0.01, 0.05, 0.05
RADIUS_TARGET = 0.004
PRIVACY_K = 50
# Allowed probability that a correct program exceeds the eps-miss allowance.
MISS_TAIL = 1e-6


@dataclass(frozen=True)
class Scale:
    cli_trials: int
    cli_ks: tuple[int, ...]
    cli_bench_trials: int


# The cli pass runs the README configs with a tenth of their verify-privacy
# and bench-utility trials: a full README pass takes about 12 s, which leaves
# too few passes in a run for a steady median.
FULL = Scale(cli_trials=10_000, cli_ks=(1000, 10_000, 100_000), cli_bench_trials=10)
TOY = Scale(cli_trials=1000, cli_ks=(100, 1000), cli_bench_trials=5)


def _seed(rnd: random.Random) -> int:
    return rnd.randrange(2**31)


def _params(k: int, seed: int) -> dp.DpParams:
    return dp.DpParams(eps=EPS, delta=DELTA, gamma=GAMMA, k=k, r=R, kind=dp.Activation.EXP,
                       utility_const=1.0, seed=seed)


def binomial_allowance(trials: int, p: float, tail: float = MISS_TAIL) -> int:
    """Smallest ``c`` with ``Pr[Binomial(trials, p) > c] <= tail``."""
    log_pmf = trials * math.log1p(-p)
    log_ratio = math.log(p) - math.log1p(-p)
    cdf = 0.0
    for c in range(trials + 1):
        cdf += math.exp(log_pmf)
        if 1.0 - cdf <= tail:
            return c
        log_pmf += math.log(trials - c) - math.log(c + 1) + log_ratio
    return trials


class Workload:
    name = ""

    def warm(self) -> list[str]:
        """One untimed operation at full size, part of the set-up; returns its gate failures."""
        return self.check(self.call(None)[1])

    def run_problems(self) -> list[str]:
        """Gate failures that only the whole run can show."""
        return []

    def counters(self) -> dict[str, float]:
        """Running totals, over the whole run, of per-layer counts the gates take."""
        return {}

    def named(self, seconds: list[float]) -> dict[str, float]:
        """Figures of the timed operations under this workload's own names."""
        return {}


class Release(Workload):
    """Repeated ``dp_attention`` on the README dataset at the utility-grade k."""

    name = "release"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.rnd = random.Random(seed)
        self.data = dp.generate_good_dataset(n=N, d=D, eta=ETA, alpha=ALPHA, seed=_seed(self.rnd))
        self.k = dp.required_samples(N, GAMMA, RADIUS_TARGET, 1.0)
        self.checked = 0
        self.eps_misses = 0

    def call(self, tracer):
        params = _params(self.k, _seed(self.rnd))
        t0 = time.perf_counter()
        report = dp.dp_attention(self.data, BETA, params)
        return time.perf_counter() - t0, report

    def check(self, report) -> list[str]:
        problems = [f"requirement {c.name} failed" for c in report.requirement_checks
                    if not c.passed and not c.warning_only]
        for label, att in (("base", report.attention_base),
                           ("released", report.attention_released)):
            if not np.all(np.abs(np.asarray(att).sum(axis=1) - 1.0) <= 1e-12):
                problems.append(f"attention_{label} rows do not sum to 1")
        if report.loewner_eps_event and not report.measured_error <= report.error_bound:
            problems.append(f"measured error {report.measured_error} above bound "
                            f"{report.error_bound}")
        self.checked += 1
        self.eps_misses += not report.loewner_eps_event
        return problems

    def run_problems(self) -> list[str]:
        allowed = binomial_allowance(self.checked, GAMMA)
        if self.eps_misses > allowed:
            return [f"{self.eps_misses} eps-event misses in {self.checked} releases, "
                    f"allowance {allowed}"]
        return []

    def counters(self) -> dict[str, float]:
        return {"pipeline.eps_event_misses": self.eps_misses}

    def named(self, seconds: list[float]) -> dict[str, float]:
        return {"release_ms_p50": 1e3 * statistics.median(seconds)}


COMMANDS = ("gen-dataset", "dp-attention", "verify-privacy", "bench-utility")


def cli_configs(rnd: random.Random, scale: Scale) -> dict[str, dict]:
    """The README's four documented configs, with seeds drawn from ``rnd``."""
    return {
        "gen-dataset": {"name": "demo", "n": N, "d": D, "eta": ETA, "alpha": ALPHA,
                        "seed": _seed(rnd)},
        "dp-attention": {"dataset": "demo.json", "beta": BETA, "eps": EPS, "delta": DELTA,
                         "gamma": GAMMA, "k": dp.required_samples(N, GAMMA, RADIUS_TARGET, 1.0),
                         "r": R, "f": "exp", "utility_const": 1.0, "seed": _seed(rnd)},
        "verify-privacy": {"dataset": "demo.json", "eps": EPS, "delta": DELTA, "k": PRIVACY_K,
                           "trials": scale.cli_trials, "seed": _seed(rnd),
                           "neighbor": {"beta": BETA, "index": rnd.randrange(D),
                                        "seed": _seed(rnd)}},
        "bench-utility": {"n": 8, "ks": list(scale.cli_ks), "trials": scale.cli_bench_trials,
                          "seed": _seed(rnd), "cond": 10.0},
    }


def _config_name(command: str) -> str:
    return f"config-{command}.json"


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Cli(Workload):
    """One pass runs the four README configs in order through ``dpattn.cli.main``.

    Every pass writes into a fresh directory under ``workdir``.  The gate
    checks exit codes and reports, and compares the SHA-256 of every file the
    pass wrote with the first pass of the run.
    """

    name = "cli"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.rnd = random.Random(seed)
        self.configs = cli_configs(self.rnd, scale)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.passes = 0
        self.first_digests: dict[str, str] | None = None
        self.bytes_written = 0
        self.command_seconds: dict[str, list[float]] = {c: [] for c in COMMANDS}

    def call(self, tracer):
        out = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        out.mkdir(parents=True)
        for command, cfg in self.configs.items():
            (out / _config_name(command)).write_text(json.dumps(cfg))
        codes, seconds = {}, {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command in COMMANDS:
                argv = [command, "--config", str(out / _config_name(command)), "--out", str(out)]
                with maybe_span(tracer, "cli.cmd." + command.replace("-", "_")):
                    t0 = time.perf_counter()
                    codes[command] = cli.main(argv)
                    seconds[command] = time.perf_counter() - t0
        return sum(seconds.values()), (out, codes, seconds)

    def check(self, output) -> list[str]:
        out, codes, seconds = output
        try:
            return self._check(out, codes, seconds)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, codes: dict[str, int], seconds: dict[str, float]) -> list[str]:
        problems = [f"{c} exited {rc}" for c, rc in codes.items() if rc != 0]
        sidecar = _load(out / "demo.json")
        if not (isinstance(sidecar, dict) and sidecar.get("kind") == "dataset"):
            problems.append("dataset sidecar missing or not a dataset")
        attention = _load(out / "dp_attention_report.json")
        if not (isinstance(attention, dict) and attention.get("certified") is True):
            problems.append("dp-attention report missing or not certified")
        privacy = _load(out / "privacy_report.json")
        if not (isinstance(privacy, dict)
                and (privacy.get("certificate") or {}).get("granted") is True):
            problems.append("privacy report missing or not granted")
        bench = out / "bench_utility.csv"
        cfg = self.configs["bench-utility"]
        expected_rows = 1 + len(cfg["ks"]) * (cfg["trials"] + 1)
        rows = bench.read_text().splitlines() if bench.is_file() else []
        if len(rows) != expected_rows:
            problems.append(f"bench_utility.csv has {len(rows)} rows, expected {expected_rows}")

        configs = {_config_name(c) for c in COMMANDS}
        written = sorted(p for p in out.iterdir() if p.name not in configs)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
        self.bytes_written += sum(p.stat().st_size for p in written)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("output bytes differ from the first pass")
        if not problems:
            for command, secs in seconds.items():
                self.command_seconds[command].append(secs)
        return problems

    def counters(self) -> dict[str, float]:
        return {"cli.bytes_written": self.bytes_written}

    def named(self, seconds: list[float]) -> dict[str, float]:
        return {f"cli_{c.replace('-', '_')}_s": statistics.median(v)
                for c, v in self.command_seconds.items() if v}


WORKLOADS = {w.name: w for w in (Release, Cli)}

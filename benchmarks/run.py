"""dpattn benchmark: one workload, measured for a fixed time, in one process.

Usage, from the repository root::

    python3 benchmarks/run.py --workload release|cli --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Set-up (import, input generation, one warm-up operation) is
repeated and timed apart from the measured loop.  The loop is closed, with
one caller, and runs for ``--seconds``, but at least ``MIN_OPS`` operations.

Set-up and operation times are reported scaled to a reference speed: a
fixed computation of the benchmark's own (:func:`reference_seconds`) is
timed just before every operation and every set-up.  Each time is
divided by its reference and multiplied by ``REF_NOMINAL_S``.  On a shared
host, co-tenant load slows the program for minutes at a time; the
reference slows alike, so the scaled times stay steady where raw times
drift between runs.  A change to the program still shows in full, since
the reference does not call it.  The line before the result carries the
raw times too.

``--trace 0`` times the loop untraced and reports the end-to-end metrics.
``--trace 1`` alternates untraced operations with operations in which
every public function is wrapped in a span (see ``spans.py``), and reports
the per-layer metrics per traced operation, with the tracing overhead: the
traced minus the untraced median scaled operation time.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it carries the workload's own names for its figures, every timed
operation's time, and the machine and provenance data.  Exit code 0 on a
completed run, whether or not its outputs were correct; 1 when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import Tracer, calls, inclusive_seconds, maybe_span, self_seconds, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MIN_OPS = 2
# Median of reference_seconds() on a quiet 2-vCPU Xeon (numpy 2.4.6): the
# unit in which scaled times read as seconds.
REF_NOMINAL_S = 0.022
REF_VALUES = 1_000_000
ENV_RECORDED = ("DPATTN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _import_package() -> float:
    """Import dpattn from this checkout's ``src/``; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "dpattn" / "__init__.py").is_file():
        raise ImportError(f"no dpattn package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dpattn
    import dpattn.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(dpattn.__file__).resolve().parent != (src / "dpattn").resolve():
        raise ImportError(f"dpattn was imported from {dpattn.__file__}, not from {src}")
    return seconds


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import dpattn
    import numpy as np
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dpattn": getattr(dpattn, "__version__", None),
        "stream_version": getattr(dpattn.rng, "STREAM_VERSION", None),
        "git_commit": _git_commit(),
        "env": {name: os.environ.get(name) for name in ENV_RECORDED},
    }


def tail_ms(seconds: list[float]) -> dict[str, float]:
    """The highest decile of the operation times with at least ten samples beyond it."""
    deciles = statistics.quantiles(seconds, n=10, method="inclusive") if len(seconds) > 1 else []
    for pct in range(90, 0, -10):
        if len(seconds) * (100 - pct) >= 1000:
            return {f"p{pct}": 1e3 * deciles[pct // 10 - 1]}
    return {}


@functools.cache
def _reference_buffer():
    import numpy as np

    return np.zeros(REF_VALUES)


def reference_seconds() -> float:
    """Time of a fixed computation like the program's hot path, in numpy alone.

    Box-Muller normals from a Philox stream, as a release draws them, so
    host load moves it as it moves the program.  It works in place in one
    buffer kept for the run: a fresh allocation would page-fault, and how
    often depends on what the program freed just before, which would tie
    the reference to the program.
    """
    import numpy as np

    u = _reference_buffer()
    radius, angle = u[0::2], u[1::2]
    t0 = time.perf_counter()
    np.random.Generator(np.random.Philox(12345)).random(out=u)
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    np.cos(angle, out=angle)
    np.multiply(radius, angle, out=radius)
    return time.perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    return seconds / reference * REF_NOMINAL_S


def setup_reference() -> float:
    """The reference for a set-up, which is timed once: a median of three."""
    return statistics.median(reference_seconds() for _ in range(3))


class Loop:
    """Outcome of one closed loop: times of correct operations and gate failures.

    ``seconds`` holds the raw times and ``scaled`` the same times scaled by
    the reference timed just before each operation.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.references: list[float] = []
        self.attempted = 0
        self.failed = 0

    def step(self, wl, tracer=None) -> None:
        """One operation, its reference and its gate."""
        reference = reference_seconds()
        self.references.append(reference)
        self.attempted += 1
        try:
            with maybe_span(tracer, "bench.op"):
                secs, output = wl.call(tracer)
            problems = wl.check(output)
        except Exception:
            problems = [traceback.format_exc()]
        if tracer is not None:
            tracer.fold()
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {problems}", file=sys.stderr)
        else:
            self.seconds.append(secs)
            self.scaled.append(scaled(secs, reference))


def run_for(seconds: float, step) -> None:
    """Call ``step`` at least ``MIN_OPS`` times, and until the next call would end late."""
    start = time.perf_counter()
    calls = 0
    while True:
        step_start = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if calls >= MIN_OPS and now - start + (now - step_start) > seconds:
            return


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "op_ms_p50_scaled": 1e3 * statistics.median(loop.scaled or [float("nan")]),
    }


def per_layer(setup_totals, totals, counts, ops: int, gate_counts, overhead_ms, untraced_ms):
    def per_op(x: float) -> float:
        return x / ops

    def per_call(name: str) -> float:
        n = sum(t[name][0] for t in (setup_totals, totals) if name in t)
        s = sum(t[name][1] for t in (setup_totals, totals) if name in t)
        return s / n if n else 0.0

    releases = counts.get("mechanism.releases", 0)
    metrics = {
        "rng.normals": per_op(counts.get("rng.normals", 0)),
        "rng.generators": per_op(counts.get("rng.generators", 0)),
        "rng.self_s": per_op(self_seconds(totals, "rng.")),
        "mechanism.releases": per_op(releases),
        "mechanism.normals_per_release":
            counts.get("mechanism.normals", 0) / releases if releases else 0.0,
        "mechanism.self_s": per_op(self_seconds(totals, "mechanism.")),
        "linalg.calls": per_op(calls(totals, "linalg.")),
        "linalg.self_s": per_op(self_seconds(totals, "linalg.")),
        "privacy.spectrum_calls": per_op(calls(totals, "privacy.privacy_spectrum")),
        "privacy.spectrum_s": per_op(inclusive_seconds(totals, "privacy.privacy_spectrum")),
        "privacy.certificate_s": per_op(inclusive_seconds(totals, "privacy.dp_certificate")),
        "privacy.loss_draws": per_op(counts.get("privacy.loss_draws", 0)),
        "privacy.loss_self_s": per_op(self_seconds(totals, "privacy.privacy_loss_sample")
                                      + self_seconds(totals, "privacy.task")),
        "parallel.tasks": per_op(counts.get("parallel.tasks", 0)),
        "parallel.self_s": per_op(self_seconds(totals, "parallel.")),
        "attention.calls": per_op(calls(totals, "attention.")),
        "attention.self_s": per_op(self_seconds(totals, "attention.")),
        "dataset.generate_s": per_call("dataset.generate_good_dataset"),
        "dataset.neighbor_s": per_call("dataset.make_neighbor"),
        "dataset.gram_calls": per_op(calls(totals, "dataset.gram")),
        "pipeline.dp_attention_self_s": per_op(self_seconds(totals, "pipeline.dp_attention")),
        "pipeline.verify_self_s":
            per_op(self_seconds(totals, "pipeline.verify_neighbor_privacy")),
        "pipeline.eps_event_misses": gate_counts.get("pipeline.eps_event_misses", 0),
        "cli.bytes_written": per_op(gate_counts.get("cli.bytes_written", 0)),
        "cli.io_s": per_op(sum(inclusive_seconds(totals, f"cli.{name}") for name in
                               ("read_matrix_csv", "write_matrix_csv", "write_json"))),
        "cli.gen_dataset_s": per_op(inclusive_seconds(totals, "cli.cmd.gen_dataset")),
        "bench.self_s": per_op(self_seconds(totals, "bench.")),
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_share": overhead_ms / untraced_ms,
    }
    for command in ("gen_dataset", "dp_attention", "verify_privacy", "bench_utility"):
        metrics[f"cli.{command}_self_s"] = per_op(self_seconds(totals, f"cli.cmd.{command}"))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (result, details)."""
    import workloads  # imports dpattn: only after _import_package

    cls = workloads.WORKLOADS[workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        import_scaled = scaled(import_s, setup_reference())
        setup_times, setup_scaled, problems = [], [], []
        for _ in range(1 if trace else SETUP_REPS):
            reference = setup_reference()
            t0 = time.perf_counter()
            wl = cls(seed, workloads.FULL, workdir)
            problems += wl.warm()
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(scaled(setup_times[-1], reference))
        setup_s = import_scaled + statistics.median(setup_scaled)

        if not trace:
            loop = Loop()
            run_for(seconds, lambda: loop.step(wl))
            metrics = end_to_end(loop, setup_s)
            named = {**wl.named(loop.seconds), "op_ms_tail": tail_ms(loop.seconds)} \
                if loop.seconds else {}
            named["op_ms_p50_raw"] = 1e3 * statistics.median(loop.seconds or [float("nan")])
            named["setup_s_raw"] = import_s + statistics.median(setup_times)
            named["reference_ms_p50"] = 1e3 * statistics.median(loop.references)
        else:
            # Untraced and traced operations alternate, so that host load
            # drifting during the run weighs on both alike.
            loop, traced_loop, tracer = Loop(), Loop(), Tracer()
            gate_counts: dict[str, float] = defaultdict(float)
            with traced(tracer):
                with tracer.span("bench.setup"):
                    cls(seed, workloads.FULL, workdir)
            setup_totals, _ = tracer.take()

            def pair():
                loop.step(wl)
                before = wl.counters()
                with traced(tracer):
                    traced_loop.step(wl, tracer)
                for name, value in wl.counters().items():
                    gate_counts[name] += value - before.get(name, 0)

            run_for(seconds, pair)
            totals, counts = tracer.take()
            untraced_ms = 1e3 * statistics.median(loop.scaled or [float("nan")])
            traced_ms = 1e3 * statistics.median(traced_loop.scaled or [float("nan")])
            metrics = per_layer(setup_totals, totals, counts, traced_loop.attempted,
                                gate_counts, traced_ms - untraced_ms, untraced_ms)
            named = {"untraced_op_ms_p50_scaled": untraced_ms,
                     "traced_op_ms_p50_scaled": traced_ms,
                     "traced_ops": traced_loop.attempted}
            loop.attempted += traced_loop.attempted
            loop.failed += traced_loop.failed
        problems += wl.run_problems()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"run failed: {problem}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "timed_ops": len(loop.seconds), "named": named,
               "setup": {"import_s": import_s, "reps_s": setup_times,
                         "reps_scaled_s": setup_scaled},
               "op_ms": [round(1e3 * x, 3) for x in loop.seconds],
               "op_ms_scaled": [round(1e3 * x, 3) for x in loop.scaled],
               "provenance": provenance()}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("release", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = _import_package()
    except ImportError as exc:
        print(f"benchmark: cannot import the package: {exc}", file=sys.stderr)
        return 1
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match the declared "
                           f"{sorted(units)}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

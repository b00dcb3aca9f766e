"""In-memory span timer, and tracing of dpattn's public functions from outside.

A span records its name, start, end and parent.  :func:`traced` replaces each
function named in :data:`TRACED` with a wrapper that opens a span around the
call.  The wrapper is installed at the function's module attribute and at
every other binding of the same function object in a loaded ``dpattn``
module (the package namespace and each ``from .x import y``), so calls made
inside the library are traced too.  Nothing in the library changes: the
original bindings are restored when the ``with`` block ends.

Spans are recorded only below a root span the benchmark opened itself, so
calls made by the benchmark's correctness gates are not traced.  A span's
self time is its duration minus the durations of its direct children; the
self times of a tree therefore sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

PACKAGE = "dpattn"

# Functions traced, by dpattn module.  A name the loaded package lacks is
# skipped, so the benchmark keeps running when a later change removes one.
TRACED = {
    "rng": ("generator", "standard_normals"),
    "mechanism": ("sample_gaussian", "gaussian_sampling_mechanism", "utility_radius",
                  "required_samples"),
    "linalg": ("sym_eigendecompose", "is_psd", "psd_sqrt", "psd_inv_sqrt", "psd_project",
               "loewner_within", "relative_frobenius_distance"),
    "attention": ("entrywise_activation", "row_normalizer", "attention_matrix",
                  "attention_error", "theoretical_error_bound", "perturbation_chain_check"),
    "dataset": ("check_good", "generate_good_dataset", "make_neighbor", "gram",
                "sensitivity_measured", "sensitivity_bound"),
    "privacy": ("sensitivity_budget", "privacy_spectrum", "expected_privacy_loss",
                "privacy_loss_sample", "privacy_loss_samples", "sub_exp_params", "tail_bound",
                "dp_certificate", "wilson_upper", "mc_privacy_verify"),
    "parallel": ("trial_map",),
    "pipeline": ("dp_attention", "verify_neighbor_privacy"),
    "cli": ("read_matrix_csv", "write_matrix_csv", "write_json"),
}


def _size(result) -> int:
    return len(result)


def _one(result) -> int:
    return 1


# Counters taken from a traced call's result: span name -> (counter, increment).
COUNTERS = {
    "rng.generator": ("rng.generators", _one),
    "rng.standard_normals": ("rng.normals", _size),
    "mechanism.gaussian_sampling_mechanism": ("mechanism.releases", _one),
    "privacy.privacy_loss_samples": ("privacy.loss_draws", _size),
    "privacy.privacy_loss_sample": ("privacy.loss_draws", _one),
    "parallel.trial_map": ("parallel.tasks", _size),
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    :meth:`fold` folds the finished spans into per-name totals and drops
    them, which keeps memory bounded over a long run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def within(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def fold(self) -> None:
        if self._stack:
            raise RuntimeError("cannot fold while spans are open")
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        for span, children in zip(self.spans, child_time):
            entry = self.totals[span.name]
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.duration - children
        self.spans.clear()

    def take(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Fold, then return and reset the totals and counters."""
        self.fold()
        totals, counts = dict(self.totals), dict(self.counts)
        self.totals.clear()
        self.counts.clear()
        return totals, counts


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    wrap_task = None
    if name == "parallel.trial_map":
        # Each task is a callback into the caller's layer: give it its own
        # span so its work is not booked as the scheduler's self time.
        def wrap_task(task):
            layer = (getattr(task, "__module__", None) or "").rsplit(".", 1)[-1]
            return _wrap(tracer, layer + ".task", task)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        if wrap_task is not None and args:
            args = (wrap_task(args[0]),) + args[1:]
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
            if name == "rng.standard_normals" and tracer.within("mechanism."):
                tracer.count("mechanism.normals", len(result))
        return result

    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every function in :data:`TRACED` for the duration of the block."""
    originals = {}
    for module_name, names in TRACED.items():
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        for attr in names:
            fn = getattr(module, attr, None) if module is not None else None
            if callable(fn):
                originals[id(fn)] = (fn, _wrap(tracer, f"{module_name}.{attr}", fn))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def self_seconds(totals: dict[str, list[float]], prefix: str) -> float:
    return sum(v[2] for k, v in totals.items() if k.startswith(prefix))


def inclusive_seconds(totals: dict[str, list[float]], name: str) -> float:
    return totals[name][1] if name in totals else 0.0


def calls(totals: dict[str, list[float]], prefix: str) -> int:
    return int(sum(v[0] for k, v in totals.items() if k.startswith(prefix)))

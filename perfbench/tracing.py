"""In-memory spans and counts for the traced benchmark run.

Tracing lives in the benchmark, not in the program: :func:`instrument`
replaces the public callables named in :data:`TARGETS` at the attribute the
caller looks them up through (a module global or a class attribute), wraps
each call in a span, and restores the originals on exit.  Nothing is patched
in an untraced run.

A span records its name, start, end, the span that was open on the same
thread when it started (its parent) and the thread it ran on.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list[Any]:
        return [self.name, self.start, self.end, self.parent, self.span_id,
                self.thread, self.attrs]


class Tracer:
    """Collects spans and counts from any number of threads."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, name, start, end,
                        threading.get_ident(), attrs)
            with self._lock:
                self._spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n

    def drain(self) -> tuple[list[Span], Counter[str]]:
        """Return and forget everything recorded so far (call when idle)."""
        with self._lock:
            spans, counts = self._spans, self._counts
            self._spans, self._counts = [], Counter()
        return spans, counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Return each span's duration minus the time its children cover.

    Children run on their parent's thread, one after another, so their
    coverage of the parent is the sum of their durations.
    """
    covered: Counter[int] = Counter()
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.span_id: span.duration - covered[span.span_id] for span in spans}


def totals_by_name(spans: list[Span]) -> tuple[Counter[str], Counter[str]]:
    """Return (self seconds, call count) per span name."""
    own = self_times(spans)
    seconds: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span in spans:
        seconds[span.name] += own[span.span_id]
        calls[span.name] += 1
    return seconds, calls


# --------------------------------------------------------------------------- #
# what gets wrapped
# --------------------------------------------------------------------------- #
def _engine_vectors(args: tuple, kwargs: dict) -> dict[str, Any]:
    pi_bits = kwargs.get("pi_bits", args[1] if len(args) > 1 else None)
    return {"vectors": int(pi_bits.shape[1])}


def _solve_counts(tracer: Tracer, op: Any) -> None:
    if op.newton_iterations is not None:
        tracer.count("spice.newton_iters", int(op.newton_iterations.sum()))
        tracer.count("spice.newton_columns", int(op.batch))
    if op.fallback is not None:
        tracer.count("spice.fallback_cols", int(op.fallback.sum()))
    tracer.count("spice.nonconverged_cols", int((~op.converged).sum()))


#: (module, attribute looked up by the caller, span name, span attributes
#: from the call's arguments, hook run on the call's result).
TARGETS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("repro.core.reference", "flatten_batch", "circuit.flatten", None, None),
    ("repro.variation.montecarlo", "flatten", "circuit.flatten", None, None),
    ("repro.spice.batched", "BatchedDcSolver.__init__", "spice.solver_setup",
     None, None),
    ("repro.spice.batched", "BatchedDcSolver.solve", "spice.solve", None,
     _solve_counts),
    ("repro.spice.batched", "BatchedDcSolver.leakage_by_owner", "spice.extract",
     None, None),
    ("repro.spice.sparse", "splu", "spice.factor", None, None),
    ("repro.device.batched", "PackedMosfets.__init__", "device.pack", None, None),
    ("repro.device.batched", "PackedMosfets.rows", "device.pack", None, None),
    ("repro.device.batched", "PackedMosfets.kcl_currents", "device.residual",
     None, None),
    ("repro.device.batched", "PackedMosfets.kcl_jacobian", "device.jacobian",
     None, None),
    ("repro.gates.characterize", "GateCharacterizer.characterize",
     "gates.characterize", None, None),
    ("repro.gates.characterize", "GateCharacterizer.characterize_type",
     "gates.characterize", None, None),
    ("repro.engine.compile", "CompileCache.get_or_compile", "engine.compile",
     None, None),
    ("repro.analysis", "preflight_circuit", "analysis.preflight", None, None),
    ("repro.service.session", "run_totals", "engine.run", _engine_vectors, None),
    ("repro.variation.montecarlo", "simulate_batch", "variation.simulate",
     None, None),
    ("repro.variation.montecarlo", "spawn_streams", "variation.draw", None, None),
    ("repro.variation.montecarlo", "sample_inter_die", "variation.draw", None,
     None),
    ("repro.variation.montecarlo", "apply_inter_die", "variation.draw", None,
     None),
    ("repro.variation.montecarlo", "sample_intra_die_vth", "variation.draw",
     None, None),
]


def _wrap(tracer: Tracer, fn: Callable, name: str, attrs_of, on_result):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_of(args, kwargs) if attrs_of else {}
        with tracer.span(name, **attrs):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TARGETS` callable for the duration of the block."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, attrs_of, on_result in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            restore.append((owner, attribute, original))
            setattr(owner, attribute,
                    _wrap(tracer, original, name, attrs_of, on_result))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lut_bulk --seed 1 --seconds 15 --trace 0

Workloads: ``lut_bulk``, ``serve_point``, ``reference_solve``,
``variation_mc`` (see ``workloads.py`` for what each one stresses and why).

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs one traced cold set-up, then the timed loop twice -- once
untraced, once with every layer wrapped (``tracing.py``) -- and reports the
per-layer metrics; the two loops give the tracing overhead.  The traced run
also writes its spans to ``perfbench/out/``.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` holding
exactly the metrics ``BENCHMARK.json`` lists for the mode.  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, instrument, self_times, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

#: Percentiles tried, highest first, for the latency tail.  The tail is the
#: highest one with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Return (percentile, seconds, samples beyond) of the latency tail."""
    ordered = np.sort(latencies)
    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(ordered, pct))
        beyond = int((ordered > value).sum())
        if beyond >= 10:
            return pct, value, beyond
    return 0.0, 0.0, 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class _Phases(dict):
    """Wall seconds per phase of the run, for the human-readable report."""

    def __call__(self, name: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self[name] = self.get(name, 0.0) + time.perf_counter() - start
        return result


def _loop(workload, state, seconds, tracer=None):
    # Start every timed loop from a collected heap.
    gc.collect()
    return workload.loop(state, seconds, tracer)


def _untraced(workload, seconds: float, phases: _Phases):
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    phases["setup"] = sum(setups)
    phases("warm_up", workload.warm_up, state)
    loop = phases("loop", _loop, workload, state, seconds)
    checks = phases("checks", workload.check, state, [loop])
    metrics = {
        "throughput_per_s": loop.rate,
        "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = {
        workload.throughput_name: (loop.rate, "1/s"),
        "latency_p50_ms": (metrics["latency_p50_ms"], "ms"),
    }
    pct, value, beyond = _tail(loop.latencies)
    if beyond:
        label = f"latency_p{pct:g}_ms ({beyond} of {len(loop.latencies)} calls beyond)"
        report[label] = (1e3 * value, "ms")
    report["setup_s"] = (metrics["setup_s"], "s")
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    for name, value in checks.values.items():
        report[name] = (value, "%" if name.endswith("_pct") else "")
    return metrics, report, [loop], checks


def _layer_metrics(workload, state, setup, loop_spans, counts, plain, traced,
                   checks) -> dict[str, float]:
    setup_spans, setup_wall = setup
    own, calls = totals_by_name(loop_spans)
    setup_own, _ = totals_by_name(setup_spans)
    m: dict[str, float] = {}

    passes = [s for s in loop_spans if s.name == "engine.run"]
    vectors = sum(s.attrs["vectors"] for s in passes)
    m["engine.run_s"] = own["engine.run"]
    m["engine.run_calls"] = len(passes)
    m["engine.vectors_per_call"] = vectors / len(passes) if passes else 0.0

    requests = [s for s in loop_spans if s.name == "service.request"]
    if requests and workload.vectors_per_request:
        served = sum(p.duration * p.attrs["vectors"] for p in passes)
        served /= workload.vectors_per_request
        waited = sum(r.duration for r in requests) - served
        m["service.wait_ms"] = 1e3 * waited / len(requests)
    else:
        m["service.wait_ms"] = 0.0
    coalescer = traced.stats.get("coalescer", {})
    batches = coalescer.get("batches", 0)
    m["service.batches"] = batches
    m["service.requests_per_batch"] = (
        coalescer["requests"] / batches if batches else 0.0
    )
    m["service.degraded"] = traced.stats.get("session", {}).get("degraded_requests", 0)
    _, tail, beyond = _tail(plain.latencies)
    m["latency_p99_ms"] = 1e3 * tail
    m["latency_p99_beyond"] = beyond

    for name in ("factor", "solver_setup", "solve", "extract"):
        m[f"spice.{name}_s"] = own[f"spice.{name}"]
    m["spice.factor_calls"] = calls["spice.factor"]
    columns = counts["spice.newton_columns"]
    m["spice.newton_iters_mean"] = counts["spice.newton_iters"] / columns if columns else 0.0
    m["spice.fallback_cols"] = counts["spice.fallback_cols"]
    m["spice.nonconverged_cols"] = counts["spice.nonconverged_cols"]
    m["circuit.flatten_s"] = own["circuit.flatten"]
    m["circuit.flatten_calls"] = calls["circuit.flatten"]
    for name in ("pack", "jacobian", "residual"):
        m[f"device.{name}_s"] = own[f"device.{name}"]
        m[f"device.{name}_calls"] = calls[f"device.{name}"]
    m["variation.draw_s"] = own["variation.draw"]
    m["variation.simulate_s"] = own["variation.simulate"]
    m["variation.converged_ratio"] = checks.values.get("converged_ratio", 0.0)
    m["core.reference_s"] = own["core.reference"]
    m["core.est_err_pct"] = checks.values.get("est_err_pct", 0.0)
    m["analysis.preflight_loop_s"] = own["analysis.preflight"]

    # Set-up layers, from the one traced cold set-up.
    m["gates.characterize_s"] = setup_own["gates.characterize"]
    m["engine.compile_s"] = setup_own["engine.compile"]
    m["analysis.preflight_s"] = setup_own["analysis.preflight"]
    m["setup.spice_s"] = sum(v for k, v in setup_own.items() if k.startswith("spice."))
    m["setup.device_s"] = sum(v for k, v in setup_own.items() if k.startswith("device."))
    m["setup.unattributed_s"] = setup_wall - sum(setup_own.values())
    if state is not None:
        session, library = state
        solve_stats = library.characterizer.solve_stats
        m["gates.records"] = len(library.cached_records())
        m["gates.newton_iters"] = solve_stats["iterations"]
        cache = session.stats()["compile_cache"]
        m["engine.cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
    else:
        m["gates.records"] = m["gates.newton_iters"] = m["engine.cache_hit_ratio"] = 0

    # The loop spends its time inside call spans, whose trees attribute all
    # of it to layers; the rest is the loop's own overhead.
    calls_s = sum(s.duration for s in loop_spans
                  if s.parent is None and s.name == workload.call_span)
    m["trace.unattributed_s"] = traced.elapsed - calls_s
    m["trace.overhead_pct"] = 100.0 * (plain.rate / traced.rate - 1.0)
    m["trace.spans"] = len(loop_spans)
    return m


def _self_list(spans) -> list[float]:
    own = self_times(spans)
    return [own[s.span_id] for s in spans]


def _traced(workload, seconds: float, phases: _Phases):
    tracer = Tracer()
    gc.collect()
    with instrument(tracer):
        state = phases("setup", workload.setup)
    setup_wall = phases["setup"]
    setup_spans, setup_counts = tracer.drain()
    phases("warm_up", workload.warm_up, state)
    plain = phases("loop", _loop, workload, state, seconds)
    with instrument(tracer):
        traced = phases("traced_loop", _loop, workload, state, seconds, tracer)
    loop_spans, counts = tracer.drain()
    checks = phases("checks", workload.check, state, [plain, traced])
    metrics = _layer_metrics(workload, state, (setup_spans, setup_wall),
                             loop_spans, counts, plain, traced, checks)
    trace = {
        "span_fields": ["name", "start", "end", "parent", "id", "thread", "attrs"],
        "setup": {"wall_s": setup_wall, "counts": setup_counts,
                  "spans": [s.as_row() for s in setup_spans]},
        "loop": {"wall_s": traced.elapsed, "counts": counts,
                 "spans": [s.as_row() for s in loop_spans]},
    }
    report = {name: (value, "") for name, value in metrics.items()}
    report.update(_layer_shares(loop_spans, traced.elapsed))
    return metrics, report, [plain, traced], checks, trace


def _layer_shares(spans, loop_seconds: float) -> dict[str, tuple[float, str]]:
    """Self time per layer (the span name's prefix) as a share of the loop."""
    shares: dict[str, float] = {}
    for span, own in zip(spans, _self_list(spans)):
        layer = span.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own
    return {
        f"share.{layer}": (100.0 * seconds / loop_seconds, "%")
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1])
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Warnings are counted, not silenced.  The program warns once per
    # process for each (gate type, direction) whose loading leaves the
    # characterized injection range, so the count is the number of distinct
    # range clamps the run hit (s838 clamps at this grid: a known defect).
    phases = _Phases()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload = phases("inputs", WORKLOADS[args.workload], args.seed)
        if args.trace:
            metrics, report, loops, checks, trace = _traced(workload, args.seconds, phases)
            wanted = spec["per_layer"]
        else:
            metrics, report, loops, checks = _untraced(workload, args.seconds, phases)
            wanted = spec["end_to_end"]
        sizes = phases("sizes", workload.sizes)
    categories = Counter(w.category.__name__ for w in caught)
    metrics["gates.range_clamps"] = categories["ResponseCurveRangeWarning"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        trace_path = HERE / "out" / f"{workload.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace.update(workload=workload.name, seed=args.seed,
                     environment=_environment(), inputs=sizes, metrics=metrics)
        trace_path.write_text(json.dumps(trace) + "\n")

    attempted = sum(loop.ops for loop in loops) + checks.attempted
    failed = sum(loop.failed for loop in loops) + len(checks.failed)
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment", json.dumps(_environment()))
    print("inputs", json.dumps(sizes))
    print("phases_s", json.dumps({k: round(v, 3) for k, v in phases.items()}))
    print("warnings", json.dumps(categories))
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit or units.get(name, '')}".rstrip())
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for what in checks.failed[:20]:
        print(f"CHECK FAILED: {what}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

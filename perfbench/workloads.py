"""The benchmark's four workloads, driven through the public API.

Each workload makes its inputs from the seed alone, builds its program state
cold in :meth:`setup`, warms it outside any timed region, runs a timed loop
for a fixed number of seconds and then checks the loop's outputs against a
second path that exists at run time.  A wrong answer fails the run instead of
looking fast.

Why these four (the paper's two numbers are LUT accuracy against the
transistor-level solve and the speed of getting there):

* ``lut_bulk`` -- an offline vector campaign: large bit matrices through one
  warm session, so the ``engine`` array passes are almost all of the time.
* ``serve_point`` -- the same ``engine`` layer used the opposite way: 1-vector
  queries from one closed-loop client through the request coalescer, so the
  per-pass fixed cost and the ``service`` batch window and hand-off dominate.
  (Two clients are bistable on a 2-core machine: their batches can fall out
  of step, overlap, and run at half the throughput for whole runs.)
* ``reference_solve`` -- the Fig. 12a transistor-level column on a
  2,671-free-node circuit: the ``spice``, ``device`` and ``circuit`` layers.
* ``variation_mc`` -- the Fig. 10 loaded-inverter Monte Carlo: the
  ``variation`` layer and the small-netlist path (dense Newton, no SuperLU).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.circuit.flatten import flatten
from repro.circuit.generators import iscas_like, loaded_inverter_cluster
from repro.core.estimator import LoadingAwareEstimator
from repro.core.reference import run_reference_campaign
from repro.device.presets import make_technology
from repro.engine.campaign import run_compiled, run_totals
from repro.service import EstimationSession
from repro.service.session import stats_delta
from repro.spice.netlist import NodeKind
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo

from tracing import Tracer

TECHNOLOGY = "d25-s"


@dataclass
class Loop:
    """What one timed loop did."""

    ops: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: Wall time of each call into the program.
    latencies: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    stats: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.ops / self.elapsed


@dataclass
class Checks:
    passed: int = 0
    failed: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed.append(what)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failed)


def _assignments(circuit, bits: np.ndarray) -> list[dict[str, int]]:
    names = circuit.primary_inputs
    return [
        {name: int(bits[row, column]) for row, name in enumerate(names)}
        for column in range(bits.shape[1])
    ]


def _free_nodes(circuit, technology, assignment) -> int:
    netlist = flatten(circuit, technology, assignment).netlist
    return sum(node.kind is NodeKind.FREE for node in netlist.nodes.values())


class Workload:
    name = ""
    #: Name the throughput is printed under (what one operation is).
    throughput_name = ""
    #: Vectors in one request to the service layer (0: no service layer).
    vectors_per_request = 0
    #: Span around each call the timed loop makes, named after the layer
    #: the called function belongs to.
    call_span = "service.request"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.technology = make_technology(TECHNOLOGY)

    def setup(self) -> Any:
        raise NotImplementedError

    def warm_up(self, state: Any) -> None:
        raise NotImplementedError

    def loop(self, state: Any, seconds: float, tracer: Tracer | None) -> Loop:
        raise NotImplementedError

    def check(self, state: Any, loops: list[Loop]) -> Checks:
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def _timed_calls(self, seconds, tracer, call, inputs) -> Loop:
        """Single-client closed loop: call(input) back to back for ``seconds``."""
        loop = Loop()
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while True:
            item = inputs[index % len(inputs)]
            t0 = time.perf_counter()
            span = tracer.span(self.call_span) if tracer else nullcontext()
            try:
                with span:
                    output, ops, bad = call(item)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                output, ops, bad = exc, 1, 1
            t1 = time.perf_counter()
            loop.latencies.append(t1 - t0)
            loop.outputs.append((index, output))
            loop.ops += ops
            loop.failed += bad
            index += 1
            if t1 >= deadline:
                break
        loop.elapsed = t1 - start
        return loop


def _cold_session(technology, circuit):
    """A fresh session and compile cache, no library store: pay everything."""
    session = EstimationSession()
    library = session.library(technology)
    session.warm_up([circuit], library)
    return session, library


class LutBulk(Workload):
    name = "lut_bulk"
    throughput_name = "vectors_per_s"
    circuit_name = "s5372"
    #: Vectors per totals() call: one engine chunk (DEFAULT_CHUNK_SIZE).
    block = 512
    blocks = 8
    vectors_per_request = block

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.circuit = iscas_like(self.circuit_name)
        rng = np.random.default_rng(seed)
        n_pi = len(self.circuit.primary_inputs)
        self.inputs = [
            rng.integers(0, 2, size=(n_pi, self.block), dtype=np.uint8)
            for _ in range(self.blocks)
        ]
        self.warm_bits = rng.integers(0, 2, size=(n_pi, 16), dtype=np.uint8)

    def setup(self):
        return _cold_session(self.technology, self.circuit)

    def warm_up(self, state) -> None:
        session, library = state
        session.totals(self.circuit, library, self.warm_bits, coalesce=False)

    def loop(self, state, seconds, tracer) -> Loop:
        session, library = state

        def call(bits):
            totals = session.totals(self.circuit, library, bits, coalesce=False)
            return totals, bits.shape[1], 0

        before = session.stats()
        loop = self._timed_calls(seconds, tracer, call, self.inputs)
        loop.stats = stats_delta(before, session.stats())
        return loop

    def check(self, state, loops) -> Checks:
        session, library = state
        checks = Checks()
        compiled = session.compiled(self.circuit, library)
        bits = self.inputs[0][:, :64]
        direct = run_totals(compiled, bits)
        reports = run_compiled(compiled, _assignments(self.circuit, bits))
        checks.expect(
            np.array_equal(direct, reports.component_totals()["total"]),
            "run_totals != run_compiled totals",
        )
        for loop in loops:
            for index, output in loop.outputs:
                ok = isinstance(output, np.ndarray) and output.shape == (self.block,)
                if ok and index % self.blocks == 0:
                    ok = np.array_equal(output[:64], direct)
                checks.expect(ok, f"block {index}: bad totals {output!r}"[:200])
        estimator = LoadingAwareEstimator(library)
        for column, assignment in enumerate(_assignments(self.circuit, bits[:, :4])):
            want = estimator.estimate(self.circuit, assignment).total
            got = run_totals(compiled, bits[:, column : column + 1])[0]
            checks.expect(
                abs(got - want) <= 1e-9 * abs(want),
                f"vector {column}: engine {got!r} vs estimator {want!r}",
            )
        return checks

    def sizes(self) -> dict[str, int]:
        return _lut_sizes(self.circuit, self.technology)


def _lut_sizes(circuit, technology) -> dict[str, int]:
    assignment = {name: 0 for name in circuit.primary_inputs}
    return {
        "gates": circuit.gate_count,
        "free_nodes": _free_nodes(circuit, technology, assignment),
        "pis": len(circuit.primary_inputs),
    }


class ServePoint(Workload):
    name = "serve_point"
    throughput_name = "queries_per_s"
    circuit_name = "s838"
    vectors_per_request = 1
    #: Distinct queries (cycled; more than a run uses).
    queries = 4096

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.circuit = iscas_like(self.circuit_name)
        rng = np.random.default_rng(seed)
        n_pi = len(self.circuit.primary_inputs)
        bits = rng.integers(0, 2, size=(n_pi, self.queries + 16), dtype=np.uint8)
        self.inputs = [bits[:, i : i + 1] for i in range(self.queries)]
        self.warm_queries = [bits[:, i : i + 1] for i in range(self.queries, bits.shape[1])]

    def setup(self):
        return _cold_session(self.technology, self.circuit)

    def warm_up(self, state) -> None:
        session, library = state
        for query in self.warm_queries:
            session.totals(self.circuit, library, query)

    def loop(self, state, seconds, tracer) -> Loop:
        session, library = state

        def call(query):
            return session.totals(self.circuit, library, query), 1, 0

        before = session.stats()
        loop = self._timed_calls(seconds, tracer, call, self.inputs)
        loop.stats = stats_delta(before, session.stats())
        return loop

    def check(self, state, loops) -> Checks:
        session, library = state
        checks = Checks()
        compiled = session.compiled(self.circuit, library)
        for loop in loops:
            stacked = np.concatenate(
                [self.inputs[index % self.queries] for index, _ in loop.outputs], axis=1
            )
            # Columns are evaluated independently, so one direct pass over
            # every query answers each of them as a 1-vector call would.
            direct = run_totals(compiled, stacked)
            for position, (_, answer) in enumerate(loop.outputs):
                checks.expect(
                    isinstance(answer, np.ndarray)
                    and np.array_equal(answer, direct[position : position + 1]),
                    f"query {position}: coalesced answer differs from run_totals",
                )
            for position in range(0, len(loop.outputs), max(1, len(loop.outputs) // 16)):
                single = run_totals(compiled, stacked[:, position : position + 1])
                checks.expect(
                    np.array_equal(single, loop.outputs[position][1]),
                    f"query {position}: differs from a 1-vector run_totals",
                )
            coalescer = loop.stats["coalescer"]
            checks.expect(
                coalescer["rejected"] == 0 and coalescer["deadline_exceeded"] == 0
                and loop.stats["session"]["degraded_requests"] == 0,
                "rejected, deadline-exceeded or degraded requests",
            )
        return checks

    def sizes(self) -> dict[str, int]:
        return _lut_sizes(self.circuit, self.technology)


class ReferenceSolve(Workload):
    name = "reference_solve"
    call_span = "core.reference"
    throughput_name = "ref_vectors_per_s"
    gates = 1200
    vectors_per_call = 2
    calls = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.circuit = iscas_like(self.gates)
        rng = np.random.default_rng(seed)
        n_pi = len(self.circuit.primary_inputs)
        bits = rng.integers(0, 2, size=(n_pi, self.vectors_per_call * self.calls + 1),
                            dtype=np.uint8)
        vectors = _assignments(self.circuit, bits)
        self.warm_vector = vectors.pop()
        self.inputs = [
            vectors[i : i + self.vectors_per_call]
            for i in range(0, len(vectors), self.vectors_per_call)
        ]

    def setup(self):
        return _cold_session(self.technology, self.circuit)

    def warm_up(self, state) -> None:
        run_reference_campaign(self.circuit, self.technology, vectors=[self.warm_vector])

    def loop(self, state, seconds, tracer) -> Loop:
        def call(vectors):
            campaign = run_reference_campaign(self.circuit, self.technology, vectors=vectors)
            # Keep only what the checks read: holding every report would grow
            # the heap the garbage collector walks as the loop goes on.
            totals = np.array([r.total for r in campaign.reports])
            converged = np.array([r.metadata["solver_converged"] for r in campaign.reports])
            return (totals, converged), len(vectors), int((~converged).sum())

        return self._timed_calls(seconds, tracer, call, self.inputs)

    def check(self, state, loops) -> Checks:
        session, library = state
        checks = Checks()
        errors = []
        for loop in loops:
            for index, output in loop.outputs:
                vectors = self.inputs[index % self.calls]
                ok = isinstance(output, tuple) and output[0].shape == (len(vectors),)
                checks.expect(ok, f"reference call {index} failed: {output!r}"[:200])
                if not ok:
                    continue
                reference, converged = output
                for column in converged:
                    checks.expect(bool(column), f"reference call {index}: column did not converge")
                lut = session.totals(self.circuit, library, vectors, coalesce=False)
                errors.extend(np.abs(lut - reference) / reference)
        checks.expect(bool(errors) and np.all(np.isfinite(errors)), "no LUT error")
        checks.values["est_err_pct"] = 100.0 * float(max(errors)) if errors else float("nan")
        return checks

    def sizes(self) -> dict[str, int]:
        return {
            "gates": self.circuit.gate_count,
            "free_nodes": _free_nodes(self.circuit, self.technology, self.warm_vector),
            "pis": len(self.circuit.primary_inputs),
        }


class VariationMc(Workload):
    name = "variation_mc"
    call_span = "variation.simulate"
    throughput_name = "samples_per_s"
    samples = 256
    calls = 256
    loads = 6
    #: Samples of the repeated sub-run checked bitwise against the loop.
    repeat = 32
    #: Samples of the first call that stands in for set-up (there is no
    #: library to build); large enough to time steadily.
    setup_samples = 128

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs = [
            int(s) for s in np.random.default_rng(seed).integers(2**32, size=self.calls + 1)
        ]
        self.warm_seed = self.inputs.pop()

    def _run(self, seed: int, samples: int):
        return run_loaded_inverter_monte_carlo(
            self.technology, samples=samples, rng=seed, input_value=0,
            input_loads=self.loads, output_loads=self.loads, sampler="mc",
        )

    def setup(self):
        self.technology = make_technology(TECHNOLOGY)
        self._run(self.warm_seed, self.setup_samples)
        return None

    def warm_up(self, state) -> None:
        self._run(self.warm_seed, self.samples)

    @staticmethod
    def _values(result) -> dict[tuple[str, bool], np.ndarray]:
        return {
            (component, loaded): result.values(component, loaded)
            for component in ("subthreshold", "gate", "btbt", "total")
            for loaded in (True, False)
        }

    def loop(self, state, seconds, tracer) -> Loop:
        def call(seed):
            result = self._run(seed, self.samples)
            # Arrays instead of the result's per-sample objects, so the heap
            # the garbage collector walks does not grow with the loop.
            converged = result.converged_mask
            return (converged, self._values(result)), result.sample_count, int(
                (~converged).sum()
            )

        return self._timed_calls(seconds, tracer, call, self.inputs)

    def check(self, state, loops) -> Checks:
        checks = Checks()
        converged = []
        for loop in loops:
            for index, output in loop.outputs:
                ok = isinstance(output, tuple) and output[0].shape == (self.samples,)
                checks.expect(ok, f"Monte Carlo call {index} failed: {output!r}"[:200])
                if ok:
                    checks.expect(bool(output[0].all()),
                                  f"Monte Carlo call {index}: unconverged samples")
                    converged.append(output[0])
        index, output = loops[0].outputs[0]
        if isinstance(output, tuple):
            repeat = self._values(self._run(self.inputs[index], self.repeat))
            for key, values in repeat.items():
                checks.expect(
                    values.tolist() == output[1][key][: self.repeat].tolist(),
                    f"repeat sub-run differs {key}",
                )
        checks.values["converged_ratio"] = float(np.concatenate(converged).mean())
        return checks

    def sizes(self) -> dict[str, int]:
        circuit = loaded_inverter_cluster(self.loads, self.loads)
        return {
            "gates": circuit.gate_count,
            "free_nodes": _free_nodes(circuit, self.technology, {"in": 1}),
            "pis": len(circuit.primary_inputs),
        }


WORKLOADS = {w.name: w for w in (LutBulk, ServePoint, ReferenceSolve, VariationMc)}

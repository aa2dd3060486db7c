"""Transistor-level reference leakage analysis (the "SPICE" column).

The paper validates its estimator against HSPICE operating-point analyses of
the full circuit.  :class:`ReferenceSimulator` plays that role here: it
flattens the gate-level circuit into transistors
(:mod:`repro.circuit.flatten`), solves the coupled DC operating point with the
relaxation solver (:mod:`repro.spice.solver`), and aggregates per-gate leakage
components.  Because every net — including the nets *between* gates — is
solved against all attached transistors, the result contains the full loading
effect with no one-level approximation; the estimator's accuracy is measured
against it (Fig. 12a).

The production path is :func:`run_reference_campaign`, which rides the
batched SPICE layer: per chunk of vectors the circuit flattens *once*
(:func:`repro.circuit.flatten.flatten_batch`) and all vectors of the chunk
solve together as one :class:`~repro.spice.batched.BatchedDcSolver` batch,
which is what makes full-suite, many-vector reference validation campaigns
feasible.  Chunks are memory-bounded and —
because every per-column update of the batched solver is independent of its
batch neighbours — the results are bitwise independent of how the vector set
is chunked, and of whether the chunks run in-process or across a supervised
process pool (``max_workers``/``resilience``).
:meth:`ReferenceSimulator.estimate` — one
:class:`~repro.spice.solver.DcSolver` relaxation per input vector — is the
oracle the tests and benchmarks compare it against, and the per-vector
:class:`~repro.core.vectors.LeakageEstimator` the runtime experiment times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from repro.circuit.flatten import flatten, flatten_batch
from repro.circuit.logic import propagate, random_vectors
from repro.circuit.netlist import Circuit, Gate
from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.core.vectors import VectorCampaignResult
from repro.device.params import TechnologyParams
from repro.resilience import ResilienceOptions
from repro.resilience.executor import supervised_map
from repro.spice.analysis import leakage_by_owner
from repro.spice.batched import BatchedDcSolver
from repro.spice.solver import DcSolver, SolverOptions
from repro.utils.rng import RngLike

#: Default vector-chunk size of the batched reference path.  Peak memory per
#: chunk scales with (netlist nodes x chunk), so the default keeps even the
#: largest suite circuits within tens of megabytes while still amortizing the
#: vectorized per-node root finds over a wide batch.
DEFAULT_REFERENCE_CHUNK_SIZE = 64


def _missing_owner_error(gate: Gate, owners_present: Iterable[str]) -> RuntimeError:
    """Build the diagnostic for a gate with no aggregated leakage.

    This happens when none of the flattened transistors carry the gate's
    name as owner tag — i.e. a miswired or misregistered transistor template
    filed the devices under another owner.  The message names the gate, its
    template, and the owners that *are* present so the offending template is
    identifiable without a debugger.
    """
    owners = sorted(owner for owner in owners_present if owner)
    shown = ", ".join(repr(owner) for owner in owners[:10]) or "<none>"
    if len(owners) > 10:
        shown += f", ... ({len(owners) - 10} more)"
    return RuntimeError(
        f"no leakage aggregated for gate {gate.name!r} (template "
        f"{gate.gate_type.value!r}): none of the flattened transistors carry "
        f"owner tag {gate.name!r}.  Owners present: {shown}.  This indicates "
        "a transistor template that registered its devices under a different "
        "owner."
    )


class ReferenceSimulator:
    """Full transistor-level leakage analysis of a gate-level circuit."""

    method_name = "reference"

    def __init__(
        self,
        technology: TechnologyParams,
        temperature_k: float | None = None,
        solver_options: SolverOptions | None = None,
        lint: str = "raise",
    ) -> None:
        self.technology = technology
        self.temperature_k = (
            technology.temperature_k if temperature_k is None else float(temperature_k)
        )
        # "auto" resolves per flattened system: batched-LAPACK dense Newton
        # on characterization-sized cells (bitwise identical to
        # method="newton" there), the sparse SuperLU backend once the
        # free-node count or the dense-Jacobian memory estimate says the
        # dense stack is a bad idea (large suite circuits).  The resolved
        # backend is recorded per report as metadata["solver_method"].
        self.solver_options = solver_options or SolverOptions(method="auto")
        #: Netlist pre-flight policy ("raise" | "warn" | "off"); applied
        #: before every :meth:`estimate` flatten so a malformed circuit is
        #: rejected with the full finding list instead of 30 s into a DC
        #: solve.
        self.lint = lint

    def _preflight(self, circuit: Circuit) -> None:
        from repro.analysis import preflight_circuit

        preflight_circuit(circuit, lint=self.lint)

    # ------------------------------------------------------------------ #
    # per-vector oracle path
    # ------------------------------------------------------------------ #
    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:
        """Return the reference leakage report for one input assignment."""
        self._preflight(circuit)
        start = time.perf_counter()
        flattened = flatten(circuit, self.technology, input_assignment)
        solver = DcSolver(flattened.netlist, self.temperature_k, self.solver_options)
        op = solver.solve(initial_voltages=flattened.initial_voltages())
        per_owner = leakage_by_owner(flattened.netlist, op)

        net_values = propagate(circuit, input_assignment)
        per_gate: dict[str, GateLeakage] = {}
        for name, gate in circuit.gates.items():
            breakdown = per_owner.get(name)
            if breakdown is None:
                raise _missing_owner_error(gate, per_owner)
            per_gate[name] = GateLeakage(
                gate_name=name,
                gate_type_name=gate.gate_type.value,
                vector=tuple(net_values[net] for net in gate.inputs),
                breakdown=breakdown,
            )

        elapsed = time.perf_counter() - start
        return CircuitLeakageReport(
            circuit_name=circuit.name,
            method=self.method_name,
            input_assignment=dict(input_assignment),
            per_gate=per_gate,
            temperature_k=self.temperature_k,
            vdd=self.technology.vdd,
            metadata={
                "runtime_s": elapsed,
                "gate_count": len(per_gate),
                "transistors": flattened.transistor_count,
                "solver_sweeps": op.sweeps,
                "solver_converged": op.converged,
                # The scalar DcSolver is always the relaxation oracle.
                "solver_method": "gauss-seidel",
            },
        )

    # ------------------------------------------------------------------ #
    # batched path
    # ------------------------------------------------------------------ #
    def _estimate_chunk(
        self, circuit: Circuit, assignments: list[dict[str, int]]
    ) -> list[CircuitLeakageReport]:
        """Solve one memory-bounded chunk of assignments as a single batch.

        The circuit flattens once into a shared transistor topology
        (:func:`flatten_batch`); all vectors of the chunk solve as one
        :class:`BatchedDcSolver` batch and the per-owner leakage of the
        whole chunk is aggregated in one array pass.  No pre-flight runs
        here: :func:`run_reference_campaign` lints once, before chunking.
        """
        start = time.perf_counter()
        flattened = flatten_batch(circuit, self.technology, assignments)
        solver = BatchedDcSolver(
            flattened.netlist_views(), self.temperature_k, self.solver_options
        )
        op = solver.solve(initial_voltages=flattened.initial_voltages())
        per_owner = solver.leakage_by_owner(op)

        batch = flattened.batch
        elapsed = time.perf_counter() - start
        per_vector = elapsed / batch

        gates = list(circuit.gates.values())
        breakdowns = []
        for gate in gates:
            batched = per_owner.get(gate.name)
            if batched is None:
                raise _missing_owner_error(gate, per_owner)
            breakdowns.append(batched)

        reports: list[CircuitLeakageReport] = []
        for index in range(batch):
            net_values = flattened.net_values[index]
            per_gate = {
                gate.name: GateLeakage(
                    gate_name=gate.name,
                    gate_type_name=gate.gate_type.value,
                    vector=tuple(net_values[net] for net in gate.inputs),
                    breakdown=batched.at(index),
                )
                for gate, batched in zip(gates, breakdowns)
            }
            metadata = {
                "runtime_s": per_vector,
                "gate_count": len(per_gate),
                "transistors": flattened.transistor_count,
                "solver_sweeps": int(op.sweeps[index]),
                "solver_converged": bool(op.converged[index]),
                "solver_method": op.method,
                "batch": batch,
            }
            if op.newton_iterations is not None:
                metadata["newton_iterations"] = int(op.newton_iterations[index])
                metadata["solver_fallback"] = bool(op.fallback[index])
            reports.append(
                CircuitLeakageReport(
                    circuit_name=circuit.name,
                    method=self.method_name,
                    input_assignment=dict(assignments[index]),
                    per_gate=per_gate,
                    temperature_k=self.temperature_k,
                    vdd=self.technology.vdd,
                    metadata=metadata,
                )
            )
        return reports


@dataclass(frozen=True)
class _ReferenceChunkTask:
    """Everything a reference-campaign chunk needs, minus its vectors.

    Picklable (circuit, technology and solver options are plain
    dataclasses) so a process pool can ship one copy per worker.  Its
    fields enter the checkpoint fingerprint of a pooled campaign.
    """

    circuit: Circuit
    technology: TechnologyParams
    temperature_k: float | None
    solver_options: SolverOptions | None


def _reference_chunk_star(
    args: tuple[_ReferenceChunkTask, list[dict[str, int]]]
) -> list[CircuitLeakageReport]:
    """Solve one chunk of reference vectors as one batch (pool-picklable).

    The caller has already run the netlist pre-flight, so the chunk does
    not lint again.
    """
    task, chunk = args
    simulator = ReferenceSimulator(
        task.technology, task.temperature_k, task.solver_options, lint="off"
    )
    return simulator._estimate_chunk(task.circuit, chunk)


def run_reference_campaign(
    circuit: Circuit,
    technology: TechnologyParams,
    vectors: Iterable[dict[str, int]] | None = None,
    count: int = 20,
    rng: RngLike = None,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    chunk_size: int = DEFAULT_REFERENCE_CHUNK_SIZE,
    lint: str = "raise",
    max_workers: int | None = 1,
    resilience: ResilienceOptions | None = None,
) -> VectorCampaignResult:
    """Run the transistor-level reference solve over a whole vector set.

    The reference twin of :func:`repro.core.vectors.run_vector_campaign`:
    it produces a :class:`VectorCampaignResult` whose reports come from the
    full transistor-level solve instead of the LUT estimator, so the two
    campaign results compare directly (Fig. 12a).

    The vector set splits into contiguous ``chunk_size`` batches; each
    flattens the circuit once and solves as one
    :class:`~repro.spice.batched.BatchedDcSolver` batch, and the reports are
    reassembled in vector order.  Every per-column update of the batched
    solver is independent of its batch neighbours, so the reports are
    bitwise identical whatever the chunk boundaries or worker count.

    Parameters
    ----------
    vectors:
        Explicit vector set; when omitted, ``count`` random vectors are
        drawn using ``rng``.
    chunk_size:
        Vectors per batch, the per-worker memory bound; has no effect on
        the results.
    lint:
        Netlist pre-flight policy (``"raise"`` | ``"warn"`` | ``"off"``),
        applied once, in this process, before any chunk is solved.
    max_workers:
        Worker-process count; ``1`` (default) solves the chunks in-process
        with no pool, ``None`` uses the CPU count (capped at 8).
    resilience:
        Optional :class:`~repro.resilience.ResilienceOptions`: retry
        policy, per-chunk deadline, checkpoint/resume, fault injection.
        Providing it forces the supervised pool even at one worker; pooled
        runs without it still get the default supervision.  The retry
        ledger lands in ``metadata["resilience"]``.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if vectors is None:
        vectors = list(random_vectors(circuit, count, rng))
    else:
        vectors = list(vectors)
    if not vectors:
        # An empty campaign would only surface later as NaN means.
        raise ValueError("no vectors to evaluate")
    from repro.analysis import preflight_circuit

    # A lint error raised inside a pool worker would come back as a broken
    # pool, not as the finding list: reject the circuit here, once.
    preflight_circuit(circuit, lint=lint)
    task = _ReferenceChunkTask(circuit, technology, temperature_k, solver_options)
    chunk_reports, metadata = supervised_map(
        _reference_chunk_star,
        [
            (task, vectors[start : start + chunk_size])
            for start in range(0, len(vectors), chunk_size)
        ],
        max_workers,
        resilience,
        lambda: {
            "kind": "reference-campaign",
            "task": task,
            "vectors": vectors,
            "chunk_size": chunk_size,
        },
    )
    return VectorCampaignResult(
        circuit_name=circuit.name,
        method=ReferenceSimulator.method_name,
        reports=[report for chunk in chunk_reports for report in chunk],
        metadata=metadata,
    )

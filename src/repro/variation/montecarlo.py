"""Monte-Carlo driver for the loaded-inverter variation study (Figs. 10-11).

For every sample the driver

1. draws the inter-die shifts (L, Tox, Vth, VDD) and applies them to the
   technology,
2. flattens two structures built from that shifted technology:

   * the *loaded* inverter of Fig. 10 — an inverter ``g`` whose input net is
     shared with ``input_loads`` other inverters and whose output net feeds
     ``output_loads`` inverters, and
   * the *unloaded* twin — the same driver + inverter with no neighbours,

3. draws per-transistor intra-die Vth shifts (the shift of a transistor in
   the loaded structure is reused for its counterpart in the unloaded one,
   so the two solves differ only by the presence of loading),
4. solves both and records the leakage components of the inverter under
   study.

The batched driver flattens each structure once per batch, at the nominal
technology: the samples of a batch differ only in numbers (supply and
primary-input rails, free-node seeds, per-transistor device parameters), so
all loaded structures solve as one
:class:`~repro.spice.batched.BatchedDcSolver` batch over a per-sample
device grid (and all unloaded twins as a second batch), bitwise equal to
flattening every sample at its shifted technology.  :func:`simulate_sample`
— one flatten and :class:`~repro.spice.solver.DcSolver` pair per sample —
is the oracle the tests and benchmarks compare it against: it consumes a
sample's random stream identically, so the two differ only at the
solver-tolerance level.

Two *samplers* are available on top: ``"mc"`` (default) draws pseudo-random
parameters from per-sample ``SeedSequence.spawn`` streams; ``"qmc"`` draws
the whole parameter block from a scrambled Sobol sequence
(:mod:`repro.variation.qmc`) with the same marginal distributions — the
variance-reduced path that reaches a given Fig. 10/11 accuracy at a
fraction of the sample budget.  With ``max_workers`` > 1 (or a
``resilience`` bundle) :func:`run_loaded_inverter_monte_carlo` fans
contiguous sample chunks across a supervised process pool, bitwise
identical to the in-process run.

Sample convergence is governed by ``on_nonconverged``: ``"warn"`` (default)
records the sample and emits a :class:`MonteCarloConvergenceWarning`,
``"raise"`` turns a stalled solve into a hard ``RuntimeError``, and
``"drop"`` excludes the sample from the recorded populations (the dropped
count is reported in ``MonteCarloResult.metadata``) — so a non-converged
operating point can never silently bias the Fig. 10/11 statistics.

The resulting paired samples are exactly what Fig. 10 histograms ("No
Loading" vs "with Loading") and Fig. 11 statistics (loading-induced change of
the mean and standard deviation) are computed from.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import repro
from repro.circuit.flatten import flatten
from repro.circuit.generators import loaded_inverter_cluster
from repro.device.batched import DeviceColumns
from repro.device.params import DeviceParams, TechnologyParams
from repro.resilience import ResilienceOptions
from repro.resilience.executor import default_workers, supervised_map
from repro.spice.analysis import ComponentBreakdown, leakage_by_owner
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import TransistorNetlist
from repro.spice.solver import DcSolver, SolverOptions
from repro.utils.rng import RngLike, rng_state_token, spawn_streams
from repro.variation.qmc import ParameterDraws, draw_qmc_parameters
from repro.variation.spec import (
    VariationSpec,
    apply_inter_die,
    sample_inter_die,
    sample_intra_die_vth,
)

#: Name of the inverter under study inside the generated cluster.
_TARGET_GATE = "g"

#: Valid parameter samplers.
SAMPLERS = ("mc", "qmc")

#: Valid non-convergence policies.
NONCONVERGED_POLICIES = ("warn", "raise", "drop")

#: Source directory of the package; convergence warnings skip its frames.
_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


class MonteCarloConvergenceWarning(UserWarning):
    """A Monte-Carlo sample's DC solve ended without converging.

    A sample recorded from a non-converged operating point can bias the
    Fig. 10/11 statistics; the warning names the structure and the worst
    final voltage update so the offending configuration is identifiable.
    Emitted under ``on_nonconverged="warn"`` (the default); ``"raise"``
    turns the condition into a ``RuntimeError`` and ``"drop"`` excludes the
    affected samples instead.
    """


@dataclass(frozen=True)
class MonteCarloSample:
    """Leakage of the studied inverter for one parameter sample."""

    with_loading: ComponentBreakdown
    without_loading: ComponentBreakdown
    #: True when both structure solves of this sample converged.
    converged: bool = True


@dataclass
class MonteCarloResult:
    """All samples of one Monte-Carlo run plus the configuration used."""

    spec: VariationSpec
    input_value: int
    input_loads: int
    output_loads: int
    samples: list[MonteCarloSample] = field(default_factory=list)
    #: Execution provenance (e.g. the sampler used, the count of samples
    #: dropped as non-converged, the supervised pool's retry ledger under
    #: ``"resilience"``); never feeds back into the sample values.
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def sample_count(self) -> int:
        """Return the number of recorded Monte-Carlo samples."""
        return len(self.samples)

    @property
    def converged_mask(self) -> np.ndarray:
        """Return the per-sample converged flags as a boolean array.

        Under ``on_nonconverged="drop"`` non-converged samples are never
        recorded, so the mask is all-True and
        ``metadata["dropped_nonconverged"]`` carries the dropped count;
        under ``"warn"`` the mask marks the suspect samples in place.
        """
        return np.array([s.converged for s in self.samples], dtype=bool)

    def values(self, component: str, loaded: bool = True) -> np.ndarray:
        """Return one component's samples in amperes.

        Parameters
        ----------
        component:
            ``subthreshold`` / ``gate`` / ``btbt`` / ``total``.
        loaded:
            True for the with-loading population, False for the unloaded one.
        """
        return np.array(
            [
                (s.with_loading if loaded else s.without_loading).component(component)
                for s in self.samples
            ]
        )


def _check_policy(on_nonconverged: str) -> str:
    if on_nonconverged not in NONCONVERGED_POLICIES:
        raise ValueError(
            f"on_nonconverged must be one of {NONCONVERGED_POLICIES}, "
            f"got {on_nonconverged!r}"
        )
    return on_nonconverged


def _external_stacklevel() -> int:
    """Return the ``warnings`` stacklevel of the first caller outside ``repro``.

    Counted from the function that calls this one (level 1), so a warning
    names the user's line however deep inside the package it was raised.
    """
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    return level


def _handle_nonconvergence(policy: str, message: str) -> None:
    """Apply the non-convergence policy for one solve (or batch of solves)."""
    if policy == "raise":
        raise RuntimeError(message)
    if policy == "warn":
        warnings.warn(
            message, MonteCarloConvergenceWarning, stacklevel=_external_stacklevel()
        )
    # "drop": the caller excludes the affected samples; nothing to emit.


def _solve_target_leakage(
    circuit,
    technology: TechnologyParams,
    input_assignment: dict[str, int],
    intra_vth: dict[str, float],
    temperature_k: float,
    solver_options: SolverOptions,
    on_nonconverged: str = "warn",
) -> tuple[ComponentBreakdown, bool]:
    """Flatten, apply per-transistor Vth shifts, solve, return gate ``g``'s leakage.

    Returns ``(breakdown, converged)``; the non-convergence policy is
    applied here for ``"warn"``/``"raise"`` (the caller drops).
    """
    flattened = flatten(circuit, technology, input_assignment)
    for transistor in flattened.netlist.transistors:
        shift = intra_vth.get(transistor.name)
        if shift is not None:
            transistor.mosfet.vth_shift = shift
    solver = DcSolver(flattened.netlist, temperature_k, solver_options)
    op = solver.solve(initial_voltages=flattened.initial_voltages())
    if not op.converged:
        _handle_nonconvergence(
            on_nonconverged,
            f"Monte-Carlo solve of {circuit.name!r} did not converge within "
            f"{solver_options.max_sweeps} sweeps; largest final voltage "
            f"update {op.max_update:.3e} V",
        )
    return leakage_by_owner(flattened.netlist, op)[_TARGET_GATE], bool(op.converged)


@dataclass(frozen=True)
class SampleTask:
    """Everything one Monte-Carlo sample needs, minus its random stream.

    The task is picklable (technology, spec and solver options are plain
    dataclasses), which is what lets the pooled path of
    :func:`run_loaded_inverter_monte_carlo` ship it to process-pool workers
    unchanged.  Its fields enter the checkpoint fingerprint of a pooled run.
    """

    technology: TechnologyParams
    spec: VariationSpec
    input_value: int
    input_loads: int
    output_loads: int
    temperature_k: float
    solver_options: SolverOptions
    on_nonconverged: str = "warn"


def _draw_sample_parameters(
    task: SampleTask,
    rng: np.random.Generator,
    loaded_flat_names: list[str],
) -> tuple[TechnologyParams, dict[str, float]]:
    """Draw one sample's shifted technology and intra-die Vth shifts.

    Shared by :func:`simulate_sample` and :func:`simulate_batch` so both
    consume a stream in exactly the same order (inter-die draws first, then
    one intra-die shift per transistor of the loaded structure).
    """
    inter = sample_inter_die(task.spec, rng)
    shifted = apply_inter_die(task.technology, inter)
    # The unloaded twin shares the shifts of its two gates (driver and 'g')
    # so that the only difference between the two solves is the loading.
    shifts = sample_intra_die_vth(task.spec, rng, len(loaded_flat_names))
    return shifted, dict(zip(loaded_flat_names, shifts))


def _draws_sample_parameters(
    task: SampleTask,
    draws: ParameterDraws,
    index: int,
    loaded_flat_names: list[str],
) -> tuple[TechnologyParams, dict[str, float]]:
    """Return sample ``index``'s pre-drawn shifted technology and Vth shifts."""
    shifted = apply_inter_die(task.technology, draws.inter_die(index))
    return shifted, dict(zip(loaded_flat_names, draws.intra_vth(index)))


def _loaded_flat_names(loaded_circuit) -> list[str]:
    """Return the flattened transistor names of the loaded structure."""
    return [
        f"{gate}.{suffix}"
        for gate in loaded_circuit.gates
        for suffix in ("mn1", "mp2")
    ]


def loaded_transistor_count(input_loads: int, output_loads: int) -> int:
    """Return the intra-die axis count of the Fig. 10 loaded structure.

    One Vth shift per flattened transistor — the Sobol dimension budget of
    the QMC sampler beyond the four inter-die axes.
    """
    return len(_loaded_flat_names(loaded_inverter_cluster(input_loads, output_loads)))


def _study_circuits(task: SampleTask):
    """Return (loaded circuit, unloaded twin, input assignment, flat names)."""
    loaded_circuit = loaded_inverter_cluster(task.input_loads, task.output_loads)
    unloaded_circuit = loaded_inverter_cluster(0, 0, name="unloaded_inverter")
    # The driver input is the complement of the studied inverter's input.
    assignment = {"in": 1 - task.input_value}
    return loaded_circuit, unloaded_circuit, assignment, _loaded_flat_names(loaded_circuit)


def simulate_sample(task: SampleTask, rng: np.random.Generator) -> MonteCarloSample:
    """Run one Monte-Carlo sample, drawing everything from ``rng``.

    The per-sample reference for tests and benchmarks: one scalar
    :class:`~repro.spice.solver.DcSolver` solve per structure.  It consumes
    ``rng`` exactly like :func:`simulate_batch` consumes each stream, so
    the two see identical parameter draws.
    """
    loaded_circuit, unloaded_circuit, assignment, names = _study_circuits(task)
    shifted, intra = _draw_sample_parameters(task, rng, names)
    with_loading, loaded_ok = _solve_target_leakage(
        loaded_circuit, shifted, assignment, intra, task.temperature_k,
        task.solver_options, task.on_nonconverged,
    )
    without_loading, unloaded_ok = _solve_target_leakage(
        unloaded_circuit, shifted, assignment, intra, task.temperature_k,
        task.solver_options, task.on_nonconverged,
    )
    return MonteCarloSample(
        with_loading=with_loading,
        without_loading=without_loading,
        converged=loaded_ok and unloaded_ok,
    )


def _device_grids(
    netlists: list[TransistorNetlist],
    nominal: TechnologyParams,
    technologies: list[TechnologyParams],
    intra_maps: list[dict[str, float]],
) -> list[DeviceColumns]:
    """Return the per-sample device grid of each netlist flattened at ``nominal``.

    :func:`~repro.variation.spec.apply_inter_die` never touches a device's
    width, so re-widening sample ``b``'s shifted flavour to a slot's width
    gives the field-identical device ``flatten(circuit, technologies[b],
    ...)`` builds for that slot: the packed arrays equal the per-sample
    flattened netlists', bit for bit.  The grids share one set of flavours
    (and one constants cache), so the device constants are computed once
    per (flavour, sample) for all netlists together.
    """
    flavours: dict[DeviceParams, int] = {}
    slot_devices = [
        np.array(
            [flavours.setdefault(t.mosfet.device, len(flavours)) for t in net.transistors]
        )
        for net in netlists
    ]
    devices = []
    for device in flavours:
        polarity, width = device.polarity, device.width_nm
        if device != nominal.device(polarity).replace(width_nm=width):
            raise ValueError(
                f"a {polarity.name} transistor differs from its technology "
                "flavour beyond its width; per-sample devices cannot be derived"
            )
        column = []
        for shifted in technologies:
            flavour = shifted.device(polarity)
            column.append(
                flavour if flavour.width_nm == width else flavour.replace(width_nm=width)
            )
        devices.append(column)
    constants: dict[float, np.ndarray] = {}
    return [
        DeviceColumns(
            devices,
            slot_device,
            # Transistors without a drawn shift keep the Mosfet default, 0.0.
            np.array(
                [[intra.get(t.name, 0.0) for intra in intra_maps] for t in net.transistors]
            ),
            constants,
        )
        for net, slot_device in zip(netlists, slot_devices)
    ]


def _solve_parameter_sets(
    task: SampleTask,
    parameter_sets: list[tuple[TechnologyParams, dict[str, float]]],
) -> list[MonteCarloSample]:
    """Solve a block of pre-drawn parameter sets as two batched DC solves.

    The shared engine of :func:`simulate_batch` (stream-drawn parameters)
    and :func:`simulate_batch_from_draws` (Sobol-drawn parameters).  Each
    structure is flattened once, at the nominal technology; its columns
    differ only in numbers — the supply and primary-input rails, the
    free-node seeds (``vdd`` times the seed level) and the per-slot device
    parameters (:func:`_device_grids`) — so each column is bitwise what
    flattening that sample's shifted technology would solve.  Every
    per-column update of the batched solver is independent of the other
    columns, so the result is bitwise-identical however the parameter sets
    are chunked across workers.
    """
    loaded_circuit, unloaded_circuit, assignment, _ = _study_circuits(task)
    technologies = [shifted for shifted, _ in parameter_sets]
    vdd = np.array([shifted.vdd for shifted in technologies])
    structures = [
        flatten(circuit, task.technology, assignment)
        for circuit in (loaded_circuit, unloaded_circuit)
    ]
    grids = _device_grids(
        [flattened.netlist for flattened in structures],
        task.technology,
        technologies,
        [intra for _, intra in parameter_sets],
    )

    solved = []
    for flattened, grid, label in zip(
        structures, grids, ("loaded-structure", "unloaded-structure")
    ):
        solver = BatchedDcSolver(
            flattened.supply_views(vdd),
            task.temperature_k,
            task.solver_options,
            devices=grid,
        )
        op = solver.solve(
            initial_voltages={
                node: vdd * level for node, level in flattened.seed_levels().items()
            }
        )
        if not op.all_converged:
            bad = np.flatnonzero(~op.converged)
            _handle_nonconvergence(
                task.on_nonconverged,
                f"{bad.size} of {op.batch} Monte-Carlo {label} solves did "
                f"not converge (worst final voltage update "
                f"{float(op.max_update[bad].max()):.3e} V)",
            )
        solved.append(
            (solver.leakage_by_owner(op)[_TARGET_GATE], np.asarray(op.converged, bool))
        )

    (loaded_leakage, loaded_ok), (unloaded_leakage, unloaded_ok) = solved
    return [
        MonteCarloSample(
            with_loading=loaded_leakage.at(index),
            without_loading=unloaded_leakage.at(index),
            converged=bool(loaded_ok[index] and unloaded_ok[index]),
        )
        for index in range(len(parameter_sets))
    ]


def _keep_converged(
    task: SampleTask, samples: list[MonteCarloSample]
) -> list[MonteCarloSample]:
    """Apply the ``"drop"`` policy: exclude non-converged samples."""
    if task.on_nonconverged != "drop":
        return samples
    return [sample for sample in samples if sample.converged]


def simulate_batch(
    task: SampleTask, streams: Sequence[np.random.Generator]
) -> list[MonteCarloSample]:
    """Run one Monte-Carlo sample per stream, solving them as two batches.

    Stream ``i`` is consumed exactly like :func:`simulate_sample` would, so
    the parameter draws are bitwise-identical to the per-sample oracle's; the
    loaded structures of *all* samples then solve as one
    :class:`~repro.spice.batched.BatchedDcSolver` batch (the unloaded twins
    as a second one), each structure flattened once.  Because every
    per-column update of the batched solver is independent of the other
    columns, the result is also bitwise-identical however the streams are
    chunked — which is what lets :func:`run_loaded_inverter_monte_carlo`
    distribute contiguous batches across workers without changing the
    answer.
    """
    names = _loaded_flat_names(loaded_inverter_cluster(task.input_loads, task.output_loads))
    parameter_sets = [
        _draw_sample_parameters(task, rng, names) for rng in streams
    ]
    return _keep_converged(task, _solve_parameter_sets(task, parameter_sets))


def simulate_batch_from_draws(
    task: SampleTask, draws: ParameterDraws
) -> list[MonteCarloSample]:
    """Run one sample per pre-drawn parameter row, solving them as two batches.

    The quasi-Monte-Carlo twin of :func:`simulate_batch`: the parameters
    were drawn up front (:func:`repro.variation.qmc.draw_qmc_parameters`),
    so workers receive :meth:`~repro.variation.qmc.ParameterDraws.slice`
    blocks and chunking can never change which parameters a sample gets.
    """
    names = _loaded_flat_names(loaded_inverter_cluster(task.input_loads, task.output_loads))
    if draws.transistor_count != len(names):
        raise ValueError(
            f"draws carry {draws.transistor_count} intra-die axes but the "
            f"loaded structure has {len(names)} transistors"
        )
    parameter_sets = [
        _draws_sample_parameters(task, draws, index, names)
        for index in range(draws.sample_count)
    ]
    return _keep_converged(task, _solve_parameter_sets(task, parameter_sets))


def _simulate_batch_star(
    args: tuple[SampleTask, Sequence[np.random.Generator]]
) -> list[MonteCarloSample]:
    """Process-pool adapter: unpack the (task, stream-chunk) pair."""
    return simulate_batch(*args)


def _simulate_draws_batch_star(
    args: tuple[SampleTask, ParameterDraws]
) -> list[MonteCarloSample]:
    """Process-pool adapter: solve one pre-drawn parameter block as a batch."""
    return simulate_batch_from_draws(*args)


def build_sample_task(
    technology: TechnologyParams,
    spec: VariationSpec | None = None,
    input_value: int = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    on_nonconverged: str = "warn",
) -> SampleTask:
    """Validate the study parameters and return the shared :class:`SampleTask`."""
    if input_value not in (0, 1):
        raise ValueError("input_value must be 0 or 1")
    if input_loads < 0 or output_loads < 0:
        raise ValueError("load counts must be non-negative")
    return SampleTask(
        technology=technology,
        spec=spec or VariationSpec(),
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        temperature_k=(
            technology.temperature_k if temperature_k is None else float(temperature_k)
        ),
        solver_options=solver_options or SolverOptions(),
        on_nonconverged=_check_policy(on_nonconverged),
    )


def run_loaded_inverter_monte_carlo(
    technology: TechnologyParams,
    spec: VariationSpec | None = None,
    samples: int = 200,
    rng: RngLike = None,
    input_value: int = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    sampler: str = "mc",
    on_nonconverged: str = "warn",
    max_workers: int | None = 1,
    resilience: ResilienceOptions | None = None,
) -> MonteCarloResult:
    """Run the Fig. 10 Monte-Carlo study and return the paired samples.

    Parameters
    ----------
    technology:
        Nominal technology; each sample perturbs a copy of it.
    spec:
        Variation magnitudes (defaults to the paper's Fig. 11 values).
    samples:
        Number of Monte-Carlo samples (the paper uses 10,000; the default is
        sized for interactive runs and is a parameter precisely so the full
        count can be reproduced when time allows).  With ``sampler="qmc"``
        prefer powers of two (Sobol balance).
    input_value:
        Logic value applied to the studied inverter's input (the paper uses
        input '0', output '1').
    input_loads / output_loads:
        Number of inverters loading the input and output nets (6 and 6 in
        Fig. 10).
    sampler:
        ``"mc"`` (default) draws pseudo-random parameters from per-sample
        spawned streams; ``"qmc"`` draws the whole block from a scrambled
        Sobol sequence seeded through the same root rng (variance-reduced,
        same marginal distributions).
    on_nonconverged:
        ``"warn"`` (default) records non-converged samples and warns;
        ``"raise"`` errors out; ``"drop"`` excludes them (count reported in
        ``metadata["dropped_nonconverged"]``).
    max_workers:
        Worker-process count; ``1`` (default) solves every sample as one
        in-process batch, ``None`` uses the CPU count (capped at 8; beyond
        that pool startup dominates for typical sample counts).
    resilience:
        Optional :class:`~repro.resilience.ResilienceOptions`: retry
        policy, per-chunk deadline, checkpoint/resume, fault injection.
        Providing it forces the supervised pool even at one worker; pooled
        runs without it still get the default supervision (worker-death
        recovery with the stock retry policy).  The retry ledger lands in
        ``metadata["resilience"]``.

    With ``sampler="mc"`` each sample draws from its own
    ``SeedSequence.spawn``-derived stream (sample ``i`` uses stream ``i``);
    with ``sampler="qmc"`` the whole parameter block is drawn up front and
    sliced.  Pooled runs split the samples into one contiguous chunk per
    worker; chunk boundaries choose *who* solves a sample, never *which*
    parameters it gets, and a retried chunk re-runs from its original
    streams or parameter slice, which live untouched in this process.  So
    the samples are bitwise identical for a given seed and sampler whatever
    the worker count, and still under injected faults.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    task = build_sample_task(
        technology,
        spec=spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        temperature_k=temperature_k,
        solver_options=solver_options,
        on_nonconverged=on_nonconverged,
    )
    workers = min(default_workers(max_workers), samples)
    rng_token = (
        rng_state_token(rng)
        if resilience is not None and resilience.checkpoint_path is not None
        else "absent"
    )
    # One contiguous chunk per worker (a single chunk in-process).
    chunk = -(-samples // workers)
    starts = range(0, samples, chunk)
    fn: Callable[[Any], Any]
    if sampler == "qmc":
        draws = draw_qmc_parameters(
            task.spec, samples, loaded_transistor_count(input_loads, output_loads), rng
        )
        fn = _simulate_draws_batch_star
        items = [(task, draws.slice(start, start + chunk)) for start in starts]
    else:
        streams = spawn_streams(rng, samples)
        fn = _simulate_batch_star
        items = [(task, streams[start : start + chunk]) for start in starts]
    batches, pool_metadata = supervised_map(
        fn,
        items,
        workers,
        resilience,
        lambda: {
            "kind": "monte-carlo",
            "sampler": sampler,
            "task": task,
            "samples": samples,
            "chunks": len(items),
            "rng": rng_token,
        },
    )
    metadata: dict[str, object] = {"sampler": sampler, **pool_metadata}
    collected = [sample for batch in batches for sample in batch]
    if task.on_nonconverged == "drop":
        metadata["dropped_nonconverged"] = samples - len(collected)
    return MonteCarloResult(
        spec=task.spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        samples=collected,
        metadata=metadata,
    )

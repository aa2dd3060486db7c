"""Equivalence tests: batched DC solver vs the scalar oracle.

The batched subsystem (vectorized device models, ``BatchedDcSolver``, the
batched characterization and Monte-Carlo paths) must reproduce the scalar
reference path: node voltages to solver tolerance, leakage breakdowns to a
tight relative tolerance, and — for the batch plumbing itself — results that
are bitwise independent of how instances are grouped into batches.
"""

import numpy as np
import pytest

import repro.device.batched as device_batched
import repro.variation.montecarlo as montecarlo
from repro.circuit.flatten import flatten
from repro.device.batched import DeviceColumns, PackedMosfets
from repro.device.mosfet import Mosfet
from repro.gates.characterize import CharacterizationOptions, GateCharacterizer
from repro.gates.library import GateType, gate_spec
from repro.gates.templates import build_gate_transistors
from repro.spice.analysis import leakage_by_owner
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import TransistorNetlist
from repro.spice.solver import DcSolver, SolverOptions
from repro.utils.rng import spawn_streams
from repro.utils.rootfind import chandrupatla
from repro.variation.moments import _axes, _shift_parameters
from repro.variation.montecarlo import (
    _draw_sample_parameters,
    _draws_sample_parameters,
    _solve_parameter_sets,
    _study_circuits,
    build_sample_task,
    simulate_batch,
    simulate_sample,
)
from repro.variation.qmc import draw_qmc_parameters
from repro.variation.spec import VariationSpec

#: Tolerances tight enough that solver-termination noise sits far below the
#: leakage agreement bar used by the equivalence assertions.
TIGHT = SolverOptions(voltage_tol=1e-10, xtol=1e-13, max_sweeps=200)

#: Reduced grid keeps the characterization comparisons quick.
SMALL_GRID = (-2.0e-6, -0.5e-6, 0.5e-6, 2.0e-6)


class TestVectorizedDeviceModels:
    def test_packed_matches_scalar_mosfet(self, bulk25):
        rng = np.random.default_rng(42)
        grid = []
        for slot in range(4):
            row = []
            for b in range(6):
                device = bulk25.nmos if slot % 2 == 0 else bulk25.pmos
                device = device.replace(
                    tox_nm=device.tox_nm + 0.01 * b,
                    length_nm=device.length_nm + 0.2 * b,
                )
                device = device.replace_subthreshold(
                    vth0=device.subthreshold.vth0 + 0.002 * b
                )
                row.append(Mosfet(device, vth_shift=0.001 * b))
            grid.append(row)
        packed = PackedMosfets(grid, 320.0)
        vg, vd, vs, vb = rng.uniform(-0.1, 1.0, size=(4, 4, 6))
        ig, idr, isr, ib = packed.kcl_currents(vg, vd, vs, vb)
        components = packed.component_currents(vg, vd, vs, vb)
        for t in range(4):
            for b in range(6):
                want = grid[t][b].terminal_currents(
                    vg[t, b], vd[t, b], vs[t, b], vb[t, b], 320.0
                )
                for got, expected in (
                    (ig[t, b], want.ig),
                    (idr[t, b], want.id),
                    (isr[t, b], want.is_),
                    (ib[t, b], want.ib),
                    (components.i_subthreshold[t, b], want.i_subthreshold),
                    (components.i_gate[t, b], want.i_gate),
                    (components.i_btbt[t, b], want.i_btbt),
                ):
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-28)

    def test_polarity_must_stay_constant_per_slot(self, bulk25):
        grid = [[Mosfet(bulk25.nmos), Mosfet(bulk25.pmos)]]
        with pytest.raises(ValueError, match="polarity"):
            PackedMosfets(grid, 300.0)

    def test_device_columns_pack_like_the_mosfet_grid(self, bulk25, monkeypatch):
        """The per-flavour form packs the very arrays of the Mosfet grid."""
        flavours = [
            [
                bulk25.device(pol).replace(length_nm=bulk25.nmos.length_nm + 0.3 * b)
                for b in range(5)
            ]
            for pol in (bulk25.nmos.polarity, bulk25.pmos.polarity)
        ]
        slot_device = np.array([0, 1, 1, 0])
        vth_shift = np.random.default_rng(3).normal(0.0, 0.03, size=(4, 5))
        grid = [
            [
                Mosfet(flavours[g][b], vth_shift=vth_shift[t, b])
                for b in range(5)
            ]
            for t, g in enumerate(slot_device)
        ]
        columns = DeviceColumns(flavours, slot_device, vth_shift)
        want = PackedMosfets(grid, 320.0)
        got = PackedMosfets(columns, 320.0)
        for name in device_batched._ARRAY_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # A grid sharing the flavours' constants cache packs no device again.
        monkeypatch.setattr(device_batched, "_device_constants", None)
        again = PackedMosfets(
            DeviceColumns(flavours, slot_device[::-1], vth_shift[::-1], columns.constants),
            320.0,
        )
        assert np.array_equal(again.vth_base, want.vth_base[::-1])

    def test_device_columns_shape_checked(self, bulk25):
        flavours = [[bulk25.nmos, bulk25.nmos]]
        with pytest.raises(ValueError, match="one flavour per transistor"):
            PackedMosfets(DeviceColumns(flavours, np.zeros(3, int), np.zeros((2, 2))), 300.0)
        with pytest.raises(ValueError, match="one device per instance"):
            PackedMosfets(DeviceColumns(flavours, np.zeros(2, int), np.zeros((2, 3))), 300.0)

    def test_solver_rejects_devices_of_the_wrong_polarity(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("in", fixed_voltage=0.0)
        build_gate_transistors(netlist, bulk25, GateType.INV, "g", {"a": "in", "y": "out"})
        swapped = DeviceColumns([[bulk25.pmos], [bulk25.nmos]], np.array([0, 1]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="polarities"):
            BatchedDcSolver([netlist], 300.0, devices=swapped)


class TestChandrupatla:
    def test_finds_roots_of_mixed_functions(self):
        def f(x):
            out = np.empty_like(x)
            out[0] = x[0] ** 3 - 2.0
            out[1] = np.exp(x[1]) - 5.0
            out[2] = x[2] - 0.25
            return out

        roots = chandrupatla(
            f, np.array([0.0, 0.0, -1.0]), np.array([2.0, 3.0, 1.0]), xtol=1e-13
        )
        assert roots == pytest.approx(
            [2.0 ** (1 / 3), np.log(5.0), 0.25], abs=1e-12
        )

    def test_batch_composition_does_not_change_roots(self):
        def f(x):
            return np.exp(x) - 3.0

        alone = chandrupatla(f, np.array([0.0]), np.array([2.0]), xtol=1e-13)
        batch = chandrupatla(
            f, np.zeros(5), np.full(5, 2.0), xtol=1e-13
        )
        assert np.all(batch == alone[0])

    def test_frozen_columns_keep_their_values(self):
        def f(x):
            return x - 1.0

        frozen = np.array([False, True])
        values = np.array([0.0, 7.5])
        roots = chandrupatla(
            f,
            np.zeros(2),
            np.full(2, 2.0),
            xtol=1e-13,
            frozen=frozen,
            frozen_values=values,
        )
        assert roots[1] == 7.5
        assert roots[0] == pytest.approx(1.0, abs=1e-12)

    def test_missing_sign_change_rejected(self):
        def f(x):
            return x + 10.0

        with pytest.raises(ValueError, match="sign change"):
            chandrupatla(f, np.zeros(1), np.ones(1), xtol=1e-13)


def _nand2_cell(technology, vector, injection=None):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    if injection:
        netlist.add_current_source("out", injection)
    return netlist


@pytest.mark.slow
class TestBatchedSolverEquivalence:
    def test_voltages_and_leakage_match_scalar_oracle(self, bulk25):
        injections = [None, 5e-7, -5e-7, 2e-6, -2e-6]
        netlists = [_nand2_cell(bulk25, (1, 0), inj) for inj in injections]
        batched = BatchedDcSolver(netlists, 300.0, TIGHT)
        op = batched.solve()
        assert op.all_converged
        owner_leakage = batched.leakage_by_owner(op)["g"]
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, TIGHT).solve()
            assert scalar_op.converged
            for name, voltage in scalar_op.voltages.items():
                batched_v = op.voltages[op.node_index[name], index]
                assert batched_v == pytest.approx(voltage, abs=TIGHT.voltage_tol)
            scalar_leakage = leakage_by_owner(netlist, scalar_op)["g"]
            got = owner_leakage.at(index)
            assert got.subthreshold == pytest.approx(
                scalar_leakage.subthreshold, rel=1e-9
            )
            assert got.gate == pytest.approx(scalar_leakage.gate, rel=1e-9)
            assert got.btbt == pytest.approx(scalar_leakage.btbt, rel=1e-9)

    def test_default_tolerances_agree_to_voltage_tol(self, bulk25):
        netlists = [_nand2_cell(bulk25, (0, 0)), _nand2_cell(bulk25, (1, 1))]
        options = SolverOptions()
        op = BatchedDcSolver(netlists, 300.0, options).solve()
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, options).solve()
            for name, voltage in scalar_op.voltages.items():
                batched_v = op.voltages[op.node_index[name], index]
                assert batched_v == pytest.approx(
                    voltage, abs=2.0 * options.voltage_tol
                )

    def test_pathological_no_sign_change_node_pins_like_scalar(self, bulk25):
        """A node attached only to a gate terminal, with a huge forced
        injection the tunneling current cannot absorb: both solvers must pin
        it to the same admissible-range endpoint."""

        def build():
            netlist = TransistorNetlist(vdd=bulk25.vdd)
            netlist.add_node("float_gate")
            netlist.add_transistor(
                name="m1",
                mosfet=Mosfet(bulk25.nmos),
                gate="float_gate",
                drain="vdd",
                source="gnd",
                bulk="gnd",
                owner="g",
            )
            netlist.add_current_source("float_gate", 1.0e-3)
            return netlist

        scalar_op = DcSolver(build(), 300.0, TIGHT).solve()
        batched_op = BatchedDcSolver([build()], 300.0, TIGHT).solve()
        assert batched_op.voltage("float_gate")[0] == pytest.approx(
            scalar_op.voltage("float_gate"), abs=1e-12
        )
        # The pin really is at the upper bracket limit.
        assert scalar_op.voltage("float_gate") == pytest.approx(
            bulk25.vdd + TIGHT.bracket_margin
        )

    def test_instances_converge_at_different_sweep_counts(self, bulk25):
        netlists = [
            _nand2_cell(bulk25, (0, 0)),
            _nand2_cell(bulk25, (1, 1), injection=3e-6),
        ]
        # Deliberately poor initial guess for the second instance only.
        op = BatchedDcSolver(netlists, 300.0, TIGHT).solve(
            initial_voltages=[{"out": bulk25.vdd}, {"out": 0.0}]
        )
        assert op.all_converged
        assert op.sweeps[0] != op.sweeps[1]
        # Each instance must match its own single-instance solve bitwise:
        # converged columns freeze, so batch composition cannot leak in.
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT).solve(
                initial_voltages=[
                    {"out": bulk25.vdd} if index == 0 else {"out": 0.0}
                ]
            )
            assert np.array_equal(alone.voltages[:, 0], op.voltages[:, index])
            assert alone.sweeps[0] == op.sweeps[index]

    def test_topology_mismatch_rejected(self, bulk25):
        good = _nand2_cell(bulk25, (0, 0))
        renamed = TransistorNetlist(vdd=bulk25.vdd)
        renamed.add_node("a", fixed_voltage=0.0)
        renamed.add_node("b", fixed_voltage=0.0)
        build_gate_transistors(
            renamed, bulk25, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out2"}
        )
        with pytest.raises(ValueError, match="node names"):
            BatchedDcSolver([good, renamed], 300.0)

    def test_mixed_supply_voltages_in_one_batch(self, bulk25):
        """Instances may run at different VDD (the Monte-Carlo case)."""

        def cell(vdd_scale):
            scaled = bulk25.replace(vdd=bulk25.vdd * vdd_scale)
            netlist = TransistorNetlist(vdd=scaled.vdd)
            netlist.add_node("in", fixed_voltage=0.0)
            build_gate_transistors(
                netlist, scaled, GateType.INV, "g", {"a": "in", "y": "out"}
            )
            return netlist

        netlists = [cell(1.0), cell(0.9), cell(1.1)]
        op = BatchedDcSolver(netlists, 300.0, TIGHT).solve()
        assert op.all_converged
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, TIGHT).solve()
            assert op.voltage("out")[index] == pytest.approx(
                scalar_op.voltage("out"), abs=1e-9
            )


@pytest.mark.slow
class TestBatchedCharacterizationEquivalence:
    def test_records_match_scalar_engine(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(injection_grid=SMALL_GRID, solver=TIGHT),
        )
        for vector in ((0, 1), (1, 1)):
            want = characterizer.characterize_per_cell(GateType.NAND2, vector)
            got = characterizer.characterize(GateType.NAND2, vector)
            assert got.output_voltage == pytest.approx(
                want.output_voltage, abs=1e-9
            )
            for pin, expected in want.pin_injection.items():
                assert got.pin_injection[pin] == pytest.approx(
                    expected, rel=1e-9, abs=1e-24
                )
            assert set(got.responses) == set(want.responses)
            for pin, curve in want.responses.items():
                batched_curve = got.responses[pin]
                np.testing.assert_array_equal(
                    batched_curve.injections, curve.injections
                )
                for component in ("subthreshold", "gate", "btbt"):
                    np.testing.assert_allclose(
                        getattr(batched_curve, component),
                        getattr(curve, component),
                        rtol=1e-9,
                    )

    def test_characterize_type_matches_per_vector_calls(self, bulk25):
        options = CharacterizationOptions(injection_grid=SMALL_GRID)
        characterizer = GateCharacterizer(bulk25, options=options)
        whole = characterizer.characterize_type(GateType.NAND2)
        spec = gate_spec(GateType.NAND2)
        assert set(whole) == set(spec.all_vectors())
        single = characterizer.characterize(GateType.NAND2, (0, 1))
        record = whole[(0, 1)]
        assert record.nominal.total == pytest.approx(
            single.nominal.total, rel=1e-9
        )

    def test_duplicate_vectors_rejected(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        with pytest.raises(ValueError, match="duplicate"):
            characterizer.characterize_type(GateType.INV, [(0,), (0,)])


@pytest.mark.slow
class TestBatchedMonteCarloEquivalence:
    def test_samples_match_scalar_engine(self, d25s):
        task = build_sample_task(
            d25s, input_loads=2, output_loads=2, solver_options=TIGHT
        )
        streams = spawn_streams(31, 6)
        batched = simulate_batch(task, streams)
        for index, stream in enumerate(spawn_streams(31, 6)):
            scalar = simulate_sample(task, stream)
            for loaded in (True, False):
                want = scalar.with_loading if loaded else scalar.without_loading
                got = (
                    batched[index].with_loading
                    if loaded
                    else batched[index].without_loading
                )
                assert got.subthreshold == pytest.approx(
                    want.subthreshold, rel=1e-9
                )
                assert got.gate == pytest.approx(want.gate, rel=1e-9)
                assert got.btbt == pytest.approx(want.btbt, rel=1e-9)

    def test_chunking_is_bitwise_invariant(self, d25s):
        task = build_sample_task(d25s, input_loads=1, output_loads=1)
        whole = simulate_batch(task, spawn_streams(5, 4))
        fresh = spawn_streams(5, 4)  # streams are stateful: re-spawn per run
        chunked = simulate_batch(task, fresh[:2]) + simulate_batch(
            task, fresh[2:]
        )
        for a, b in zip(whole, chunked):
            for component in ("subthreshold", "gate", "btbt", "total"):
                assert a.with_loading.component(component) == (
                    b.with_loading.component(component)
                )
                assert a.without_loading.component(component) == (
                    b.without_loading.component(component)
                )
            assert a.converged == b.converged


def _per_sample_flatten_solve(task, parameter_sets):
    """Solve parameter sets the per-sample way, for the bitwise parity bar.

    Every sample flattens both structures at its own shifted technology,
    sets its intra-die Vth shifts on the flattened transistors, and each
    structure's netlists then solve as one batch.  Returns per structure
    (loaded, then unloaded) the studied gate's breakdown and converged flags.
    """
    loaded, unloaded, assignment, _ = _study_circuits(task)
    solved = []
    for circuit in (loaded, unloaded):
        flats = []
        for shifted, intra in parameter_sets:
            flattened = flatten(circuit, shifted, assignment)
            for transistor in flattened.netlist.transistors:
                shift = intra.get(transistor.name)
                if shift is not None:
                    transistor.mosfet.vth_shift = shift
            flats.append(flattened)
        solver = BatchedDcSolver(
            [f.netlist for f in flats], task.temperature_k, task.solver_options
        )
        op = solver.solve(initial_voltages=[f.initial_voltages() for f in flats])
        solved.append((solver.leakage_by_owner(op)["g"], op.converged))
    return solved


class TestFlattenOnceParity:
    """The flatten-once engine is bitwise the per-sample flatten build."""

    @staticmethod
    def _assert_bitwise(task, parameter_sets):
        samples = _solve_parameter_sets(task, parameter_sets)
        (loaded, loaded_ok), (unloaded, unloaded_ok) = _per_sample_flatten_solve(
            task, parameter_sets
        )
        for component in ("subthreshold", "gate", "btbt", "total"):
            for want, breakdown in ((loaded, "with_loading"), (unloaded, "without_loading")):
                got = [getattr(s, breakdown).component(component) for s in samples]
                assert np.array_equal(got, getattr(want, component)), (
                    component,
                    breakdown,
                )
        assert np.array_equal(
            [s.converged for s in samples], loaded_ok & unloaded_ok
        )

    def test_mc_sampler(self, d25s):
        task = build_sample_task(d25s, input_loads=3, output_loads=2)
        names = _study_circuits(task)[3]
        sets = [
            _draw_sample_parameters(task, rng, names) for rng in spawn_streams(11, 12)
        ]
        self._assert_bitwise(task, sets)

    def test_qmc_sampler(self, d25s):
        task = build_sample_task(d25s, input_value=1, input_loads=2, output_loads=3)
        names = _study_circuits(task)[3]
        draws = draw_qmc_parameters(task.spec, 16, len(names), 4)
        sets = [
            _draws_sample_parameters(task, draws, index, names)
            for index in range(draws.sample_count)
        ]
        self._assert_bitwise(task, sets)

    def test_moments_columns(self, d25s):
        task = build_sample_task(d25s, input_loads=2, output_loads=2)
        axes = _axes(task, _study_circuits(task)[3])
        sets = [_shift_parameters(task, [])] + [
            _shift_parameters(task, [(axis, t)]) for axis in axes for t in (-2.0, 2.0)
        ]
        sets.append(_shift_parameters(task, [(axes[0], 2.0), (axes[-1], -2.0)]))
        self._assert_bitwise(task, sets)

    def test_vdd_clamp_column(self, d25s):
        task = build_sample_task(
            d25s, spec=VariationSpec(sigma_vdd_v=0.5 * d25s.vdd), input_loads=2, output_loads=2
        )
        names = _study_circuits(task)[3]
        sets = [
            _draw_sample_parameters(task, rng, names) for rng in spawn_streams(2, 12)
        ]
        clamped = [shifted.vdd == 0.5 * d25s.vdd for shifted, _ in sets]
        assert any(clamped) and not all(clamped)
        self._assert_bitwise(task, sets)


def test_device_grids_refuse_a_device_beyond_its_width(d25s):
    """Per-sample devices are derived only when a slot differs by width alone."""
    task = build_sample_task(d25s, input_loads=1, output_loads=1)
    loaded, _, assignment, _ = _study_circuits(task)
    longer = d25s.replace(nmos=d25s.nmos.replace(length_nm=d25s.nmos.length_nm + 1.0))
    netlist = flatten(loaded, longer, assignment).netlist
    with pytest.raises(ValueError, match="beyond its width"):
        montecarlo._device_grids([netlist], d25s, [d25s], [{}])


def test_batch_flattens_each_structure_once(d25s, monkeypatch):
    """64 samples: two flattens, one device-constant pack per (flavour, sample)."""
    calls = {"flatten": 0, "constants": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(montecarlo, "flatten", counted("flatten", montecarlo.flatten))
    monkeypatch.setattr(
        device_batched,
        "_device_constants",
        counted("constants", device_batched._device_constants),
    )
    task = build_sample_task(d25s)
    samples = simulate_batch(task, spawn_streams(9, 64))
    assert len(samples) == 64
    assert calls["flatten"] <= 2

    loaded, unloaded, assignment, _ = _study_circuits(task)
    flavours = {
        t.mosfet.device
        for circuit in (loaded, unloaded)
        for t in flatten(circuit, d25s, assignment).netlist.transistors
    }
    assert calls["constants"] <= len(flavours) * 64

"""Tests for the sparse Newton backend and the solver-backend dispatch.

Covers the backend abstraction introduced around
:mod:`repro.spice.sparse`:

* parity — the sparse backend must agree with the dense backend on mixed
  batches (voltages and per-owner leakage to ~machine precision, far
  below the 1e-12 relative bar asserted here);
* the solver-level invariants the dense path already guarantees, now for
  the sparse path: bitwise batch-composition invariance and the bitwise
  Gauss–Seidel fallback;
* the ``"auto"`` dispatch policy (free-node threshold and dense-memory
  escape) and the resolved-method reporting;
* the pre-flight dense-Jacobian memory guard and its actionable message;
* the characterization-cache fingerprint: the new solver options fork
  caches, strict loads refuse a backend mismatch;
* the scalable layered-DAG generator the large-system benchmark builds on
  (``iscas_like(n_gates)``), which must be lint-clean by construction;
* a structural L+U fill guard on the SuperLU factorization the backend
  runs (no timing);
* the lazily built Gauss–Seidel data: a converged Newton solve builds no
  per-node problem, and the Newton injection vector follows
  ``netlist.injections()`` in free-row order.
"""

import numpy as np
import pytest

from repro.analysis.netlist_lint import lint_circuit
from repro.circuit.flatten import flatten_batch
from repro.circuit.generators import iscas_like, layered_logic
from repro.circuit.graph import logic_depth
from repro.device.batched import PackedMosfets
from repro.device.mosfet import Mosfet
from repro.gates.cache import (
    characterization_fingerprint,
    load_library,
    save_library,
)
from repro.gates.characterize import (
    CharacterizationOptions,
    GateCharacterizer,
    GateLibrary,
)
from repro.gates.library import GateType
from repro.gates.templates import build_gate_transistors
from repro.spice import batched
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import NodeKind, TransistorNetlist
from repro.spice.newton import (
    DenseJacobianMemoryError,
    _NewtonAssembler,
    dense_jacobian_bytes,
    resolve_newton_method,
)
from repro.spice.solver import SolverOptions
from repro.spice.sparse import SparseNewtonBackend

TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)
TIGHT_DENSE = SolverOptions(method="newton", **TIGHT)
TIGHT_SPARSE = SolverOptions(method="newton-sparse", **TIGHT)
TIGHT_GS = SolverOptions(method="gauss-seidel", **TIGHT)


def _nand2_cell(technology, vector, injection=None, vth_shift=0.0):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    if injection:
        netlist.add_current_source("out", injection)
    if vth_shift:
        for transistor in netlist.transistors:
            transistor.mosfet.vth_shift = vth_shift
    return netlist


def _mixed_batch(technology):
    return [
        _nand2_cell(technology, (1, 0)),
        _nand2_cell(technology, (0, 0), injection=5e-7),
        _nand2_cell(technology, (1, 1), injection=-2e-7, vth_shift=0.004),
        _nand2_cell(technology, (0, 1), injection=2e-6),
    ]


def _relative_gap(a, b, floor=1e-30):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


@pytest.mark.slow
class TestSparseDenseParity:
    def test_voltages_and_leakage_match_on_mixed_batch(self, bulk25):
        netlists = _mixed_batch(bulk25)
        dense_solver = BatchedDcSolver(netlists, 300.0, TIGHT_DENSE)
        sparse_solver = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE)
        dense = dense_solver.solve()
        sparse = sparse_solver.solve()
        assert dense.all_converged and sparse.all_converged
        assert dense.method == "newton"
        assert sparse.method == "newton-sparse"
        assert not sparse.fallback.any()
        assert np.max(np.abs(dense.voltages - sparse.voltages)) <= 1e-12

        dense_leak = dense_solver.leakage_by_owner(dense)["g"]
        sparse_leak = sparse_solver.leakage_by_owner(sparse)["g"]
        for index in range(len(netlists)):
            got = sparse_leak.at(index)
            want = dense_leak.at(index)
            assert _relative_gap(got.total, want.total) <= 1e-12
            for component in ("subthreshold", "gate", "btbt"):
                assert (
                    _relative_gap(
                        got.component(component), want.component(component)
                    )
                    <= 1e-12
                )

    def test_sparse_matches_gauss_seidel_oracle(self, bulk25):
        netlists = _mixed_batch(bulk25)
        sparse = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        relaxed = BatchedDcSolver(netlists, 300.0, TIGHT_GS).solve()
        assert sparse.all_converged and relaxed.all_converged
        assert np.max(np.abs(sparse.voltages - relaxed.voltages)) <= 1e-9


@pytest.mark.slow
class TestSparseBatchInvariance:
    def test_batch_composition_is_bitwise_neutral(self, bulk25):
        """Sparse columns solved alone, chunked, or in the full batch must
        be bit-for-bit identical (per-column SuperLU factorization never
        mixes columns)."""
        netlists = _mixed_batch(bulk25)
        whole = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert whole.all_converged
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT_SPARSE).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]
        halves = [
            BatchedDcSolver(netlists[:2], 300.0, TIGHT_SPARSE).solve(),
            BatchedDcSolver(netlists[2:], 300.0, TIGHT_SPARSE).solve(),
        ]
        recombined = np.concatenate([half.voltages for half in halves], axis=1)
        assert np.array_equal(recombined, whole.voltages)


def _pinned_cell(technology, injection):
    """A floating gate node whose KCL has no root for large injections."""
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("float_gate")
    netlist.add_transistor(
        name="m1",
        mosfet=Mosfet(technology.nmos),
        gate="float_gate",
        drain="vdd",
        source="gnd",
        bulk="gnd",
        owner="g",
    )
    netlist.add_current_source("float_gate", injection)
    return netlist


@pytest.mark.slow
class TestSparseFallback:
    def test_pinned_node_falls_back_bitwise_to_gauss_seidel(self, bulk25):
        sparse = BatchedDcSolver(
            [_pinned_cell(bulk25, 1e-3)], 300.0, TIGHT_SPARSE
        ).solve()
        relaxed = BatchedDcSolver(
            [_pinned_cell(bulk25, 1e-3)], 300.0, TIGHT_GS
        ).solve()
        assert sparse.fallback[0]
        assert sparse.method == "newton-sparse"
        assert np.array_equal(sparse.voltages, relaxed.voltages)

    def test_mixed_fallback_batch_stays_column_independent(self, bulk25):
        netlists = [
            _pinned_cell(bulk25, 1e-3),
            _pinned_cell(bulk25, 1e-12),
        ]
        whole = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert whole.all_converged
        assert whole.fallback[0] and not whole.fallback[1]
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT_SPARSE).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])


class TestFillGuard:
    def test_lu_fill_stays_within_six_times_the_pattern(self, bulk25):
        """The column ordering must exploit the KCL Jacobian's structural
        symmetry: ``COLAMD`` fills L+U to 13.7x nnz(A) here, minimum degree
        on A+Aᵀ to 3.9x.  Factors through the backend's own call."""
        circuit = iscas_like(600)
        flattened = flatten_batch(
            circuit, bulk25, [{pi: 0 for pi in circuit.primary_inputs}]
        )
        solver = BatchedDcSolver(
            flattened.netlist_views(),
            300.0,
            SolverOptions(method="newton-sparse"),
        )
        backend = SparseNewtonBackend(_NewtonAssembler(solver))
        voltages = solver._initial_matrix(flattened.initial_voltages())
        _residual, data = backend.assemble(
            solver.packed, voltages, backend.assembler.injection
        )
        lu = backend.factor(data[:, 0])
        assert lu.L.nnz + lu.U.nnz <= 6 * backend.nnz


class _Constructions:
    """Count ``_NodeProblem`` builds and ``PackedMosfets.rows`` subsets."""

    def __init__(self, monkeypatch):
        self.problems = 0
        self.row_subsets = 0
        problem_init = batched._NodeProblem.__init__
        rows = PackedMosfets.rows

        def counted_init(problem, *args, **kwargs):
            self.problems += 1
            problem_init(problem, *args, **kwargs)

        def counted_rows(packed, indices):
            self.row_subsets += 1
            return rows(packed, indices)

        monkeypatch.setattr(batched._NodeProblem, "__init__", counted_init)
        monkeypatch.setattr(PackedMosfets, "rows", counted_rows)


def _injected_batch(technology):
    """NAND2 cells with distinct injections at two free nodes per instance."""
    netlists = []
    for k, vector in enumerate(((1, 0), (0, 0), (1, 1))):
        netlist = _nand2_cell(technology, vector, injection=(k + 1) * 1e-7)
        inner = [
            name
            for name, node in netlist.nodes.items()
            if node.kind is NodeKind.FREE and name != "out"
        ]
        netlist.add_current_source(inner[0], -(k + 2) * 3e-8)
        netlist.add_current_source(inner[0], 1e-9)
        netlists.append(netlist)
    return netlists


class TestLazyGaussSeidelSetup:
    @pytest.mark.parametrize("options", [TIGHT_DENSE, TIGHT_SPARSE])
    def test_converged_newton_solve_builds_no_node_problem(
        self, bulk25, monkeypatch, options
    ):
        counts = _Constructions(monkeypatch)
        op = BatchedDcSolver(_mixed_batch(bulk25), 300.0, options).solve()
        assert op.all_converged and not op.fallback.any()
        assert counts.problems == 0
        assert counts.row_subsets == 0

    def test_fallback_builds_problems_mid_solve(self, bulk25, monkeypatch):
        counts = _Constructions(monkeypatch)
        solver = BatchedDcSolver(
            [_pinned_cell(bulk25, 1e-3)],
            300.0,
            TIGHT_SPARSE,
        )
        assert counts.problems == 0
        op = solver.solve()
        assert op.fallback[0]
        assert counts.problems > 0

    def test_injection_follows_netlist_in_free_row_order(self, bulk25):
        netlists = _injected_batch(bulk25)
        solver = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE)
        assembler = _NewtonAssembler(solver)
        expected = [
            [net.injections().get(solver.node_names[row], 0.0) for net in netlists]
            for row in assembler.free_rows
        ]
        assert np.count_nonzero(expected) == 2 * len(netlists)
        assert assembler.injection.tolist() == expected
        # The lazily built Gauss–Seidel problems carry the same rows.
        assert [p.row for p in solver._problems] == assembler.free_rows.tolist()
        assert [p.injection.tolist() for p in solver._problems] == expected

    @pytest.mark.parametrize("options", [TIGHT_DENSE, TIGHT_SPARSE])
    def test_newton_without_free_nodes(self, bulk25, options):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("g", fixed_voltage=0.0)
        netlist.add_transistor(
            name="m1",
            mosfet=Mosfet(bulk25.nmos),
            gate="g",
            drain="vdd",
            source="gnd",
            bulk="gnd",
            owner="g",
        )
        op = BatchedDcSolver([netlist, netlist], 300.0, options).solve()
        assert op.all_converged and not op.fallback.any()

    @pytest.mark.slow
    def test_gauss_seidel_does_not_depend_on_setup_time(self, bulk25):
        """Problems built ahead of the sweeps or by them give the same bits,
        and the per-node injections reach the relaxation."""
        netlists = _injected_batch(bulk25)
        ahead = BatchedDcSolver(netlists, 300.0, TIGHT_GS)
        assert ahead._problems  # forces the lazy build before solving
        early = ahead.solve()
        late = BatchedDcSolver(netlists, 300.0, TIGHT_GS).solve()
        assert early.all_converged
        assert np.array_equal(early.voltages, late.voltages)
        sparse = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert np.max(np.abs(sparse.voltages - late.voltages)) <= 1e-9


class TestAutoDispatch:
    def test_resolution_policy(self):
        dense_default = SolverOptions(method="auto")
        assert resolve_newton_method(dense_default, 8, 4) == "newton"
        assert resolve_newton_method(dense_default, 1024, 1) == "newton-sparse"
        assert resolve_newton_method(SolverOptions(method="newton"), 5000, 64) == (
            "newton"
        )
        assert resolve_newton_method(SolverOptions(method="newton-sparse"), 2, 1) == (
            "newton-sparse"
        )
        # The dense-memory escape triggers sparse below the node threshold.
        tight_memory = SolverOptions(method="auto", newton_dense_memory_limit=100.0)
        assert resolve_newton_method(tight_memory, 8, 4) == "newton-sparse"

    def test_estimate(self):
        assert dense_jacobian_bytes(3, 10) == 3 * 10 * 10 * 8

    @pytest.mark.slow
    def test_auto_below_threshold_is_bitwise_dense(self, bulk25):
        netlists = _mixed_batch(bulk25)
        auto = SolverOptions(method="auto", **TIGHT)
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        dense = BatchedDcSolver(netlists, 300.0, TIGHT_DENSE).solve()
        assert resolved.method == "newton"
        assert np.array_equal(resolved.voltages, dense.voltages)

    @pytest.mark.slow
    def test_auto_at_threshold_is_bitwise_sparse(self, bulk25):
        netlists = _mixed_batch(bulk25)
        auto = SolverOptions(method="auto", newton_sparse_threshold=1, **TIGHT)
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        sparse = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert resolved.method == "newton-sparse"
        assert np.array_equal(resolved.voltages, sparse.voltages)

    @pytest.mark.slow
    def test_auto_over_memory_limit_switches_instead_of_raising(self, bulk25):
        netlists = _mixed_batch(bulk25)
        auto = SolverOptions(
            method="auto", newton_dense_memory_limit=10.0, **TIGHT
        )
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        assert resolved.method == "newton-sparse"
        assert resolved.all_converged


class TestDenseMemoryGuard:
    def test_over_limit_raises_actionable_error(self, bulk25):
        netlists = _mixed_batch(bulk25)
        starved = SolverOptions(method="newton", newton_dense_memory_limit=10.0)
        solver = BatchedDcSolver(netlists, 300.0, starved)
        with pytest.raises(DenseJacobianMemoryError) as excinfo:
            solver.solve()
        message = str(excinfo.value)
        assert "4 batch columns" in message  # B
        assert "2 x 2 free nodes" in message  # N
        assert "newton-sparse" in message  # the escape hatch
        assert "newton_dense_memory_limit" in message

    def test_guard_is_a_memory_error(self):
        assert issubclass(DenseJacobianMemoryError, MemoryError)

    def test_options_validated(self):
        with pytest.raises(ValueError, match="newton_sparse_threshold"):
            SolverOptions(newton_sparse_threshold=0)
        with pytest.raises(ValueError, match="newton_dense_memory_limit"):
            SolverOptions(newton_dense_memory_limit=0.0)


class TestSparseCacheFingerprint:
    def _options(self, **solver_kwargs):
        return CharacterizationOptions(
            injection_grid=(-1e-6, 1e-6),
            solver=SolverOptions(**solver_kwargs),
        )

    def test_backend_options_change_fingerprint(self, bulk25):
        """Each backend knob is part of the cache identity: dense and sparse
        agree only to ~1e-15, not bitwise, so records must not be shared."""
        fingerprints = {
            characterization_fingerprint(
                bulk25, self._options(**kwargs), bulk25.temperature_k
            )
            for kwargs in (
                dict(method="newton"),
                dict(method="newton-sparse"),
                dict(method="auto"),
                dict(method="auto", newton_sparse_threshold=64),
                dict(method="auto", newton_dense_memory_limit=1e8),
            )
        }
        assert len(fingerprints) == 5

    def test_strict_load_refuses_backend_mismatch(self, bulk25, tmp_path):
        path = tmp_path / "library.json"
        dense = GateLibrary(bulk25, options=self._options(method="newton"))
        dense.precharacterize([GateType.INV])
        save_library(dense, path)

        sparse = GateLibrary(bulk25, options=self._options(method="newton-sparse"))
        with pytest.raises(ValueError, match="options"):
            load_library(sparse, path)
        assert load_library(sparse, path, strict=False) == 2
        assert load_library(
            GateLibrary(bulk25, options=self._options(method="newton")), path
        ) == 2


class TestBackendReporting:
    def test_characterizer_counts_resolved_backends(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=(-1e-6, 1e-6),
                solver=SolverOptions(method="newton-sparse", **TIGHT),
            ),
        )
        characterizer.characterize(GateType.INV, (0,))
        methods = characterizer.solve_stats["methods"]
        assert methods.get("newton-sparse", 0) > 0
        assert "auto" not in methods
        solves = characterizer.solve_stats["solves"]
        assert sum(methods.values()) == solves

    def test_auto_request_reports_resolved_backend(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=(-1e-6, 1e-6),
                solver=SolverOptions(method="auto", **TIGHT),
            ),
        )
        characterizer.characterize(GateType.INV, (1,))
        methods = characterizer.solve_stats["methods"]
        assert "auto" not in methods
        assert methods.get("newton", 0) > 0  # tiny cells resolve dense


class TestLayeredGenerator:
    def test_gate_count_and_determinism(self):
        circuit = iscas_like(64, rng=5)
        again = iscas_like(64, rng=5)
        assert len(circuit.gates) == 64
        assert list(circuit.gates) == list(again.gates)
        assert [g.inputs for g in circuit.gates.values()] == [
            g.inputs for g in again.gates.values()
        ]

    def test_lint_clean_by_construction(self):
        for seed in (0, 1, 2):
            circuit = iscas_like(200, rng=seed)
            assert not lint_circuit(circuit).diagnostics

    def test_layers_bound_logic_depth(self):
        circuit = layered_logic("l4", n_inputs=8, n_gates=40, rng=3, n_layers=4)
        assert len(circuit.gates) == 40
        assert not lint_circuit(circuit).diagnostics
        assert logic_depth(circuit) <= 4

    def test_scale_shrinks_gate_count(self):
        full = iscas_like(120, rng=9)
        half = iscas_like(120, scale=0.5, rng=9)
        assert len(half.gates) == 60
        assert len(full.gates) == 120

    def test_input_validation(self):
        with pytest.raises(ValueError, match="gate count"):
            iscas_like(4)
        with pytest.raises(TypeError, match="gate count"):
            iscas_like(True)
        with pytest.raises(ValueError, match="n_inputs"):
            layered_logic("bad", n_inputs=2, n_gates=10)
        with pytest.raises(ValueError, match="skip_fraction"):
            layered_logic("bad", n_inputs=8, n_gates=10, skip_fraction=1.5)

    @pytest.mark.slow
    def test_flattened_circuit_solves_with_auto_sparse(self, bulk25):
        """End-to-end: a generated circuit flattens past the (lowered) auto
        threshold and the sparse backend solves it, matching Gauss–Seidel."""
        circuit = iscas_like(48, rng=7)
        rng = np.random.default_rng(1)
        assignments = [
            {
                pi: int(v)
                for pi, v in zip(
                    circuit.primary_inputs,
                    rng.integers(0, 2, len(circuit.primary_inputs)),
                )
            }
            for _ in range(2)
        ]
        flattened = flatten_batch(circuit, bulk25, assignments)
        views = flattened.netlist_views()
        free = sum(
            1
            for node in flattened.netlist.nodes.values()
            if node.kind is NodeKind.FREE
        )
        auto = SolverOptions(method="auto", newton_sparse_threshold=free, **TIGHT)
        op = BatchedDcSolver(views, 300.0, auto).solve(
            flattened.initial_voltages()
        )
        relaxed = BatchedDcSolver(views, 300.0, TIGHT_GS).solve(
            flattened.initial_voltages()
        )
        assert op.method == "newton-sparse"
        assert op.all_converged
        assert np.max(np.abs(op.voltages - relaxed.voltages)) <= 1e-9

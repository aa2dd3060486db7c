"""Regression tests for the batched campaign engine.

The contract of :mod:`repro.engine` is equivalence: the scalar
:class:`LoadingAwareEstimator` is the oracle, and the batched engine must
reproduce its totals (and per-gate breakdowns) to rounding error while the
pooled Monte-Carlo run must reproduce the in-process sample stream
bitwise.
"""

import numpy as np
import pytest

from repro.circuit.generators import (
    iscas_like,
    loaded_inverter_cluster,
    nand_tree,
    random_logic,
)
from repro.circuit.logic import random_vectors
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.report import REPORT_COMPONENTS
from repro.core.vectors import minimum_leakage_vector, run_vector_campaign
from repro.engine import (
    clear_compile_cache,
    compile_circuit,
    run_compiled,
)
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo


def _oracle_reports(estimator, circuit, vectors):
    """The per-vector oracle: one direct ``estimator.estimate`` call each."""
    return [estimator.estimate(circuit, vector) for vector in vectors]


def _assert_campaigns_match(batched, scalar, rtol=1e-12):
    assert batched.vector_count == len(scalar)
    assert batched.method == scalar[0].method
    for component in REPORT_COMPONENTS:
        expected = np.array([report.component(component) for report in scalar])
        observed = batched.totals(component)
        np.testing.assert_allclose(observed, expected, rtol=rtol, atol=0.0)


class TestEngineOutOfRangePolicy:
    def test_engine_applies_extrapolation_policy(self, library25):
        """The batched LUT path must honour the same out-of-range policy as
        ResponseCurve.breakdown_at: a fanout large enough to push a net's
        loading outside the characterized grid warns (or raises)."""
        from repro.gates.lut import (
            ResponseCurveRangeWarning,
            set_extrapolation_policy,
        )

        circuit = loaded_inverter_cluster(0, 14)
        compiled = compile_circuit(circuit, library25)
        assignments = [{"in": 0}, {"in": 1}]
        previous = set_extrapolation_policy("warn")
        try:
            with pytest.warns(ResponseCurveRangeWarning, match="gate type"):
                run_compiled(compiled, assignments)
            set_extrapolation_policy("raise")
            with pytest.raises(ValueError, match="outside"):
                run_compiled(compiled, assignments)
            set_extrapolation_policy("clamp")
            run_compiled(compiled, assignments)  # silent again
        finally:
            set_extrapolation_policy(previous)


class TestBatchedCampaignMatchesScalar:
    @pytest.mark.parametrize("name,scale", [("s838", 0.1), ("s1196", 0.08)])
    def test_iscas_like_totals_pin_to_scalar(self, library_d25s, name, scale):
        circuit = iscas_like(name, scale=scale)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 12, rng=9))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = _oracle_reports(estimator, circuit, vectors)
        _assert_campaigns_match(batched, scalar)

    def test_tied_inputs_pin_to_scalar(self, library_d25s):
        """Tied-input self-loading regression: a gate with two pins on one
        net must subtract *both* of its own pins from the net total, in the
        scalar estimator and in the engine's np.add.at accumulation alike."""
        from repro.circuit.netlist import Circuit
        from repro.gates.library import GateType

        circuit = Circuit(name="tied_mix")
        circuit.add_input("in")
        circuit.add_gate("drv", GateType.INV, ["in"], "x")
        circuit.add_gate("tied", GateType.NAND2, ["x", "x"], "y")
        circuit.add_gate("tied3", GateType.NAND3, ["x", "y", "x"], "w")
        circuit.add_gate("load", GateType.INV, ["x"], "z")
        circuit.add_output("w")
        circuit.add_output("z")

        estimator = LoadingAwareEstimator(library_d25s)
        vectors = [{"in": 0}, {"in": 1}]
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = _oracle_reports(estimator, circuit, vectors)
        _assert_campaigns_match(batched, scalar)
        for v in range(len(vectors)):
            report_b, report_s = batched.reports[v], scalar[v]
            for name in circuit.gates:
                assert report_b.per_gate[name].input_loading == pytest.approx(
                    report_s.per_gate[name].input_loading, rel=1e-12, abs=1e-24
                )

    def test_no_loading_totals_pin_to_scalar(self, library_d25s):
        circuit = iscas_like("s838", scale=0.1)
        estimator = NoLoadingEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 6, rng=2))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = _oracle_reports(estimator, circuit, vectors)
        _assert_campaigns_match(batched, scalar)

    def test_materialized_reports_match_scalar_per_gate(self, library_d25s):
        circuit = loaded_inverter_cluster(4, 4)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 3, rng=5))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = _oracle_reports(estimator, circuit, vectors)
        for v in range(3):
            report_b = batched.reports[v]
            report_s = scalar[v]
            assert report_b.input_assignment == report_s.input_assignment
            assert set(report_b.per_gate) == set(report_s.per_gate)
            for gate_name, entry_s in report_s.per_gate.items():
                entry_b = report_b.per_gate[gate_name]
                assert entry_b.vector == entry_s.vector
                assert entry_b.gate_type_name == entry_s.gate_type_name
                for component in ("subthreshold", "gate", "btbt"):
                    assert entry_b.breakdown.component(component) == pytest.approx(
                        entry_s.breakdown.component(component), rel=1e-12
                    )
                assert entry_b.input_loading == pytest.approx(
                    entry_s.input_loading, rel=1e-9, abs=1e-24
                )
                assert entry_b.output_loading == pytest.approx(
                    entry_s.output_loading, rel=1e-9, abs=1e-24
                )

    def test_campaign_result_api_over_batched_run(self, library_d25s):
        circuit = nand_tree(2)
        campaign = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit, count=5, rng=1
        )
        # Engine-backed by default: totals precomputed, runtime from the batch.
        assert campaign.precomputed_totals is not None
        assert campaign.vector_count == 5
        assert campaign.totals().shape == (5,)
        assert campaign.mean_total() > 0
        assert campaign.runtime_s() > 0.0
        assert len(campaign.reports) == 5
        assert campaign.reports[0].metadata["engine"] == "batched"

    def test_minimum_leakage_vector_matches_scalar(self, library_d25s):
        circuit = random_logic("minv_engine", 5, 18, rng=3)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 10, rng=7))
        vec_b, total_b = minimum_leakage_vector(estimator, circuit, vectors=vectors)
        totals = [report.total for report in _oracle_reports(estimator, circuit, vectors)]
        best = int(np.argmin(totals))
        vec_s, total_s = vectors[best], totals[best]
        assert vec_b == vec_s
        assert total_b == pytest.approx(total_s, rel=1e-12)

    def test_bad_assignment_rejected_like_propagate(self, library_d25s):
        circuit = nand_tree(1)
        compiled = compile_circuit(circuit, library_d25s)
        with pytest.raises(KeyError, match="unassigned"):
            run_compiled(compiled, [{"in0": 1}])
        with pytest.raises(KeyError, match="non-primary-input"):
            run_compiled(compiled, [{"in0": 1, "in1": 0, "bogus": 1}])

    def test_chunked_run_equals_single_pass(self, library_d25s):
        circuit = loaded_inverter_cluster(3, 3)
        compiled = compile_circuit(circuit, library_d25s)
        vectors = list(random_vectors(circuit, 9, rng=4))
        whole = run_compiled(compiled, vectors)
        chunked = run_compiled(compiled, vectors, chunk_size=2)
        for component, values in whole.component_totals().items():
            np.testing.assert_array_equal(values, chunked.component_totals()[component])


class TestCompileCache:
    def test_cache_hits_for_structural_copies(self, library_d25s):
        clear_compile_cache()
        circuit = nand_tree(2)
        first = compile_circuit(circuit, library_d25s)
        assert compile_circuit(circuit, library_d25s) is first
        # A structural copy (different object, same netlist) reuses the compile.
        assert compile_circuit(circuit.copy(), library_d25s) is first
        assert compile_circuit(circuit, library_d25s, cache=False) is not first

    def test_different_structure_recompiles(self, library_d25s):
        clear_compile_cache()
        first = compile_circuit(nand_tree(2), library_d25s)
        second = compile_circuit(nand_tree(3), library_d25s)
        assert first is not second


@pytest.mark.slow
class TestParallelMonteCarlo:
    def test_parallel_samples_pin_to_serial_bitwise(self, d25s):
        serial = run_loaded_inverter_monte_carlo(
            d25s, samples=4, rng=17, input_loads=2, output_loads=2
        )
        parallel = run_loaded_inverter_monte_carlo(
            d25s, samples=4, rng=17, input_loads=2, output_loads=2, max_workers=2
        )
        assert parallel.sample_count == serial.sample_count
        for component in REPORT_COMPONENTS:
            for loaded in (True, False):
                assert (
                    parallel.values(component, loaded=loaded).tolist()
                    == serial.values(component, loaded=loaded).tolist()
                )

    def test_worker_count_does_not_change_samples(self, d25s):
        one = run_loaded_inverter_monte_carlo(
            d25s, samples=3, rng=23, input_loads=1, output_loads=1, max_workers=1
        )
        three = run_loaded_inverter_monte_carlo(
            d25s, samples=3, rng=23, input_loads=1, output_loads=1, max_workers=3
        )
        assert one.values("total").tolist() == three.values("total").tolist()

    def test_parameter_validation(self, d25s):
        with pytest.raises(ValueError):
            run_loaded_inverter_monte_carlo(d25s, max_workers=0)
        with pytest.raises(ValueError):
            run_loaded_inverter_monte_carlo(d25s, samples=0, max_workers=None)

"""Tests for the resilience layer: supervised pools, checkpoints, faults.

The central claim under test is **bitwise recovery**: a run that loses a
worker, retries a failing chunk, times out a stalled chunk, or resumes
from a checkpoint must finish with exactly the bytes of a run that never
saw a fault — because retried/resumed chunks re-run from their original
``SeedSequence.spawn`` streams and the engines are batch-composition
invariant.  Every fault here is injected deterministically
(:mod:`repro.resilience.faults`), so a failing test replays exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.generators import nand_tree
from repro.circuit.logic import random_vectors
from repro.core.reference import run_reference_campaign
from repro.optimize.search import GeneticOptions, genetic_minimize
from repro.resilience import (
    Checkpoint,
    CheckpointCorruptWarning,
    ChunkRetryError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResilienceOptions,
    ResilientExecutor,
    RetryPolicy,
    StaleCheckpointError,
    checkpoint_fingerprint,
    corrupt_file,
)
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo

#: Fast retry policy for tests: real backoff shape, negligible wall clock.
FAST_RETRY = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05)


def _mc_samples_bitwise_equal(result_a, result_b) -> bool:
    if result_a.sample_count != result_b.sample_count:
        return False
    for a, b in zip(result_a.samples, result_b.samples):
        if a.with_loading.as_dict() != b.with_loading.as_dict():
            return False
        if a.without_loading.as_dict() != b.without_loading.as_dict():
            return False
    return True


def _reports_bitwise_equal(report_a, report_b) -> bool:
    if report_a.input_assignment != report_b.input_assignment:
        return False
    for name, entry_a in report_a.per_gate.items():
        entry_b = report_b.per_gate[name]
        if entry_a.breakdown.as_dict() != entry_b.breakdown.as_dict():
            return False
    return True


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5,
            backoff_jitter=0.0,
        )
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)
        assert policy.backoff_s(2, 0.0) == pytest.approx(0.2)
        assert policy.backoff_s(3, 0.0) == pytest.approx(0.4)
        assert policy.backoff_s(4, 0.0) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9, 0.0) == pytest.approx(0.5)

    def test_jitter_scales_the_backoff(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        assert policy.backoff_s(1, 1.0) == pytest.approx(0.15)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_jitter"):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="chunk_deadline_s"):
            RetryPolicy(chunk_deadline_s=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base_s=-1.0)


class TestFaultInjector:
    def test_explicit_chunks_fire_only_there(self):
        injector = FaultInjector(
            seed=3, specs=(FaultSpec(kind="raise", chunks=frozenset({1, 4})),)
        )
        fired = [i for i in range(6) if injector.decide("raise", i, 0)]
        assert fired == [1, 4]
        assert not injector.decide("kill-worker", 1, 0)

    def test_rate_decisions_are_deterministic_and_seed_keyed(self):
        injector = FaultInjector(
            seed=11, specs=(FaultSpec(kind="raise", rate=0.5),)
        )
        decisions = [injector.decide("raise", i, 0) for i in range(32)]
        # Pure oracle: replaying yields exactly the same decisions.
        assert decisions == [injector.decide("raise", i, 0) for i in range(32)]
        assert any(decisions) and not all(decisions)
        other_seed = FaultInjector(seed=12, specs=(FaultSpec(kind="raise", rate=0.5),))
        assert decisions != [other_seed.decide("raise", i, 0) for i in range(32)]

    def test_max_attempt_gates_injection(self):
        injector = FaultInjector(
            seed=0, specs=(FaultSpec(kind="raise", chunks=frozenset({0})),)
        )
        assert injector.decide("raise", 0, 0)
        assert not injector.decide("raise", 0, 1)  # retries run clean

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="raise", rate=1.5)
        with pytest.raises(ValueError, match="max_attempt"):
            FaultSpec(kind="raise", max_attempt=0)
        with pytest.raises(ValueError, match="kind"):
            FaultInjector().decide("explode", 0, 0)

    def test_corrupt_file_modes(self, tmp_path):
        target = tmp_path / "payload.bin"
        payload = bytes(range(64))
        target.write_bytes(payload)
        corrupt_file(target, "truncate")
        assert target.read_bytes() == payload[:32]
        target.write_bytes(payload)
        corrupt_file(target, "garble")
        garbled = target.read_bytes()
        assert len(garbled) == len(payload) and garbled != payload
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_file(target, "shred")


class TestResilientExecutor:
    def test_clean_map_preserves_order(self):
        results, ledger = ResilientExecutor(2).map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert ledger.as_dict() == {
            "chunks": 5,
            "attempts": 5,
            "retries": 0,
            "retried_chunks": [],
            "deadline_expirations": 0,
            "pool_restarts": 0,
            "gave_up": 0,
            "resumed_chunks": 0,
        }

    def test_injected_raise_is_retried_and_ledgered(self):
        injector = FaultInjector(
            seed=7, specs=(FaultSpec(kind="raise", chunks=frozenset({1, 3})),)
        )
        executor = ResilientExecutor(2, policy=FAST_RETRY, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert sorted(ledger.retried_chunks) == [1, 3]
        assert ledger.retries == 2
        assert ledger.attempts == ledger.chunks + ledger.retries
        assert ledger.gave_up == 0

    def test_worker_death_restarts_pool_and_recovers(self):
        injector = FaultInjector(
            seed=7, specs=(FaultSpec(kind="kill-worker", chunks=frozenset({2})),)
        )
        executor = ResilientExecutor(2, policy=FAST_RETRY, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert ledger.pool_restarts >= 1
        assert 2 in ledger.retried_chunks
        assert ledger.gave_up == 0

    def test_stalled_chunk_trips_the_deadline_watchdog(self):
        injector = FaultInjector(
            seed=7,
            specs=(FaultSpec(kind="stall", chunks=frozenset({1}), stall_s=5.0),),
        )
        policy = RetryPolicy(backoff_base_s=0.01, chunk_deadline_s=0.25)
        executor = ResilientExecutor(2, policy=policy, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4])
        assert results == [1, 2, 3, 4]
        assert ledger.deadline_expirations >= 1
        assert 1 in ledger.retried_chunks
        assert ledger.gave_up == 0

    def test_permanent_failure_gives_up_loudly(self):
        injector = FaultInjector(
            seed=7,
            specs=(
                FaultSpec(kind="raise", chunks=frozenset({0}), max_attempt=99),
            ),
        )
        executor = ResilientExecutor(
            2, policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            injector=injector,
        )
        with pytest.raises(ChunkRetryError) as excinfo:
            executor.map(abs, [-1, -2])
        assert excinfo.value.chunk_index == 0
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_completed_chunks_are_skipped(self):
        results, ledger = ResilientExecutor(2).map(
            abs, [-1, -2, -3], completed={0: 1, 2: 3}
        )
        assert results == [1, 2, 3]
        assert ledger.resumed_chunks == 2
        assert ledger.attempts == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            ResilientExecutor(0)


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        path = tmp_path / "run.ckpt"
        fingerprint = checkpoint_fingerprint({"task": "demo"})
        checkpoint = Checkpoint(path, fingerprint)
        payload = np.array([1.234567890123456e-9, 5.5e-12])
        checkpoint.record(0, payload)
        loaded = Checkpoint(path, fingerprint).load()
        assert loaded.keys() == {0}
        assert loaded[0].tobytes() == payload.tobytes()

    def test_interval_batches_publishes(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run.ckpt", "fp", interval=3)
        checkpoint.record(0, "a")
        checkpoint.record(1, "b")
        assert checkpoint.publishes == 0
        checkpoint.record(2, "c")
        assert checkpoint.publishes == 1
        checkpoint.flush()  # nothing new → no extra write
        assert checkpoint.publishes == 1
        checkpoint.record(3, "d")
        checkpoint.flush()
        assert checkpoint.publishes == 2

    def test_stale_fingerprint_is_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        Checkpoint(path, checkpoint_fingerprint({"samples": 8})).record(0, "a")
        stale = Checkpoint(path, checkpoint_fingerprint({"samples": 16}))
        with pytest.raises(StaleCheckpointError, match="different work"):
            stale.load()

    @pytest.mark.parametrize("mode", ["truncate", "garble"])
    def test_corrupt_file_degrades_to_fresh_start(self, tmp_path, mode):
        path = tmp_path / "run.ckpt"
        checkpoint = Checkpoint(path, "fp")
        checkpoint.record(0, "a")
        corrupt_file(path, mode)
        fresh = Checkpoint(path, "fp")
        with pytest.warns(CheckpointCorruptWarning, match="unreadable"):
            assert fresh.load() == {}
        assert fresh.corrupt_loads == 1

    def test_missing_file_is_a_fresh_start(self, tmp_path):
        assert Checkpoint(tmp_path / "nope.ckpt", "fp").load() == {}

    def test_complete_removes_the_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint = Checkpoint(path, "fp")
        checkpoint.record(0, "a")
        assert path.exists()
        checkpoint.complete()
        assert not path.exists()

    def test_fingerprint_is_order_invariant_and_content_sensitive(self):
        a = checkpoint_fingerprint({"x": 1, "y": 2})
        b = checkpoint_fingerprint({"y": 2, "x": 1})
        c = checkpoint_fingerprint({"x": 1, "y": 3})
        assert a == b
        assert a != c

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            Checkpoint(tmp_path / "x", "fp", interval=0)


class TestResilienceOptions:
    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            ResilienceOptions(resume=True)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ResilienceOptions(checkpoint_interval=0)

    def test_factories(self, tmp_path):
        options = ResilienceOptions(
            policy=FAST_RETRY, checkpoint_path=tmp_path / "c.ckpt"
        )
        executor = options.executor(2)
        assert executor.policy is FAST_RETRY
        checkpoint = options.checkpoint("fp")
        assert checkpoint is not None and checkpoint.fingerprint == "fp"
        assert ResilienceOptions().checkpoint("fp") is None


class TestMonteCarloBitwiseRecovery:
    SAMPLES = 6
    SEED = 42

    @pytest.fixture(scope="class")
    def serial_mc(self, bulk25):
        return run_loaded_inverter_monte_carlo(
            bulk25, samples=self.SAMPLES, rng=self.SEED
        )

    def _faulted_run(self, bulk25, specs, policy=FAST_RETRY):
        return run_loaded_inverter_monte_carlo(
            bulk25,
            samples=self.SAMPLES,
            rng=self.SEED,
            max_workers=2,
            resilience=ResilienceOptions(
                policy=policy, injector=FaultInjector(seed=5, specs=specs)
            ),
        )

    def test_kill_worker_mid_monte_carlo_recovers_bitwise(self, bulk25, serial_mc):
        result = self._faulted_run(
            bulk25, (FaultSpec(kind="kill-worker", chunks=frozenset({0})),)
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert 0 in ledger["retried_chunks"]
        assert ledger["pool_restarts"] >= 1
        assert ledger["gave_up"] == 0

    def test_injected_error_recovers_bitwise(self, bulk25, serial_mc):
        result = self._faulted_run(
            bulk25, (FaultSpec(kind="raise", chunks=frozenset({1})),)
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        assert result.metadata["resilience"]["retried_chunks"] == [1]

    def test_stall_past_deadline_recovers_bitwise(self, bulk25, serial_mc):
        result = self._faulted_run(
            bulk25,
            (FaultSpec(kind="stall", chunks=frozenset({0}), stall_s=10.0),),
            policy=RetryPolicy(backoff_base_s=0.01, chunk_deadline_s=0.5),
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert ledger["deadline_expirations"] >= 1
        assert ledger["gave_up"] == 0

    def test_checkpoint_resume_is_bitwise_and_skips_completed(
        self, bulk25, serial_mc, tmp_path
    ):
        path = tmp_path / "mc.ckpt"
        options = ResilienceOptions(
            policy=FAST_RETRY, checkpoint_path=path, keep_checkpoint=True
        )
        first = run_loaded_inverter_monte_carlo(
            bulk25,
            samples=self.SAMPLES,
            rng=self.SEED,
            max_workers=2,
            resilience=options,
        )
        assert _mc_samples_bitwise_equal(first, serial_mc)
        assert path.exists()
        assert first.metadata["resilience"]["checkpoint_publishes"] >= 1

        resumed_options = ResilienceOptions(
            policy=FAST_RETRY, checkpoint_path=path, resume=True
        )
        resumed = run_loaded_inverter_monte_carlo(
            bulk25,
            samples=self.SAMPLES,
            rng=self.SEED,
            max_workers=2,
            resilience=resumed_options,
        )
        assert _mc_samples_bitwise_equal(resumed, serial_mc)
        ledger = resumed.metadata["resilience"]
        assert ledger["resumed_chunks"] == ledger["chunks"]
        assert ledger["attempts"] == 0  # nothing re-ran
        assert not path.exists()  # completed runs clean their checkpoint up

    def test_stale_checkpoint_is_refused_not_resumed(self, bulk25, tmp_path):
        path = tmp_path / "mc.ckpt"
        options = ResilienceOptions(checkpoint_path=path, keep_checkpoint=True)
        run_loaded_inverter_monte_carlo(
            bulk25,
            samples=self.SAMPLES,
            rng=self.SEED,
            max_workers=2,
            resilience=options,
        )
        resumed_options = ResilienceOptions(checkpoint_path=path, resume=True)
        with pytest.raises(StaleCheckpointError):
            # Different sample count → different work definition.
            run_loaded_inverter_monte_carlo(
                bulk25,
                samples=self.SAMPLES + 2,
                rng=self.SEED,
                max_workers=2,
                resilience=resumed_options,
            )

    def test_checkpoint_requires_reproducible_rng(self, bulk25, tmp_path):
        options = ResilienceOptions(checkpoint_path=tmp_path / "mc.ckpt")
        with pytest.raises(ValueError, match="reproducible rng"):
            run_loaded_inverter_monte_carlo(
                bulk25,
                samples=self.SAMPLES,
                rng=None,
                max_workers=2,
                resilience=options,
            )


class TestReferenceCampaignBitwiseRecovery:
    @pytest.fixture(scope="class")
    def campaign_inputs(self, d25s):
        circuit = nand_tree(2)
        vectors = list(random_vectors(circuit, 6, rng=3))
        serial = run_reference_campaign(circuit, d25s, vectors=vectors)
        return circuit, vectors, serial

    def test_kill_worker_mid_campaign_recovers_bitwise(self, d25s, campaign_inputs):
        circuit, vectors, serial = campaign_inputs
        result = run_reference_campaign(
            circuit,
            d25s,
            vectors=vectors,
            max_workers=2,
            chunk_size=2,
            resilience=ResilienceOptions(
                policy=FAST_RETRY,
                injector=FaultInjector(
                    seed=9,
                    specs=(FaultSpec(kind="kill-worker", chunks=frozenset({1})),),
                ),
            ),
        )
        for a, b in zip(result.reports, serial.reports):
            assert _reports_bitwise_equal(a, b)
        ledger = result.metadata["resilience"]
        assert 1 in ledger["retried_chunks"]
        assert ledger["gave_up"] == 0

    def test_corrupt_checkpoint_degrades_and_still_matches(
        self, d25s, campaign_inputs, tmp_path
    ):
        circuit, vectors, serial = campaign_inputs
        path = tmp_path / "campaign.ckpt"

        def run(options):
            return run_reference_campaign(
                circuit,
                d25s,
                vectors=vectors,
                max_workers=2,
                chunk_size=2,
                resilience=options,
            )

        run(ResilienceOptions(checkpoint_path=path, keep_checkpoint=True))
        corrupt_file(path, "garble")
        with pytest.warns(CheckpointCorruptWarning):
            result = run(ResilienceOptions(checkpoint_path=path, resume=True))
        # Progress was lost, correctness was not: full fresh run, bitwise.
        assert result.metadata["resilience"]["resumed_chunks"] == 0
        for a, b in zip(result.reports, serial.reports):
            assert _reports_bitwise_equal(a, b)


class TestSearchBitwiseRecovery:
    def test_genetic_islands_recover_bitwise_under_faults(
        self, d25s, library_d25s
    ):
        from repro.service import default_session

        circuit = nand_tree(2)
        compiled = default_session().compiled(circuit, library_d25s)
        options = GeneticOptions(population=8, generations=4, elite=1)
        serial = genetic_minimize(
            compiled, options=options, rng=17, islands=2, max_workers=1
        )
        faulted = genetic_minimize(
            compiled,
            options=options,
            rng=17,
            islands=2,
            max_workers=2,
            resilience=ResilienceOptions(
                policy=FAST_RETRY,
                injector=FaultInjector(
                    seed=4, specs=(FaultSpec(kind="raise", chunks=frozenset({0})),)
                ),
            ),
        )
        assert faulted.best_total == serial.best_total
        assert np.array_equal(faulted.best_bits, serial.best_bits)
        assert faulted.evaluations == serial.evaluations
        ledger = faulted.metadata["resilience"]
        assert ledger["retried_chunks"] == [0]
        assert ledger["gave_up"] == 0

"""Resilience layer: supervised pools, checkpoints, deadlines, fault injection.

One package holds everything the long-running drivers need to survive the
failures a real campaign meets — worker death, hung chunks, transient
errors, process crashes, torn checkpoint writes — while preserving the
repo's standing bitwise-reproducibility contract: a run that crashed,
retried, resumed or degraded finishes with exactly the bytes a clean
serial run produces.

* :class:`ResilientExecutor` — supervised process-pool map with retries,
  backoff, deadlines and a :class:`RetryLedger`, configured by one
  :class:`ResilienceOptions` bundle; ``executor.supervised_map`` is where
  every chunked driver runs its chunks, in-process or pooled
  (``executor``);
* :class:`Checkpoint` — fingerprinted atomic checkpoint/resume
  (``checkpoint``);
* :class:`FaultInjector` — deterministic seed-driven fault injection
  (``faults``);
* the shared exception vocabulary (``errors``).

Drivers take one :class:`ResilienceOptions` bundle instead of five loose
keyword arguments.
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    checkpoint_fingerprint,
)
from repro.resilience.errors import (
    CheckpointCorruptWarning,
    ChunkRetryError,
    DeadlineExceeded,
    InjectedFault,
    ServiceOverloaded,
    StaleCheckpointError,
)
from repro.resilience.executor import (
    ResilienceOptions,
    ResilientExecutor,
    RetryLedger,
    RetryPolicy,
    interruptible_pool,
)
from repro.resilience.faults import FAULT_KINDS, FaultInjector, FaultSpec, corrupt_file

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointCorruptWarning",
    "ChunkRetryError",
    "DeadlineExceeded",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceOptions",
    "ResilientExecutor",
    "RetryLedger",
    "RetryPolicy",
    "ServiceOverloaded",
    "StaleCheckpointError",
    "checkpoint_fingerprint",
    "corrupt_file",
    "interruptible_pool",
]

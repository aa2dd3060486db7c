#!/usr/bin/env python3
"""Validate the LUT estimator against the batched transistor-level reference.

Fig. 12(a) compares the loading-aware estimate with a full "SPICE" solve of
the circuit.  The scalar reference relaxes one vector at a time; the batched
reference path flattens the circuit *once* and solves a whole vector set as
same-topology batches, which is what makes many-vector validation campaigns
interactive:

* ``run_reference_campaign`` is the reference twin of
  ``run_vector_campaign`` (``ReferenceSimulator.estimate`` stays available
  as the per-vector oracle);
* chunking only bounds memory — results are bitwise independent of how the
  vector set is split into batches;
* ``run_reference_campaign(..., max_workers=2)`` fans the chunks across
  worker processes and returns identical reports.

Run with ``python examples/reference_validation.py``.
"""

import time

from repro import make_technology
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core import (
    LoadingAwareEstimator,
    ReferenceSimulator,
    run_reference_campaign,
    run_vector_campaign,
)
from repro.gates.characterize import GateLibrary
from repro.utils.tables import format_table


def main() -> None:
    technology = make_technology("d25-s")
    library = GateLibrary(technology)
    estimator = LoadingAwareEstimator(library)
    circuit = iscas_like("s838", scale=0.12)
    vectors = list(random_vectors(circuit, 16, rng=2005))

    print(f"{circuit.name}: {circuit.gate_count} gates, {len(vectors)} vectors")

    start = time.perf_counter()
    reference = run_reference_campaign(circuit, technology, vectors=vectors)
    reference_seconds = time.perf_counter() - start
    print(f"batched reference campaign: {reference_seconds:.2f}s")

    # The same chunks over two worker processes: bitwise the same reports.
    pooled = run_reference_campaign(
        circuit, technology, vectors=vectors, chunk_size=8, max_workers=2
    )
    identical = all(
        a.total == b.total for a, b in zip(reference.reports, pooled.reports)
    )
    print(f"2-worker campaign reproduces the in-process reports: {identical}")

    estimate = run_vector_campaign(estimator, circuit, vectors=vectors)

    rows = []
    for component in ("subthreshold", "gate", "btbt", "total"):
        ref_mean = reference.mean_total(component)
        est_mean = estimate.mean_total(component)
        rows.append(
            [
                component,
                ref_mean * 1e9,
                est_mean * 1e9,
                100.0 * (est_mean - ref_mean) / ref_mean,
            ]
        )
    print()
    print(
        format_table(
            ["component", "reference [nA]", "estimated [nA]", "error [%]"],
            rows,
            title="Fig. 12(a): estimator vs transistor-level reference",
        )
    )

    # The scalar oracle produces the same numbers, one relaxation at a time;
    # two vectors are enough to see the per-vector cost difference.
    simulator = ReferenceSimulator(technology)
    start = time.perf_counter()
    for vector in vectors[:2]:
        simulator.estimate(circuit, vector)
    scalar_seconds = (time.perf_counter() - start) / 2 * len(vectors)
    print(
        f"\nscalar-oracle estimate for {len(vectors)} vectors: "
        f"~{scalar_seconds:.1f}s (batched ran {scalar_seconds / reference_seconds:.1f}x faster)"
    )


if __name__ == "__main__":
    main()

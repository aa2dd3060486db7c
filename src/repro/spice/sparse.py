"""Sparse linear-algebra backend for the batched damped-Newton solver.

This module implements the ``method="newton-sparse"`` backend of
:func:`repro.spice.newton.solve_newton`.  The dense backend materializes a
``(columns, N, N)`` Jacobian stack — 200 MB per column at N = 5,000 free
nodes, before LAPACK's O(N³) factorization even starts — which makes it a
hard wall at ISCAS scale.  Circuit Jacobians are, however, extremely
sparse: node *i* couples to node *j* only where a transistor touches both,
so the number of structural nonzeros grows linearly with the transistor
count (a handful of entries per row regardless of N).

:class:`SparseNewtonBackend` exploits exactly that:

* **One shared sparsity pattern.**  The scatter triplets that
  :class:`repro.spice.newton._NewtonAssembler` precomputes for the dense
  path (``jac_target`` = flattened ``(fi, fj)`` coordinates,
  ``jac_source`` = flattened device-derivative index) double as COO
  coordinates.  The constructor deduplicates them once into a CSC pattern
  — ``indices``/``indptr`` plus an ``entry_slot`` map taking each device
  triplet to its CSC slot — because the circuit *topology* is shared by
  every Newton iteration and every batch column.  Per iteration only the
  numeric values change: one ``np.add.at`` scatter fills the ``(nnz,
  columns)`` value block for all columns at once.
* **SuperLU per column.**  Each column's matrix is factorized
  independently with :func:`scipy.sparse.linalg.splu` (CSC is SuperLU's
  native layout; the column ordering is recomputed from the same pattern
  with the same fixed ``permc_spec``, so it is identical for every
  column).  The KCL Jacobian is structurally symmetric — a transistor
  touching nodes *i* and *j* couples both ways — so the ordering is a
  minimum-degree ordering on the pattern of A+Aᵀ (``MMD_AT_PLUS_A``,
  George & Liu, SIAM Rev. 31(1) 1989) with SuperLU's ``SymmetricMode``,
  which prefers diagonal pivots.  ``COLAMD`` orders for AᵀA instead; at
  ``iscas_like(1200)`` (2,671 free nodes) the switch cuts L+U fill about
  fourfold, from 430–490k entries to 104–114k depending on the column's
  values.  Per-column factorization is what preserves the solver's
  bitwise batch-composition invariance — a column's step never depends on
  which other columns share the batch — and exactly singular columns are
  reported through the same ``singular`` flag the dense backend uses, so
  the shared globalization loop hands them to the Gauss–Seidel fallback
  unchanged.

Memory is O(nnz · columns) for the values plus SuperLU's fill-in — on
layered logic netlists a few dozen bytes per transistor per column — so
systems far beyond the dense wall stay cheap.  The trade-off is the
per-column Python-loop factorization, which loses to one batched LAPACK
call on the characterizer's small cells; the ``"auto"`` policy in
:func:`repro.spice.newton.resolve_newton_method` keeps those on the dense
path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.spice.newton import _NewtonAssembler

#: Fixed SuperLU column-permutation strategy.  Pinning it makes the
#: factorization a pure function of the (shared) sparsity pattern and the
#: column's values, keeping solves reproducible across SciPy defaults.
#: Minimum degree on A+Aᵀ suits the structurally symmetric KCL Jacobian:
#: L+U fill is 3.9x nnz(A) at ``iscas_like(600)`` against 13.7x for
#: ``COLAMD``.  Computing that permutation once, pre-permuting the pattern
#: and factoring with ``NATURAL`` was measured worse (1.27M fill against
#: 114k at 2,671 free nodes), so SuperLU orders every column itself.
#: Partial pivoting stays at SuperLU's default threshold.
_PERMC_SPEC = "MMD_AT_PLUS_A"

#: SuperLU options paired with ``_PERMC_SPEC``.
_SPLU_OPTIONS = dict(SymmetricMode=True)


class SparseNewtonBackend:
    """CSC/SuperLU backend behind ``method="newton-sparse"``.

    Mirrors the ``steps`` interface of
    :class:`repro.spice.newton._DenseNewtonBackend`; see the module
    docstring for the scheme.
    """

    name = "newton-sparse"

    __slots__ = ("assembler", "nnz", "indices", "indptr", "entry_slot")

    def __init__(self, assembler: _NewtonAssembler) -> None:
        self.assembler = assembler
        n = assembler.n_free
        # jac_target encodes row-major (fi, fj); re-key column-major so the
        # sorted unique keys enumerate entries in CSC order.
        fi = assembler.jac_target // n
        fj = assembler.jac_target % n
        keys, entry_slot = np.unique(fj * n + fi, return_inverse=True)
        self.nnz = int(keys.size)
        self.entry_slot = entry_slot
        self.indices = np.ascontiguousarray(keys % n)  # CSC row indices
        self.indptr = np.searchsorted(
            keys // n, np.arange(n + 1)
        )  # CSC column pointers

    def assemble(
        self, packed, voltages: np.ndarray, injection: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and Jacobian values at ``voltages``.

        Returns ``(residual, data)``: ``residual`` is ``(N, columns)`` and
        ``data`` is the ``(nnz, columns)`` Fortran-ordered block of CSC
        values, one contiguous column per batch column.
        """
        assembler = self.assembler
        g, d, s, b = (voltages[r] for r in assembler.rows)
        currents, flat = packed.kcl_jacobian_flat(g, d, s, b)
        data = np.zeros((self.nnz, g.shape[1]), order="F")
        np.add.at(data, self.entry_slot, flat[assembler.jac_source])
        residual = (
            assembler._scatter_currents(currents, g.shape) - injection
        )
        return residual, data

    def factor(self, values: np.ndarray):
        """SuperLU factorization of one column's Jacobian ``values``.

        ``values`` is one contiguous column of :meth:`assemble`'s ``data``;
        the ``csc_matrix`` shares it without a copy.  Raises
        ``RuntimeError`` when the matrix is exactly singular.
        """
        n = self.assembler.n_free
        matrix = csc_matrix((values, self.indices, self.indptr), shape=(n, n))
        return splu(matrix, permc_spec=_PERMC_SPEC, options=_SPLU_OPTIONS)

    def steps(
        self, packed, voltages: np.ndarray, injection: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One linearization: ``(residual, step, singular)`` per column.

        Same contract as
        :meth:`repro.spice.newton._DenseNewtonBackend.steps`: ``residual``
        and ``step`` are ``(N, columns)``, ``singular`` flags columns whose
        factorization failed (their step is 0 and the globalization loop
        routes them to the Gauss–Seidel fallback).
        """
        residual, data = self.assemble(packed, voltages, injection)
        columns = data.shape[1]
        step = np.zeros((self.assembler.n_free, columns))
        singular = np.zeros(columns, dtype=bool)
        for k in range(columns):
            values = data[:, k]
            if not np.isfinite(values).all():
                singular[k] = True
                continue
            try:
                step[:, k] = self.factor(values).solve(-residual[:, k])
            except RuntimeError:  # SuperLU: factor is exactly singular
                singular[k] = True
        return residual, step, singular

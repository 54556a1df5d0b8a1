"""The batched + incremental evaluation engine.

Three evaluation paths share one contract — bit-identical
:class:`~repro.core.fitness.NetworkMetrics`, fitness and giant-component
masks for the same placement:

* **Scalar** — :class:`~repro.core.evaluation.Evaluator`.  The reference
  implementation; one placement per call.  Use it for one-off
  measurements and as the ground truth in tests.
* **Batch** — :meth:`Evaluator.evaluate_many
  <repro.core.evaluation.Evaluator.evaluate_many>` (over the pure
  :func:`evaluate_batch`).  Stacks ``K`` candidate placements into
  ``(K, N, 2)`` tensors and evaluates them in one vectorized pass.  Use
  it whenever an algorithm holds a candidate *set*: a sampled
  neighborhood phase, a GA offspring generation.
* **Delta** — :class:`DeltaEvaluator`.  Caches the incumbent's state and
  recomputes only what a move touches.  Use it for one-move-per-step
  loops (simulated annealing, tabu search).  The state lives for one
  run: a warm-started run rebuilds it from the warm placement.
* **Sparse** — :class:`SparseEngine` (and the pure
  :func:`evaluate_sparse`).  Bins positions into a spatial grid and
  generates only neighbor-bin candidate pairs, replacing the
  ``O(N^2 + M * N)`` matrices with ``O(N k + M k)`` edge and hit
  arrays.  Use it — normally via the automatic dispatch — for
  city-scale instances the dense tensors cannot hold.
* **Stacked** — :class:`StackedEngine` (and the pure
  :func:`measure_stack`).  Array-level measurement of whole multi-chain
  candidate stacks: metric *arrays* instead of per-candidate
  ``Evaluation`` objects, with dense/sparse dispatch.  Use it when a
  portfolio of searches advances in lockstep
  (:mod:`repro.neighborhood.multichain`) and only winning rows are ever
  materialized.
* **Compiled** — :class:`CompiledEngine`
  (:mod:`repro.core.engine.compiled`).  The hottest stacked and delta
  paths as C kernels, built on demand with the system toolchain and
  bound via ctypes.  Bit-identical to the numpy engines; purely a
  performance tier.  ``engine="auto"`` promotes to it whenever
  :func:`compiled_available` reports the kernels built, and falls back
  silently otherwise, so the tier never becomes a dependency.

The scalar and delta evaluators both take an ``engine`` argument
(``"auto"`` default): :func:`select_engine` picks dense at paper scale
and sparse above a size/density threshold (see
:mod:`repro.core.engine.dispatch`), and the compiled tier reuses the
same heuristic to pick its kernel form.  All paths count evaluations
identically, so the machine-independent search-cost accounting of the
experiments is unaffected by which engine a search runs on.
"""

from repro.core.engine.batch import (
    StackedMeasurement,
    batch_adjacency,
    batch_coverage,
    evaluate_batch,
    measure_stack,
)
from repro.core.engine.components import (
    batch_labels_from_adjacency,
    labels_from_adjacency,
    labels_from_edges,
    structure_from_labels,
)
from repro.core.engine.compiled import CompiledEngine
from repro.core.engine.compiled import is_available as compiled_available
from repro.core.engine.delta import DeltaEvaluator
from repro.core.engine.dispatch import ENGINE_TIERS, resolve_engine, select_engine
from repro.core.engine.sparse import (
    SparseEngine,
    SpatialGridIndex,
    evaluate_sparse,
    sparse_edges,
)
from repro.core.engine.stacked import StackedEngine

__all__ = [
    "CompiledEngine",
    "DeltaEvaluator",
    "ENGINE_TIERS",
    "compiled_available",
    "SparseEngine",
    "SpatialGridIndex",
    "StackedEngine",
    "StackedMeasurement",
    "batch_adjacency",
    "batch_coverage",
    "evaluate_batch",
    "evaluate_sparse",
    "measure_stack",
    "sparse_edges",
    "batch_labels_from_adjacency",
    "labels_from_adjacency",
    "labels_from_edges",
    "structure_from_labels",
    "resolve_engine",
    "select_engine",
]

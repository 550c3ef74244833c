"""Parallel execution substrate for level-synchronous (wavefront) loops.

The paper's Parallel DP (Alg. 3) is a sequence of barriers: each
anti-diagonal of the DP table is a *level*, the subproblems within a level
are independent, and levels must complete in order.  This subpackage
provides the generic machinery:

* :mod:`repro.parallel.partition` — the round-robin partitioning of a
  level's work across ``P`` workers (the "parallel for" of Alg. 3) and
  the contiguous flat-index blocks of the tile schedule.
* :mod:`repro.parallel.runs` — the tile (blocks × runs of levels)
  schedule the ``thread`` backend executes.
* :mod:`repro.parallel.executor` — the shared-memory thread pool that
  executes one barrier interval.  The simulated multicore machine lives
  in :mod:`repro.simcore`.

The package re-exports only the executors: partitioning needs numpy, and
every solver imports this package for its executors, so the numpy-backed
helpers are imported from their own modules.
"""

from repro.parallel.executor import Executor, ThreadExecutor, make_executor

__all__ = [
    "Executor",
    "ThreadExecutor",
    "make_executor",
]

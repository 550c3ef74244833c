"""Parallel execution substrate for level-synchronous (wavefront) loops.

The paper's Parallel DP (Alg. 3) is a sequence of barriers: each
anti-diagonal of the DP table is a *level*, the subproblems within a level
are independent, and levels must complete in order.  This subpackage
provides the generic machinery:

* :mod:`repro.parallel.partition` — the round-robin / block partitioning
  of a level's work across ``P`` workers (the "parallel for" of Alg. 3).
* :mod:`repro.parallel.executor` — pluggable backends that execute one
  level's chunks: in-line serial, shared-memory threads, or a process
  pool.  The simulated multicore machine lives in :mod:`repro.simcore`.
* :mod:`repro.parallel.wavefront` — the level-synchronous driver that
  strings partitioning and execution together and exposes per-level hooks
  used for cost accounting.

The package re-exports only the executors: partitioning needs numpy, and
every solver imports this package for its executors, so the numpy-backed
helpers are imported from their own modules.
"""

from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
]

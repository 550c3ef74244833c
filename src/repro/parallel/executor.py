"""Pluggable executors for one level of a wavefront computation.

An :class:`Executor` receives a worker function and a list of chunks
(one per worker) and runs ``fn(chunk)`` for every non-empty chunk,
returning the results in chunk order.  Completing the call *is* the level
barrier.

Backends
--------
``SerialExecutor``
    Runs chunks in a plain loop.  Reference semantics, zero overhead —
    also what the sequential PTAS uses.
``ThreadExecutor``
    A persistent ``ThreadPoolExecutor``.  This is the faithful
    shared-memory implementation of the paper's OpenMP design: all
    workers read and write the same DP table with no copying.  The
    :class:`~repro.core.kernels.LevelKernel` workers release the GIL
    inside numpy, so this backend genuinely scales on multicore hosts
    (pure-Python workers would serialize — see DESIGN.md §6).
``ProcessExecutor``
    A persistent ``ProcessPoolExecutor`` for picklable, self-contained
    chunks.  True parallelism on multicore hosts; per-chunk shipping
    costs apply.

Reusable pools
--------------
Pool startup is expensive — process spawning in particular costs far
more than one small DP level.  A ``P || Cmax`` solve issues one wavefront
per bisection probe, so paying pool construction per probe swamps the
work being parallelized.  :func:`make_executor` therefore has a
*reusable-pool* mode (``reuse=True``): the returned executor wraps a
pool drawn from a per-process cache keyed by ``(backend, num_workers)``,
and ``close()`` parks the pool back in the cache instead of shutting it
down.  The bisection driver opens one reusable executor and threads it
through every probe; workers persist across the whole solve.
:func:`shutdown_pools` tears the cache down (also registered
``atexit``).

Executors are context managers; ``SerialExecutor`` is stateless.
"""

from __future__ import annotations

import abc
import atexit
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence


class _ImmediateFuture:
    """Already-resolved future returned by the serial :meth:`Executor.submit`."""

    __slots__ = ("_value", "_exc")

    def __init__(self, value: Any = None, exc: BaseException | None = None):
        self._value = value
        self._exc = exc

    def result(self) -> Any:
        """The computed value (re-raises the captured exception, if any)."""
        if self._exc is not None:
            raise self._exc
        return self._value


class Executor(abc.ABC):
    """Runs the chunks of one level and blocks until all complete."""

    #: Number of workers this executor schedules onto.
    num_workers: int = 1

    @abc.abstractmethod
    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> list[Any]:
        """Execute ``fn`` over every chunk; return results in chunk order.

        Empty chunks (empty sequences) are skipped and yield ``None`` in
        the result list, mirroring a processor that sits idle during a
        level with ``q_l < P``.
        """

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        """Start ``fn(arg)`` without blocking; return a future-like handle
        whose ``result()`` blocks for (and returns or raises) the outcome.

        This is the pipelining primitive: the speculative bisection
        overlaps one probe's backtrack/reconstruction with the next
        round's DP sweeps by parking the former here.  The serial default
        runs inline and returns an already-resolved handle — same
        semantics, no concurrency.
        """
        try:
            return _ImmediateFuture(value=fn(arg))
        except BaseException as exc:  # noqa: BLE001 - futures carry any error
            return _ImmediateFuture(exc=exc)

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _is_empty(chunk: Any) -> bool:
    try:
        return len(chunk) == 0
    except TypeError:
        return False


class SerialExecutor(Executor):
    """Run every chunk in the calling thread, in order."""

    num_workers = 1

    def __init__(self, num_workers: int = 1):
        # A serial executor may *model* P workers (the wavefront driver
        # still partitions into P chunks); execution remains sequential.
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> list[Any]:
        return [None if _is_empty(c) else fn(c) for c in chunks]


class ThreadExecutor(Executor):
    """Shared-memory thread pool (the OpenMP analogue)."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._pool = ThreadPoolExecutor(max_workers=num_workers)

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> list[Any]:
        futures = [
            None if _is_empty(c) else self._pool.submit(fn, c) for c in chunks
        ]
        return [f.result() if f is not None else None for f in futures]

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        """Asynchronous single task on the pool (a real future)."""
        return self._pool.submit(fn, arg)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor(Executor):
    """Process pool for picklable work (true multicore parallelism)."""

    def __init__(
        self,
        num_workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        # Imported here: multiprocessing costs every importer of the
        # solver stack about 1.7 MB resident, and only this backend uses it.
        from concurrent.futures import ProcessPoolExecutor

        self.num_workers = num_workers
        self._pool = ProcessPoolExecutor(
            max_workers=num_workers, initializer=initializer, initargs=initargs
        )

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> list[Any]:
        futures = [
            None if _is_empty(c) else self._pool.submit(fn, c) for c in chunks
        ]
        return [f.result() if f is not None else None for f in futures]

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        """Asynchronous single task on the pool (``fn``/``arg`` must pickle)."""
        return self._pool.submit(fn, arg)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Reusable pools
# ---------------------------------------------------------------------------

#: Idle pooled executors, keyed by ``(backend, num_workers)``.
_POOL_CACHE: dict[tuple[str, int], list[Executor]] = {}


class ReusableExecutor(Executor):
    """Wrapper whose ``close()`` parks the wrapped pool for reuse.

    Handed out by ``make_executor(..., reuse=True)``.  The wrapped pool
    (exposed as :attr:`pool` so tests can assert pool identity across
    bisection probes) survives ``close()`` and is handed to the next
    ``reuse=True`` request with the same backend and worker count.
    """

    def __init__(self, inner: Executor, key: tuple[str, int]) -> None:
        self._inner = inner
        self._key = key
        self._released = False
        self.num_workers = inner.num_workers

    @property
    def pool(self) -> Executor:
        """The cached underlying executor (stable across reuse cycles)."""
        return self._inner

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> list[Any]:
        if self._released:
            raise RuntimeError("executor was released back to the pool cache")
        return self._inner.map_chunks(fn, chunks)

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Any:
        """Delegate to the wrapped pool (see :meth:`Executor.submit`)."""
        if self._released:
            raise RuntimeError("executor was released back to the pool cache")
        return self._inner.submit(fn, arg)

    def close(self) -> None:
        if not self._released:
            self._released = True
            _POOL_CACHE.setdefault(self._key, []).append(self._inner)


def shutdown_pools() -> None:
    """Shut down every idle cached pool (used by tests and ``atexit``)."""
    for idle in _POOL_CACHE.values():
        for ex in idle:
            ex.close()
    _POOL_CACHE.clear()


atexit.register(shutdown_pools)


def make_executor(
    backend: str, num_workers: int, *, reuse: bool = False, **kwargs: Any
) -> Executor:
    """Factory used by :func:`repro.core.parallel_dp.parallel_dp`.

    ``backend`` is one of ``"serial"``, ``"thread"``, ``"process"``.
    With ``reuse=True`` the thread/process pool is drawn from (and on
    ``close()`` returned to) a per-process cache, so repeated short-lived
    executors — one wavefront per bisection probe — share one warm pool
    instead of paying startup per probe.  Reusable pools are created bare
    (no initializer), hence ``reuse`` rejects extra keyword arguments.
    """
    if reuse and kwargs:
        raise TypeError(
            "reusable pools are created bare; initializer arguments "
            f"are not supported: {sorted(kwargs)}"
        )
    if backend == "serial":
        return SerialExecutor(num_workers)
    if backend not in ("thread", "process"):
        raise ValueError(
            f"unknown executor backend {backend!r}; expected serial/thread/process"
        )
    if reuse:
        key = (backend, num_workers)
        idle = _POOL_CACHE.get(key)
        if idle:
            inner = idle.pop()
        elif backend == "thread":
            inner = ThreadExecutor(num_workers)
        else:
            inner = ProcessExecutor(num_workers)
        return ReusableExecutor(inner, key)
    if backend == "thread":
        return ThreadExecutor(num_workers)
    return ProcessExecutor(num_workers, **kwargs)

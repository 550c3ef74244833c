"""The one per-request solve path, shared by both execution lanes.

The thread lane (:class:`repro.service.server.ThreadLane`) runs it in an
executor thread and the process lane runs it inside each pool worker
(:mod:`repro.service.worker`), so "what happens to a request between
the cache and the answer" exists exactly once::

    lookup: cache get (memory → disk)
    solve:  journal begin → traced solve_instance
            ├─ DeadlineExceeded → LPT fallback (degraded=true)
            └─ any other error  → status="error" + journal abort
            → cache put (store write-through) → trace archive
            → journal commit

:meth:`SolvePath.lookup` and :meth:`SolvePath.solve` are separate so the
thread lane can answer memory hits on the event loop and ship only
misses to a thread.  :meth:`SolvePath.open` builds a path from the
serve configuration (store root/ttl, cache size/ttl, archive traces);
the CLI hands the same configuration to either lane.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.core.context import SolveContext
from repro.obs import Tracer, publish_phase_summary, trace_to_payload
from repro.service.cache import PreparedRequest, ResultCache
from repro.service.metrics import (
    MetricsRegistry,
    record_dp_cache,
    record_stats_source,
)
from repro.service.registry import EngineSpec, fallback_result, solve_instance
from repro.service.requests import (
    STATUS_ERROR,
    DeadlineExceeded,
    SolveResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.session import SessionManager
    from repro.store.journal import WriteAheadJournal
    from repro.store.resultstore import ResultStore

__all__ = ["SolvePath"]


class SolvePath:
    """Cache, durable store, journal and trace archive around the engine
    call — everything a lane does with one request besides moving it."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        store: "ResultStore | None" = None,
        journal: "WriteAheadJournal | None" = None,
        archive_traces: bool = False,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        if store is not None and self.cache.store is None:
            # Wire the durable tier under the memory cache so hits flow
            # memory → disk → solve without the caller doing it by hand.
            self.cache.store = store
        self.store = store
        self.journal = journal
        self.archive_traces = archive_traces
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self._sessions: "SessionManager | None" = None

    @classmethod
    def open(
        cls,
        *,
        store_root: str | None = None,
        store_ttl: float | None = None,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        archive_traces: bool = False,
        worker_id: int | None = None,
    ) -> "SolvePath":
        """Build a path from the serve configuration.  A pool worker
        passes its *worker_id*: its store segments carry the writer tag
        ``w<i>`` and it journals to its own ``journal-w<i>.jsonl``, so
        every file keeps a single writer."""
        store = journal = None
        if store_root:
            from repro.store import ResultStore, WriteAheadJournal, worker_journal_name

            if worker_id is None:
                store = ResultStore(store_root, ttl=store_ttl)
                journal = WriteAheadJournal(store_root)
            else:
                store = ResultStore(
                    store_root, ttl=store_ttl, writer_tag=f"w{worker_id}"
                )
                journal = WriteAheadJournal(
                    store_root, name=worker_journal_name(worker_id)
                )
        return cls(
            cache=ResultCache(max_entries=cache_size, ttl=cache_ttl, store=store),
            store=store,
            journal=journal,
            archive_traces=archive_traces,
        )

    @property
    def sessions(self) -> "SessionManager":
        """Live-schedule sessions behind ``op=stream`` — share the path's
        cache (tenant re-solves and one-shot requests answer each other),
        store (durable snapshots), and metrics (``tenant.<id>.*``
        gauges).  Built, and :mod:`repro.online` imported, on first use:
        a server that never streams never loads it."""
        if self._sessions is None:
            from repro.online.session import SessionManager

            self._sessions = SessionManager(
                store=self.store,
                cache=self.cache,
                metrics=self.metrics,
                clock=self.clock,
            )
        return self._sessions

    def lookup(self, prepared: PreparedRequest) -> SolveResult | None:
        """The cached answer (``cached=True``), or ``None`` after
        counting a ``cache_misses``."""
        hit = self.cache.get(prepared)
        if hit is None:
            self.metrics.counter("cache_misses").inc()
        return hit

    def solve(
        self,
        prepared: PreparedRequest,
        spec: EngineSpec,
        check_deadline: Callable[[], None] | None = None,
    ) -> SolveResult:
        """Solve a cache miss; never raises for an engine failure.

        *check_deadline* is the hook the PTAS bisection polls between
        probes; when it raises :class:`DeadlineExceeded` the answer is
        the degraded LPT fallback.  Any other exception becomes a
        ``status="error"`` result and aborts the journal entry, so a
        request that cannot be solved is not replayed on restart.
        """
        request = prepared.request
        entry = self.journal.begin(request) if self.journal is not None else None
        tracer = Tracer()
        ctx = SolveContext(
            check_deadline=check_deadline, tracer=tracer, metrics=self.metrics
        )
        try:
            instance = prepared.instance
            if instance is None:
                instance = request.instance()
            result = solve_instance(spec, request, instance, ctx, self.clock)
        except DeadlineExceeded:
            result = fallback_result(request)
        except Exception as exc:  # noqa: BLE001 - one bad solve must not fail its lane
            self.metrics.counter("errors_total").inc()
            if entry is not None:
                self.journal.abort(entry)
                entry = None
            result = SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=spec.name,
                error=f"{type(exc).__name__}: {exc}",
            )
        publish_phase_summary(tracer, self.metrics)
        if result.ok and not result.degraded:
            self.cache.put(prepared, result)  # write-through to the store
            self._archive_trace(prepared, tracer)
        if entry is not None:
            self.journal.commit(entry)
        return result

    def _archive_trace(self, prepared: PreparedRequest, tracer: Tracer) -> None:
        """Persist this solve's trace into the durable store (opt-in)."""
        if self.store is None or not self.archive_traces:
            return
        name = prepared.request.request_id or str(prepared.key)
        try:
            self.store.archive_trace(name, trace_to_payload(tracer))
            self.metrics.counter("traces_archived").inc()
        except OSError:
            pass  # archival is best-effort; never fail the solve

    def record_stats(self) -> None:
        """Publish the cache, store, journal, DP-cache and session
        instruments into the path's registry as gauges."""
        self.metrics.set_many(
            "result_cache", {k: float(v) for k, v in self.cache.stats().items()}
        )
        if self.store is not None:
            record_stats_source(self.metrics, "store", self.store)
        if self.journal is not None:
            record_stats_source(self.metrics, "journal", self.journal)
        record_dp_cache(self.metrics)
        sessions = self._sessions
        self.metrics.gauge("stream_sessions").set(
            float(sessions.num_sessions if sessions is not None else 0)
        )

    def close(self) -> None:
        """Flush the persistence layer: a clean exit leaves the journal
        empty and every segment closed."""
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()

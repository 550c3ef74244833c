"""The asyncio scheduling service: JSON-lines front-end over the solvers.

Architecture (see ``docs/service.md`` for the full reference)::

    client ──JSON line──▶ connection handler ──▶ SolveService.handle
                                                   │ 1. result cache
                                                   │ 2. admission gate
                                                   │ 3. slot dispatcher (small;
                                                   │    batches only what queued
                                                   │    while all slots were busy)
                                                   │    or direct dispatch
                                                   ▼
                                        ThreadPoolExecutor workers
                                          └─ registry engines; parallel
                                             PTAS draws its wavefront
                                             workers from the persistent
                                             reusable pools of
                                             repro.parallel.executor

Requests are solved off the event loop via ``run_in_executor``; the
event loop only parses, batches, and enforces deadlines.  Small
requests (at most ``batch_max_jobs`` jobs, not an exact engine) go out
the moment an executor slot is free — in the same event-loop turn when
a worker is idle.  Only what queues while every slot is busy forms
batches: when a slot frees, the oldest queued request ships together
with every *compatible* queued request (same problem, engine and
``eps``), up to ``batch_max_size``, as one executor call.  Nothing ever
waits on a timer.  Heavy solves dispatch individually.

Graceful degradation: a request with a ``deadline`` gets a deadline hook
threaded into the PTAS bisection through its per-request
:class:`~repro.core.context.SolveContext` (probes abort mid-solve); when
the deadline fires, the service returns the LPT schedule for the same
instance tagged ``degraded=true`` with Graham's ``4/3 - 1/(3m)``
guarantee — a worse bound, never a timeout.  Engines that cannot be
cancelled (the exact solvers) are abandoned in their worker thread and
degraded from the event loop.

Observability: every deadline-capable solve runs under a fresh
:class:`repro.obs.Tracer`; its per-phase summary (probe / dp / level /
… wall time and counters) is folded into the metrics registry after each
request, so ``{"op": "stats"}`` exposes ``trace.phase.<kind>.seconds``
histograms alongside the service counters.

Durability (opt-in, see ``docs/persistence.md``): with a
:class:`repro.store.ResultStore` and :class:`repro.store.WriteAheadJournal`
attached, the cache reads/writes through to disk, every admitted request
is journaled before solving and committed after answering, SIGTERM /
SIGINT shut down through the same graceful path as the ``shutdown`` op,
and traces can be archived next to the results they explain.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, PreparedRequest, ResultCache
from repro.service.metrics import (
    MetricsRegistry,
    record_dp_cache,
    record_stats_source,
)
from repro.obs import Tracer, publish_phase_summary, trace_to_payload
from repro.service.registry import (
    EngineSpec,
    UnknownEngineError,
    build_solve_context,
    fallback_result,
    get_engine,
    solve_instance,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.online.session import SessionManager
    from repro.service.supervisor import PooledSolveService
    from repro.store.journal import WriteAheadJournal
    from repro.store.resultstore import ResultStore
from repro.service.requests import (
    STATUS_ERROR,
    STATUS_REJECTED,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)

#: Default TCP port (no registered meaning; "Cmax" on a phone keypad-ish).
DEFAULT_PORT = 8357


@dataclass
class _Job:
    """One admitted request travelling through the dispatch machinery."""

    prepared: PreparedRequest
    spec: EngineSpec
    deadline_at: float | None
    admitted_at: float
    future: "asyncio.Future[SolveResult]"

    @property
    def request(self) -> SolveRequest:
        return self.prepared.request

    @property
    def batch_key(self) -> tuple[str, str, float]:
        return (self.request.problem, self.spec.name, self.request.eps)


class SolveService:
    """Request orchestrator: cache → admission → batch/dispatch → degrade.

    The service is transport-agnostic — :meth:`handle` takes a
    :class:`SolveRequest` and returns a :class:`SolveResult`; the
    JSON-lines TCP front-end (:func:`start_server` / :func:`serve`) is
    one thin consumer, and tests or in-process callers are another.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        max_workers: int = 4,
        batch_max_size: int = 16,
        batch_max_jobs: int = 64,
        default_deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        store: "ResultStore | None" = None,
        journal: "WriteAheadJournal | None" = None,
        archive_traces: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        self.cache = cache if cache is not None else ResultCache()
        self.store = store
        self.journal = journal
        self.archive_traces = archive_traces
        if store is not None and self.cache.store is None:
            # Wire the durable tier under the memory cache so hits flow
            # memory → disk → solve without the caller doing it by hand.
            self.cache.store = store
        self.admission = admission if admission is not None else AdmissionController()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_workers = max_workers
        self.batch_max_size = batch_max_size
        self.batch_max_jobs = batch_max_jobs
        self.default_deadline = default_deadline
        self._clock = clock
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-solve"
        )
        #: Small jobs waiting for a free executor slot, oldest first.
        self._queued: deque[_Job] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._busy_workers = 0
        self._inflight: dict[CacheKey, asyncio.Future[None]] = {}
        self._sessions: "SessionManager | None" = None

    @property
    def sessions(self) -> "SessionManager":
        """Live-schedule sessions behind ``op=stream`` — share the
        service's cache (tenant re-solves and one-shot requests answer
        each other), store (durable snapshots), and metrics
        (``tenant.<id>.*`` gauges).  Built, and :mod:`repro.online`
        imported, on first use: a server that never streams never
        loads it."""
        if self._sessions is None:
            from repro.online.session import SessionManager

            self._sessions = SessionManager(
                store=self.store,
                cache=self.cache,
                metrics=self.metrics,
                clock=self._clock,
            )
        return self._sessions

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def handle(self, request: SolveRequest) -> SolveResult:
        """Serve one request end to end (cache → admission → solve).

        The request is validated into its instance and put into
        canonical form once, here; every later step reuses both."""
        t0 = self._clock()
        self.metrics.counter("requests_total").inc()
        self.metrics.counter(f"requests.problem.{request.problem}").inc()
        try:
            instance = request.instance()  # eager structural validation
            spec = get_engine(request.engine, problem=request.problem)
        except (UnknownEngineError, ValueError, TypeError) as exc:
            self.metrics.counter("requests_invalid").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=request.engine,
                error=str(exc),
            )
        prepared = PreparedRequest(request, instance)

        hit = self.cache.get(prepared)
        if hit is not None:
            self.metrics.counter("cache_hits").inc()
            self.metrics.histogram("request_latency_seconds").observe(
                self._clock() - t0
            )
            return hit
        self.metrics.counter("cache_misses").inc()

        # Single-flight coalescing: a concurrent duplicate (same
        # canonical key — a thundering herd of permuted twins) waits for
        # the leader instead of burning a worker on identical work, then
        # reads the freshly populated cache.  If the leader's answer was
        # not cacheable (degraded / failed), fall through and solve.
        key = prepared.key
        leader = key not in self._inflight
        if leader:
            self._inflight[key] = asyncio.get_running_loop().create_future()
        else:
            self.metrics.counter("requests_coalesced").inc()
            try:
                await asyncio.shield(self._inflight[key])
            except asyncio.CancelledError:
                raise
            except Exception:
                pass
            hit = self.cache.get(prepared)
            if hit is not None:
                self.metrics.counter("cache_hits").inc()
                self.metrics.histogram("request_latency_seconds").observe(
                    self._clock() - t0
                )
                return hit

        try:
            return await self._admit_and_solve(prepared, spec, t0)
        finally:
            if leader:
                waiters = self._inflight.pop(key)
                if not waiters.done():
                    waiters.set_result(None)

    async def handle_stream(self, request: StreamRequest) -> StreamResult:
        """Serve one live-schedule event (``op=stream``).

        The session manager serializes events internally; running
        ``apply`` in the executor keeps any drift-triggered PTAS
        re-solve off the event loop, exactly like a one-shot solve.
        """
        self.metrics.counter("stream_events_total").inc()
        result = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.sessions.apply, request
        )
        if not result.ok:
            self.metrics.counter("stream_errors").inc()
        return result

    async def _admit_and_solve(
        self, prepared: PreparedRequest, spec: EngineSpec, t0: float
    ) -> SolveResult:
        request = prepared.request
        decision = self.admission.try_admit(request)
        if not decision.admitted:
            self.metrics.counter("requests_shed").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_REJECTED,
                engine=request.engine,
                retry_after=decision.retry_after,
                error=decision.reason,
            )

        deadline = (
            request.deadline if request.deadline is not None else self.default_deadline
        )
        deadline_at = None if deadline is None else t0 + deadline
        job = _Job(
            prepared=prepared,
            spec=spec,
            deadline_at=deadline_at,
            admitted_at=self._clock(),
            future=asyncio.get_running_loop().create_future(),
        )
        # Write-ahead: an admitted request is journaled before its solve
        # starts, and marked committed only after a response exists and
        # any cacheable answer has reached the store — so a crash at any
        # point in between is replayed on restart (docs/persistence.md).
        entry = self.journal.begin(request) if self.journal is not None else None
        try:
            self._submit(job)
            result = await self._await_with_deadline(job)
        finally:
            self.admission.release(decision)
        if result.ok and not result.degraded:
            self.cache.put(prepared, result)
        if entry is not None:
            self.journal.commit(entry)
        self.metrics.histogram("request_latency_seconds").observe(self._clock() - t0)
        return result

    def _is_batchable(self, job: _Job) -> bool:
        """Small, cancellable-or-instant work goes through the slot
        dispatcher; exact engines and big instances get a worker to
        themselves."""
        return not job.spec.exact and job.request.num_jobs <= self.batch_max_jobs

    async def _await_with_deadline(self, job: _Job) -> SolveResult:
        """Wait for the job; degrade from the event loop if a deadline
        passes on an engine that cannot cancel itself (its worker thread
        is abandoned — it still occupies a slot until it finishes)."""
        if job.deadline_at is None or job.spec.supports_deadline:
            return await job.future
        remaining = max(0.0, job.deadline_at - self._clock())
        try:
            return await asyncio.wait_for(asyncio.shield(job.future), remaining)
        except asyncio.TimeoutError:
            self.metrics.counter("solves_abandoned").inc()
            job.future.add_done_callback(lambda f: f.exception())  # reap quietly
            return self._degrade(job)

    # ------------------------------------------------------------------
    # Batching and dispatch
    # ------------------------------------------------------------------
    def _submit(self, job: _Job) -> None:
        """Dispatch a heavy job now; queue a small one and ship it at
        once if a slot is free."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            # First use on this event loop (or the loop changed between
            # asyncio.run() invocations in tests): nothing queued or in
            # flight on a dead loop can complete, so forget it.
            self._loop = loop
            self._queued.clear()
            self._busy_workers = 0
        if not self._is_batchable(job):
            self._dispatch([job])
            return
        self._queued.append(job)
        self._drain()

    def _drain(self) -> None:
        """Ship queued jobs while executor slots are free: each dispatch
        takes the oldest queued job plus every compatible job queued
        behind it, up to ``batch_max_size``, and holds one slot until it
        completes."""
        while self._queued and self._busy_workers < self.max_workers:
            head = self._queued.popleft()
            batch, rest = [head], deque()
            while self._queued and len(batch) < self.batch_max_size:
                job = self._queued.popleft()
                (batch if job.batch_key == head.batch_key else rest).append(job)
            rest.extend(self._queued)
            self._queued = rest
            self.metrics.counter("batches_total").inc()
            self.metrics.histogram("batch_size").observe(len(batch))
            self._dispatch(batch)

    def _dispatch(self, jobs: list[_Job]) -> None:
        """Ship a group of jobs to one worker thread."""
        loop = asyncio.get_running_loop()
        self._busy_workers += 1
        self.metrics.gauge("executor_busy").set(self._busy_workers)

        def run() -> list[SolveResult]:
            return [self._solve_one(job) for job in jobs]

        def done(fut: "asyncio.Future[list[SolveResult]]") -> None:
            self._busy_workers -= 1
            self.metrics.gauge("executor_busy").set(self._busy_workers)
            self._drain()
            if fut.cancelled():
                for job in jobs:
                    if not job.future.done():
                        job.future.cancel()
                return
            exc = fut.exception()
            for job, result in zip(
                jobs, fut.result() if exc is None else [None] * len(jobs)
            ):
                if job.future.done():
                    continue
                if exc is not None:
                    job.future.set_exception(exc)
                else:
                    job.future.set_result(result)

        task = loop.run_in_executor(self._executor, run)
        task.add_done_callback(done)

    # ------------------------------------------------------------------
    # Worker-side solve (runs in an executor thread)
    # ------------------------------------------------------------------
    def _solve_one(self, job: _Job) -> SolveResult:
        self.metrics.histogram("queue_wait_seconds").observe(
            self._clock() - job.admitted_at
        )
        request, spec = job.request, job.spec
        if job.deadline_at is not None and self._clock() > job.deadline_at:
            return self._degrade(job)
        tracer = Tracer()
        ctx = build_solve_context(
            request,
            deadline_at=(
                job.deadline_at
                if job.deadline_at is not None and spec.supports_deadline
                else None
            ),
            clock=self._clock,
            tracer=tracer,
            metrics=self.metrics,
        )
        try:
            result = solve_instance(
                spec, request, job.prepared.instance, ctx, self._clock
            )
        except DeadlineExceeded:
            publish_phase_summary(tracer, self.metrics)
            return self._degrade(job)
        except UnknownEngineError as exc:
            self.metrics.counter("requests_invalid").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=request.engine,
                error=str(exc),
            )
        publish_phase_summary(tracer, self.metrics)
        self._archive_trace(job.prepared, tracer)
        return result

    def _archive_trace(self, prepared: PreparedRequest, tracer: Tracer) -> None:
        """Persist this solve's trace into the durable store (opt-in)."""
        if self.store is None or not self.archive_traces:
            return
        name = prepared.request.request_id or prepared.key
        try:
            self.store.archive_trace(str(name), trace_to_payload(tracer))
            self.metrics.counter("traces_archived").inc()
        except OSError:
            pass  # archival is best-effort; never fail the solve

    def _degrade(self, job: _Job) -> SolveResult:
        """The anytime fallback: problem-appropriate LPT in O(n log n),
        tagged ``degraded`` (:func:`repro.service.registry.fallback_result`)."""
        self.metrics.counter("degradations_total").inc()
        return fallback_result(job.request)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``{"op": "stats"}`` payload: every subsystem's counters."""
        self.metrics.set_many(
            "result_cache", {k: float(v) for k, v in self.cache.stats().items()}
        )
        self.metrics.set_many(
            "admission", {k: float(v) for k, v in self.admission.stats().items()}
        )
        if self.store is not None:
            record_stats_source(self.metrics, "store", self.store)
        if self.journal is not None:
            record_stats_source(self.metrics, "journal", self.journal)
        record_dp_cache(self.metrics)
        self.metrics.gauge("pool_utilization").set(
            self._busy_workers / self.max_workers
        )
        sessions = self._sessions
        self.metrics.gauge("stream_sessions").set(
            float(sessions.num_sessions if sessions is not None else 0)
        )
        return self.metrics.snapshot()

    def healthcheck(self) -> dict[str, Any]:
        """The ``{"op": "healthcheck"}`` payload for the single-process
        service: alive iff we got here (the pooled service's coroutine
        counterpart in :mod:`repro.service.supervisor` probes workers)."""
        return {
            "ok": True,
            "mode": "single",
            "workers": 1,
            "executor_busy": self._busy_workers,
        }

    def request_shutdown(self) -> None:
        """Ask :func:`serve` to wind down (set by the ``shutdown`` op)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def aclose(self) -> None:
        """Cancel queued jobs, release the worker pool, and flush the
        persistence layer — a clean exit leaves the journal empty and
        every segment closed."""
        while self._queued:
            self._queued.popleft().future.cancel()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# JSON-lines TCP front-end
# ---------------------------------------------------------------------------

async def _write_line(
    writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: str
) -> None:
    async with lock:
        writer.write(payload.encode("utf-8") + b"\n")
        await writer.drain()


async def _maybe_await(value):
    """Normalize sync/async service methods: ``SolveService.stats`` is a
    plain call, ``PooledSolveService.stats`` is a coroutine (it
    round-trips to worker processes).  The front-end serves both."""
    if inspect.isawaitable(value):
        return await value
    return value


async def _handle_connection(
    service: "SolveService | PooledSolveService",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: requests in, responses out (possibly out of
    order — correlate via ``request_id``).  Control ops: ``ping``,
    ``stats``, ``healthcheck``, ``shutdown``."""
    lock = asyncio.Lock()
    pending: set[asyncio.Task[None]] = set()

    async def respond(request: SolveRequest) -> None:
        result = await service.handle(request)
        await _write_line(writer, lock, result.to_json())

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                await _write_line(
                    writer,
                    lock,
                    SolveResult(
                        status=STATUS_ERROR, error=f"malformed JSON: {exc}"
                    ).to_json(),
                )
                continue
            if isinstance(data, dict) and "op" in data:
                op = data["op"]
                if op == "ping":
                    await _write_line(writer, lock, json.dumps({"op": "pong"}))
                elif op == "stats":
                    stats = await _maybe_await(service.stats())
                    await _write_line(
                        writer, lock, json.dumps({"op": "stats", "stats": stats})
                    )
                elif op == "healthcheck":
                    health = await _maybe_await(service.healthcheck())
                    await _write_line(
                        writer,
                        lock,
                        json.dumps({"op": "healthcheck", **health}),
                    )
                elif op == "stream":
                    # Handled inline (awaited before the next readline):
                    # stream events are stateful, and per-connection
                    # arrival order is the ordering contract a tenant's
                    # session relies on.
                    try:
                        stream_request = StreamRequest.from_dict(data)
                    except (ValueError, TypeError, KeyError) as exc:
                        await _write_line(
                            writer,
                            lock,
                            StreamResult(
                                status=STATUS_ERROR, error=str(exc)
                            ).to_json(),
                        )
                        continue
                    try:
                        stream_result = await service.handle_stream(
                            stream_request
                        )
                    except Exception as exc:  # noqa: BLE001 — keep the
                        # connection (and its other tenants' sessions)
                        # alive; the event itself is reported failed.
                        stream_result = StreamResult(
                            request_id=stream_request.request_id,
                            tenant=stream_request.tenant,
                            action=stream_request.action,
                            status=STATUS_ERROR,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    await _write_line(writer, lock, stream_result.to_json())
                elif op == "shutdown":
                    await _write_line(writer, lock, json.dumps({"op": "bye"}))
                    service.request_shutdown()
                    break
                else:
                    await _write_line(
                        writer,
                        lock,
                        SolveResult(
                            status=STATUS_ERROR, error=f"unknown op {op!r}"
                        ).to_json(),
                    )
                continue
            try:
                request = SolveRequest.from_dict(data)
            except ValueError as exc:
                await _write_line(
                    writer,
                    lock,
                    SolveResult(status=STATUS_ERROR, error=str(exc)).to_json(),
                )
                continue
            task = asyncio.create_task(respond(request))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    except asyncio.CancelledError:
        # Loop/server teardown cancels live connection tasks.  Exiting
        # cleanly (after the finally's close below) keeps
        # asyncio.streams' done-callback from logging every shutdown as
        # "Exception in callback ... CancelledError".
        pass
    finally:
        for task in pending:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def start_server(
    service: "SolveService | PooledSolveService",
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> asyncio.AbstractServer:
    """Bind the JSON-lines front-end; the caller owns the returned
    server's lifetime (tests use ``port=0`` for an ephemeral port)."""
    service._shutdown_event = asyncio.Event()
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port
    )


async def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    service: "SolveService | PooledSolveService | None" = None,
    log_interval: float | None = None,
    on_ready: Callable[[str, int], None] | None = None,
) -> None:
    """Run the service until a ``shutdown`` op, SIGTERM/SIGINT, or
    cancellation.

    ``log_interval`` enables the periodic metrics heartbeat line;
    ``on_ready`` receives the bound ``(host, port)`` once listening.
    SIGTERM and SIGINT trigger the same graceful path as the
    ``shutdown`` op: stop accepting, then :meth:`SolveService.aclose`
    flushes the journal and closes segments, so a signal-terminated
    server leaves no uncommitted entries behind for work it answered.
    """
    svc = service if service is not None else SolveService()
    starter = getattr(svc, "start", None)
    if starter is not None:
        # Pooled service: spawn the workers before accepting traffic so
        # the first request never pays the pool's cold start.
        await starter()
    server = await start_server(svc, host, port)
    bound = server.sockets[0].getsockname()[:2] if server.sockets else (host, port)
    loop = asyncio.get_running_loop()
    handled_signals: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, svc.request_shutdown)
            handled_signals.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; Ctrl-C still raises KeyboardInterrupt
    if on_ready is not None:
        on_ready(bound[0], bound[1])

    async def heartbeat() -> None:
        assert log_interval is not None
        while True:
            await asyncio.sleep(log_interval)
            await _maybe_await(svc.stats())
            print(svc.metrics.render_line(), flush=True)

    beat = (
        asyncio.get_running_loop().create_task(heartbeat())
        if log_interval is not None and log_interval > 0
        else None
    )
    try:
        assert svc._shutdown_event is not None
        await svc._shutdown_event.wait()
    finally:
        if beat is not None:
            beat.cancel()
        for sig in handled_signals:
            loop.remove_signal_handler(sig)
        server.close()
        await server.wait_closed()
        await svc.aclose()


# ---------------------------------------------------------------------------
# Client helpers (used by ``repro-pcmax submit`` and the tests)
# ---------------------------------------------------------------------------

async def submit(
    host: str, port: int, request: SolveRequest, *, timeout: float | None = 60.0
) -> SolveResult:
    """Submit one request over a fresh connection and await its result."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request.to_json().encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the connection without replying")
        return SolveResult.from_json(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def replay(
    host: str,
    port: int,
    requests: "list[SolveRequest]",
    *,
    concurrency: int = 8,
    timeout: float | None = 120.0,
) -> list[tuple[SolveResult, float]]:
    """Replay *requests* against a running server over *concurrency*
    persistent connections and return ``(result, latency_seconds)`` in
    submission order.

    Each connection drains a shared queue serially (one request in
    flight per connection — latencies stay honest), so total load on
    the server is exactly *concurrency*-way.  Used by
    ``benchmarks/bench_service.py`` and ``repro-pcmax submit --repeat``.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    queue: asyncio.Queue[tuple[int, SolveRequest]] = asyncio.Queue()
    for item in enumerate(requests):
        queue.put_nowait(item)
    out: list[tuple[SolveResult, float] | None] = [None] * len(requests)

    async def lane() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = time.monotonic()
                writer.write(request.to_json().encode("utf-8") + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout)
                if not line:
                    raise ConnectionError(
                        "server closed the connection mid-replay"
                    )
                out[index] = (
                    SolveResult.from_json(line.decode("utf-8")),
                    time.monotonic() - t0,
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await asyncio.gather(*(lane() for _ in range(min(concurrency, len(requests)) or 1)))
    return [item for item in out if item is not None]


async def stream_events(
    host: str,
    port: int,
    requests: "list[StreamRequest]",
    *,
    timeout: float | None = 120.0,
) -> "list[StreamResult]":
    """Send a tenant's stream events over one connection, strictly in
    order (each result is awaited before the next event is written —
    the ordering the session protocol promises)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        results: list[StreamResult] = []
        for request in requests:
            writer.write(request.to_json().encode("utf-8") + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                raise ConnectionError(
                    "server closed the connection mid-stream"
                )
            results.append(StreamResult.from_json(line.decode("utf-8")))
        return results
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def send_op(
    host: str, port: int, op: str, *, timeout: float | None = 10.0
) -> dict:
    """Send a control op (``ping`` / ``stats`` / ``healthcheck`` /
    ``shutdown``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps({"op": op}).encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the connection without replying")
        return json.loads(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

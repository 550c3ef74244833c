"""The asyncio scheduling service: one front end over two execution lanes.

Architecture (see ``docs/service.md`` for the full reference)::

    client ──JSON line──▶ connection handler ──▶ SolveService.handle
                                                   │ validate + prepare once
                                                   │ lane.lookup (cache hit?)
                                                   │ single-flight
                                                   │ admission gate
                                                   │ deadline arithmetic
                                                   ▼
                                     lane.solve(prepared, spec, deadline_at)
                        ┌──────────────────────────┴──────────────────────┐
             ThreadLane (default)                         SupervisorPool (--pool-workers N)
             slot dispatcher → executor thread            shard → worker process
                        └──────── SolvePath: cache → journal → solve ─────┘

:class:`SolveService` owns everything that does not depend on where a
solve runs: validation, single-flight, admission, deadline arithmetic,
the ``cache_hits`` / ``degradations_total`` / latency instruments, and
the lifecycle.  It never asks which lane it holds.  A lane answers
:meth:`~Lane.lookup` (the thread lane serves memory and disk hits on the
event loop; the process lane returns ``None``, so hits stay in the
owning worker), :meth:`~Lane.solve` and :meth:`~Lane.solve_stream`, and
reports :meth:`~Lane.stats` and :meth:`~Lane.healthcheck`.  Both lanes
run the same per-request :class:`~repro.service.solvepath.SolvePath`.

The thread lane dispatches small requests (at most ``batch_max_jobs``
jobs, not an exact engine) the moment an executor slot is free — in the
same event-loop turn when a worker is idle.  Only what queues while
every slot is busy forms batches: when a slot frees, the oldest queued
request ships together with every *compatible* queued request (same
problem, engine and ``eps``), up to ``batch_max_size``, as one executor
call.  Nothing ever waits on a timer.  Heavy solves dispatch
individually.

Graceful degradation: a request with a ``deadline`` gets a deadline hook
threaded into the PTAS bisection through its per-request
:class:`~repro.core.context.SolveContext` (probes abort mid-solve); when
the deadline fires, the service returns the LPT schedule for the same
instance tagged ``degraded=true`` with Graham's ``4/3 - 1/(3m)``
guarantee — a worse bound, never a timeout.  Engines that cannot be
cancelled (the exact solvers) are abandoned by their lane and degraded
from the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, AsyncIterator, Awaitable, Callable, Protocol

from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, PreparedRequest
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    EngineSpec,
    UnknownEngineError,
    fallback_result,
    get_engine,
)
from repro.service.requests import (
    STATUS_ERROR,
    STATUS_REJECTED,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
    deadline_checker,
)
from repro.service.solvepath import SolvePath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.supervisor import SupervisorPool

#: Default TCP port (no registered meaning; "Cmax" on a phone keypad-ish).
DEFAULT_PORT = 8357


class Lane(Protocol):
    """Where solves run: :class:`ThreadLane` or
    :class:`~repro.service.supervisor.SupervisorPool`."""

    metrics: MetricsRegistry
    clock: Callable[[], float]

    async def start(self) -> None:
        """Make the lane ready to solve (idempotent)."""

    def lookup(self, prepared: PreparedRequest) -> SolveResult | None:
        """A cached answer served on the event loop, or ``None``."""

    async def solve(
        self, prepared: PreparedRequest, spec: EngineSpec, deadline_at: float | None
    ) -> SolveResult:
        """Answer a miss: solved, degraded at *deadline_at*, or an error."""

    async def solve_stream(self, request: StreamRequest) -> StreamResult:
        """Apply one live-schedule event in its tenant's order."""

    async def stats(self) -> dict[str, Any]:
        """The lane's ``op=stats`` snapshot of the shared registry."""

    async def healthcheck(self) -> dict[str, Any]:
        """The lane's ``op=healthcheck`` payload."""

    async def aclose(self) -> None:
        """Finish or cancel in-flight work and release the lane."""


class SolveService:
    """The front end: validate → cache → single-flight → admission →
    lane → degrade, over any :class:`Lane` (default: a fresh
    :class:`ThreadLane`).

    The service is transport-agnostic — :meth:`handle` takes a
    :class:`SolveRequest` and returns a :class:`SolveResult`; the
    JSON-lines TCP front-end (:func:`start_server` / :func:`serve`) is
    one thin consumer, and tests or in-process callers are another.
    It records into the lane's metrics registry on the lane's clock.
    """

    def __init__(
        self,
        lane: "ThreadLane | SupervisorPool | None" = None,
        *,
        admission: AdmissionController | None = None,
        default_deadline: float | None = None,
    ) -> None:
        self.lane: Lane = lane if lane is not None else ThreadLane()
        self.metrics = self.lane.metrics
        self.admission = admission if admission is not None else AdmissionController()
        self.default_deadline = default_deadline
        self._clock = self.lane.clock
        self._started: asyncio.Future[None] | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._inflight: dict[CacheKey, asyncio.Future[None]] = {}

    async def start(self) -> None:
        """Start the lane once (a pool spawns its workers here); the
        first request calls this too."""
        if self._started is None:
            self._started = asyncio.ensure_future(self.lane.start())
        await self._started

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def handle(self, request: SolveRequest) -> SolveResult:
        """Serve one request end to end (cache → admission → solve).

        The request is validated into its instance and put into
        canonical form once, here; every later step reuses both."""
        await self.start()
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

        hit = self.lane.lookup(prepared)
        if hit is not None:
            return self._answer(hit, t0)

        # Single-flight coalescing: a concurrent duplicate (same
        # canonical key — a thundering herd of permuted twins) waits for
        # the leader instead of burning a worker on identical work, then
        # looks up again (one key maps to one shard, so in a pool the
        # owning worker's cache answers it).  If the leader's answer was
        # not cacheable (degraded / failed), the follower solves.
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
            hit = self.lane.lookup(prepared)
            if hit is not None:
                return self._answer(hit, t0)

        try:
            return await self._admit_and_solve(prepared, spec, t0)
        finally:
            if leader:
                waiters = self._inflight.pop(key)
                if not waiters.done():
                    waiters.set_result(None)

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
        try:
            result = await self.lane.solve(prepared, spec, deadline_at)
        finally:
            self.admission.release(decision)
        return self._answer(result, t0)

    def _answer(self, result: SolveResult, t0: float) -> SolveResult:
        """Count an answer the client is about to get."""
        if result.cached:
            self.metrics.counter("cache_hits").inc()
        if result.degraded:
            self.metrics.counter("degradations_total").inc()
        self.metrics.histogram("request_latency_seconds").observe(self._clock() - t0)
        return result

    async def handle_stream(self, request: StreamRequest) -> StreamResult:
        """Serve one live-schedule event (``op=stream``): the lane keeps
        a tenant's events in arrival order and any drift-triggered PTAS
        re-solve off the event loop, exactly like a one-shot solve."""
        await self.start()
        self.metrics.counter("stream_events_total").inc()
        result = await self.lane.solve_stream(request)
        if not result.ok:
            self.metrics.counter("stream_errors").inc()
        return result

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """The ``{"op": "stats"}`` payload: every subsystem's counters."""
        self.metrics.set_many(
            "admission", {k: float(v) for k, v in self.admission.stats().items()}
        )
        return await self.lane.stats()

    async def healthcheck(self) -> dict[str, Any]:
        """The ``{"op": "healthcheck"}`` payload."""
        await self.start()
        return await self.lane.healthcheck()

    def request_shutdown(self) -> None:
        """Ask :func:`serve` to wind down (set by the ``shutdown`` op)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def aclose(self) -> None:
        """Release the lane; a clean exit leaves every journal empty and
        every segment closed."""
        await self.lane.aclose()


# ---------------------------------------------------------------------------
# Thread lane
# ---------------------------------------------------------------------------

@dataclass
class _Job:
    """One admitted request travelling through the slot dispatcher."""

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


class ThreadLane:
    """The in-process lane: a slot dispatcher over a thread pool whose
    threads run one :class:`SolvePath` (default: memory cache only)."""

    def __init__(
        self,
        path: SolvePath | None = None,
        *,
        max_workers: int = 4,
        batch_max_size: int = 16,
        batch_max_jobs: int = 64,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        self.path = path if path is not None else SolvePath()
        self.metrics = self.path.metrics
        self.clock = self.path.clock
        self.max_workers = max_workers
        self.batch_max_size = batch_max_size
        self.batch_max_jobs = batch_max_jobs
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-solve"
        )
        #: Small jobs waiting for a free executor slot, oldest first.
        self._queued: deque[_Job] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._busy_workers = 0

    async def start(self) -> None:
        """Nothing to spawn: executor threads start on first use."""

    def lookup(self, prepared: PreparedRequest) -> SolveResult | None:
        """Memory and disk hits are answered on the event loop."""
        return self.path.lookup(prepared)

    async def solve(
        self, prepared: PreparedRequest, spec: EngineSpec, deadline_at: float | None
    ) -> SolveResult:
        """Queue or dispatch the miss and await its answer."""
        job = _Job(
            prepared=prepared,
            spec=spec,
            deadline_at=deadline_at,
            admitted_at=self.clock(),
            future=asyncio.get_running_loop().create_future(),
        )
        self._submit(job)
        return await self._await_with_deadline(job)

    async def solve_stream(self, request: StreamRequest) -> StreamResult:
        """Run the session event in an executor thread (the front end
        awaits each connection's events in arrival order)."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self.path.sessions.apply, request
        )

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
        remaining = max(0.0, job.deadline_at - self.clock())
        try:
            return await asyncio.wait_for(asyncio.shield(job.future), remaining)
        except asyncio.TimeoutError:
            self.metrics.counter("solves_abandoned").inc()
            job.future.add_done_callback(lambda f: f.exception())  # reap quietly
            return fallback_result(job.request)

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
        """Ship a group of jobs to one worker thread.  A job that raises
        fails alone; its batch-mates still get their answers."""
        loop = asyncio.get_running_loop()
        self._busy_workers += 1
        self.metrics.gauge("executor_busy").set(self._busy_workers)

        def run() -> list[SolveResult | Exception]:
            outcomes: list[SolveResult | Exception] = []
            for job in jobs:
                try:
                    outcomes.append(self._run(job))
                except Exception as exc:  # noqa: BLE001 - delivered to its job
                    outcomes.append(exc)
            return outcomes

        def done(fut: "asyncio.Future[list[SolveResult | Exception]]") -> None:
            self._busy_workers -= 1
            self.metrics.gauge("executor_busy").set(self._busy_workers)
            self._drain()
            if fut.cancelled():
                for job in jobs:
                    if not job.future.done():
                        job.future.cancel()
                return
            exc = fut.exception()
            outcomes = [exc] * len(jobs) if exc is not None else fut.result()
            for job, outcome in zip(jobs, outcomes):
                if job.future.done():
                    continue
                if isinstance(outcome, BaseException):
                    job.future.set_exception(outcome)
                else:
                    job.future.set_result(outcome)

        task = loop.run_in_executor(self._executor, run)
        task.add_done_callback(done)

    def _run(self, job: _Job) -> SolveResult:
        """One job in its executor thread: the LPT fallback if its
        deadline passed while it queued, else the shared solve path."""
        self.metrics.histogram("queue_wait_seconds").observe(
            self.clock() - job.admitted_at
        )
        if job.deadline_at is not None and self.clock() > job.deadline_at:
            return fallback_result(job.request)
        check = (
            deadline_checker(job.deadline_at, self.clock)
            if job.deadline_at is not None and job.spec.supports_deadline
            else None
        )
        return self.path.solve(job.prepared, job.spec, check)

    async def stats(self) -> dict[str, Any]:
        """The shared registry with the path's gauges and slot usage."""
        self.path.record_stats()
        self.metrics.gauge("pool_utilization").set(
            self._busy_workers / self.max_workers
        )
        return self.metrics.snapshot()

    async def healthcheck(self) -> dict[str, Any]:
        """Alive iff we got here."""
        return {
            "ok": True,
            "mode": "single",
            "workers": 1,
            "executor_busy": self._busy_workers,
        }

    async def aclose(self) -> None:
        """Cancel queued jobs, let running solves finish, then flush the
        path's journal and store."""
        while self._queued:
            self._queued.popleft().future.cancel()
        await asyncio.get_running_loop().run_in_executor(
            None,
            functools.partial(self._executor.shutdown, wait=True, cancel_futures=True),
        )
        self.path.close()


# ---------------------------------------------------------------------------
# JSON-lines TCP front-end
# ---------------------------------------------------------------------------

async def _handle_connection(
    service: SolveService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: requests in, responses out (possibly out of
    order — correlate via ``request_id``).  Control ops: ``ping``,
    ``stats``, ``healthcheck``, ``stream``, ``shutdown``."""
    lock = asyncio.Lock()
    pending: set[asyncio.Task[None]] = set()

    async def write(payload: str) -> None:
        async with lock:
            writer.write(payload.encode("utf-8") + b"\n")
            await writer.drain()

    async def write_error(error: str) -> None:
        await write(SolveResult(status=STATUS_ERROR, error=error).to_json())

    async def respond(request: SolveRequest) -> None:
        await write((await service.handle(request)).to_json())

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
                await write_error(f"malformed JSON: {exc}")
                continue
            if isinstance(data, dict) and "op" in data:
                op = data["op"]
                if op == "ping":
                    await write(json.dumps({"op": "pong"}))
                elif op == "stats":
                    stats = await service.stats()
                    await write(json.dumps({"op": "stats", "stats": stats}))
                elif op == "healthcheck":
                    health = await service.healthcheck()
                    await write(json.dumps({"op": "healthcheck", **health}))
                elif op == "stream":
                    # Handled inline (awaited before the next readline):
                    # stream events are stateful, and per-connection
                    # arrival order is the ordering contract a tenant's
                    # session relies on.
                    try:
                        stream_request = StreamRequest.from_dict(data)
                    except (ValueError, TypeError, KeyError) as exc:
                        await write(
                            StreamResult(status=STATUS_ERROR, error=str(exc)).to_json()
                        )
                        continue
                    try:
                        stream_result = await service.handle_stream(stream_request)
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
                    await write(stream_result.to_json())
                elif op == "shutdown":
                    await write(json.dumps({"op": "bye"}))
                    service.request_shutdown()
                    break
                else:
                    await write_error(f"unknown op {op!r}")
                continue
            try:
                request = SolveRequest.from_dict(data)
            except ValueError as exc:
                await write_error(str(exc))
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
    service: SolveService,
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
    service: SolveService | None = None,
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
    # Start the lane before accepting traffic, so the first request
    # never pays a pool's cold start.
    await svc.start()
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
            await svc.stats()
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

@contextlib.asynccontextmanager
async def _connect(
    host: str, port: int, timeout: float | None
) -> AsyncIterator[Callable[[str], Awaitable[str]]]:
    """One client connection as ``ask(line) -> reply line``, closed on
    exit; a reply slower than *timeout* raises :class:`TimeoutError`."""
    reader, writer = await asyncio.open_connection(host, port)

    async def ask(line: str) -> str:
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()
        reply = await asyncio.wait_for(reader.readline(), timeout)
        if not reply:
            raise ConnectionError("server closed the connection without replying")
        return reply.decode("utf-8")

    try:
        yield ask
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def submit(
    host: str, port: int, request: SolveRequest, *, timeout: float | None = 60.0
) -> SolveResult:
    """Submit one request over a fresh connection and await its result."""
    async with _connect(host, port, timeout) as ask:
        return SolveResult.from_json(await ask(request.to_json()))


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

    async def connection() -> None:
        async with _connect(host, port, timeout) as ask:
            while not queue.empty():
                index, request = queue.get_nowait()
                t0 = time.monotonic()
                result = SolveResult.from_json(await ask(request.to_json()))
                out[index] = (result, time.monotonic() - t0)

    await asyncio.gather(
        *(connection() for _ in range(min(concurrency, len(requests)) or 1))
    )
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
    async with _connect(host, port, timeout) as ask:
        return [
            StreamResult.from_json(await ask(request.to_json()))
            for request in requests
        ]


async def send_op(
    host: str, port: int, op: str, *, timeout: float | None = 10.0
) -> dict:
    """Send a control op (``ping`` / ``stats`` / ``healthcheck`` /
    ``shutdown``)."""
    async with _connect(host, port, timeout) as ask:
        return json.loads(await ask(json.dumps({"op": op})))

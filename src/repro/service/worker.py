"""Solver worker process of the sharded pool.

One worker owns one shard of the canonical key space: it runs every
request the supervisor routes to it through the same
:class:`~repro.service.solvepath.SolvePath` as the thread lane, built
with its *own* memory result cache (duplicates of its shard hit warm),
its own writer-tagged view of the shared durable store (one writer per
segment file), and its own write-ahead journal (``journal-w<i>.jsonl``
— begin is fsync'd before the solve starts, in this process, so the
crash-consistency guarantee never crosses a process boundary).

Protocol: length-prefixed frames of UTF-8 JSON over the inherited
duplex pipe — ``multiprocessing.Connection.send_bytes`` /
``recv_bytes`` provide the 4-byte length prefix; the payload is always
JSON, never pickle, so a malicious or corrupt peer can at worst produce
a ``ValueError``.

Supervisor → worker frames::

    {"kind": "solve",  "id": str, "request": {...}, "deadline": s|null}
    {"kind": "stream", "id": str, "request": {...}}   # live-schedule event
    {"kind": "cancel", "id": str}          # per-request cancellation
    {"kind": "ping",   "id": str}
    {"kind": "stats",  "id": str}
    {"kind": "shutdown"}

Worker → supervisor frames::

    {"kind": "ready",  "worker": i, "pid": ...}
    {"kind": "result", "id": str, "result": {...}}
    {"kind": "stream_result", "id": str, "result": {...}}
    {"kind": "pong",   "id": str, "pid": ..., "solves": ...}
    {"kind": "stats",  "id": str, "stats": {counters, gauges, histograms}}

Stream events (``op=stream``) ride the same serial solve lane as
solves: the supervisor pins each tenant to one worker
(:func:`repro.service.sharding.tenant_shard`), and the FIFO job queue
then guarantees a tenant's events apply in arrival order.  The worker's
:class:`repro.online.session.SessionManager` shares the worker's result
cache and store, so drift-triggered re-solves hit the same warm state
as routed one-shot requests, and session snapshots persist durably next
to the results.

Threading: a daemon reader thread drains incoming frames so ``cancel``
/ ``ping`` / ``stats`` are handled *while* a solve is running; solves
themselves execute one at a time on the main thread (a shard is a
serial lane — cross-shard parallelism is the pool's job).  Cancellation
rides the same ``check_deadline`` hook the deadline uses: the PTAS
bisection polls it between probes, so a cancelled solve aborts
mid-flight and the worker degrades to LPT.  Engines that never poll
(the exact solvers) cannot be cancelled; the supervisor degrades on its
side and drops the eventual late reply.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
from typing import Any

from repro.service.cache import PreparedRequest
from repro.service.registry import UnknownEngineError, get_engine
from repro.service.requests import (
    STATUS_ERROR,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)
from repro.service.solvepath import SolvePath

__all__ = ["send_frame", "recv_frame", "worker_main"]


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------

def send_frame(conn, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame to *conn*."""
    conn.send_bytes(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def recv_frame(conn) -> dict[str, Any]:
    """Read one length-prefixed JSON frame from *conn*.

    Raises :class:`EOFError` when the peer is gone and
    :class:`ValueError` on a non-JSON-object payload.
    """
    data = conn.recv_bytes()
    payload = json.loads(data.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

class _Worker:
    """State and loops of one worker process (see module docstring)."""

    def __init__(self, conn, worker_id: int, config: dict[str, Any]) -> None:
        self.conn = conn
        self.worker_id = worker_id
        self.path = SolvePath.open(**config, worker_id=worker_id)
        self.metrics = self.path.metrics
        self._clock = self.path.clock
        self._write_lock = threading.Lock()  # reader + main thread both reply
        self._cancel_lock = threading.Lock()
        self._cancelled: set[str] = set()
        self._jobs: "queue.Queue[dict[str, Any] | None]" = queue.Queue()

    # -- plumbing --------------------------------------------------------
    def _reply(self, payload: dict[str, Any]) -> None:
        with self._write_lock:
            send_frame(self.conn, payload)

    def _is_cancelled(self, request_id: str) -> bool:
        with self._cancel_lock:
            return request_id in self._cancelled

    # -- reader thread ---------------------------------------------------
    def _read_loop(self) -> None:
        """Drain incoming frames; control frames are answered inline so
        they never queue behind a long solve."""
        while True:
            try:
                msg = recv_frame(self.conn)
            except (EOFError, OSError):
                # Supervisor is gone: finish nothing, exit cleanly.
                self._jobs.put(None)
                return
            except ValueError:
                continue  # unparseable frame: drop, keep serving
            kind = msg.get("kind")
            if kind in ("solve", "stream"):
                # Both run on the main thread's serial lane — stream
                # events of a pinned tenant stay in arrival order.
                self._jobs.put(msg)
            elif kind == "cancel":
                with self._cancel_lock:
                    self._cancelled.add(str(msg.get("id")))
                self.metrics.counter("cancellations").inc()
            elif kind == "ping":
                self._reply(
                    {
                        "kind": "pong",
                        "id": msg.get("id"),
                        "pid": os.getpid(),
                        "solves": self.metrics.counter("solves_total").value,
                    }
                )
            elif kind == "stats":
                self._reply(
                    {"kind": "stats", "id": msg.get("id"), "stats": self.stats()}
                )
            elif kind == "shutdown":
                self._jobs.put(None)
                return

    # -- stats -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """This worker's metrics snapshot (cache, store, journal, DP
        cache, trace phases) — merged pool-wide by the supervisor."""
        self.path.record_stats()
        self.metrics.gauge("worker_pid").set(float(os.getpid()))
        return self.metrics.snapshot()

    # -- solve path ------------------------------------------------------
    def _check_hook(self, request_id: str, deadline_at: float | None):
        def check() -> None:
            if self._is_cancelled(request_id):
                raise DeadlineExceeded(f"request {request_id} cancelled")
            if deadline_at is not None and self._clock() > deadline_at:
                raise DeadlineExceeded(f"deadline passed at t={deadline_at:.6f}")

        return check

    def _solve(self, msg: dict[str, Any]) -> None:
        rid = str(msg.get("id"))
        if self._is_cancelled(rid):
            # The supervisor already answered the client (deadline or
            # crash-degrade); solving now would be pure waste.
            with self._cancel_lock:
                self._cancelled.discard(rid)
            return
        try:
            request = SolveRequest.from_dict(msg["request"])
            spec = get_engine(request.engine, problem=request.problem)
        except (KeyError, ValueError, TypeError, UnknownEngineError) as exc:
            self.metrics.counter("errors_total").inc()
            self._reply(
                {
                    "kind": "result",
                    "id": rid,
                    "result": SolveResult(
                        request_id=str(msg.get("request", {}).get("request_id", "")),
                        status=STATUS_ERROR,
                        error=str(exc),
                    ).to_dict(),
                }
            )
            return

        t0 = self._clock()
        self.metrics.counter(f"requests.problem.{request.problem}").inc()
        # The supervisor validated the instance before routing here, so
        # only the canonical form is prepared; the solve path builds the
        # instance (and reports a bad one as a solve error).
        prepared = PreparedRequest(request)
        result = self.path.lookup(prepared)
        if result is not None:
            self.metrics.counter("cache_hits").inc()
        else:
            deadline = msg.get("deadline")
            deadline_at = None if deadline is None else t0 + float(deadline)
            result = self.path.solve(
                prepared, spec, self._check_hook(rid, deadline_at)
            )
            if result.degraded:
                self.metrics.counter("degradations_total").inc()
            self.metrics.counter("solves_total").inc()
            self.metrics.histogram("solve_seconds").observe(self._clock() - t0)
        with self._cancel_lock:
            self._cancelled.discard(rid)
        self._reply({"kind": "result", "id": rid, "result": result.to_dict()})

    def _stream(self, msg: dict[str, Any]) -> None:
        """Apply one live-schedule event on the serial lane."""
        rid = str(msg.get("id"))
        self.metrics.counter("stream_events_total").inc()
        try:
            request = StreamRequest.from_dict(msg["request"])
        except (KeyError, ValueError, TypeError) as exc:
            self.metrics.counter("errors_total").inc()
            result = StreamResult(status=STATUS_ERROR, error=str(exc))
        else:
            try:
                result = self.path.sessions.apply(request)
            except Exception as exc:  # noqa: BLE001 — the worker must
                # survive any event (apply itself contains per-event
                # failures; this is the last line of defense).
                result = StreamResult(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    action=request.action,
                    status=STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if not result.ok:
                self.metrics.counter("stream_errors").inc()
        self._reply(
            {"kind": "stream_result", "id": rid, "result": result.to_dict()}
        )

    # -- lifecycle -------------------------------------------------------
    def run(self) -> None:
        reader = threading.Thread(
            target=self._read_loop, name=f"pool-w{self.worker_id}-reader", daemon=True
        )
        reader.start()
        self._reply(
            {"kind": "ready", "worker": self.worker_id, "pid": os.getpid()}
        )
        try:
            while True:
                msg = self._jobs.get()
                if msg is None:
                    break
                if msg.get("kind") == "stream":
                    self._stream(msg)
                else:
                    self._solve(msg)
        finally:
            self.path.close()
            try:
                self.conn.close()
            except OSError:
                pass


def worker_main(conn, worker_id: int, config: dict[str, Any]) -> None:
    """Process entry point (the ``target`` of the supervisor's spawn).

    SIGINT is ignored — a Ctrl-C at the terminal hits the whole process
    group, and shutdown must flow through the supervisor (a ``shutdown``
    frame or pipe EOF) so the journal and store close cleanly.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread / exotic
        pass
    _Worker(conn, worker_id, config).run()

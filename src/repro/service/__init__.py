"""repro.service — a long-lived scheduling service over the solver library.

The subsystem turns the one-shot solvers into an asyncio service:

* :mod:`repro.service.requests` — the wire types (:class:`SolveRequest`,
  :class:`SolveResult`) with JSON (de)serialization and deadline helpers.
* :mod:`repro.service.registry` — one source of truth mapping engine
  names to solver callables with declared capabilities; shared by the
  CLI and the server.
* :mod:`repro.service.cache` — canonical-form result cache (permutation
  invariant, LRU + TTL, hit/miss counters).
* :mod:`repro.service.admission` — bounded queue and load shedding
  driven by a :mod:`repro.simcore.costmodel` work estimate.
* :mod:`repro.service.metrics` — counters / gauges / histograms plus the
  DP configuration-cache statistics.
* :mod:`repro.service.server` — the asyncio JSON-lines front end: one
  :class:`SolveService` (validation, single-flight, admission, deadline
  arithmetic, metrics) over an execution lane.  Its default lane,
  :class:`ThreadLane`, dispatches on a free executor slot (batching only
  what queued while every slot was busy).
* :mod:`repro.service.supervisor` / :mod:`repro.service.worker` — the
  other lane, :class:`SupervisorPool` (``repro-pcmax serve
  --pool-workers N``): N worker processes, crash-respawned, each owning
  one shard of the key space — see ``docs/scaling.md``.
* :mod:`repro.service.solvepath` — the one per-request solve path both
  lanes run: cache → journal → traced solve (LPT fallback on a
  deadline, an error result on an engine failure) → cache put → trace
  archive → commit.
* :mod:`repro.service.sharding` — canonical-key shard routing for the
  process lane.

Durability is layered underneath by :mod:`repro.store` (opt-in via
``repro-pcmax serve --store DIR``): the cache gains a disk tier, every
admitted request is write-ahead journaled, and a crashed server replays
its unanswered work on restart — see ``docs/persistence.md``.

See ``docs/service.md`` for the architecture and protocol reference.
"""

import importlib
from typing import TYPE_CHECKING, Any

#: Exported name -> the submodule that defines it.  Exports load on first
#: access (PEP 562), so ``repro.solve`` pulls in only ``registry`` and
#: ``requests``, not the asyncio server and the process pool.
_EXPORTS: dict[str, str] = {
    "AdmissionController": "admission",
    "AdmissionDecision": "admission",
    "ResultCache": "cache",
    "canonical_key": "cache",
    "canonicalize_result": "cache",
    "localize_result": "cache",
    "MetricsRegistry": "metrics",
    "dp_cache_stats": "metrics",
    "EngineSpec": "registry",
    "UnknownEngineError": "registry",
    "UnsupportedProblemError": "registry",
    "available_engines": "registry",
    "engine_problem_pairs": "registry",
    "fallback_result": "registry",
    "get_engine": "registry",
    "PROTOCOL_VERSION": "requests",
    "SUPPORTED_PROTOCOLS": "requests",
    "DeadlineExceeded": "requests",
    "SolveRequest": "requests",
    "SolveResult": "requests",
    "StreamRequest": "requests",
    "StreamResult": "requests",
    "SolveService": "server",
    "ThreadLane": "server",
    "serve": "server",
    "stream_events": "server",
    "submit": "server",
    "shard_index": "sharding",
    "shard_key": "sharding",
    "shard_of_request": "sharding",
    "tenant_shard": "sharding",
    "SupervisorPool": "supervisor",
    "SolvePath": "solvepath",
}

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.admission import AdmissionController, AdmissionDecision
    from repro.service.cache import (
        ResultCache,
        canonical_key,
        canonicalize_result,
        localize_result,
    )
    from repro.service.metrics import MetricsRegistry, dp_cache_stats
    from repro.service.registry import (
        EngineSpec,
        UnknownEngineError,
        UnsupportedProblemError,
        available_engines,
        engine_problem_pairs,
        fallback_result,
        get_engine,
    )
    from repro.service.requests import (
        PROTOCOL_VERSION,
        SUPPORTED_PROTOCOLS,
        DeadlineExceeded,
        SolveRequest,
        SolveResult,
        StreamRequest,
        StreamResult,
    )
    from repro.service.server import (
        SolveService,
        ThreadLane,
        serve,
        stream_events,
        submit,
    )
    from repro.service.sharding import (
        shard_index,
        shard_key,
        shard_of_request,
        tenant_shard,
    )
    from repro.service.solvepath import SolvePath
    from repro.service.supervisor import SupervisorPool


def __getattr__(name: str) -> Any:
    """Import the submodule that defines *name* on first access."""
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ResultCache",
    "canonical_key",
    "canonicalize_result",
    "localize_result",
    "MetricsRegistry",
    "dp_cache_stats",
    "EngineSpec",
    "UnknownEngineError",
    "UnsupportedProblemError",
    "available_engines",
    "engine_problem_pairs",
    "fallback_result",
    "get_engine",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOLS",
    "DeadlineExceeded",
    "SolveRequest",
    "SolveResult",
    "StreamRequest",
    "StreamResult",
    "SolveService",
    "ThreadLane",
    "serve",
    "stream_events",
    "submit",
    "shard_index",
    "shard_key",
    "shard_of_request",
    "tenant_shard",
    "SupervisorPool",
    "SolvePath",
]

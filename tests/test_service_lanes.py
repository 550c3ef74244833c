"""Lane parity: one request battery through both execution lanes of the
one :class:`~repro.service.server.SolveService` front end.

The thread lane and the process lane run the same per-request
:class:`~repro.service.solvepath.SolvePath`, so every answer the front
end returns — fresh solve, permuted-twin hit, invalid request, deadline
degrade, engine failure, live-schedule events — must agree between
them.  Slow-marked: the process lane spawns a worker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.requests import SolveRequest, StreamRequest
from repro.service.server import SolveService, ThreadLane
from repro.service.supervisor import SupervisorPool

TIMES = (9, 3, 7, 3, 8, 1, 6, 5, 2, 4, 11, 6)

BATTERY = [
    ("fresh", SolveRequest(times=TIMES, machines=3, engine="ptas", eps=0.2)),
    (
        "permuted twin",
        SolveRequest(times=tuple(reversed(TIMES)), machines=3, engine="ptas", eps=0.2),
    ),
    ("unknown engine", SolveRequest(times=TIMES, machines=3, engine="no-such")),
    (
        "unsupported problem",
        SolveRequest(
            times=TIMES, machines=2, problem="q_cmax", speeds=(2, 1), engine="ptas"
        ),
    ),
    (
        "deadline degrade",
        SolveRequest(
            times=tuple(range(1, 81)), machines=5, engine="ptas", eps=0.3, deadline=0.0
        ),
    ),
    ("engine error", SolveRequest(times=tuple(range(1, 30)), machines=3, engine="brute")),
]

STREAM = [
    StreamRequest(action="open_session", tenant="t", machines=2, persist=False),
    StreamRequest(action="add_jobs", tenant="t", jobs=(("a", 5), ("b", 3), ("c", 4))),
    StreamRequest(action="snapshot", tenant="t", persist=False),
]

FIELDS = ("status", "makespan", "guarantee", "degraded", "cached")


def _battery(lane) -> tuple[dict[str, tuple], list[tuple]]:
    async def scenario():
        svc = SolveService(lane)
        try:
            solves = {}
            for name, request in BATTERY:
                result = await svc.handle(request)
                solves[name] = tuple(getattr(result, f) for f in FIELDS)
            events = [await svc.handle_stream(event) for event in STREAM]
        finally:
            await svc.aclose()
        return solves, [(e.status, e.makespan, e.num_jobs) for e in events]

    return asyncio.run(scenario())


@pytest.mark.slow
def test_thread_and_process_lanes_answer_alike():
    thread = _battery(ThreadLane(max_workers=1))
    process = _battery(SupervisorPool(1, spawn_grace=120))
    assert thread == process
    solves, events = thread
    assert solves["fresh"][0] == "ok" and not solves["fresh"][4]
    assert solves["permuted twin"] == (*solves["fresh"][:4], True)
    for name in ("unknown engine", "unsupported problem", "engine error"):
        assert solves[name][0] == "error", name
    assert solves["deadline degrade"][0] == "ok" and solves["deadline degrade"][3]
    assert events == [("ok", 0, 0), ("ok", 7, 3), ("ok", 7, 3)]


@pytest.mark.slow
def test_pool_answers_an_expired_deadline_without_shipping_it():
    """A request whose deadline passed before dispatch degrades in the
    supervisor, as on the thread lane: no worker solves it, so no late
    result comes back to be dropped."""
    expired = dict(BATTERY)["deadline degrade"]

    async def scenario():
        svc = SolveService(SupervisorPool(1, spawn_grace=120))
        try:
            result = await svc.handle(expired)
            await asyncio.sleep(0.5)  # room for a worker reply to land
            return result, (await svc.stats())["counters"]
        finally:
            await svc.aclose()

    result, counters = asyncio.run(scenario())
    assert result.status == "ok" and result.degraded
    assert counters.get("pool.solves_total", 0) == 0
    assert counters.get("pool.late_results_dropped", 0) == 0
    assert counters["pool.deadline_degradations"] == 1

"""Import footprints: serving the wire-default requests must not load
numpy, scipy or the online layer, and :func:`repro.solve` must not load
the service.

``python -m repro serve`` imports :mod:`repro.cli` and
:mod:`repro.service.server`; the PTAS with the wire-default
``dominance`` DP and both LPTs are pure Python, so numpy (about 12 MB
resident) and scipy stay out of the server until a request needs them.
Both lanes build their live-schedule sessions (``SolvePath.sessions``)
on the first ``op=stream`` event, so :mod:`repro.online` loads only then.
:mod:`repro.service` exports lazily, so a library solve loads only the
registry and the wire types, not the asyncio server, the process pool
or the online layer.  Each check runs in a fresh interpreter, because
the test process itself has long since imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.service.registry import solve_to_result
from repro.service.requests import SolveRequest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import asyncio, json, sys

import repro.cli
import repro.service.server
import repro.service.supervisor
from repro.service.requests import SolveRequest, StreamRequest
from repro.service.server import SolveService, ThreadLane

def loaded():
    return {name: name in sys.modules for name in ("numpy", "scipy")}

def online():
    return "repro.online" in sys.modules

async def main():
    seen = {"import": loaded()}
    svc = SolveService(ThreadLane(max_workers=1))
    try:
        for engine in ("ptas", "lpt"):
            res = await svc.handle(
                SolveRequest(times=(9, 8, 7, 6, 5, 5, 4, 3, 2, 1), machines=3, engine=engine)
            )
            assert res.ok and not res.degraded, res
        await svc.stats()
        seen["served"] = loaded()
        seen["online_served"] = online()
        stream = [
            StreamRequest(action="open_session", tenant="t", machines=2, persist=False),
            StreamRequest(action="add_jobs", tenant="t", jobs=(("a", 5), ("b", 3), ("c", 4))),
            StreamRequest(action="snapshot", tenant="t", persist=False),
        ]
        events = [await svc.handle_stream(event) for event in stream]
        assert all(event.ok for event in events), events
        seen["stream"] = [events[-1].num_jobs, events[-1].makespan, online()]
        res = await svc.handle(
            SolveRequest(times=(7, 7, 6, 6, 5, 4, 4, 3), machines=3, engine="ptas", dp_engine="numpy")
        )
        assert res.ok and not res.degraded, res
        seen["numpy_engine"] = loaded()
        seen["numpy_makespan"] = res.makespan
    finally:
        await svc.aclose()
    print(json.dumps(seen))

asyncio.run(main())
"""

LIBRARY_SCRIPT = """
import json, sys

import repro

SERVICE_SIDE = ("asyncio", "repro.service.server", "repro.service.supervisor", "repro.online")

result = repro.solve(repro.Instance((9, 8, 7, 6, 5, 5, 4, 3, 2, 1), 3), "ptas")
seen = {"makespan": result.makespan, "solved": [m for m in SERVICE_SIDE if m in sys.modules]}
from repro.service import SolveService, SupervisorPool
seen["exports"] = [SolveService.__module__, SupervisorPool.__module__]
print(json.dumps(seen))
"""


WORKER_SCRIPT = """
import json, sys

from repro.service.worker import _Worker

worker = _Worker(None, 0, {})
worker.stats()
seen = {"online_stats": "repro.online" in sys.modules}
seen["sessions"] = worker.path.sessions.num_sessions
seen["online_sessions"] = "repro.online" in sys.modules
print(json.dumps(seen))
"""


def _run_fresh(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_service_serves_default_requests_without_numpy():
    seen = _run_fresh(SCRIPT)
    assert seen["import"] == {"numpy": False, "scipy": False}
    assert seen["served"] == {"numpy": False, "scipy": False}
    assert seen["online_served"] is False
    # The first stream event loads the online layer, and the session works.
    assert seen["stream"] == [3, 7, True]
    # The numpy DP engine still solves, importing numpy on first use.
    assert seen["numpy_engine"] == {"numpy": True, "scipy": False}
    request = SolveRequest(
        times=(7, 7, 6, 6, 5, 4, 4, 3), machines=3, engine="ptas", dp_engine="numpy"
    )
    assert seen["numpy_makespan"] == solve_to_result(request).makespan


def test_library_solve_does_not_load_the_service():
    seen = _run_fresh(LIBRARY_SCRIPT)
    assert seen["solved"] == []
    assert seen["makespan"] == solve_to_result(
        SolveRequest(times=(9, 8, 7, 6, 5, 5, 4, 3, 2, 1), machines=3, dp_engine="numpy")
    ).makespan
    # The lazy exports still resolve on first access.
    assert seen["exports"] == ["repro.service.server", "repro.service.supervisor"]


def test_pool_worker_builds_sessions_on_first_use():
    seen = _run_fresh(WORKER_SCRIPT)
    assert seen == {"online_stats": False, "sessions": 0, "online_sessions": True}

"""Tests for the asyncio scheduling service (:mod:`repro.service.server`).

The unit tests drive :meth:`SolveService.handle` in-process; the
end-to-end test boots the JSON-lines TCP server and pushes 50+
concurrent mixed requests through real sockets — the acceptance
criterion of the subsystem.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading

import pytest

from repro.model.instance import Instance
from repro.model.verify import verify_schedule
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.solvepath import SolvePath
from repro.service.requests import SolveRequest, SolveResult
from repro.service.server import (
    SolveService,
    ThreadLane,
    send_op,
    start_server,
    submit,
)


def run(coro):
    return asyncio.run(coro)


async def _closed(service: SolveService, server=None):
    if server is not None:
        server.close()
        await server.wait_closed()
    await service.aclose()


def _req(times, machines=3, engine="lpt", **kwargs) -> SolveRequest:
    return SolveRequest(times=tuple(times), machines=machines, engine=engine, **kwargs)


class TestPreparedOnce:
    """A request is validated into its instance and put into canonical
    form once: the cache, single-flight and the solve reuse both."""

    def test_miss_builds_one_instance_and_sorts_once_and_hit_sorts_once(
        self, monkeypatch
    ):
        import repro.service.cache as cache_module

        times = (9, 3, 7, 3, 8, 1, 6, 5, 2, 4)
        permuted = (3, 9, 1, 7, 8, 3, 2, 6, 4, 5)
        built: list[tuple[int, ...]] = []
        sorts: list[object] = []
        real_init = Instance.__init__

        def counting_init(self, processing_times, num_machines):
            real_init(self, processing_times, num_machines)
            built.append(self.processing_times)

        def counting_sorted(iterable, *args, **kwargs):
            # The times themselves, or the job indices ordered by them.
            if iterable in (times, permuted, range(len(times))):
                sorts.append(iterable)
            return sorted(iterable, *args, **kwargs)

        monkeypatch.setattr(Instance, "__init__", counting_init)
        monkeypatch.setattr(cache_module, "sorted", counting_sorted, raising=False)

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=1))
            try:
                miss = await svc.handle(_req(times, engine="ptas"))
                counts = (built.count(times), len(sorts))
                hit = await svc.handle(_req(permuted, engine="ptas"))
            finally:
                await _closed(svc)
            return miss, counts, hit

        miss, (miss_instances, miss_sorts), hit = run(scenario())
        assert miss.ok and not miss.cached
        assert (miss_instances, miss_sorts) == (1, 1)
        assert hit.ok and hit.cached
        assert len(sorts) - miss_sorts == 1
        assert built.count(permuted) == 1  # validation only; nothing solved


class TestHandle:
    def test_solves_and_reports_guarantee(self):
        async def scenario():
            svc = SolveService(ThreadLane(max_workers=2))
            try:
                res = await svc.handle(
                    _req([7, 7, 6, 6, 5, 4, 4, 3], engine="ptas", request_id="x")
                )
            finally:
                await _closed(svc)
            return res

        res = run(scenario())
        assert res.ok and not res.degraded
        assert res.request_id == "x"
        assert res.guarantee == pytest.approx(1.3)
        inst = Instance((7, 7, 6, 6, 5, 4, 4, 3), 3)
        assert verify_schedule(res.schedule(inst), inst).ok

    def test_unknown_engine_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(_req([1, 2, 3], engine="nope"))
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"
        assert "unknown engine" in res.error

    def test_invalid_instance_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    SolveRequest(times=(), machines=2, engine="lpt")
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"

    def test_repeat_request_served_from_cache(self):
        async def scenario():
            svc = SolveService()
            try:
                first = await svc.handle(_req([5, 4, 3, 2, 1], engine="ptas"))
                second = await svc.handle(_req([5, 4, 3, 2, 1], engine="ptas"))
                permuted = await svc.handle(_req([1, 2, 3, 4, 5], engine="ptas"))
            finally:
                await _closed(svc)
            return first, second, permuted, svc.lane.path.cache.stats()

        first, second, permuted, stats = run(scenario())
        assert not first.cached and second.cached and permuted.cached
        assert first.makespan == second.makespan == permuted.makespan
        assert stats["hits"] == 2

    def test_q_cmax_request_end_to_end(self):
        async def scenario():
            svc = SolveService()
            try:
                res = await svc.handle(
                    SolveRequest(
                        times=(37, 21, 18, 95, 42, 7),
                        machines=3,
                        problem="q_cmax",
                        speeds=(4, 2, 1),
                        engine="lpt",
                        request_id="q1",
                    )
                )
                counted = svc.metrics.counter("requests.problem.q_cmax").value
            finally:
                await _closed(svc)
            return res, counted

        res, counted = run(scenario())
        assert res.ok and not res.degraded
        assert counted == 1
        from repro.model.qinstance import QInstance

        inst = QInstance((37, 21, 18, 95, 42, 7), speeds=(4, 2, 1))
        sched = res.schedule(inst)
        assert verify_schedule(sched, inst).ok
        assert res.makespan == sched.makespan
        assert res.makespan <= res.guarantee * inst.trivial_lower_bound() + 1e-9

    def test_q_unsupported_engine_pair_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    SolveRequest(
                        times=(5, 4),
                        machines=2,
                        problem="q_cmax",
                        speeds=(2, 1),
                        engine="ptas",
                    )
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"
        assert "does not support problem 'q_cmax'" in res.error
        assert "lpt" in res.error

    def test_deadline_degrades_to_lpt(self):
        async def scenario():
            # batch_max_jobs above the instance size: the request rides
            # the slot dispatcher, not the direct heavy-solve path.
            svc = SolveService(ThreadLane(batch_max_jobs=128))
            try:
                res = await svc.handle(
                    _req(
                        range(1, 120),
                        machines=5,
                        engine="ptas",
                        eps=0.05,
                        deadline=0.0,
                    )
                )
            finally:
                await _closed(svc)
            return res, svc.metrics.counter("batches_total").value

        res, batches = run(scenario())
        assert batches == 1
        assert res.ok and res.degraded
        assert res.engine == "lpt"
        m = 5
        assert res.guarantee == pytest.approx(4 / 3 - 1 / (3 * m))
        inst = Instance(tuple(range(1, 120)), m)
        assert verify_schedule(res.schedule(inst), inst).ok

    def test_degraded_results_are_not_cached(self):
        async def scenario():
            svc = SolveService(ThreadLane(batch_max_jobs=128))
            try:
                first = await svc.handle(
                    _req(range(1, 80), engine="ptas", eps=0.1, deadline=0.0)
                )
                res = await svc.handle(_req(range(1, 80), engine="ptas", eps=0.1))
            finally:
                await _closed(svc)
            return first, res, svc.metrics.counter("batches_total").value

        first, res, batches = run(scenario())
        assert batches == 2
        assert first.degraded
        assert not res.cached and not res.degraded

    def test_non_cancellable_engine_degrades_from_event_loop(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    _req([9, 8, 7, 6, 5, 4], engine="bnb", deadline=0.0)
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.ok and res.degraded and res.engine == "lpt"

    def test_load_shedding_reports_retry_after(self):
        async def scenario():
            gate = AdmissionController(max_queue_depth=1)
            # Occupy the only slot so the real request is shed.
            gate.try_admit(_req([1, 2, 3]))
            svc = SolveService(admission=gate)
            try:
                return await svc.handle(_req([4, 5, 6]))
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "rejected"
        assert res.retry_after > 0
        assert "queue full" in res.error

    def test_batching_groups_compatible_small_requests(self):
        async def scenario():
            svc = SolveService(ThreadLane(max_workers=2, batch_max_size=8))
            try:
                reqs = [
                    _req([i + 1, 2 * i + 1, 5, 7], engine="lpt", request_id=str(i))
                    for i in range(6)
                ]
                results = await asyncio.gather(*(svc.handle(r) for r in reqs))
            finally:
                await _closed(svc)
            return results, svc.metrics.snapshot()

        results, snap = run(scenario())
        assert all(r.ok for r in results)
        assert {r.request_id for r in results} == {str(i) for i in range(6)}
        assert snap["counters"]["batches_total"] >= 1
        assert snap["histograms"]["batch_size"]["max"] >= 2

    def test_isolated_requests_ship_without_waiting(self):
        """With a worker idle, a request is dispatched in the same
        event-loop turn: sequential requests each ship alone and never
        wait for company."""

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=2))
            try:
                for i in range(50):
                    res = await svc.handle(_req([i + 1, 9, 4, 7, 2], request_id=str(i)))
                    assert res.ok and not res.cached
            finally:
                await _closed(svc)
            return svc.metrics.snapshot()

        snap = run(scenario())
        sizes = snap["histograms"]["batch_size"]
        assert snap["counters"]["batches_total"] == 50
        assert sizes["count"] == 50 and sizes["max"] == 1
        assert snap["histograms"]["queue_wait_seconds"]["max"] < 2.5e-3

    def _gated(self, svc: SolveService, request_id: str) -> threading.Event:
        """Make the solve of *request_id* hold its worker until the
        returned event is set."""
        release = threading.Event()
        path = svc.lane.path
        solve = path.solve

        def gated(prepared, spec, check_deadline=None):
            if prepared.request.request_id == request_id:
                release.wait(30)
            return solve(prepared, spec, check_deadline)

        path.solve = gated
        return release

    def test_requests_queued_behind_a_busy_slot_ship_as_one_batch(self):
        slow = _req(range(1, 41), machines=4, engine="ptas", eps=0.3, request_id="slow")
        small = [
            _req([i + 3, 2 * i + 1, 5, 7, 4], request_id=f"s{i}") for i in range(6)
        ]

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=1, batch_max_jobs=16))
            release = self._gated(svc, "slow")
            try:
                tasks = [
                    asyncio.create_task(svc.handle(r)) for r in [slow, *small]
                ]
                await asyncio.sleep(0.05)
                queued_while_busy = not any(t.done() for t in tasks)
                release.set()
                results = await asyncio.gather(*tasks)
            finally:
                release.set()
                await _closed(svc)
            return queued_while_busy, results, svc.metrics.snapshot()

        queued_while_busy, results, snap = run(scenario())
        assert queued_while_busy
        for request, result in zip([slow, *small], results):
            assert result.ok and result.request_id == request.request_id
            inst = request.instance()
            assert verify_schedule(result.schedule(inst), inst).ok
        # The 40-job solve is dispatched directly; the six small ones
        # queued behind it and ship together when its slot frees.
        assert snap["counters"]["batches_total"] == 1
        assert snap["histograms"]["batch_size"]["max"] == 6

    def test_queued_batches_group_by_engine_and_eps(self):
        slow = _req(range(1, 41), machines=4, engine="ptas", eps=0.3, request_id="slow")
        queued = [
            _req([i + 2, 6, 5, 3], engine=engine, eps=eps, request_id=f"q{i}")
            for i, (engine, eps) in enumerate(
                [("lpt", 0.3), ("ptas", 0.3), ("lpt", 0.3), ("ptas", 0.2), ("ptas", 0.3)]
            )
        ]

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=1, batch_max_jobs=16))
            release = self._gated(svc, "slow")
            try:
                tasks = [
                    asyncio.create_task(svc.handle(r)) for r in [slow, *queued]
                ]
                await asyncio.sleep(0.05)
                release.set()
                results = await asyncio.gather(*tasks)
            finally:
                release.set()
                await _closed(svc)
            return results, svc.metrics.histogram("batch_size")

        results, sizes = run(scenario())
        assert all(r.ok for r in results)
        # One dispatch per compatibility group, oldest group first:
        # lpt (2 requests), ptas at 0.3 (2), ptas at 0.2 (1).
        assert sizes.count == 3
        assert sizes.total == 5 and sizes.max == 2

    def test_deadline_request_queued_behind_busy_slot_degrades(self):
        slow = _req(range(1, 41), machines=4, engine="ptas", eps=0.3, request_id="slow")
        late = _req(range(1, 30), machines=4, engine="ptas", eps=0.1, deadline=0.0)

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=1, batch_max_jobs=32))
            release = self._gated(svc, "slow")
            try:
                tasks = [asyncio.create_task(svc.handle(r)) for r in (slow, late)]
                await asyncio.sleep(0.05)
                release.set()
                return await asyncio.gather(*tasks)
            finally:
                release.set()
                await _closed(svc)

        first, degraded = run(scenario())
        assert first.ok and not first.degraded
        assert degraded.ok and degraded.degraded and degraded.engine == "lpt"
        inst = late.instance()
        assert verify_schedule(degraded.schedule(inst), inst).ok

    def test_stats_exposes_every_subsystem(self):
        async def scenario():
            svc = SolveService()
            try:
                await svc.handle(_req([3, 1, 2], engine="ptas"))
                return await svc.stats()
            finally:
                await _closed(svc)

        snap = run(scenario())
        assert snap["counters"]["requests_total"] == 1
        assert "result_cache.hits" in snap["gauges"]
        assert "admission.queue_depth" in snap["gauges"]
        assert "dp_config_cache.hits" in snap["gauges"]
        assert "pool_utilization" in snap["gauges"]
        assert "request_latency_seconds" in snap["histograms"]

    def test_stats_exposes_trace_phase_summary(self):
        """Every solve runs under a per-request tracer whose per-phase
        breakdown lands in the metrics snapshot (``op=stats``)."""

        async def scenario():
            svc = SolveService()
            try:
                await svc.handle(_req([7, 7, 6, 6, 5, 4, 4, 3], engine="ptas"))
                return await svc.stats()
            finally:
                await _closed(svc)

        snap = run(scenario())
        assert snap["counters"]["trace.spans.solve"] == 1
        assert snap["counters"]["trace.spans.probe"] >= 1
        assert snap["counters"]["trace.counters.probes"] >= 1
        assert snap["histograms"]["trace.phase.dp.seconds"]["count"] >= 1


#: Past the brute-force engine's 18-job guard: its solve raises.
BRUTE_29 = tuple(range(1, 30))


class TestFailureEnvelope:
    """An engine that raises answers ``status="error"`` (and aborts its
    journal entry) instead of leaving the client without a reply."""

    def test_engine_error_is_answered_over_tcp(self):
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await submit(
                    "127.0.0.1",
                    port,
                    _req(BRUTE_29, engine="brute", request_id="b29"),
                    timeout=10.0,
                )
            finally:
                await _closed(svc, server)

        res = run(scenario())
        assert res.status == "error" and res.request_id == "b29"
        assert "brute force limited to 18 jobs" in res.error

    def test_engine_error_aborts_its_journal_entry(self, tmp_path):
        from repro.store import ResultStore, WriteAheadJournal

        journal = WriteAheadJournal(tmp_path)

        async def scenario():
            path = SolvePath(store=ResultStore(tmp_path), journal=journal)
            svc = SolveService(ThreadLane(path))
            try:
                res = await svc.handle(_req(BRUTE_29, engine="brute"))
                return res, journal.uncommitted(), journal.stats()
            finally:
                await _closed(svc)

        res, uncommitted, stats = run(scenario())
        assert res.status == "error"
        assert uncommitted == []
        assert stats["aborts"] == 1 and stats["commits"] == 0
        assert WriteAheadJournal(tmp_path).uncommitted() == []

    def test_raising_job_does_not_fail_its_batch_mates(self, monkeypatch):
        import dataclasses

        from repro.service import registry

        spec = registry._REGISTRY["lpt"]

        def solve(instance, request, ctx):
            if request.request_id == "bad":
                raise RuntimeError("engine blew up")
            return spec.solve(instance, request, ctx)

        monkeypatch.setitem(
            registry._REGISTRY, "lpt", dataclasses.replace(spec, solve=solve)
        )
        slow = _req(range(1, 41), machines=4, engine="ptas", eps=0.3, request_id="slow")
        small = [
            _req([i + 3, 2 * i + 1, 5, 7], request_id="bad" if i == 2 else f"s{i}")
            for i in range(5)
        ]

        async def scenario():
            svc = SolveService(ThreadLane(max_workers=1, batch_max_jobs=16))
            release = self._gated(svc, "slow")
            try:
                tasks = [asyncio.create_task(svc.handle(r)) for r in [slow, *small]]
                await asyncio.sleep(0.05)
                release.set()
                results = await asyncio.gather(*tasks)
            finally:
                release.set()
                await _closed(svc)
            return results, svc.metrics.histogram("batch_size")

        results, sizes = run(scenario())
        # The five small requests queued behind the slow one and shipped
        # as one batch; only the raising job reports an error.
        assert sizes.count == 1 and sizes.max == 5
        for request, result in zip([slow, *small], results):
            assert result.request_id == request.request_id
            if request.request_id == "bad":
                assert result.status == "error"
                assert "RuntimeError: engine blew up" in result.error
            else:
                assert result.ok
                inst = request.instance()
                assert verify_schedule(result.schedule(inst), inst).ok

    _gated = TestHandle._gated


class TestProtocol:
    def test_ping_stats_malformed_and_shutdown(self):
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pong = await send_op("127.0.0.1", port, "ping")
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"{broken\n")
            await writer.drain()
            broken = SolveResult.from_json((await reader.readline()).decode())
            writer.write(json.dumps({"op": "wat"}).encode() + b"\n")
            await writer.drain()
            unknown_op = SolveResult.from_json((await reader.readline()).decode())
            writer.write(json.dumps({"times": [1], "machines": 0}).encode() + b"\n")
            await writer.drain()
            bad_req = SolveResult.from_json((await reader.readline()).decode())
            writer.close()
            await writer.wait_closed()
            stats = await send_op("127.0.0.1", port, "stats")
            bye = await send_op("127.0.0.1", port, "shutdown")
            await _closed(svc, server)
            return pong, broken, unknown_op, bad_req, stats, bye, svc

        pong, broken, unknown_op, bad_req, stats, bye, svc = run(scenario())
        assert pong == {"op": "pong"}
        assert broken.status == "error" and "malformed" in broken.error
        assert unknown_op.status == "error" and "unknown op" in unknown_op.error
        assert bad_req.status == "error"
        assert stats["op"] == "stats" and "counters" in stats["stats"]
        assert bye == {"op": "bye"}
        assert svc._shutdown_event.is_set()


class TestEndToEnd:
    """The subsystem acceptance run: ≥50 concurrent requests, mixed
    engines and deadlines, over real sockets."""

    def test_fifty_concurrent_mixed_requests(self):
        rng = random.Random(1234)
        requests: list[SolveRequest] = []

        # 1) PTAS traffic over a handful of base instances, resubmitted
        #    shuffled — the permuted repeats must hit the cache.
        bases = [
            tuple(rng.randint(1, 40) for _ in range(rng.randint(8, 14)))
            for _ in range(5)
        ]
        for i in range(15):
            times = list(bases[i % len(bases)])
            rng.shuffle(times)
            requests.append(
                _req(times, machines=3, engine="ptas", request_id=f"ptas-{i}")
            )
        # 2) Parallel PTAS on both pooled and serial wavefront backends.
        for i in range(8):
            times = [rng.randint(1, 30) for _ in range(10)]
            requests.append(
                _req(
                    times,
                    machines=3,
                    engine="parallel-ptas",
                    backend="thread" if i % 2 else "serial",
                    workers=2,
                    request_id=f"par-{i}",
                )
            )
        # 3) Cheap baseline traffic (rides the micro-batcher).
        for i, engine in enumerate(
            ["lpt"] * 10 + ["ls"] * 6 + ["multifit"] * 6
        ):
            times = [rng.randint(1, 50) for _ in range(rng.randint(5, 20))]
            requests.append(
                _req(times, machines=4, engine=engine, request_id=f"{engine}-{i}")
            )
        # 4) A little exact traffic (dispatched unbatched).
        for i in range(3):
            times = [rng.randint(1, 9) for _ in range(7)]
            requests.append(
                _req(times, machines=2, engine="bnb", request_id=f"bnb-{i}")
            )
        # 5) Deadline-bound heavy PTAS solves that must degrade to LPT
        #    rather than time the client out.
        for i in range(3):
            times = [rng.randint(1, 400) for _ in range(150)]
            requests.append(
                _req(
                    times,
                    machines=6,
                    engine="ptas",
                    eps=0.04,
                    deadline=0.0 if i == 0 else 1e-4,
                    request_id=f"deadline-{i}",
                )
            )
        assert len(requests) >= 50

        async def scenario():
            svc = SolveService(
                ThreadLane(SolvePath(cache=ResultCache(max_entries=256)), max_workers=4),
                admission=AdmissionController(
                    max_queue_depth=len(requests) + 8, max_inflight_ops=1e18
                ),
            )
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = await asyncio.gather(
                *(submit("127.0.0.1", port, r, timeout=120.0) for r in requests)
            )
            stats = await send_op("127.0.0.1", port, "stats")
            await _closed(svc, server)
            return results, stats

        results, stats = run(scenario())

        by_id = {r.request_id: r for r in results}
        assert len(by_id) == len(requests)
        for request in requests:
            result = by_id[request.request_id]
            assert result.ok, (request.request_id, result.error)
            inst = request.instance()
            schedule = result.schedule(inst)
            report = verify_schedule(schedule, inst)
            assert report.ok, (request.request_id, report.violations)
            assert schedule.makespan == result.makespan

        gauges = stats["stats"]["gauges"]
        counters = stats["stats"]["counters"]
        # Permuted/repeated PTAS instances were served from the cache.
        assert gauges["result_cache.hits"] > 0
        # At least one deadline-bound request degraded to LPT.
        degraded = [r for r in results if r.degraded]
        assert degraded
        assert all(r.engine == "lpt" for r in degraded)
        assert counters["degradations_total"] >= len(degraded)
        assert counters["requests_total"] == len(requests)

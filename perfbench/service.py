"""Driver of the service workloads: a closed loop over TCP.

Each server is a fresh ``python -m repro serve`` child on an ephemeral
port, with a fresh empty ``--store`` directory where the workload asks
for one: reusing a store would answer later runs from disk.  Set-up is
the wall time from spawning the server (its pool included) to the answer
of the warm-up request; a run starts :data:`SERVER_STARTS` servers, times
each, and drives the last one.

The load generator is :data:`~perfbench.workloads.CONNECTIONS` persistent
connections, each sending its next request only after reading the reply
to the previous one.  Latency runs from writing the request line to
reading the response line.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any

from repro.service.requests import SolveRequest, SolveResult

from perfbench import proc
from perfbench.checks import Verifier
from perfbench.metrics import OpTally, percentile, pool_ipc_ms, ratio
from perfbench.workloads import CONNECTIONS, ServiceWorkload

#: Servers started per untraced run; set-up is the median of their times.
SERVER_STARTS = 3
#: Seconds a server may take to print its ready line.
START_TIMEOUT = 60.0
#: Seconds one request may wait for its reply before it counts as unanswered.
REPLY_TIMEOUT = 30.0
#: Requests of the seeded stream that :func:`sample_layers` replays when
#: the traced run is not a service run of its own.
SAMPLE_REQUESTS = 600


class Server:
    """One ``python -m repro serve`` child and its scratch directory."""

    def __init__(self, workload: ServiceWorkload, root: Path, scratch: Path) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="server-", dir=scratch))
        self.log = self.dir / "server.log"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--log-interval", "0",
            *workload.serve_args,
        ]
        if workload.store:
            cmd += ["--store", str(self.dir / "store")]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(self.dir)}
        self.workers: list[int] = []
        self.port: int | None = None
        self.started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            if "listening on" in text:
                line = text.split("listening on", 1)[1].split()[0]
                return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log.read_text(errors='replace')}")

    def pids(self) -> list[int]:
        """The server and its pool workers."""
        if not self.workers:
            self.workers = proc.child_pids(self.proc.pid)
        return [self.proc.pid, *self.workers]

    def cpu_seconds(self) -> float:
        return sum(proc.cpu_seconds(p) for p in self.pids())

    def peak_rss_mb(self) -> float:
        return sum(proc.peak_rss_mb(p) for p in self.pids())

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.dir / "store").rglob("*") if p.is_file())

    def op(self, name: str) -> dict:
        return json.loads(asyncio.run(_exchange(self.port, json.dumps({"op": name}))))

    def stop(self) -> None:
        """Shut the server down (gracefully if it answers), wait for it
        and its workers, and remove its directory."""
        workers = proc.child_pids(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise ConnectionError("server never listened")
                self.op("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, ValueError, asyncio.TimeoutError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for pid in workers:
            _reap(pid)
        shutil.rmtree(self.dir, ignore_errors=True)


def _reap(pid: int) -> None:
    """Wait (briefly) for a worker to exit, then kill it if it has not."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if not Path(f"/proc/{pid}").exists():
            return
        time.sleep(0.01)
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


async def _exchange(port: int, line: str) -> bytes:
    """Send one line on a fresh connection and return the reply line."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(line.encode() + b"\n")
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT)
    finally:
        writer.close()
        await writer.wait_closed()


def start_server(workload: ServiceWorkload, root: Path, scratch: Path) -> tuple[Server, float]:
    """A fresh server that has answered the warm-up request, and the
    seconds that took."""
    server = Server(workload, root, scratch)
    try:
        reply = asyncio.run(_exchange(server.port, workload.warmup_request().to_json()))
        result = SolveResult.from_json(reply.decode())
        elapsed = time.perf_counter() - server.started
        if not result.ok:
            raise RuntimeError(f"warm-up request failed: {result.error}")
    except BaseException:
        server.stop()
        raise
    return server, elapsed


async def _closed_loop(port: int, requests, seconds: float | None, codec: bool) -> list[dict]:
    """Drive *requests* over CONNECTIONS connections until *seconds* pass
    (or the requests run out).  Returns one record per request sent."""
    records: list[dict] = []
    stream = iter(requests)
    start = time.perf_counter()

    async def lane() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while seconds is None or time.perf_counter() - start < seconds:
                request = next(stream, None)
                if request is None:
                    return
                rec: dict[str, Any] = {"request": request, "result": None}
                records.append(rec)
                c0 = time.perf_counter()
                line = request.to_json().encode() + b"\n"
                t0 = time.perf_counter()
                writer.write(line)
                await writer.drain()
                try:
                    reply = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT)
                except asyncio.TimeoutError:
                    return  # unanswered: this connection is out of step now
                t1 = time.perf_counter()
                if not reply:
                    return
                rec["result"] = SolveResult.from_json(reply.decode())
                rec["latency_s"] = t1 - t0
                if codec:
                    rec["codec_s"] = (t0 - c0) + (time.perf_counter() - t1)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(lane() for _ in range(CONNECTIONS)))
    return records


def run(
    workload: ServiceWorkload, seed: int, seconds: float, trace: bool, root: Path, scratch: Path
) -> dict:
    """One run of a service workload; returns the report dict."""
    setup: list[float] = []
    if not trace:
        for _ in range(SERVER_STARTS - 1):
            server, elapsed = start_server(workload, root, scratch)
            setup.append(elapsed)
            server.stop()
    server, elapsed = start_server(workload, root, scratch)
    setup.append(elapsed)
    try:
        measured = _measure(
            server, workload.requests(seed), seconds / 2 if trace else seconds, codec=False
        )
    finally:
        server.stop()
    records = measured["records"]
    verifier = Verifier()
    tally = OpTally()
    _verify(records, verifier, tally)
    answered = [r for r in records if r["result"] is not None]
    lat_ms = [r["latency_s"] * 1e3 for r in answered]
    ok = [r for r in answered if r["result"].ok and r["result"].makespan is not None]
    report: dict[str, Any] = {
        "ops": len(answered),
        "wall_s": measured["wall_s"],
        "latencies_ms": lat_ms,
        "end_to_end": {
            "setup_s": median(setup),
            "ops_per_s": len(answered) / measured["wall_s"],
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p90_ms": percentile(lat_ms, 90),
            "makespan_over_lb": sum(
                float(r["result"].makespan) / r["request"].instance().trivial_lower_bound()
                for r in ok
            )
            / len(ok),
            "error_rate": tally.error_rate,
            "peak_rss_mb": measured["rss_mb"],
            "cpu_ms_per_op": measured["cpu_s"] / len(answered) * 1e3,
        },
        "setup_samples_s": setup if not trace else [],
        "host_steal_share": measured["steal_share"],
        "tally": tally,
        "verifier": verifier,
    }
    if trace:
        # Phase B: a fresh server replays exactly the requests phase A sent.
        report["sent"] = [r["request"] for r in records]
        traced = _replay(workload, report["sent"], root, scratch, verifier, tally)
        report["per_layer"] = _layers(workload, traced)
        report["per_layer"].update(_trace_metrics(traced, report["per_layer"], lat_ms))
    return report


def sample_layers(
    workload: ServiceWorkload,
    requests: list[SolveRequest],
    root: Path,
    scratch: Path,
    verifier: Verifier,
    tally: OpTally,
) -> dict[str, float]:
    """Per-layer metrics of *workload* from replaying *requests* against
    a fresh server of it."""
    return _layers(workload, _replay(workload, requests, root, scratch, verifier, tally))


def _replay(workload, requests, root, scratch, verifier: Verifier, tally: OpTally) -> dict:
    """Time *requests* against a fresh server of *workload*, codec timed."""
    server, _ = start_server(workload, root, scratch)
    try:
        measured = _measure(server, requests, None, codec=True)
    finally:
        server.stop()
    _verify(measured["records"], verifier, tally)
    return measured


def _layers(workload: ServiceWorkload, measured: dict) -> dict[str, float]:
    if workload.pooled:
        return _pool_store_layers(measured)
    return _frontend_layers(measured)


def _measure(server: Server, requests, seconds: float | None, codec: bool) -> dict:
    before = server.op("stats")
    steal = proc.StealMeter()
    cpu0 = server.cpu_seconds() + proc.cpu_seconds()
    t0 = time.perf_counter()
    records = asyncio.run(_closed_loop(server.port, requests, seconds, codec))
    wall = time.perf_counter() - t0
    cpu = server.cpu_seconds() + proc.cpu_seconds() - cpu0
    rss = server.peak_rss_mb() + proc.peak_rss_mb()
    steal_share = steal.share()
    after = server.op("stats")
    return {
        "records": records,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss,
        "steal_share": steal_share,
        "before": before,
        "after": after,
        "store_bytes": server.store_bytes(),
    }


def _verify(records: list[dict], verifier: Verifier, tally: OpTally) -> None:
    for rec in records:
        request = rec["request"]
        outcome = verifier.outcome(request.instance(), rec["result"], request.engine, request.eps)
        tally.add(outcome)


class _Stats:
    """Changes of the ``op=stats`` instruments over one measured phase."""

    def __init__(self, measured: dict) -> None:
        self.after, self.before = measured["after"], measured["before"]

    def _delta(self, section: str, name: str, field: str | None = None) -> float:
        def read(snap: dict) -> float:
            value = snap["stats"][section].get(name)
            if value is None:
                return 0.0
            return float(value[field] or 0.0) if field else float(value)

        return read(self.after) - read(self.before)

    def c(self, name: str) -> float:
        return self._delta("counters", name)

    def g(self, name: str) -> float:
        return self._delta("gauges", name)

    def h(self, name: str, field: str) -> float:
        return self._delta("histograms", name, field)

    def mean(self, name: str) -> float:
        return ratio(self.h(name, "sum"), self.h(name, "count"))


def _answered(m: dict) -> list[dict]:
    return [r for r in m["records"] if r["result"] is not None]


def _frontend_layers(m: dict) -> dict[str, float]:
    """Per-layer metrics of a traced phase against the single-process
    server, from the client's own timings and ``op=stats``."""
    st = _Stats(m)
    answered = _answered(m)
    n = len(answered)

    def phase_s(kind: str) -> float:
        return st.h(f"trace.phase.{kind}.seconds", "sum")

    client_ms = sum(r["latency_s"] for r in answered) / n * 1e3
    handle_ms = st.mean("request_latency_seconds") * 1e3
    codec_ms = sum(r["codec_s"] for r in answered) / n * 1e3
    probes = st.c("trace.counters.probes")
    cfg_hits = st.g("dp_config_cache.hits")
    cfg_lookups = cfg_hits + st.g("dp_config_cache.misses")
    out = {
        "bisection.probes": probes,
        # The service's engines nest enumerate and backtrack inside dp.
        "bisection.self_ms": (
            phase_s("solve") - phase_s("reconstruct") - phase_s("round") - phase_s("dp")
        )
        / n
        * 1e3,
        "rounding.ms": phase_s("round") / n * 1e3,
        "rounding.reuse_ratio": ratio(st.c("trace.counters.rounding_reuses"), probes),
        "configurations.ms": phase_s("enumerate") / n * 1e3,
        "configurations.count": st.c("trace.counters.configs_enumerated"),
        "configurations.cache_hit_ratio": ratio(cfg_hits, cfg_lookups),
        "dp.self_ms": (phase_s("dp") - phase_s("enumerate") - phase_s("backtrack")) / n * 1e3,
        "reconstruct.ms": phase_s("reconstruct") / n * 1e3,
        "wire.codec_us": codec_ms * 1e3,
        "wire.overhead_ms": client_ms - handle_ms,
        "frontend.handle_ms": handle_ms,
        "frontend.batch_wait_ms": st.mean("queue_wait_seconds") * 1e3,
        "frontend.batch_size": st.mean("batch_size"),
        "frontend.solve_ms": st.mean("trace.phase.solve.seconds") * 1e3,
        "cache.hit_ratio": ratio(st.c("cache_hits"), st.c("requests_total")),
        "cache.coalesced": st.c("requests_coalesced"),
        "admission.rejected": st.c("requests_shed"),
    }
    # As in the solve workloads, the default DP engine recovers its
    # schedule inside the ``dp`` phase.
    if st.h("trace.phase.backtrack.seconds", "count"):
        out["dp.backtrack_ms"] = phase_s("backtrack") / n * 1e3
    return out


def _trace_metrics(m: dict, layers: dict[str, float], untraced_ms: list[float]) -> dict:
    """Coverage, overhead and the accounting of the untraced median by
    the blocking steps of a request the cache misses: client codec, the
    wire, the batch wait and the solve."""
    answered = _answered(m)
    client_s = sum(r["latency_s"] for r in answered)
    codec_s = layers["wire.codec_us"] * 1e-6 * len(answered)
    traced_ms = [r["latency_s"] * 1e3 for r in answered]
    accounted = layers["wire.codec_us"] * 1e-3 + layers["wire.overhead_ms"]
    accounted += layers["frontend.batch_wait_ms"] + layers["frontend.solve_ms"]
    return {
        "trace.coverage": (_Stats(m).h("request_latency_seconds", "sum") + codec_s) / client_s,
        "trace.overhead_ms": percentile(traced_ms, 50) - percentile(untraced_ms, 50),
        "trace.accounted_ms": accounted,
        "trace.gap_ms": percentile(untraced_ms, 50) - accounted,
    }


def _pool_store_layers(m: dict) -> dict[str, float]:
    """Pool and store metrics of a phase against the pooled deployment;
    worker instruments arrive summed as ``pool.*``."""
    st = _Stats(m)
    n = len(_answered(m))
    shards = [
        st.c(name)
        for name in m["after"]["stats"]["counters"]
        if name.startswith("pool.shard.") and name.endswith(".dispatched")
    ]
    solve_sum = st.h("pool.solve_seconds", "sum")
    hits = st.g("pool.store.hits")
    return {
        "pool.solve_ms": st.mean("pool.solve_seconds") * 1e3,
        "pool.ipc_ms": pool_ipc_ms(
            st.h("request_latency_seconds", "sum"), solve_sum, int(st.c("pool.dispatched"))
        ),
        "pool.shard_imbalance": ratio(max(shards, default=0.0), sum(shards) / max(1, len(shards))),
        "pool.restarts": st.c("pool.worker_restarts"),
        "store.puts": st.g("pool.store.puts"),
        "store.bytes_per_op": m["store_bytes"] / n,
        "store.disk_hit_ratio": ratio(hits, hits + st.g("pool.store.misses")),
    }

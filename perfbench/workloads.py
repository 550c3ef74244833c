"""The benchmark's workloads: what each one feeds the program.

Two *solve* workloads call :func:`repro.solve` in this process, one call
after another; two *service* workloads replay a request stream against a
``python -m repro serve`` child over TCP.  Every input is generated here
from the ``--seed`` argument; the program only ever sees the generated
instances and requests.

Solve workloads draw from a fixed panel
---------------------------------------
Solve times on the paper's families at these sizes are heavy tailed: at
m=8, n=40 with the default DP engine, 120 sampled instances took from
1 ms to 11.5 s, and two of them took more than 9 s.  A run gets through
a few dozen solves, and drawing fresh instances per seed moved p50, p90
and ops/s by 30-60% between seeds (interquartile range over ten seeds,
simulated from those 120 timings).  So each panel slot always holds the
same instance of its family, slots are visited in order, and ``--seed``
permutes the jobs of every instance (job order changes both the time and
the schedule a solve returns).  Runs at different seeds time the same
instances in different job orders, and a change is compared with its
parent on the same instances.  The panel never repeats an instance: a
faster program gets further down it.

``ptas_paper`` solves three u_2m and three u_10 instances for every u_100
and u_10n pair.  The two pairs of families form two modes, a few to
80 ms and 50 ms to seconds; with equal shares the median fell in the gap
between them and moved 19-29% between runs of the same instances.  At
three to one the median lies inside the fast mode, p90 inside the slow
one, and the slow families still take about nine tenths of the time.

Service workloads draw fresh requests per seed
----------------------------------------------
Service requests are small (well under a millisecond of solving each)
and a run answers thousands of them, so they are drawn fresh from the
seed.  Every fourth request is a permuted twin of an earlier one, the
repeat pattern that the result cache, single-flight coalescing and
shard routing exist for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterator

from repro.io.benchjson import instance_fingerprint
from repro.model.instance import Instance
from repro.service.requests import SolveRequest
from repro.workloads.generator import make_instance, make_qinstance


@dataclass(frozen=True)
class SolveWorkload:
    """Sequential :func:`repro.solve` calls over a fixed instance panel."""

    name: str
    #: Family of each slot in one cycle of the panel; a family may repeat
    #: to weight it, and every slot still gets an instance of its own.
    families: tuple[str, ...]
    machines: int
    jobs: int
    solve_kwargs: dict[str, Any]
    #: A run reports whole blocks of this many panel slots: it solves
    #: until its seconds have passed and one block is done, and drops the
    #: unfinished block.  One block takes longer than a run's seconds at
    #: the time of writing, so runs report the same instances until the
    #: program gets about twice as fast.
    block: int
    #: Backend solving the same instances for ``wavefront.speedup_vs_serial``
    #: in the traced run (``None``: the workload has no wavefront).
    serial_backend: str | None = None
    #: Workloads whose layers the traced run also measures, on a short
    #: sample of their inputs, so that it reports every per-layer metric.
    traced_also: "tuple[SolveWorkload | ServiceWorkload, ...]" = ()

    def descriptor(self) -> dict[str, Any]:
        return {
            "kind": "solve",
            "families": list(self.families),
            "machines": self.machines,
            "jobs": self.jobs,
            "solve": self.solve_kwargs,
            "block": self.block,
            "panel": "slot i = make_instance(families[i % F], m, n, seed=k), "
            "k = earlier slots of the same family",
        }

    def instances(self, seed: int) -> Iterator[Instance]:
        """The panel, in slot order, with jobs permuted by *seed*."""
        drawn = dict.fromkeys(self.families, 0)
        slot = 0
        while True:
            fam = self.families[slot % len(self.families)]
            base = make_instance(fam, self.machines, self.jobs, seed=drawn[fam])
            drawn[fam] += 1
            times = list(base.processing_times)
            random.Random(seed * 1_000_003 + slot).shuffle(times)
            yield Instance(times, self.machines)
            slot += 1

    def warmup_instance(self) -> Instance:
        """Solved once before timing (and by every cold start); a seed
        far outside the panel, so it warms no cache the panel uses."""
        return make_instance(self.families[0], self.machines, self.jobs, seed=1_000_000)


#: (engine, problem, family, machines, jobs, eps) strata of the service
#: stream, drawn round-robin.  PTAS strata stay at n <= 24 so solves are
#: sub-millisecond and the wire, batching, cache and admission dominate.
SERVICE_STRATA: tuple[tuple[str, str, str, int, int, float], ...] = (
    ("ptas", "p_cmax", "u_10", 4, 24, 0.2),
    ("ptas", "p_cmax", "u_100", 3, 18, 0.2),
    ("ptas", "p_cmax", "u_narrow", 4, 20, 0.25),
    ("ptas", "p_cmax", "lpt_adversarial", 3, 7, 0.3),
    ("lpt", "p_cmax", "u_100", 8, 60, 0.3),
    ("lpt", "q_cmax", "u_100", 4, 30, 0.3),
)
#: Every DUPLICATE_EVERY-th request re-submits an earlier one, permuted.
DUPLICATE_EVERY = 4
#: Persistent client connections of the closed loop.
CONNECTIONS = 2


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop over TCP against a fresh ``python -m repro serve``."""

    name: str
    serve_args: tuple[str, ...]
    #: Whether the server gets a fresh empty ``--store`` directory.
    store: bool = False
    #: Workloads whose layers the traced run also measures, on a short
    #: sample of their inputs, so that it reports every per-layer metric.
    traced_also: "tuple[SolveWorkload | ServiceWorkload, ...]" = ()

    @property
    def pooled(self) -> bool:
        """Whether the server runs a worker pool behind its front end."""
        return "--pool-workers" in self.serve_args

    def descriptor(self) -> dict[str, Any]:
        return {
            "kind": "service",
            "serve_args": list(self.serve_args),
            "store": self.store,
            "strata": [list(s) for s in SERVICE_STRATA],
            "duplicate_every": DUPLICATE_EVERY,
            "connections": CONNECTIONS,
        }

    def requests(self, seed: int) -> Iterator[SolveRequest]:
        """The seeded request stream (unbounded)."""
        rng = random.Random(seed)
        originals: list[SolveRequest] = []
        i = 0
        while True:
            if originals and i % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
                base = rng.choice(originals)
                times = list(base.times)
                rng.shuffle(times)
                request = SolveRequest.from_dict(
                    {**base.to_dict(), "times": times, "request_id": f"r{i}"}
                )
            else:
                engine, problem, fam, m, n, eps = SERVICE_STRATA[
                    len(originals) % len(SERVICE_STRATA)
                ]
                gen_seed = rng.randrange(2**31)
                if problem == "q_cmax":
                    q = make_qinstance(fam, m, n, seed=gen_seed, speed_family="u_1_4")
                    times, speeds = q.processing_times, q.speeds
                else:
                    times, speeds = make_instance(fam, m, n, seed=gen_seed).processing_times, ()
                request = SolveRequest(
                    times=tuple(times),
                    machines=m,
                    problem=problem,
                    speeds=tuple(speeds),
                    engine=engine,
                    eps=eps,
                    request_id=f"r{i}",
                )
                originals.append(request)
            yield request
            i += 1

    def warmup_request(self) -> SolveRequest:
        """The first answer that ends set-up; not part of the stream."""
        inst = make_instance("u_10", 4, 24, seed=1_000_000)
        return SolveRequest(
            times=inst.processing_times, machines=4, engine="ptas", eps=0.2, request_id="warmup"
        )


#: Thread-backend wavefront PTAS on wide tables (sigma ~ 25k): the
#: paper's contribution, ``core.parallel_dp`` and ``repro.parallel``.
WAVEFRONT = SolveWorkload(
    "wavefront_threads",
    families=("u_100", "u_10n"),
    machines=10,
    jobs=50,
    solve_kwargs={
        "engine": "parallel_ptas",
        "eps": 0.2,
        "backend": "thread",
        "workers": "auto",
        "mode": "wavefront",
    },
    block=40,
    serial_backend="numpy-serial",
)

#: The Dockerfile deployment: a sharded worker pool writing through to a
#: durable store.
POOL_STORE = ServiceWorkload(
    "service_pool_store", serve_args=("--pool-workers", "auto"), store=True
)

#: The default single-process ``serve``.
SERVICE_SINGLE = ServiceWorkload(
    "service_single", serve_args=(), traced_also=(POOL_STORE, WAVEFRONT)
)

#: Every workload ``run.py`` runs.  ``BENCHMARK.json`` gates only those
#: that held steady across seeds on a 2-vCPU virtual machine.  Both of
#: the others keep both of their vCPUs busy and followed the hypervisor's
#: steal from run to run (IQR/median over ten seeds: wavefront p50
#: 0.25-0.26 in two sets of three, pool throughput 0.32 in two of two),
#: so the traced runs of the gated workloads measure their layers too:
#: each samples the layers it lacks from the workloads in ``traced_also``.
WORKLOADS: dict[str, SolveWorkload | ServiceWorkload] = {
    w.name: w
    for w in (
        SolveWorkload(
            "ptas_paper",
            families=("u_2m", "u_10", "u_2m", "u_10", "u_2m", "u_10", "u_100", "u_10n"),
            machines=8,
            jobs=40,
            solve_kwargs={"engine": "ptas", "eps": 0.2},
            block=96,
            traced_also=(WAVEFRONT, SERVICE_SINGLE, POOL_STORE),
        ),
        WAVEFRONT,
        SERVICE_SINGLE,
        POOL_STORE,
    )
}

#: Items of the seed-0 stream that the fingerprint covers, so that a
#: change to the generators in ``src/`` shows as well as one here.
FINGERPRINT_ITEMS = 32


def fingerprint(workload: SolveWorkload | ServiceWorkload) -> str:
    """Stable fingerprint of a workload: its descriptor plus the first
    :data:`FINGERPRINT_ITEMS` inputs it generates at seed 0."""
    if isinstance(workload, SolveWorkload):
        stream = workload.instances(0)
        sample = [list(next(stream).processing_times) for _ in range(FINGERPRINT_ITEMS)]
    else:
        stream = workload.requests(0)
        sample = [next(stream).to_dict() for _ in range(FINGERPRINT_ITEMS)]
    return instance_fingerprint({"workload": workload.descriptor(), "sample": sample})

"""Seeded instance generation.

All randomness flows through :class:`numpy.random.Generator` seeded with
``numpy.random.default_rng(seed)``, so every experiment in the harness is
reproducible from its (family, m, n, seed) coordinates alone.  Seeds for
the i-th replicate of a batch are derived as ``seed + i`` — simple, and
stable across library versions.  numpy is imported on the first draw,
so importing the package (as the service does) does not load it.
"""

from __future__ import annotations

from typing import Iterator

from repro.model.instance import Instance
from repro.model.qinstance import QInstance
from repro.workloads.families import Family, family
from repro.workloads.families import speed_family as _speed_family_lookup


def uniform_instance(
    m: int, n: int, low: int, high: int, seed: int | None = None
) -> Instance:
    """``n`` jobs with integer times drawn from ``U(low, high)``
    (inclusive bounds, as in the paper's notation).

    >>> inst = uniform_instance(4, 10, 1, 100, seed=0)
    >>> inst.num_jobs, inst.num_machines
    (10, 4)
    >>> all(1 <= t <= 100 for t in inst.processing_times)
    True
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if low < 1:
        raise ValueError(f"low must be >= 1 (positive integer times), got {low}")
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    import numpy as np

    rng = np.random.default_rng(seed)
    times = rng.integers(low, high + 1, size=n)
    return Instance([int(t) for t in times], m)


def make_instance(kind: str, m: int, n: int, seed: int | None = None) -> Instance:
    """Draw one instance of a named family (see
    :data:`repro.workloads.families.FAMILIES`).

    ``n`` is ignored for families with a pinned job count
    (``lpt_adversarial`` forces ``n = 2m + 1``).
    """
    fam = family(kind)
    low, high = fam.bounds(m, n)
    return uniform_instance(m, fam.job_count(m, n), low, high, seed=seed)


def make_qinstance(
    kind: str,
    m: int,
    n: int,
    seed: int | None = None,
    *,
    speeds: tuple[int, ...] | list[int] | None = None,
    speed_family: str | None = None,
) -> QInstance:
    """Draw one ``Q || Cmax`` instance: processing times from the named
    time family *kind*, machine speeds either given explicitly
    (*speeds* — also fixes the machine count) or drawn from a named
    :data:`~repro.workloads.families.SPEED_FAMILIES` entry
    (*speed_family*, default ``u_1_4``).

    Times and speeds are drawn from independent streams of the same
    seed (``seed`` and ``seed + 1``), so the times of
    ``make_qinstance(kind, m, n, seed)`` match
    ``make_instance(kind, m, n, seed)`` job for job.

    >>> q = make_qinstance("u_10", 3, 8, seed=0, speeds=(2, 1, 1))
    >>> q.num_machines, q.num_jobs
    (3, 8)
    >>> q.processing_times == make_instance("u_10", 3, 8, seed=0).processing_times
    True
    """
    if speeds is not None and speed_family is not None:
        raise ValueError("pass speeds= or speed_family=, not both")
    if speeds is not None:
        m = len(speeds)
        chosen = [int(s) for s in speeds]
    else:
        import numpy as np

        fam = _speed_family_lookup(speed_family or "u_1_4")
        rng = np.random.default_rng(None if seed is None else seed + 1)
        chosen = fam.draw(m, rng)
    inst = make_instance(kind, m, n, seed=seed)
    return QInstance(inst.processing_times, chosen)


def lpt_adversarial(m: int, seed: int | None = None) -> Instance:
    """The near-worst-case family for LPT: ``n = 2m + 1`` jobs from
    ``U(m, 2m-1)`` (paper §V-B).  Deterministic worst cases exist
    (``2m+1`` jobs of sizes ``2m-1, 2m-1, 2m-2, ..., m, m, m``); the
    random family gets close while matching the paper's setup."""
    return make_instance("lpt_adversarial", m, 2 * m + 1, seed=seed)


def lpt_worst_case_exact(m: int) -> Instance:
    """Graham's deterministic tight example for LPT: jobs
    ``2m-1, 2m-1, 2m-2, 2m-2, ..., m+1, m+1, m, m, m`` on ``m`` machines.
    LPT yields ``4m - 1`` while the optimum is ``3m``.

    >>> from repro.algorithms.lpt import lpt
    >>> inst = lpt_worst_case_exact(3)
    >>> lpt(inst).makespan, 3 * 3
    (11, 9)
    """
    if m < 2:
        raise ValueError("the construction needs m >= 2")
    times: list[int] = []
    for v in range(2 * m - 1, m, -1):
        times.extend([v, v])
    times.extend([m, m, m])
    return Instance(times, m)


def generate_batch(
    kind: str, m: int, n: int, count: int, base_seed: int = 0
) -> Iterator[Instance]:
    """Yield ``count`` replicates of a family with derived seeds
    (``base_seed + i``) — the "20 instances per type" of §V-A."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for i in range(count):
        yield make_instance(kind, m, n, seed=base_seed + i)


def family_of_types(
    machine_counts: tuple[int, ...] = (10, 20),
    job_counts: tuple[int, ...] = (30, 50, 100),
    kinds: tuple[str, ...] = ("u_2m", "u_100", "u_10", "u_10n"),
) -> list[tuple[str, int, int]]:
    """The cartesian grid of instance *types* of §V-A — 24 by default
    (2 machine counts x 3 job counts x 4 distributions)."""
    return [(kind, m, n) for m in machine_counts for n in job_counts for kind in kinds]

"""The :class:`QInstance` / :class:`QSchedule` types — ``Q || Cmax``
on uniformly related machines.

The uniformly related (uniform) machine model generalizes ``P || Cmax``:
machine ``i`` runs at integer speed ``s_i >= 1``, so a job with
processing requirement ``t`` occupies it for ``t / s_i`` time units.
With all speeds equal to one the model degenerates to identical
machines, and every quantity below collapses to its
:class:`~repro.model.instance.Instance` counterpart.

Both types mirror the ``P`` pair deliberately: eager validation in
``__init__``, frozen dataclasses over tuples (hashable, picklable),
cached aggregates.  Loads stay exact integers (work units); completion
times are exact :class:`fractions.Fraction` internally and surface as
floats, so makespans are deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from repro.model.instance import Instance, _as_int


@dataclass(frozen=True, slots=True)
class QInstance:
    """An immutable ``Q || Cmax`` problem instance.

    Parameters
    ----------
    processing_times:
        Sequence of positive integer processing requirements, one per
        job (work units, speed-independent).
    speeds:
        Sequence of positive integer machine speeds, one per machine;
        machine ``i`` processes ``speeds[i]`` work units per time unit.

    Examples
    --------
    >>> inst = QInstance([6, 4, 2], speeds=[2, 1])
    >>> inst.num_machines
    2
    >>> inst.total_work, inst.total_speed
    (12, 3)
    >>> inst.is_identical
    False
    >>> QInstance([6, 4], speeds=[3, 3]).is_identical
    True
    """

    processing_times: tuple[int, ...]
    speeds: tuple[int, ...]
    # Cached aggregates, filled in __post_init__.
    total_work: int = field(init=False, repr=False, compare=False)
    max_time: int = field(init=False, repr=False, compare=False)
    total_speed: int = field(init=False, repr=False, compare=False)
    max_speed: int = field(init=False, repr=False, compare=False)

    def __init__(self, processing_times: Iterable[int], speeds: Iterable[int]):
        times = tuple(_as_int(t, "processing time") for t in processing_times)
        if not times:
            raise ValueError("an instance must contain at least one job")
        for t in times:
            if t <= 0:
                raise ValueError(f"processing times must be positive, got {t}")
        spd = tuple(_as_int(s, "machine speed") for s in speeds)
        if not spd:
            raise ValueError("an instance must contain at least one machine")
        for s in spd:
            if s <= 0:
                raise ValueError(f"machine speeds must be positive, got {s}")
        object.__setattr__(self, "processing_times", times)
        object.__setattr__(self, "speeds", spd)
        object.__setattr__(self, "total_work", sum(times))
        object.__setattr__(self, "max_time", max(times))
        object.__setattr__(self, "total_speed", sum(spd))
        object.__setattr__(self, "max_speed", max(spd))

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self.processing_times)

    @property
    def num_machines(self) -> int:
        """Number of machines ``m`` (one speed per machine)."""
        return len(self.speeds)

    @property
    def is_identical(self) -> bool:
        """True iff all speeds are equal — the ``P || Cmax`` special case."""
        return min(self.speeds) == self.max_speed

    def trivial_lower_bound(self) -> float:
        """``max(sum t / sum s, max t / max s)`` — the speed-aware analogue
        of Eq. (1): no schedule beats the perfectly balanced fractional
        load, and the longest job needs at least ``t_max / s_max`` time
        even on the fastest machine."""
        return float(
            max(
                Fraction(self.total_work, self.total_speed),
                Fraction(self.max_time, self.max_speed),
            )
        )

    def trivial_upper_bound(self) -> float:
        """``sum t / max s`` — running every job back-to-back on the
        fastest machine is always feasible, so the optimum is below it."""
        return float(Fraction(self.total_work, self.max_speed))

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    @classmethod
    def from_identical(cls, instance: Instance, speed: int = 1) -> "QInstance":
        """Lift a ``P`` instance into the uniform model (all speeds equal).

        >>> QInstance.from_identical(Instance([3, 5], 2)).speeds
        (1, 1)
        """
        return cls(instance.processing_times, (speed,) * instance.num_machines)

    def to_identical(self) -> Instance:
        """Project back to ``P || Cmax``.  Only valid when
        :attr:`is_identical` holds (speeds carry information otherwise)."""
        if not self.is_identical:
            raise ValueError(
                f"speeds {self.speeds} are not all equal; "
                "this Q instance has no identical-machine projection"
            )
        return Instance(self.processing_times, self.num_machines)

    def sorted_jobs_desc(self) -> list[int]:
        """Job indices by non-increasing processing requirement (ties by
        ascending index) — the deterministic order shared with
        :meth:`Instance.sorted_jobs_desc`."""
        return sorted(
            range(self.num_jobs), key=lambda j: (-self.processing_times[j], j)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QInstance(n={self.num_jobs}, m={self.num_machines}, "
            f"total={self.total_work}, max={self.max_time}, "
            f"speeds={self.speeds})"
        )


@dataclass(frozen=True)
class QSchedule:
    """An assignment of jobs to uniformly related machines.

    Structurally identical to :class:`~repro.model.schedule.Schedule`
    (a validated partition of job indices into one group per machine);
    the objective differs: machine ``i`` finishes at ``load_i / s_i``,
    and the makespan is the maximum *completion time*, not the maximum
    load.

    >>> inst = QInstance([6, 4, 2], speeds=[2, 1])
    >>> sched = QSchedule(inst, [(0, 2), (1,)])
    >>> sched.machine_loads
    (8, 4)
    >>> sched.completion_times
    (4.0, 4.0)
    >>> sched.makespan
    4.0
    """

    instance: QInstance
    assignment: tuple[tuple[int, ...], ...]

    def __init__(self, instance: QInstance, assignment: Sequence[Sequence[int]]):
        groups = tuple(tuple(int(j) for j in grp) for grp in assignment)
        if len(groups) != instance.num_machines:
            raise ValueError(
                f"schedule has {len(groups)} machine groups but the instance "
                f"has {instance.num_machines} machines"
            )
        seen: set[int] = set()
        count = 0
        for grp in groups:
            for j in grp:
                if not 0 <= j < instance.num_jobs:
                    raise ValueError(f"job index {j} out of range")
                if j in seen:
                    raise ValueError(f"job {j} assigned to more than one machine")
                seen.add(j)
                count += 1
        if count != instance.num_jobs:
            missing = sorted(set(range(instance.num_jobs)) - seen)
            raise ValueError(f"jobs not assigned to any machine: {missing}")
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "assignment", groups)

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    @property
    def machine_loads(self) -> tuple[int, ...]:
        """Per-machine work (sum of assigned processing requirements)."""
        t = self.instance.processing_times
        return tuple(sum(t[j] for j in grp) for grp in self.assignment)

    def exact_completion_times(self) -> tuple[Fraction, ...]:
        """Per-machine completion times as exact fractions
        (``load_i / s_i``)."""
        return tuple(
            Fraction(load, s)
            for load, s in zip(self.machine_loads, self.instance.speeds)
        )

    @property
    def completion_times(self) -> tuple[float, ...]:
        """Per-machine completion times (``load_i / s_i``) as floats."""
        return tuple(float(c) for c in self.exact_completion_times())

    @property
    def makespan(self) -> float:
        """The maximum machine completion time ``Cmax`` (speed-scaled)."""
        return float(max(self.exact_completion_times()))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """True iff the assignment partitions the jobs (defensive; always
        holds for a constructed ``QSchedule``)."""
        seen: set[int] = set()
        for grp in self.assignment:
            for j in grp:
                if j in seen or not 0 <= j < self.instance.num_jobs:
                    return False
                seen.add(j)
        return len(seen) == self.instance.num_jobs

    def job_machine(self) -> dict[int, int]:
        """Map from job index to the machine that runs it."""
        where: dict[int, int] = {}
        for i, grp in enumerate(self.assignment):
            for j in grp:
                where[j] = i
        return where

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Machine groups with jobs sorted (machine order kept — unlike
        the ``P`` form, machines are distinguishable by speed)."""
        return tuple(tuple(sorted(grp)) for grp in self.assignment)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QSchedule(makespan={self.makespan}, loads={self.machine_loads}, "
            f"speeds={self.instance.speeds})"
        )

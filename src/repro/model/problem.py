"""First-class problem variants: the :class:`ProblemModel` axis.

Every layer of the stack (registry, wire types, cache/store keys, CLI,
workloads) now dispatches on a *problem name* instead of assuming the
paper's ``P || Cmax``.  This module is the single source of truth for
what problems exist and how to build, verify, and baseline-solve their
instances:

* ``p_cmax`` — identical machines (:class:`~repro.model.instance.Instance`),
  the paper's problem.
* ``q_cmax`` — uniformly related machines
  (:class:`~repro.model.qinstance.QInstance`), the proving variant.

The model keeps algorithm imports lazy so ``repro.model`` stays free of
cycles with :mod:`repro.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.model.instance import Instance
from repro.model.qinstance import QInstance, QSchedule
from repro.model.schedule import Schedule

P_CMAX = "p_cmax"
Q_CMAX = "q_cmax"

_ALIASES = {
    "p": P_CMAX,
    "pcmax": P_CMAX,
    "p||cmax": P_CMAX,
    "identical": P_CMAX,
    "q": Q_CMAX,
    "qcmax": Q_CMAX,
    "q||cmax": Q_CMAX,
    "uniform": Q_CMAX,
    "related": Q_CMAX,
}


class UnknownProblemError(ValueError):
    """Raised for a problem name outside the registry; the message lists
    the valid names, mirroring ``UnknownEngineError``."""

    def __init__(self, name: str):
        valid = ", ".join(available_problems())
        super().__init__(f"unknown problem {name!r}; valid problems: {valid}")
        self.name = name


@dataclass(frozen=True)
class ProblemModel:
    """One problem variant: identity, instance construction, schedule
    verification, and the degrade-path baseline used when deadlines or
    engine failures force a cheap answer.

    ``baseline`` returns ``(schedule, guarantee)`` so callers never need
    to know which concrete algorithm backs the fallback.
    """

    name: str
    label: str
    description: str
    needs_speeds: bool
    instance_type: type
    schedule_type: type
    _build: Callable[[Sequence[int], int, Sequence[int]], Any]
    _baseline: Callable[[Any], tuple[Any, float]]

    def build_instance(
        self,
        times: Sequence[int],
        machines: int,
        speeds: Sequence[int] = (),
    ) -> Any:
        """Construct a validated instance of this problem."""
        return self._build(times, machines, speeds)

    def baseline(self, instance: Any) -> tuple[Any, float]:
        """Cheap deterministic fallback solve: ``(schedule, guarantee)``."""
        return self._baseline(instance)

    def verify(self, schedule: Any, instance: Any = None):
        """Semantic verification, dispatched by problem (see
        :func:`repro.model.verify.verify_schedule`)."""
        from repro.model.verify import verify_schedule

        return verify_schedule(schedule, instance)


def _build_p(times: Sequence[int], machines: int, speeds: Sequence[int]) -> Instance:
    if speeds:
        raise ValueError(
            "problem 'p_cmax' does not take machine speeds; "
            "use problem 'q_cmax' for uniformly related machines"
        )
    return Instance(times, machines)


def _build_q(times: Sequence[int], machines: int, speeds: Sequence[int]) -> QInstance:
    if not speeds:
        raise ValueError("problem 'q_cmax' requires a machine speed vector")
    if machines and machines != len(speeds):
        raise ValueError(
            f"machines={machines} disagrees with {len(speeds)} speeds"
        )
    return QInstance(times, speeds)


def _baseline_p(instance: Instance) -> tuple[Schedule, float]:
    from repro.algorithms.lpt import lpt, lpt_worst_case_ratio

    return lpt(instance), lpt_worst_case_ratio(instance.num_machines)


def _baseline_q(instance: QInstance) -> tuple[QSchedule, float]:
    from repro.algorithms.related import q_lpt, q_lpt_worst_case_ratio

    return q_lpt(instance), q_lpt_worst_case_ratio(instance.speeds)


_PROBLEMS: dict[str, ProblemModel] = {
    P_CMAX: ProblemModel(
        name=P_CMAX,
        label="P || Cmax",
        description="makespan minimization on identical parallel machines",
        needs_speeds=False,
        instance_type=Instance,
        schedule_type=Schedule,
        _build=_build_p,
        _baseline=_baseline_p,
    ),
    Q_CMAX: ProblemModel(
        name=Q_CMAX,
        label="Q || Cmax",
        description="makespan minimization on uniformly related machines",
        needs_speeds=True,
        instance_type=QInstance,
        schedule_type=QSchedule,
        _build=_build_q,
        _baseline=_baseline_q,
    ),
}


def available_problems() -> list[str]:
    """Registered problem names, deterministic order (``p_cmax`` first)."""
    return list(_PROBLEMS)


def canonical_problem_name(name: str) -> str:
    """Normalize a user-supplied problem name (case, dashes, common
    aliases like ``Q||Cmax``); raise :class:`UnknownProblemError` for
    anything unrecognized.

    >>> canonical_problem_name("Q-Cmax")
    'q_cmax'
    >>> canonical_problem_name("p_cmax")
    'p_cmax'
    """
    if not isinstance(name, str):
        raise UnknownProblemError(str(name))
    if name in _PROBLEMS:
        return name
    norm = name.strip().lower().replace("-", "_")
    if norm in _PROBLEMS:
        return norm
    collapsed = norm.replace("_", "")
    if collapsed in _ALIASES:
        return _ALIASES[collapsed]
    raise UnknownProblemError(name)


def get_problem(name: str) -> ProblemModel:
    """Look up a :class:`ProblemModel` by (normalized) name."""
    return _PROBLEMS[canonical_problem_name(name)]


def problem_of_instance(instance: Any) -> str:
    """Infer the problem name from a concrete instance object."""
    if isinstance(instance, QInstance):
        return Q_CMAX
    if isinstance(instance, Instance):
        return P_CMAX
    raise TypeError(
        f"expected Instance or QInstance, got {type(instance).__name__}"
    )

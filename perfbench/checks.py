"""Output verification, run on every answer outside the timed window.

An answer passes when all of these hold:

1. it is ``ok`` and not degraded;
2. its assignment rebuilds into a schedule that
   :func:`repro.model.verify.verify_schedule` accepts;
3. the reported makespan equals the makespan recomputed from the
   assignment;
4. the guarantee it reports is no weaker than the textbook bound of the
   engine that was asked for (``1 + eps`` for the PTAS, Graham's
   ``4/3 - 1/(3m)`` for LPT, ``2 - 2/(m+1)`` for LPT on uniform machines);
5. makespan <= guarantee x the Eq. 1 lower bound, or, where that fails
   on identical machines, makespan <= guarantee x the optimum found by
   the exact ``cp`` engine.

A failed check is counted, never raised: it lands in ``error_rate``.
"""

from __future__ import annotations

from repro.exact.cp import cp_solve
from repro.model.instance import Instance
from repro.model.qinstance import QInstance
from repro.model.verify import verify_schedule
from repro.service.requests import STATUS_REJECTED, SolveResult

#: Search budget of one exact cross-check (cp nodes).
CP_NODE_BUDGET = 2_000_000
_REL_TOL = 1e-9


def textbook_guarantee(engine: str, eps: float, instance: Instance | QInstance) -> float:
    """The a-priori bound the requested engine is known to meet."""
    engine = engine.replace("-", "_")
    if engine in ("ptas", "parallel_ptas"):
        return 1.0 + eps
    if engine == "lpt":
        m = instance.num_machines
        if isinstance(instance, QInstance):
            return 2.0 - 2.0 / (m + 1)
        return 4.0 / 3.0 - 1.0 / (3.0 * m)
    raise ValueError(f"no textbook guarantee for engine {engine!r}")


class Verifier:
    """Classifies answers into :data:`perfbench.metrics.OUTCOMES`.

    Exact optima are cached by the sorted times, so permuted twins cost
    one cross-check.  ``cp_checks`` counts the cross-checks run.
    """

    def __init__(self) -> None:
        self._optima: dict[tuple[tuple[int, ...], int], int | None] = {}
        self.cp_checks = 0

    def outcome(
        self,
        instance: Instance | QInstance,
        result: SolveResult | None,
        engine: str,
        eps: float,
    ) -> str:
        if result is None:
            return "no_answer"
        if result.status == STATUS_REJECTED:
            return "rejected"
        if not result.ok:
            return "error"
        if result.degraded:
            return "degraded"
        try:
            schedule = result.schedule(instance)
        except (ValueError, TypeError):
            return "unverified"
        if not verify_schedule(schedule, instance).ok:
            return "unverified"
        makespan = schedule.makespan
        if result.makespan is None or not _close(float(result.makespan), float(makespan)):
            return "unverified"
        guarantee = result.guarantee
        if guarantee is None or guarantee > textbook_guarantee(engine, eps, instance) + _REL_TOL:
            return "unverified"
        if makespan <= guarantee * instance.trivial_lower_bound() * (1 + _REL_TOL):
            return "ok"
        if isinstance(instance, QInstance):
            return "unverified"  # no exact engine for uniform machines
        opt = self._optimum(instance)
        if opt is not None and makespan <= guarantee * opt * (1 + _REL_TOL):
            return "ok"
        return "unverified"

    def _optimum(self, instance: Instance) -> int | None:
        key = (tuple(sorted(instance.processing_times)), instance.num_machines)
        if key not in self._optima:
            self.cp_checks += 1
            res = cp_solve(instance, node_budget=CP_NODE_BUDGET)
            self._optima[key] = res.makespan if res.optimal else None
        return self._optima[key]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))

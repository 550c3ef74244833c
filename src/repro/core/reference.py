"""Line-by-line reference transcription of the paper's Algorithm 1.

The production pipeline (:mod:`repro.core.ptas`) is modular — bounds,
bisection, rounding, DP, reconstruction live in separate units.  This
module instead transcribes Algorithm 1 as one function whose control flow
follows the paper's pseudocode line numbers, trading every engineering
nicety for auditability.  It exists for one purpose: the test suite runs
it against the modular pipeline on randomized instances and demands
identical makespans and targets, so any refactoring drift in the modular
code is caught against the paper itself.

Deviations from the pseudocode, all noted inline:

* Line 25's ``DP(N, T)`` is the memoized transcription of Eq. 4 (the
  paper's Algorithm 2 is recursive; a literal exponential recursion
  without memoization would not terminate in useful time even on the
  test instances).
* The paper's multiset operations on processing *times* are implemented
  on job *indices* so the final schedule can name jobs; where the paper
  removes "a job of time t from L", we remove the first such index.
"""

from __future__ import annotations

import math

from repro.model.instance import Instance
from repro.model.schedule import Schedule


def algorithm1(instance: Instance, eps: float) -> Schedule:
    """The PTAS exactly as printed (Alg. 1), modulo the notes above."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = instance.num_jobs
    m = instance.num_machines
    times = instance.processing_times

    # Lines 2-3: bounds.
    lb = max(math.ceil(sum(times) / m), max(times))  # Line 2
    ub = math.ceil(sum(times) / m) + max(times)  # Line 3
    k = math.ceil(1.0 / eps)  # Line 4

    best_solution: tuple[int, list[list[int]], list[int]] | None = None

    # Lines 5-30: bisection search for the target makespan T.
    while lb < ub:  # Line 5
        target = (ub + lb) // 2  # Line 6
        short: list[int] = []  # Line 7 (S)
        long_: list[int] = []  # Line 8 (L)
        for j in range(n):  # Lines 9-13
            if times[j] * k <= target:
                short.append(j)
            else:
                long_.append(j)
        unit = math.ceil(target / (k * k))
        # Lines 15-18: round long jobs down to multiples of unit; we keep
        # (job, rounded size) pairs instead of a bare multiset.
        rounded: list[tuple[int, int]] = []
        for j in long_:
            i = times[j] // unit  # the i with i*unit <= t < (i+1)*unit
            rounded.append((j, i * unit))
        # Lines 19-24: the count vector N over the k^2 classes.
        counts = [0] * (k * k)
        for _, size in rounded:
            counts[size // unit - 1] += 1

        # Line 25: OPT = DP(N, T) — memoized Eq. 4.
        active = [
            (i + 1) * unit for i in range(k * k) if counts[i] > 0
        ]
        vector = tuple(counts[i] for i in range(k * k) if counts[i] > 0)
        opt_value, assignment = _dp(tuple(active), vector, target)

        if opt_value <= m:  # Line 27
            ub = target  # Line 28
            best_solution = (target, _machines_from(assignment), long_[:])
        else:
            lb = target + 1  # Line 30

    if best_solution is None or best_solution[0] != ub:
        # The paper's loop ends with LB == UB and implicitly has the
        # schedule for that target; regenerate it if the last accepted
        # probe was not UB (or none was accepted).
        target = ub
        short = [j for j in range(n) if times[j] * k <= target]
        long_ = [j for j in range(n) if times[j] * k > target]
        unit = math.ceil(target / (k * k))
        counts = [0] * (k * k)
        for j in long_:
            counts[times[j] // unit - 1] += 1
        active = [(i + 1) * unit for i in range(k * k) if counts[i] > 0]
        vector = tuple(counts[i] for i in range(k * k) if counts[i] > 0)
        opt_value, assignment = _dp(tuple(active), vector, target)
        assert opt_value <= m, "UB must be feasible"
        best_solution = (target, _machines_from(assignment), long_)

    target, machine_classes, long_jobs = best_solution
    unit = math.ceil(target / (k * k))
    short = [j for j in range(n) if times[j] * k <= target]

    # Lines 31-40: replace rounded jobs by original long jobs.  The paper
    # scans L for a job with rounded_size <= t < rounded_size + unit.
    remaining = list(long_jobs)
    machines: list[list[int]] = [[] for _ in range(m)]
    loads = [0] * m  # Line 32 (w_i)
    for i, class_sizes in enumerate(machine_classes):  # Lines 31-40
        for size in class_sizes:
            for j in remaining:  # Lines 34-39
                if size <= times[j] < size + unit:
                    machines[i].append(j)
                    loads[i] += times[j]
                    remaining.remove(j)
                    break
            else:  # pragma: no cover - DP witness guarantees a match
                raise AssertionError("no long job matches the rounded slot")
    assert not remaining, "every long job must be placed"

    # Lines 41-51: LPT for the short jobs.
    short.sort(key=lambda j: (-times[j], j))  # Line 41
    for j in short:  # Lines 42-50
        best_machine = 0
        best_load = loads[0]
        for i in range(1, m):  # Lines 45-48
            if loads[i] < best_load:
                best_load = loads[i]
                best_machine = i
        machines[best_machine].append(j)  # Line 49
        loads[best_machine] += times[j]  # Line 50
    return Schedule(instance, machines)  # Line 51


def _dp(
    sizes: tuple[int, ...], counts: tuple[int, ...], target: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Memoized Eq. 4 over the compressed class vector.

    Returns ``OPT(counts)`` and one optimal list of machine
    configurations (Line 26's "obtain schedule from DP-table").
    """
    if not counts or not any(counts):
        return 0, []
    # Machine configurations C (Eq. 3), enumerated over the class box.
    configs: list[tuple[int, ...]] = []

    def enumerate_configs(c: int, budget: int, current: list[int]) -> None:
        if c == len(sizes):
            if any(current):
                configs.append(tuple(current))
            return
        max_count = min(counts[c], budget // sizes[c])
        for count in range(max_count + 1):
            current.append(count)
            enumerate_configs(c + 1, budget - count * sizes[c], current)
            current.pop()

    enumerate_configs(0, target, [])

    memo: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None]] = {}

    import sys

    def opt(v: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
        if not any(v):
            return 0, None
        hit = memo.get(v)
        if hit is not None:
            return hit
        best = (10**9, None)
        for cfg in configs:
            if all(s <= vc for s, vc in zip(cfg, v)):
                sub, _ = opt(tuple(vc - s for vc, s in zip(v, cfg)))
                if sub + 1 < best[0]:
                    best = (sub + 1, cfg)
        memo[v] = best
        return best

    # The recursion is one frame per machine; lift the interpreter's
    # limit for this call only.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, sum(counts) * 2 + 64))
    try:
        value, _ = opt(counts)
    finally:
        sys.setrecursionlimit(old_limit)
    # Backtrack the chosen configurations.
    chosen: list[tuple[int, ...]] = []
    v = counts
    while any(v):
        _, cfg = opt(v)
        assert cfg is not None
        chosen.append(cfg)
        v = tuple(vc - s for vc, s in zip(v, cfg))
    # Convert configurations into per-machine rounded-size lists.
    expanded: list[tuple[int, ...]] = []
    for cfg in chosen:
        slot: list[int] = []
        for c, count in enumerate(cfg):
            slot.extend([sizes[c]] * count)
        expanded.append(tuple(slot))
    return value, expanded


def _machines_from(assignment: list[tuple[int, ...]]) -> list[list[int]]:
    return [list(slot) for slot in assignment]

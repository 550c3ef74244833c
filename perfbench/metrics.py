"""Metric math of the benchmark: pure functions, no I/O, no solver imports.

Kept apart from the drivers so that ``perfbench/tests`` can pin each rule
down on hand-made inputs:

* :func:`percentile` — the percentile rule behind ``latency_p50_ms`` and
  ``latency_p90_ms``;
* :func:`self_times` — a span's self time when its children overlap;
* :class:`OpTally` — which outcomes count as failed in ``error_rate``;
* :func:`pool_ipc_ms` — the supervisor-to-worker overhead of the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*, interpolated linearly
    between the two nearest order statistics.

    This is the ``inclusive`` rule of :func:`statistics.quantiles`: the
    result moves smoothly as one sample changes, so a percentile does not
    jump a whole step between two instances when a single op gets a
    little faster.

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.5
    >>> percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 90)
    9.1
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``.

    >>> union_length([(0, 2), (1, 3), (5, 6)], 0, 10)
    4.0
    >>> union_length([(0, 2), (1, 3)], 1.5, 2.5)
    1.0
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: float | None = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(root: Any) -> dict[str, float]:
    """Self seconds per span kind over the tree under *root*.

    A span's self time is its duration minus the part of its interval
    that its children cover.  Children of one span may overlap (the
    concurrent probes of a speculative round do), so the covered part is
    the length of the *union* of the child intervals, never their sum.
    Where no two siblings overlap, the self times of a tree add up to the
    root's duration exactly.

    *root* is duck-typed against :class:`repro.obs.trace.Span`
    (``kind``, ``start``, ``end``, ``children``); open spans count zero.
    """
    out: dict[str, float] = {}
    stack = [root]
    while stack:
        span = stack.pop()
        if span.end is None:
            continue
        covered = union_length(
            ((c.start, c.end) for c in span.children if c.end is not None),
            span.start,
            span.end,
        )
        out[span.kind] = out.get(span.kind, 0.0) + (span.end - span.start) - covered
        stack.extend(span.children)
    return out


#: Outcome labels an op can end with; everything but ``ok`` is a failure.
OUTCOMES = ("ok", "error", "rejected", "degraded", "unverified", "no_answer")


@dataclass
class OpTally:
    """Counts of op outcomes; ``error_rate`` is failed over attempted.

    An op fails when it errored, was rejected by admission, came back
    degraded (a weaker guarantee than the one asked for), failed output
    verification, or got no answer at all.

    >>> t = OpTally()
    >>> for outcome in ("ok", "ok", "rejected", "degraded"):
    ...     t.add(outcome)
    >>> t.attempted, t.failed, t.error_rate
    (4, 2, 0.5)
    """

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))

    def add(self, outcome: str) -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}; valid: {list(OUTCOMES)}")
        self.counts[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was counted (``den == 0``)."""
    return num / den if den else 0.0


def pool_ipc_ms(latency_sum_s: float, solve_sum_s: float, dispatched: int) -> float:
    """Pool IPC overhead per dispatched request, in milliseconds.

    ``(sum of supervisor request latency - sum of worker solve seconds) /
    dispatched``: what a request spends between the supervisor and a
    worker (framing, pipe hops, shard queueing) beyond the solve itself.

    >>> round(pool_ipc_ms(1.5, 1.0, 100), 9)
    5.0
    """
    if dispatched <= 0:
        return 0.0
    return (latency_sum_s - solve_sum_s) / dispatched * 1e3

"""Machine-configuration enumeration (Eq. 3).

A *machine configuration* is a vector ``s = (s_1, ..., s_d)`` stating how
many rounded long jobs of each class a single machine executes, subject
to the capacity constraint

    sum_c class_sizes[c] * s[c]  <=  T.

The DP recurrence (Eq. 4) subtracts configurations from the remaining job
vector, so the enumeration is also bounded componentwise by the job
counts ``N`` (a machine cannot run more jobs of a class than exist).

Because every rounded long-job size exceeds roughly ``T/k``, a feasible
configuration contains at most about ``k`` jobs, so the configuration set
is small (polynomial in ``k`` for fixed ``d``) even when the DP table is
huge — exactly the property the Hochbaum–Shmoys analysis uses.

Two enumerations are provided:

* :func:`enumerate_configurations` — all non-zero feasible configurations
  (what Alg. 2/3 call ``C``); used by the faithful DP engines.
* :func:`enumerate_maximal_configurations` — only the configurations to
  which no further job can be added.  Sufficient for the *cover*
  formulation used by the optimized dominance engine (any machine can
  drop jobs from a maximal configuration), and typically far fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


@dataclass(frozen=True)
class ConfigurationSet:
    """All feasible machine configurations for one DP invocation.

    Attributes
    ----------
    class_sizes:
        Rounded size of each class (ascending, matching
        :class:`~repro.core.rounding.RoundedInstance`).
    target:
        The capacity ``T`` every configuration must respect.
    configs:
        Non-zero feasible configurations, each a tuple of per-class
        counts.  Deterministically ordered (lexicographic).
    weights:
        ``weights[i]`` is the total rounded load of ``configs[i]``.
    """

    class_sizes: tuple[int, ...]
    target: int
    configs: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.configs)

    def fits(self, config: Sequence[int]) -> bool:
        """Check Eq. (3) for an arbitrary vector against this capacity."""
        weight = sum(s * size for s, size in zip(config, self.class_sizes))
        return weight <= self.target


def _enumerate(
    class_sizes: tuple[int, ...],
    caps: tuple[int, ...],
    target: int,
    max_jobs: int | None,
) -> list[tuple[int, ...]]:
    """Every configuration, grown one class at a time.

    Each pass extends every partial configuration by each feasible count
    of the next class, in ascending order, so the result is
    lexicographic.  Since sizes are positive the remaining budget shrinks
    monotonically and no infeasible prefix is ever extended.
    ``max_jobs`` additionally bounds the total count (the
    integral-rounding guarantee fix; see ``enumerate_configurations``).
    A plain loop rather than a recursive closure: a closure that calls
    itself is a reference cycle, which would keep every output alive
    until the next full garbage collection.
    """
    partial = [((), target, target if max_jobs is None else max_jobs)]
    for size, cap in zip(class_sizes, caps):
        grown = []
        for prefix, budget, jobs_left in partial:
            for count in range(min(cap, budget // size, jobs_left) + 1):
                grown.append(
                    (prefix + (count,), budget - count * size, jobs_left - count)
                )
        partial = grown
    return [prefix for prefix, _, _ in partial]


def _enumerate_maximal(
    class_sizes: tuple[int, ...],
    caps: tuple[int, ...],
    target: int,
    max_jobs: int | None,
) -> list[tuple[int, ...]]:
    """The maximal configurations of :func:`_enumerate`, in its order.

    Each partial configuration also carries the smallest size among its
    classes that still have room (count below cap).  A complete one is
    maximal when that size exceeds the remaining budget, or when the job
    cap is reached — exactly :func:`is_maximal`.  The last class only
    takes its largest feasible count: one job fewer leaves room for one
    more of that class.
    """
    no_room = float("inf")
    partial = [((), target, target if max_jobs is None else max_jobs, no_room)]
    last = len(class_sizes) - 1
    for c, (size, cap) in enumerate(zip(class_sizes, caps)):
        grown = []
        for prefix, budget, jobs_left, open_size in partial:
            limit = min(cap, budget // size, jobs_left)
            smaller = size if size < open_size else open_size
            for count in range(limit if c == last else 0, limit + 1):
                grown.append(
                    (
                        prefix + (count,),
                        budget - count * size,
                        jobs_left - count,
                        open_size if count == cap else smaller,
                    )
                )
        partial = grown
    return [
        prefix
        for prefix, budget, jobs_left, open_size in partial
        if jobs_left == 0 or open_size > budget
    ]


# Small on purpose: enumerations rarely repeat.  With 4096 entries about
# 7% of lookups hit, on the PTAS panel and on the service stream alike,
# and the cached tuples kept some 15 MB resident; 32 entries hit 0-1%.
@lru_cache(maxsize=32)
def _enumerate_cached(
    class_sizes: tuple[int, ...],
    caps: tuple[int, ...],
    target: int,
    max_jobs: int | None,
    maximal: bool = False,
) -> tuple[tuple[int, ...], ...]:
    enumerate_fn = _enumerate_maximal if maximal else _enumerate
    return tuple(enumerate_fn(class_sizes, caps, target, max_jobs))


def _validated(
    class_sizes: Sequence[int],
    caps: Sequence[int],
    target: int,
    max_jobs: int | None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(class_sizes, caps)`` as int tuples, after checking every input."""
    sizes = tuple(int(s) for s in class_sizes)
    caps_t = tuple(int(c) for c in caps)
    if len(sizes) != len(caps_t):
        raise ValueError("class_sizes and caps must have equal length")
    for s in sizes:
        if s <= 0:
            raise ValueError(f"class sizes must be positive, got {s}")
    for c in caps_t:
        if c < 0:
            raise ValueError(f"caps must be non-negative, got {c}")
    if target < 0:
        raise ValueError(f"target must be non-negative, got {target}")
    if max_jobs is not None and max_jobs < 0:
        raise ValueError(f"max_jobs must be non-negative, got {max_jobs}")
    return sizes, caps_t


def _configuration_set(
    sizes: tuple[int, ...], target: int, configs: tuple[tuple[int, ...], ...]
) -> ConfigurationSet:
    weights = tuple(
        sum(count * size for count, size in zip(cfg, sizes)) for cfg in configs
    )
    return ConfigurationSet(sizes, int(target), configs, weights)


def enumerate_configurations(
    class_sizes: Sequence[int],
    caps: Sequence[int],
    target: int,
    include_zero: bool = False,
    max_jobs: int | None = None,
) -> ConfigurationSet:
    """All configurations ``0 <= s <= caps`` with weight ``<= target``.

    The zero configuration means "assign nothing to this machine"; the DP
    recurrence excludes it (Alg. 3, line 17 note), so it is dropped unless
    ``include_zero`` is set.

    ``max_jobs`` caps the *total* job count of a configuration.  The paper
    (Eq. 3) constrains weight only, but with integer rounding a long job
    can round below ``T/k``, letting a weight-only configuration carry so
    many long jobs that un-rounding overshoots the ``(1 + 1/k) T``
    guarantee.  Any true schedule of makespan ``<= T`` places at most
    ``k - 1`` long jobs per machine (each exceeds ``T/k`` strictly), so
    passing ``max_jobs = k - 1`` is lossless for the decision and restores
    the guarantee — see ``docs/algorithm.md`` ("the integrality gap").

    >>> cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
    >>> cs.configs
    ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
    >>> enumerate_configurations([6, 11], caps=[2, 3], target=30, max_jobs=1).configs
    ((0, 1), (1, 0))
    """
    sizes, caps_t = _validated(class_sizes, caps, target, max_jobs)
    all_configs = _enumerate_cached(sizes, caps_t, int(target), max_jobs)
    if not include_zero:
        all_configs = tuple(cfg for cfg in all_configs if any(cfg))
    return _configuration_set(sizes, target, all_configs)


def is_maximal(
    config: Sequence[int],
    class_sizes: Sequence[int],
    caps: Sequence[int],
    target: int,
    max_jobs: int | None = None,
) -> bool:
    """True iff no class count of ``config`` can be incremented without
    violating its cap, the capacity ``target``, or the ``max_jobs``
    bound."""
    weight = sum(s * size for s, size in zip(config, class_sizes))
    if weight > target:
        return False
    total = sum(config)
    if max_jobs is not None and total > max_jobs:
        return False
    if max_jobs is not None and total == max_jobs:
        return True
    for c, (count, cap) in enumerate(zip(config, caps)):
        if count < cap and weight + class_sizes[c] <= target:
            return False
    return True


def enumerate_maximal_configurations(
    class_sizes: Sequence[int],
    caps: Sequence[int],
    target: int,
    max_jobs: int | None = None,
) -> ConfigurationSet:
    """Only the Pareto-maximal feasible configurations.

    A configuration is maximal when no job of any class can be added.  In
    the *cover* relaxation (machines may under-fill a configuration), a
    multiset of machines can pack ``N`` iff some choice of maximal
    configurations componentwise-covers ``N``, so restricting the search
    to maximal configurations is lossless there.  One pass emits only the
    maximal ones, in the order of :func:`enumerate_configurations`
    (the zero configuration excluded).
    """
    sizes, caps_t = _validated(class_sizes, caps, target, max_jobs)
    maximal = _enumerate_cached(sizes, caps_t, int(target), max_jobs, True)
    return _configuration_set(sizes, target, tuple(cfg for cfg in maximal if any(cfg)))


def configuration_count_bound(k: int, num_classes: int) -> int:
    """Loose analytic bound on ``|C|`` used in the paper's complexity
    discussion: at most ``k`` long jobs fit in a machine, spread over
    ``num_classes`` classes, giving ``<= (num_classes + 1)^k`` choices."""
    return (num_classes + 1) ** max(k, 1)

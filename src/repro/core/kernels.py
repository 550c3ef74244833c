"""Vectorized anti-diagonal (wavefront) kernel shared by all backends.

Every wavefront execution of the rounded DP — the numpy sequential
engine, the numpy-serial reference, the thread backend and the
simulated multicore machine — computes the same
per-level update: for each state ``v`` of one anti-diagonal, minimize
``OPT(v - s) + 1`` over the machine configurations ``s <= v``.  This
module holds the single implementation of that update,
:class:`LevelKernel`, so the recurrence exists exactly once.

The kernel is data-parallel: it treats a whole anti-diagonal (or any
chunk of one) as one ``(q, |C_l|)`` block of lanes, every state against
every configuration that fits the level, and runs each step over the
whole block at once — unrank the states, componentwise bound check,
gather of the predecessor entries, row minimum.  The step count per
chunk does not grow with ``|C|``, so small levels pay a handful of numpy
calls instead of one pass per configuration.  All table arithmetic is
numpy on ``int64`` arrays, which makes the *thread* backend genuinely
parallel: numpy releases the GIL during array ops, so threads scale like
the paper's OpenMP loops instead of serializing on pure-Python bytecode.

Sentinel convention
-------------------
The table is an ``int64`` array; entries holding
:data:`KERNEL_INFEASIBLE` (a large positive value, *not* ``-1``) mean
"no packing reaches this state".  A single positive sentinel keeps the
update branch-free: ``min`` over candidates never needs to special-case
infeasible predecessors because ``KERNEL_INFEASIBLE + 1`` still compares
greater than every real machine count.  :func:`table_opt` converts back
to the ``None``-based convention of :class:`repro.core.dp.DPResult`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dp imports us)
    from repro.core.configurations import ConfigurationSet
    from repro.core.dp import DPProblem

#: Table sentinel for "state unreachable within the target".  Half the
#: ``int64`` range so that ``sentinel + 1`` (a candidate produced by an
#: infeasible predecessor) cannot overflow and still exceeds every real
#: machine count.
KERNEL_INFEASIBLE: int = np.iinfo(np.int64).max // 2

#: Lanes (states x configurations) in one fused block of
#: :meth:`LevelKernel.update`.  Wider chunks are cut into row slices so
#: the block's temporaries (three int64 lane arrays and a byte mask) stay
#: under 1 MB whatever the level width; twice the budget ran no faster
#: on the paper's panel and kept about 1 MB more resident.
LANE_BUDGET: int = 1 << 15


def row_major_strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a table with the given axis extents."""
    d = len(dims)
    strides = [1] * d
    for c in range(d - 2, -1, -1):
        strides[c] = strides[c + 1] * dims[c + 1]
    return tuple(strides)


def build_level_arrays(dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Group all flat table indices by anti-diagonal, as ``int64`` arrays.

    ``result[l]`` holds the flat indices whose count vectors sum to
    ``l``, ascending — the materialized ``D`` array of Alg. 3 without
    boxing a single Python int.  For an empty ``dims`` the table is the
    single state ``OPT(()) = 0``.

    The arrays are read-only and memoized by ``dims``: the probes of one
    bisection often round to the same table shape.
    """
    return _level_arrays(tuple(map(int, dims)))


@lru_cache(maxsize=4)
def _level_arrays(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    top = sum(dims) - len(dims)
    dtype = np.int16 if top <= np.iinfo(np.int16).max else np.int64
    # Level of every flat index in row-major order, one axis at a time.
    levels = np.zeros(1, dtype=dtype)
    for dim in dims:
        levels = (levels[:, None] + np.arange(dim, dtype=dtype)).ravel()
    # Stable, so each level stays ascending; radix sort for int16 keys.
    order = np.argsort(levels, kind="stable")
    order.flags.writeable = False
    bounds = np.cumsum(np.bincount(levels, minlength=top + 1)).tolist()
    return tuple(
        order[lo:hi] for lo, hi in zip([0, *bounds[:-1]], bounds)
    )


def table_opt(table: np.ndarray, index: int) -> int | None:
    """Read one table entry, mapping the sentinel back to ``None``."""
    value = int(table[index])
    return None if value >= KERNEL_INFEASIBLE else value


def table_to_optional(table: np.ndarray) -> list[int | None]:
    """Whole-table conversion to the ``None``-sentinel list form."""
    return [None if v >= KERNEL_INFEASIBLE else int(v) for v in table]


class LevelKernel:
    """The vectorized per-level DP update, shared by every backend.

    Instances are cheap, immutable in practice, and picklable.
    """

    def __init__(
        self,
        dims: Sequence[int],
        strides: Sequence[int],
        configs: "ConfigurationSet | Sequence[tuple[int, ...]]",
    ) -> None:
        """Build from the table geometry and the configuration set.

        ``configs`` may be a
        :class:`~repro.core.configurations.ConfigurationSet` or any
        sequence of configuration tuples (canonical order).
        """
        self.dims = np.asarray(tuple(dims), dtype=np.int64)
        self.strides = np.asarray(tuple(strides), dtype=np.int64)
        raw = configs.configs if hasattr(configs, "configs") else tuple(configs)
        d = len(self.dims)
        cfg = np.asarray(raw, dtype=np.int64).reshape(len(raw), d)
        sums = cfg.sum(axis=1)
        # Configurations are kept in component-sum order: one whose sum
        # exceeds a level fits none of its states, so the ones applicable
        # to a level are a prefix (the minimum does not depend on order).
        order = np.argsort(sums, kind="stable")
        self.cfg_matrix = cfg[order]
        #: Component sum of each configuration, ascending.
        self.cfg_level_sums = sums[order]
        #: Flat-index offset of each configuration: ``dot(s, strides)``.
        self.offsets = self.cfg_matrix @ self.strides
        # Bound-check table: row ``axis_base[c] + v`` is a little-endian
        # bit set of the configurations ``s`` with ``s[c] <= v``, so the
        # configurations that fit a state are the AND of its d rows — one
        # gather per state instead of d comparisons per lane.
        self._axis_base = np.cumsum(self.dims) - self.dims
        fits = [
            np.arange(dim)[:, None] >= self.cfg_matrix[:, c]
            for c, dim in enumerate(self.dims)
        ]
        self._fit_bits = np.packbits(
            np.concatenate(fits) if fits else np.zeros((0, len(raw)), dtype=bool),
            axis=1,
            bitorder="little",
        )

    @classmethod
    def for_problem(
        cls,
        problem: "DPProblem",
        configs: "ConfigurationSet | None" = None,
    ) -> "LevelKernel":
        """Kernel for one :class:`~repro.core.dp.DPProblem` (enumerates
        the configuration set unless one is supplied)."""
        if configs is None:
            configs = problem.configurations()
        return cls(problem.dims, problem.strides(), configs)

    @property
    def num_configs(self) -> int:
        """``|C|`` — columns of a full (``level=None``) update block."""
        return len(self.offsets)

    def allocate_table(self, sigma: int) -> np.ndarray:
        """Fresh ``int64`` table: all-infeasible except ``OPT(0) = 0``."""
        table = np.empty(sigma, dtype=np.int64)
        self.init_table(table)
        return table

    def init_table(self, table: np.ndarray) -> None:
        """Initialize an externally allocated table (e.g. shared memory)
        in place to the all-infeasible / ``OPT(0) = 0`` state."""
        table.fill(KERNEL_INFEASIBLE)
        table[0] = 0

    def applicable_configs(self, level: int) -> int:
        """``|C_l|`` — configurations whose component sum fits within
        anti-diagonal ``level`` (the columns of a level-aware update)."""
        return int(np.searchsorted(self.cfg_level_sums, level, side="right"))

    def update(
        self,
        table: np.ndarray,
        flats: np.ndarray,
        *,
        level: int | None = None,
        count_applicable: bool = False,
    ) -> np.ndarray | None:
        """Compute one chunk of one anti-diagonal, in place.

        ``flats`` are flat indices whose predecessors (strictly earlier
        anti-diagonals) are already final; chunks of the same level are
        disjoint, so concurrent calls need no locking — the argument that
        makes the paper's OpenMP loop race-free.

        The chunk is one ``(q, |C_l|)`` block of lanes — every state
        against every applicable configuration — processed in fused
        numpy passes: componentwise bound check, predecessor gather and
        row minimum.  Blocks wider than :data:`LANE_BUDGET` lanes are
        cut into row slices, so temporaries stay bounded.

        ``level`` (the chunk's anti-diagonal index, when the caller knows
        it) prunes configurations: one with component sum above the
        level cannot be ``<=`` any of its states, so its column is
        dropped from the block.  The result is bit-identical — the
        dropped columns contribute nothing.

        With ``count_applicable`` the per-state ``|C_v|`` (configurations
        passing the componentwise bound — what Alg. 3's per-state
        enumeration pays for) is returned for the simulated machine's
        per-state cost fidelity; otherwise returns ``None``.
        """
        flats = np.ascontiguousarray(flats, dtype=np.int64)
        q = len(flats)
        counts = np.zeros(q, dtype=np.int64) if count_applicable else None
        if q == 0:
            return counts
        k = self.num_configs if level is None else self.applicable_configs(level)
        best = np.full(q, KERNEL_INFEASIBLE, dtype=np.int64)
        if k:
            fit_bits = self._fit_bits[:, : -(-k // 8)]
            offsets = self.offsets[:k]
            rows = max(1, LANE_BUDGET // k)
            for lo in range(0, q, rows):
                block = flats[lo : lo + rows]
                # Unrank the rows, then AND one bit-set row per axis.
                axis_rows = (block[:, None] // self.strides) % self.dims
                axis_rows += self._axis_base
                fit = np.bitwise_and.reduce(fit_bits[axis_rows], axis=1)
                misfit = np.unpackbits(~fit, axis=1, count=k, bitorder="little")
                # ``flat - offset`` lies in (-sigma, sigma), a valid index
                # even on misfit lanes; their penalty keeps them at or
                # above the sentinel, so they never win the minimum.
                vals = table[block[:, None] - offsets]
                vals += misfit * np.int64(KERNEL_INFEASIBLE)
                best[lo : lo + rows] = vals.min(axis=1)
                if counts is not None:
                    counts[lo : lo + rows] = k - misfit.sum(axis=1)
            # One more machine; an infeasible minimum stays infeasible.
            best += 1
            np.minimum(best, KERNEL_INFEASIBLE, out=best)
        zero = flats == 0
        if zero.any():
            best[zero] = 0
        table[flats] = best
        return counts

    def sweep(
        self, table: np.ndarray, levels: Sequence[np.ndarray]
    ) -> None:
        """Serial whole-table fill: one :meth:`update` per anti-diagonal
        (levels after the zeroth, whose single state the allocation set),
        with level-pruned configuration passes."""
        for level, flats in enumerate(levels[1:], start=1):
            self.update(table, flats, level=level)

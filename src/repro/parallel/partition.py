"""Partitioning a level's subproblems across ``P`` workers.

Alg. 3 assigns the iterations of its ``parallel for`` to processors in a
round-robin fashion: iteration ``i`` goes to processor ``i mod P``, so a
processor executes at most ``ceil(q_l / P)`` subproblems of a level with
``q_l`` entries.  :func:`round_robin_partition` reproduces exactly that
assignment.  It is numpy-aware: a level supplied as an ``ndarray`` (how
:class:`repro.core.parallel_dp.LevelIndex` stores anti-diagonals) is
sliced into ``ndarray`` chunks — no per-element boxing into Python ints.
Plain sequences keep the historical list-of-lists behaviour.

The tile schedule's contiguous flat-index blocks
(:func:`flat_block_bounds`, :func:`split_level_by_blocks`) live here too.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def round_robin_partition(items: Sequence[T], num_workers: int) -> list[Sequence[T]]:
    """Split ``items`` into ``num_workers`` chunks, item ``i`` to worker
    ``i mod num_workers`` (Alg. 3 semantics).  Trailing workers may receive
    empty chunks when there are fewer items than workers.  ``ndarray``
    input yields ``ndarray`` (strided-view) chunks; other sequences yield
    lists.

    >>> round_robin_partition([0, 1, 2, 3, 4], 2)
    [[0, 2, 4], [1, 3]]
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if isinstance(items, np.ndarray):
        return [items[w::num_workers] for w in range(num_workers)]
    return [list(items[w::num_workers]) for w in range(num_workers)]


# ---------------------------------------------------------------------------
# Contiguous flat-index blocks (persistent per-worker ownership)
# ---------------------------------------------------------------------------

def flat_block_bounds(table_size: int, num_blocks: int) -> np.ndarray:
    """Boundaries of ``num_blocks`` contiguous, near-equal flat-index
    blocks covering ``[0, table_size)``.

    Returns an ``int64`` array of ``num_blocks + 1`` ascending bounds;
    block ``b`` owns flat indices ``[bounds[b], bounds[b+1])``.  The
    same bounds are used for *every* level of a probe, which is what
    gives a worker persistent ownership of its slice of the table: the
    rows it writes at level ``l`` are the rows it reads from at later
    levels whenever the predecessor stays in-block.

    >>> flat_block_bounds(10, 3).tolist()
    [0, 4, 7, 10]
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if table_size < 0:
        raise ValueError(f"table_size must be >= 0, got {table_size}")
    base, extra = divmod(table_size, num_blocks)
    sizes = [base + (1 if b < extra else 0) for b in range(num_blocks)]
    return np.cumsum([0] + sizes, dtype=np.int64)


def split_level_by_blocks(
    level: np.ndarray, bounds: np.ndarray
) -> list[np.ndarray]:
    """Split one level's ascending flat-index array at the block bounds.

    ``level`` must be sorted ascending (how
    :func:`repro.core.kernels.build_level_arrays` emits anti-diagonals);
    the split is two ``searchsorted`` calls per block boundary, no
    copying.  Levels narrower than the block count yield empty chunks
    for the blocks that own none of their states — including fully
    empty levels, which yield all-empty chunks.

    >>> import numpy as np
    >>> [c.tolist() for c in split_level_by_blocks(
    ...     np.array([1, 3, 4, 8], dtype=np.int64),
    ...     flat_block_bounds(10, 3))]
    [[1, 3], [4], [8]]
    """
    level = np.asarray(level, dtype=np.int64)
    cuts = np.searchsorted(level, bounds, side="left")
    return [
        level[cuts[b] : cuts[b + 1]] for b in range(len(bounds) - 1)
    ]

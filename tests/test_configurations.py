"""Unit tests for :mod:`repro.core.configurations` (Eq. 3)."""

from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configurations import (
    _enumerate,
    _enumerate_maximal,
    configuration_count_bound,
    enumerate_configurations,
    enumerate_maximal_configurations,
    is_maximal,
)


class TestEnumeration:
    def test_paper_example(self):
        """§III lists exactly these configurations for sizes (6, 11), T=30."""
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        assert set(cs.configs) == {
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
        }

    def test_include_zero(self):
        cs = enumerate_configurations([5], caps=[1], target=10, include_zero=True)
        assert (0,) in cs.configs

    def test_zero_excluded_by_default(self):
        cs = enumerate_configurations([5], caps=[1], target=10)
        assert (0,) not in cs.configs

    def test_weights_match(self):
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        for cfg, w in zip(cs.configs, cs.weights):
            assert w == 6 * cfg[0] + 11 * cfg[1]
            assert w <= 30

    def test_cap_respected(self):
        cs = enumerate_configurations([1], caps=[3], target=100)
        assert set(cs.configs) == {(1,), (2,), (3,)}

    def test_target_zero_only_zero_config(self):
        cs = enumerate_configurations([5], caps=[4], target=0)
        assert len(cs) == 0

    def test_fits(self):
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        assert cs.fits((1, 2))
        assert not cs.fits((2, 2))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            enumerate_configurations([0], caps=[1], target=5)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            enumerate_configurations([2], caps=[-1], target=5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_configurations([2, 3], caps=[1], target=5)

    def test_deterministic_order(self):
        a = enumerate_configurations([3, 5], caps=[2, 2], target=10)
        b = enumerate_configurations([3, 5], caps=[2, 2], target=10)
        assert a.configs == b.configs


class TestMaximal:
    def test_is_maximal_basic(self):
        # sizes (6, 11), caps (2, 3), T=30: (1, 2) has weight 28; adding a
        # 6 exceeds 30 by 34>30... 28+6=34>30, adding an 11 -> 39>30: maximal.
        assert is_maximal((1, 2), [6, 11], [2, 3], 30)
        # (0, 2) can still take a 6 (22+6=28<=30): not maximal.
        assert not is_maximal((0, 2), [6, 11], [2, 3], 30)

    def test_overweight_is_not_maximal(self):
        assert not is_maximal((3, 3), [6, 11], [3, 3], 30)

    def test_cap_saturation_counts_as_maximal(self):
        # All caps reached -> maximal even with spare capacity.
        assert is_maximal((1, 1), [2, 3], [1, 1], 100)

    def test_maximal_subset_of_full(self):
        full = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        maximal = enumerate_maximal_configurations([6, 11], caps=[2, 3], target=30)
        assert set(maximal.configs) <= set(full.configs)
        assert len(maximal) < len(full)

    def test_every_config_dominated_by_some_maximal(self):
        sizes, caps, target = [4, 7], [3, 2], 20
        full = enumerate_configurations(sizes, caps, target)
        maximal = enumerate_maximal_configurations(sizes, caps, target)
        for cfg in full.configs:
            assert any(
                all(mc >= c for mc, c in zip(mcfg, cfg)) for mcfg in maximal.configs
            ), f"{cfg} not covered by any maximal configuration"


@given(
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=80)
def test_property_enumeration_complete_and_sound(sizes, caps, target):
    """Cross-check the DFS enumeration against brute-force iteration over
    the whole count box."""
    d = min(len(sizes), len(caps))
    sizes, caps = sizes[:d], caps[:d]
    cs = enumerate_configurations(sizes, caps, target, include_zero=True)
    expected = {
        combo
        for combo in itertools.product(*(range(c + 1) for c in caps))
        if sum(s * x for s, x in zip(sizes, combo)) <= target
    }
    assert set(cs.configs) == expected


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=6)
        ),
        max_size=6,
    ),
    st.integers(min_value=0, max_value=80),
    st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
)
@settings(max_examples=300)
def test_property_maximal_matches_is_maximal_filter(classes, target, max_jobs):
    """The one-pass maximal enumeration equals filtering the full
    enumeration with :func:`is_maximal`: same configurations, same order,
    same weights (unsorted sizes included)."""
    sizes = [size for size, _ in classes]
    caps = [cap for _, cap in classes]
    full = enumerate_configurations(
        sizes, caps, target, include_zero=True, max_jobs=max_jobs
    )
    expected = [
        (cfg, w)
        for cfg, w in zip(full.configs, full.weights)
        if any(cfg) and is_maximal(cfg, sizes, caps, target, max_jobs)
    ]
    got = enumerate_maximal_configurations(sizes, caps, target, max_jobs=max_jobs)
    assert list(zip(got.configs, got.weights)) == expected


@pytest.mark.parametrize("enumerate_fn", [_enumerate, _enumerate_maximal])
def test_enumeration_leaves_no_garbage_cycles(enumerate_fn):
    """An enumeration frees everything it built by reference counting
    alone: with the collector off, nothing is left for it to find."""
    gc.collect()
    gc.disable()
    try:
        configs = enumerate_fn((3, 5, 7, 11), (4, 3, 3, 2), 40, None)
        assert configs
        del configs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_bound_monotone():
    assert configuration_count_bound(4, 2) == 3**4
    assert configuration_count_bound(2, 5) <= configuration_count_bound(3, 5)

"""Tests for benchmark-file bookkeeping (:mod:`repro.io.benchjson`)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.io.benchjson import (
    canonical_json,
    instance_fingerprint,
    load_bench,
    merge_runs,
    stamp_runs,
    update_section,
)


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        a = instance_fingerprint({"family": "u_10n", "m": 10, "n": 50})
        b = instance_fingerprint({"n": 50, "m": 10, "family": "u_10n"})
        assert a == b

    def test_any_field_change_changes_it(self):
        base = {"family": "u_10n", "m": 10, "n": 50, "k": 5}
        fp = instance_fingerprint(base)
        for field, value in [("m", 11), ("n", 51), ("k", 6), ("family", "exp")]:
            assert instance_fingerprint({**base, field: value}) != fp

    def test_short_and_hex(self):
        fp = instance_fingerprint({"x": 1})
        assert len(fp) == 12
        int(fp, 16)  # raises if not hex

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestMergeRuns:
    def test_stamps_new_runs(self):
        merged = merge_runs(None, [{"backend": "thread", "workers": 2}], "abc")
        assert merged == [
            {"backend": "thread", "workers": 2, "fingerprint": "abc"}
        ]

    def test_new_replaces_same_key(self):
        old = stamp_runs(
            [{"backend": "thread", "workers": 2, "seconds": 9.0}], "abc"
        )
        new = [{"backend": "thread", "workers": 2, "seconds": 1.0}]
        merged = merge_runs(old, new, "abc")
        assert len(merged) == 1
        assert merged[0]["seconds"] == 1.0

    def test_distinct_keys_coexist(self):
        old = stamp_runs([{"backend": "thread", "workers": 2}], "abc")
        new = [{"backend": "thread", "workers": 4}]
        merged = merge_runs(old, new, "abc")
        assert [(r["backend"], r["workers"]) for r in merged] == [
            ("thread", 2),
            ("thread", 4),
        ]

    def test_stale_fingerprints_dropped(self):
        old = stamp_runs([{"backend": "serial", "workers": 1}], "old-instance")
        merged = merge_runs(old, [{"backend": "thread", "workers": 2}], "new")
        assert [r["backend"] for r in merged] == ["thread"]

    def test_unstamped_existing_runs_dropped(self):
        # Pre-fingerprint entries have no stamp at all — stale by definition.
        merged = merge_runs(
            [{"backend": "serial", "workers": 1}],
            [{"backend": "thread", "workers": 2}],
            "abc",
        )
        assert [r["backend"] for r in merged] == ["thread"]

    def test_custom_key_fields(self):
        old = stamp_runs(
            [{"backend": "thread", "workers": 2, "schedule": "levels"}], "abc"
        )
        new = [{"backend": "thread", "workers": 2, "schedule": "runs"}]
        merged = merge_runs(
            old, new, "abc", key_fields=("backend", "workers", "schedule")
        )
        assert sorted(r["schedule"] for r in merged) == ["levels", "runs"]

    def test_existing_order_preserved(self):
        old = stamp_runs(
            [
                {"backend": "a", "workers": 1},
                {"backend": "b", "workers": 1},
            ],
            "abc",
        )
        merged = merge_runs(old, [{"backend": "c", "workers": 1}], "abc")
        assert [r["backend"] for r in merged] == ["a", "b", "c"]


class TestBenchFile:
    def test_load_missing_is_empty(self, tmp_path):
        assert load_bench(tmp_path / "absent.json") == {}

    def test_update_section_preserves_others(self, tmp_path):
        path = tmp_path / "BENCH.json"
        update_section(path, "wavefront", {"runs": []})
        update_section(path, "store_latency", {"cold_ms": 3.0})
        doc = json.loads(path.read_text())
        assert set(doc) == {"wavefront", "store_latency"}
        # Rewriting one section leaves the other untouched.
        update_section(path, "wavefront", {"runs": [1]})
        doc = json.loads(path.read_text())
        assert doc["store_latency"] == {"cold_ms": 3.0}
        assert doc["wavefront"] == {"runs": [1]}

    def test_update_section_returns_document(self, tmp_path):
        path = tmp_path / "BENCH.json"
        doc = update_section(path, "s", {"x": 1})
        assert doc == {"s": {"x": 1}}


def _bench_script(name: str):
    """Import ``benchmarks/<name>.py`` (not a package) as a module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWavefrontSection:
    """``bench_kernel.py`` writes exactly the runs it measured."""

    SEEDED = [
        {"backend": "process", "workers": 2, "schedule": "runs"},
        {"backend": "thread", "workers": 2, "schedule": "runs"},
        {"backend": "legacy-thread", "workers": 2, "schedule": "levels"},
    ]

    def test_write_keeps_no_row_of_a_retired_backend(self, tmp_path):
        bench = _bench_script("bench_kernel")
        path = tmp_path / "BENCH_dp.json"
        update_section(
            path,
            bench.SECTION,
            {"fingerprint": "fp", "runs": stamp_runs(self.SEEDED, "fp")},
        )
        bench.write_section(
            {"fingerprint": "fp"},
            [{"backend": "thread", "workers": 2, "schedule": "runs"}],
            path,
        )
        runs = load_bench(path)[bench.SECTION]["runs"]
        assert [(r["backend"], r["workers"], r["schedule"]) for r in runs] == [
            ("thread", 2, "runs")
        ]
        assert runs[0]["fingerprint"] == "fp"

    def test_check_baseline_flags_rows_of_retired_backends(self):
        bench = _bench_script("bench_kernel")
        failures = bench.unknown_backend_failures(
            {"runs": stamp_runs(self.SEEDED, "fp")}
        )
        assert len(failures) == 1
        assert "'process'" in failures[0]

"""Tests for the observability layer (:mod:`repro.obs`): span trees,
export round-trips, schema validation, profiling, and the traced solver
stack."""

from __future__ import annotations

import json
import time

import pytest

from repro.core import SolveContext, parallel_ptas, ptas
from repro.model.instance import Instance
from repro.obs import (
    NULL_TRACER,
    SPAN_KINDS,
    SamplingProfiler,
    TraceSchemaError,
    Tracer,
    load_trace,
    publish_phase_summary,
    save_trace,
    trace_to_payload,
    validate_trace,
    validate_trace_file,
)
from repro.obs.export import payload_to_trace
from repro.obs.schema import _check, load_schema
from repro.obs.trace import _NULL_SPAN
from repro.service.metrics import MetricsRegistry
from repro.workloads.suites import suite

INSTANCE = Instance([7, 7, 6, 6, 5, 4, 4, 3, 9, 2, 11, 5], num_machines=3)


class TestTracer:
    def test_span_nesting_and_walk(self):
        tracer = Tracer()
        with tracer.span("solve") as root:
            with tracer.span("probe", target=10):
                with tracer.span("round"):
                    pass
            with tracer.span("probe", target=5):
                pass
        assert [s.kind for s in root.walk()] == ["solve", "probe", "round", "probe"]
        assert len(tracer.find("probe")) == 2
        assert root.end is not None and root.end >= root.start

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("probes")
        tracer.count("probes")
        tracer.count("configs_enumerated", 41)
        assert tracer.counters == {"probes": 2, "configs_enumerated": 41}

    def test_late_attrs_via_set(self):
        tracer = Tracer()
        with tracer.span("probe", target=9) as sp:
            sp.set(feasible=True)
        assert sp.attrs == {"target": 9, "feasible": True}

    def test_phase_summary_counts_and_seconds(self):
        clock_values = iter([0.0, 1.0, 3.0, 4.0])
        tracer = Tracer(clock=lambda: next(clock_values))
        with tracer.span("solve"):
            with tracer.span("probe"):
                pass
        summary = tracer.phase_summary()
        assert summary["solve"] == {"count": 1, "seconds": 4.0}
        assert summary["probe"] == {"count": 1, "seconds": 2.0}

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("probe", target=1)
        assert span is _NULL_SPAN
        with span as sp:
            sp.set(anything=1)  # silently dropped
        NULL_TRACER.count("probes")  # no state anywhere to assert on


class TestNullTracerOverhead:
    def test_noop_span_cost_is_negligible(self):
        """The no-op tracer must make instrumentation effectively free.

        Generous bound (5 µs per span open/close on a shared CI box);
        the real cost is ~100 ns.  This is the smoke test backing the
        <2 % tier-1 overhead requirement.
        """
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with NULL_TRACER.span("level", level=1):
                pass
            NULL_TRACER.count("levels")
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 5e-6


class TestTracedSolvers:
    def test_ptas_probe_spans_match_bisection_trace(self):
        tracer = Tracer()
        result = ptas(INSTANCE, 0.3, ctx=SolveContext(tracer=tracer))
        probes = tracer.find("probe")
        assert len(probes) == result.outcome.num_iterations
        assert tracer.counters["probes"] == len(probes)
        # One solve root wrapping everything.
        assert len(tracer.roots) == 1
        assert tracer.roots[0].kind == "solve"
        assert tracer.roots[0].attrs["algorithm"] == "ptas"
        # Every probe carries one round span and its recorded attrs
        # mirror the BisectionIteration trace.
        for span, it in zip(probes, result.outcome.iterations):
            assert span.attrs["target"] == it.target
            assert span.attrs["feasible"] == it.feasible
            assert len(span.find("round")) == 1

    def test_parallel_ptas_level_spans_nest_under_probes(self):
        tracer = Tracer()
        result = parallel_ptas(
            INSTANCE, 0.3, 4, backend="numpy-serial", ctx=SolveContext(tracer=tracer)
        )
        probes = tracer.find("probe")
        assert len(probes) == result.outcome.num_iterations
        levels = tracer.find("level")
        assert levels and tracer.counters["levels"] == len(levels)
        # Every level span sits under exactly one probe span (via a dp span).
        for level in levels:
            owners = [p for p in probes if level in list(p.walk())]
            assert len(owners) == 1
        # And dp spans tag the engine.
        for dp in tracer.find("dp"):
            assert dp.attrs["engine"] == "parallel-numpy-serial"

    def test_all_emitted_kinds_are_in_taxonomy(self):
        tracer = Tracer()
        parallel_ptas(INSTANCE, 0.3, 2, backend="thread", ctx=SolveContext(tracer=tracer))
        assert {s.kind for s in tracer.walk()} <= set(SPAN_KINDS)

    def test_level_spans_cover_dp_wall_time(self):
        """Acceptance: on a workload-suite instance the per-level spans
        account for >= 90 % of the traced DP wall time.

        Uses a paper-speedup grid instance (``u_10n`` at ``m=10, n=50``)
        — big enough that the table fill dominates the DP span's fixed
        overhead (level-index build + table allocation).  Wall-clock
        ratios jitter under full-suite load, so the best of three runs
        must clear the bar."""
        item = next(
            it
            for it in suite("paper-speedup")
            if it.kind == "u_10n" and (it.m, it.n) == (10, 50)
        )
        best_share = 0.0
        for _ in range(3):
            tracer = Tracer()
            parallel_ptas(
                item.instance,
                0.3,
                4,
                backend="numpy-serial",
                ctx=SolveContext(tracer=tracer),
            )
            summary = tracer.phase_summary()
            share = summary["level"]["seconds"] / summary["dp"]["seconds"]
            best_share = max(best_share, share)
            if best_share >= 0.9:
                break
        assert best_share >= 0.9
        # ... and the emitted payload is schema-valid.
        assert validate_trace(trace_to_payload(tracer)) == []


class TestExportRoundTrip:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        parallel_ptas(
            INSTANCE, 0.3, 2, backend="numpy-serial", ctx=SolveContext(tracer=tracer)
        )
        return tracer

    def test_payload_shape(self):
        tracer = self._traced()
        payload = trace_to_payload(tracer)
        assert payload["schema"] == "repro-trace-v1"
        assert payload["traceEvents"][0]["args"]["parent"] == 0
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        assert payload["otherData"]["counters"]["probes"] >= 1

    def test_save_load_round_trip(self, tmp_path):
        tracer = self._traced()
        path = save_trace(tracer, tmp_path / "trace.json")
        validate_trace_file(path)
        loaded = load_trace(path)
        original = [(s.kind, len(s.children)) for s in tracer.walk()]
        reloaded = [(s.kind, len(s.children)) for s in loaded.walk()]
        assert original == reloaded
        assert loaded.counters == tracer.counters
        # Attributes and durations survive (timestamps are re-based to
        # the trace origin; durations keep microsecond resolution).
        for a, b in zip(tracer.walk(), loaded.walk()):
            assert b.attrs == a.attrs
            assert b.duration == pytest.approx(a.duration, abs=1e-5)

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "traceEvents": []}))
        with pytest.raises(ValueError, match="schema"):
            load_trace(path)

    def test_payload_rejects_unknown_parent(self):
        payload = trace_to_payload(self._traced())
        payload["traceEvents"][0]["args"]["parent"] = 999
        with pytest.raises(ValueError, match="parent"):
            payload_to_trace(payload)


class TestSchemaValidation:
    def _valid_payload(self) -> dict:
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("probe", target=3):
                pass
        return trace_to_payload(tracer)

    def test_valid_payload_passes(self):
        assert validate_trace(self._valid_payload()) == []

    def test_unknown_span_kind_fails(self):
        payload = self._valid_payload()
        payload["traceEvents"][1]["args"]["kind"] = "mystery"
        payload["traceEvents"][1]["name"] = "mystery"
        errors = validate_trace(payload)
        assert errors and any("mystery" in e for e in errors)

    def test_missing_required_key_fails(self):
        payload = self._valid_payload()
        del payload["traceEvents"][0]["args"]["id"]
        assert validate_trace(payload)

    def test_duplicate_ids_fail(self):
        payload = self._valid_payload()
        payload["traceEvents"][1]["args"]["id"] = payload["traceEvents"][0]["args"][
            "id"
        ]
        payload["traceEvents"][1]["args"]["parent"] = 0
        assert any("duplicate" in e for e in validate_trace(payload))

    def test_forward_parent_reference_fails(self):
        payload = self._valid_payload()
        payload["traceEvents"][0]["args"]["parent"] = payload["traceEvents"][1][
            "args"
        ]["id"]
        assert any("parent" in e for e in validate_trace(payload))

    def test_schema_enum_matches_span_kinds(self):
        schema = load_schema()
        enum = schema["properties"]["traceEvents"]["items"]["properties"]["args"][
            "properties"
        ]["kind"]["enum"]
        assert tuple(enum) == SPAN_KINDS

    def test_handrolled_validator_agrees_on_bad_kind(self):
        """The zero-dependency fallback validator must also reject
        unknown kinds (CI has no jsonschema installed)."""
        payload = self._valid_payload()
        payload["traceEvents"][0]["args"]["kind"] = "mystery"
        errors: list[str] = []
        _check(payload, load_schema(), "$", errors)
        assert any("mystery" in e for e in errors)

    def test_validate_trace_file_raises_with_all_violations(self, tmp_path):
        payload = self._valid_payload()
        payload["traceEvents"][0]["args"]["kind"] = "mystery"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceSchemaError, match="mystery"):
            validate_trace_file(path)


class TestSamplingProfiler:
    def test_slow_span_gets_profile(self):
        profiler = SamplingProfiler(interval=0.002, threshold=0.02)
        tracer = Tracer(profiler=profiler)
        with tracer.span("probe", target=1):
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                sum(range(100))
        (probe,) = tracer.find("probe")
        assert probe.attrs["profile_samples"] >= 1
        assert probe.attrs["profile"][0]["count"] >= 1
        assert ":" in probe.attrs["profile"][0]["stack"]

    def test_fast_span_keeps_no_profile(self):
        profiler = SamplingProfiler(interval=0.001, threshold=10.0)
        tracer = Tracer(profiler=profiler)
        with tracer.span("probe", target=1):
            time.sleep(0.005)
        (probe,) = tracer.find("probe")
        assert "profile" not in probe.attrs

    def test_unprofiled_kinds_do_not_sample(self):
        profiler = SamplingProfiler(kinds=("probe",))
        tracer = Tracer(profiler=profiler)
        with tracer.span("level", level=1):
            pass
        (level,) = tracer.find("level")
        assert "profile" not in level.attrs


class TestPublishPhaseSummary:
    def test_summary_lands_in_metrics(self):
        tracer = Tracer()
        ptas(INSTANCE, 0.3, ctx=SolveContext(tracer=tracer))
        metrics = MetricsRegistry()
        summary = publish_phase_summary(tracer, metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["trace.spans.probe"] == summary["probe"]["count"]
        assert snap["counters"]["trace.counters.probes"] == tracer.counters["probes"]
        assert (
            snap["histograms"]["trace.phase.dp.seconds"]["count"] == 1
        )

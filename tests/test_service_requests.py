"""Tests for the service wire types (:mod:`repro.service.requests`)."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.instance import Instance
from repro.model.qinstance import QInstance, QSchedule
from repro.service.requests import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    STREAM_ACTIONS,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
    deadline_checker,
)


class TestSolveRequest:
    def test_round_trip_json(self):
        req = SolveRequest(
            times=(5, 4, 3),
            machines=2,
            engine="parallel_ptas",
            eps=0.25,
            deadline=1.5,
            workers=8,
            backend="thread",
            request_id="abc",
        )
        again = SolveRequest.from_json(req.to_json())
        assert again == req

    def test_instance_validation(self):
        req = SolveRequest(times=(5, 4, 3), machines=2)
        inst = req.instance()
        assert inst == Instance((5, 4, 3), 2)
        bad = SolveRequest(times=(0,), machines=1)
        with pytest.raises(ValueError):
            bad.instance()

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="machines"):
            SolveRequest.from_json('{"times": [1, 2]}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            SolveRequest.from_json('{"times": [1], "machines": 1, "bogus": 2}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            SolveRequest.from_json("{not json")

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            SolveRequest(times=(1,), machines=1, deadline=-1.0)

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            SolveRequest(times=(1,), machines=1, eps=0.0)


class TestProtocolVersioning:
    def test_constants(self):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_PROTOCOLS == (1, 2)

    def test_wire_request_without_protocol_is_v1(self):
        req = SolveRequest.from_json('{"times": [5, 4], "machines": 2}')
        assert req.protocol == 1
        assert req.problem == "p_cmax"

    def test_internal_constructor_defaults_to_current(self):
        assert SolveRequest(times=(1,), machines=1).protocol == PROTOCOL_VERSION

    def test_v2_q_round_trip(self):
        req = SolveRequest(
            times=(6, 4, 3, 2),
            machines=2,
            problem="q_cmax",
            speeds=(3, 1),
            engine="lpt",
            request_id="q1",
        )
        again = SolveRequest.from_json(req.to_json())
        assert again == req
        assert again.protocol == 2
        inst = again.instance()
        assert isinstance(inst, QInstance)
        assert inst.speeds == (3, 1)

    def test_v1_round_trip_unchanged(self):
        payload = '{"times": [5, 4, 3], "machines": 2, "engine": "ptas"}'
        req = SolveRequest.from_json(payload)
        again = SolveRequest.from_json(req.to_json())
        assert again == req
        assert isinstance(req.instance(), Instance)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="supports versions 1, 2"):
            SolveRequest.from_json(
                '{"times": [1], "machines": 1, "protocol": 3}'
            )

    def test_problem_field_requires_v2(self):
        with pytest.raises(ValueError, match="protocol version 2"):
            SolveRequest.from_json(
                '{"times": [1], "machines": 1, "problem": "q_cmax", "speeds": [1]}'
            )

    def test_q_requires_speeds_matching_machines(self):
        with pytest.raises(ValueError):
            SolveRequest(times=(1,), machines=2, problem="q_cmax", speeds=(1,))
        with pytest.raises(ValueError):
            SolveRequest(times=(1,), machines=1, problem="q_cmax")

    def test_p_forbids_speeds(self):
        with pytest.raises(ValueError, match="speeds"):
            SolveRequest(times=(1,), machines=1, speeds=(1,))

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="r_cmax"):
            SolveRequest(times=(1,), machines=1, problem="r_cmax")

    def test_stream_request_versioning(self):
        req = StreamRequest.from_dict(
            {"op": "stream", "action": "open_session", "tenant": "t", "machines": 2}
        )
        assert req.protocol == 1
        assert req.problem == "p_cmax"
        with pytest.raises(ValueError, match="protocol"):
            StreamRequest.from_dict(
                {
                    "op": "stream",
                    "action": "open_session",
                    "tenant": "t",
                    "machines": 2,
                    "protocol": 99,
                }
            )

    def test_q_result_schedule_dispatches(self):
        req = SolveRequest(
            times=(6, 4, 3, 2),
            machines=2,
            problem="q_cmax",
            speeds=(3, 1),
            engine="lpt",
        )
        result = SolveResult(
            request_id="", makespan=4.0, assignment=((0, 1, 3), (2,)), engine="lpt"
        )
        sched = result.schedule(req.instance())
        assert isinstance(sched, QSchedule)
        assert sched.makespan == 4.0


class TestSolveResult:
    def test_round_trip_json(self):
        res = SolveResult(
            request_id="r1",
            status="ok",
            engine="ptas",
            makespan=14,
            assignment=((0, 1), (2,)),
            guarantee=1.3,
            elapsed=0.01,
        )
        again = SolveResult.from_json(res.to_json())
        assert again == res

    def test_schedule_reconstruction_validates(self):
        inst = Instance((5, 4, 3), 2)
        res = SolveResult(
            status="ok", makespan=8, assignment=((0, 2), (1,)), engine="lpt"
        )
        sched = res.schedule(inst)
        assert sched.makespan == 8
        with pytest.raises(ValueError):
            SolveResult(status="rejected").schedule(inst)

    def test_rejected_round_trip(self):
        res = SolveResult(status="rejected", retry_after=0.5, error="queue full")
        again = SolveResult.from_json(res.to_json())
        assert again.retry_after == 0.5
        assert not again.ok


class TestDeadlineChecker:
    def test_passes_before_and_raises_after(self):
        now = [0.0]
        check = deadline_checker(1.0, clock=lambda: now[0])
        check()  # t=0, fine
        now[0] = 0.999
        check()
        now[0] = 1.001
        with pytest.raises(DeadlineExceeded):
            check()


class TestWorkersAndMode:
    def test_auto_workers_accepted(self):
        req = SolveRequest(times=(3, 2, 1), machines=2, workers="auto")
        assert req.workers == "auto"

    def test_auto_workers_round_trips(self):
        req = SolveRequest(
            times=(3, 2, 1), machines=2, workers="auto", mode="speculative"
        )
        back = SolveRequest.from_json(req.to_json())
        assert back.workers == "auto"
        assert back.mode == "speculative"

    def test_mode_defaults_to_wavefront(self):
        assert SolveRequest(times=(1,), machines=1).mode == "wavefront"

    def test_rejects_non_auto_worker_strings(self):
        with pytest.raises(ValueError, match="auto"):
            SolveRequest(times=(1,), machines=1, workers="many")

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            SolveRequest(times=(1,), machines=1, workers=0)


# ---------------------------------------------------------------------------
# The field-read codec against the dataclasses.asdict form it replaced
# ---------------------------------------------------------------------------

def _asdict_reference(obj) -> dict:
    """The historical ``asdict``-based ``to_dict`` of each wire type."""
    d = asdict(obj)
    if isinstance(obj, SolveRequest):
        d["times"] = list(obj.times)
    elif isinstance(obj, SolveResult):
        if obj.assignment is not None:
            d["assignment"] = [list(grp) for grp in obj.assignment]
    elif isinstance(obj, StreamRequest):
        d["op"] = "stream"
        d["jobs"] = [[j, t] for j, t in obj.jobs]
        d["job_ids"] = list(obj.job_ids)
    else:
        d["op"] = "stream"
    return d


def _shape(value):
    """*value*'s structure down to the type of every leaf."""
    if isinstance(value, dict):
        return (dict, [(key, _shape(v)) for key, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [_shape(v) for v in value])
    return type(value)


_text = st.text(max_size=8)
_num = st.floats(min_value=0, max_value=1e6, allow_nan=False)
_maybe_num = st.none() | _num
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _num | _text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _solve_requests(draw) -> SolveRequest:
    machines = draw(st.integers(1, 6))
    q = draw(st.booleans())
    return SolveRequest(
        times=tuple(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))),
        machines=machines,
        problem="q_cmax" if q else "p_cmax",
        speeds=(
            tuple(draw(st.lists(st.integers(1, 9), min_size=machines, max_size=machines)))
            if q
            else ()
        ),
        protocol=2 if q else draw(st.sampled_from(SUPPORTED_PROTOCOLS)),
        engine=draw(_text),
        eps=draw(st.floats(min_value=1e-3, max_value=2.0)),
        deadline=draw(_maybe_num),
        dp_engine=draw(_text),
        workers=draw(st.integers(1, 64) | st.just("auto")),
        backend=draw(_text),
        mode=draw(_text),
        time_limit=draw(_maybe_num),
        request_id=draw(_text),
    )


_solve_results = st.builds(
    SolveResult,
    request_id=_text,
    status=st.sampled_from(["ok", "rejected", "error"]),
    engine=_text,
    makespan=st.none() | st.integers(0, 10**9) | _num,
    assignment=st.none()
    | st.lists(st.lists(st.integers(0, 99), max_size=5), max_size=4),
    guarantee=_maybe_num,
    degraded=st.booleans(),
    cached=st.booleans(),
    elapsed=_num,
    retry_after=_maybe_num,
    error=st.none() | _text,
)

_stream_requests = st.builds(
    StreamRequest,
    action=st.sampled_from(STREAM_ACTIONS),
    tenant=st.text(min_size=1, max_size=8),
    machines=st.integers(1, 8),
    protocol=st.sampled_from(SUPPORTED_PROTOCOLS),
    eps=st.floats(min_value=1e-3, max_value=2.0),
    engine=_text,
    dp_engine=_text,
    drift_threshold=st.none() | st.floats(min_value=1.0, max_value=10.0),
    jobs=st.lists(st.tuples(_text, st.integers(1, 1000)), max_size=4),
    job_ids=st.lists(_text, max_size=4),
    persist=st.booleans(),
    request_id=_text,
)

_stream_results = st.builds(
    StreamResult,
    request_id=_text,
    tenant=_text,
    action=_text,
    status=st.sampled_from(["ok", "error"]),
    makespan=st.none() | st.integers(0, 10**9),
    ratio=_maybe_num,
    resolves=st.integers(0, 100),
    repairs=st.integers(0, 100),
    num_jobs=st.integers(0, 100),
    restored=st.booleans(),
    snapshot=st.none() | st.dictionaries(_text, _json, max_size=4),
    error=st.none() | _text,
)


@given(_solve_requests() | _solve_results | _stream_requests | _stream_results)
@settings(max_examples=300)
def test_property_field_read_codec_matches_asdict(obj):
    """``to_dict`` reads fields directly, yet equals the ``asdict`` form
    key for key, in order and type; ``to_json`` bytes are identical."""
    reference = _asdict_reference(obj)
    encoded = obj.to_dict()
    assert encoded == reference
    assert _shape(encoded) == _shape(reference)
    assert obj.to_json() == json.dumps(reference, separators=(",", ":"))


def test_stream_result_to_dict_copies_the_snapshot():
    snapshot = {"jobs": [["a", 3]], "meta": {"m": 2}}
    result = StreamResult(tenant="t", action="snapshot", snapshot=snapshot)
    encoded = result.to_dict()
    encoded["snapshot"]["meta"]["m"] = 99
    assert result.snapshot == {"jobs": [["a", 3]], "meta": {"m": 2}}

"""Wire protocol: schema checks, typed error codes, float fidelity."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import ProtocolError, Request, parse_request


def estimate_payload(**overrides):
    payload = {
        "v": protocol.PROTOCOL_VERSION,
        "verb": "estimate",
        "tenant": "example",
        "query": "a -[A]-> b",
    }
    payload.update(overrides)
    return json.dumps(payload)


class TestParseRequest:
    def test_estimate_defaults(self):
        request = parse_request(estimate_payload())
        assert request.verb == "estimate"
        assert request.tenant == "example"
        assert request.query == "a -[A]-> b"
        assert request.estimators == ("max-hop-max",)
        assert request.deadline_ms is None
        assert request.id is None

    def test_estimate_full(self):
        request = parse_request(
            estimate_payload(
                id=17, estimators=["MOLP", "all-hops-avg"], deadline_ms=250
            )
        )
        assert request.id == 17
        assert request.estimators == ("MOLP", "all-hops-avg")
        assert request.deadline_ms == 250.0

    def test_bytes_input_accepted(self):
        request = parse_request(estimate_payload().encode("utf-8"))
        assert request.tenant == "example"

    def test_reload(self):
        request = parse_request(
            json.dumps(
                {
                    "v": 1,
                    "verb": "reload",
                    "tenant": "example",
                    "path": "stats/v2",
                    "allow_fingerprint_change": True,
                }
            )
        )
        assert request.verb == "reload"
        assert request.path == "stats/v2"
        assert request.allow_fingerprint_change is True

    def test_reload_path_optional(self):
        request = parse_request(
            json.dumps({"v": 1, "verb": "reload", "tenant": "example"})
        )
        assert request.path is None
        assert request.allow_fingerprint_change is False

    @pytest.mark.parametrize("verb", ["stats", "ping", "shutdown"])
    def test_nullary_verbs(self, verb):
        request = parse_request(json.dumps({"v": 1, "verb": verb, "id": "x"}))
        assert request.verb == verb
        assert request.id == "x"


class TestParseErrors:
    def error_code(self, text):
        with pytest.raises(ProtocolError) as info:
            parse_request(text)
        return info.value.code

    def test_bad_json(self):
        assert self.error_code("{nope") is protocol.INVALID_REQUEST

    def test_non_object(self):
        assert self.error_code("[1, 2]") is protocol.INVALID_REQUEST

    def test_missing_version(self):
        payload = json.dumps({"verb": "ping"})
        assert self.error_code(payload) is protocol.UNSUPPORTED_VERSION

    def test_wrong_version(self):
        payload = json.dumps({"v": 99, "verb": "ping"})
        assert self.error_code(payload) is protocol.UNSUPPORTED_VERSION

    def test_unknown_verb(self):
        payload = json.dumps({"v": 1, "verb": "frobnicate"})
        assert self.error_code(payload) is protocol.UNKNOWN_VERB

    def test_estimate_needs_tenant(self):
        payload = json.dumps({"v": 1, "verb": "estimate", "query": "a -[A]-> b"})
        assert self.error_code(payload) is protocol.INVALID_REQUEST

    def test_estimate_needs_query(self):
        payload = json.dumps({"v": 1, "verb": "estimate", "tenant": "t"})
        assert self.error_code(payload) is protocol.INVALID_REQUEST

    def test_estimators_must_be_nonempty_list(self):
        assert (
            self.error_code(estimate_payload(estimators=[]))
            is protocol.INVALID_REQUEST
        )
        assert (
            self.error_code(estimate_payload(estimators="MOLP"))
            is protocol.INVALID_REQUEST
        )
        assert (
            self.error_code(estimate_payload(estimators=[1]))
            is protocol.INVALID_REQUEST
        )

    def test_deadline_must_be_positive(self):
        assert (
            self.error_code(estimate_payload(deadline_ms=0))
            is protocol.INVALID_REQUEST
        )
        assert (
            self.error_code(estimate_payload(deadline_ms=-5))
            is protocol.INVALID_REQUEST
        )

    @pytest.mark.parametrize(
        "deadline",
        [
            float("nan"),
            float("inf"),
            True,
            pytest.param(10**400, id="int-over-a-double"),
        ],
    )
    def test_deadline_must_be_finite_and_not_bool(self, deadline):
        # NaN expired at once as a retryable deadline_exceeded, Infinity
        # switched the deadline off and true meant 1 ms.
        line = estimate_payload(deadline_ms=deadline)
        assert self.error_code(line) is protocol.INVALID_REQUEST

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_are_not_json(self, number):
        # Echoing such an id would put non-standard JSON on the wire.
        line = f'{{"v": 1, "verb": "ping", "id": {number}}}'
        assert self.error_code(line) is protocol.INVALID_REQUEST

    def test_nesting_deeper_than_the_decoder_stack(self):
        line = "[" * 200_000 + "]" * 200_000
        assert self.error_code(line) is protocol.INVALID_REQUEST
        with pytest.raises(ProtocolError):
            protocol.decode_line(line)

    def test_invalid_utf8(self):
        assert self.error_code(b"\xff\xfe{}") is protocol.INVALID_REQUEST


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

FIELDS = (
    "v", "verb", "id", "tenant", "query", "estimators", "deadline_ms",
    "path", "allow_fingerprint_change", "scope", "trace_id",
)


def well_formed_envelopes():
    """Valid-looking requests whose fields hold arbitrary JSON values."""
    base = st.fixed_dictionaries(
        {"v": st.just(1), "verb": st.sampled_from(protocol.VERBS)}
    )
    return st.tuples(
        base, st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=4)
    ).map(lambda parts: json.dumps({**parts[0], **parts[1]}))


class TestHostileFrames:
    """Any frame yields a Request or a ProtocolError, nothing else."""

    @staticmethod
    def check(line):
        try:
            assert isinstance(parse_request(line), Request)
        except ProtocolError as error:
            assert error.code.exit_code == 2

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, line):
        self.check(line)

    @settings(max_examples=200, deadline=None)
    @given(well_formed_envelopes())
    def test_envelopes_with_arbitrary_fields(self, line):
        self.check(line)


class TestErrorTaxonomy:
    """Wire codes extend the repro batch exit-code contract."""

    def test_invalid_request_family_exits_2(self):
        for code in [
            protocol.INVALID_REQUEST,
            protocol.UNSUPPORTED_VERSION,
            protocol.UNKNOWN_VERB,
            protocol.UNKNOWN_TENANT,
            protocol.UNKNOWN_ESTIMATOR,
            protocol.MALFORMED_QUERY,
            protocol.UNSUPPORTED_SPEC,
            protocol.RELOAD_FAILED,
        ]:
            assert code.exit_code == 2

    def test_estimation_failure_family_exits_1(self):
        assert protocol.ESTIMATION_FAILED.exit_code == 1
        assert protocol.INTERNAL_ERROR.exit_code == 1

    def test_transient_family_exits_3(self):
        for code in [
            protocol.OVERLOADED,
            protocol.DEADLINE_EXCEEDED,
            protocol.SHUTTING_DOWN,
        ]:
            assert code.exit_code == 3

    def test_registry_is_complete_and_keyed_by_code(self):
        for name, code in protocol.ERROR_CODES.items():
            assert name == code.code

    def test_error_response_shape(self):
        response = protocol.error_response(
            "id-1", protocol.OVERLOADED, "try later"
        )
        assert response["ok"] is False
        assert response["id"] == "id-1"
        assert response["error"] == {
            "code": "overloaded",
            "message": "try later",
            "exit_code": 3,
        }


class TestFraming:
    def test_encode_decode_roundtrip(self):
        payload = protocol.ok_response(7, {"estimates": {"MOLP": 12.5}})
        line = protocol.encode_line(payload)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert protocol.decode_line(line) == payload

    def test_floats_roundtrip_bit_identical(self):
        # The bit-identity guarantee of the serving tier rests on JSON
        # emitting the shortest round-tripping repr of a double.
        values = [
            0.1 + 0.2,
            1.0 / 3.0,
            math.pi * 1e17,
            2.2250738585072014e-308,
            5e-324,
            123456789.123456789,
            float("inf"),
        ]
        for value in values:
            result = protocol.decode_line(
                protocol.encode_line(protocol.ok_response(None, {"x": value}))
            )["result"]["x"]
            assert result == value
            if not math.isinf(value):
                assert math.frexp(result) == math.frexp(value)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"not json\n")

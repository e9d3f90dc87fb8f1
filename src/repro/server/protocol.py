"""Wire protocol of the estimation server: NDJSON with typed errors.

One request or response per line, each a JSON object.  Requests carry a
``v`` protocol version, a ``verb`` and an optional client-chosen ``id``
that is echoed back verbatim, so a client may pipeline several requests
over one connection and match answers to questions.

Verbs::

    estimate  {"v": 1, "verb": "estimate", "tenant": "example",
               "query": "a -[A]-> b -[B]-> c",
               "estimators": ["max-hop-max", "MOLP"],
               "deadline_ms": 250}
    stats     {"v": 1, "verb": "stats"}
    reload    {"v": 1, "verb": "reload", "tenant": "example",
               "path": "stats/example-v2"}
    apply_deltas  {"v": 1, "verb": "apply_deltas", "tenant": "example"}
    ping      {"v": 1, "verb": "ping"}
    fleet     {"v": 1, "verb": "fleet"}
    shutdown  {"v": 1, "verb": "shutdown"}

``apply_deltas`` swaps a tenant to the newest generation image that
``repro updates apply`` published in its artifact directory — the
live-refresh path of the dynamic-graph subsystem (one manifest read
plus, when the artifact moved, one memory-mapped load of the new image).

``fleet`` describes the multi-process worker fleet serving the port
(worker identity, per-worker direct ports, the consistent-hash tenant
assignment); a single-process server answers ``{"fleet": false}``.  In
fleet mode the control verbs ``reload``/``apply_deltas``/``shutdown``
and ``stats`` fan out to every worker; the optional ``"scope":
"local"`` request field suppresses that fan-out and addresses only the
worker that accepted the connection (the fleet uses it internally so a
fan-out can never recurse).

Responses are ``{"v": 1, "id": ..., "ok": true, "result": {...}}`` or
``{"v": 1, "id": ..., "ok": false, "error": {"code": ..., "message":
..., "exit_code": ...}}``.

Error codes extend the ``repro batch`` exit-code taxonomy (0 — success;
1 — estimation failed; 2 — the request itself is invalid) with a third
class for transient serving conditions a retry may fix: 3 — the server
sheds load, a deadline expired, or it is shutting down.  Every
:class:`ErrorCode` carries the exit code ``repro query`` turns it into,
so the CLI contract is one table shared by client and server.

Floats survive the wire bit for bit: ``json.dumps`` emits the shortest
round-tripping ``repr`` of a double and ``json.loads`` parses it back to
the identical bits, so a served estimate equals the in-process
:meth:`~repro.service.session.EstimationSession.estimate` float exactly
(the load benchmark asserts this on every run).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ErrorCode",
    "ERROR_CODES",
    "ProtocolError",
    "Request",
    "parse_request",
    "ok_response",
    "error_response",
    "encode_line",
    "decode_line",
]

PROTOCOL_VERSION = 1

#: Upper bound on one NDJSON line (requests and responses alike); a
#: well-formed estimate request is a few hundred bytes.
MAX_LINE_BYTES = 1_000_000

VERBS = (
    "estimate",
    "stats",
    "metrics",
    "reload",
    "apply_deltas",
    "ping",
    "fleet",
    "shutdown",
)

#: Upper bound on a client-supplied ``trace_id`` (they land verbatim in
#: log lines and metrics labels, so keep them short and single-line).
MAX_TRACE_ID_CHARS = 64

#: Request scopes: None (default — fleet-wide fan-out of control verbs)
#: or "local" (answer from the worker holding the connection only).
SCOPES = (None, "local")


@dataclass(frozen=True)
class ErrorCode:
    """One typed wire error and the process exit code it maps onto."""

    code: str
    exit_code: int

    def as_dict(self, message: str) -> dict[str, Any]:
        """The ``error`` object embedded in a failure response."""
        return {
            "code": self.code,
            "message": message,
            "exit_code": self.exit_code,
        }


# Request-is-invalid family (exit 2, matching `repro batch`).
INVALID_REQUEST = ErrorCode("invalid_request", 2)
UNSUPPORTED_VERSION = ErrorCode("unsupported_version", 2)
UNKNOWN_VERB = ErrorCode("unknown_verb", 2)
UNKNOWN_TENANT = ErrorCode("unknown_tenant", 2)
UNKNOWN_ESTIMATOR = ErrorCode("unknown_estimator", 2)
MALFORMED_QUERY = ErrorCode("malformed_query", 2)
UNSUPPORTED_SPEC = ErrorCode("unsupported_spec", 2)
RELOAD_FAILED = ErrorCode("reload_failed", 2)

# Estimation-failed family (exit 1, matching `repro batch`).  Note that
# per-estimator failures inside an otherwise-served estimate response
# ride in the result's "errors" map instead (mirroring the batch
# report); ESTIMATION_FAILED covers a whole-request failure.
ESTIMATION_FAILED = ErrorCode("estimation_failed", 1)
INTERNAL_ERROR = ErrorCode("internal_error", 1)

# Transient serving conditions (exit 3 — new to the server; a retry
# against a less-loaded server may succeed).
OVERLOADED = ErrorCode("overloaded", 3)
DEADLINE_EXCEEDED = ErrorCode("deadline_exceeded", 3)
SHUTTING_DOWN = ErrorCode("shutting_down", 3)
#: A fleet fan-out could not reach one worker (crashed and awaiting
#: restart); the per-worker slot of the fanned response carries this.
WORKER_UNREACHABLE = ErrorCode("worker_unreachable", 3)

ERROR_CODES: dict[str, ErrorCode] = {
    error.code: error
    for error in [
        INVALID_REQUEST,
        UNSUPPORTED_VERSION,
        UNKNOWN_VERB,
        UNKNOWN_TENANT,
        UNKNOWN_ESTIMATOR,
        MALFORMED_QUERY,
        UNSUPPORTED_SPEC,
        RELOAD_FAILED,
        ESTIMATION_FAILED,
        INTERNAL_ERROR,
        OVERLOADED,
        DEADLINE_EXCEEDED,
        SHUTTING_DOWN,
        WORKER_UNREACHABLE,
    ]
}


class ProtocolError(ReproError):
    """A request the server must answer with a typed error response."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """One parsed, schema-checked request line."""

    verb: str
    id: Any = None
    tenant: str | None = None
    query: str | None = None
    estimators: tuple[str, ...] = ()
    deadline_ms: float | None = None
    path: str | None = None
    allow_fingerprint_change: bool = False
    scope: str | None = None
    #: Client-supplied trace id, echoed in the response and propagated
    #: across fleet fan-out; the server mints one when absent.
    trace_id: str | None = None

    @property
    def local(self) -> bool:
        """Whether the request is pinned to the accepting worker."""
        return self.scope == "local"


def _parse_trace_id(payload: dict) -> str | None:
    trace_id = payload.get("trace_id")
    if trace_id is None:
        return None
    if (
        not isinstance(trace_id, str)
        or not trace_id
        or len(trace_id) > MAX_TRACE_ID_CHARS
        or any(ch in trace_id for ch in "\n\r\"\\")
    ):
        raise ProtocolError(
            INVALID_REQUEST,
            "'trace_id' must be a non-empty single-line string of at "
            f"most {MAX_TRACE_ID_CHARS} characters",
        )
    return trace_id


def _require_str(payload: dict, key: str, verb: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            INVALID_REQUEST,
            f"{verb!r} request needs a non-empty string {key!r} field",
        )
    return value


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a double")
    return value


#: Request decoder: standard JSON only, so every number a request
#: carries is finite (Python's default accepts ``NaN``/``Infinity``).
_REQUEST_DECODER = json.JSONDecoder(
    parse_constant=_reject_constant, parse_float=_finite_float
)


def parse_request(line: str | bytes) -> Request:
    """Parse one request line, raising :class:`ProtocolError` on misuse."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(
                INVALID_REQUEST, f"request is not valid UTF-8: {error}"
            )
    try:
        payload = _REQUEST_DECODER.decode(line)
    except (ValueError, RecursionError) as error:
        # RecursionError: nesting deeper than the decoder's stack.
        raise ProtocolError(
            INVALID_REQUEST, f"request is not valid JSON: {error}"
        )
    if not isinstance(payload, dict):
        raise ProtocolError(
            INVALID_REQUEST, "request must be a JSON object"
        )
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            UNSUPPORTED_VERSION,
            f"protocol version {version!r} is not supported "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    verb = payload.get("verb")
    if verb not in VERBS:
        raise ProtocolError(
            UNKNOWN_VERB,
            f"unknown verb {verb!r}; expected one of {VERBS}",
        )
    request_id = payload.get("id")
    trace_id = _parse_trace_id(payload)
    scope = payload.get("scope")
    if scope not in SCOPES:
        raise ProtocolError(
            INVALID_REQUEST,
            f"unknown scope {scope!r}; expected 'local' or no scope field",
        )
    if verb == "estimate":
        estimators_raw = payload.get("estimators", ["max-hop-max"])
        if (
            not isinstance(estimators_raw, list)
            or not estimators_raw
            or not all(isinstance(name, str) for name in estimators_raw)
        ):
            raise ProtocolError(
                INVALID_REQUEST,
                "'estimators' must be a non-empty list of estimator names",
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            # type(), not isinstance(): JSON true is no duration.
            if type(deadline_ms) not in (int, float) or not (
                0 < deadline_ms <= sys.float_info.max
            ):
                raise ProtocolError(
                    INVALID_REQUEST,
                    "'deadline_ms' must be a positive finite number",
                )
            deadline_ms = float(deadline_ms)
        return Request(
            verb=verb,
            id=request_id,
            tenant=_require_str(payload, "tenant", verb),
            query=_require_str(payload, "query", verb),
            estimators=tuple(estimators_raw),
            deadline_ms=deadline_ms,
            scope=scope,
            trace_id=trace_id,
        )
    if verb == "reload":
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise ProtocolError(
                INVALID_REQUEST, "'path' must be a string when given"
            )
        allow_change = payload.get("allow_fingerprint_change", False)
        if not isinstance(allow_change, bool):
            raise ProtocolError(
                INVALID_REQUEST,
                "'allow_fingerprint_change' must be true or false when given",
            )
        return Request(
            verb=verb,
            id=request_id,
            tenant=_require_str(payload, "tenant", verb),
            path=path,
            allow_fingerprint_change=allow_change,
            scope=scope,
            trace_id=trace_id,
        )
    if verb == "apply_deltas":
        return Request(
            verb=verb,
            id=request_id,
            tenant=_require_str(payload, "tenant", verb),
            scope=scope,
            trace_id=trace_id,
        )
    # stats / metrics / ping / fleet / shutdown carry no operands
    # beyond scope.
    return Request(verb=verb, id=request_id, scope=scope, trace_id=trace_id)


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """A success response body."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }


def error_response(
    request_id: Any, code: ErrorCode, message: str
) -> dict[str, Any]:
    """A typed failure response body."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": code.as_dict(message),
    }


def encode_line(payload: dict[str, Any]) -> bytes:
    """Serialize one request/response object to a newline-framed line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one response line into a dict (raises ``ProtocolError``)."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as error:
        raise ProtocolError(
            INVALID_REQUEST, f"response is not valid JSON: {error}"
        )
    if not isinstance(payload, dict):
        raise ProtocolError(INVALID_REQUEST, "response must be a JSON object")
    return payload

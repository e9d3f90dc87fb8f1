"""Single-flight coalescing of identical in-flight computations.

When N concurrent requests ask for the same (tenant, canonical shape,
estimator config) — the signature pattern of a popular query template
going cold after a deploy or reload — the session LRUs alone cannot
help: all N miss, and all N rebuild the same CEG.  A
:class:`SingleFlight` collapses them: the first caller of a key becomes
the **leader** and runs the computation; every caller that arrives while
it is still in flight becomes a **follower** and waits for the leader's
result instead of recomputing.  The key is dropped the moment the
computation finishes, so results are never cached here — that is the
session LRU's job; single-flight only deduplicates *concurrent* work.

Failures are shared too: a leader's exception is re-raised in every
follower (the same exception object — estimator errors are immutable
messages, so sharing is safe) and is never remembered, so the next
arrival after a failure retries as a fresh leader.

The implementation is thread-based (a mutex plus one ``Event`` per
in-flight call) so it slots under any executor: the asyncio server runs
leaders and followers on its worker thread pool, and plain
multi-threaded code can use it directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, TypeVar

__all__ = ["CoalescerStats", "FlightOutcome", "SingleFlight"]

T = TypeVar("T")


@dataclass(frozen=True)
class CoalescerStats:
    """Point-in-time counters of one :class:`SingleFlight`."""

    leaders: int
    followers: int
    in_flight: int

    @property
    def calls(self) -> int:
        """Total :meth:`SingleFlight.run` invocations."""
        return self.leaders + self.followers


@dataclass(frozen=True)
class FlightOutcome:
    """What one :meth:`SingleFlight.run` caller got, and how.

    ``shared_ref`` is whatever reference the leader published while
    computing (the serving stack publishes its CEG-build *span*
    reference, so follower traces point at the leader's work instead of
    fabricating a build span of their own); ``wait_seconds`` is how
    long a follower blocked on the leader (0.0 for the leader itself).
    """

    value: Any
    leader: bool
    wait_seconds: float = 0.0
    shared_ref: str | None = None


class _Call:
    """Shared state of one in-flight computation."""

    __slots__ = ("done", "value", "error", "ref")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        #: Leader-published reference followers read after ``done`` —
        #: written before the event is set, so the read is ordered.
        self.ref: str | None = None


class SingleFlight:
    """Per-key deduplication of concurrent identical computations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, _Call] = {}
        self._leaders = 0
        self._followers = 0

    def run(
        self, key: Hashable, fn: Callable[[Callable[[str | None], None]], T]
    ) -> FlightOutcome:
        """Run ``fn`` once per key among all concurrent callers.

        Exactly one concurrent caller per key (the leader) executes
        ``fn``; the rest block until it finishes and receive the same
        :attr:`FlightOutcome.value` (or the same raised exception).
        ``fn`` receives a ``publish_ref(ref)`` callable: the leader may
        call it (any time before it returns) to attach an opaque
        reference to the in-flight computation, which every follower
        gets back as :attr:`FlightOutcome.shared_ref`.
        """
        with self._lock:
            call = self._inflight.get(key)
            if call is None:
                call = _Call()
                self._inflight[key] = call
                self._leaders += 1
                is_leader = True
            else:
                self._followers += 1
                is_leader = False
        if not is_leader:
            waited = time.perf_counter()
            call.done.wait()
            waited = time.perf_counter() - waited
            if call.error is not None:
                raise call.error
            return FlightOutcome(
                call.value,
                leader=False,
                wait_seconds=waited,
                shared_ref=call.ref,
            )

        def publish_ref(ref: str | None) -> None:
            call.ref = ref

        try:
            call.value = fn(publish_ref)
        except BaseException as error:
            call.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            call.done.set()
        return FlightOutcome(call.value, leader=True, shared_ref=call.ref)

    def stats(self) -> CoalescerStats:
        """Snapshot the leader/follower counters."""
        with self._lock:
            return CoalescerStats(
                leaders=self._leaders,
                followers=self._followers,
                in_flight=len(self._inflight),
            )

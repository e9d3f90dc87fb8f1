"""Multi-process worker fleet: N estimation servers behind one port.

The single-process server computes estimates on a thread pool, so CEG
builds and NumPy joins all contend on one GIL.  The fleet splits that
across N forked worker processes — the Polynesia-style separation of the
update-propagation plane (the delta subsystem, which keeps writing
artifacts on disk) from a set of isolated read-only analytics engines:

.. code-block:: text

        FleetSupervisor (parent)
          │  loads StoreRegistry once, binds every listening socket,
          │  then fork()s — workers inherit artifact pages copy-on-write
          │  and their pre-bound sockets, so the fleet map is static.
          │
          ├── worker 0: EstimationServer ── shared port (SO_REUSEPORT)
          │                              └─ direct port 0 (tenant affinity)
          ├── worker 1: EstimationServer ── shared port (SO_REUSEPORT)
          │                              └─ direct port 1
          └── ...                                   ▲
                   peers fan control verbs ─────────┘

**Shared port.**  Every worker holds its own ``SO_REUSEPORT`` listening
socket on the public ``host:port``; the kernel spreads incoming
connections across the group, so any client of the old single-process
address keeps working unchanged.  Where ``SO_REUSEPORT`` is unavailable
the supervisor binds one listener before forking and every worker
accepts on the inherited fd (the classic pre-fork fallback).

**Direct ports.**  Each worker additionally listens on its own
kernel-assigned port, bound *before* the fork so the fleet map never
changes at runtime.  :class:`~repro.server.client.FleetClient` uses the
map to send each tenant's estimates to the worker that owns it under the
consistent-hash assignment (shape caches warm once, not N times), and
workers use it to fan ``reload``/``apply_deltas``/``shutdown``/``stats``
out to their peers.

**Zero-copy statistics.**  The registry — every tenant's memory-mapped
generation image — is loaded once, in the supervisor, before any fork.
A hot swap maps the new generation's immutable ``catalogs.npz`` in each
worker; mappings of one file share the page cache, so the artifact has
one physical copy however many workers serve it, and per-worker unique
RSS stays near flat as N grows (the load benchmark measures this via
``/proc/<pid>/smaps_rollup``).

**Supervision.**  The supervisor's only job after the fork is
``waitpid``: a worker that exits non-zero is restarted with bounded
exponential backoff on the *same* inherited sockets — the listening fds
(and any backlog queued on them while the worker was dead) survive in
the supervisor, so a crash loses in-flight requests at most once, typed
as transients, never silently.  A restarted worker calls
:meth:`~repro.server.registry.StoreRegistry.refresh_if_stale` per tenant
before accepting, catching its fork-time registry snapshot up with the
generations its peers already swapped to.  Workers exiting 0 (the ``shutdown``
verb, or a SIGTERM drain) are not restarted.
"""

from __future__ import annotations

import bisect
import errno
import gc
import hashlib
import json
import os
import select
import signal
import socket
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.server.registry import StoreRegistry
from repro.server.server import EstimationServer, ServerConfig

__all__ = [
    "FleetMember",
    "FleetContext",
    "FleetSupervisor",
    "assign_tenants",
]

#: Virtual nodes per worker on the consistent-hash ring; enough that
#: tenant load spreads evenly even for small fleets.
RING_VNODES = 64

#: Worker crash-restart backoff bounds (seconds); doubles per crash,
#: resets once a worker survives ``BACKOFF_RESET_SECONDS``.
BACKOFF_INITIAL = 0.1
BACKOFF_CAP = 5.0
BACKOFF_RESET_SECONDS = 30.0


def _ring_hash(key: str) -> int:
    """Position of ``key`` on the ring (stable across processes/runs).

    ``hash()`` is salted per interpreter, so the ring uses sha1 — every
    worker, the supervisor, and any client computing the assignment
    independently must land on identical positions.
    """
    return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")


def assign_tenants(tenants: list[str], workers: int) -> dict[str, int]:
    """Consistent-hash tenant → worker-index assignment.

    Each worker owns :data:`RING_VNODES` points on a hash ring; a tenant
    maps to the worker owning the first point clockwise of its own hash.
    Stable by construction: adding or removing one worker moves only the
    tenants whose arcs it owned, so cache locality survives a resize.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ring = sorted(
        (_ring_hash(f"worker-{index}#{vnode}"), index)
        for index in range(workers)
        for vnode in range(RING_VNODES)
    )
    positions = [position for position, _index in ring]
    assignment: dict[str, int] = {}
    for tenant in tenants:
        spot = bisect.bisect_right(positions, _ring_hash(f"tenant-{tenant}"))
        assignment[tenant] = ring[spot % len(ring)][1]
    return assignment


@dataclass(frozen=True)
class FleetMember:
    """One worker's public identity in the static fleet map."""

    index: int
    direct_port: int


@dataclass(frozen=True)
class FleetContext:
    """What one worker knows about the fleet it belongs to.

    Passed to :class:`~repro.server.server.EstimationServer` to switch it
    into fleet mode: ``members`` is index-ordered (``members[index]`` is
    this worker), ``assignment`` the consistent-hash tenant map, and
    ``port`` the shared public port.
    """

    index: int
    host: str
    port: int
    members: tuple[FleetMember, ...]
    assignment: dict[str, int]


class _Child:
    """Supervisor-side state of one worker slot."""

    def __init__(self, index: int):
        self.index = index
        self.pid: int | None = None
        self.spawned_at = 0.0
        self.backoff = BACKOFF_INITIAL


class FleetSupervisor:
    """Forks, monitors, and restarts N estimation-server workers.

    The registry must be fully loaded *before* :meth:`start` — that is
    the copy-on-write sharing contract (see the module docstring).  The
    supervisor itself never starts an event loop, thread pool, or
    client: a process that owns only sockets and pipes is safe to fork
    from repeatedly.

    ``emit`` receives one JSON-friendly dict per lifecycle event
    (``ready``, ``worker-exited``, ``worker-started``, ``stopped``);
    the default prints NDJSON to stdout for wrappers like CI and the
    load benchmark.  stderr stays silent in normal operation.
    """

    def __init__(
        self,
        registry: StoreRegistry,
        config: ServerConfig,
        workers: int,
        emit: Callable[[dict[str, Any]], None] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.registry = registry
        self.config = config
        self.workers = workers
        self.emit = emit if emit is not None else self._emit_stdout
        self.host = config.host
        self.port: int | None = None
        self.reuseport: bool | None = None
        self.assignment: dict[str, int] = {}
        self._shared_sockets: list[socket.socket] = []
        self._direct_sockets: list[socket.socket] = []
        self._children: dict[int, _Child] = {}
        self._stopping = False
        self._started = False

    @staticmethod
    def _emit_stdout(event: dict[str, Any]) -> None:
        print(json.dumps(event), flush=True)

    # ------------------------------------------------------------------
    # Socket plumbing (all binding happens pre-fork)
    # ------------------------------------------------------------------
    def _bind_listener(self, port: int, reuseport: bool) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if reuseport:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, port))
            sock.listen(128)
        except BaseException:
            sock.close()
            raise
        return sock

    def _bind_sockets(self) -> None:
        """Bind the shared-port group and every worker's direct port."""
        try:
            first = self._bind_listener(self.config.port, reuseport=True)
            self.reuseport = True
            self._shared_sockets.append(first)
            self.port = first.getsockname()[1]
            for _ in range(1, self.workers):
                self._shared_sockets.append(
                    self._bind_listener(self.port, reuseport=True)
                )
        except (AttributeError, OSError):
            # No SO_REUSEPORT (or the kernel refused the group): fall
            # back to one listener bound pre-fork whose fd every worker
            # inherits and accepts on.
            for sock in self._shared_sockets:
                sock.close()
            self._shared_sockets = []
            self.reuseport = False
            shared = self._bind_listener(self.config.port, reuseport=False)
            self.port = shared.getsockname()[1]
            self._shared_sockets = [shared] * self.workers
        for _ in range(self.workers):
            self._direct_sockets.append(self._bind_listener(0, reuseport=False))

    def _context_for(self, index: int) -> FleetContext:
        assert self.port is not None
        members = tuple(
            FleetMember(
                index=position, direct_port=sock.getsockname()[1]
            )
            for position, sock in enumerate(self._direct_sockets)
        )
        return FleetContext(
            index=index,
            host=self.host,
            port=self.port,
            members=members,
            assignment=dict(self.assignment),
        )

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _spawn(self, child: _Child) -> dict[str, Any]:
        """Fork one worker and wait for its ready handshake."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Worker child: never return into the supervisor's stack.
            status = 1
            try:
                os.close(read_fd)
                status = self._worker_main(child.index, write_fd)
            except BaseException:  # noqa: BLE001 - child must not unwind
                status = 1
            finally:
                os._exit(status)
        os.close(write_fd)
        child.pid = pid
        child.spawned_at = time.monotonic()
        try:
            ready = self._await_handshake(read_fd, pid)
        finally:
            os.close(read_fd)
        return ready

    def _await_handshake(self, read_fd: int, pid: int) -> dict[str, Any]:
        deadline = time.monotonic() + 30.0
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                raise RuntimeError(
                    f"fleet worker pid {pid} did not become ready in 30s"
                )
            readable, _, _ = select.select([read_fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(read_fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"fleet worker pid {pid} exited before becoming ready"
                )
            buffer += chunk
        return json.loads(buffer.split(b"\n", 1)[0])

    def _worker_main(self, index: int, ready_fd: int) -> int:
        """Child-process body: serve on the inherited sockets until drain."""
        import asyncio

        # A worker interleaves CPU-bound estimator threads with the
        # event loop under one GIL; the default 5 ms switch interval
        # lets one estimate starve accepts/writes for milliseconds at a
        # time, which is exactly the serving tail.  Finer-grained
        # switching trades a sliver of throughput for p99.
        sys.setswitchinterval(0.001)
        # The supervisor's handlers (signal forwarding) must not run in
        # a worker — before the loop installs its own drain handlers, a
        # stray signal gets the default disposition instead.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)
        # The fleet map reads ports off the supervisor's sockets, so
        # capture it before dropping the listening fds that belong to
        # other workers (the supervisor alone keeps spares alive for
        # restarts).
        context = self._context_for(index)
        own_shared = self._shared_sockets[index]
        own_direct = self._direct_sockets[index]
        for position, sock in enumerate(self._shared_sockets):
            if position != index and sock is not own_shared:
                sock.close()
        for position, sock in enumerate(self._direct_sockets):
            if position != index:
                sock.close()
        # A restarted worker inherits the registry as of the original
        # fork; catch up with any generations published on disk since.
        # Failures here are survivable: the worker serves its fork-time
        # snapshot and a fleet-wide apply_deltas can still converge it.
        for name in self.registry.names():
            try:
                self.registry.refresh_if_stale(name)
            except Exception:  # noqa: BLE001
                pass
        server = EstimationServer(self.registry, self.config, fleet=context)

        async def main() -> None:
            await server.start(sockets=[own_shared, own_direct])
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, server.request_shutdown)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            os.write(
                ready_fd,
                json.dumps(
                    {
                        "index": index,
                        "pid": os.getpid(),
                        "direct_port": context.members[index].direct_port,
                    }
                ).encode() + b"\n",
            )
            os.close(ready_fd)
            await server.run_until_shutdown()

        asyncio.run(main())
        return 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> dict[str, Any]:
        """Bind, assign, fork the fleet; returns (and emits) the ready event."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._bind_sockets()
        self.assignment = assign_tenants(self.registry.names(), self.workers)
        # The pre-fork heap (statistics artifacts, registry, code) is
        # immortal for the life of every worker.  Freezing it moves
        # those objects out of the cyclic collector's generations, so a
        # worker's gen-2 collections never traverse the multi-MB shared
        # heap mid-request (observed as ~150 ms serving stalls) and
        # never dirty its copy-on-write pages by relinking GC headers.
        gc.collect()
        gc.freeze()
        workers = []
        for index in range(self.workers):
            child = _Child(index)
            self._children[index] = child
            workers.append(self._spawn(child))
        ready = {
            "event": "ready",
            "host": self.host,
            "port": self.port,
            "reuseport": self.reuseport,
            "tenants": self.registry.names(),
            "assignment": dict(self.assignment),
            "workers": workers,
        }
        self.emit(ready)
        return ready

    def _forward_signal(self, signum: int, _frame: Any) -> None:
        self._stopping = True
        for child in self._children.values():
            if child.pid is not None:
                try:
                    os.kill(child.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass

    def stop(self) -> None:
        """Ask every worker to drain (callable from any thread/handler)."""
        self._forward_signal(signal.SIGTERM, None)

    def run(self) -> int:
        """Supervise until the fleet drains; returns a process exit code.

        Installs SIGTERM/SIGINT handlers that forward the signal to
        every worker, then reaps children: exit 0 means a deliberate
        drain (``shutdown`` verb fan-out or signal) and retires the
        slot; any other exit is a crash and the slot is re-forked after
        a bounded backoff on the same sockets.
        """
        previous = {
            signum: signal.signal(signum, self._forward_signal)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        exit_code = 0
        try:
            while self._children:
                try:
                    pid, status = os.waitpid(-1, 0)
                except ChildProcessError:
                    break
                except OSError as error:  # pragma: no cover - EINTR guard
                    if error.errno == errno.EINTR:
                        continue
                    raise
                child = next(
                    (c for c in self._children.values() if c.pid == pid), None
                )
                if child is None:
                    continue
                code = (
                    os.waitstatus_to_exitcode(status)
                    if hasattr(os, "waitstatus_to_exitcode")
                    else os.WEXITSTATUS(status)
                )
                self.emit(
                    {
                        "event": "worker-exited",
                        "index": child.index,
                        "pid": pid,
                        "exitcode": code,
                    }
                )
                if code == 0 or self._stopping:
                    # Deliberate drain; a shutdown verb fans to every
                    # worker, so the siblings are draining too.
                    del self._children[child.index]
                    if code not in (0, -signal.SIGTERM):
                        exit_code = 1
                    continue
                alive_for = time.monotonic() - child.spawned_at
                if alive_for >= BACKOFF_RESET_SECONDS:
                    child.backoff = BACKOFF_INITIAL
                time.sleep(child.backoff)
                child.backoff = min(child.backoff * 2, BACKOFF_CAP)
                try:
                    started = self._spawn(child)
                except RuntimeError as error:
                    print(f"repro serve: {error}", file=sys.stderr)
                    del self._children[child.index]
                    exit_code = 1
                    continue
                self.emit({"event": "worker-started", **started})
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._close_sockets()
        self.emit({"event": "stopped"})
        return exit_code

    def _close_sockets(self) -> None:
        for sock in {id(s): s for s in self._shared_sockets}.values():
            sock.close()
        for sock in self._direct_sockets:
            sock.close()

"""The server under test and the load generators that drive it.

:class:`Server` runs ``repro serve --workers 1`` as a subprocess — the
fleet path with the shared artifact plane, as an operator runs it.
Two generators drive it from this single process:

* :func:`closed_loop` — each of ``connections`` blocking
  :class:`~repro.server.client.EstimationClient` threads sends its next
  request when the previous answer arrives;
* :func:`open_loop` — one selector thread sends requests on a fixed
  schedule, pipelined over ``connections`` sockets, and times every
  answer from its *scheduled* send; how late the generator itself sent
  is recorded separately.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ReproError
from repro.server.client import EstimationClient
from repro.server.protocol import PROTOCOL_VERSION, decode_line, encode_line

from inputs import TENANT, Sequence


class Server:
    """One ``repro serve --workers 1`` subprocess on a free port."""

    def __init__(
        self,
        artifact: Path,
        work: Path,
        env: dict[str, str],
        trace_log: Path | None = None,
    ):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--workers", "1", "--port", "0",
            "--tenant", f"{TENANT}={artifact}",
        ]
        if trace_log is None:
            command.append("--no-telemetry")
        else:
            command += ["--trace-log", str(trace_log)]
        self._stderr = open(work / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            start_new_session=True,
        )
        self.control: EstimationClient | None = None
        try:
            line = self.proc.stdout.readline()
            ready = json.loads(line) if line else {}
            if ready.get("event") != "ready":
                raise RuntimeError(
                    f"server failed to start: {line!r} "
                    f"(stderr in {work / 'server.stderr'})"
                )
            self.host = ready["host"]
            self.port = int(ready["port"])
            self.pids = [self.proc.pid] + [
                int(worker["pid"]) for worker in ready["workers"]
            ]
            self.control = EstimationClient(self.host, self.port, timeout=120.0)
            self.control.ping()
        except BaseException:
            self.kill()
            raise

    def stats(self) -> dict:
        """The serving worker's ``stats`` snapshot."""
        return self.control.call(
            {"v": PROTOCOL_VERSION, "verb": "stats", "scope": "local"}
        )

    def pss_mb(self) -> float:
        """Summed PSS of the supervisor and its worker, in MiB."""
        total_kb = 0.0
        for pid in self.pids:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
            for line in rollup.splitlines():
                if line.startswith("Pss:"):
                    total_kb += float(line.split()[1])
                    break
        return total_kb / 1024.0

    def stop(self) -> None:
        """Drain through the ``shutdown`` verb; kill on any trouble."""
        try:
            self.control.shutdown()
            self.proc.wait(timeout=60)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._close()

    def kill(self) -> None:
        """SIGKILL the whole process group (supervisor and worker)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        if self.control is not None:
            self.control.close()
        self.proc.stdout.close()
        self._stderr.close()


@dataclass(slots=True)
class Record:
    """One answered (or failed) estimate request."""

    index: int
    sent: float  # perf_counter at send; the scheduled time in an open loop
    done: float
    ok: bool
    error: str | None = None
    estimate: float | None = None
    generation: int | None = None
    seconds: float | None = None
    timings: dict | None = None
    late: float = 0.0  # open loop: actual send minus scheduled send

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def payload(seq: Sequence, index: int) -> dict:
    """The wire request of sequence entry ``index``."""
    return {
        "v": PROTOCOL_VERSION,
        "verb": "estimate",
        "tenant": TENANT,
        "query": seq.text(index),
        "estimators": [seq.estimator_of[index]],
        "id": index,
    }


def record(
    index: int, sent: float, done: float, response: dict, estimator: str
) -> Record:
    """Reduce a raw response to the fields the benchmark keeps."""
    if not response.get("ok"):
        error = response.get("error") or {}
        return Record(index, sent, done, False, str(error.get("code")))
    result = response["result"]
    value = (result.get("estimates") or {}).get(estimator)
    errors = result.get("errors") or {}
    error = next(iter(errors.values()), None) if errors else None
    if value is None and error is None:
        error = "missing estimate"
    return Record(
        index, sent, done, error is None, error, value,
        result.get("generation"), result.get("seconds"), result.get("timings"),
    )


def closed_loop(
    host: str,
    port: int,
    seq: Sequence,
    indices: range,
    seconds: float | None,
    connections: int,
) -> tuple[list[Record], float]:
    """Drive ``indices`` in order until they run out or ``seconds`` pass.

    Returns the records sorted by index and the start time.  An index is
    taken and the deadline checked under one lock, so the indices sent
    always form a prefix of ``indices``.
    """
    feed = iter(indices)
    lock = threading.Lock()
    outputs: list[list[Record]] = [[] for _ in range(connections)]
    errors: list[BaseException] = []
    began = time.perf_counter()
    deadline = began + seconds if seconds is not None else float("inf")

    def drive(out: list[Record]) -> None:
        try:
            with EstimationClient(host, port, timeout=120.0) as client:
                while True:
                    with lock:
                        if time.perf_counter() >= deadline:
                            return
                        index = next(feed, None)
                    if index is None:
                        return
                    request = payload(seq, index)
                    sent = time.perf_counter()
                    try:
                        response = client.request(request)
                    except ReproError as error:
                        response = {"ok": False, "error": {"code": str(error)}}
                    out.append(record(
                        index, sent, time.perf_counter(), response,
                        seq.estimator_of[index],
                    ))
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(out,), daemon=True)
        for out in outputs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    records = sorted((r for out in outputs for r in out), key=lambda r: r.index)
    return records, began


#: Seconds an open loop waits for answers after its last scheduled send.
GRACE_S = 60.0


def open_loop(
    host: str,
    port: int,
    seq: Sequence,
    indices: range,
    rate: float,
    began: float,
    connections: int,
    stop: Callable[[], bool],
) -> list[Record]:
    """Send ``indices[k]`` at ``began + k / rate``, pipelined round-robin.

    Sending ends when ``stop()`` turns true (or ``indices`` run out);
    the requests already sent are still awaited.

    Latency counts from the scheduled send, so a stall is charged to
    every request it delays; ``Record.late`` is how late this generator
    actually sent.  Requests unanswered :data:`GRACE_S` seconds after the
    last scheduled send are recorded as timed out.  A connection the
    server closes fails the requests pending on it; later sends use the
    connections left, and with none left every remaining request fails.
    """
    selector = selectors.DefaultSelector()
    socks: dict[int, socket.socket] = {}
    try:
        for slot in range(connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            socks[slot] = sock
            selector.register(sock, selectors.EVENT_READ, slot)
        inbox = {slot: bytearray() for slot in socks}
        outbox = {slot: bytearray() for slot in socks}
        writing = {slot: False for slot in socks}
        # index -> (scheduled send, actual send, slot)
        pending: dict[int, tuple[float, float, int]] = {}
        records: list[Record] = []
        order = list(indices)
        position = 0
        hard_stop = began + len(order) / rate + GRACE_S

        def drop(slot: int, done: float) -> None:
            selector.unregister(socks[slot])
            socks.pop(slot).close()
            for index in [i for i, p in pending.items() if p[2] == slot]:
                scheduled, sent, _ = pending.pop(index)
                records.append(Record(
                    index, scheduled, done, False, "connection_closed",
                    late=sent - scheduled,
                ))

        def flush(slot: int) -> None:
            buffer = outbox[slot]
            if buffer:
                try:
                    del buffer[:socks[slot].send(buffer)]
                except BlockingIOError:
                    pass
                except OSError:
                    drop(slot, time.perf_counter())
                    return
            want = bool(buffer)
            if want != writing[slot]:
                writing[slot] = want
                events = selectors.EVENT_READ
                if want:
                    events |= selectors.EVENT_WRITE
                selector.modify(socks[slot], events, slot)

        while (position < len(order) or pending) and (
            time.perf_counter() < hard_stop
        ):
            now = time.perf_counter()
            if position < len(order) and stop():
                del order[position:]
            while position < len(order) and began + position / rate <= now:
                index = order[position]
                scheduled = began + position / rate
                position += 1
                if not socks:
                    records.append(Record(
                        index, scheduled, now, False, "connection_closed"
                    ))
                    continue
                live = sorted(socks)
                slot = live[position % len(live)]
                outbox[slot] += encode_line(payload(seq, index))
                pending[index] = (scheduled, time.perf_counter(), slot)
                flush(slot)
            if position < len(order):
                wait = max(began + position / rate - time.perf_counter(), 0.0)
            else:
                wait = 0.05
            for key, mask in selector.select(wait):
                slot = key.data
                if slot not in socks:
                    continue
                if mask & selectors.EVENT_WRITE:
                    flush(slot)
                    if slot not in socks:
                        continue
                if not mask & selectors.EVENT_READ:
                    continue
                try:
                    chunk = socks[slot].recv(1 << 16)
                except OSError:
                    chunk = b""
                if not chunk:
                    drop(slot, time.perf_counter())
                    continue
                inbox[slot] += chunk
                while True:
                    cut = inbox[slot].find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(inbox[slot][:cut + 1])
                    del inbox[slot][:cut + 1]
                    done = time.perf_counter()
                    response = decode_line(line)
                    index = response["id"]
                    scheduled, sent, _ = pending.pop(index)
                    item = record(
                        index, scheduled, done, response,
                        seq.estimator_of[index],
                    )
                    item.late = sent - scheduled
                    records.append(item)
        for index, (scheduled, sent, _) in pending.items():
            records.append(Record(
                index, scheduled, hard_stop, False, "timeout",
                late=sent - scheduled,
            ))
        for later in range(position, len(order)):
            scheduled = began + later / rate
            records.append(Record(
                order[later], scheduled, hard_stop, False, "timeout"
            ))
        records.sort(key=lambda r: r.index)
        return records
    finally:
        selector.close()
        for sock in socks.values():
            sock.close()

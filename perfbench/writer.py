"""The write side of a churn: applies update batches beside live reads.

Run as its own process so the reads' load generator keeps its core::

    python perfbench/writer.py JOB.json

``JOB.json`` names the artifact directory, the edge-list file it was
built from, the server's address and the update batches with their
offsets in seconds.  The writer loads the graph and the graph-attached
store (as ``repro updates apply`` does), prints ``{"event": "ready"}``
and reads the start time (a ``time.perf_counter`` value, which is
CLOCK_MONOTONIC and so shared by every process on the host) from its
standard input.  Batch ``k`` is then applied at ``start + offsets[k]``:
``apply_updates`` appends the delta generation to the artifact
directory, and an ``apply_deltas`` request swaps the server onto it.
One JSON line per generation reports when the apply job started and
what each step cost.
"""

from __future__ import annotations

import json
import sys
import time

from repro.delta.maintain import apply_updates
from repro.delta.updates import UpdateBatch
from repro.graph.io import load_edge_list
from repro.server.client import EstimationClient
from repro.stats.store import StatisticsStore


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    batches = [UpdateBatch.from_payload(item) for item in job["batches"]]
    store = StatisticsStore.load(
        job["artifact"], graph=load_edge_list(job["graph"])
    )
    # The first apply would otherwise also fold the flat array backing
    # into dicts, a one-time cost no later generation pays.
    store.markov.materialize()
    store.degrees.materialize()
    with EstimationClient(job["host"], job["port"], timeout=120.0) as client:
        emit({"event": "ready"})
        began = float(sys.stdin.readline())
        for offset, batch in zip(job["offsets"], batches):
            time.sleep(max(began + offset - time.perf_counter(), 0.0))
            start = time.perf_counter()
            outcome = apply_updates(store, batch, directory=job["artifact"])
            applied = time.perf_counter()
            swap = client.apply_deltas(job["tenant"])
            swapped = time.perf_counter()
            # Through a fleet port the verb fans out: one slot per worker.
            if swap.get("fleet"):
                (slot,) = swap["workers"].values()
                if not slot.get("ok"):
                    raise RuntimeError(f"apply_deltas failed: {slot}")
                swap = slot["result"]
            emit({
                "event": "generation",
                "start": start,
                "apply_s": applied - start,
                "apply_deltas_ms": (swapped - applied) * 1000.0,
                "mode": outcome.mode,
                "artifact_generation": outcome.generation,
                "generation": swap["generation"],
            })
    emit({"event": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

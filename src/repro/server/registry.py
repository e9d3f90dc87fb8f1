"""Multi-tenant artifact registry with atomic hot-reload.

A :class:`StoreRegistry` maps tenant names to loaded
:class:`~repro.stats.store.StatisticsStore` artifacts and the
:class:`~repro.service.session.EstimationSession` serving each of them.
Reads are lock-free snapshots (a single dict lookup of an immutable
:class:`TenantEntry`); writes — loading a tenant, hot-reloading a new
artifact version — build the replacement entry entirely off to the side
and publish it with one atomic reference swap under a small mutex.  An
in-flight request keeps serving from the entry it looked up, so swapping
a tenant's artifact mid-traffic can never fail a request that was
already admitted: old and new sessions coexist until the last reader of
the old one finishes.

Every write goes through one path: memory-map the generation image an
artifact's manifest names (:meth:`StatisticsStore.load` with
``mmap=True``) and publish it.  Images are immutable, so the mapped
pages are the page cache's — forked workers serving the same
generation share them — and an image is never rewritten under a
reader.  The three write verbs differ only in the check they run
before publishing:

* :meth:`reload` (any directory) requires the dataset fingerprint to
  match the version currently served — a registry refuses to silently
  repoint a tenant at statistics of a *different* dataset unless the
  caller passes ``allow_fingerprint_change=True`` (the "this tenant's
  data really was regenerated" escape hatch);
* :meth:`apply_deltas` and :meth:`refresh_if_stale` (the tenant's own
  directory) require the new generation's delta lineage to pass
  through the served fingerprint at the served generation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.errors import DatasetError
from repro.service.session import EstimationSession
from repro.stats.artifact import StoreManifest
from repro.stats.store import StatisticsStore

__all__ = ["TenantEntry", "StoreRegistry"]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class TenantEntry:
    """One immutable (store, session) version a tenant serves from.

    Entries are never mutated after publication; a reload publishes a
    brand-new entry with ``generation + 1``.  The generation therefore
    keys anything version-scoped (e.g. single-flight coalescing keys)
    so work started against an old version never mixes with the new.
    ``loaded_at`` stamps when this entry was published (load, reload or
    live delta refresh) — the ``stats`` verb's staleness signal.
    """

    name: str
    path: Path
    store: StatisticsStore
    session: EstimationSession
    generation: int
    loaded_at: str = field(default_factory=_utc_now)
    #: ``time.monotonic()`` at publication — the clock behind the
    #: ``generation_age_seconds`` staleness signal (wall-clock-safe).
    loaded_monotonic: float = field(default_factory=time.monotonic)

    @property
    def fingerprint(self) -> str:
        """The dataset fingerprint recorded in the artifact manifest."""
        return self.store.manifest.dataset_fingerprint

    def describe(self) -> dict[str, Any]:
        """JSON-friendly summary used by the ``stats`` verb."""
        manifest = self.store.manifest
        return {
            "path": str(self.path),
            "generation": self.generation,
            "dataset": manifest.dataset_name or None,
            "fingerprint": manifest.dataset_fingerprint,
            "base_fingerprint": manifest.base_fingerprint,
            "artifact_generation": manifest.generation,
            "last_reload_at": self.loaded_at,
            "generation_age_seconds": round(
                time.monotonic() - self.loaded_monotonic, 3
            ),
            "last_delta_at": manifest.last_delta_at,
            "h": manifest.h,
            "molp_h": manifest.molp_h,
            "complete": manifest.complete,
            "catalogs": list(manifest.catalogs),
            "image": manifest.image,
            "cache": self.session.stats().as_dict(),
        }


class StoreRegistry:
    """Named, hot-reloadable statistics stores for a serving process."""

    def __init__(self, **session_kwargs: Any):
        #: Keyword arguments forwarded to every ``store.session(...)``
        #: (e.g. LRU capacities); fixed for the registry's lifetime so
        #: a reloaded tenant serves with the same cache configuration.
        self._session_kwargs = dict(session_kwargs)
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantEntry] = {}

    # ------------------------------------------------------------------
    # Reads (lock-free snapshots)
    # ------------------------------------------------------------------
    def get(self, name: str) -> TenantEntry | None:
        """The tenant's current entry, or None when unknown."""
        return self._tenants.get(name)

    def names(self) -> list[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-tenant manifest + session-cache snapshot."""
        snapshot = dict(self._tenants)
        return {name: entry.describe() for name, entry in sorted(snapshot.items())}

    # ------------------------------------------------------------------
    # Writes (atomic publication)
    # ------------------------------------------------------------------
    def _build_entry(
        self, name: str, path: str | Path, generation: int
    ) -> TenantEntry:
        """Map the newest generation image under ``path``."""
        path = Path(path)
        store = StatisticsStore.load(path, mmap=True)
        return TenantEntry(
            name=name,
            path=path,
            store=store,
            session=store.session(**self._session_kwargs),
            generation=generation,
        )

    def _current(self, name: str, action: str) -> TenantEntry:
        current = self._tenants.get(name)
        if current is None:
            raise DatasetError(
                f"cannot {action} unknown tenant {name!r}; "
                f"registered tenants: {self.names()}"
            )
        return current

    def load(self, name: str, path: str | Path) -> TenantEntry:
        """Register a tenant from an artifact directory (generation 1).

        Raises :class:`~repro.errors.DatasetError` when the directory or
        its manifest is missing/invalid, and when the tenant name is
        already taken (use :meth:`reload` to replace a live tenant).
        """
        entry = self._build_entry(name, path, generation=1)
        with self._lock:
            if name in self._tenants:
                raise DatasetError(
                    f"tenant {name!r} is already registered; use reload to "
                    "replace its artifact"
                )
            self._publish(name, entry)
        return entry

    def reload(
        self,
        name: str,
        path: str | Path | None = None,
        allow_fingerprint_change: bool = False,
    ) -> TenantEntry:
        """Atomically swap a tenant to an artifact's newest generation.

        The replacement is loaded and validated entirely before the
        swap, so a bad artifact leaves the old version serving
        untouched.  ``path=None`` re-reads the tenant's current
        directory.
        """
        current = self._current(name, "reload")
        target = Path(path) if path is not None else current.path
        entry = self._build_entry(name, target, current.generation + 1)
        if (
            not allow_fingerprint_change
            and entry.fingerprint != current.fingerprint
        ):
            raise DatasetError(
                f"refusing to reload tenant {name!r}: artifact {target} was "
                f"built from a different dataset (fingerprint "
                f"{entry.fingerprint}, currently serving "
                f"{current.fingerprint}); pass allow_fingerprint_change to "
                "override"
            )
        with self._lock:
            live = self._tenants.get(name)
            if live is None:
                raise DatasetError(
                    f"tenant {name!r} was removed during reload"
                )
            if live.generation >= entry.generation:
                # A concurrent reload won the race; republish on top of
                # it rather than rolling the generation backwards (the
                # entry was freshly read from disk, so its content is
                # current either way).
                entry = replace(entry, generation=live.generation + 1)
            self._publish(name, entry)
        return entry

    def apply_deltas(self, name: str) -> tuple[TenantEntry, int]:
        """Swap a tenant to the newest generation of its own directory.

        The live-refresh path of the dynamic-graph subsystem: the
        offline writer published each applied update batch as a new
        generation image, so refreshing is one manifest read plus, when
        the artifact moved, one memory-mapped load — in-flight requests
        keep the entry they captured, exactly as with :meth:`reload`.
        The new generation's delta lineage must pass through the served
        fingerprint at the served generation (a rebuilt or foreign
        artifact needs :meth:`reload` with ``allow_fingerprint_change``).

        Returns ``(entry, applied)`` where ``applied`` counts the
        generations the swap advanced (0 means the tenant was already
        current and no new entry was published).
        """
        return self._swap_to_newest(name, "apply deltas to")

    def refresh_if_stale(self, name: str) -> tuple[TenantEntry, int]:
        """Catch a tenant up with its on-disk artifact, if it moved.

        The restart-convergence path of the worker fleet: a worker
        re-forked after a crash inherits the supervisor's registry
        snapshot from fork time, which may predate generations its
        peers already swapped to.  Same swap and checks as
        :meth:`apply_deltas`; a tenant that is already current costs
        one manifest read and publishes nothing.
        """
        return self._swap_to_newest(name, "refresh")

    def _swap_to_newest(
        self, name: str, action: str
    ) -> tuple[TenantEntry, int]:
        current = self._current(name, action)
        served = current.store.manifest.generation
        if StoreManifest.load(current.path).generation <= served:
            return current, 0
        entry = self._build_entry(name, current.path, current.generation + 1)
        manifest = entry.store.manifest
        if manifest.lineage_fingerprint(served) != current.fingerprint:
            raise DatasetError(
                f"tenant {name!r} serves fingerprint {current.fingerprint} "
                f"at generation {served}, which is not in the delta lineage "
                f"of {current.path}; use reload with "
                "allow_fingerprint_change to repoint it"
            )
        with self._lock:
            live = self._tenants.get(name)
            if live is None:
                raise DatasetError(
                    f"tenant {name!r} was removed during the delta refresh"
                )
            if live is not current:
                # A concurrent reload may have repointed the tenant at
                # another directory; publishing this generation of the
                # old one over it would silently revert that.
                raise DatasetError(
                    f"tenant {name!r} changed during the delta refresh "
                    "(concurrent reload?); retry apply_deltas"
                )
            self._publish(name, entry)
        return entry, manifest.generation - served

    def _publish(self, name: str, entry: TenantEntry) -> None:
        # Replace the whole dict so readers only ever see a fully
        # consistent mapping (dict reads are atomic under the GIL, but
        # swapping the reference keeps the invariant obvious).
        tenants = dict(self._tenants)
        tenants[name] = entry
        self._tenants = tenants

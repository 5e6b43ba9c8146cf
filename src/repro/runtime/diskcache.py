"""The disk tier of the runtime's :class:`~repro.runtime.cache.Store`,
and the counters every tier reports.

A :class:`~repro.runtime.cache.Store` opened with a ``root`` directory
backs its in-memory namespaces with one :class:`DiskStore`: compiled
programs, pipeline stage artifacts, lowered traces and the checkpoint
journal of finished sweep cells live under ``<root>/<layout>/<kind>/``
(kinds ``compile``, ``stage``, ``trace`` and ``cell``), so a repeated
``repro run``/``repro sweep``/``repro mitigate`` — or a pool worker, or
a restarted compile service — reuses work across processes.

Design points:

* **Content addressing** — the filename is the sha256 of the entry's
  content key (circuit fingerprint x machine id x options fingerprint
  for whole programs; the pipeline's stage-prefix chain for stage
  artifacts; compiled-program x calibration x noise key for traces;
  the cell fingerprint for journal entries), so a different *input* is
  always a different file. Keys cover inputs, not compiler code, so
  the layout is additionally namespaced by a digest of the installed
  package's source: entries written by one version of the code are
  invisible to an edited one, rather than served stale.
* **Eviction-free with an integrity check on load** — the store never
  deletes; every entry embeds the sha256 of its payload plus the full
  (unhashed) content key, and a load that fails either check (torn
  write, bit rot, hash collision) is a miss, never trusted.
* **Concurrency-safe writes** — entries are written to a temp file and
  published with an atomic :func:`os.replace`, so parallel sweep
  workers sharing one directory race benignly.
* **Degradation** — after :data:`DEGRADE_AFTER` consecutive failed
  writes (disk full, read-only mount) the store flips to memory-only
  with one ``RuntimeWarning``; :meth:`DiskStore.redeem` probes its way
  back.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import repro

#: Consecutive failed writes after which a store flips to memory-only.
DEGRADE_AFTER = 3

#: Entry-format tag; bump on layout changes.
_FORMAT = "v1"

_layout_cache: Optional[str] = None


@dataclass
class CacheStats:
    """Counters of one cache tier.

    A memory tier counts only ``hits`` and ``misses``. The disk tier of
    a kind also counts bytes and failed writes; its lookups happen only
    after the memory tier missed, so its ``hits`` are work served
    across process boundaries. ``degraded`` and ``redeemed`` are the
    owning :class:`DiskStore`'s state (memory-only mode, recoveries
    from it), stamped onto snapshots rather than counted.
    """

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    write_errors: int = 0
    degraded: bool = False
    redeemed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter (e.g. a pool worker's) into this one.
        Store state is not traffic: merging views of one store must not
        multiply-count a recovery."""
        self.hits += other.hits
        self.misses += other.misses
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.write_errors += other.write_errors
        self.degraded = self.degraded or other.degraded
        self.redeemed = max(self.redeemed, other.redeemed)

    def minus(self, baseline: "CacheStats") -> "CacheStats":
        """The traffic since *baseline*, an earlier snapshot of the same
        counter — how a sweep isolates its share of a reused store's
        totals. ``degraded`` and ``redeemed`` carry through undiffed."""
        return CacheStats(hits=self.hits - baseline.hits,
                          misses=self.misses - baseline.misses,
                          bytes_read=self.bytes_read - baseline.bytes_read,
                          bytes_written=self.bytes_written
                          - baseline.bytes_written,
                          write_errors=self.write_errors
                          - baseline.write_errors,
                          degraded=self.degraded, redeemed=self.redeemed)

    def describe(self) -> str:
        """Compact ``hits/lookups hit, read/written`` rendering."""
        text = (f"{self.hits}/{self.lookups} hit, "
                f"{_format_bytes(self.bytes_read)} read, "
                f"{_format_bytes(self.bytes_written)} written")
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        if self.degraded:
            text += ", DEGRADED (memory-only)"
        if self.redeemed:
            text += f", redeemed x{self.redeemed}"
        return text


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024:
            return f"{value:.0f}B" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"


def _layout() -> str:
    """Store namespace, part of every entry path.

    Content keys hash a compilation's *inputs*, not the compiler's
    code, so the namespace carries a digest of the installed package's
    source: editing any ``repro`` module moves the whole store to a
    fresh directory rather than serving artifacts computed by old
    code. Deliberately conservative — a docstring edit also
    invalidates — because a stale compiled program is silent and a
    recompile is cheap. Computed once per process.
    """
    global _layout_cache
    if _layout_cache is None:
        hasher = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(path.read_bytes())
        _layout_cache = f"{_FORMAT}-{hasher.hexdigest()[:16]}"
    return _layout_cache


def _publish(path: Path, *chunks: bytes) -> None:
    """Write *chunks* to *path* atomically (temp file + ``os.replace``);
    raises ``OSError`` on failure, leaving no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DiskStore:
    """Content-addressed, integrity-checked entries under one root.

    Args:
        root: Cache directory (created on first write), shared freely
            between processes.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: Per-kind counters (``"compile"``/``"stage"``/``"trace"``/
        #: ``"cell"``).
        self.stats: Dict[str, CacheStats] = {}
        #: True once repeated write failures flipped the store to
        #: memory-only mode (reads still work; writes are skipped).
        self.degraded = False
        #: Times :meth:`redeem` successfully lifted a degradation.
        self.redemptions = 0
        self._consecutive_write_failures = 0

    def stats_for(self, kind: str) -> CacheStats:
        return self.stats.setdefault(kind, CacheStats())

    def entry_path(self, kind: str, key: str) -> Path:
        """Where *key*'s entry lives on disk (it may not exist yet).

        Exposed for the fault-injection harness, which corrupts
        entries in place to prove loads degrade to recomputation.
        """
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.root / _layout() / kind / digest[:2] / digest

    def _note_write_failure(self, kind: str) -> None:
        """Account a failed publish; repeatedly failing writes flip
        the store to memory-only instead of hammering a dead disk on
        every artifact for the rest of the sweep."""
        self.stats_for(kind).write_errors += 1
        self._consecutive_write_failures += 1
        if (self._consecutive_write_failures >= DEGRADE_AFTER
                and not self.degraded):
            self.degraded = True
            warnings.warn(
                f"disk store {self.root} degraded to memory-only after "
                f"{self._consecutive_write_failures} consecutive write "
                f"failures (disk full or read-only?); compilations stay "
                f"cached in-process but will not persist",
                RuntimeWarning, stacklevel=4)

    def redeem(self) -> bool:
        """Attempt to lift a memory-only degradation.

        A degraded store never retries the filesystem on the hot path,
        but a *transient* outage — disk briefly full, NFS blip — would
        otherwise pin a long-lived server in memory-only mode forever.
        ``redeem`` is the explicit, cheap recovery probe: one small
        atomic write. On success the store returns to persistent mode
        with a fresh failure streak (surfaced as ``redeemed`` in every
        kind's snapshot); on failure it stays degraded, silently —
        callers poll this at their own cadence (the compile service
        probes between batches).

        Returns True when the store is persistent again (including
        when it never degraded).
        """
        if not self.degraded:
            return True
        try:
            _publish(self.root / _layout() / "redeem.probe",
                     b"redeem-probe")
        except OSError:
            return False
        self.degraded = False
        self._consecutive_write_failures = 0
        self.redemptions += 1
        return True

    def load_blob(self, kind: str, key: str) -> Optional[bytes]:
        """The stored raw payload for *key*, or ``None``.

        Missing entries, payloads whose embedded digest no longer
        matches, and entries recorded under a different full key
        (digest collision) all return ``None`` — the caller recomputes;
        nothing is ever served unverified. A returned payload counts as
        a hit even if the caller's decode subsequently rejects it.
        """
        stats = self.stats_for(kind)
        try:
            blob = self.entry_path(kind, key).read_bytes()
        except OSError:
            stats.misses += 1
            return None
        stats.bytes_read += len(blob)
        digest, _, rest = blob.partition(b"\n")
        stored_key, _, payload = rest.partition(b"\n")
        if (stored_key.decode("utf-8", errors="replace") != key
                or hashlib.sha256(payload).hexdigest()
                != digest.decode("ascii", errors="replace")):
            stats.misses += 1
            return None
        stats.hits += 1
        return payload

    def load(self, kind: str, key: str) -> Optional[object]:
        """The stored (pickled) object for *key*, or ``None``.

        On top of :meth:`load_blob`'s integrity checks, an unpicklable
        payload also loads as ``None`` (counted back as a miss)."""
        payload = self.load_blob(kind, key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            stats = self.stats_for(kind)
            stats.hits -= 1
            stats.misses += 1
            return None

    def store_blob(self, kind: str, key: str, payload: bytes) -> None:
        """Persist raw *payload* under *key* (atomic publish; errors
        ignored).

        A full disk degrades to in-memory caching rather than failing
        the sweep; after :data:`DEGRADE_AFTER` consecutive ``OSError``
        publishes the whole store flips to memory-only mode (warn-once
        ``RuntimeWarning``, surfaced in the stats snapshots) instead of
        retrying the filesystem on every artifact.
        """
        if self.degraded:
            return
        digest = hashlib.sha256(payload).hexdigest()
        try:
            _publish(self.entry_path(kind, key), digest.encode("ascii"),
                     b"\n", key.encode("utf-8"), b"\n", payload)
        except OSError:
            self._note_write_failure(kind)
            return
        self._consecutive_write_failures = 0
        self.stats_for(kind).bytes_written += \
            len(payload) + len(digest) + len(key) + 2

    def store(self, kind: str, key: str, obj: object) -> None:
        """Pickle and persist *obj* under *key* (see :meth:`store_blob`;
        an unpicklable object is silently kept memory-only)."""
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        self.store_blob(kind, key, payload)

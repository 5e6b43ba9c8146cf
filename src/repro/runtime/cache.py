"""The content-addressed :class:`Store` under the sweep runtime.

Every expensive stage of a scenario cell is keyed by content — circuit,
calibration and options fingerprints — so a fresh calibration snapshot
is a fresh key and a repeated configuration is a lookup. One
:class:`Store` holds all of it: an in-memory dict per namespace over an
optional :class:`~repro.runtime.diskcache.DiskStore` tier
(``Store(root)``), which persists entries across processes.

Namespaces:

* ``compile`` — compiled programs keyed by :func:`compile_key`. A grid
  that varies only seed or trial count compiles once per distinct
  configuration.
* ``stage`` — pipeline-pass artifacts keyed by stage-prefix chain (see
  :mod:`repro.compiler.pipeline`): cells that differ only in
  post-mapping knobs (routing policy, peephole, coherence handling)
  share one expensive SMT/greedy mapping artifact.
* ``trace`` — lowered :class:`~repro.simulator.trace.ProgramTrace`
  objects keyed by (compiled-program fingerprint, calibration, noise
  key); re-executing a compiled program skips the lowering. On disk
  they are compressed ``.npz`` flat arrays (no pickle on the load
  path), and only exact ``ProgramTrace`` objects go there.
* ``cell`` — the checkpoint journal of finished sweep cells, keyed by
  :func:`~repro.runtime.sweep.cell_fingerprint`. It exists to outlive
  the process, so it lives on the disk tier only (``store.disk``).

Two thin fronts give the namespaces their domain-shaped APIs:
:class:`CompileCache` (``get_or_compile``, the per-calibration
:class:`~repro.hardware.ReliabilityTables` memo, and the stage tier the
pipeline consults) and :class:`TraceCache` (the ``trace_cache`` hook of
:func:`repro.simulator.execute`). Cells carrying a backend prefix their
stage and trace keys with its content id, so cross-device sweeps can
never alias.

The parallel sweep path gets cross-worker sharing not by a shared
memory tier but by scheduling: cells with the same mapping-prefix key
go to the same worker (see :mod:`repro.runtime.sweep`), which keeps hit
counts independent of the worker count. Workers open the disk tier at
the same root.
"""

from __future__ import annotations

import io
from dataclasses import replace
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_circuit,
    mapping_stage_fingerprint,
)
from repro.hardware import Calibration, ReliabilityTables
from repro.ir.circuit import Circuit
from repro.runtime.diskcache import CacheStats, DiskStore
from repro.simulator import NoiseModel, ProgramTrace, noise_content_key

if TYPE_CHECKING:
    from repro.backend import Backend

#: (circuit fingerprint, machine id, options fingerprint).
CompileKey = Tuple[str, str, str]

#: (circuit fingerprint, machine id, mapping fingerprint).
PrefixKey = Tuple[str, str, str]

#: The namespaces with a memory tier (the ``cell`` journal is disk-only).
NAMESPACES = ("compile", "stage", "trace")


def machine_id(calibration: Calibration,
               backend: Optional["Backend"] = None) -> str:
    """The machine component of content keys.

    The calibration snapshot id alone when no backend is known (the
    pre-backend contract, preserved bit-for-bit), scoped by the owning
    :meth:`~repro.backend.Backend.content_id` otherwise — so two
    backends that happen to produce identical snapshots still occupy
    disjoint key spaces and cross-device sweeps can never alias.
    """
    if backend is None:
        return calibration.content_id()
    return f"{backend.content_id()}:{calibration.content_id()}"


def compile_key(circuit: Circuit, calibration: Calibration,
                options: CompilerOptions,
                backend: Optional["Backend"] = None) -> CompileKey:
    """The content-addressed identity of one compilation."""
    return (circuit.fingerprint(), machine_id(calibration, backend),
            options.fingerprint())


def mapping_prefix_key(circuit: Circuit, calibration: Calibration,
                       options: CompilerOptions,
                       backend: Optional["Backend"] = None) -> PrefixKey:
    """The content-addressed identity of one *mapping* computation.

    Strictly coarser than :func:`compile_key`: cells sharing a compile
    key always share a prefix key, and cells that differ only in
    post-mapping options share a prefix key without sharing a compile
    key — exactly the set that can reuse a mapping artifact through the
    stage tier.
    """
    return (circuit.fingerprint(), machine_id(calibration, backend),
            mapping_stage_fingerprint(options))


class Store:
    """In-memory dicts per namespace over an optional disk tier.

    Args:
        root: Directory of the :class:`~repro.runtime.diskcache.DiskStore`
            tier; ``None`` keeps everything in memory.

    Attributes:
        disk: The disk tier (``None`` without *root*). Its ``cell``
            kind is the sweep's checkpoint journal.
        memory: Namespace → ``{key: value}``. Values are shared
            objects; treat them as immutable.
        stats: Namespace → live :class:`CacheStats` of lookups.
    """

    def __init__(self, root=None) -> None:
        self.disk = None if root is None else DiskStore(root)
        self.memory: Dict[str, dict] = {ns: {} for ns in NAMESPACES}
        self.stats: Dict[str, CacheStats] = {
            ns: CacheStats() for ns in NAMESPACES}

    @property
    def root(self):
        """The disk tier's directory, or ``None``."""
        return None if self.disk is None else self.disk.root

    def sibling(self) -> "Store":
        """A store with empty memory tiers and counters over this
        store's disk tier (shared, degradation state included)."""
        store = Store()
        store.disk = self.disk
        return store

    def get(self, namespace: str, key):
        """The value under *key*, or ``None``; counted in ``stats``.

        The memory tier answers first; on a miss the disk tier is read
        and a found value is promoted into memory. A disk-served compile
        or stage entry counts as a hit (the work was avoided); a
        disk-served trace counts as a miss, because the trace counters
        describe the memory tier alone (the disk tier keeps its own, and
        the pinned trace hit rates are defined on these).
        """
        memory = self.memory[namespace]
        value = memory.get(key)
        hit = value is not None
        if not hit and self.disk is not None:
            value = self._load(namespace, key)
            if value is not None:
                memory[key] = value
                hit = namespace != "trace"
        stats = self.stats[namespace]
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        return value

    def put(self, namespace: str, key, value) -> None:
        """Record *value* in memory and, when present, on disk."""
        self.memory[namespace][key] = value
        if self.disk is not None:
            self._dump(namespace, key, value)

    def _load(self, namespace: str, key):
        if namespace != "trace":
            return self.disk.load(namespace, key)
        blob = self.disk.load_blob(namespace, repr(key))
        if blob is None:
            return None
        try:
            with np.load(io.BytesIO(blob), allow_pickle=False) as data:
                return ProgramTrace.from_arrays(dict(data))
        except Exception:
            return None  # malformed entry: a miss, re-lowered

    def _dump(self, namespace: str, key, value) -> None:
        if namespace != "trace":
            self.disk.store(namespace, key, value)
            return
        # The stabilizer engine parks its own lowered objects under the
        # same key contract; they (and any subclass) stay memory-only
        # rather than risk a lossy round-trip.
        if type(value) is not ProgramTrace:
            return
        buf = io.BytesIO()
        try:
            np.savez_compressed(buf, **value.to_arrays())
        except Exception:
            return
        self.disk.store_blob(namespace, repr(key), buf.getvalue())

    def disk_stats(self) -> Dict[str, CacheStats]:
        """Copies of the disk tier's per-kind counters with its current
        ``degraded``/``redeemed`` state stamped on (empty without a disk
        tier). Callers reporting a bounded span (one sweep) diff two
        snapshots with :meth:`CacheStats.minus`."""
        if self.disk is None:
            return {}
        return {kind: replace(stats, degraded=self.disk.degraded,
                              redeemed=self.disk.redemptions)
                for kind, stats in self.disk.stats.items()}

    def redeem(self) -> bool:
        """Probe a degraded disk tier back to persistent mode (see
        :meth:`DiskStore.redeem`); trivially true without one."""
        return self.disk is None or self.disk.redeem()


class CompileCache:
    """Memoizes ``compile_circuit`` results by content key.

    Misses compile through the store's stage namespace, so even the
    first compilation of a new option value reuses any pipeline prefix
    (typically the mapping stage) computed for a sibling configuration.

    Args:
        root: Optional directory of the store's disk tier.
    """

    def __init__(self, root=None) -> None:
        self.store = Store(root)
        self._tables: Dict[str, ReliabilityTables] = {}

    @property
    def stats(self) -> CacheStats:
        return self.store.stats["compile"]

    def __len__(self) -> int:
        return len(self.store.memory["compile"])

    def tables_for(self, calibration: Calibration) -> ReliabilityTables:
        """The (shared) routing tables for a calibration snapshot."""
        key = calibration.content_id()
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = ReliabilityTables(calibration)
        return tables

    def seed_tables(self, calibration: Calibration,
                    tables: ReliabilityTables) -> None:
        """Adopt externally built tables (legacy call sites pass them)."""
        self._tables.setdefault(calibration.content_id(), tables)

    def stages_for(self, backend: Optional["Backend"] = None):
        """The stage namespace as the pipeline's stage cache
        (``get(key)``/``put(key, artifact)``), keys prefixed by
        *backend*'s content id when one is given."""
        prefix = "" if backend is None else f"{backend.content_id()}|"
        store = self.store
        return SimpleNamespace(
            get=lambda key: store.get("stage", prefix + key),
            put=lambda key, artifact: store.put("stage", prefix + key,
                                                artifact))

    def get_or_compile(self, circuit: Circuit, calibration: Calibration,
                       options: CompilerOptions,
                       backend: Optional["Backend"] = None
                       ) -> Tuple[CompiledProgram, bool]:
        """Return the compiled program and whether it was a cache hit.

        Hits return a copy flagged ``cache_hit=True`` whose
        ``compile_time`` is zero — the stored program's wall clock
        describes the original compilation, and replaying it would make
        sweep timing reports count the same work once per cell.

        With *backend*, both the whole-program key and the stage keys
        are scoped by its content id (see :func:`machine_id`).
        """
        key = "|".join(compile_key(circuit, calibration, options, backend))
        program = self.store.get("compile", key)
        if program is not None:
            served = replace(program, compile_time=0.0, cache_hit=True)
            if "_fingerprint" in program.__dict__:  # carry the memo over
                served.__dict__["_fingerprint"] = \
                    program.__dict__["_fingerprint"]
            return served, True
        program = compile_circuit(circuit, calibration, options,
                                  tables=self.tables_for(calibration),
                                  stage_cache=self.stages_for(backend))
        self.store.put("compile", key, program)
        return program, False


class TraceCache:
    """Memoizes batched-engine :class:`ProgramTrace` lowerings.

    Passed to :func:`repro.simulator.execute` via its ``trace_cache``
    argument. Only plain :class:`NoiseModel` instances (whose behavior
    is fully determined by calibration content and the mechanism flags)
    are cached; exotic subclasses bypass the cache unless they provide
    their own ``trace_key()`` describing their full configuration.

    Args:
        store: The :class:`Store` whose ``trace`` namespace to use
            (default: a fresh in-memory one).
    """

    #: Backend content id prefixed to every key (see :meth:`scoped`).
    scope: Optional[str] = None

    def __init__(self, store: Optional[Store] = None) -> None:
        self.store = store if store is not None else Store()

    @property
    def stats(self) -> CacheStats:
        return self.store.stats["trace"]

    def __len__(self) -> int:
        return len(self.store.memory["trace"])

    def _key(self, compiled: CompiledProgram, noise: NoiseModel,
             calibration: Calibration) -> Optional[tuple]:
        noise_key = noise_content_key(noise)
        if noise_key is None:
            # Unknown subclass state (or an explicit trace_key() of
            # None): don't risk stale traces.
            return None
        # The execute-time calibration is keyed separately from the
        # noise model's: its topology shapes the trace's crosstalk
        # sites, and execute() supports running under a different
        # snapshot than the noise model was built on.
        key = (compiled.fingerprint(), calibration.content_id(), noise_key)
        return key if self.scope is None else (self.scope,) + key

    def get(self, compiled: CompiledProgram, noise: NoiseModel,
            calibration: Calibration):
        """The cached trace, or ``None`` (counted as a miss)."""
        key = self._key(compiled, noise, calibration)
        return None if key is None else self.store.get("trace", key)

    def put(self, compiled: CompiledProgram, noise: NoiseModel,
            calibration: Calibration, trace) -> None:
        key = self._key(compiled, noise, calibration)
        if key is not None:
            self.store.put("trace", key, trace)

    def scoped(self, backend: Optional["Backend"]) -> "TraceCache":
        """This cache with keys prefixed by *backend*'s content id.

        ``None`` returns this cache unchanged (the pre-backend key
        layout). The result shares the store, entries and counters —
        the sweep runtime hands each cell one scoped to its backend so
        cross-device grids never alias a lowered trace.
        """
        if backend is None:
            return self
        view = TraceCache(self.store)
        view.scope = backend.content_id()
        return view

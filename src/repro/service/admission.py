"""Admission control for the compile service.

The server's front door decides, under a lock, what happens to each
submitted cell before any work is scheduled:

* **Coalesce** — a request whose cell fingerprint is already queued or
  in flight attaches to the existing entry as an extra waiter. The
  content-addressed caches make duplicate work free, so N clients
  submitting the same grid cost one execution plus N responses; a
  coalesced request consumes *no* queue capacity.
* **Admit** — a new fingerprint enters the bounded queue.
* **Shed** — the queue is full, the tenant is over its in-flight cap,
  or the server is draining. Shedding is a structured, immediate
  answer carrying a ``Retry-After`` hint — never a hang: backpressure
  is pushed to the client's backoff loop, where it belongs, instead of
  accumulating as unbounded memory in the server.

Entries are keyed by :func:`~repro.runtime.cell_fingerprint`, the same
content identity the checkpoint journal uses, which is what makes
client resubmission idempotent: a retried request either coalesces
onto the original (still running) or re-admits a fingerprint whose
result the journal already holds (served as a cache hit by the
executor's resume path).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Request:
    """One admitted submit request (possibly with coalesced waiters).

    The first arrival owns the entry; later arrivals with the same
    fingerprint append their tenant to ``waiters`` and share the
    ``done`` event and ``result`` slot.
    """

    fingerprint: str
    cell: object
    tenant: str
    seq: int
    waiters: List[str] = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    result: object = None

    def tenants(self) -> List[str]:
        return [self.tenant] + self.waiters


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one submit.

    ``kind`` is ``"admit"`` (new entry queued), ``"coalesce"``
    (attached to an existing entry), or ``"shed"`` (rejected;
    ``reason`` names which bound fired and ``retry_after`` hints when
    to come back). Admit/coalesce decisions carry the live
    :class:`Request` whose ``done`` event the connection handler
    waits on.
    """

    kind: str
    request: Optional[Request] = None
    reason: str = ""
    retry_after: float = 0.0


@dataclass
class AdmissionStats:
    """Monotonic front-door counters (surfaced by the health report)."""

    admitted: int = 0
    coalesced: int = 0
    shed_queue_full: int = 0
    shed_tenant_cap: int = 0
    shed_draining: int = 0

    @property
    def shed(self) -> int:
        return (self.shed_queue_full + self.shed_tenant_cap
                + self.shed_draining)


class AdmissionController:
    """Bounded, coalescing, tenant-fair request intake.

    Args:
        capacity: Maximum *distinct* cells queued (in-flight cells have
            left the queue). The K+1st distinct submit is shed.
        tenant_cap: Maximum requests one tenant may have outstanding
            (queued or in flight, coalesced ones included — a tenant
            flooding duplicates still occupies response slots).
        retry_after: Base ``Retry-After`` hint (seconds); the
            queue-full hint scales with how oversubscribed the queue
            is, so a deeper backlog pushes clients further away.
    """

    def __init__(self, capacity: int = 64, tenant_cap: int = 16,
                 retry_after: float = 0.05) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if tenant_cap < 1:
            raise ValueError(f"tenant cap must be >= 1, got {tenant_cap}")
        self.capacity = capacity
        self.tenant_cap = tenant_cap
        self.retry_after = retry_after
        self.stats = AdmissionStats()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._queue: List[Request] = []
        self._entries: Dict[str, Request] = {}  # queued + in-flight
        self._tenant_outstanding: Dict[str, int] = {}
        self._draining = False
        self._seq = 0

    # ------------------------------------------------------------ intake

    def offer(self, fingerprint: str, cell: object,
              tenant: str) -> AdmissionDecision:
        """Decide one submit. Never blocks; sheds instead."""
        with self._lock:
            if self._draining:
                self.stats.shed_draining += 1
                return AdmissionDecision(
                    kind="shed", reason="draining",
                    retry_after=self.retry_after)
            if self._tenant_outstanding.get(tenant, 0) >= self.tenant_cap:
                self.stats.shed_tenant_cap += 1
                return AdmissionDecision(
                    kind="shed", reason="tenant-cap",
                    retry_after=self.retry_after)
            existing = self._entries.get(fingerprint)
            if existing is not None and not existing.done.is_set():
                existing.waiters.append(tenant)
                self._tenant_outstanding[tenant] = \
                    self._tenant_outstanding.get(tenant, 0) + 1
                self.stats.coalesced += 1
                return AdmissionDecision(kind="coalesce", request=existing)
            if len(self._queue) >= self.capacity:
                self.stats.shed_queue_full += 1
                backlog = len(self._queue) / self.capacity
                return AdmissionDecision(
                    kind="shed", reason="queue-full",
                    retry_after=self.retry_after * (1.0 + backlog))
            request = Request(fingerprint=fingerprint, cell=cell,
                              tenant=tenant, seq=self._seq)
            self._seq += 1
            self._queue.append(request)
            self._entries[fingerprint] = request
            self._tenant_outstanding[tenant] = \
                self._tenant_outstanding.get(tenant, 0) + 1
            self.stats.admitted += 1
            self._available.notify()
            return AdmissionDecision(kind="admit", request=request)

    # ---------------------------------------------------------- executor

    def take_batch(self, max_batch: int, timeout: Optional[float] = None,
                   gather: bool = True) -> List[Request]:
        """Dequeue up to *max_batch* distinct requests for execution.

        Blocks up to *timeout* seconds for the first request (returning
        ``[]`` if none comes, or at once when draining with nothing
        queued). With *gather*, it then keeps gathering until the batch
        is full or another *timeout* window passes — a burst of
        concurrent submits (N clients, one grid) lands in one
        ``run_sweep`` call a process pool can spread out. Without it,
        whatever is queued is taken at once: an executor that runs a
        batch serially gains nothing from waiting, and a backlog still
        forms bigger batches on its own. Taken requests stay in
        ``entries`` (they are in flight: late duplicates must still
        coalesce) until :meth:`complete`.
        """
        with self._lock:
            if not self._queue:
                if not self._draining:
                    self._available.wait(timeout)
                if not self._queue:
                    return []
            if gather and timeout:
                gather_until = time.monotonic() + timeout
                while len(self._queue) < max_batch:
                    remaining = gather_until - time.monotonic()
                    if remaining <= 0 or self._draining:
                        break
                    self._available.wait(remaining)
            batch = self._queue[:max_batch]
            del self._queue[:len(batch)]
            return batch

    def complete(self, request: Request, result: object) -> None:
        """Publish a result: release tenant slots, wake all waiters."""
        with self._lock:
            request.result = result
            for tenant in request.tenants():
                remaining = self._tenant_outstanding.get(tenant, 0) - 1
                if remaining > 0:
                    self._tenant_outstanding[tenant] = remaining
                else:
                    self._tenant_outstanding.pop(tenant, None)
            if self._entries.get(request.fingerprint) is request:
                del self._entries[request.fingerprint]
            request.done.set()

    # ------------------------------------------------------------- state

    def drain(self) -> None:
        """Refuse new work; already-admitted requests still complete."""
        with self._lock:
            self._draining = True
            self._available.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    def pending(self) -> int:
        """Distinct requests admitted but not yet completed."""
        with self._lock:
            return len(self._entries)

    def depth(self) -> int:
        """Distinct requests queued (not yet taken by the executor)."""
        with self._lock:
            return len(self._queue)

    def snapshot(self) -> dict:
        """Health-report view: bounds, depths, and counters."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "tenant_cap": self.tenant_cap,
                "queue_depth": len(self._queue),
                "in_flight": len(self._entries) - len(self._queue),
                "tenants": dict(self._tenant_outstanding),
                "draining": self._draining,
                "admitted": self.stats.admitted,
                "coalesced": self.stats.coalesced,
                "shed": self.stats.shed,
                "shed_queue_full": self.stats.shed_queue_full,
                "shed_tenant_cap": self.stats.shed_tenant_cap,
                "shed_draining": self.stats.shed_draining,
            }

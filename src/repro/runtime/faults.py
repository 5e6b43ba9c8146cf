"""Deterministic fault-injection harness for the sweep runtime.

Robust recovery paths that are never exercised rot silently, so the
supervised pool's failure handling (worker death, poison cells,
watchdog timeouts, journal corruption) is driven by an explicit,
seedable :class:`FaultPlan` threaded through
:func:`~repro.runtime.sweep.run_cell_guarded` and the pool's worker
entry point. The chaos test suite (``tests/test_faults.py``) and the
CI chaos job prove each path against it.

Two safety properties:

* **Env gate** — a plan only fires while the ``REPRO_FAULTS``
  environment variable is set to a truthy value. A plan object leaking
  into a production call site is inert; arming is an explicit,
  process-wide decision (inherited by pool workers).
* **Determinism** — faults are addressed by *grid index* (the cell's
  position in the sweep), and attempt-scoped: a kill or delay fault
  declares how many attempts it affects, so a retried cell observes
  the fault deterministically ("die on the first attempt, succeed on
  the second") instead of probabilistically. :meth:`FaultPlan.random`
  derives a plan from a seed for randomized chaos sweeps that are
  still replayable.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.exceptions import FaultInjected, ReproError

#: Environment variable arming the harness. Unset/empty/"0" = inert.
FAULTS_ENV = "REPRO_FAULTS"

#: Optional environment fault-plan spec parsed by :meth:`FaultPlan.from_env`.
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

#: Exit status a kill-worker fault dies with (``os._exit``), chosen to
#: be distinguishable from Python's generic failure exit in logs.
KILL_EXIT_CODE = 86


def faults_armed() -> bool:
    """Whether the process-wide fault gate (``REPRO_FAULTS``) is set."""
    return os.environ.get(FAULTS_ENV, "") not in ("", "0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures, by grid index.

    Attributes:
        raise_in: Cell indexes whose execution raises
            :class:`~repro.exceptions.FaultInjected` (a poison cell the
            per-cell isolation layer must capture, every attempt).
        kill_on: Cell index → number of attempts on which reaching the
            cell kills the whole worker process via ``os._exit``
            (``None`` = every attempt, i.e. a poison cell the
            supervisor must quarantine; ``1`` = a transient crash the
            retry path must absorb).
        delay: Cell index → seconds slept before the cell runs, on the
            first ``delay_times`` attempts — stalls a worker so the
            watchdog's kill-and-resubmit path can be exercised.
        delay_times: Attempts affected by each ``delay`` entry.
        interrupt_in: Cell indexes raising ``KeyboardInterrupt`` —
            simulates Ctrl-C mid-sweep for checkpoint/resume tests.
        corrupt_journal: Cell indexes whose checkpoint-journal entry is
            overwritten with garbage right after being written, so
            resume must degrade to re-execution.
        conn_drop: *Request sequence numbers* (the compile service's
            arrival order of submit requests, 0-based) whose response
            is never sent — the connection is closed instead, so the
            client observes a clean EOF and must resubmit.
        conn_trunc: Request sequence numbers whose response frame is
            cut off mid-message (half the bytes, then close) — the
            client's length-prefixed reader must reject the torn frame
            as a transport failure, never parse a partial payload.
        conn_delay: Request sequence number → seconds slept before the
            response is sent — stalls a response so client-side
            deadlines and timeouts can be exercised.
        kill_server_on: Request sequence numbers after whose result is
            journaled the whole server process dies via ``os._exit`` —
            the dirty-shutdown drill: a restarted server must resume
            from the journal and resubmitting clients must converge.
    """

    raise_in: Tuple[int, ...] = ()
    kill_on: Mapping[int, Optional[int]] = field(default_factory=dict)
    delay: Mapping[int, float] = field(default_factory=dict)
    delay_times: int = 1
    interrupt_in: Tuple[int, ...] = ()
    corrupt_journal: Tuple[int, ...] = ()
    conn_drop: Tuple[int, ...] = ()
    conn_trunc: Tuple[int, ...] = ()
    conn_delay: Mapping[int, float] = field(default_factory=dict)
    kill_server_on: Tuple[int, ...] = ()

    @property
    def armed(self) -> bool:
        """Whether this plan fires (the process-wide env gate)."""
        return faults_armed()

    def before_cell(self, index: int, attempts: int = 0,
                    in_worker: bool = False) -> None:
        """Fire any fault scheduled for *index* about to run.

        Args:
            index: The cell's grid index.
            attempts: Prior worker-death attempts charged to the cell —
                attempt-scoped faults (kill, delay) compare against it.
            in_worker: True inside a pool worker process. Kill faults
                outside one would take down the caller's interpreter,
                so the serial path turns them into a loud
                :class:`~repro.exceptions.FaultInjected` instead.
        """
        if not self.armed:
            return
        seconds = self.delay.get(index)
        if seconds is not None and attempts < self.delay_times:
            time.sleep(seconds)
        if index in self.kill_on:
            times = self.kill_on[index]
            if times is None or attempts < times:
                if in_worker:
                    os._exit(KILL_EXIT_CODE)
                raise FaultInjected(
                    f"kill-worker fault on cell {index} reached in-process"
                    " (serial path); kill faults need workers >= 2")
        if index in self.interrupt_in:
            raise KeyboardInterrupt(f"injected interrupt on cell {index}")
        if index in self.raise_in:
            raise FaultInjected(f"injected failure on cell {index} "
                                f"(attempt {attempts + 1})")

    def after_journal(self, index: int, journal, fingerprint: str) -> None:
        """Corrupt the journal entry just written for *index*, if
        scheduled — the resume path must treat it as a miss."""
        if not self.armed or index not in self.corrupt_journal:
            return
        path = journal.entry_path("cell", fingerprint)
        try:
            path.write_bytes(b"deadbeef\ncorrupted-by-fault-plan\n")
        except OSError:
            pass  # store already degraded; nothing left to corrupt

    def on_response(self, seq: int) -> Optional[str]:
        """The connection fault scheduled for submit request *seq*
        about to be answered, or ``None``.

        Applies any ``conn_delay`` in place (sleeps), then returns
        ``"drop"`` (close without responding) or ``"trunc"`` (send a
        torn frame) for the server's response path to enact. Sequence
        numbers are the service's global submit-arrival order, so a
        single-client drill observes its faults deterministically.
        """
        if not self.armed:
            return None
        seconds = self.conn_delay.get(seq)
        if seconds is not None:
            time.sleep(seconds)
        if seq in self.conn_drop:
            return "drop"
        if seq in self.conn_trunc:
            return "trunc"
        return None

    def maybe_kill_server(self, seq: int) -> None:
        """Die (``os._exit``) if a kill-server fault is scheduled for
        submit request *seq* — fired by the server *after* the result
        is journaled, so a restart can serve it from the checkpoint."""
        if self.armed and seq in self.kill_server_on:
            os._exit(KILL_EXIT_CODE)

    def shifted(self, offset: int) -> "FaultPlan":
        """This plan as seen by a batch whose first cell is cell
        *offset* of a longer stream (the compile service numbers cells
        across its lifetime, while each ``run_sweep`` batch counts from
        0). Cell-level indexes move down by *offset*, dropping those
        before the batch; request-level (connection) faults stay."""
        def local(indexes):
            return tuple(i - offset for i in indexes if i >= offset)

        def local_map(mapping):
            return {i - offset: v for i, v in mapping.items()
                    if i >= offset}

        return replace(self, raise_in=local(self.raise_in),
                       kill_on=local_map(self.kill_on),
                       delay=local_map(self.delay),
                       interrupt_in=local(self.interrupt_in),
                       corrupt_journal=local(self.corrupt_journal))

    @classmethod
    def random(cls, seed: int, n_cells: int, raise_rate: float = 0.0,
               kill_rate: float = 0.0, delay_rate: float = 0.0,
               delay_seconds: float = 0.1,
               transient: bool = True) -> "FaultPlan":
        """A seed-derived plan: same seed, same faults, replayable.

        Each cell independently draws whether it raises, kills its
        worker (transiently — first attempt only — unless *transient*
        is False, which makes kills poison), or stalls.
        """
        rng = random.Random(seed)
        raise_in = []
        kill_on: Dict[int, Optional[int]] = {}
        delay: Dict[int, float] = {}
        for index in range(n_cells):
            if rng.random() < raise_rate:
                raise_in.append(index)
            elif rng.random() < kill_rate:
                kill_on[index] = 1 if transient else None
            elif rng.random() < delay_rate:
                delay[index] = delay_seconds
        return cls(raise_in=tuple(raise_in), kill_on=kill_on, delay=delay)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan described by ``REPRO_FAULT_SPEC``, or ``None``.

        Spec grammar (comma-separated tokens; cell faults address grid
        positions, connection faults address submit-request sequence
        numbers): ``raise:IDX``, ``kill:IDX`` (first attempt),
        ``kill:IDXx3`` (three attempts), ``kill:IDXx*`` (poison),
        ``delay:IDX=SECONDS``, ``interrupt:IDX``, ``corrupt:IDX``,
        ``conn-drop:SEQ``, ``conn-trunc:SEQ``,
        ``conn-delay:SEQ=SECONDS``, ``kill-server:SEQ``.
        Returns ``None`` when the gate is closed or no spec is set —
        the CLI calls this unconditionally.
        """
        spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
        if not spec or not faults_armed():
            return None
        raise_in, interrupt_in, corrupt = [], [], []
        conn_drop, conn_trunc, kill_server = [], [], []
        kill_on: Dict[int, Optional[int]] = {}
        delay: Dict[int, float] = {}
        conn_delay: Dict[int, float] = {}
        for token in spec.split(","):
            kind, _, arg = token.strip().partition(":")
            try:
                if kind == "raise":
                    raise_in.append(int(arg))
                elif kind == "interrupt":
                    interrupt_in.append(int(arg))
                elif kind == "corrupt":
                    corrupt.append(int(arg))
                elif kind == "conn-drop":
                    conn_drop.append(int(arg))
                elif kind == "conn-trunc":
                    conn_trunc.append(int(arg))
                elif kind == "kill-server":
                    kill_server.append(int(arg))
                elif kind == "delay":
                    index, _, seconds = arg.partition("=")
                    delay[int(index)] = float(seconds)
                elif kind == "conn-delay":
                    index, _, seconds = arg.partition("=")
                    conn_delay[int(index)] = float(seconds)
                elif kind == "kill":
                    index, _, times = arg.partition("x")
                    kill_on[int(index)] = (None if times == "*"
                                           else int(times) if times else 1)
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except ValueError as exc:
                raise ReproError(
                    f"bad {FAULT_SPEC_ENV} token {token!r}: {exc}") from exc
        return cls(raise_in=tuple(raise_in), kill_on=kill_on, delay=delay,
                   interrupt_in=tuple(interrupt_in),
                   corrupt_journal=tuple(corrupt),
                   conn_drop=tuple(conn_drop),
                   conn_trunc=tuple(conn_trunc), conn_delay=conn_delay,
                   kill_server_on=tuple(kill_server))

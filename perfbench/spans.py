"""In-memory spans and counters recorded from outside the program.

The benchmark never edits ``src/``. It measures a layer by rebinding
that layer's public entry points to thin wrappers for the length of a
run and restoring them afterwards:

* :class:`Probes` rebinds a module-level function in every loaded
  ``repro`` module (and in the benchmark's own modules) that holds it,
  so ``from x import f`` call sites see the wrapper too, and wraps
  methods on their defining class.
* :class:`Tracer` records one span per wrapped call — name, start, end,
  parent, thread — plus named counters. Spans stay in memory; the run
  summarizes or writes them out when it ends.

A layer is the first dotted component of a span name
(``simulator.contract`` belongs to ``simulator``). A span's self time
is its duration minus the durations of its direct children; children
nest inside their parent on one thread, so that difference is the part
of the interval no child covers.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Modules outside ``repro`` whose bindings are rebound as well: the
#: benchmark's own that import probed ``repro`` functions by name.
BENCH_MODULES = ("workloads",)


class Probes:
    """Reversible rebinding of functions and methods."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, original: Callable, replacement: Callable) -> None:
        """Rebind *original* to *replacement* wherever a loaded module
        binds it by name."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")
                                      or name in BENCH_MODULES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(
                f"probe target {original.__module__}."
                f"{original.__qualname__} is bound nowhere")

    def method(self, owner: type, attr: str, replacement_for) -> None:
        """Replace ``owner.attr`` (defined on *owner* itself) with
        ``replacement_for(original)``."""
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement_for(original))
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every rebinding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class CellTimer:
    """Per-cell wall clock around ``run_cell``, the sweep runtime's
    public per-cell entry point — the only probe untraced runs use.
    With a :class:`gauge.SpeedGauge`, a cell's seconds leave out the
    gauge's kernel runs and are also kept rescaled, and the span from
    the cell's start to the end of the kernel run after it is kept.
    ``install(run_sweep)`` times whole sweeps instead."""

    def __init__(self, gauge=None) -> None:
        self.seconds: List[float] = []
        #: ``seconds`` rescaled by the speed gauge, if one is given.
        self.scaled: List[float] = []
        #: ``(start, end)`` ``time.perf_counter()`` readings of each
        #: rescaled cell, the gauge's kernel runs included.
        self.spans: List[Tuple[float, float]] = []
        self.gauge = gauge
        self._probes = Probes()

    def install(self, function: Optional[Callable] = None) -> None:
        from repro.runtime.sweep import run_cell

        function = function or run_cell
        seconds, scaled, gauge = self.seconds, self.scaled, self.gauge
        spans = self.spans

        @functools.wraps(function)
        def timed(*args, **kwargs):
            mark = gauge.mark() if gauge is not None else 0
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if gauge is not None:
                    elapsed, rescaled = gauge.rescale(elapsed, mark)
                    scaled.append(rescaled)
                    spans.append((start, time.perf_counter()))
                seconds.append(elapsed)

        self._probes.function(function, timed)

    def remove(self) -> None:
        self._probes.remove()


class Tracer:
    """Spans and counters, thread-aware, kept in memory."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 = root), thread id]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.probes = Probes()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent,
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrapper(self, name: str, original: Callable,
                after: Optional[Callable] = None) -> Callable:
        """A span-recording stand-in for *original*; ``after(args,
        kwargs, result)`` runs once the call returns."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def trace_function(self, name: str, original: Callable,
                       after: Optional[Callable] = None) -> None:
        self.probes.function(original, self.wrapper(name, original, after))

    def trace_method(self, owner: type, attr: str, name: str,
                     after: Optional[Callable] = None) -> None:
        self.probes.method(owner, attr,
                           lambda original: self.wrapper(name, original,
                                                         after))

    def remove(self) -> None:
        self.probes.remove()

    # ------------------------------------------------------------ summary

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent, _thread in self.spans:
            if parent >= 0 and end is not None:
                child_total[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _thread) in \
                enumerate(self.spans):
            if end is None:
                continue
            out[name] = out.get(name, 0.0) + (end - start) \
                - child_total[index]
        return out

    def dump(self, path) -> None:
        """Write every span and counter to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "counters": dict(self.counters)}, handle)

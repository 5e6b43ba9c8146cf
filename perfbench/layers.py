"""Per-layer probes and metrics of the traced run.

:func:`install` wraps the public entry points of each layer (see the
table in ``README.md``) so that a :class:`LayerTracer` records their
spans, counters and returned artifacts; :func:`layer_metrics` folds
those into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from spans import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("setup.server_start_s", "s", "lower"),
    ("compiler.self_s", "s", "lower"),
    ("compiler.map_qiskit_s", "s", "lower"),
    ("compiler.map_tsmt_s", "s", "lower"),
    ("compiler.map_tsmt_star_s", "s", "lower"),
    ("compiler.map_rsmt_star_s", "s", "lower"),
    ("compiler.map_greedy_s", "s", "lower"),
    ("compiler.schedule_s", "s", "lower"),
    ("compiler.swap_insert_s", "s", "lower"),
    ("compiler.reliability_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.nodes_tsmt", "count", "lower"),
    ("solver.nodes_tsmt_star", "count", "lower"),
    ("solver.nodes_rsmt_star", "count", "lower"),
    ("solver.us_per_node_generic", "us", "lower"),
    ("solver.us_per_node_vector", "us", "lower"),
    ("solver.prunes_per_node", "ratio", "higher"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.lower_s", "s", "lower"),
    ("simulator.lowerings", "count", "lower"),
    ("simulator.rescale_s", "s", "lower"),
    ("simulator.sample_s", "s", "lower"),
    ("simulator.contract_s", "s", "lower"),
    ("simulator.plans", "count", "lower"),
    ("simulator.contractions", "count", "lower"),
    ("simulator.trials", "count", "higher"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.dispatch_s", "s", "lower"),
    ("runtime.compile_hit_rate", "ratio", "higher"),
    ("runtime.stage_hit_rate", "ratio", "higher"),
    ("runtime.trace_hit_rate", "ratio", "higher"),
    ("runtime.disk_get_s", "s", "lower"),
    ("runtime.disk_put_s", "s", "lower"),
    ("runtime.disk_read_bytes", "B", "lower"),
    ("runtime.disk_write_bytes", "B", "lower"),
    ("mitigation.self_s", "s", "lower"),
    ("mitigation.executions", "count", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.encode_s", "s", "lower"),
    ("service.decode_s", "s", "lower"),
    ("service.frame_bytes", "B", "lower"),
    ("service.cells_per_batch", "ratio", "higher"),
    ("service.shed", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Mapping-pass variant -> the compiler metric its time lands in.
_MAP_METRIC = {
    "qiskit": "compiler.map_qiskit_s",
    "t-smt": "compiler.map_tsmt_s",
    "t-smt*": "compiler.map_tsmt_star_s",
    "r-smt*": "compiler.map_rsmt_star_s",
    "greedyv*": "compiler.map_greedy_s",
    "greedye*": "compiler.map_greedy_s",
}
_PASS_METRIC = {
    "schedule": "compiler.schedule_s",
    "swap-insert": "compiler.swap_insert_s",
    "reliability": "compiler.reliability_s",
}
_NODE_COUNTER = {
    "t-smt": "solver.nodes_tsmt",
    "t-smt*": "solver.nodes_tsmt_star",
    "r-smt*": "solver.nodes_rsmt_star",
}


def _record_compile(tracer: Tracer, program) -> None:
    """Fold one freshly compiled program's public pass timings and
    mapping statistics into the tracer's counters."""
    variant = program.options.variant
    mapping_fresh = False
    for timing in program.pass_timings:
        if timing.cached:
            continue
        if timing.name.startswith("mapping["):
            tracer.count(_MAP_METRIC[variant], timing.seconds)
            mapping_fresh = True
        elif timing.name in _PASS_METRIC:
            tracer.count(_PASS_METRIC[timing.name], timing.seconds)
    mapping = program.mapping
    if not mapping_fresh or not mapping.stats:
        return
    tracer.count(_NODE_COUNTER[variant], mapping.nodes)
    engine = mapping.stats.get("engine", "generic")
    engine = "generic" if engine == "generic" else "vector"
    tracer.count(f"solver.nodes.{engine}", mapping.nodes)
    tracer.count(f"solver.seconds.{engine}", mapping.solve_time)
    tracer.count("solver.nodes.all", mapping.nodes)
    tracer.count("solver.prunes", mapping.stats.get("prunes", 0))


class LayerTracer(Tracer):
    """A :class:`Tracer` that also keeps the cache statistics of every
    sweep it traces."""

    def __init__(self) -> None:
        super().__init__()
        # Shared caches report one cumulative stats object across
        # sweeps, so totals are read once, at the end, from the
        # distinct objects; holding them keeps their ids unique.
        self._cache_stats: Dict[tuple, tuple] = {}

    def record_sweep(self, result) -> None:
        for tier, stats in (("compile", result.compile_stats),
                            ("stage", result.stage_stats),
                            ("trace", result.trace_stats)):
            self._cache_stats[(tier, id(stats))] = (tier, stats)

    def summary(self) -> dict:
        """This process's part of the per-layer numbers, JSON-ready —
        what a traced server ships back to the benchmark."""
        cache = {"compile": [0, 0], "stage": [0, 0], "trace": [0, 0]}
        for tier, stats in self._cache_stats.values():
            cache[tier][0] += stats.hits
            cache[tier][1] += stats.lookups
        return {"self": self.self_times(), "counters": dict(self.counters),
                "cache": cache, "spans": len(self.spans)}


def install(tracer: LayerTracer) -> None:
    """Wrap each layer's public entry points (module docstring)."""
    from repro.compiler import compile as compile_module
    from repro.compiler.pipeline import Pass
    from repro.mitigation.strategy import MitigationStrategy
    from repro.runtime import diskcache, sweep
    from repro.service import protocol
    from repro.simulator import batch, executor
    from repro.simulator.trace import ProgramTrace
    from repro.simulator.xp import resolve_array_backend
    from repro.solver.bnb import BranchAndBoundSolver
    from repro.solver.portfolio import PortfolioSolver

    tracer.trace_function(
        "compiler.compile_circuit", compile_module.compile_circuit,
        after=lambda a, k, program: _record_compile(tracer, program))
    for cls in _subclasses(Pass):
        if "run" in cls.__dict__:
            tracer.trace_method(cls, "run", f"compiler.pass.{cls.__name__}")
    tracer.trace_method(BranchAndBoundSolver, "solve", "solver.solve")
    tracer.trace_method(PortfolioSolver, "solve", "solver.solve")

    tracer.trace_method(
        ProgramTrace, "__init__", "simulator.lower",
        after=lambda a, k, r: tracer.count("simulator.lowerings"))
    _trace_cached_property(tracer, ProgramTrace, "_ideal",
                           "simulator.lower")
    tracer.trace_method(ProgramTrace, "rescaled", "simulator.rescale")
    tracer.trace_function(
        "simulator.sample", executor.run_batched,
        after=lambda a, k, r: tracer.count(
            "simulator.trials", k["trials"] if "trials" in k else a[1]))
    tracer.trace_function(
        "simulator.contract", batch.batch_plan_probabilities,
        after=lambda a, k, r: tracer.count("simulator.plans",
                                           r.shape[0]))
    backend_cls = type(resolve_array_backend(None))
    owner = next(c for c in backend_cls.__mro__ if "tensordot" in c.__dict__)
    tracer.probes.method(owner, "tensordot",
                         lambda original: _counting(tracer, original))

    tracer.trace_function(
        "runtime.run_sweep", sweep.run_sweep,
        after=lambda a, k, result: tracer.record_sweep(result))
    tracer.trace_function("runtime.run_cell", sweep.run_cell)
    store = diskcache.DiskStore
    tracer.trace_method(store, "load", "runtime.disk_get")
    tracer.trace_method(
        store, "load_blob", "runtime.disk_get",
        after=lambda a, k, blob: tracer.count(
            "runtime.disk_read_bytes", len(blob) if blob else 0))
    tracer.trace_method(store, "store", "runtime.disk_put")
    tracer.trace_method(
        store, "store_blob", "runtime.disk_put",
        after=lambda a, k, r: tracer.count(
            "runtime.disk_write_bytes",
            len(k["payload"] if "payload" in k else a[3])))

    for cls in [MitigationStrategy] + _subclasses(MitigationStrategy):
        if "mitigate" in cls.__dict__:
            tracer.trace_method(cls, "mitigate", "mitigation.mitigate")

    tracer.trace_function(
        "service.encode", protocol.encode_cell,
        after=lambda a, k, env: tracer.count("service.body_bytes",
                                             len(env["cell"])))
    tracer.trace_function("service.decode", protocol.decode_cell)
    tracer.trace_function("service.encode", protocol.encode_result)
    tracer.trace_function(
        "service.decode", protocol.decode_result,
        after=lambda a, k, r: (
            tracer.count("service.body_bytes", len(a[0]["result"])),
            tracer.count("service.round_trips")))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


def _counting(tracer: Tracer, original):
    # Called thousands of times per pass from the one thread that
    # simulates, so it bumps the counter without the tracer's lock.
    def counted(*args, **kwargs):
        tracer.counters["simulator.contractions"] += 1
        return original(*args, **kwargs)
    return counted


def _trace_cached_property(tracer: Tracer, owner: type, attr: str,
                           name: str) -> None:
    from functools import cached_property

    def replace(original):
        wrapped = cached_property(tracer.wrapper(name, original.func))
        wrapped.__set_name__(owner, attr)
        return wrapped

    tracer.probes.method(owner, attr, replace)


def merge(parts: Iterable[dict]) -> dict:
    """Sum the summaries of several processes."""
    out = {"self": {}, "counters": {},
           "cache": {"compile": [0, 0], "stage": [0, 0], "trace": [0, 0]},
           "spans": 0}
    for part in parts:
        for key in ("self", "counters"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for tier, (hits, lookups) in part["cache"].items():
            out["cache"][tier][0] += hits
            out["cache"][tier][1] += lookups
        out["spans"] += part["spans"]
    return out


def layer_metrics(summary: dict, setup: Dict[str, float],
                  service: Dict[str, float], mitigation_executions: int,
                  wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric from a merged summary. A layer that does
    not run on the workload reports 0."""
    self_s = summary["self"]
    counters = summary["counters"]

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items()
                   if k.split(".", 1)[0] == prefix)

    def rate(tier: str) -> float:
        hits, lookups = summary["cache"][tier]
        return hits / lookups if lookups else 0.0

    def per_node(engine: str) -> float:
        nodes = counters.get(f"solver.nodes.{engine}", 0)
        seconds = counters.get(f"solver.seconds.{engine}", 0.0)
        return seconds / nodes * 1e6 if nodes else 0.0

    nodes = counters.get("solver.nodes.all", 0)
    trips = counters.get("service.round_trips", 0)
    out = {
        "setup.import_s": setup["import_s"],
        "setup.inputs_s": setup["inputs_s"],
        "setup.server_start_s": setup["server_start_s"],
        "compiler.self_s": layer_self("compiler"),
        "solver.self_s": layer_self("solver"),
        "solver.us_per_node_generic": per_node("generic"),
        "solver.us_per_node_vector": per_node("vector"),
        "solver.prunes_per_node": (counters.get("solver.prunes", 0) / nodes
                                   if nodes else 0.0),
        "simulator.self_s": layer_self("simulator"),
        "simulator.lower_s": self_s.get("simulator.lower", 0.0),
        "simulator.rescale_s": self_s.get("simulator.rescale", 0.0),
        "simulator.sample_s": self_s.get("simulator.sample", 0.0),
        "simulator.contract_s": self_s.get("simulator.contract", 0.0),
        "runtime.self_s": layer_self("runtime"),
        "runtime.dispatch_s": (self_s.get("runtime.run_sweep", 0.0)
                               + self_s.get("runtime.run_cell", 0.0)),
        "runtime.compile_hit_rate": rate("compile"),
        "runtime.stage_hit_rate": rate("stage"),
        "runtime.trace_hit_rate": rate("trace"),
        "runtime.disk_get_s": self_s.get("runtime.disk_get", 0.0),
        "runtime.disk_put_s": self_s.get("runtime.disk_put", 0.0),
        "mitigation.self_s": layer_self("mitigation"),
        "mitigation.executions": mitigation_executions,
        "service.self_s": layer_self("service"),
        "service.encode_s": self_s.get("service.encode", 0.0),
        "service.decode_s": self_s.get("service.decode", 0.0),
        "service.frame_bytes": (counters.get("service.body_bytes", 0)
                                / trips if trips else 0.0),
        "service.cells_per_batch": service.get("cells_per_batch", 0.0),
        "service.shed": service.get("shed", 0),
        "service.retries": service.get("retries", 0),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_frac": (wall - untraced_wall) / untraced_wall,
        "trace.spans": summary["spans"],
    }
    for name, _unit, _better in PER_LAYER:
        if name not in out:
            out[name] = counters.get(name, 0)
    return out

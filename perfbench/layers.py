"""The program's layers: wrapped entry points, counters and metrics.

One span group per measured piece of a ``src/repro`` module; the map
from groups and counters to the reported metrics is
:func:`per_layer_metrics`, and ``perfbench/README.md`` tabulates it.
Times are self times (span minus child spans) of one repetition, except
``sim.fastforward_s``, which is inclusive.  Counts come from the
program's public state after each simulation (:class:`StateCounts`) or
from the spans themselves (``*_calls``, ``controller.scan_decisions``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from perfbench.tracing import (
    Instrumentation,
    Tracer,
    observed_call,
    traced_call,
    traced_iterator,
)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.cycles": "cycles",
    "sim.ticks": "count",
    "sim.tick_ratio": "ratio",
    "sim.tick_self_s": "s",
    "sim.run_self_s": "s",
    "sim.fastforward_calls": "count",
    "sim.fastforward_s": "s",
    "controller.tick_calls": "count",
    "controller.tick_self_s": "s",
    "controller.scan_s": "s",
    "controller.scan_decisions": "count",
    "controller.serve_ratio": "ratio",
    "controller.scan_memo_hits": "count",
    "controller.enqueue_s": "s",
    "controller.blocked_activations": "count",
    "controller.read_latency_mean_cycles": "cycles",
    "dram.probe_calls": "count",
    "dram.probe_s": "s",
    "dram.issue_calls": "count",
    "dram.issue_s": "s",
    "dram.refresh_calls": "count",
    "dram.refresh_s": "s",
    "dram.activations": "count",
    "dram.refreshes": "count",
    "mitigations.hook_calls": "count",
    "mitigations.hook_s": "s",
    "mitigations.gate_calls": "count",
    "mitigations.preventive_actions": "count",
    "mitigations.preventive_commands": "count",
    "core.hook_calls": "count",
    "core.hook_s": "s",
    "core.actions_observed": "count",
    "core.suspect_detections": "count",
    "core.windows": "count",
    "cpu.core_tick_calls": "count",
    "cpu.core_tick_self_s": "s",
    "cpu.llc_calls": "count",
    "cpu.llc_s": "s",
    "cpu.llc_hit_ratio": "ratio",
    "cpu.mshr_calls": "count",
    "cpu.mshr_s": "s",
    "workloads.make_mix_s": "s",
    "workloads.entries": "count",
    "analysis.runs_executed": "count",
    "analysis.cache_get_calls": "count",
    "analysis.cache_get_s": "s",
    "analysis.cache_put_calls": "count",
    "analysis.cache_put_s": "s",
    "analysis.aggregate_s": "s",
    "analysis.orchestration_s": "s",
    "analysis.warm_s": "s",
    "api.session_init_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Groups whose individual spans are kept and written out (a handful per
#: operation); every other group keeps totals only.
KEPT_GROUPS = ("sim.run", "workloads.make_mix", "analysis.figure",
               "analysis.aggregate", "analysis.cache_get",
               "analysis.cache_put", "api.session_init")

SCAN_GROUP = "controller.scan"
SCAN_DECISIONS = "controller.scan_decisions"
MITIGATION_HOOKS = ("on_activation", "tick", "next_event_cycle",
                    "on_refresh_window")


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def span_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, group)`` for every entry point given a span."""

    from repro.analysis import experiments
    from repro.analysis.experiments import FIGURES, ExperimentRunner
    from repro.analysis.runcache import RunCache
    from repro.api.session import Session
    from repro.controller.controller import MemoryController
    from repro.core.breakhammer import BreakHammer
    from repro.cpu.cache import SetAssociativeCache
    from repro.cpu.core_model import Core
    from repro.cpu.mshr import MshrFile
    from repro.dram.device import Channel
    from repro.dram.refresh import RefreshManager
    from repro.mitigations import registry  # noqa: F401 (loads mechanisms)
    from repro.mitigations.base import MitigationMechanism
    from repro.sim.simulator import Simulator
    from repro.sim.system import System
    from repro.workloads import mixes

    groups = [
        (Simulator, ("run",), "sim.run"),
        (System, ("tick",), "sim.tick"),
        (System, ("next_event_cycle",), "sim.fastforward"),
        (MemoryController, ("tick",), "controller.tick"),
        (MemoryController, ("enqueue",), "controller.enqueue"),
        (Channel, ("kind_ready", "kind_earliest_ready_cycle", "ready"),
         "dram.probe"),
        (Channel, ("issue",), "dram.issue"),
        (RefreshManager, ("tick", "urgency"), "dram.refresh"),
        (BreakHammer, ("on_activation", "on_preventive_action", "tick",
                       "next_event_cycle"), "core.hook"),
        (Core, ("tick",), "cpu.core_tick"),
        (SetAssociativeCache, ("access_if_resident", "access", "fill",
                               "line_address"), "cpu.llc"),
        (MshrFile, ("lookup", "can_allocate", "allocate", "release",
                    "set_quota"), "cpu.mshr"),
        (mixes, ("make_mix",), "workloads.make_mix"),
        (experiments, ("make_mix",), "workloads.make_mix"),
        (RunCache, ("get",), "analysis.cache_get"),
        (RunCache, ("put",), "analysis.cache_put"),
        (ExperimentRunner, tuple(FIGURES.values()), "analysis.aggregate"),
        (Session, ("figure",), "analysis.figure"),
        (Session, ("__init__",), "api.session_init"),
    ]
    targets = [(owner, name, group)
               for owner, names, group in groups for name in names]
    # Only where a mechanism defines the hook itself: an inherited hook
    # stays the base class's (wrapped) function.
    for cls in _subclasses(MitigationMechanism):
        for name in MITIGATION_HOOKS:
            if name in vars(cls):
                targets.append((cls, name, "mitigations.hook"))
        if "allow_activation" in vars(cls):
            targets.append((cls, "allow_activation", "mitigations.gate"))
    return targets


def install_spans(instrumentation: Instrumentation, tracer: Tracer) -> None:
    from repro.controller.scheduler import BaseScheduler

    for owner, name, group in span_targets():
        instrumentation.replace(
            owner, name, lambda fn, group=group: traced_call(fn, group, tracer)
        )
    for cls in _subclasses(BaseScheduler):
        if "iter_prioritized" in vars(cls):
            instrumentation.replace(
                cls, "iter_prioritized",
                lambda fn: traced_iterator(fn, SCAN_GROUP, tracer,
                                           SCAN_DECISIONS),
            )


class StateCounts:
    """Counters read from public state after each simulation and mix.

    Installed on untraced and traced passes alike; the two must agree.
    """

    def __init__(self) -> None:
        self.values: Dict[str, int] = dict.fromkeys((
            "simulations", "cycles", "ticks", "scan_memo_hits",
            "blocked_activations", "read_latency_total",
            "read_latency_count", "served_commands", "activations",
            "refreshes", "preventive_actions", "preventive_commands",
            "bh_actions_observed", "bh_suspect_detections", "bh_windows",
            "llc_hits", "llc_misses", "entries",
        ), 0)

    def install(self, instrumentation: Instrumentation) -> None:
        from repro.analysis import experiments
        from repro.sim.simulator import Simulator
        from repro.workloads import mixes

        instrumentation.replace(
            Simulator, "run", lambda fn: observed_call(fn, self._after_run)
        )
        for module in (mixes, experiments):
            instrumentation.replace(
                module, "make_mix",
                lambda fn: observed_call(fn, self._after_make_mix),
            )

    def _after_run(self, args, result) -> None:
        simulator = args[0]
        stats = result.stats
        system = simulator.system
        values = self.values
        values["simulations"] += 1
        values["cycles"] += stats.cycles
        values["ticks"] += simulator.ticks_executed
        values["scan_memo_hits"] += system.controller.scan_memo_hits
        values["blocked_activations"] += stats.blocked_activations
        values["read_latency_total"] += sum(stats.read_latencies)
        values["read_latency_count"] += len(stats.read_latencies)
        values["served_commands"] += (stats.row_hits + stats.row_misses
                                      + stats.row_conflicts)
        values["activations"] += stats.activations
        values["refreshes"] += stats.refreshes
        values["preventive_actions"] += stats.preventive_actions
        values["preventive_commands"] += stats.preventive_commands
        if stats.breakhammer_stats is not None:
            counters = stats.breakhammer_stats["stats"]
            values["bh_actions_observed"] += counters["actions_observed"]
            values["bh_suspect_detections"] += counters["suspect_detections"]
            values["bh_windows"] += counters["windows_elapsed"]
        values["llc_hits"] += system.llc.stats.hits
        values["llc_misses"] += system.llc.stats.misses

    def _after_make_mix(self, args, mix) -> None:
        self.values["entries"] += sum(len(trace) for trace in mix.traces)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""

    calls, own, inclusive = tracer.calls, tracer.self_s, tracer.inclusive_s
    return {
        "sim.tick_self_s": own["sim.tick"],
        "sim.run_self_s": own["sim.run"],
        "sim.fastforward_calls": calls["sim.fastforward"],
        "sim.fastforward_s": inclusive["sim.fastforward"],
        "controller.tick_calls": calls["controller.tick"],
        "controller.tick_self_s": own["controller.tick"],
        "controller.scan_s": own[SCAN_GROUP],
        "controller.scan_decisions": tracer.counts[SCAN_DECISIONS],
        "controller.enqueue_s": own["controller.enqueue"],
        "dram.probe_calls": calls["dram.probe"],
        "dram.probe_s": own["dram.probe"],
        "dram.issue_calls": calls["dram.issue"],
        "dram.issue_s": own["dram.issue"],
        "dram.refresh_calls": calls["dram.refresh"],
        "dram.refresh_s": own["dram.refresh"],
        "mitigations.hook_calls": (calls["mitigations.hook"]
                                   + calls["mitigations.gate"]),
        "mitigations.hook_s": (own["mitigations.hook"]
                               + own["mitigations.gate"]),
        "mitigations.gate_calls": calls["mitigations.gate"],
        "core.hook_calls": calls["core.hook"],
        "core.hook_s": own["core.hook"],
        "cpu.core_tick_calls": calls["cpu.core_tick"],
        "cpu.core_tick_self_s": own["cpu.core_tick"],
        "cpu.llc_calls": calls["cpu.llc"],
        "cpu.llc_s": own["cpu.llc"],
        "cpu.mshr_calls": calls["cpu.mshr"],
        "cpu.mshr_s": own["cpu.mshr"],
        "workloads.make_mix_s": own["workloads.make_mix"],
        "analysis.cache_get_calls": calls["analysis.cache_get"],
        "analysis.cache_get_s": own["analysis.cache_get"],
        "analysis.cache_put_calls": calls["analysis.cache_put"],
        "analysis.cache_put_s": own["analysis.cache_put"],
        "analysis.aggregate_s": own["analysis.aggregate"],
        # The figure's time outside simulation: plans, handles, trace
        # generation, cache I/O and aggregation.
        "analysis.orchestration_s": (
            inclusive["analysis.figure"] - inclusive["sim.run"]
            if calls["analysis.figure"] else 0.0
        ),
        "api.session_init_s": _ratio(own["api.session_init"],
                                     calls["api.session_init"]),
    }


def per_layer_metrics(tracer: Tracer, counts: Dict[str, int],
                      untraced_wall: float, traced_wall: float,
                      warm_s: Sequence[float],
                      runs_executed: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced run.

    Span values come from one traced repetition (the fastest, so its
    times add up to its own wall time); ``counts`` are one repetition's
    :class:`StateCounts` (identical on every one); the wall times and
    ``warm_s`` are each the fastest of their repetitions.
    """

    metrics = span_metrics(tracer)
    metrics.update({
        "sim.cycles": counts["cycles"],
        "sim.ticks": counts["ticks"],
        "sim.tick_ratio": _ratio(counts["ticks"], counts["cycles"]),
        "controller.serve_ratio": _ratio(counts["served_commands"],
                                         metrics["controller.scan_decisions"]),
        "controller.scan_memo_hits": counts["scan_memo_hits"],
        "controller.blocked_activations": counts["blocked_activations"],
        "controller.read_latency_mean_cycles": _ratio(
            counts["read_latency_total"], counts["read_latency_count"]
        ),
        "dram.activations": counts["activations"],
        "dram.refreshes": counts["refreshes"],
        "mitigations.preventive_actions": counts["preventive_actions"],
        "mitigations.preventive_commands": counts["preventive_commands"],
        "core.actions_observed": counts["bh_actions_observed"],
        "core.suspect_detections": counts["bh_suspect_detections"],
        "core.windows": counts["bh_windows"],
        "cpu.llc_hit_ratio": _ratio(
            counts["llc_hits"], counts["llc_hits"] + counts["llc_misses"]
        ),
        "workloads.entries": counts["entries"],
        "analysis.runs_executed": runs_executed,
        "analysis.warm_s": min(warm_s, default=0.0),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    })
    return {name: metrics[name] for name in PER_LAYER}

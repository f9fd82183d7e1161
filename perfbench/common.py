"""Result records, statistics and per-layer metric assembly shared by the workloads."""

from __future__ import annotations

import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from spans import LAYERS, Tracer

#: Phases the traced run reports separately: ``form`` is start-up to
#: complete views, ``run`` is the workload's main window (steady
#: heartbeats, or the crash/recover storm).
PHASES = ("form", "run")

#: ``repro.obs`` counters read at phase boundaries (exact work counts).
OBS_COUNTERS = (
    "mc_tx", "mc_deliveries", "mc_drops", "uc_tx", "uc_drops", "hb_rx", "hb_rx_fast",
    "updates_rx", "update_ops", "piggyback_recovered", "syncs_sent", "elections",
    "stepdowns", "wire_errors", "send_errors",
)

#: Per-layer metric names, per phase, in report order.
LAYER_METRICS = (
    "sim.events", "sim.self_s",
    "net.mc_sends", "net.deliveries", "net.uc_sends", "net.drops", "net.self_s",
    "runtime.publish_calls", "runtime.self_s", "runtime.timer_lag_p99_ms",
    "runtime.hb_latency_p50_ms", "runtime.hb_latency_p99_ms",
    "wire.encodes", "wire.decodes", "wire.encode_us_p50", "wire.decode_us_p50",
    "wire.bytes_out", "wire.errors", "wire.self_s",
    "relay.frames_in", "relay.datagrams_out", "relay.self_s",
    "roles.receiver.calls", "roles.receiver.fast_ratio", "roles.receiver.self_s",
    "roles.announcer.calls", "roles.announcer.self_s",
    "roles.tracker.calls", "roles.tracker.deaths", "roles.tracker.self_s",
    "roles.informer.ops_applied", "roles.informer.updates_rx", "roles.informer.syncs",
    "roles.informer.self_s",
    "roles.contender.elections", "roles.contender.stepdowns", "roles.contender.self_s",
    "updates.received", "updates.dup_ratio", "updates.recovered", "updates.self_s",
    "directory.inserts", "directory.refreshes", "directory.removes", "directory.self_s",
    "detect.queries", "detect.declared", "detect.false_failures", "detect.self_s",
)

#: Metrics of the traced run that are not per phase: the time-based
#: end-to-end figures of its untraced pass, and the tracing overhead.
TRACE_METRICS = ("untraced.formation_s", "untraced.cpu_ms_per_node_s",
                 "trace.overhead_s", "trace.overhead_pct", "trace.spans")


def cpu_s() -> float:
    """User CPU seconds of this process.

    System time is left out: on loopback UDP the kernel charges packet
    delivery to whichever process is running when it happens, which made
    it the noisiest part of the ``loopback-40`` CPU figure.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def per_layer_names() -> List[str]:
    return [f"{p}.{m}" for p in PHASES for m in LAYER_METRICS] + list(TRACE_METRICS)


@dataclass
class UnitResult:
    """What one repetition of a workload measured."""

    setup_s: List[float] = field(default_factory=list)
    formation_s: List[float] = field(default_factory=list)
    #: user CPU seconds spent in the timed phases (tracing-overhead base)
    timed_cpu_s: float = 0.0
    #: one sample per measured (sub-)window
    cpu_ms_per_node_s: List[float] = field(default_factory=list)
    bandwidth_node_Bps: float = 0.0
    packets_node_s: float = 0.0
    #: per crash/stop: seconds to the first survivor's removal
    detect_s: List[float] = field(default_factory=list)
    #: per (crash, survivor): seconds to that survivor's removal
    converge_s: List[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    #: failed output checks, one line each
    problems: List[str] = field(default_factory=list)
    #: phase -> metric -> value (traced passes only)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: phase -> latency-style samples (seconds) kept by the workload
    samples: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def count(self, ops: int, failed: int, problem: Optional[str] = None) -> None:
        """Record ``ops`` operations of which ``failed`` failed."""
        self.ops += ops
        self.failed += failed
        if failed and problem is not None:
            self.problems.append(problem)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in (0, 1)); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return float(cuts[round(q * 1000) - 1])


@contextmanager
def phase(tracer: Optional[Tracer], name: Optional[str]) -> Iterator[None]:
    """Charge spans closed inside the block to ``name``."""
    if tracer is None:
        yield
        return
    tracer.phase = name
    try:
        yield
    finally:
        tracer.phase = None


def obs_snapshot(instruments) -> Dict[str, int]:
    return {attr: getattr(instruments, attr).get() for attr in OBS_COUNTERS}


def obs_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in OBS_COUNTERS}


def layer_metrics(tracer: Tracer, name: str, obs: Dict[str, int],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Assemble one phase's ``LAYER_METRICS`` from spans, obs counts and extras.

    ``extra`` supplies what neither spans nor ``repro.obs`` count:
    kernel events, latency percentiles, relay datagrams out, false
    failures.
    """
    t = tracer
    counts = t.counts.get(name, {})
    durations = t.durations.get(name, {})
    received = t.calls(name, "updates.receive")
    m: Dict[str, float] = {
        "sim.events": extra.get("sim.events", 0),
        "net.mc_sends": obs["mc_tx"],
        "net.deliveries": obs["mc_deliveries"],
        "net.uc_sends": obs["uc_tx"],
        "net.drops": obs["mc_drops"] + obs["uc_drops"],
        "runtime.publish_calls": t.calls(name, "runtime.publish"),
        "runtime.timer_lag_p99_ms": extra.get("runtime.timer_lag_p99_ms", 0.0),
        "runtime.hb_latency_p50_ms": extra.get("runtime.hb_latency_p50_ms", 0.0),
        "runtime.hb_latency_p99_ms": extra.get("runtime.hb_latency_p99_ms", 0.0),
        "wire.encodes": t.calls(name, "wire.encode_packet"),
        "wire.decodes": t.calls(name, "wire.decode_packet"),
        "wire.encode_us_p50": quantile(durations.get("wire.encode_packet", []), 0.5) * 1e6,
        "wire.decode_us_p50": quantile(durations.get("wire.decode_packet", []), 0.5) * 1e6,
        "wire.bytes_out": counts.get("wire.bytes_out", 0),
        "wire.errors": obs["wire_errors"] + extra.get("wire.relay_errors", 0),
        "relay.frames_in": t.calls(name, "relay.datagram_received"),
        "relay.datagrams_out": extra.get("relay.datagrams_out", 0),
        "roles.receiver.calls": t.layer_calls(name, "roles.receiver"),
        "roles.receiver.fast_ratio": obs["hb_rx_fast"] / obs["hb_rx"] if obs["hb_rx"] else 0.0,
        "roles.announcer.calls": t.layer_calls(name, "roles.announcer"),
        "roles.tracker.calls": t.layer_calls(name, "roles.tracker"),
        "roles.tracker.deaths": t.calls(name, "roles.tracker.handle_peer_death"),
        "roles.informer.ops_applied": obs["update_ops"],
        "roles.informer.updates_rx": obs["updates_rx"],
        "roles.informer.syncs": obs["syncs_sent"],
        "roles.contender.elections": obs["elections"],
        "roles.contender.stepdowns": obs["stepdowns"],
        "updates.received": received,
        "updates.dup_ratio": counts.get("updates.duplicates", 0) / received if received else 0.0,
        "updates.recovered": obs["piggyback_recovered"],
        "directory.inserts": t.calls(name, "directory.insert_new"),
        "directory.refreshes": t.calls(name, "directory.refresh"),
        "directory.removes": counts.get("directory.removed", 0),
        "detect.queries": t.layer_calls(name, "detect"),
        "detect.declared": counts.get("detect.declared", 0),
        "detect.false_failures": extra.get("detect.false_failures", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_s(name, layer)
    return {k: m[k] for k in LAYER_METRICS}

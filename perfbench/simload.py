"""The two simulator workloads: ``tree-1k`` and ``churn-400``.

Both run the hierarchical protocol on the discrete-event kernel.  Wall
and CPU times measure the program; detection and convergence times are
simulated seconds, exact for a given seed, so they expose any change
that alters protocol behaviour.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import UnitResult, cpu_s, layer_metrics, obs_delta, obs_snapshot, phase
from spans import Tracer


@dataclass(frozen=True)
class TreeShape:
    """``tree-1k``: a router tree, formation then a steady window then crashes."""

    depth: int = 3
    branching: int = 10
    hosts_per_leaf: int = 10
    max_ttl: int = 7
    #: simulated seconds of steady heartbeats, measured in ``windows``
    #: equal parts (CPU is the median over the parts, so a short burst of
    #: load from elsewhere on the machine moves one part, not the figure);
    #: not a whole number of heartbeat periods, so the bytes counted
    #: depend on the seeded phases
    steady_s: float = 60.5
    windows: int = 11
    crashes: int = 8
    #: crashes are spread over this many simulated seconds
    crash_spread_s: float = 2.0
    #: simulated seconds watched after the crash spread
    observe_s: float = 15.0
    #: formation that has not completed by this simulated time fails
    form_deadline_s: float = 120.0


@dataclass(frozen=True)
class ChurnShape:
    """``churn-400``: the paper's testbed ×4 under a crash/recover storm."""

    networks: int = 20
    hosts_per_network: int = 20
    loss_rate: float = 0.01
    #: simulated seconds of steady heartbeats before the storm (bandwidth)
    steady_s: float = 10.5
    storm_s: float = 60.0
    #: crashes drawn from the nodes that lead no group at storm start
    crashes: int = 16
    #: at least twice the 5 s detection bound, so every crash is detectable
    min_down_s: float = 12.0
    max_down_s: float = 20.0
    #: quiet simulated seconds after the last recovery, before the final checks
    quiesce_s: float = 40.0
    form_deadline_s: float = 120.0


def _form(net, nodes: Dict[str, object], deadline: float) -> Tuple[float, int]:
    """Run until every node holds every record; (wall seconds, incomplete views)."""
    n = len(nodes)
    directories = [node.directory for node in nodes.values()]
    t0 = time.perf_counter()
    while net.now < deadline:
        net.run(until=net.now + 0.05)
        if all(len(d) == n for d in directories):
            break
    wall = time.perf_counter() - t0
    return wall, sum(1 for d in directories if len(d) != n)


def _settle(net, nodes: Dict[str, object], deadline: float) -> bool:
    """Run (untimed) until the hierarchy is complete and its bootstrap is over.

    Complete views come before the upper-level elections.  A new leader
    re-announces its subtree and, for ``tombstone_quarantine + 2 *
    min_sync_interval`` after its election, answers syncs with full
    announcements: formation work, not steady state.  So wait until some
    node leads the top level, then for that window and one more second.
    """
    config = next(iter(nodes.values())).config
    while net.now < deadline:
        if any(node.is_leader(config.max_level) for node in nodes.values()):
            quiet = config.tombstone_quarantine + 2 * config.min_sync_interval
            net.run(until=net.now + quiet + 1.0)
            return True
        net.run(until=net.now + 1.0)
    return False


def _removals(trace, since: float) -> Dict[str, Dict[str, float]]:
    """target -> observer -> first ``member_down`` time at or after ``since``."""
    out: Dict[str, Dict[str, float]] = {}
    for rec in trace.records(kind="member_down", since=since):
        seen = out.setdefault(rec.data.get("target"), {})
        seen.setdefault(rec.node, rec.time)
    return out


def _score_crash(res: UnitResult, victim: str, t_crash: float, until: float,
                 survivors: List[str], downs: Dict[str, Dict[str, float]]) -> None:
    """One op per survivor: it must log ``victim``'s removal before ``until``."""
    seen = downs.get(victim, {})
    times = [seen[s] - t_crash for s in survivors if s in seen and seen[s] < until]
    res.count(len(survivors), len(survivors) - len(times),
              f"{victim}: {len(survivors) - len(times)} survivors never removed it")
    if times:
        res.detect_s.append(min(times))
        res.converge_s.extend(times)


def _traced_phase(res: UnitResult, tracer: Optional[Tracer], name: str, net, handle,
                  before: Tuple[Dict[str, int], int], false_failures: int) -> None:
    if tracer is None:
        return
    obs = obs_delta(obs_snapshot(handle.instruments), before[0])
    extra = {"sim.events": net.sim.events_executed - before[1],
             "detect.false_failures": false_failures}
    res.layers[name] = layer_metrics(tracer, name, obs, extra)


def _setup(res: UnitResult, build, setups: int, form=None):
    """Build the deployment ``setups`` times, timing each; keep the last.

    With ``form``, each discarded deployment is also formed, for more
    ``formation_s`` samples.
    """
    built = None
    for k in range(setups):
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = build()
        res.setup_s.append(time.perf_counter() - t0)
        if form is not None and k < setups - 1:
            res.formation_s.append(form(built)[0])
    return built


def _timed_formation(res: UnitResult, tracer: Optional[Tracer], net, nodes, handle,
                     deadline: float) -> None:
    n = len(nodes)
    mark = _mark(net, handle)
    c0 = cpu_s()
    with phase(tracer, "form"):
        wall, incomplete = _form(net, nodes, deadline)
    res.timed_cpu_s += cpu_s() - c0
    res.formation_s.append(wall)
    res.count(n, incomplete, f"formation: {incomplete} of {n} views incomplete")
    _traced_phase(res, tracer, "form", net, handle, mark,
                  len(net.trace.records(kind="member_down")))


def _mark(net, handle) -> Optional[Tuple[Dict[str, int], int]]:
    if handle is None:
        return None
    return obs_snapshot(handle.instruments), net.sim.events_executed


def tree_unit(seed: int, rep: int, shape: TreeShape = TreeShape(),
              tracer: Optional[Tracer] = None, setups: int = 1) -> UnitResult:
    from repro.cluster.failures import FailureSchedule
    from repro.core.config import HierarchicalConfig
    from repro.core.node import HierarchicalNode
    from repro.net.builders import build_router_tree
    from repro.net.network import Network
    from repro.obs import enable_observability
    from repro.protocols.base import deploy
    from repro.sim.trace import Trace

    rng = random.Random(f"tree-1k:{seed}:{rep}")
    net_seed = rng.randrange(1 << 30)
    res = UnitResult()

    def build():
        topo, hosts = build_router_tree(shape.depth, shape.branching, shape.hosts_per_leaf)
        net = Network(topo, seed=net_seed, trace=Trace(kinds={"member_down"}))
        handle = enable_observability(net) if tracer is not None else None
        config = HierarchicalConfig(max_ttl=shape.max_ttl)
        return net, hosts, deploy(HierarchicalNode, net, hosts, config=config), handle

    net, hosts, nodes, handle = _setup(res, build, setups)
    n = len(hosts)

    _timed_formation(res, tracer, net, nodes, handle, shape.form_deadline_s)
    settled = _settle(net, nodes, shape.form_deadline_s)
    res.count(1, 0 if settled else 1, "no leader elected at the top level")
    gc.collect()
    mark = _mark(net, handle)
    net.meter.reset()
    start = net.now
    part = shape.steady_s / shape.windows
    with phase(tracer, "run"):
        for k in range(1, shape.windows + 1):
            c0 = cpu_s()
            net.run(until=start + k * part)
            cpu = cpu_s() - c0
            res.timed_cpu_s += cpu
            res.cpu_ms_per_node_s.append(cpu * 1e3 / (n * part))
    res.bandwidth_node_Bps = net.meter.bytes(direction="rx") / shape.steady_s / n
    res.packets_node_s = net.meter.packets(direction="rx") / shape.steady_s / n
    incomplete = sum(1 for h in hosts if len(nodes[h].directory) != n)
    res.count(n, incomplete, f"steady: {incomplete} of {n} views incomplete")
    _traced_phase(res, tracer, "run", net, handle, mark,
                  len(net.trace.records(kind="member_down", since=start)))

    # Failure phase (untraced): seeded non-leader crashes, Figs. 12-13.
    non_leaders = sorted(h for h in hosts if nodes[h].levels() == [0])
    victims = rng.sample(non_leaders, shape.crashes)
    base = net.now + 0.5
    crash_at = {v: base + rng.uniform(0.0, shape.crash_spread_s) for v in victims}
    sched = FailureSchedule(net)
    for v, t in crash_at.items():
        sched.register_stack(v, nodes[v])
        sched.crash_node_at(t, v)
    end = base + shape.crash_spread_s + shape.observe_s
    net.run(until=end)
    survivors = [h for h in hosts if h not in crash_at]
    downs = _removals(net.trace, base)
    for v in victims:
        _score_crash(res, v, crash_at[v], end, survivors, downs)
    expect = set(survivors)
    wrong = sum(1 for h in survivors if set(nodes[h].view()) != expect)
    res.count(len(survivors), wrong, f"after crashes: {wrong} survivor views disagree")
    return res


def churn_unit(seed: int, rep: int, shape: ChurnShape = ChurnShape(),
               tracer: Optional[Tracer] = None, setups: int = 1) -> UnitResult:
    from repro.chaos.invariants import InvariantChecker
    from repro.cluster.failures import FailureSchedule
    from repro.metrics.experiment import make_scheme_cluster
    from repro.obs import enable_observability

    rng = random.Random(f"churn-400:{seed}:{rep}")
    net_seed = rng.randrange(1 << 30)
    res = UnitResult()

    def build():
        net, hosts, nodes = make_scheme_cluster(
            "hierarchical", shape.networks, shape.hosts_per_network,
            seed=net_seed, loss_rate=shape.loss_rate,
        )
        net.trace.kinds = {"member_down"}  # subscribers still see every record
        handle = enable_observability(net) if tracer is not None else None
        return net, hosts, nodes, handle

    # Formation time depends on the seeded loss draws, so the discarded
    # deployments are formed too: more samples for the median.
    net, hosts, nodes, handle = _setup(
        res, build, setups, form=lambda built: _form(built[0], built[2], shape.form_deadline_s))
    n = len(hosts)

    _timed_formation(res, tracer, net, nodes, handle, shape.form_deadline_s)
    settled = _settle(net, nodes, shape.form_deadline_s)
    res.count(1, 0 if settled else 1, "no leader elected at the top level")
    net.meter.reset()
    net.run(until=net.now + shape.steady_s)
    res.bandwidth_node_Bps = net.meter.bytes(direction="rx") / shape.steady_s / n
    res.packets_node_s = net.meter.packets(direction="rx") / shape.steady_s / n
    gc.collect()
    sched = FailureSchedule(net)
    for h in hosts:
        sched.register_stack(h, nodes[h])
    # Group leaders are left out: see README.md, "Leader crashes".
    others = sorted(h for h in hosts if nodes[h].levels() == [0])
    start = net.now + 1.0
    storm = sched.schedule_chaos_storm(
        rng, others, start, shape.storm_s, events=shape.crashes,
        min_downtime=shape.min_down_s, max_downtime=shape.max_down_s,
    )
    checker = InvariantChecker(net, nodes)
    checker.start(2.0)
    # A fixed window that holds every outage, whatever the draws.
    storm_end = start + shape.storm_s + shape.max_down_s
    mark = _mark(net, handle)
    window = storm_end - net.now
    c0 = cpu_s()
    with phase(tracer, "run"):
        net.run(until=storm_end)
    cpu = cpu_s() - c0
    res.timed_cpu_s += cpu
    res.cpu_ms_per_node_s.append(cpu * 1e3 / (n * window))
    with phase(tracer, "run"):
        net.run(until=storm_end + shape.quiesce_s)
    checker.stop()
    checker.check_false_failures()
    checker.check_agreement()
    _traced_phase(res, tracer, "run", net, handle, mark, len(checker.false_failures))

    downs = _removals(net.trace, start)
    for t, victim, down in storm:
        recover = t + down
        # Survivors run throughout the outage: a node that crashes or
        # restarts meanwhile has a reset view and owes no removal.
        busy = {h for t2, h, d2 in storm if t2 < recover and t < t2 + d2}
        survivors = [h for h in hosts if h not in busy]
        _score_crash(res, victim, t, recover, survivors, downs)
    for v in checker.violations:
        res.problems.append(f"invariant {v.invariant} at t={v.time:.1f}: {v.detail}")
    return res

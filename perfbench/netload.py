"""The real-network workload: ``loopback-40``.

Forty ``HierarchicalNode`` daemons, each on its own ``AsyncRuntime`` and
UDP socket, plus one ``ChannelRelay``, all in this process on one
asyncio loop over loopback UDP.  One process, because forty daemon
processes on a small machine would measure the OS scheduler instead of
the program.  The load is open loop: timers drive the heartbeats, so
the offered rate is nodes / period however slow the program is.

A :class:`Probe` hooks the codec and the runtime ports from outside:
it stamps every heartbeat frame at encode with the time its timer was
due and matches it at decode (the relay forwards bytes unchanged), so
it can count expected against delivered frames and measure latency
from when each heartbeat was due.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from common import UnitResult, cpu_s, layer_metrics, obs_delta, obs_snapshot, phase
from spans import Patches, Tracer

HOST = "127.0.0.1"


@dataclass(frozen=True)
class LoopShape:
    nodes: int = 40
    segments: int = 4
    #: heartbeat period (the paper's is 1 s).  At 0.2 s a stall of the
    #: shared machine longer than the 1 s detection bound once made every
    #: daemon declare every other dead; 0.5 s (2.5 s bound) rides that out.
    period: float = 0.5
    #: segments are 2 hops apart, so two levels cover the cluster
    max_ttl: int = 2
    #: untimed wait after the top-level leader is elected, before the steady
    #: window; the election's burst of re-announcements is not steady state
    settle_s: float = 1.0
    #: the steady window, measured in ``windows`` equal parts (CPU is the
    #: median over the parts)
    steady_s: float = 16.0
    windows: int = 8
    stops: int = 8
    stop_gap_s: float = 0.5
    #: wall seconds after the last stop within which every survivor must purge
    observe_s: float = 8.0
    form_deadline_s: float = 30.0


def _free_ports(count: int) -> List[int]:
    socks = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(s)
            s.bind((HOST, 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class _CountingTransport:
    """Relay transport proxy counting datagrams the relay sends."""

    def __init__(self, inner, probe: "Probe") -> None:
        self._inner = inner
        self._probe = probe

    def sendto(self, data, addr=None) -> None:
        self._probe.relay_out += 1
        self._inner.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Probe:
    """Measurement hooks for one loopback run (clock: ``time.monotonic``)."""

    def __init__(self) -> None:
        self.spec = None
        self.subs: Dict[str, Set[str]] = defaultdict(set)
        #: heartbeat frame -> (due time, published inside the window)
        self.sent: Dict[bytes, Tuple[float, bool]] = {}
        self.current_due: Optional[float] = None
        #: phase that latency and timer-lag samples are filed under
        self.bucket: Optional[str] = None
        self.window = False
        self.expected = 0
        self.delivered = 0
        self.rx_bytes = 0
        self.rx_frames = 0
        self.relay_out = 0
        self.relay_transports: list = []
        self.lag: Dict[str, List[float]] = defaultdict(list)
        self.latency: Dict[str, List[float]] = defaultdict(list)
        #: (time, observer, target) of every member_down
        self.downs: List[Tuple[float, str, str]] = []

    def reset(self, spec) -> None:
        self.__init__()
        self.spec = spec

    def on_record(self, rec) -> None:
        if rec.kind == "member_down":
            self.downs.append((time.monotonic(), rec.node, rec.data.get("target")))

    def _in_scope(self, src: str, channel: str, ttl: int) -> int:
        nodes = self.spec.nodes
        seg = nodes[src].segment
        return sum(1 for r in self.subs[channel]
                   if r != src and self.spec.ttl_distance(seg, nodes[r].segment) <= ttl)

    def install(self, patches: Patches) -> None:
        from repro.runtime import anet, relay

        probe = self
        encode = anet.encode_packet
        decode = anet.decode_packet

        def encode_packet(pkt, port=None):
            data = encode(pkt, port)
            if pkt.kind == "heartbeat" and pkt.channel is not None:
                due = probe.current_due if probe.current_due is not None else time.monotonic()
                if probe.window:
                    probe.expected += probe._in_scope(pkt.src, pkt.channel, pkt.ttl)
                probe.sent[data] = (due, probe.window)
            return data

        def decode_packet(data):
            now = time.monotonic()
            out = decode(data)
            if probe.window:
                probe.rx_bytes += len(data)
                probe.rx_frames += 1
            stamp = probe.sent.get(data)
            if stamp is not None:
                if probe.bucket is not None:
                    probe.latency[probe.bucket].append(now - stamp[0])
                if stamp[1]:
                    probe.delivered += 1
            return out

        rt_cls = anet.AsyncRuntime
        subscribe = rt_cls.subscribe
        unsubscribe = rt_cls.unsubscribe
        call_every = rt_cls.call_every
        connection_made = relay.ChannelRelay.connection_made

        def subscribe_hook(rt, channel, handler):
            probe.subs[channel].add(rt.node_id)
            return subscribe(rt, channel, handler)

        def unsubscribe_hook(rt, channel):
            probe.subs[channel].discard(rt.node_id)
            return unsubscribe(rt, channel)

        def call_every_hook(rt, period, fn, *args, first_delay=None):
            due = [time.monotonic() + (period if first_delay is None else first_delay)]

            def timed(*a):
                if probe.bucket is not None:
                    probe.lag[probe.bucket].append(time.monotonic() - due[0])
                probe.current_due = due[0]
                try:
                    fn(*a)
                finally:
                    probe.current_due = None
                    due[0] += period

            return call_every(rt, period, timed, *args, first_delay=first_delay)

        def connection_made_hook(rl, transport):
            probe.relay_transports.append(transport)
            connection_made(rl, _CountingTransport(transport, probe))

        patches.swap(anet, "encode_packet", encode_packet)
        patches.swap(anet, "decode_packet", decode_packet)
        patches.swap(rt_cls, "subscribe", subscribe_hook)
        patches.swap(rt_cls, "unsubscribe", unsubscribe_hook)
        patches.swap(rt_cls, "call_every", call_every_hook)
        patches.swap(relay.ChannelRelay, "connection_made", connection_made_hook)


class _Deployment:
    def __init__(self, relay, runtimes, nodes, probe: Probe) -> None:
        self.relay = relay
        self.runtimes = runtimes
        self.nodes = nodes
        self.probe = probe

    def close(self) -> None:
        for node_id, node in self.nodes.items():
            if node.running:
                node.stop()
            self.runtimes[node_id].close()
        self.relay.stop_sweeper()
        for transport in self.probe.relay_transports:
            transport.close()


async def _deploy(ids: List[str], segs: List[str], shape: LoopShape, probe: Probe,
                  instruments, seed: int) -> _Deployment:
    from repro.core.config import HierarchicalConfig
    from repro.core.node import HierarchicalNode
    from repro.runtime.anet import AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
    from repro.runtime.relay import serve
    from repro.sim.trace import Trace

    ports = _free_ports(len(ids) + 1)
    spec = ClusterSpec(
        relay=RelaySpec(HOST, ports[0]),
        nodes={i: NodeSpec(HOST, p, segment=s) for i, p, s in zip(ids, ports[1:], segs)},
        config={"heartbeat_period": shape.period, "max_ttl": shape.max_ttl},
    )
    probe.reset(spec)
    relay = await serve(spec, HOST, ports[0])
    trace = Trace(retain=False)
    trace.subscribe(probe.on_record)
    config = HierarchicalConfig(heartbeat_period=shape.period, max_ttl=shape.max_ttl)
    runtimes, nodes = {}, {}
    for i in ids:
        rt = AsyncRuntime(spec, i, trace=trace, instruments=instruments, seed=seed)
        await rt.start()
        runtimes[i] = rt
        nodes[i] = HierarchicalNode(None, i, config=config, runtime=rt)
    return _Deployment(relay, runtimes, nodes, probe)


def _phase_layers(res: UnitResult, tracer: Optional[Tracer], name: str, probe: Probe,
                  instruments, dep: _Deployment, before) -> None:
    res.samples[name] = {"timer_lag": probe.lag[name], "hb_latency": probe.latency[name]}
    if tracer is None:
        return
    obs0, relay_out0, relay_err0, downs0 = before
    # Nothing is stopped inside the traced phases: every removal is false.
    false = len(probe.downs) - downs0
    extra = {
        "relay.datagrams_out": probe.relay_out - relay_out0,
        "wire.relay_errors": dep.relay.wire_errors - relay_err0,
        "detect.false_failures": false,
    }
    res.layers[name] = layer_metrics(tracer, name, obs_delta(obs_snapshot(instruments), obs0),
                                     extra)


def _mark(probe: Probe, instruments, dep: _Deployment):
    if instruments is None:
        return None
    return obs_snapshot(instruments), probe.relay_out, dep.relay.wire_errors, len(probe.downs)


async def _unit(seed: int, rep: int, shape: LoopShape, tracer: Optional[Tracer],
                setups: int) -> UnitResult:
    from repro.obs import Instruments, MetricsRegistry

    rng = random.Random(f"loopback-40:{seed}:{rep}")
    loop = asyncio.get_running_loop()
    exceptions: List[str] = []
    loop.set_exception_handler(lambda _loop, ctx: exceptions.append(str(ctx.get("message"))))
    instruments = Instruments(MetricsRegistry()) if tracer is not None else None
    ids = [f"d{i:02d}" for i in range(shape.nodes)]
    segs = [f"s{i % shape.segments}" for i in range(shape.nodes)]
    rng.shuffle(segs)
    runtime_seed = rng.randrange(1 << 30)
    res = UnitResult()
    probe = Probe()
    patches = Patches()
    probe.install(patches)
    dep = None
    try:
        for _ in range(setups):
            if dep is not None:
                dep.close()
                await asyncio.sleep(0)
            t0 = time.perf_counter()
            dep = await _deploy(ids, segs, shape, probe, instruments, runtime_seed)
            res.setup_s.append(time.perf_counter() - t0)
        await _measure(res, rng, shape, tracer, probe, instruments, dep, ids)
    finally:
        if dep is not None:
            dep.close()
        await asyncio.sleep(0.05)
        patches.restore()
        loop.set_exception_handler(None)
    errors = len(exceptions)
    errors += sum(rt.wire_errors + rt.send_errors for rt in dep.runtimes.values())
    errors += dep.relay.wire_errors
    res.count(errors, errors, f"{errors} wire/send errors or loop exceptions: {exceptions[:3]}")
    return res


async def _measure(res: UnitResult, rng: random.Random, shape: LoopShape,
                   tracer: Optional[Tracer], probe: Probe, instruments,
                   dep: _Deployment, ids: List[str]) -> None:
    nodes = dep.nodes
    n = len(ids)
    directories = [node.directory for node in nodes.values()]

    mark = _mark(probe, instruments, dep)
    probe.bucket = "form"
    c0 = cpu_s()
    t0 = time.monotonic()
    with phase(tracer, "form"):
        for node in nodes.values():
            node.start()
        while time.monotonic() - t0 < shape.form_deadline_s:
            await asyncio.sleep(0.01)
            if all(len(d) == n for d in directories):
                break
    res.formation_s.append(time.monotonic() - t0)
    res.timed_cpu_s += cpu_s() - c0
    probe.bucket = None
    incomplete = sum(1 for d in directories if len(d) != n)
    res.count(n, incomplete, f"formation: {incomplete} of {n} views incomplete")
    _phase_layers(res, tracer, "form", probe, instruments, dep, mark)

    top = shape.max_ttl - 1
    while time.monotonic() - t0 < shape.form_deadline_s:
        if any(node.is_leader(top) for node in nodes.values()):
            break
        await asyncio.sleep(0.05)
    headless = 0 if any(node.is_leader(top) for node in nodes.values()) else 1
    res.count(1, headless, f"no leader elected at level {top}")
    await asyncio.sleep(shape.settle_s)
    mark = _mark(probe, instruments, dep)
    probe.bucket = "run"
    probe.window = True
    t0 = time.monotonic()
    with phase(tracer, "run"):
        for _ in range(shape.windows):
            c0 = cpu_s()
            w0 = time.monotonic()
            await asyncio.sleep(shape.steady_s / shape.windows)
            cpu = cpu_s() - c0
            res.timed_cpu_s += cpu
            res.cpu_ms_per_node_s.append(cpu * 1e3 / (n * (time.monotonic() - w0)))
    wall = time.monotonic() - t0
    probe.window = False
    probe.bucket = None
    res.bandwidth_node_Bps = probe.rx_bytes / wall / n
    res.packets_node_s = probe.rx_frames / wall / n
    _phase_layers(res, tracer, "run", probe, instruments, dep, mark)
    await asyncio.sleep(0.3)  # frames published inside the window land
    missing = max(0, probe.expected - probe.delivered)
    res.count(probe.expected, missing,
              f"steady: {missing} of {probe.expected} heartbeat deliveries missing")

    # Stop a seeded sequence of non-leader daemons (untraced).
    non_leaders = sorted(i for i in ids if nodes[i].levels() == [0])
    victims = rng.sample(non_leaders, shape.stops)
    stopped: Dict[str, float] = {}
    for v in victims:
        await asyncio.sleep(shape.stop_gap_s)
        nodes[v].stop()
        dep.runtimes[v].close()
        stopped[v] = time.monotonic()
    survivors = [i for i in ids if i not in stopped]
    deadline = time.monotonic() + shape.observe_s
    while time.monotonic() < deadline and any(
        v in nodes[s].directory for s in survivors for v in victims
    ):
        await asyncio.sleep(0.02)
    first: Dict[Tuple[str, str], float] = {}
    for t, observer, target in probe.downs:
        if target in stopped and t >= stopped[target]:
            first.setdefault((target, observer), t)
    for v in victims:
        times = [first[(v, s)] - stopped[v] for s in survivors if (v, s) in first]
        res.count(len(survivors), len(survivors) - len(times),
                  f"{v}: {len(survivors) - len(times)} survivors never purged it")
        if times:
            res.detect_s.append(min(times))
            res.converge_s.extend(times)
    expect = set(survivors)
    wrong = sum(1 for s in survivors if set(nodes[s].view()) != expect)
    res.count(len(survivors), wrong, f"after stops: {wrong} survivor views disagree")


def loopback_unit(seed: int, rep: int, shape: LoopShape = LoopShape(),
                  tracer: Optional[Tracer] = None, setups: int = 1) -> UnitResult:
    return asyncio.run(_unit(seed, rep, shape, tracer, setups))

"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro.cli compare --networks 3 --hosts 20
    python -m repro.cli detect --scheme gossip --networks 5 --hosts 20
    python -m repro.cli formation --networks 2 --hosts 5
    python -m repro.cli failover --rate 10
    python -m repro.cli analysis --sizes 100 1000 4000
    python -m repro.cli obs --networks 3 --hosts 8 --format prometheus
    python -m repro.cli daemon --spec cluster.json --node n0
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import MODELS, AnalysisParams
from repro.apps import SearchDeployment
from repro.cluster.gateway import Gateway
from repro.core import HierarchicalNode
from repro.metrics import SCHEMES, FailureExperiment, make_scheme_cluster
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    enable_observability,
    to_json_str,
)

__all__ = ["main"]


def _cmd_compare(args: argparse.Namespace) -> int:
    print(f"{'scheme':<14} {'agg KB/s':>10} {'per-node':>9} {'detect':>8} {'converge':>9}")
    print("-" * 56)
    for scheme in sorted(SCHEMES):
        res = FailureExperiment(
            scheme,
            args.networks,
            args.hosts,
            seed=args.seed,
            warmup=25.0,
            bandwidth_window=10.0,
            observe=args.observe,
        ).run()
        print(
            f"{scheme:<14} {res.bandwidth.aggregate_rate / 1e3:>10.1f} "
            f"{res.bandwidth.per_node_rate / 1e3:>8.2f}K "
            f"{res.detection:>7.2f}s {res.convergence:>8.2f}s"
        )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    res = FailureExperiment(
        args.scheme,
        args.networks,
        args.hosts,
        seed=args.seed,
        warmup=25.0,
        observe=args.observe,
        measure_bandwidth=False,
        kill_leader=args.kill_leader,
    ).run()
    print(f"scheme      : {res.scheme}")
    print(f"nodes       : {res.num_nodes}")
    print(f"victim      : {res.victim}" + (" (leader)" if args.kill_leader else ""))
    print(f"detection   : {res.detection:.3f} s" if res.detection else "detection   : never")
    print(
        f"convergence : {res.convergence:.3f} s"
        if res.convergence
        else "convergence : incomplete"
    )
    print(f"observers   : {res.observers}/{res.num_nodes - 1}")
    return 0


def _cmd_formation(args: argparse.Namespace) -> int:
    net, hosts, nodes = make_scheme_cluster(
        "hierarchical", args.networks, args.hosts, seed=args.seed
    )
    net.run(until=args.warmup)
    for host in sorted(nodes):
        node = nodes[host]
        assert isinstance(node, HierarchicalNode)
        roles = []
        for level in node.levels():
            roles.append(
                f"L{level}:{'leader' if node.is_leader(level) else node.leader_of(level)}"
            )
        print(f"{host:<18} view={len(node.view()):>4}  {'  '.join(roles)}")
    return 0


def _cmd_failover(args: argparse.Namespace) -> int:
    warmup = 15.0
    dep = SearchDeployment(networks=3, hosts_per_network=6, seed=args.seed)
    net = dep.network
    dep.warm_up(warmup)
    engine = dep.engines["dcA"]
    gw = Gateway(
        net.sim,
        executor=lambda query: engine.query(query),
        workload=lambda seq: {"query": f"q{seq}"},
        rate=args.rate,
    )
    gw.start()
    net.sim.call_at(warmup + 20.0, dep.fail_doc_service, "dcA")
    net.sim.call_at(warmup + 40.0, dep.recover_doc_service, "dcA")
    net.run(until=warmup + 60.0)
    gw.stop()
    rt = {int(s - warmup): v for s, v in gw.stats.response_time_series()}
    thr = {int(s - warmup): v for s, v in gw.stats.throughput_series()}
    print(" sec | resp (ms) | req/s")
    for sec in range(0, 60, 2):
        ms = f"{1000 * rt[sec]:8.1f}" if sec in rt else "       -"
        print(f" {sec:3d} | {ms}  | {thr.get(sec, 0):3.0f}")
    print(f"issued={gw.stats.issued} completed={gw.stats.completed} failed={gw.stats.failed}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Instrumented formation run: converge a cluster, export its metrics."""
    net, hosts, nodes = make_scheme_cluster(
        args.scheme, args.networks, args.hosts, seed=args.seed
    )
    registry = MetricsRegistry()
    handle = enable_observability(net, registry)
    sink = None
    if args.trace_out:
        sink = net.trace.attach_sink(JsonlTraceSink(args.trace_out))
    net.run(until=args.observe)
    if sink is not None:
        sink.close()
        print(f"# wrote {sink.records_written} trace records to {args.trace_out}",
              file=sys.stderr)
    if args.format == "json":
        print(to_json_str(registry, indent=2))
    else:
        print(handle.to_prometheus(), end="")
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    """Run ONE real membership daemon: asyncio/UDP runtime + HTTP endpoint.

    This is the real-network counterpart of a simulated node: the same
    :class:`~repro.core.HierarchicalNode` protocol stack, executed over
    :class:`~repro.runtime.anet.AsyncRuntime` with datagrams framed by
    :mod:`repro.runtime.wire` and multicast scoped by the channel relay.
    Each daemon serves ``/metrics`` (Prometheus text), ``/view`` (JSON
    membership view) and ``/healthz`` over plain HTTP.
    """
    import asyncio
    import dataclasses
    import json
    import os
    import signal

    from repro.core.config import HierarchicalConfig, detector_overrides_from_env
    from repro.obs.wiring import Instruments
    from repro.runtime.anet import AsyncRuntime, ClusterSpec

    spec = ClusterSpec.load(args.spec)
    config = HierarchicalConfig()
    if spec.config:
        config = dataclasses.replace(config, **spec.config)
    # Detector overrides, lowest to highest precedence: spec < env < flags.
    overrides = detector_overrides_from_env(os.environ)
    for attr in ("detector", "probe_period", "probe_timeout", "indirect_probes",
                 "suspicion_timeout", "phi_threshold", "phi_window"):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    if overrides:
        config = dataclasses.replace(config, **overrides)

    async def _serve_http(
        node: HierarchicalNode, handle_registry, runtime: "AsyncRuntime"
    ) -> asyncio.AbstractServer:
        from repro.obs import to_prometheus

        def view_body() -> str:
            return json.dumps(
                {
                    "node": node.node_id,
                    "running": node.running,
                    "count": len(node.view()),
                    "members": node.view(),
                    "levels": {
                        str(level): {
                            "leader": node.leader_of(level),
                            "i_am_leader": node.is_leader(level),
                        }
                        for level in node.levels()
                    },
                    "relay": {
                        "active_index": runtime.relay_index,
                        "fallback": runtime.relay_fallback,
                        "failovers": runtime.relay_failovers,
                        "send_errors": runtime.send_errors,
                        "wire_errors": runtime.wire_errors,
                        "frag_drops": runtime.frag_drops,
                    },
                }
            )

        routes = {
            "/metrics": lambda: ("text/plain; version=0.0.4", to_prometheus(handle_registry)),
            "/view": lambda: ("application/json", view_body()),
            "/healthz": lambda: ("text/plain", "ok\n"),
        }

        async def handler(reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter") -> None:
            try:
                request = await reader.readline()
                while True:  # drain headers; we never read a body
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                parts = request.decode("latin-1").split()
                path = parts[1] if len(parts) >= 2 else "/"
                route = routes.get(path)
                if route is None:
                    status, ctype, body = "404 Not Found", "text/plain", "not found\n"
                else:
                    ctype, body = route()
                    status = "200 OK"
                raw = body.encode("utf-8")
                head = (
                    f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
                    f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + raw)
                await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        node_spec = spec.nodes[args.node]
        return await asyncio.start_server(handler, node_spec.host, node_spec.http_port)

    async def _run() -> None:
        registry = MetricsRegistry()
        instruments = Instruments(registry)
        runtime = AsyncRuntime(spec, args.node, instruments=instruments, seed=args.seed)
        await runtime.start()
        node = HierarchicalNode(None, args.node, config=config, runtime=runtime)
        node.start()
        server = await _serve_http(node, registry, runtime)
        print(f"daemon {args.node} ready", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        if args.duration is not None:
            loop.call_later(args.duration, stop.set)
        await stop.wait()
        node.stop()
        runtime.close()
        server.close()
        await server.wait_closed()

    asyncio.run(_run())
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    params = AnalysisParams(group_size=args.group_size)
    models = {name: cls(params) for name, cls in MODELS.items()}
    header = f"{'nodes':>7}"
    for name in sorted(models):
        header += f" | {name + ' MB/s':>17} {name + ' det':>16} {name + ' BDT(MB)':>20}"
    print(header)
    for n in args.sizes:
        row = f"{n:>7}"
        for name in sorted(models):
            m = models[name]
            row += (
                f" | {m.aggregate_bandwidth(n) / 1e6:>17.2f}"
                f" {m.detection_time(n):>15.1f}s"
                f" {m.bdt(n) / 1e6:>20.1f}"
            )
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Reproduction experiments for the topology-adaptive membership paper",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top cumulative "
             "entries to stderr (put the flag before the subcommand)",
    )
    parser.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="number of rows in the --profile report (default 25)",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="also dump raw --profile stats for pstats/snakeviz",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="all three schemes on one scenario (mini Figs. 11-13)")
    p.add_argument("--networks", type=int, default=3)
    p.add_argument("--hosts", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--observe", type=float, default=80.0)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("detect", help="single failure-detection run")
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="hierarchical")
    p.add_argument("--networks", type=int, default=3)
    p.add_argument("--hosts", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--observe", type=float, default=60.0)
    p.add_argument("--kill-leader", action="store_true")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("formation", help="show the membership hierarchy")
    p.add_argument("--networks", type=int, default=2)
    p.add_argument("--hosts", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=float, default=14.0)
    p.set_defaults(fn=_cmd_formation)

    p = sub.add_parser("failover", help="the Fig. 14 two-data-center scenario")
    p.add_argument("--rate", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=4)
    p.set_defaults(fn=_cmd_failover)

    p = sub.add_parser("obs", help="instrumented run: export protocol metrics")
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="hierarchical")
    p.add_argument("--networks", type=int, default=3)
    p.add_argument("--hosts", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--observe", type=float, default=40.0)
    p.add_argument("--format", choices=["prometheus", "json"], default="prometheus")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="also stream the trace to a JSONL file")
    p.set_defaults(fn=_cmd_obs)

    p = sub.add_parser("daemon", help="run one real asyncio/UDP membership daemon")
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="cluster spec JSON (relay + node address book)")
    p.add_argument("--node", required=True, help="this daemon's node id in the spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None, metavar="SEC",
                   help="exit after SEC seconds (default: run until SIGTERM)")
    p.add_argument("--detector", choices=["counter", "swim", "phi-accrual"],
                   default=None,
                   help="failure-detection strategy (default: spec/env/counter)")
    p.add_argument("--probe-period", type=float, default=None, metavar="SEC",
                   help="swim: probe round period")
    p.add_argument("--probe-timeout", type=float, default=None, metavar="SEC",
                   help="swim: per-probe ack timeout")
    p.add_argument("--indirect-probes", type=int, default=None, metavar="K",
                   help="swim: number of indirect ping-req relays")
    p.add_argument("--suspicion-timeout", type=float, default=None, metavar="SEC",
                   help="swim: suspicion-to-declaration delay")
    p.add_argument("--phi-threshold", type=float, default=None,
                   help="phi-accrual: declaration threshold")
    p.add_argument("--phi-window", type=int, default=None,
                   help="phi-accrual: inter-arrival window length")
    p.set_defaults(fn=_cmd_daemon)

    p = sub.add_parser("analysis", help="Section 4 closed forms")
    p.add_argument("--sizes", type=int, nargs="+", default=[20, 100, 1000, 4000])
    p.add_argument("--group-size", type=int, default=20)
    p.set_defaults(fn=_cmd_analysis)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.profile:
        return args.fn(args)
    # Perf work starts from data: wrap any subcommand in cProfile so a
    # future optimisation PR can see where a scenario actually spends
    # its time without writing a bespoke harness first.
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = args.fn(args)
    finally:
        prof.disable()
        stats = pstats.Stats(prof, stream=sys.stderr).sort_stats("cumulative")
        stats.print_stats(args.profile_top)
        if args.profile_out:
            prof.dump_stats(args.profile_out)
            print(f"# profile stats dumped to {args.profile_out}", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

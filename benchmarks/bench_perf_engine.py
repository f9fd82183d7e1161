"""Perf-engine benchmark: tracks the kernel and the delivery engine.

Unlike the ``bench_fig*`` modules (which reproduce paper figures under
pytest-benchmark), this is a standalone script producing a machine-readable
trajectory file, ``BENCH_perf_engine.json`` at the repo root, so future PRs
can regress against absolute and relative numbers:

* **kernel** — raw events/second through ``Simulator`` (schedule + run).
* **multicast micro** — ``MulticastFabric.send()`` throughput at 100 and
  400 subscribers, plus the kernel events one send costs
  (``events_per_send``).  Cached delivery plans schedule one batched event
  per distinct delay, so a two-hop fan-out costs 2.0 events per send
  whatever the subscriber count (a per-receiver fabric would cost one per
  receiver: 99 and 399).
* **macro** — wall-clock of a full 100-node hierarchical membership run
  (5 networks x 20 hosts, 60 simulated seconds, 1 Hz heartbeats).

``--check`` requires every multicast row's ``events_per_send`` to equal
the committed ``BENCH_perf_engine.json`` exactly: a count, so the gate is
independent of runner speed.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.experiment import make_scheme_cluster  # noqa: E402
from repro.net.builders import build_switched_cluster  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_perf_engine.json"


def bench_kernel(num_events: int) -> dict:
    """Events/second through schedule + run of an empty callback."""
    sim = Simulator()
    fn = (lambda: None)
    t0 = time.perf_counter()
    call_at = sim.call_at
    for i in range(num_events):
        call_at(float(i % 97) * 0.01, fn)
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": num_events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(num_events / wall),
    }


def bench_multicast(
    networks: int, hosts_per_network: int, sends: int, chunk: int = 50
) -> dict:
    """send() throughput and kernel events per send.

    Send-loop time is accumulated in chunks and the queue is drained
    off-timer between chunks, so the metric isolates fan-out cost (plan
    resolution + scheduling); end-to-end time (sends + deliveries) is also
    reported.
    """
    topo, hosts = build_switched_cluster(networks, hosts_per_network)
    net = Network(topo, seed=11)
    sink = lambda packet: None  # noqa: E731
    for h in hosts:
        net.subscribe("bench", h, sink)
    # Warm the topology and plan caches outside the timed region.
    net.multicast(hosts[0], "bench", ttl=2, kind="hb", payload=None, size=228)
    net.run()
    events_before = net.sim.events_executed
    send_wall = 0.0
    total_wall = 0.0
    done = 0
    while done < sends:
        n = min(chunk, sends - done)
        t0 = time.perf_counter()
        for _ in range(n):
            net.multicast(hosts[0], "bench", ttl=2, kind="hb", payload=None, size=228)
        t1 = time.perf_counter()
        net.run()
        t2 = time.perf_counter()
        send_wall += t1 - t0
        total_wall += t2 - t0
        done += n
    return {
        "subscribers": networks * hosts_per_network - 1,
        "sends": sends,
        "send_wall_s": round(send_wall, 4),
        "sends_per_sec": round(sends / send_wall),
        "end_to_end_wall_s": round(total_wall, 4),
        "end_to_end_sends_per_sec": round(sends / total_wall),
        "events_per_send": (net.sim.events_executed - events_before) / sends,
    }


def bench_macro(networks: int, hosts_per_network: int, duration: float) -> dict:
    """Wall-clock of a full hierarchical membership run."""
    net, hosts, _nodes = make_scheme_cluster(
        "hierarchical", networks, hosts_per_network, seed=31
    )
    t0 = time.perf_counter()
    net.run(until=duration)
    wall = time.perf_counter() - t0
    return {
        "nodes": len(hosts),
        "sim_seconds": duration,
        "wall_s": round(wall, 4),
        "events": net.sim.events_executed,
        "events_per_sec": round(net.sim.events_executed / wall),
        "rx_packets": net.meter.packets(direction="rx"),
    }


def run_check(report: dict, reference_path: Path) -> int:
    """Require each shared multicast row's events per send to match."""
    if not reference_path.exists():
        print(f"check: no reference at {reference_path}", file=sys.stderr)
        return 1
    reference = json.loads(reference_path.read_text())["multicast_send"]
    failed = False
    compared = 0
    for size, row in report["multicast_send"].items():
        ref = reference.get(size)
        if ref is None:
            continue
        compared += 1
        ok = row["events_per_send"] == ref.get("events_per_send")
        failed |= not ok
        print(
            f"check multicast {size}: {row['events_per_send']} events/send "
            f"(reference {ref.get('events_per_send')}) -> {'OK' if ok else 'MISMATCH'}"
        )
    if not compared:
        print("check: no multicast row in common with the reference", file=sys.stderr)
        return 1
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="require the committed JSON's events per send; nonzero exit on any difference",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    if args.quick:
        report = {
            "quick": True,
            "kernel": bench_kernel(20_000),
            "multicast_send": {"100": bench_multicast(5, 20, sends=50)},
            "macro_hierarchical": bench_macro(2, 10, duration=10.0),
        }
    else:
        report = {
            "quick": False,
            "kernel": bench_kernel(200_000),
            "multicast_send": {
                "100": bench_multicast(5, 20, sends=400),
                "400": bench_multicast(20, 20, sends=200),
            },
            "macro_hierarchical": bench_macro(5, 20, duration=60.0),
        }

    print(json.dumps(report, indent=2))
    if args.check:
        return run_check(report, DEFAULT_OUT)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

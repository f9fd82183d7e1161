"""Protocol hot-path benchmark: deadline heaps, interned heartbeats, views.

Companion to ``bench_perf_engine.py`` one layer up the stack: where that
script measures the *delivery engine* (multicast fan-out plans), this one
measures the *protocol engine* — what each node does per heartbeat period
once the hierarchy has formed: deadline-heap purges instead of directory
scans, interned heartbeat payloads on both the send and receive side, and
directory views cached behind a version counter.

Build a hierarchical cluster (seed 47), let the hierarchy form off-timer,
then time a window of quiet steady-state simulated seconds with the
observability counters on.  Each row records the window's wall time and
its exact work counts: kernel events, heartbeats received (``hb_rx``),
heartbeats absorbed on the interned no-change path (``hb_rx_fast``),
multicast sends (``mc_tx``) and multicast deliveries (``mc_rx``).

``--check`` gates on those counts: every row present in both this run and
the committed ``BENCH_protocol_hotpath.json`` must match them exactly.  A
seeded run does the same work on any machine, so the gate is independent
of runner speed, and it catches the regressions a speed ratio would only
blur: per-receiver delivery events inflate ``events``, and a heartbeat
that misses the no-change path drops ``hb_rx_fast`` below ``hb_rx``.

Usage::

    PYTHONPATH=src python benchmarks/bench_protocol_hotpath.py          # full
    PYTHONPATH=src python benchmarks/bench_protocol_hotpath.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_protocol_hotpath.py --quick --check
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
from repro.obs import enable_observability  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_protocol_hotpath.json"

#: Instruments whose steady-window deltas are recorded and gated.
COUNTERS = ("hb_rx", "hb_rx_fast", "mc_tx", "mc_rx")

#: Per-row work counts ``--check`` requires to equal the reference.
COUNT_KEYS = ("events",) + COUNTERS


def bench_steady_state(
    networks: int, hosts_per_network: int, warmup: float, window: float
) -> dict:
    """Wall time and exact work counts of one steady-state window.

    The warmup (hierarchy formation, elections, first syncs) runs
    off-timer; the timed region is pure steady state — every node sends
    one unchanged heartbeat per period per channel and runs one failure
    check, which is exactly the work the hot-path engine targets.
    """
    net, _hosts, _nodes = make_scheme_cluster(
        "hierarchical", networks, hosts_per_network, seed=47
    )
    inst = enable_observability(net).instruments
    net.run(until=warmup)
    before_events = net.sim.events_executed
    before = {name: getattr(inst, name).value for name in COUNTERS}
    t0 = time.perf_counter()
    net.run(until=warmup + window)
    wall = time.perf_counter() - t0
    events = net.sim.events_executed - before_events
    row = {
        "nodes": networks * hosts_per_network,
        "warmup_s": warmup,
        "window_s": window,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall),
        "sim_rate": round(window / wall, 2),
    }
    for name in COUNTERS:
        row[name] = getattr(inst, name).value - before[name]
    return row


def run_check(report: dict, reference_path: Path) -> int:
    """Require every shared row's work counts to equal the reference."""
    if not reference_path.exists():
        print(f"check: no reference at {reference_path}", file=sys.stderr)
        return 1
    reference = json.loads(reference_path.read_text())["steady_state"]
    failed = False
    compared = 0
    for name, row in report["steady_state"].items():
        ref = reference.get(name)
        if ref is None:
            continue
        compared += 1
        diffs = [
            f"{key} {row[key]} != {ref.get(key)}"
            for key in COUNT_KEYS
            if row[key] != ref.get(key)
        ]
        failed |= bool(diffs)
        verdict = "match" if not diffs else "MISMATCH (" + ", ".join(diffs) + ")"
        print(f"check {name} ({row['nodes']} nodes): counts {verdict}")
    if not compared:
        print("check: no row in common with the reference", file=sys.stderr)
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
        help="require the committed JSON's work counts; nonzero exit on any difference",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    rows = {"quick": bench_steady_state(5, 20, warmup=15.0, window=10.0)}
    if not args.quick:
        rows["400"] = bench_steady_state(20, 20, warmup=15.0, window=30.0)
    report = {"quick": args.quick, "steady_state": rows}

    if args.check:
        print(json.dumps(report["steady_state"], indent=2))
        return run_check(report, DEFAULT_OUT)

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

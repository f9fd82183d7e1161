#!/usr/bin/env python3
"""Benchmark of the membership service: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tree-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload once untraced and once with spans around
every layer entry point, prints the per-layer metrics of the traced
pass plus the tracing overhead (traced minus untraced), and writes the
spans to ``perfbench/out/<workload>.spans.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``
for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric; lower is better for all.
END_TO_END = (
    ("setup_s", "s"),
    ("bandwidth_node_Bps", "B/s"),
    ("packets_node_s", "1/s"),
    ("detect_p50_s", "s"),
    ("converge_p50_s", "s"),
    ("converge_p95_s", "s"),
)

#: Time-based figures printed for people but not gated: on a shared
#: machine they drift by more than any allowed bound (see README.md).
UNGATED = (("formation_s", "s"), ("cpu_ms_per_node_s", "ms"))



@dataclass(frozen=True)
class Workload:
    unit: Callable[..., object]
    #: wall seconds one repetition takes on a 2-core x86 box; a run makes
    #: ``round(seconds / nominal_s)`` repetitions (at least one), so the
    #: work per run is fixed by ``--seconds`` alone
    nominal_s: float
    #: deployments built per run; the median build time is ``setup_s``
    setups: int


def workloads() -> Dict[str, Workload]:
    from netload import loopback_unit
    from simload import churn_unit, tree_unit

    return {
        "tree-1k": Workload(tree_unit, nominal_s=25.0, setups=5),
        "churn-400": Workload(churn_unit, nominal_s=25.0, setups=5),
        "loopback-40": Workload(loopback_unit, nominal_s=28.0, setups=11),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_per_node_s")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_p50"):
        return "us"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def end_to_end(results: List) -> Dict[str, float]:
    from common import quantile

    detect = [d for r in results for d in r.detect_s]
    converge = [c for r in results for c in r.converge_s]
    return {
        "setup_s": statistics.median(s for r in results for s in r.setup_s),
        "bandwidth_node_Bps": statistics.median(r.bandwidth_node_Bps for r in results),
        "packets_node_s": statistics.median(r.packets_node_s for r in results),
        "detect_p50_s": quantile(detect, 0.5),
        "converge_p50_s": quantile(converge, 0.5),
        "converge_p95_s": quantile(converge, 0.95),
    }


def ungated(results: List) -> Dict[str, float]:
    return {
        "formation_s": statistics.median(f for r in results for f in r.formation_s),
        "cpu_ms_per_node_s": statistics.median(c for r in results for c in r.cpu_ms_per_node_s),
    }


def traced(wl: Workload, name: str, seed: int):
    """One untraced and one traced pass of the same repetition."""
    from common import PHASES, per_layer_names, quantile
    from spans import Patches, Tracer, install

    plain = wl.unit(seed, 0, setups=1)
    tracer = Tracer()
    patches = Patches()
    install(tracer, patches)
    try:
        result = wl.unit(seed, 0, tracer=tracer, setups=1)
    finally:
        patches.restore()
    metrics: Dict[str, float] = {}
    for ph in PHASES:
        layers = dict(result.layers[ph])
        # Latency is read from the untraced pass: spans would inflate it.
        samples = plain.samples.get(ph, {})
        layers["runtime.timer_lag_p99_ms"] = quantile(samples.get("timer_lag", []), 0.99) * 1e3
        layers["runtime.hb_latency_p50_ms"] = quantile(samples.get("hb_latency", []), 0.5) * 1e3
        layers["runtime.hb_latency_p99_ms"] = quantile(samples.get("hb_latency", []), 0.99) * 1e3
        metrics.update({f"{ph}.{k}": v for k, v in layers.items()})
    for key, value in ungated([plain]).items():
        metrics[f"untraced.{key}"] = value
    overhead = result.timed_cpu_s - plain.timed_cpu_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / plain.timed_cpu_s
    metrics["trace.spans"] = len(tracer.spans) + tracer.dropped
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{name}.spans.tsv.gz")
    assert list(metrics) == per_layer_names()
    return [plain, result], {k: (v, layer_unit(k)) for k, v in metrics.items()}


def measure(name: str, seed: int, seconds: int, trace: bool):
    wl = workloads()[name]
    if trace:
        return traced(wl, name, seed)
    reps = max(1, round(seconds / wl.nominal_s))
    results = [wl.unit(seed, rep, setups=max(1, wl.setups - reps + 1) if rep == 0 else 1)
               for rep in range(reps)]
    units = dict(END_TO_END + UNGATED)
    for key, value in ungated(results).items():
        print(f"[{name}] {key:<42} {value:>14.6g} {units[key]} (not gated)")
    return results, {k: (v, units[k]) for k, v in end_to_end(results).items()}


def report(name: str, results: List, metrics: Dict[str, tuple]) -> dict:
    problems = [p for r in results for p in r.problems]
    for p in problems:
        print(f"[{name}] CHECK FAILED: {p}")
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    print(f"[{name}] operations attempted {attempted}, failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"[{name}] {key:<42} {value:>14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tree-1k", "churn-400", "loopback-40", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: the program is not importable from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    names = list(workloads()) if args.workload == "all" else [args.workload]
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        results, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        one = report(name, results, metrics)
        prefix = f"{name}." if len(names) > 1 else ""
        outcome["correct"] = outcome["correct"] and one["correct"]
        outcome["attempted"] += one["attempted"]
        outcome["failed"] += one["failed"]
        outcome["metrics"].update({prefix + k: v for k, v in one["metrics"].items()})
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests: small-size smoke runs and the span arithmetic.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from common import LAYER_METRICS, per_layer_names  # noqa: E402
from netload import LoopShape, loopback_unit  # noqa: E402
from simload import ChurnShape, TreeShape, churn_unit, tree_unit  # noqa: E402
from spans import Patches, Tracer, install  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.phase = "run"
    # a: [0, 10] holds b: [2, 5] (which holds c: [3, 4]) and d: [6, 8]
    tr.enter("x.a")
    clock.t = 2
    tr.enter("y.b")
    clock.t = 3
    tr.enter("z.c")
    clock.t = 4
    tr.exit()
    clock.t = 5
    tr.exit()
    clock.t = 6
    tr.enter("y.d")
    clock.t = 8
    tr.exit()
    clock.t = 10
    tr.exit()
    stats = tr.stats["run"]
    assert stats["x.a"] == [1, 10 - 3 - 2]
    assert stats["y.b"] == [1, 3 - 1]
    assert stats["z.c"] == [1, 1]
    assert stats["y.d"] == [1, 2]
    assert tr.layer_self_s("run", "y") == 4
    assert tr.layer_calls("run", "y") == 2
    # spans keep (name, start, end, parent index), parents first
    assert tr.spans == [["x.a", 0, 10, -1], ["y.b", 2, 5, 0], ["z.c", 3, 4, 1],
                        ["y.d", 6, 8, 0]]


def test_spans_beyond_the_cap_still_count():
    clock = FakeClock()
    tr = Tracer(clock=clock, span_cap=1)
    tr.phase = "run"
    for _ in range(3):
        tr.enter("x.a")
        clock.t += 1
        tr.exit()
    assert len(tr.spans) == 1 and tr.dropped == 2
    assert tr.stats["run"]["x.a"] == [3, 3]


def test_no_phase_records_nothing():
    tr = Tracer()
    wrapped = tr.wrap("x.f", lambda v: v + 1)
    assert wrapped(1) == 2
    assert not tr.spans and not tr.stats


def _traced(unit, **kwargs):
    tracer = Tracer()
    patches = Patches()
    install(tracer, patches)
    try:
        return unit(5, 0, tracer=tracer, **kwargs)
    finally:
        patches.restore()


def _check(res):
    assert not res.problems
    assert res.ops > 0 and res.failed == 0
    assert res.detect_s and res.converge_s
    for value in (*res.formation_s, *res.cpu_ms_per_node_s, res.bandwidth_node_Bps,
                  *res.setup_s):
        assert math.isfinite(value) and value > 0


def test_tree_smoke_traced():
    shape = TreeShape(depth=2, branching=3, hosts_per_leaf=4, max_ttl=5, steady_s=5.5,
                      windows=2, crashes=2)
    res = _traced(tree_unit, shape=shape, setups=2)
    _check(res)
    assert len(res.setup_s) == 2
    n = 12
    form, run = res.layers["form"], res.layers["run"]
    assert list(form) == list(LAYER_METRICS)
    assert form["directory.inserts"] >= n * (n - 1) // 2
    assert run["directory.inserts"] == 0
    assert form["sim.events"] > 0 and run["roles.receiver.calls"] > 0
    assert run["wire.encodes"] == 0 and run["relay.frames_in"] == 0


def test_churn_smoke():
    shape = ChurnShape(networks=3, hosts_per_network=5, storm_s=10.0, crashes=2)
    res = churn_unit(5, 0, shape=shape, setups=2)
    _check(res)
    assert len(res.formation_s) == 2  # the discarded deployment is formed too


def test_loopback_smoke_traced():
    shape = LoopShape(nodes=8, segments=2, steady_s=1.0, windows=2, stops=2, stop_gap_s=0.3)
    res = _traced(loopback_unit, shape=shape, setups=2)
    _check(res)
    run = res.layers["run"]
    assert run["wire.encodes"] > 0 and run["wire.decodes"] > 0
    assert run["relay.frames_in"] > 0 and run["relay.datagrams_out"] > 0
    assert run["sim.events"] == 0
    assert res.samples["run"]["hb_latency"]


def test_per_layer_names_are_unique():
    names = per_layer_names()
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

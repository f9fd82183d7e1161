"""Wire codec benchmark: exact frame sizes plus encode/decode cost.

Encodes one canonical frame of each kind a daemon sends most — a
heartbeat carrying the ``MachineInfo`` attrs, an update with one
piggyback entry, a 40-record ``sync_req`` snapshot, a ``relay_sub``
announce and a SWIM ``probe`` — and writes ``BENCH_wire.json`` at the
repo root with, per frame:

* ``bytes`` — the exact encoded size (what a real network carries);
* ``encode_us`` / ``decode_us`` — median microseconds per call over
  several timed batches (informational: runner-dependent, not gated).

``--check`` requires every frame's ``bytes`` (and the wire version) to
equal the committed ``BENCH_wire.json`` exactly.  A byte count, so the
gate is independent of runner speed; any change to the encoding shows
up here and must be committed deliberately.

Usage::

    PYTHONPATH=src python benchmarks/bench_wire.py                  # full
    PYTHONPATH=src python benchmarks/bench_wire.py --quick --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.directory import NodeRecord  # noqa: E402
from repro.cluster.machine import MachineInfo  # noqa: E402
from repro.core.config import HierarchicalConfig  # noqa: E402
from repro.core.heartbeat import Heartbeat  # noqa: E402
from repro.core.roles.receiver import HMEMBER_PORT  # noqa: E402
from repro.core.updates import UpdateMessage, UpdateOp  # noqa: E402
from repro.net.packet import Packet  # noqa: E402
from repro.runtime.anet import RELAY_DST, RELAY_SUB  # noqa: E402
from repro.runtime.wire import WIRE_VERSION, decode_packet, encode_packet  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_wire.json"

CONFIG = HierarchicalConfig()


def record(node_id: str) -> NodeRecord:
    """A daemon's self record: no services, the machine description."""
    return NodeRecord(node_id, incarnation=1, attrs=MachineInfo().to_attrs())


def canonical_frames() -> Dict[str, Tuple[Packet, Optional[str]]]:
    """``name -> (packet, port)`` for every gated frame."""
    snapshot = [record(f"d{i:02d}") for i in range(40)]
    return {
        "heartbeat": (Packet(
            src="d07", kind="heartbeat", channel=CONFIG.channel(0),
            ttl=CONFIG.ttl_for_level(0), size=CONFIG.message_size(1),
            payload=Heartbeat(record=record("d07"), level=0, is_leader=False,
                              suppressed=True, update_seq=3),
        ), None),
        "update": (Packet(
            src="d07", kind="update", channel=CONFIG.channel(1),
            ttl=CONFIG.ttl_for_level(1), size=CONFIG.message_size(2),
            payload=UpdateMessage(
                uid=12, origin="d03", sender="d07", level=1, seq=4,
                ops=(UpdateOp("add", "d03", 1, record("d03")),),
                piggyback=((3, 11, "d05", (UpdateOp("remove", "d05", 1),)),),
            ),
        ), None),
        "sync_req_40": (Packet(
            src="d07", kind="sync_req", dst="d03", size=CONFIG.message_size(40),
            payload={"snapshot": snapshot},
        ), HMEMBER_PORT),
        "relay_sub": (Packet(
            src="d07", kind=RELAY_SUB, dst=RELAY_DST, size=0,
            payload={"node": "d07", "segment": "s1",
                     "channels": [CONFIG.channel(0), CONFIG.channel(1)]},
        ), None),
        "probe": (Packet(
            src="d07", kind="probe", dst="d03", size=CONFIG.header_size + 16,
            payload={"origin": "d07"},
        ), HMEMBER_PORT),
    }


def per_call_us(fn, arg, loops: int, batches: int) -> float:
    """Median over ``batches`` of the mean µs per call in one batch."""
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(*arg)
        samples.append((time.perf_counter() - t0) / loops * 1e6)
    return round(statistics.median(samples), 2)


def bench(loops: int, batches: int) -> dict:
    frames = {}
    for name, (pkt, port) in canonical_frames().items():
        data = encode_packet(pkt, port)
        out, out_port = decode_packet(data)
        assert out_port == port and out.payload == pkt.payload, name
        scale = max(1, loops // max(1, len(data) // 256))
        frames[name] = {
            "bytes": len(data),
            "encode_us": per_call_us(encode_packet, (pkt, port), scale, batches),
            "decode_us": per_call_us(decode_packet, (data,), scale, batches),
        }
    return {
        "wire_version": WIRE_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "frames": frames,
    }


def run_check(report: dict, reference_path: Path) -> int:
    """Require the committed wire version and every frame's byte count."""
    if not reference_path.exists():
        print(f"check: no reference at {reference_path}", file=sys.stderr)
        return 1
    reference = json.loads(reference_path.read_text())
    failed = report["wire_version"] != reference.get("wire_version")
    if failed:
        print(f"check wire_version: {report['wire_version']} "
              f"(reference {reference.get('wire_version')}) -> MISMATCH")
    ref_frames = reference.get("frames", {})
    if set(ref_frames) != set(report["frames"]):
        print(f"check frames: {sorted(report['frames'])} "
              f"(reference {sorted(ref_frames)}) -> MISMATCH")
        failed = True
    for name, row in report["frames"].items():
        ref = ref_frames.get(name, {}).get("bytes")
        ok = row["bytes"] == ref
        failed |= not ok
        print(f"check {name}: {row['bytes']} B (reference {ref}) -> "
              f"{'OK' if ok else 'MISMATCH'}")
    return 1 if failed else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing loops (byte counts are unaffected)")
    parser.add_argument("--check", action="store_true",
                        help="require the committed byte counts; nonzero exit on any difference")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output JSON path")
    args = parser.parse_args(argv)

    report = bench(loops=200 if args.quick else 2000, batches=3 if args.quick else 7)
    print(json.dumps(report, indent=2))
    if args.check:
        return run_check(report, DEFAULT_OUT)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

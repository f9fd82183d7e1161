"""Corrupt datagrams: only :class:`WireError` may leave the decoder.

A seeded, bounded mutation fuzz over the frames a daemon actually puts
on the wire (heartbeat, update with piggyback, ``sync_req`` snapshot,
relay subscription, and the fragments of a fragmented frame), plus one
receive-handler test each for :class:`AsyncRuntime` and
:class:`ChannelRelay`: a corrupt datagram is counted in ``wire_errors``
and dropped, never raised into the event loop.
"""

import random

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.obs.wiring import Instruments
from repro.runtime.anet import (
    RELAY_DST,
    RELAY_SUB,
    AsyncRuntime,
    ClusterSpec,
    NodeSpec,
    RelaySpec,
    _NodeProtocol,
)
from repro.runtime.relay import ChannelRelay
from repro.runtime.wire import (
    Reassembler,
    WireError,
    decode_packet,
    decode_value,
    encode_packet,
    fragment_frame,
)

SEED = 20260
MUTATIONS = 8000
HEADER = 7  # magic (2) + version (1) + body length (4)

RECORD = NodeRecord(
    node_id="n12",
    incarnation=3,
    services={"Retriever": frozenset({1, 2})},
    attrs={"cpus": "4"},
)

FRAMES = {
    "heartbeat": encode_packet(Packet(
        src="n12", kind="heartbeat", size=64, channel="hmember.L0", ttl=1,
        payload=Heartbeat(record=RECORD, level=0, is_leader=True,
                          suppressed=False, backup="n7", update_seq=5),
    )),
    "update": encode_packet(Packet(
        src="n12", kind="update", size=96, channel="hmember.L1", ttl=2,
        payload=UpdateMessage(
            uid=41, origin="n3", sender="n12", level=1, seq=9,
            ops=(UpdateOp("add", "n12", 3, RECORD),),
            piggyback=((8, 40, "n3", (UpdateOp("remove", "n4", 1),)),),
        ),
    )),
    "sync_req": encode_packet(
        Packet(src="n12", kind="sync_req", size=128, dst="n7",
               payload={"snapshot": [RECORD, RECORD]}),
        "hmember",
    ),
    "relay_sub": encode_packet(Packet(
        src="n12", kind=RELAY_SUB, size=0, dst=RELAY_DST,
        payload={"node": "n12", "segment": "s0",
                 "channels": ["hmember.L0", "hmember.L1"]},
    )),
}


def mutants(frame, rng, count, start=HEADER):
    """``count`` copies of ``frame`` with 1-4 random bytes overwritten."""
    for _ in range(count):
        data = bytearray(frame)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(start, len(data))] = rng.randrange(256)
        yield bytes(data)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_mutated_frames_raise_only_wire_error(name):
    # The unmutated frame decodes and re-encodes byte for byte.
    pkt, port = decode_packet(FRAMES[name])
    assert encode_packet(pkt, port) == FRAMES[name]
    rng = random.Random(f"{SEED}/{name}")
    rejected = 0
    causes = set()
    for data in mutants(FRAMES[name], rng, MUTATIONS):
        try:
            decode_packet(data)
        except WireError as exc:
            rejected += 1
            if exc.__cause__ is not None:
                causes.add(type(exc.__cause__))
    # Most mutations must be caught (the rest decode to other valid
    # packets: a changed digit, a renamed node).
    assert rejected > MUTATIONS // 2
    if name in ("heartbeat", "update"):
        # The corpus reaches payload reconstruction, where a decoded
        # unhashable key or a rejected packet field used to escape raw.
        assert {TypeError, ValueError} & causes


def test_mutated_fragments_raise_only_wire_error():
    frame = encode_packet(Packet(
        src="n12", kind="sync_req", size=4096, dst="n7",
        payload={"snapshot": [RECORD] * 40},
    ), "hmember")
    frags = fragment_frame(frame, "n12", 7, 400)
    assert len(frags) > 3
    rng = random.Random(f"{SEED}/fragments")
    for _ in range(200):
        reasm = Reassembler(clock=lambda: 0.0)
        bad = rng.randrange(len(frags))
        batch = list(frags)
        batch[bad] = next(mutants(frags[bad], rng, 1, start=0))
        for data in batch:
            try:
                done = reasm.add(data)
            except WireError:
                continue
            if done is not None:
                try:
                    decode_packet(done.payload)
                except WireError:
                    pass


def test_nesting_beyond_the_stack_is_a_wire_error():
    with pytest.raises(WireError):
        decode_value(b"t\x00\x00\x00\x01" * 20000 + b"N")


def test_unhashable_dict_key_is_a_wire_error():
    # {[]: None}: a dict whose decoded key is a list.
    data = b"d\x00\x00\x00\x01" + b"l\x00\x00\x00\x00" + b"N"
    with pytest.raises(WireError) as info:
        decode_value(data)
    assert isinstance(info.value.__cause__, TypeError)


def corrupt_datagrams():
    """One corrupt frame per escape route: unhashable key, bad field."""
    hb = FRAMES["heartbeat"]
    rng = random.Random(f"{SEED}/handlers")
    found = {}
    for data in mutants(hb, rng, MUTATIONS):
        try:
            decode_packet(data)
        except WireError as exc:
            cause = type(exc.__cause__)
            if cause in (TypeError, ValueError):
                found.setdefault(cause, data)
        if len(found) == 2:
            break
    assert len(found) == 2
    return [found[TypeError], found[ValueError], b"RM\x01garbage"]


def test_async_runtime_counts_corrupt_datagram():
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=1),
        nodes={"a": NodeSpec(host="127.0.0.1", port=2)},
    )
    registry = MetricsRegistry()
    rt = AsyncRuntime(spec, "a", instruments=Instruments(registry))
    proto = _NodeProtocol(rt)
    bad = corrupt_datagrams()
    for data in bad:
        proto.datagram_received(data, ("127.0.0.1", 9))
    assert rt.wire_errors == len(bad)
    assert registry.get("repro_wire_errors_total").labels().get() == len(bad)


def test_channel_relay_counts_corrupt_datagram():
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=1),
        nodes={"a": NodeSpec(host="127.0.0.1", port=2)},
    )
    relay = ChannelRelay(spec)
    bad = corrupt_datagrams()
    for data in bad:
        relay.datagram_received(data, ("127.0.0.1", 9))
    assert relay.wire_errors == len(bad)
    assert relay.members == {}

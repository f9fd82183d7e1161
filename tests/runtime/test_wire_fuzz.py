"""Corrupt datagrams: only :class:`WireError` may leave the decoder.

A seeded, bounded mutation fuzz over the frames a daemon actually puts
on the wire (heartbeat, update with piggyback, ``sync_req`` and
``sync_resp`` snapshots, an indirect probe, relay subscription, and the
fragments of a fragmented frame).  A mutant either raises
:class:`WireError` or decodes to a packet whose payload conforms to its
kind's schema, checked by an oracle written here independently of the
codec.  Receive-handler tests for :class:`AsyncRuntime` (under a
started :class:`HierarchicalNode`) and :class:`ChannelRelay` pin that a
corrupt or malformed datagram is counted in ``wire_errors`` and
dropped, never raised into the event loop.
"""

import asyncio
import random
import socket

import pytest

from repro.cluster.directory import NodeRecord
from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.core.heartbeat import Heartbeat
from repro.core.roles.receiver import HMEMBER_PORT
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.obs.wiring import Instruments
from repro.runtime.anet import (
    RELAY_DST,
    RELAY_SUB,
    RELAY_UNSUB,
    AsyncRuntime,
    ClusterSpec,
    NodeSpec,
    RelaySpec,
    _NodeProtocol,
)
from repro.runtime.relay import ChannelRelay
from repro.runtime.wire import (
    HEADER_SIZE,
    Reassembler,
    WireError,
    decode_packet,
    decode_value,
    encode_packet,
    fragment_frame,
)

SEED = 20260
MUTATIONS = 8000
HEADER = HEADER_SIZE  # magic, version, kind code, flags

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
    "sync_resp": encode_packet(
        Packet(src="n7", kind="sync_resp", size=128, dst="n12",
               payload={"snapshot": [RECORD], "seqs": {0: 4, 1: 9}}),
        "hmember",
    ),
    "probe-req": encode_packet(
        Packet(src="n12", kind="probe-req", size=40, dst="n7",
               payload={"target": "n4", "origin": "n12"}),
        "hmember",
    ),
    "relay_sub": encode_packet(Packet(
        src="n12", kind=RELAY_SUB, size=0, dst=RELAY_DST,
        payload={"node": "n12", "segment": "s0",
                 "channels": ["hmember.L0", "hmember.L1"]},
    )),
}


# ----------------------------------------------------------------------
# The schema oracle
# ----------------------------------------------------------------------
def is_int(x):
    return type(x) is int and -(2**63) <= x < 2**63


def is_str(x):
    return type(x) is str


def is_strs(x):
    return type(x) is list and all(map(is_str, x))


def is_record(r):
    return (type(r) is NodeRecord and is_str(r.node_id) and is_int(r.incarnation)
            and type(r.services) is dict and type(r.attrs) is dict)


def is_records(x):
    return type(x) is list and all(map(is_record, x))


def is_heartbeat(h):
    return (type(h) is Heartbeat and is_record(h.record) and is_int(h.level)
            and type(h.is_leader) is bool and type(h.suppressed) is bool
            and (h.backup is None or is_str(h.backup)) and is_int(h.update_seq))


def is_op(o):
    return (type(o) is UpdateOp and o.op in ("add", "remove", "leave")
            and is_str(o.node_id) and is_int(o.incarnation)
            and (o.record is None or is_record(o.record)))


def is_ops(x):
    return type(x) is tuple and all(map(is_op, x))


def is_update(m):
    return (type(m) is UpdateMessage and is_int(m.uid) and is_str(m.origin)
            and is_str(m.sender) and is_int(m.level) and is_int(m.seq)
            and is_ops(m.ops) and type(m.piggyback) is tuple
            and all(type(e) is tuple and len(e) == 4 and is_int(e[0])
                    and is_int(e[1]) and is_str(e[2]) and is_ops(e[3])
                    for e in m.piggyback))


def is_dict(**fields):
    return lambda p: (type(p) is dict and set(p) == set(fields)
                      and all(check(p[k]) for k, check in fields.items()))


SCHEMAS = {
    "heartbeat": is_heartbeat,
    "update": is_update,
    "sync_req": is_dict(snapshot=is_records),
    "sync_resp": is_dict(
        snapshot=is_records,
        seqs=lambda s: type(s) is dict and all(map(is_int, [*s, *s.values()])),
    ),
    "probe": is_dict(origin=is_str),
    "probe-req": is_dict(target=is_str, origin=is_str),
    "probe-ack": is_dict(),
    "relay_sub": is_dict(node=is_str, segment=is_str, channels=is_strs),
    "relay_unsub": is_dict(node=is_str, channels=is_strs),
    "relay_ack": lambda p: p is None,
}


def conforms(pkt, port):
    """True when a decoded packet has the shape its consumers rely on."""
    header = (is_str(pkt.src) and is_str(pkt.kind) and is_int(pkt.ttl)
              and is_int(pkt.size) and pkt.size >= 0
              and (pkt.dst is None) != (pkt.channel is None)
              and all(x is None or is_str(x) for x in (pkt.dst, pkt.channel, port)))
    check = SCHEMAS.get(pkt.kind)
    return header and (check is None or check(pkt.payload))


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
    assert conforms(pkt, port)
    assert encode_packet(pkt, port) == FRAMES[name]
    rng = random.Random(f"{SEED}/{name}")
    rejected = 0
    causes = set()
    for data in mutants(FRAMES[name], rng, MUTATIONS):
        try:
            pkt, port = decode_packet(data)
        except WireError as exc:
            rejected += 1
            if exc.__cause__ is not None:
                causes.add(type(exc.__cause__))
        else:
            assert conforms(pkt, port), (data, pkt)
    # Most mutations must be caught (the rest decode to other valid
    # packets: a changed digit, a renamed node).
    assert rejected > MUTATIONS // 2
    if name in ("heartbeat", "update"):
        # The corpus reaches payload reconstruction, where a decoded
        # unhashable key or a rejected packet field used to escape raw.
        assert {TypeError, ValueError} & causes


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_every_kind_code_and_flags_byte_raises_or_conforms(name):
    # Exhaustive over the two header bytes the random mutants keep: a
    # body read under another kind's schema (or with other optional
    # header fields) either fails or decodes to a conforming packet.
    frame = FRAMES[name]
    for offset in (HEADER - 2, HEADER - 1):
        for value in range(256):
            data = bytearray(frame)
            data[offset] = value
            try:
                pkt, port = decode_packet(bytes(data))
            except WireError:
                continue
            assert conforms(pkt, port), (offset, value, pkt)


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
                    pkt, port = decode_packet(done.payload)
                except WireError:
                    continue
                assert conforms(pkt, port)


def test_nesting_beyond_the_stack_is_a_wire_error():
    # 20,000 nested one-element tuples: "t", count 1, ..., then None.
    with pytest.raises(WireError):
        decode_value(b"t\x01" * 20000 + b"N")


def test_unhashable_dict_key_is_a_wire_error():
    # {[]: None}: a dict whose decoded key is a list.
    data = b"d\x01" + b"l\x00" + b"N"
    with pytest.raises(WireError) as info:
        decode_value(data)
    assert isinstance(info.value.__cause__, TypeError)


def corrupt_datagrams():
    """One corrupt frame per escape route: unhashable key, bad field."""
    # Unhashable key, hand-made (the seeded mutants of the compact v2
    # heartbeat no longer hit it): a heartbeat whose free-form attrs
    # key is a tuple, its tag then flipped to the list tag.
    record = NodeRecord("n12", 3, {}, {("zz",): "4"})
    framed = encode_packet(Packet(
        src="n12", kind="heartbeat", size=64, channel="hmember.L0", ttl=1,
        payload=Heartbeat(record=record, level=0, is_leader=False, suppressed=False),
    ))
    assert framed.count(b"t\x01s\x02zz") == 1
    unhashable = framed.replace(b"t\x01s\x02zz", b"l\x01s\x02zz")
    with pytest.raises(WireError) as info:
        decode_packet(unhashable)
    assert type(info.value.__cause__) is TypeError
    # Bad field (e.g. a negative size Packet rejects): a seeded mutant.
    rng = random.Random(f"{SEED}/handlers")
    bad_field = None
    for data in mutants(FRAMES["heartbeat"], rng, MUTATIONS):
        try:
            decode_packet(data)
        except WireError as exc:
            if type(exc.__cause__) is ValueError:
                bad_field = data
                break
    assert bad_field is not None
    return [unhashable, bad_field, b"RM\x02garbage"]


def forged(kind, payload, port=None, **fields):
    """A well-framed ``kind`` datagram whose payload breaks its schema.

    Encoded under a same-length free-form stand-in kind, then renamed in
    place: the bytes a buggy or hostile sender could put on the wire.
    """
    stand_in = kind[:-1] + kind[-1].swapcase()
    data = encode_packet(Packet(kind=stand_in, payload=payload, **fields), port)
    return data.replace(stand_in.encode(), kind.encode(), 1)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


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


def test_started_node_counts_malformed_payloads():
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=free_port()),
        nodes={
            "a": NodeSpec(host="127.0.0.1", port=free_port()),
            "b": NodeSpec(host="127.0.0.1", port=free_port()),
        },
    )
    config = HierarchicalConfig()
    channel = config.channel(0)
    to_a = dict(src="b", size=64, dst="a", port=HMEMBER_PORT)
    on_l0 = dict(src="b", size=64, channel=channel, ttl=1)
    bad = [
        forged("heartbeat", 7, **on_l0),
        forged("heartbeat", {"record": RECORD}, **on_l0),
        forged("update", 7, **on_l0),
        forged("sync_req", [RECORD], **to_a),
        forged("sync_req", 7, **to_a),
        forged("sync_resp", 7, **to_a),
        forged("sync_resp", {"snapshot": 5}, **to_a),
    ]

    async def scenario():
        registry = MetricsRegistry()
        rt = AsyncRuntime(spec, "a", instruments=Instruments(registry))
        await rt.start()
        node = HierarchicalNode(None, "a", config=config, runtime=rt)
        node.start()
        try:
            assert channel in rt._subs and HMEMBER_PORT in rt._bound
            proto = _NodeProtocol(rt)
            for data in bad:
                proto.datagram_received(data, ("127.0.0.1", 9))
            assert rt.wire_errors == len(bad)
            assert registry.get("repro_wire_errors_total").labels().get() == len(bad)
            # The node still takes a well-formed heartbeat from b.
            hb = Heartbeat(record=NodeRecord("b", 1), level=0, is_leader=False,
                           suppressed=False)
            good = encode_packet(Packet(kind="heartbeat", payload=hb, **on_l0))
            proto.datagram_received(good, ("127.0.0.1", 9))
            assert rt.wire_errors == len(bad)
            assert "b" in node.directory
        finally:
            node.stop()
            rt.close()

    asyncio.run(scenario())


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


def test_channel_relay_counts_malformed_control_payloads():
    spec = ClusterSpec(
        relay=RelaySpec(host="127.0.0.1", port=1),
        nodes={"a": NodeSpec(host="127.0.0.1", port=2)},
    )
    relay = ChannelRelay(spec)
    to_relay = dict(src="a", size=0, dst=RELAY_DST)
    bad = [
        forged(RELAY_SUB, 7, **to_relay),
        forged(RELAY_SUB, {"node": "a", "segment": "s0"}, **to_relay),
        forged(RELAY_SUB, {"node": "a", "segment": "s0", "channels": "c"}, **to_relay),
        forged(RELAY_SUB, {"node": 1, "segment": "s0", "channels": []}, **to_relay),
        forged(RELAY_SUB, {"node": "a", "segment": "s0", "channels": [[]]}, **to_relay),
        forged(RELAY_UNSUB, [], **to_relay),
        forged(RELAY_UNSUB, {"node": "a", "channels": [{}]}, **to_relay),
    ]
    for data in bad:
        relay.datagram_received(data, ("127.0.0.1", 9))
    assert relay.wire_errors == len(bad)
    assert relay.members == {} and relay.channels == {}
    # A well-formed announce still registers its sender.
    relay.datagram_received(
        encode_packet(Packet(kind=RELAY_SUB, payload={
            "node": "a", "segment": "s0", "channels": ["c"]}, **to_relay)),
        ("127.0.0.1", 9),
    )
    assert relay.wire_errors == len(bad)
    assert set(relay.members) == {"a"} and relay.channels == {"c": {"a": None}}

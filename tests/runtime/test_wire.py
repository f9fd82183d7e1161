"""The wire codec: round trips, canonical bytes, strict failure modes."""

import struct

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet
from repro.runtime.wire import (
    WIRE_VERSION,
    WireError,
    decode_packet,
    decode_value,
    encode_packet,
    encode_value,
)


def roundtrip(value):
    return decode_value(encode_value(value))


RECORD = NodeRecord(
    node_id="host-7",
    incarnation=3,
    services={"Retriever": frozenset({1, 2, 3}), "Index": frozenset()},
    attrs={"cpus": "4", "load": "0.25"},
)


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            1.5,
            -0.0,
            "",
            "héllo/δ",
            b"",
            b"\x00\xffraw",
            (),
            (1, "two", None),
            [],
            [1, [2, [3]]],
            {},
            {"k": 1, 2: "v", None: (1, 2)},
            frozenset(),
            frozenset({3, 1, 2}),
        ],
    )
    def test_scalars_and_containers(self, value):
        out = roundtrip(value)
        assert out == value
        assert type(out) is type(value)

    def test_node_record(self):
        out = roundtrip(RECORD)
        assert isinstance(out, NodeRecord)
        assert out == RECORD

    def test_heartbeat(self):
        hb = Heartbeat(
            record=RECORD,
            level=2,
            is_leader=True,
            suppressed=False,
            backup="host-9",
            update_seq=41,
        )
        out = roundtrip(hb)
        assert isinstance(out, Heartbeat)
        assert out == hb
        # The receive fast path keys on content equality after a trip.
        assert out.same_as(hb) and hb.same_as(out)
        assert out.record is not hb.record

    def test_update_message_with_piggyback(self):
        msg = UpdateMessage(
            uid=5,
            origin="host-1",
            sender="host-2",
            level=1,
            seq=9,
            ops=(UpdateOp("add", "host-7", 3, RECORD),),
            piggyback=(
                (8, 4, "host-3", (UpdateOp("remove", "host-4", 1),)),
                (7, 2, "host-1", (UpdateOp("leave", "host-5", 2),)),
            ),
        )
        out = roundtrip(msg)
        assert isinstance(out, UpdateMessage)
        assert out == msg
        # Piggyback entries keep their true (origin, uid) identities.
        assert [(o, u) for _s, u, o, _ops in out.piggyback] == [
            ("host-3", 4),
            ("host-1", 2),
        ]

    def test_frozenset_bytes_are_canonical(self):
        # Content-identical sets must serialize identically regardless of
        # construction order (content-keyed dedup must survive the wire).
        a = frozenset([1, 2, 3, 40, 500])
        b = frozenset([500, 40, 3, 2, 1])
        assert encode_value(a) == encode_value(b)

    def test_unencodable_type_raises(self):
        with pytest.raises(WireError):
            encode_value(object())

    def test_oversized_int_raises(self):
        with pytest.raises(WireError):
            encode_value(2**64)


class TestPacketFraming:
    def test_multicast_packet_roundtrip(self):
        pkt = Packet(
            src="n1",
            kind="heartbeat",
            payload=Heartbeat(record=RECORD, level=0, is_leader=False, suppressed=True),
            size=256,
            channel="239.255.0.2:10050/L0",
            ttl=1,
        )
        out, port = decode_packet(encode_packet(pkt))
        assert port is None
        assert (out.src, out.kind, out.channel, out.ttl, out.size) == (
            "n1",
            "heartbeat",
            "239.255.0.2:10050/L0",
            1,
            256,
        )
        assert out.dst is None
        assert out.payload == pkt.payload

    def test_unicast_packet_carries_port(self):
        pkt = Packet(
            src="n1",
            kind="sync_resp",
            payload={"snapshot": [], "seqs": {0: 5}},
            size=28,
            dst="n2",
        )
        out, port = decode_packet(encode_packet(pkt, "hmember"))
        assert port == "hmember"
        assert out.dst == "n2" and out.channel is None
        assert out.payload == {"snapshot": [], "seqs": {0: 5}}

    def test_truncated_frame_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=(1, 2, 3), size=0, channel="c", ttl=1)
        )
        for cut in (0, 3, 7, len(data) // 2, len(data) - 1):
            with pytest.raises(WireError):
                decode_packet(data[:cut])

    def test_trailing_garbage_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
        )
        with pytest.raises(WireError):
            decode_packet(data + b"\x00")

    def test_bad_magic_raises(self):
        data = encode_packet(
            Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
        )
        with pytest.raises(WireError):
            decode_packet(b"XX" + data[2:])

    def test_version_mismatch_raises(self):
        data = bytearray(
            encode_packet(
                Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
            )
        )
        data[2] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            decode_packet(bytes(data))

    def test_corrupt_value_tag_raises(self):
        body = b"\x7f"  # not a known tag
        # Free-form kind "k" (kind code 0) multicast from "a" on channel
        # "c" (flag 0x02) with ttl 1 and size 0, then the payload value.
        frame = (
            struct.pack(">2sBBB", b"RM", WIRE_VERSION, 0, 0x02)
            + b"\x01k" + b"\x01a" + b"\x01c" + b"\x02" + b"\x00"
            + body
        )
        with pytest.raises(WireError):
            decode_value(body)
        with pytest.raises(WireError):
            decode_packet(frame)


I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

HB = Heartbeat(
    record=RECORD, level=1, is_leader=True, suppressed=False, backup="host-9",
    update_seq=41,
)
UPDATE = UpdateMessage(
    uid=5, origin="host-1", sender="host-7", level=1, seq=9,
    ops=(UpdateOp("add", "host-7", 3, RECORD), UpdateOp("leave", "host-5", 2)),
    piggyback=((8, 4, "host-3", (UpdateOp("remove", "host-4", 1),)),),
)


def channel_pkt(kind, payload, src="host-7"):
    return Packet(src=src, kind=kind, payload=payload, size=292, channel="hm/L1", ttl=2)


def unicast_pkt(kind, payload, src="host-7", dst="host-2"):
    return Packet(src=src, kind=kind, payload=payload, size=64, dst=dst)


#: One frame of every kind a daemon (or its relay) puts on the wire.
DAEMON_FRAMES = {
    "heartbeat": (channel_pkt("heartbeat", HB), None),
    "heartbeat-relayed-record": (channel_pkt("heartbeat", HB, src="host-8"), None),
    "update": (channel_pkt("update", UPDATE), None),
    "sync_req": (unicast_pkt("sync_req", {"snapshot": [RECORD, RECORD]}), "hmember"),
    "sync_resp": (
        unicast_pkt("sync_resp", {"snapshot": [RECORD], "seqs": {0: 3, 1: 12}}),
        "hmember",
    ),
    "probe": (unicast_pkt("probe", {"origin": "host-7"}), "hmember"),
    "probe-req": (
        unicast_pkt("probe-req", {"target": "host-4", "origin": "host-7"}), "hmember"
    ),
    "probe-ack": (unicast_pkt("probe-ack", {}), "hmember"),
    "relay_sub": (
        unicast_pkt(
            "relay_sub",
            {"node": "host-7", "segment": "s1", "channels": ["hm/L0", "hm/L1"]},
            dst="__relay__",
        ),
        None,
    ),
    "relay_unsub": (
        unicast_pkt("relay_unsub", {"node": "host-7", "channels": ["hm/L1"]},
                    dst="__relay__"),
        None,
    ),
    "relay_ack": (unicast_pkt("relay_ack", None, src="__relay__"), None),
    "free-form": (channel_pkt("load_report", {"load": 0.5, "node": "host-7"}), None),
}


class TestWireV2:
    @pytest.mark.parametrize("name", sorted(DAEMON_FRAMES))
    def test_daemon_frame_round_trips(self, name):
        pkt, port = DAEMON_FRAMES[name]
        data = encode_packet(pkt, port)
        out, out_port = decode_packet(data)
        assert out_port == port
        assert (out.src, out.kind, out.dst, out.channel, out.ttl, out.size) == (
            pkt.src, pkt.kind, pkt.dst, pkt.channel, pkt.ttl, pkt.size,
        )
        assert out.payload == pkt.payload
        assert type(out.payload) is type(pkt.payload)
        # Canonical: the decoded packet re-encodes to the same bytes.
        assert encode_packet(out, out_port) == data

    def test_heartbeat_elides_its_own_record_id(self):
        own = encode_packet(*DAEMON_FRAMES["heartbeat"])
        relayed = encode_packet(*DAEMON_FRAMES["heartbeat-relayed-record"])
        # Same record, same length of src: only the id string differs.
        assert len(relayed) - len(own) == 1 + len(RECORD.node_id)

    @pytest.mark.parametrize("value", [I64_MIN, I64_MAX, I64_MIN + 1, I64_MAX - 1])
    def test_i64_boundary_values_round_trip(self, value):
        assert roundtrip(value) == value
        hb = Heartbeat(record=NodeRecord("n", value), level=value, is_leader=False,
                       suppressed=True, update_seq=value)
        pkt = Packet(src="n", kind="heartbeat", payload=hb, size=0, channel="c",
                     ttl=value)
        out, _port = decode_packet(encode_packet(pkt))
        assert out.payload == hb and out.ttl == value

    @pytest.mark.parametrize("value", [I64_MIN - 1, I64_MAX + 1])
    def test_integers_beyond_i64_raise(self, value):
        with pytest.raises(WireError):
            encode_value(value)
        hb = Heartbeat(record=NodeRecord("n", 0), level=0, is_leader=False,
                       suppressed=False, update_seq=value)
        with pytest.raises(WireError):
            encode_packet(channel_pkt("heartbeat", hb))

    @pytest.mark.parametrize("field", ["ttl", "size"])
    def test_ttl_or_size_beyond_i64_is_a_wire_error(self, field):
        pkt = Packet(src="a", kind="k", payload=None, size=0, channel="c", ttl=1)
        setattr(pkt, field, 2**63)
        with pytest.raises(WireError):
            encode_packet(pkt)
        setattr(pkt, field, 2**64 + 5)
        with pytest.raises(WireError):
            encode_packet(pkt)

    @pytest.mark.parametrize(
        "varint",
        [
            b"\x80" * 10 + b"\x01",  # 11 bytes
            b"\xff" * 9 + b"\x7f",  # 10 bytes, beyond 64 bits
            b"\x80\x00",  # zero in two bytes: not minimal
            b"\xff\x80\x00",
        ],
    )
    def test_over_long_varint_raises(self, varint):
        with pytest.raises(WireError):
            decode_value(b"i" + varint)
        with pytest.raises(WireError):
            decode_value(b"s" + varint + b"x")

    def test_largest_varint_decodes(self):
        # 2**64 - 1 is the zigzag image of I64_MIN: ten bytes, legal.
        assert decode_value(b"i" + b"\xff" * 9 + b"\x01") == I64_MIN

    def test_v1_frame_is_a_version_mismatch(self):
        # A v1 frame: magic, version 1, u32 body length, tagged body.
        body = b"s\x00\x00\x00\x01a" + b"s\x00\x00\x00\x01k" + b"N" * 4
        v1 = struct.pack(">2sBI", b"RM", 1, len(body)) + body
        with pytest.raises(WireError, match="version 1"):
            decode_packet(v1)

    @pytest.mark.parametrize(
        "kind,payload",
        [
            ("heartbeat", 5),
            ("heartbeat", {"record": RECORD}),
            ("heartbeat", RECORD),
            ("heartbeat", Heartbeat(record="n", level=0, is_leader=False, suppressed=False)),
            ("heartbeat", Heartbeat(record=RECORD, level=0, is_leader=1, suppressed=False)),
            ("update", 5),
            ("update", UpdateMessage(1, "a", "b", 0, 1, [UpdateOp("add", "x", 1)])),
            ("update", UpdateMessage(1, "a", "b", 0, 1, (UpdateOp("move", "x", 1),))),
            ("update", UpdateMessage(1, "a", "b", 0, 1, (), ((1, 2, "a"),))),
            ("sync_req", [RECORD]),
            ("sync_req", {"snapshot": 5}),
            ("sync_req", {"snapshot": [RECORD], "extra": 1}),
            ("sync_req", {"snapshot": [{"node_id": "x"}]}),
            ("sync_resp", {"snapshot": []}),
            ("sync_resp", {"snapshot": [], "seqs": {"0": 1}}),
            ("probe", {"origin": 7}),
            ("probe-req", {"target": "a"}),
            ("probe-ack", None),
            ("relay_sub", {"node": "a", "segment": "s", "channels": "c"}),
            ("relay_unsub", {"node": "a", "channels": [1]}),
            ("relay_ack", {}),
        ],
    )
    def test_payload_outside_its_schema_fails_at_encode(self, kind, payload):
        with pytest.raises(WireError):
            encode_packet(unicast_pkt(kind, payload))

    def test_schema_kind_framed_as_free_form_is_rejected(self):
        # Same length as "heartbeat", so the bytes can be patched in.
        data = encode_packet(channel_pkt("heartbeaT", 5))
        forged = data.replace(b"heartbeaT", b"heartbeat")
        with pytest.raises(WireError, match="free-form"):
            decode_packet(forged)

    def test_unelided_own_record_id_is_rejected(self):
        data = encode_packet(*DAEMON_FRAMES["heartbeat-relayed-record"])
        # Rename the sender to the record's own id: valid layout, but
        # the canonical encoding would have elided the id.
        forged = data.replace(b"\x06host-8", b"\x06host-7", 1)
        with pytest.raises(WireError, match="elided"):
            decode_packet(forged)

    def test_unknown_kind_code_and_flags_are_rejected(self):
        data = bytearray(encode_packet(*DAEMON_FRAMES["probe-ack"]))
        code = bytes(data)
        data[3] = 0xEE
        with pytest.raises(WireError, match="kind code"):
            decode_packet(bytes(data))
        data = bytearray(code)
        data[4] |= 0x80
        with pytest.raises(WireError, match="flags"):
            decode_packet(bytes(data))

    def test_heartbeat_frame_is_compact(self):
        # The daemon heartbeat: MachineInfo attrs, its own record id.
        from repro.cluster.machine import MachineInfo

        record = NodeRecord("n12", 3, {}, MachineInfo().to_attrs())
        hb = Heartbeat(record=record, level=0, is_leader=False, suppressed=True,
                       update_seq=5)
        data = encode_packet(Packet(src="n12", kind="heartbeat", payload=hb,
                                    size=292, channel="hm/L0", ttl=1))
        # 5 B header, src, channel, ttl, size (2 B), flags, level,
        # update_seq, incarnation, two dict counts, then the attrs as
        # tagged strings: 12 x (tag + length) around 75 B of text.
        text = sum(len(k) + len(v) for k, v in record.attrs.items())
        assert len(data) == 5 + 4 + 6 + 1 + 2 + 1 + 1 + 1 + 1 + 2 + 24 + text

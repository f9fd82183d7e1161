"""Versioned wire codec for membership datagrams.

The simulator hands payload *objects* between nodes by reference; a real
transport hands **bytes**.  This module is the boundary: a compact binary
encoding for every payload the daemon puts on the wire — heartbeats,
update messages (with piggyback), sync polls and snapshots, SWIM probes,
plus the relay control messages of :mod:`repro.runtime.relay`.

Frame layout (wire format v2)::

    +-------+---------+-----------+-------+
    | magic | version | kind code | flags |   fixed header, 5 B
    |  2 B  |   1 B   |    1 B    |  1 B  |
    +-------+---------+-----------+-------+
    [kind]                str   only for kind code 0
    src                   str
    [dst] [channel] [port]  str   each present when its flag bit is set
    ttl, size             zigzag varints
    payload               the kind's schema, or one tagged value (code 0)

``str`` is a LEB128 byte length plus UTF-8; every length and count is an
unsigned LEB128 varint and every integer a zigzag varint, range-checked
to i64.  The frame carries no body length: the datagram (or the
reassembled frame) bounds it, and trailing bytes are an error.

Every protocol kind has a code and a fixed schema, validated at encode
(a sender bug fails loudly) and at decode (a hostile datagram never
reaches a role handler in an unexpected shape):

=============== == =====================================================
kind            #  payload
=============== == =====================================================
``heartbeat``   1  :class:`Heartbeat`: flags byte (leader, suppressed,
                   backup present, record id = ``src``), level,
                   update_seq, the record, [backup]
``update``      2  :class:`UpdateMessage` with :class:`UpdateOp` tuples
                   and ``(seq, uid, origin, ops)`` piggyback entries
``sync_req``    3  ``{"snapshot": [NodeRecord]}``
``sync_resp``   4  ``{"snapshot": [NodeRecord], "seqs": {int: int}}``
``probe``       5  ``{"origin": str}``
``probe-req``   6  ``{"target": str, "origin": str}``
``probe-ack``   7  ``{}``
``relay_sub``   8  ``{"node": str, "segment": str, "channels": [str]}``
``relay_unsub`` 9  ``{"node": str, "channels": [str]}``
``relay_ack``   10 ``None``
=============== == =====================================================

Kind code 0 means "kind string follows" and carries one *tagged value*
(a tag byte, then its body); it serves free-form application kinds
(``load_report``, ``proxy_*``, ``gossip``).  A ``NodeRecord``'s
``services`` and ``attrs`` are free-form too: each is a count of tagged
key/value pairs.  Decoding yields the same Python types the protocol
code produced — the roles never learn whether a packet travelled by
reference or by bytes.

Design constraints:

* **Versioned** — the version byte is checked before anything else, so a
  rolling upgrade that changes the encoding fails loudly instead of
  corrupting directories (there is one decoder: a v1 frame is a version
  mismatch).
* **Canonical** — one payload has one encoding: ``frozenset`` elements
  are sorted, varints are minimal, a schema kind is never sent under
  code 0, and an elidable record id is always elided, so content-keyed
  deduplication survives serialization.  The decoder rejects
  non-minimal varints, schema kinds under code 0 and unelided ids.
* **Strict** — unknown tags, kind codes or flag bits, truncated frames,
  trailing garbage, out-of-range integers and payloads outside their
  kind's schema all raise :class:`WireError`; a malformed datagram is
  dropped by the caller, never half-applied.

No dependency on asyncio or sockets: the codec is pure functions over
``bytes`` and is exercised directly by ``tests/runtime/test_wire.py``.

Fragmentation
-------------

A UDP datagram tops out at 65,507 payload bytes, and a full membership
view crosses that well below the 10k-node scale the simulator reaches.
Frames larger than a configurable safe payload are split into sequenced
*fragment datagrams* (their own magic, so they are distinguishable from
whole frames at the first two bytes) and reassembled on receive:

* :func:`fragment_frame` splits one encoded frame into ``count``
  fragments, each carrying ``(origin, frame_id, index, count)`` so the
  receiver can reassemble frames from many interleaved senders — the
  origin string travels in the fragment header because relayed traffic
  all arrives from the relay's socket address;
* :class:`Reassembler` holds per-``(origin, frame_id)`` buffers with a
  missing-fragment timeout and a bounded budget (buffer count and total
  bytes); stale or over-budget buffers are dropped whole, never
  half-applied, and the completed frame hands back both the reassembled
  payload and the original fragment datagrams so a relay can forward
  the exact bytes it received.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateMessage, UpdateOp
from repro.net.packet import Packet

__all__ = [
    "WIRE_VERSION",
    "HEADER_SIZE",
    "MAX_UDP_PAYLOAD",
    "DEFAULT_MAX_DATAGRAM",
    "WireError",
    "encode_packet",
    "decode_packet",
    "encode_value",
    "decode_value",
    "fragment_frame",
    "parse_fragment",
    "is_fragment",
    "Fragment",
    "ReassembledFrame",
    "Reassembler",
]

#: Frame magic: identifies a membership datagram before version checks.
MAGIC = b"RM"

#: Fragment magic: identifies one slice of a fragmented frame.
FRAG_MAGIC = b"RG"

#: Current encoding version.  Bump on any change to tags or layouts.
WIRE_VERSION = 2

#: The hard OS limit on one UDP payload (IPv4: 65,535 - 20 IP - 8 UDP).
MAX_UDP_PAYLOAD = 65507

#: Default safe per-datagram budget; frames above it are fragmented.
#: Deliberately below :data:`MAX_UDP_PAYLOAD` so the fragment header
#: and loopback-stack slack never push a slice over the OS limit.
DEFAULT_MAX_DATAGRAM = 61440

#: magic, version, kind code, flags
_HEADER = struct.Struct(">2sBBB")

#: Bytes before the first variable-length field of a frame.
HEADER_SIZE = _HEADER.size

_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Frame flag bits: which optional header strings follow ``src``.
_F_DST = 0x01
_F_CHANNEL = 0x02
_F_PORT = 0x04

# Heartbeat flag bits.
_HB_LEADER = 0x01
_HB_SUPPRESSED = 0x02
_HB_BACKUP = 0x04
_HB_SELF = 0x08  # record.node_id == src, so the id is elided

# UpdateOp byte: the op's index in _OPS, plus a bit when a record follows.
_OPS = ("add", "remove", "leave")
_OP_INDEX = {name: index for index, name in enumerate(_OPS)}
_OP_RECORD = 0x80

# Tags of the generic tagged encoding (code-0 payloads, services, attrs).
_T_NONE, _T_TRUE, _T_FALSE = ord("N"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = ord("i"), ord("f"), ord("s"), ord("b")
_T_TUPLE, _T_LIST, _T_DICT, _T_SET = ord("t"), ord("l"), ord("d"), ord("S")
_T_RECORD, _T_HEARTBEAT = ord("R"), ord("H")
_T_OP, _T_UPDATE = ord("O"), ord("U")


class WireError(ValueError):
    """A datagram could not be encoded or decoded."""


_T = TypeVar("_T")

#: What rebuilding objects from hostile bytes (or walking a sender's
#: payload) can raise besides :class:`WireError`: an unhashable decoded
#: dict key or set element (``TypeError``), a ``Packet`` or payload
#: invariant rejecting a decoded field (``ValueError``), and nesting
#: deeper than the interpreter stack (``RecursionError``).
_DECODE_FAULTS = (TypeError, ValueError, RecursionError)


def _strict(codec: Callable[..., _T], *args: Any) -> _T:
    """Run one codec entry point so that only :class:`WireError` escapes."""
    try:
        return codec(*args)
    except WireError:
        raise
    except _DECODE_FAULTS as exc:
        raise WireError(f"malformed datagram: {type(exc).__name__}: {exc}") from exc


# ----------------------------------------------------------------------
# Encoding primitives
# ----------------------------------------------------------------------
def _put_uvarint(out: bytearray, n: int) -> None:
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put_int(out: bytearray, n: Any) -> None:
    if type(n) is not int:
        raise WireError(f"expected an int, got {type(n).__name__}")
    if 0 <= n < 0x40:  # one-byte fast path: levels, flags, small counters
        out.append(n << 1)
        return
    if not (_I64_MIN <= n <= _I64_MAX):
        raise WireError(f"integer out of i64 range: {n}")
    _put_uvarint(out, (n << 1) ^ (n >> 63))


def _put_str(out: bytearray, s: Any) -> None:
    if type(s) is not str:
        raise WireError(f"expected a str, got {type(s).__name__}")
    raw = s.encode("utf-8")
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _put_uvarint(out, len(raw))
    out += raw


def _flag(value: Any, bit: int) -> int:
    if value is True:
        return bit
    if value is False:
        return 0
    raise WireError(f"expected a bool, got {type(value).__name__}")


def _put_items(out: bytearray, mapping: Any) -> None:
    """A dict as a count of tagged key/value pairs (no tag of its own)."""
    if type(mapping) is not dict:
        raise WireError(f"expected a dict, got {type(mapping).__name__}")
    _put_uvarint(out, len(mapping))
    for key, val in mapping.items():
        _put_value(out, key)
        _put_value(out, val)


def _put_value(out: bytearray, value: Any) -> None:
    """One value of the generic tagged encoding."""
    kind = type(value)
    if kind is str:
        out.append(_T_STR)
        _put_str(out, value)
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif kind is int:
        out.append(_T_INT)
        _put_int(out, value)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif kind is bytes:
        out.append(_T_BYTES)
        _put_uvarint(out, len(value))
        out += value
    elif kind is tuple or kind is list:
        out.append(_T_TUPLE if kind is tuple else _T_LIST)
        _put_uvarint(out, len(value))
        for item in value:
            _put_value(out, item)
    elif kind is dict:
        out.append(_T_DICT)
        _put_items(out, value)
    elif kind is frozenset:
        out.append(_T_SET)
        _put_uvarint(out, len(value))
        # Canonical bytes: sort elements by their own encoding.
        encoded: List[bytes] = []
        for item in value:
            buf = bytearray()
            _put_value(buf, item)
            encoded.append(bytes(buf))
        for raw in sorted(encoded):
            out += raw
    elif kind is NodeRecord:
        out.append(_T_RECORD)
        _put_record(out, value)
    elif kind is Heartbeat:
        out.append(_T_HEARTBEAT)
        _put_heartbeat(out, value, None)
    elif kind is UpdateOp:
        out.append(_T_OP)
        _put_op(out, value)
    elif kind is UpdateMessage:
        out.append(_T_UPDATE)
        _put_update(out, value, None)
    else:
        raise WireError(f"unencodable payload type: {kind.__name__}")


def encode_value(value: Any) -> bytes:
    """Encode one tagged value (no frame header).  Raises :class:`WireError`."""
    out = bytearray()
    _strict(_put_value, out, value)
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding primitives
# ----------------------------------------------------------------------
class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def byte(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise WireError("truncated datagram")
        self.pos = pos + 1
        return self.data[pos]

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated datagram")
        raw = self.data[self.pos : end]
        self.pos = end
        return raw

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        if pos >= len(data):
            raise WireError("truncated datagram")
        byte = data[pos]
        if byte < 0x80:  # one-byte fast path: most lengths, flags, levels
            self.pos = pos + 1
            return byte
        value = byte & 0x7F
        shift = 7
        while True:
            pos += 1
            if pos >= len(data):
                raise WireError("truncated datagram")
            byte = data[pos]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 63:
                raise WireError("over-long varint (more than 10 bytes)")
        if byte == 0:
            raise WireError("over-long varint (non-minimal encoding)")
        if value >> 64:
            raise WireError("varint beyond 64 bits")
        self.pos = pos + 1
        return value

    def int_(self) -> int:
        # A zigzag varint below 2**64 is always within i64.
        n = self.uvarint()
        return (n >> 1) ^ -(n & 1)

    def count(self) -> int:
        # Every element takes at least one byte: a count the remaining
        # bytes cannot hold fails here rather than after a long loop.
        n = self.uvarint()
        if n > len(self.data) - self.pos:
            raise WireError(f"count {n} exceeds the datagram")
        return n

    def str_(self) -> str:
        data = self.data
        pos = self.pos
        if pos < len(data) and data[pos] < 0x80:  # one-byte length
            end = pos + 1 + data[pos]
            pos += 1
        else:
            length = self.uvarint()
            pos = self.pos
            end = pos + length
        if end > len(data):
            raise WireError("truncated datagram")
        self.pos = end
        try:
            return data[pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid utf-8 in string") from exc

    def items(self) -> Dict[Any, Any]:
        out: Dict[Any, Any] = {}
        for _ in range(self.count()):
            key = self.value()
            out[key] = self.value()
        return out

    def value(self) -> Any:
        pos = self.pos
        if pos >= len(self.data):
            raise WireError("truncated datagram")
        tag = self.data[pos]
        self.pos = pos + 1
        if tag == _T_STR:
            return self.str_()
        if tag == _T_DICT:
            return self.items()
        if tag == _T_INT:
            return self.int_()
        if tag == _T_SET:
            return frozenset(self.value() for _ in range(self.count()))
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_FLOAT:
            return float(_F64.unpack(self.take(8))[0])
        if tag == _T_BYTES:
            return self.take(self.uvarint())
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.count()))
        if tag == _T_LIST:
            return [self.value() for _ in range(self.count())]
        if tag == _T_RECORD:
            return _get_record(self)
        if tag == _T_HEARTBEAT:
            return _get_heartbeat(self, None)
        if tag == _T_OP:
            return _get_op(self)
        if tag == _T_UPDATE:
            return _get_update(self, None)
        raise WireError(f"unknown wire tag {bytes([tag])!r}")


def decode_value(data: bytes) -> Any:
    """Decode one tagged value (no frame header).  Raises :class:`WireError`."""
    return _strict(_decode_value, data)


def _decode_value(data: bytes) -> Any:
    reader = _Reader(data)
    value = reader.value()
    if reader.pos != len(data):
        raise WireError(f"{len(data) - reader.pos} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Domain types
# ----------------------------------------------------------------------
def _put_record(out: bytearray, rec: Any, with_id: bool = True) -> None:
    if type(rec) is not NodeRecord:
        raise WireError(f"expected a NodeRecord, got {type(rec).__name__}")
    if with_id:
        _put_str(out, rec.node_id)
    _put_int(out, rec.incarnation)
    _put_items(out, rec.services)
    _put_items(out, rec.attrs)


def _get_record(r: _Reader, node_id: Optional[str] = None) -> NodeRecord:
    if node_id is None:
        node_id = r.str_()
    incarnation = r.int_()
    services = r.items()
    attrs = r.items()
    return NodeRecord(
        node_id=node_id, incarnation=incarnation, services=services, attrs=attrs
    )


def _put_heartbeat(out: bytearray, hb: Any, src: Optional[str]) -> None:
    if type(hb) is not Heartbeat:
        raise WireError(f"heartbeat payload must be a Heartbeat, got {type(hb).__name__}")
    record = hb.record
    if type(record) is not NodeRecord:
        raise WireError("heartbeat without a NodeRecord")
    elide = record.node_id == src
    flags = _flag(hb.is_leader, _HB_LEADER) | _flag(hb.suppressed, _HB_SUPPRESSED)
    if hb.backup is not None:
        flags |= _HB_BACKUP
    if elide:
        flags |= _HB_SELF
    out.append(flags)
    _put_int(out, hb.level)
    _put_int(out, hb.update_seq)
    _put_record(out, record, with_id=not elide)
    if hb.backup is not None:
        _put_str(out, hb.backup)


def _get_heartbeat(r: _Reader, src: Optional[str]) -> Heartbeat:
    flags = r.byte()
    if flags & ~(_HB_LEADER | _HB_SUPPRESSED | _HB_BACKUP | _HB_SELF):
        raise WireError(f"unknown heartbeat flags {flags:#04x}")
    level = r.int_()
    update_seq = r.int_()
    if flags & _HB_SELF:
        if src is None:
            raise WireError("heartbeat elides its record id outside a frame")
        node_id = src
    else:
        node_id = r.str_()
        if node_id == src:
            raise WireError("non-canonical heartbeat: record id not elided")
    record = _get_record(r, node_id)
    return Heartbeat(
        record=record,
        level=level,
        is_leader=bool(flags & _HB_LEADER),
        suppressed=bool(flags & _HB_SUPPRESSED),
        backup=r.str_() if flags & _HB_BACKUP else None,
        update_seq=update_seq,
    )


def _put_op(out: bytearray, op: Any) -> None:
    if type(op) is not UpdateOp:
        raise WireError(f"expected an UpdateOp, got {type(op).__name__}")
    index = _OP_INDEX.get(op.op) if type(op.op) is str else None
    if index is None:
        raise WireError(f"unknown update op {op.op!r}")
    out.append(index if op.record is None else index | _OP_RECORD)
    _put_str(out, op.node_id)
    _put_int(out, op.incarnation)
    if op.record is not None:
        _put_record(out, op.record)


def _get_op(r: _Reader) -> UpdateOp:
    code = r.byte()
    index = code & ~_OP_RECORD
    if index >= len(_OPS):
        raise WireError(f"unknown update op code {code:#04x}")
    node_id = r.str_()
    incarnation = r.int_()
    record = _get_record(r) if code & _OP_RECORD else None
    return UpdateOp(op=_OPS[index], node_id=node_id, incarnation=incarnation, record=record)


def _put_ops(out: bytearray, ops: Any) -> None:
    if type(ops) is not tuple:
        raise WireError(f"update ops must be a tuple, got {type(ops).__name__}")
    _put_uvarint(out, len(ops))
    for op in ops:
        _put_op(out, op)


def _get_ops(r: _Reader) -> Tuple[UpdateOp, ...]:
    return tuple(_get_op(r) for _ in range(r.count()))


def _put_update(out: bytearray, msg: Any, src: Optional[str]) -> None:
    if type(msg) is not UpdateMessage:
        raise WireError(f"update payload must be an UpdateMessage, got {type(msg).__name__}")
    _put_int(out, msg.uid)
    _put_str(out, msg.origin)
    _put_str(out, msg.sender)
    _put_int(out, msg.level)
    _put_int(out, msg.seq)
    _put_ops(out, msg.ops)
    piggyback = msg.piggyback
    if type(piggyback) is not tuple:
        raise WireError("update piggyback must be a tuple")
    _put_uvarint(out, len(piggyback))
    for entry in piggyback:
        if type(entry) is not tuple or len(entry) != 4:
            raise WireError("piggyback entries are (seq, uid, origin, ops) tuples")
        seq, uid, origin, ops = entry
        _put_int(out, seq)
        _put_int(out, uid)
        _put_str(out, origin)
        _put_ops(out, ops)


def _get_update(r: _Reader, src: Optional[str]) -> UpdateMessage:
    uid = r.int_()
    origin = r.str_()
    sender = r.str_()
    level = r.int_()
    seq = r.int_()
    ops = _get_ops(r)
    piggyback = tuple(
        (r.int_(), r.int_(), r.str_(), _get_ops(r)) for _ in range(r.count())
    )
    return UpdateMessage(
        uid=uid,
        origin=origin,
        sender=sender,
        level=level,
        seq=seq,
        ops=ops,
        piggyback=piggyback,
    )


# ----------------------------------------------------------------------
# Per-kind schemas
# ----------------------------------------------------------------------
_Put = Callable[[bytearray, Any], None]
_Get = Callable[[_Reader], Any]
_Encode = Callable[[bytearray, Any, Optional[str]], None]
_Decode = Callable[[_Reader, Optional[str]], Any]


def _put_list(put: _Put) -> _Put:
    def encode(out: bytearray, items: Any) -> None:
        if type(items) is not list:
            raise WireError(f"expected a list, got {type(items).__name__}")
        _put_uvarint(out, len(items))
        for item in items:
            put(out, item)

    return encode


def _get_list(get: _Get) -> _Get:
    return lambda r: [get(r) for _ in range(r.count())]


def _put_int_map(out: bytearray, mapping: Any) -> None:
    if type(mapping) is not dict:
        raise WireError(f"expected a dict, got {type(mapping).__name__}")
    _put_uvarint(out, len(mapping))
    for key, val in mapping.items():
        _put_int(out, key)
        _put_int(out, val)


def _get_int_map(r: _Reader) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for _ in range(r.count()):
        key = r.int_()
        out[key] = r.int_()
    return out


_STR: Tuple[_Put, _Get] = (_put_str, _Reader.str_)
_STRS: Tuple[_Put, _Get] = (_put_list(_put_str), _get_list(_Reader.str_))
_RECORDS: Tuple[_Put, _Get] = (_put_list(_put_record), _get_list(_get_record))
_INT_MAP: Tuple[_Put, _Get] = (_put_int_map, _get_int_map)


def _fields(*fields: Tuple[str, Tuple[_Put, _Get]]) -> Tuple[_Encode, _Decode]:
    """Schema of a dict payload with exactly these keys, in this order."""
    keys = frozenset(name for name, _codec in fields)

    def encode(out: bytearray, payload: Any, src: Optional[str]) -> None:
        if type(payload) is not dict or payload.keys() != keys:
            raise WireError(f"payload must be a dict with keys {sorted(keys)}")
        for name, (put, _get) in fields:
            put(out, payload[name])

    def decode(r: _Reader, src: Optional[str]) -> Dict[str, Any]:
        return {name: get(r) for name, (_put, get) in fields}

    return encode, decode


def _put_none(out: bytearray, payload: Any, src: Optional[str]) -> None:
    if payload is not None:
        raise WireError(f"payload must be None, got {type(payload).__name__}")


def _get_none(r: _Reader, src: Optional[str]) -> None:
    return None


#: Every schema kind in code order: codes count from 1 (0 means "kind
#: string follows").  Append only: a code never changes meaning within
#: one :data:`WIRE_VERSION`.
_KINDS: Tuple[Tuple[str, _Encode, _Decode], ...] = (
    ("heartbeat", _put_heartbeat, _get_heartbeat),
    ("update", _put_update, _get_update),
    ("sync_req", *_fields(("snapshot", _RECORDS))),
    ("sync_resp", *_fields(("snapshot", _RECORDS), ("seqs", _INT_MAP))),
    ("probe", *_fields(("origin", _STR))),
    ("probe-req", *_fields(("target", _STR), ("origin", _STR))),
    ("probe-ack", *_fields()),
    ("relay_sub", *_fields(("node", _STR), ("segment", _STR), ("channels", _STRS))),
    ("relay_unsub", *_fields(("node", _STR), ("channels", _STRS))),
    ("relay_ack", _put_none, _get_none),
)
#: kind -> (code, encode, decode)
_SCHEMAS: Dict[str, Tuple[int, _Encode, _Decode]] = {
    kind: (code, encode, decode) for code, (kind, encode, decode) in enumerate(_KINDS, 1)
}
_BY_CODE: Dict[int, Tuple[str, _Decode]] = {
    code: (kind, decode) for kind, (code, _encode, decode) in _SCHEMAS.items()
}


# ----------------------------------------------------------------------
# Packet framing
# ----------------------------------------------------------------------
def encode_packet(pkt: Packet, port: Optional[str] = None) -> bytes:
    """Frame ``pkt`` for the wire.

    ``port`` is the unicast port name (``None`` for multicast) — the
    real-transport analogue of the per-port ``bind`` dispatch the
    simulated transport does by object routing.  Raises
    :class:`WireError` when a field or the payload does not fit the
    packet's kind; nothing else escapes.
    """
    return _strict(_encode_packet, pkt, port)


def _encode_packet(pkt: Packet, port: Optional[str]) -> bytes:
    kind = pkt.kind
    schema = _SCHEMAS.get(kind) if type(kind) is str else None
    flags = (
        (_F_DST if pkt.dst is not None else 0)
        | (_F_CHANNEL if pkt.channel is not None else 0)
        | (_F_PORT if port is not None else 0)
    )
    out = bytearray(_HEADER.pack(MAGIC, WIRE_VERSION, schema[0] if schema else 0, flags))
    if schema is None:
        _put_str(out, kind)
    _put_str(out, pkt.src)
    for text in (pkt.dst, pkt.channel, port):
        if text is not None:
            _put_str(out, text)
    _put_int(out, pkt.ttl)
    _put_int(out, pkt.size)
    if schema is None:
        _put_value(out, pkt.payload)
    else:
        schema[1](out, pkt.payload, pkt.src)
    return bytes(out)


def decode_packet(data: bytes) -> Tuple[Packet, Optional[str]]:
    """Parse one framed datagram into ``(packet, port)``.

    Raises :class:`WireError` on bad magic, version mismatch, truncation,
    trailing garbage, a payload outside its kind's schema or one that
    cannot be rebuilt; nothing else escapes.
    """
    return _strict(_decode_packet, data)


def _decode_packet(data: bytes) -> Tuple[Packet, Optional[str]]:
    if len(data) < HEADER_SIZE:
        raise WireError("datagram shorter than frame header")
    magic, version, code, flags = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if flags & ~(_F_DST | _F_CHANNEL | _F_PORT):
        raise WireError(f"unknown frame flags {flags:#04x}")
    r = _Reader(data, HEADER_SIZE)
    decode: Optional[_Decode] = None
    if code:
        entry = _BY_CODE.get(code)
        if entry is None:
            raise WireError(f"unknown kind code {code}")
        kind, decode = entry
    else:
        kind = r.str_()
        if kind in _SCHEMAS:
            raise WireError(f"schema kind {kind!r} framed as a free-form kind")
    src = r.str_()
    dst = r.str_() if flags & _F_DST else None
    channel = r.str_() if flags & _F_CHANNEL else None
    port = r.str_() if flags & _F_PORT else None
    ttl = r.int_()
    size = r.int_()
    payload = r.value() if decode is None else decode(r, src)
    if r.pos != len(data):
        raise WireError(f"{len(data) - r.pos} trailing bytes after payload")
    pkt = Packet(
        src=src,
        kind=kind,
        payload=payload,
        size=size,
        dst=dst,
        channel=channel,
        ttl=ttl,
    )
    return pkt, port


# ----------------------------------------------------------------------
# Fragmentation / reassembly
# ----------------------------------------------------------------------
#: magic (2) + version (1) + frame_id (u32) + index (u16) + count (u16)
#: + origin length (u16); the origin string and the slice follow.
_FRAG_FIXED = struct.Struct(">2sBIHHH")


@dataclass(frozen=True, slots=True)
class Fragment:
    """One parsed fragment datagram."""

    origin: str
    frame_id: int
    index: int
    count: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class ReassembledFrame:
    """A completed reassembly: the frame plus its original datagrams.

    ``fragments`` are the fragment datagrams exactly as received, in
    index order — a relay forwards those bytes instead of re-encoding.
    """

    payload: bytes
    fragments: Tuple[bytes, ...]


def is_fragment(data: bytes) -> bool:
    """True when ``data`` starts with the fragment magic."""
    return data[:2] == FRAG_MAGIC


def fragment_frame(
    data: bytes, origin: str, frame_id: int, max_payload: int = DEFAULT_MAX_DATAGRAM
) -> List[bytes]:
    """Split one encoded frame into sequenced fragment datagrams.

    A frame that already fits in ``max_payload`` is returned as-is (no
    wrapping overhead on the common path).  Every produced fragment is
    at most ``max_payload`` bytes.  Raises :class:`WireError` when the
    frame cannot be fragmented (budget smaller than the header, or more
    than 65,535 slices needed).
    """
    if len(data) <= max_payload:
        return [data]
    origin_raw = origin.encode("utf-8")
    if len(origin_raw) > 0xFFFF:
        raise WireError("fragment origin too long")
    overhead = _FRAG_FIXED.size + len(origin_raw)
    chunk = max_payload - overhead
    if chunk <= 0:
        raise WireError(
            f"max_payload {max_payload} leaves no room for fragment payload"
        )
    count = (len(data) + chunk - 1) // chunk
    if count > 0xFFFF:
        raise WireError(f"frame needs {count} fragments (limit 65535)")
    frags: List[bytes] = []
    for index in range(count):
        part = data[index * chunk : (index + 1) * chunk]
        head = _FRAG_FIXED.pack(
            FRAG_MAGIC, WIRE_VERSION, frame_id & 0xFFFFFFFF, index, count, len(origin_raw)
        )
        frags.append(head + origin_raw + part)
    return frags


def parse_fragment(data: bytes) -> Optional[Fragment]:
    """Parse one fragment datagram.

    Returns ``None`` when ``data`` is not a fragment (wrong magic) so
    callers can fall through to whole-frame decoding; raises
    :class:`WireError` on a malformed fragment (version mismatch,
    truncation, inconsistent counters).
    """
    if data[:2] != FRAG_MAGIC:
        return None
    if len(data) < _FRAG_FIXED.size:
        raise WireError("fragment shorter than its header")
    _magic, version, frame_id, index, count, origin_len = _FRAG_FIXED.unpack_from(data)
    if version != WIRE_VERSION:
        raise WireError(f"fragment version {version}, expected {WIRE_VERSION}")
    if count == 0 or index >= count:
        raise WireError(f"fragment index {index} outside count {count}")
    origin_end = _FRAG_FIXED.size + origin_len
    if len(data) < origin_end:
        raise WireError("fragment truncated inside origin")
    try:
        origin = data[_FRAG_FIXED.size : origin_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError("invalid utf-8 in fragment origin") from exc
    return Fragment(
        origin=origin,
        frame_id=int(frame_id),
        index=int(index),
        count=int(count),
        payload=data[origin_end:],
    )


class _Buffer:
    __slots__ = ("count", "parts", "raws", "size", "last_update")

    def __init__(self, count: int, now: float) -> None:
        self.count = count
        self.parts: Dict[int, bytes] = {}
        self.raws: Dict[int, bytes] = {}
        self.size = 0
        self.last_update = now


class Reassembler:
    """Per-``(origin, frame_id)`` fragment buffers with a bounded budget.

    * a buffer not touched within ``timeout`` seconds is dropped whole
      (missing-fragment timeout; UDP loses slices, never retransmits);
    * at most ``max_buffers`` concurrent frames and ``max_bytes`` total
      buffered bytes — beyond either, the *stalest* buffer is evicted,
      so one misbehaving sender cannot pin unbounded memory;
    * duplicate fragments are counted and ignored; a fragment whose
      ``count`` disagrees with its buffer poisons the frame and raises.

    ``on_drop`` (if given) is called with ``"timeout"`` or ``"evicted"``
    once per dropped buffer — the hook the runtime uses to count drops
    in the obs registry.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        timeout: float = 5.0,
        max_buffers: int = 64,
        max_bytes: int = 8 * 1024 * 1024,
        on_drop: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._clock = clock
        self.timeout = timeout
        self.max_buffers = max_buffers
        self.max_bytes = max_bytes
        self._on_drop = on_drop
        self._buffers: Dict[Tuple[str, int], _Buffer] = {}
        self._bytes = 0
        #: Buffers dropped because a fragment never arrived in time.
        self.timeouts = 0
        #: Buffers dropped to stay inside the budget.
        self.evictions = 0
        #: Fragments ignored because their index was already buffered.
        self.duplicates = 0
        #: Frames fully reassembled.
        self.completed = 0

    @property
    def pending(self) -> int:
        """Open (incomplete) reassembly buffers."""
        return len(self._buffers)

    def _drop(self, key: Tuple[str, int], reason: str) -> None:
        buf = self._buffers.pop(key)
        self._bytes -= buf.size
        if reason == "timeout":
            self.timeouts += 1
        else:
            self.evictions += 1
        if self._on_drop is not None:
            self._on_drop(reason)

    def expire(self, now: Optional[float] = None) -> int:
        """Drop buffers whose last fragment is older than ``timeout``."""
        if now is None:
            now = self._clock()
        stale = [
            key
            for key, buf in self._buffers.items()
            if now - buf.last_update > self.timeout
        ]
        for key in stale:
            self._drop(key, "timeout")
        return len(stale)

    def _evict_stalest(self) -> None:
        key = min(self._buffers, key=lambda k: self._buffers[k].last_update)
        self._drop(key, "evicted")

    def add(self, data: bytes) -> Optional[ReassembledFrame]:
        """Feed one fragment datagram; returns the frame when complete.

        Raises :class:`WireError` when ``data`` is not a well-formed
        fragment.  Returns ``None`` while the frame is still missing
        slices (or the fragment was a duplicate).
        """
        frag = parse_fragment(data)
        if frag is None:
            raise WireError("not a fragment datagram")
        now = self._clock()
        self.expire(now)
        key = (frag.origin, frag.frame_id)
        buf = self._buffers.get(key)
        if buf is None:
            while len(self._buffers) >= self.max_buffers:
                self._evict_stalest()
            buf = _Buffer(frag.count, now)
            self._buffers[key] = buf
        elif buf.count != frag.count:
            self._bytes -= buf.size
            del self._buffers[key]
            raise WireError(
                f"fragment count changed mid-frame ({buf.count} -> {frag.count})"
            )
        if frag.index in buf.parts:
            self.duplicates += 1
            return None
        buf.parts[frag.index] = frag.payload
        buf.raws[frag.index] = data
        buf.size += len(data)
        buf.last_update = now
        self._bytes += len(data)
        if len(buf.parts) == buf.count:
            self._bytes -= buf.size
            del self._buffers[key]
            self.completed += 1
            payload = b"".join(buf.parts[i] for i in range(buf.count))
            return ReassembledFrame(
                payload=payload, fragments=tuple(buf.raws[i] for i in range(buf.count))
            )
        while self._bytes > self.max_bytes and self._buffers:
            self._evict_stalest()
        return None

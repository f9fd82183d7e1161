"""Versioned wire codec for membership datagrams.

The simulator hands payload *objects* between nodes by reference; a real
transport hands **bytes**.  This module is the boundary: a small, tagged,
length-prefixed binary encoding for every payload the protocols put on
the wire — heartbeats, update messages (with piggyback), sync polls and
snapshots, plus the relay control messages of
:mod:`repro.runtime.relay`.

Frame layout::

    +-------+---------+-------------------+----------------------+
    | magic | version | body length (u32) | body (tagged values) |
    |  2 B  |   1 B   |        4 B        |                      |
    +-------+---------+-------------------+----------------------+

The body is one tagged value.  Every value is ``tag byte`` + payload;
containers carry a u32 element count.  Domain types (``NodeRecord``,
``Heartbeat``, ``UpdateMessage``, ``UpdateOp``) get their own tags so a
decoded payload is *the same Python type* the protocol code produced —
the roles never learn whether a packet travelled by reference or by
bytes.

Design constraints:

* **Versioned** — the version byte is checked before anything else, so a
  rolling upgrade that changes the encoding fails loudly instead of
  corrupting directories.
* **Canonical** — ``frozenset`` elements are sorted before encoding, so
  identical payloads always produce identical bytes (content-keyed
  deduplication must survive serialization).
* **Strict** — unknown tags, unknown types, truncated frames and
  trailing garbage all raise :class:`WireError`; a malformed datagram is
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
WIRE_VERSION = 1

#: The hard OS limit on one UDP payload (IPv4: 65,535 - 20 IP - 8 UDP).
MAX_UDP_PAYLOAD = 65507

#: Default safe per-datagram budget; frames above it are fragmented.
#: Deliberately below :data:`MAX_UDP_PAYLOAD` so the fragment header
#: and loopback-stack slack never push a slice over the OS limit.
DEFAULT_MAX_DATAGRAM = 61440

_HEADER = struct.Struct(">2sBI")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class WireError(ValueError):
    """A datagram could not be encoded or decoded."""


_T = TypeVar("_T")

#: What rebuilding objects from hostile bytes can raise besides
#: :class:`WireError`: an unhashable decoded dict key or set element
#: (``TypeError``), a ``Packet`` or payload invariant rejecting a decoded
#: field (``ValueError``), and nesting deeper than the interpreter stack
#: (``RecursionError``).
_DECODE_FAULTS = (TypeError, ValueError, RecursionError)


def _strict(decode: Callable[[bytes], _T], data: bytes) -> _T:
    """Run one decoder so that only :class:`WireError` can escape it."""
    try:
        return decode(data)
    except WireError:
        raise
    except _DECODE_FAULTS as exc:
        raise WireError(f"malformed datagram: {type(exc).__name__}: {exc}") from exc


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
def _enc_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _enc(out: bytearray, value: Any) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        if not (_I64_MIN <= value <= _I64_MAX):
            raise WireError(f"integer out of i64 range: {value}")
        out += b"i"
        out += _I64.pack(value)
    elif type(value) is float:
        out += b"f"
        out += _F64.pack(value)
    elif type(value) is str:
        out += b"s"
        _enc_str(out, value)
    elif type(value) is bytes:
        out += b"b"
        out += _U32.pack(len(value))
        out += value
    elif type(value) is tuple:
        out += b"t"
        out += _U32.pack(len(value))
        for item in value:
            _enc(out, item)
    elif type(value) is list:
        out += b"l"
        out += _U32.pack(len(value))
        for item in value:
            _enc(out, item)
    elif type(value) is dict:
        out += b"d"
        out += _U32.pack(len(value))
        for key, val in value.items():
            _enc(out, key)
            _enc(out, val)
    elif type(value) is frozenset:
        out += b"S"
        out += _U32.pack(len(value))
        # Canonical bytes: sort elements by their own encoding.
        encoded: List[bytes] = []
        for item in value:
            buf = bytearray()
            _enc(buf, item)
            encoded.append(bytes(buf))
        for raw in sorted(encoded):
            out += raw
    elif type(value) is NodeRecord:
        out += b"R"
        _enc_str(out, value.node_id)
        out += _I64.pack(value.incarnation)
        _enc(out, value.services)
        _enc(out, value.attrs)
    elif type(value) is Heartbeat:
        out += b"H"
        _enc(out, value.record)
        out += _I64.pack(value.level)
        out += b"T" if value.is_leader else b"F"
        out += b"T" if value.suppressed else b"F"
        _enc(out, value.backup)
        out += _I64.pack(value.update_seq)
    elif type(value) is UpdateOp:
        out += b"O"
        _enc_str(out, value.op)
        _enc_str(out, value.node_id)
        out += _I64.pack(value.incarnation)
        _enc(out, value.record)
    elif type(value) is UpdateMessage:
        out += b"U"
        out += _I64.pack(value.uid)
        _enc_str(out, value.origin)
        _enc_str(out, value.sender)
        out += _I64.pack(value.level)
        out += _I64.pack(value.seq)
        _enc(out, value.ops)
        _enc(out, value.piggyback)
    else:
        raise WireError(f"unencodable payload type: {type(value).__name__}")


def encode_value(value: Any) -> bytes:
    """Encode one value (no frame header).  Raises :class:`WireError`."""
    out = bytearray()
    _enc(out, value)
    return bytes(out)


# ----------------------------------------------------------------------
# Value decoding
# ----------------------------------------------------------------------
class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated datagram")
        raw = self.data[self.pos : end]
        self.pos = end
        return raw

    def u32(self) -> int:
        return int(_U32.unpack(self.take(4))[0])

    def i64(self) -> int:
        return int(_I64.unpack(self.take(8))[0])

    def str_(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("invalid utf-8 in string") from exc

    def bool_(self) -> bool:
        tag = self.take(1)
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        raise WireError(f"expected bool tag, got {tag!r}")


def _dec(cur: _Cursor) -> Any:
    tag = cur.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return cur.i64()
    if tag == b"f":
        return float(_F64.unpack(cur.take(8))[0])
    if tag == b"s":
        return cur.str_()
    if tag == b"b":
        return cur.take(cur.u32())
    if tag == b"t":
        return tuple(_dec(cur) for _ in range(cur.u32()))
    if tag == b"l":
        return [_dec(cur) for _ in range(cur.u32())]
    if tag == b"d":
        count = cur.u32()
        out: Dict[Any, Any] = {}
        for _ in range(count):
            key = _dec(cur)
            out[key] = _dec(cur)
        return out
    if tag == b"S":
        return frozenset(_dec(cur) for _ in range(cur.u32()))
    if tag == b"R":
        node_id = cur.str_()
        incarnation = cur.i64()
        services = _dec(cur)
        attrs = _dec(cur)
        if not isinstance(services, dict) or not isinstance(attrs, dict):
            raise WireError("malformed NodeRecord")
        return NodeRecord(
            node_id=node_id, incarnation=incarnation, services=services, attrs=attrs
        )
    if tag == b"H":
        record = _dec(cur)
        if not isinstance(record, NodeRecord):
            raise WireError("heartbeat without a NodeRecord")
        level = cur.i64()
        is_leader = cur.bool_()
        suppressed = cur.bool_()
        backup = _dec(cur)
        update_seq = cur.i64()
        if backup is not None and not isinstance(backup, str):
            raise WireError("malformed heartbeat backup")
        return Heartbeat(
            record=record,
            level=level,
            is_leader=is_leader,
            suppressed=suppressed,
            backup=backup,
            update_seq=update_seq,
        )
    if tag == b"O":
        op = cur.str_()
        node_id = cur.str_()
        incarnation = cur.i64()
        record = _dec(cur)
        if record is not None and not isinstance(record, NodeRecord):
            raise WireError("malformed UpdateOp record")
        return UpdateOp(op=op, node_id=node_id, incarnation=incarnation, record=record)
    if tag == b"U":
        uid = cur.i64()
        origin = cur.str_()
        sender = cur.str_()
        level = cur.i64()
        seq = cur.i64()
        ops = _dec(cur)
        piggyback = _dec(cur)
        if not isinstance(ops, tuple) or not isinstance(piggyback, tuple):
            raise WireError("malformed UpdateMessage")
        return UpdateMessage(
            uid=uid,
            origin=origin,
            sender=sender,
            level=level,
            seq=seq,
            ops=ops,
            piggyback=piggyback,
        )
    raise WireError(f"unknown wire tag {tag!r}")


def decode_value(data: bytes) -> Any:
    """Decode one value (no frame header).  Raises :class:`WireError`."""
    return _strict(_decode_value, data)


def _decode_value(data: bytes) -> Any:
    cur = _Cursor(data)
    value = _dec(cur)
    if cur.pos != len(data):
        raise WireError(f"{len(data) - cur.pos} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Packet framing
# ----------------------------------------------------------------------
def encode_packet(pkt: Packet, port: Optional[str] = None) -> bytes:
    """Frame ``pkt`` for the wire.

    ``port`` is the unicast port name (``None`` for multicast) — the
    real-transport analogue of the per-port ``bind`` dispatch the
    simulated transport does by object routing.
    """
    body = bytearray()
    _enc_str(body, pkt.src)
    _enc_str(body, pkt.kind)
    _enc(body, pkt.dst)
    _enc(body, pkt.channel)
    body += _I64.pack(pkt.ttl)
    body += _I64.pack(pkt.size)
    _enc(body, port)
    _enc(body, pkt.payload)
    return _HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + bytes(body)


def decode_packet(data: bytes) -> Tuple[Packet, Optional[str]]:
    """Parse one framed datagram into ``(packet, port)``.

    Raises :class:`WireError` on bad magic, version mismatch, truncation,
    trailing garbage or a payload that cannot be rebuilt; nothing else
    escapes.
    """
    return _strict(_decode_packet, data)


def _decode_packet(data: bytes) -> Tuple[Packet, Optional[str]]:
    if len(data) < _HEADER.size:
        raise WireError("datagram shorter than frame header")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if len(data) != _HEADER.size + length:
        raise WireError(
            f"frame length {length} does not match datagram ({len(data)} bytes)"
        )
    cur = _Cursor(data, _HEADER.size)
    src = cur.str_()
    kind = cur.str_()
    dst = _dec(cur)
    channel = _dec(cur)
    ttl = cur.i64()
    size = cur.i64()
    port = _dec(cur)
    payload = _dec(cur)
    if cur.pos != len(data):
        raise WireError(f"{len(data) - cur.pos} trailing bytes after payload")
    if dst is not None and not isinstance(dst, str):
        raise WireError("malformed dst")
    if channel is not None and not isinstance(channel, str):
        raise WireError("malformed channel")
    if port is not None and not isinstance(port, str):
        raise WireError("malformed port")
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

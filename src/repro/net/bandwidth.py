"""Per-host bandwidth and packet-rate accounting.

The paper measures bandwidth "on each node by counting the incoming
heartbeat packets", then sums over nodes for the aggregated curves of
Fig. 11, and counts received multicast packets per second for Fig. 2.  The
meter mirrors that: every delivery (and send) is recorded with its byte
size, and queries aggregate by host, direction, packet kind, or time bucket.

Counter layout: ``record()`` sits on the per-packet hot path of both
fabrics, so counters are nested small objects (host -> direction ->
:class:`_Counters`) instead of flat tuple-keyed dicts — one recording no
longer allocates ``(host, direction)`` / ``(host, direction, kind)`` key
tuples, and the batched multicast delivery path accounts a whole delay
bucket through :meth:`BandwidthMeter.record_many` in one call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["BandwidthMeter"]


class _Counters:
    """Byte/packet totals for one (host, direction) cell."""

    __slots__ = ("bytes", "packets", "kind_bytes")

    def __init__(self) -> None:
        self.bytes = 0
        self.packets = 0
        self.kind_bytes: Dict[str, int] = {}


class _Pending:
    """Deferred accounting for one cached delivery bucket.

    A multicast plan bucket delivers the same receiver set over and over;
    instead of walking every receiver's counter cell per delivery, the
    deliveries accumulate here (packets/bytes per kind plus the time
    span) and are folded into the cells the next time anything *reads*
    the meter.  Totals are exact at every observable read — only the
    internal write schedule changes.
    """

    __slots__ = ("cells", "by_kind", "t0", "t1")

    def __init__(self, cells: List[_Counters]) -> None:
        self.cells = cells
        #: kind -> [packets, total_bytes] accumulated since the last flush
        self.by_kind: Dict[str, List[int]] = {}
        self.t0 = 0.0
        self.t1 = 0.0


class BandwidthMeter:
    """Accumulates (time, host, direction, kind, bytes) samples.

    ``direction`` is ``"rx"`` or ``"tx"``.  For long sweeps the meter can be
    switched to *totals-only* mode (``keep_series=False``) where it keeps
    only aggregate counters, which is what the Fig. 11 bandwidth bench uses.
    """

    def __init__(self, keep_series: bool = False) -> None:
        self.keep_series = keep_series
        # host -> direction -> counters
        self._hosts: Dict[str, Dict[str, _Counters]] = {}
        self._series: List[Tuple[float, str, str, str, int]] = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        #: Bumped on :meth:`reset`; invalidates cell lists handed out by
        #: :meth:`batch_cells` (their counters are orphaned by a reset).
        self.epoch = 0
        #: Open deferred-accounting buckets (see :meth:`open_pending`).
        self._pending: List[_Pending] = []
        self._dirty = False

    def _cell(self, host: str, direction: str) -> _Counters:
        by_dir = self._hosts.get(host)
        if by_dir is None:
            by_dir = self._hosts[host] = {}
        cell = by_dir.get(direction)
        if cell is None:
            cell = by_dir[direction] = _Counters()
        return cell

    def _touch(self, time: float) -> None:
        if self._t0 is None or time < self._t0:
            self._t0 = time
        if self._t1 is None or time > self._t1:
            self._t1 = time

    def record(self, time: float, host: str, direction: str, kind: str, size: int) -> None:
        """Log one packet send/receive."""
        cell = self._cell(host, direction)
        cell.bytes += size
        cell.packets += 1
        kb = cell.kind_bytes
        kb[kind] = kb.get(kind, 0) + size
        self._touch(time)
        if self.keep_series:
            self._series.append((time, host, direction, kind, size))

    def record_many(
        self, time: float, hosts: Iterable[str], direction: str, kind: str, size: int
    ) -> None:
        """Log one same-sized packet for every host in ``hosts`` at ``time``.

        Batch twin of :meth:`record` for multicast fan-out, where a
        whole delay bucket of receivers is accounted in one call: the
        min/max-time bookkeeping and series branch run once per batch, and
        the cell lookup is inlined (this loop runs once per receiver per
        delivery, the hottest accounting path in the simulator).
        """
        hosts_map = self._hosts
        for host in hosts:
            by_dir = hosts_map.get(host)
            if by_dir is None:
                by_dir = hosts_map[host] = {}
            cell = by_dir.get(direction)
            if cell is None:
                cell = by_dir[direction] = _Counters()
            cell.bytes += size
            cell.packets += 1
            kb = cell.kind_bytes
            kb[kind] = kb.get(kind, 0) + size
        self._touch(time)
        if self.keep_series:
            for host in hosts:
                self._series.append((time, host, direction, kind, size))

    def batch_cells(self, hosts: Iterable[str], direction: str) -> List[_Counters]:
        """Resolve (and create as needed) the counter cells for ``hosts``.

        Lets a caller that delivers the same receiver set over and over (a
        cached multicast plan bucket) resolve the per-host dict lookups
        once and then account deliveries via :meth:`open_pending` /
        :meth:`record_pending`.  The returned list is only valid while
        :attr:`epoch` is unchanged.
        """
        return [self._cell(host, direction) for host in hosts]

    def open_pending(self, cells: List[_Counters]) -> _Pending:
        """Open a deferred-accounting bucket over prepared ``cells``.

        The caller caches the returned handle next to its cell list (same
        epoch validity) and accounts each delivery via
        :meth:`record_pending` — O(1) per delivery instead of a walk over
        every cell.  The accumulated deltas are folded into the cells
        lazily, before any read of the meter.
        """
        pend = _Pending(cells)
        self._pending.append(pend)
        return pend

    def record_pending(self, pend: _Pending, time: float, kind: str, size: int) -> None:
        """Account one same-sized packet to every cell of ``pend`` — lazily."""
        self._dirty = True
        by_kind = pend.by_kind
        entry = by_kind.get(kind)
        if entry is None:
            if not by_kind:
                pend.t0 = time
            by_kind[kind] = [1, size]
        else:
            entry[0] += 1
            entry[1] += size
        pend.t1 = time

    def _flush(self) -> None:
        """Fold every open pending bucket's deltas into its cells."""
        for pend in self._pending:
            by_kind = pend.by_kind
            if not by_kind:
                continue
            cells = pend.cells
            for kind, (count, total) in by_kind.items():
                for cell in cells:
                    cell.packets += count
                    cell.bytes += total
                    kb = cell.kind_bytes
                    kb[kind] = kb.get(kind, 0) + total
            self._touch(pend.t0)
            self._touch(pend.t1)
            by_kind.clear()
        self._dirty = False

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def bytes(self, host: Optional[str] = None, direction: str = "rx") -> int:
        """Total bytes for a host (or all hosts) in one direction."""
        if self._dirty:
            self._flush()
        if host is not None:
            cell = self._hosts.get(host, {}).get(direction)
            return cell.bytes if cell is not None else 0
        return sum(
            cell.bytes
            for by_dir in self._hosts.values()
            for d, cell in by_dir.items()
            if d == direction
        )

    def packets(self, host: Optional[str] = None, direction: str = "rx") -> int:
        if self._dirty:
            self._flush()
        if host is not None:
            cell = self._hosts.get(host, {}).get(direction)
            return cell.packets if cell is not None else 0
        return sum(
            cell.packets
            for by_dir in self._hosts.values()
            for d, cell in by_dir.items()
            if d == direction
        )

    def bytes_by_kind(self, kind: str, direction: str = "rx") -> int:
        if self._dirty:
            self._flush()
        return sum(
            cell.kind_bytes.get(kind, 0)
            for by_dir in self._hosts.values()
            for d, cell in by_dir.items()
            if d == direction
        )

    @property
    def duration(self) -> float:
        """Span between first and last recorded sample (0 if <2 samples)."""
        if self._dirty:
            self._flush()
        if self._t0 is None or self._t1 is None:
            return 0.0
        return self._t1 - self._t0

    def aggregate_rate(self, direction: str = "rx", duration: Optional[float] = None) -> float:
        """Summed bytes/second across all hosts.

        ``duration`` defaults to the observed sample span; pass the actual
        measurement window for exact normalisation.
        """
        span = duration if duration is not None else self.duration
        if span <= 0:
            return 0.0
        return self.bytes(direction=direction) / span

    def packet_rate(
        self, host: Optional[str] = None, direction: str = "rx", duration: Optional[float] = None
    ) -> float:
        """Packets/second for one host or all hosts."""
        span = duration if duration is not None else self.duration
        if span <= 0:
            return 0.0
        return self.packets(host, direction) / span

    def per_host_rates(self, direction: str = "rx", duration: Optional[float] = None) -> Dict[str, float]:
        """bytes/second per host."""
        if self._dirty:
            self._flush()
        span = duration if duration is not None else self.duration
        if span <= 0:
            return {}
        out: Dict[str, float] = {}
        for host, by_dir in self._hosts.items():
            cell = by_dir.get(direction)
            if cell is not None:
                out[host] = cell.bytes / span
        return out

    # ------------------------------------------------------------------
    # Time series (only when keep_series=True)
    # ------------------------------------------------------------------
    def bucketed(
        self, bucket: float = 1.0, direction: str = "rx"
    ) -> List[Tuple[float, int]]:
        """(bucket_start, total_bytes) series across all hosts."""
        if not self.keep_series:
            raise RuntimeError("meter was created with keep_series=False")
        acc: Dict[int, int] = defaultdict(int)
        for time, _host, d, _kind, size in self._series:
            if d == direction:
                acc[int(time // bucket)] += size
        return [(idx * bucket, total) for idx, total in sorted(acc.items())]

    def reset(self) -> None:
        if self._dirty:
            self._flush()
        self._hosts.clear()
        self._series.clear()
        self._pending.clear()
        self._t0 = self._t1 = None
        self.epoch += 1

"""In-memory span tracing around the program's layer entry points.

The traced run wraps the public entry points of every layer (the
``ENTRY_POINTS`` table) from outside the program: it swaps class and
module attributes for timing wrappers before a deployment is built and
restores them afterwards.  Nothing under ``src/`` changes.

Each call records a span ``(name, start, end, parent)``.  A span's *self
time* is its duration minus the time its direct child spans cover; calls
in one thread nest strictly, so the children are disjoint and the
covered time is their summed durations.  Self time accumulates per span
name and per phase as spans close; the first ``span_cap`` spans are also
kept verbatim and written out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for a module function, attributes)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("net", "repro.net.multicast", "MulticastFabric", ("send",)),
    ("net", "repro.net.transport", "UnicastTransport", ("send",)),
    ("runtime", "repro.runtime.sim", "SimRuntime",
     ("publish", "send", "call_once", "call_every")),
    ("runtime", "repro.runtime.anet", "AsyncRuntime",
     ("publish", "send", "call_once", "call_every")),
    ("wire", "repro.runtime.anet", None, ("encode_packet", "decode_packet")),
    ("wire", "repro.runtime.relay", None, ("encode_packet", "decode_packet")),
    ("wire", "repro.runtime.wire", "Reassembler", ("add",)),
    ("relay", "repro.runtime.relay", "ChannelRelay", ("datagram_received",)),
    ("roles.receiver", "repro.core.roles.receiver", "Receiver", ("on_unicast",)),
    ("roles.announcer", "repro.core.roles.announcer", "Announcer", ("heartbeat_tick",)),
    ("roles.tracker", "repro.core.roles.tracker", "Tracker",
     ("check_tick", "handle_peer_death")),
    ("roles.informer", "repro.core.roles.informer", "Informer",
     ("apply_ops", "on_update", "merge_snapshot", "maybe_sync")),
    ("roles.contender", "repro.core.roles.contender", "Contender",
     ("evaluate", "become_leader", "step_down")),
    ("updates", "repro.core.updates", "UpdateManager", ("receive", "build")),
    ("directory", "repro.cluster.directory", "Directory",
     ("insert_new", "upsert", "refresh", "remove", "purge_stale",
      "purge_stale_relayed", "purge_relayed_by")),
    ("detect", "repro.detect.base", "FailureDetector", ("purge_directory",)),
    ("detect", "repro.detect.counter", "CounterDetector",
     ("silent_peers", "silent_ids", "purge_directory")),
    ("detect", "repro.detect.swim", "SwimDetector", ("silent_peers", "silent_ids")),
    ("detect", "repro.detect.phi", "PhiAccrualDetector", ("silent_peers", "silent_ids")),
)

#: The receiver's channel handlers are closures built per joined
#: channel; the factory is wrapped so every closure it returns is timed.
HANDLER_FACTORY = ("roles.receiver", "repro.core.roles.receiver", "Receiver", "channel_handler")

#: Span names whose individual durations are kept (for percentiles).
TIMED_CALLS = ("wire.encode_packet", "wire.decode_packet")

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def _count_results(name: str, result: Any) -> Optional[Tuple[str, int]]:
    """Work a call did, read off its return value: ``(counter, amount)``."""
    if name == "wire.encode_packet":
        return ("wire.bytes_out", len(result))
    if name == "directory.remove":
        return ("directory.removed", 1 if result else 0)
    if name.startswith("directory.purge"):
        return ("directory.removed", len(result))
    if name.startswith("detect."):
        return ("detect.declared", len(result))
    if name == "updates.receive":
        return ("updates.duplicates", 0 if result.apply else 1)
    return None


class Tracer:
    """Span recorder with per-phase, per-name call counts and self time.

    ``phase`` selects the bucket closing spans are charged to; while it
    is ``None`` the wrappers call straight through and record nothing.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = 200_000) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.phase: Optional[str] = None
        #: open spans: [name, start, child_time, span index or -1]
        self._stack: List[list] = []
        #: kept spans: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.dropped = 0
        #: phase -> name -> [calls, self seconds]
        self.stats: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0]))
        #: phase -> counter -> amount (work read off return values)
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        #: phase -> name -> individual call durations (``TIMED_CALLS``)
        self.durations: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))

    def enter(self, name: str) -> None:
        start = self.clock()
        idx = -1
        if len(self.spans) < self.span_cap:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, start, start, parent])
        else:
            self.dropped += 1
        self._stack.append([name, start, 0.0, idx])

    def exit(self, result: Any = None) -> None:
        end = self.clock()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][2] = end
        if self._stack:
            self._stack[-1][2] += dur
        phase = self.phase
        if phase is None:
            return
        entry = self.stats[phase][name]
        entry[0] += 1
        entry[1] += dur - child
        if name in TIMED_CALLS:
            self.durations[phase][name].append(dur)
        counted = _count_results(name, result)
        if counted is not None:
            self.counts[phase][counted[0]] += counted[1]

    # -- per-layer aggregates ---------------------------------------------
    def calls(self, phase: str, name: str) -> int:
        entry = self.stats.get(phase, {}).get(name)
        return int(entry[0]) if entry is not None else 0

    def layer_self_s(self, phase: str, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, (_c, s) in self.stats.get(phase, {}).items()
                   if name.startswith(prefix))

    def layer_calls(self, phase: str, layer: str) -> int:
        prefix = layer + "."
        return int(sum(c for name, (c, _s) in self.stats.get(phase, {}).items()
                       if name.startswith(prefix)))

    def write(self, path) -> None:
        """Write the kept spans as gzipped TSV: name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    # -- wrapping -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.phase is None:
                return fn(*args, **kwargs)
            tracer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(result)

        return traced


class Patches:
    """Attribute swaps applied in order and undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, new: Any) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _owner(module: str, cls: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every entry point of ``ENTRY_POINTS`` (and the handler factory)."""
    for layer, module, cls, attrs in ENTRY_POINTS:
        owner = _owner(module, cls)
        for attr in attrs:
            fn = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
            patches.swap(owner, attr, tracer.wrap(f"{layer}.{attr}", fn))
    layer, module, cls, attr = HANDLER_FACTORY
    owner = _owner(module, cls)
    factory = owner.__dict__[attr]

    @functools.wraps(factory)
    def traced_factory(self: Any, level: int) -> Any:
        return tracer.wrap(f"{layer}.channel_handler", factory(self, level))

    patches.swap(owner, attr, traced_factory)

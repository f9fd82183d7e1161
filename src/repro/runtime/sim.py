"""The simulator adapter: :class:`NodeRuntime` over ``repro.sim``/``repro.net``.

This is the *only* module where protocol code meets the discrete-event
kernel and the network fabrics.  Everything it does is a thin, 1:1
mapping onto the :class:`~repro.net.network.Network` facade, with two
pieces of genuine bookkeeping of its own:

* the **timer registry** — every one-shot and recurring timer created
  through the runtime is remembered and cancelled wholesale by
  :meth:`SimRuntime.deactivate`, so ``stop()`` on any protocol node
  leaves no live timers behind (previously each node class hand-rolled
  this, and the baselines got it wrong);
* the **epoch guard** — one-shots capture the epoch at scheduling time
  and are dropped at fire time if the runtime was deactivated or the
  epoch moved (daemon restart, or an incarnation bump from a death-rumor
  refutation), so a one-shot never fires into a later life of its node.

Determinism: ``call_once`` schedules exactly one kernel event (the
guard closure), ``call_every`` delegates to the kernel's allocation-free
:class:`~repro.sim.engine.RecurringTimer`, and nothing here draws
randomness — so moving a protocol stack onto the runtime cannot move a
single trace event.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro.runtime.ports import NodeRuntime, PacketHandler, TimerHandle

if TYPE_CHECKING:
    from repro.net.network import Network
    from repro.obs.wiring import Instruments
    from repro.sim.engine import ScheduledEvent

__all__ = ["SimRuntime"]


class SimRuntime(NodeRuntime):
    """One node's runtime, adapted onto a simulated :class:`Network`."""

    def __init__(self, network: "Network", node_id: str) -> None:
        self.network = network
        # The kernel clock is read on every heartbeat receive; cache the
        # simulator (fixed for the network's lifetime) so ``now`` is one
        # attribute load instead of a three-property chain.  Same for the
        # trace, probed once per (n^2-scale) view event.
        self._sim = network.sim
        self._trace = network.trace
        self.node_id = node_id
        self._active = False
        self._epoch = 0
        #: Live one-shot guard events.  Exposed (read/clear) for tests that
        #: sabotage the cancellation sweep to exercise the epoch guard.
        self.oneshots: Set["ScheduledEvent"] = set()
        self._recurring: List[TimerHandle] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._sim._now

    # ------------------------------------------------------------------
    # Lifecycle / epochs
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        self._active = True
        self._epoch += 1

    def deactivate(self) -> None:
        self._active = False
        for event in list(self.oneshots):
            event.cancel()
        self.oneshots.clear()
        for timer in self._recurring:
            timer.cancel()
        self._recurring.clear()

    def bump_epoch(self) -> None:
        self._epoch += 1

    @property
    def live_timers(self) -> int:
        return sum(1 for e in self.oneshots if not e.cancelled) + sum(
            1 for t in self._recurring if not t.cancelled
        )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def call_once(
        self, delay: float, fn: Callable[..., object], *args: object
    ) -> TimerHandle:
        epoch = self._epoch
        event: Optional["ScheduledEvent"] = None

        def fire() -> None:
            self.oneshots.discard(event)  # type: ignore[arg-type]
            if self._active and self._epoch == epoch:
                fn(*args)

        event = self._sim.call_after(delay, fire)
        self.oneshots.add(event)
        return event

    def call_every(
        self,
        period: float,
        fn: Callable[..., object],
        *args: object,
        first_delay: Optional[float] = None,
    ) -> TimerHandle:
        timer = self._sim.call_every(period, fn, *args, first_delay=first_delay)
        self._recurring.append(timer)
        return timer

    # ------------------------------------------------------------------
    # Multicast channels
    # ------------------------------------------------------------------
    def subscribe(self, channel: str, handler: PacketHandler) -> None:
        self.network.subscribe(channel, self.node_id, handler)

    def unsubscribe(self, channel: str) -> None:
        self.network.unsubscribe(channel, self.node_id)

    def publish(
        self, channel: str, ttl: int, kind: str, payload: object, size: int
    ) -> bool:
        # The fabric reports deliveries scheduled — simulator-only
        # knowledge that the port contract deliberately hides ("accepted
        # for send"); callers wanting delivery data read the trace/obs.
        self.network.multicast(
            self.node_id, channel, ttl=ttl, kind=kind, payload=payload, size=size
        )
        return True

    # ------------------------------------------------------------------
    # Unicast datagrams
    # ------------------------------------------------------------------
    def bind(self, port: str, handler: PacketHandler) -> None:
        self.network.bind(self.node_id, port, handler)

    def unbind(self, port: str) -> None:
        self.network.transport.unbind(self.node_id, port)

    def send(
        self, dst: str, kind: str, payload: object, size: int, port: str = "membership"
    ) -> bool:
        # Same contract note as ``publish``: the transport's return value
        # (delivery scheduled or dropped) is simulator-only knowledge and
        # is deliberately not surfaced through the port.
        self.network.unicast(
            self.node_id, dst, kind=kind, payload=payload, size=size, port=port
        )
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self) -> "Instruments":
        return self.network.obs

    def emit(self, kind: str, **data: object) -> None:
        trace = self._trace
        if trace.wants(kind):
            trace.emit(self._sim._now, kind, node=self.node_id, **data)

    def emit_view_event(self, kind: str, target: str) -> None:
        trace = self._trace
        if trace.wants(kind):
            trace.emit(self._sim._now, kind, node=self.node_id, target=target)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng_stream(self, name: str) -> random.Random:
        return self.network.rng.stream(name)

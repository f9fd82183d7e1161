"""The hierarchical membership node (facade).

One :class:`HierarchicalNode` is the simulated equivalent of the paper's
C++ daemon (Fig. 10).  Its five thread roles are real modules in
:mod:`repro.core.roles`, sharing one
:class:`~repro.core.roles.context.NodeContext` and reaching the
environment only through the node's
:class:`~repro.runtime.ports.NodeRuntime`:

=================  ===========================================================
Announcer          :class:`~repro.core.roles.announcer.Announcer` — periodic
                   heartbeats on every channel the node participates in
Receiver           :class:`~repro.core.roles.receiver.Receiver` — per-channel
                   handlers and the ``hmember`` unicast port (heartbeats,
                   updates, sync polls)
Status Tracker     :class:`~repro.core.roles.tracker.Tracker` — purge silent
                   peers, expire relayed entries, drive elections
Contender          :class:`~repro.core.roles.contender.Contender` — apply
                   :mod:`repro.core.election` decisions, backups, step-downs
Informer           :class:`~repro.core.roles.informer.Informer` — update
                   origination/relay and the sync (bootstrap) server
=================  ===========================================================

This class wires the roles together, owns the two recurring daemon
timers, and preserves the public protocol API (lifecycle, introspection,
MService surface).  See ``docs/ARCHITECTURE.md`` for the full map.

Participation invariant: a node always subscribes to the level-0 channel;
it subscribes to channel *l+1* exactly while it is a leader at level *l*
("Lower level group leaders join a higher level group"), up to
``config.max_level``.

Directory semantics:

* peers heard directly on some channel are **direct** entries, purged after
  ``level_timeout(level)`` of silence;
* everything else is **relayed**, attributed to the direct peer that
  relayed it; relayed entries live as long as their relayer (leader
  heartbeats vouch for them in O(1)), are reattributed to the new leader on
  failover, and have a slow backstop timeout;
* removals ride explicit remove-updates with incarnation guards, so a
  restarted node is never deleted by old news about its previous life.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.directory import NodeRecord
from repro.core.config import HierarchicalConfig
from repro.core.groups import GroupState, PeerState
from repro.core.roles import (
    HMEMBER_PORT,
    Announcer,
    Contender,
    Informer,
    NodeContext,
    Receiver,
    Tracker,
)
from repro.core.updates import UpdateManager, UpdateOp
from repro.protocols.base import MembershipNode

__all__ = ["HierarchicalNode", "HMEMBER_PORT"]


class HierarchicalNode(MembershipNode):
    """One node of the topology-adaptive hierarchical protocol.

    ``use_fast_path`` selects the protocol hot-path engine (on by default):
    interned heartbeat payloads, an identity-based no-change receive path,
    and deadline-heap directory purges.  The legacy scan-per-tick path is
    kept for A/B benchmarking; seeded traces are identical on both (see
    docs/PERFORMANCE.md).
    """

    config: HierarchicalConfig

    def __init__(self, *args, use_fast_path: bool = True, **kwargs) -> None:
        if "config" not in kwargs or kwargs["config"] is None:
            kwargs["config"] = HierarchicalConfig()
        super().__init__(*args, **kwargs)
        if not isinstance(self.config, HierarchicalConfig):
            raise TypeError("HierarchicalNode requires a HierarchicalConfig")
        self.use_fast_path = use_fast_path
        self._ctx = NodeContext(
            node=self,
            runtime=self.runtime,
            config=self.config,
            directory=self.directory,
            rng=self.rng,
            updates=UpdateManager(self.node_id, self.config.piggyback_depth),
            detector=self.detector,
        )
        self._announcer = Announcer(self._ctx)
        self._receiver = Receiver(self._ctx)
        self._tracker = Tracker(self._ctx)
        self._informer = Informer(self._ctx)
        self._contender = Contender(self._ctx)
        self._ctx.wire(
            self._announcer,
            self._receiver,
            self._tracker,
            self._informer,
            self._contender,
        )

    # ==================================================================
    # Failure-detection seam
    # ==================================================================
    def _wire_detector(self) -> None:
        # Probes ride the existing hmember unicast port — an active
        # detector costs the scheme no extra bind, and the default
        # counter strategy sends nothing at all.  Called from the base
        # __init__ before ``_ctx`` exists: attach only closures/bound
        # methods that resolve state at call time.
        from repro.detect import UnicastProber

        self.detector.attach(
            prober=UnicastProber(self.runtime, HMEMBER_PORT, self.config.header_size),
            members=self._probe_candidates,
        )

    def _probe_candidates(self) -> List[str]:
        """Peers heard directly on any channel — the probe target pool."""
        seen: Set[str] = set()
        for group in self._ctx.groups.values():
            seen.update(group.peers)
        seen.discard(self.node_id)
        return sorted(seen)

    def _on_detector_rebuilt(self) -> None:
        self._ctx.detector = self.detector
        # Channel handlers pre-resolve the observation hook; rebuild them
        # so they point at the new strategy (subscribe replaces in place).
        for level in self._ctx.levels:
            self.runtime.subscribe(
                self.config.channel(level), self._receiver.channel_handler(level)
            )

    def apply_config(self, config: HierarchicalConfig) -> None:
        super().apply_config(config)
        # The context denormalises the config; keep it in lockstep (the
        # control plane replaces the frozen dataclass wholesale).
        self._ctx.config = self.config

    # ==================================================================
    # Lifecycle (template in MembershipNode; scheme hooks here)
    # ==================================================================
    def _reset_run_state(self) -> None:
        self.directory.use_fast_path = self.use_fast_path
        self._ctx.reset_for_start()
        self._announcer.reset()
        self._informer.reset()

    def _on_start(self) -> None:
        self.runtime.bind(HMEMBER_PORT, self._receiver.on_unicast)
        self._ctx.participate(0)
        phase = self.rng.uniform(0, self.config.heartbeat_period)
        self.runtime.call_every(
            self.config.heartbeat_period,
            self._announcer.heartbeat_tick,
            first_delay=phase,
        )
        self.runtime.call_every(
            self.config.heartbeat_period, self._tracker.check_tick
        )

    def _on_stop(self) -> None:
        self._ctx.abandon_all()
        self.runtime.unbind(HMEMBER_PORT)

    def leave(self) -> None:
        """Graceful departure: announce, then stop.

        A planned removal should not cost the cluster ``max_loss`` periods
        of stale directory time: the node multicasts a ``leave`` op on all
        its channels (relayed through the tree like any update), then goes
        silent.  Receivers drop it immediately — the op bypasses the
        "I still hear it" guard that protects against false *remove*
        rumors, because only the node itself originates its leave.
        """
        if not self.running:
            return
        self._informer.originate([UpdateOp("leave", self.node_id, self.incarnation)])
        self.stop()

    def refute_death(self) -> None:
        """SWIM-style refutation of a false death rumor about this node.

        Bumps the incarnation (the higher incarnation beats the rumor and
        any death certificates guarding the old one) and moves the runtime
        epoch so one-shots scheduled against the old incarnation are
        dropped at fire time.
        """
        self.incarnation += 1
        self.runtime.bump_epoch()

    # ==================================================================
    # Introspection (used by tests, experiments and the proxy protocol)
    # ==================================================================
    def levels(self) -> List[int]:
        """Channels this node currently participates in, ascending.

        Derived from the groups dict (not the hot-path levels cache) so
        external inspection stays truthful even if tests poke the groups
        directly.
        """
        return sorted(self._ctx.groups)

    def is_leader(self, level: int) -> bool:
        group = self._ctx.groups.get(level)
        return bool(group and group.i_am_leader)

    def leader_of(self, level: int) -> Optional[str]:
        """The leader this node follows at ``level`` (itself if leading)."""
        group = self._ctx.groups.get(level)
        return group.current_leader(self.node_id) if group else None

    def group_members(self, level: int) -> List[str]:
        group = self._ctx.groups.get(level)
        return group.member_ids() if group else []

    @property
    def top_level(self) -> int:
        return max(self._ctx.groups) if self._ctx.groups else 0

    # ==================================================================
    # Self-publication changes (MService API surface)
    # ==================================================================
    def _self_changed(self) -> None:
        super()._self_changed()
        if self.running:
            record = self.self_record()
            self._informer.originate(
                [UpdateOp("add", self.node_id, record.incarnation, record)]
            )

    # ==================================================================
    # Stable internal surface
    #
    # The role split moved the daemon's state and logic into
    # ``repro.core.roles``; these aliases keep the node's historical
    # internal names addressable (tests, chaos harnesses and experiment
    # scripts poke them), and — for ``_maybe_sync`` — keep the facade
    # attribute the single seam through which every internal sync request
    # flows, so monkeypatching it intercepts all of them.
    # ==================================================================
    @property
    def _groups(self) -> Dict[int, GroupState]:
        return self._ctx.groups

    @property
    def _levels(self) -> Tuple[int, ...]:
        return self._ctx.levels

    @_levels.setter
    def _levels(self, value: Iterable[int]) -> None:
        self._ctx.levels = tuple(value)

    @property
    def _updates(self) -> UpdateManager:
        return self._ctx.updates

    @property
    def _tombstones(self) -> Dict[str, Tuple[int, float]]:
        return self._ctx.tombstones

    @property
    def _pending_syncs(self) -> Set[str]:
        return self._ctx.pending_syncs

    @property
    def _bootstrap_announce_until(self) -> float:
        return self._ctx.bootstrap_announce_until

    @_bootstrap_announce_until.setter
    def _bootstrap_announce_until(self, value: float) -> None:
        self._ctx.bootstrap_announce_until = value

    @property
    def _oneshots(self) -> set:
        return self.runtime.oneshots  # type: ignore[attr-defined]

    def _call_once(self, delay: float, fn, *args) -> None:
        self.runtime.call_once(delay, fn, *args)

    def _maybe_sync(self, peer: str) -> bool:
        return self._informer.maybe_sync(peer)

    def _send_heartbeat(self, level: int) -> None:
        self._announcer.send_heartbeat(level)

    def _originate(self, ops: Sequence[UpdateOp]) -> None:
        self._informer.originate(ops)

    def _apply_ops(self, ops: Sequence[UpdateOp], via: str) -> None:
        self._informer.apply_ops(ops, via)

    def _absorb_record(self, record: NodeRecord, via: str, now: float) -> bool:
        return self._informer.absorb_record(record, via, now)

    def _bury(self, node_id: str, incarnation: int) -> None:
        self._informer.bury(node_id, incarnation)

    def _handle_peer_death(self, level: int, peer: PeerState) -> None:
        self._tracker.handle_peer_death(level, peer)

    def _evaluate_election(self, level: int) -> None:
        self._contender.evaluate(level)

"""Informer role in isolation: sync client/server, tombstone machinery.

The sync protocol's wire face lives in the Receiver (``on_unicast``) but
its behavior — snapshots, merging, rate limiting, death certificates —
is the Informer's.  These tests drive both ends over the fake runtime.
"""

from repro.cluster.directory import NodeRecord
from repro.core.updates import UpdateOp
from repro.net.packet import Packet


def sync_req(src, snapshot):
    return Packet(src=src, kind="sync_req", payload={"snapshot": snapshot}, size=100, dst="n0")


def sync_resp(src, snapshot, seqs=None):
    payload = {"snapshot": snapshot, "seqs": seqs or {}}
    return Packet(src=src, kind="sync_resp", payload=payload, size=100, dst="n0")


def update_publishes(daemon):
    return [p for (_, _, kind, p, _) in daemon.runtime.published if kind == "update"]


class TestSyncClient:
    def test_request_carries_directory_minus_the_peer(self, daemon):
        daemon.add_peer("p1")
        assert daemon.ctx.informer.maybe_sync("p1") is True
        assert "p1" in daemon.ctx.pending_syncs
        (dst, kind, payload, _, port) = daemon.runtime.sent[-1]
        assert (dst, kind, port) == ("p1", "sync_req", "hmember")
        ids = {r.node_id for r in payload["snapshot"]}
        # Our own record travels; the peer's does not (it knows itself).
        assert daemon.node.node_id in ids
        assert "p1" not in ids

    def test_rate_limit_swallows_the_resend_but_keeps_it_pending(self, daemon):
        daemon.ctx.informer.maybe_sync("p1")
        sent_before = len(daemon.runtime.sent)
        assert daemon.ctx.informer.maybe_sync("p1") is False
        assert len(daemon.runtime.sent) == sent_before
        # The tracker keeps retrying until a response lands.
        assert "p1" in daemon.ctx.pending_syncs
        # After the interval the retry goes through.
        daemon.runtime.advance(daemon.config.min_sync_interval)
        assert daemon.ctx.informer.maybe_sync("p1") is True

    def test_stopped_node_never_syncs(self, daemon):
        daemon.node.running = False
        assert daemon.ctx.informer.maybe_sync("p1") is False
        assert daemon.runtime.sent == []
        assert daemon.ctx.pending_syncs == set()


class TestSyncServer:
    def test_request_is_answered_with_snapshot_and_seqs(self, daemon):
        far = NodeRecord("far1", 2)
        daemon.ctx.receiver.on_unicast(sync_req("p1", [far]))
        # The request's payload was merged (bidirectional exchange)...
        assert "far1" in daemon.directory
        assert daemon.node.member_up == ["far1"]
        (dst, kind, payload, _, port) = daemon.runtime.sent[-1]
        assert (dst, kind, port) == ("p1", "sync_resp", "hmember")
        ids = {r.node_id for r in payload["snapshot"]}
        assert daemon.node.node_id in ids and "far1" in ids and "p1" not in ids
        # Stream positions let the client mark itself caught-up.
        assert set(payload["seqs"]) == {0}

    def test_stopped_node_does_not_serve(self, daemon):
        daemon.node.running = False
        daemon.ctx.receiver.on_unicast(sync_req("p1", []))
        assert daemon.runtime.sent == []

    def test_response_clears_pending_and_prunes_dead_vouchees(self, daemon):
        # "leader" vouched for old1; its authoritative snapshot no longer
        # lists old1, so the entry must go (we missed the remove-update).
        daemon.ctx.pending_syncs.add("leader")
        daemon.directory.upsert(NodeRecord("old1", 1), 0.0, relayed_by="leader")
        fresh = NodeRecord("new1", 1)
        daemon.ctx.receiver.on_unicast(sync_resp("leader", [fresh]))
        assert daemon.ctx.pending_syncs == set()
        assert "old1" not in daemon.directory
        assert ("old1", "sync_prune") in daemon.node.member_down
        assert "new1" in daemon.directory


class TestTombstones:
    def test_certificate_refuses_stale_incarnations(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        absorbed = daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 2), via="p1", now=daemon.runtime.now
        )
        assert absorbed is False
        assert "ghost" not in daemon.directory

    def test_refused_record_triggers_refutation_and_repull(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 3), via="p1", now=daemon.runtime.now
        )
        # Anti-entropy: the removal is pushed back at whoever is stale...
        msgs = update_publishes(daemon)
        assert any(
            op.op == "remove" and op.node_id == "ghost" and op.incarnation == 3
            for m in msgs
            for op in m.ops
        )
        # ...and a post-quarantine re-pull from the source is scheduled.
        (backstop,) = daemon.runtime.oneshots
        assert backstop.args == ("p1",)
        daemon.runtime.advance(
            daemon.config.tombstone_quarantine + daemon.config.heartbeat_period
        )
        kinds = [(dst, kind) for (dst, kind, _, _, _) in daemon.runtime.sent]
        assert ("p1", "sync_req") in kinds

    def test_repeated_hits_from_one_source_share_one_backstop(self, daemon):
        # A dead leader's subtree reaches every peer as thousands of
        # tombstoned records in one instant; each source still earns one
        # re-pull, not one per record.
        daemon.ctx.informer.bury("ghost", 3)
        now = daemon.runtime.now
        for _ in range(25):
            daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p1", now=now)
        (backstop,) = daemon.runtime.oneshots
        assert backstop.args == ("p1",)
        daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p2", now=now)
        assert [t.args for t in daemon.runtime.oneshots] == [("p1",), ("p2",)]

    def test_refutation_storm_is_rate_limited(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        now = daemon.runtime.now
        daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p1", now=now)
        published_before = len(update_publishes(daemon))
        daemon.ctx.informer.absorb_record(NodeRecord("ghost", 3), via="p2", now=now)
        assert len(update_publishes(daemon)) == published_before

    def test_higher_incarnation_beats_the_certificate(self, daemon):
        # A genuinely restarted node announces a higher incarnation; the
        # certificate must not block its return.
        daemon.ctx.informer.bury("ghost", 3)
        absorbed = daemon.ctx.informer.absorb_record(
            NodeRecord("ghost", 4), via="p1", now=daemon.runtime.now
        )
        assert absorbed is True
        assert "ghost" in daemon.directory
        assert daemon.node.member_up == ["ghost"]

    def test_certificates_expire_after_quarantine(self, daemon):
        daemon.ctx.informer.bury("ghost", 3)
        daemon.runtime.advance(daemon.config.tombstone_quarantine + 0.1)
        assert not daemon.ctx.informer.tombstoned("ghost", 3, daemon.runtime.now)
        assert "ghost" not in daemon.ctx.tombstones


class TestSelfDefense:
    def test_rumor_of_own_death_is_refuted(self, daemon):
        me = daemon.node.node_id
        daemon.ctx.informer.apply_ops(
            [UpdateOp("remove", me, daemon.node.incarnation)], via="p1"
        )
        assert daemon.node.refutations == 1
        record = daemon.directory.get(me)
        assert record is not None and record.incarnation == 2
        # The higher incarnation is announced so the rumor dies out.
        assert any(
            op.op == "add" and op.node_id == me and op.incarnation == 2
            for m in update_publishes(daemon)
            for op in m.ops
        )

    def test_stale_death_rumor_is_ignored(self, daemon):
        daemon.node.incarnation = 5
        daemon.ctx.informer.apply_ops([UpdateOp("remove", daemon.node.node_id, 2)], via="p1")
        assert daemon.node.refutations == 0

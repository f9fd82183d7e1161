"""Unit tests for the yellow-page directory."""

import random

import pytest

from repro.cluster import Directory, NodeRecord, parse_partitions


def rec(node_id, incarnation=0, services=None, attrs=None):
    return NodeRecord(
        node_id=node_id,
        incarnation=incarnation,
        services={k: frozenset(v) for k, v in (services or {}).items()},
        attrs=attrs or {},
    )


class TestParsePartitions:
    def test_single(self):
        assert parse_partitions("3") == frozenset({3})

    def test_range(self):
        assert parse_partitions("1-3") == frozenset({1, 2, 3})

    def test_mixed(self):
        assert parse_partitions("1-3,5") == frozenset({1, 2, 3, 5})

    def test_whitespace(self):
        assert parse_partitions(" 1 , 2-3 ") == frozenset({1, 2, 3})

    def test_empty(self):
        assert parse_partitions("") == frozenset()

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            parse_partitions("3-1")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_partitions("1,,2")


class TestNodeRecord:
    def test_supersedes_same_or_higher_incarnation(self):
        a0, a1 = rec("a", 0), rec("a", 1)
        assert a1.supersedes(a0)
        assert a0.supersedes(a0)
        assert not a0.supersedes(a1)

    def test_supersedes_different_node_false(self):
        assert not rec("a").supersedes(rec("b"))

    def test_with_service_string_spec(self):
        r = rec("a").with_service("index", "1-3")
        assert r.services["index"] == frozenset({1, 2, 3})

    def test_with_service_iterable(self):
        r = rec("a").with_service("doc", [4, 5])
        assert r.services["doc"] == frozenset({4, 5})

    def test_with_attr_and_without(self):
        r = rec("a").with_attr("Port", "8080")
        assert r.attrs["Port"] == "8080"
        assert "Port" not in r.without_attr("Port").attrs

    def test_functional_updates_do_not_mutate(self):
        r = rec("a")
        r.with_service("x", "1")
        assert r.services == {}


class TestUpsert:
    def test_insert_reports_change(self):
        d = Directory("me")
        assert d.upsert(rec("a"), now=1.0)
        assert "a" in d and len(d) == 1

    def test_identical_upsert_reports_no_change_but_refreshes(self):
        d = Directory("me")
        d.upsert(rec("a"), now=1.0)
        assert not d.upsert(rec("a"), now=5.0)
        assert d.last_refresh("a") == 5.0

    def test_lower_incarnation_loses(self):
        d = Directory("me")
        d.upsert(rec("a", incarnation=2), now=1.0)
        assert not d.upsert(rec("a", incarnation=1), now=2.0)
        assert d.get("a").incarnation == 2
        assert d.last_refresh("a") == 1.0  # stale record must not refresh

    def test_higher_incarnation_wins(self):
        d = Directory("me")
        d.upsert(rec("a", 0, services={"x": {1}}), now=1.0)
        assert d.upsert(rec("a", 1), now=2.0)
        assert d.get("a").incarnation == 1
        assert d.get("a").services == {}

    def test_same_incarnation_payload_change_is_visible(self):
        d = Directory("me")
        d.upsert(rec("a", 0), now=1.0)
        assert d.upsert(rec("a", 0, attrs={"load": "5"}), now=2.0)

    def test_upsert_idempotent(self):
        d = Directory("me")
        r = rec("a", 1, services={"x": {1}})
        d.upsert(r, now=1.0)
        d.upsert(r, now=1.0)
        assert len(d) == 1


class TestRemoveAndPurge:
    def test_remove(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        assert d.remove("a")
        assert not d.remove("a")
        assert "a" not in d

    def test_purge_stale_direct_entries(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        d.upsert(rec("b"), now=4.0)
        assert d.purge_stale(now=5.0, timeout=3.0) == ["a"]
        assert "b" in d

    def test_purge_never_removes_owner(self):
        d = Directory("me")
        d.upsert(rec("me"), now=0.0)
        assert d.purge_stale(now=100.0, timeout=1.0) == []

    def test_purge_stale_skips_relayed(self):
        d = Directory("me")
        d.upsert(rec("far"), now=0.0, relayed_by="leader")
        assert d.purge_stale(now=100.0, timeout=1.0) == []
        assert d.purge_stale_relayed(now=100.0, timeout=1.0) == ["far"]

    def test_purge_relayed_by_leader(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0, relayed_by="L1")
        d.upsert(rec("y"), now=0.0, relayed_by="L1")
        d.upsert(rec("z"), now=0.0, relayed_by="L2")
        d.upsert(rec("w"), now=0.0)
        assert sorted(d.purge_relayed_by("L1")) == ["x", "y"]
        assert list(d.members()) == ["w", "z"]

    def test_refresh_missing_returns_false(self):
        d = Directory("me")
        assert not d.refresh("ghost", now=1.0)

    def test_refresh_updates_relay_provenance(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0, relayed_by="L1")
        d.refresh("a", now=1.0, relayed_by="L2")
        assert d.relayed_by("a") == "L2"


class TestLookup:
    def make_dir(self):
        d = Directory("me")
        d.upsert(rec("idx1", services={"index": {1, 2}}), now=0.0)
        d.upsert(rec("idx2", services={"index": {3}}), now=0.0)
        d.upsert(rec("doc1", services={"doc": {1}}), now=0.0)
        d.upsert(rec("both", services={"index": {4}, "doc": {2, 3}}), now=0.0)
        return d

    def test_exact_service(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index")]
        assert ids == ["both", "idx1", "idx2"]

    def test_partition_range(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index", "1-2")]
        assert ids == ["idx1"]

    def test_partition_any_overlap(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index", "2-3")]
        assert ids == ["idx1", "idx2"]

    def test_service_regex(self):
        d = self.make_dir()
        ids = [r.node_id for r in d.lookup_service("index|doc")]
        assert ids == ["both", "doc1", "idx1", "idx2"]

    def test_partition_regex(self):
        d = self.make_dir()
        # regex (not range syntax): partitions matching '[34]'
        ids = [r.node_id for r in d.lookup_service("index", "[34]")]
        assert ids == ["both", "idx2"]

    def test_no_match(self):
        d = self.make_dir()
        assert d.lookup_service("cache") == []
        assert d.lookup_service("index", "99") == []

    def test_fullmatch_semantics(self):
        d = Directory("me")
        d.upsert(rec("n", services={"indexer": {1}}), now=0.0)
        assert d.lookup_service("index") == []  # 'index' must not match 'indexer'
        assert len(d.lookup_service("index.*")) == 1


class TestSnapshots:
    def test_snapshot_is_copy(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        snap = d.snapshot()
        d.remove("a")
        assert "a" in snap

    def test_members_sorted(self):
        d = Directory("me")
        for nid in ["c", "a", "b"]:
            d.upsert(rec(nid), now=0.0)
        assert list(d.members()) == ["a", "b", "c"]

    def test_clear(self):
        d = Directory("me")
        d.upsert(rec("a"), now=0.0)
        d.clear()
        assert len(d) == 0


class _Reference:
    """Brute-force model of the directory's staleness rules.

    Keeps its own log of inserts, refreshes, vouches and relayer moves and
    answers each purge by scanning every entry — the definition the
    directory's heaps and vouch-gated groups must reproduce.
    """

    def __init__(self, owner):
        self.owner = owner
        self.entries = {}  # nid -> [order, last_refresh, relayed_by]
        self.vouch = {}
        self.order = 0

    def upsert(self, nid, now, relayed_by):
        cur = self.entries.get(nid)
        if cur is None:
            self.order += 1
            self.entries[nid] = [self.order, now, relayed_by]
        else:
            cur[1], cur[2] = now, relayed_by

    def refresh(self, nid, now, relayed_by):
        cur = self.entries.get(nid)
        if cur is not None:
            cur[1], cur[2] = now, relayed_by

    def reattribute(self, old, new):
        moved = [cur for cur in self.entries.values() if cur[2] == old]
        for cur in moved:
            cur[2] = new
        if moved and old in self.vouch:
            # The vouch moves with the entries; an empty handover is a no-op.
            prev = self.vouch[old]
            self.vouch[new] = max(prev, self.vouch.get(new, prev))

    def _take(self, doomed):
        doomed.sort(key=lambda nid: self.entries[nid][0])
        for nid in doomed:
            del self.entries[nid]
        return doomed

    def purge_stale(self, now, timeout):
        return self._take([
            nid for nid, (_o, fresh, by) in self.entries.items()
            if nid != self.owner and by is None and now - fresh > timeout
        ])

    def purge_stale_relayed(self, now, timeout):
        return self._take([
            nid for nid, (_o, fresh, by) in self.entries.items()
            if nid != self.owner and by is not None
            and now - max(fresh, self.vouch.get(by, float("-inf"))) > timeout
        ])

    def purge_relayed_by(self, leader):
        return self._take([n for n, e in self.entries.items() if e[2] == leader])


class _NoScanDict(dict):
    """Entry table that refuses whole-table iteration."""

    def _scan(self, *_args):
        raise AssertionError("purge scanned the whole entry table")

    __iter__ = items = values = keys = _scan


class TestDeadlineHeapEngine:
    """The heap-driven purges must match a brute-force staleness scan."""

    @pytest.mark.parametrize("seed", range(6))
    def test_purges_match_brute_force_under_churn(self, seed):
        rng = random.Random(seed)
        d, ref = Directory("me"), _Reference("me")
        nodes = ["me"] + [f"n{i}" for i in range(24)]
        relayers = ["L1", "L2", "L3"]
        now = 0.0
        for _step in range(400):
            now += rng.choice((0.0, 0.25, 0.5, 1.0))
            op = rng.random()
            nid = rng.choice(nodes)
            by = rng.choice([None, None] + relayers)
            if op < 0.35:
                d.upsert(rec(nid), now, relayed_by=by)
                ref.upsert(nid, now, by)
            elif op < 0.6:
                assert d.refresh(nid, now, relayed_by=by) == (nid in ref.entries)
                ref.refresh(nid, now, by)
            elif op < 0.75:
                relayer = rng.choice(relayers)
                d.vouch(relayer, now)
                ref.vouch[relayer] = now
            elif op < 0.8:
                assert d.remove(nid) == (ref.entries.pop(nid, None) is not None)
            elif op < 0.83:
                old, new = rng.sample(relayers, 2)
                d.reattribute(old, new)
                ref.reattribute(old, new)
            elif op < 0.85:
                leader = rng.choice(relayers)
                assert d.purge_relayed_by(leader) == ref.purge_relayed_by(leader)
            else:
                timeout = rng.choice((2.0, 5.0))
                assert d.purge_stale(now, timeout) == ref.purge_stale(now, timeout)
                assert d.purge_stale_relayed(now, timeout) == (
                    ref.purge_stale_relayed(now, timeout)
                )
            assert list(d.members()) == sorted(ref.entries)
            for n, (_o, fresh, by) in ref.entries.items():
                assert d.relayed_by(n) == by
                assert d.last_refresh(n) == fresh

    def test_purge_order_matches_insertion_order(self):
        d = Directory("me")
        # Freshness deliberately scrambled vs insertion order.
        d.upsert(rec("c"), now=3.0)
        d.upsert(rec("a"), now=1.0)
        d.upsert(rec("b"), now=2.0)
        assert d.purge_stale(20.0, 5.0) == ["c", "a", "b"]

    def test_refresh_keeps_entry_alive_without_heap_churn(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        for t in range(1, 30):
            d.refresh("x", float(t))
            assert d.purge_stale(float(t), 5.0) == []
        # One live heap record per entry: refreshes must not accumulate.
        assert len(d._direct_heap) <= 2

    def test_vouch_keeps_relayed_entry_alive_then_expires(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0, relayed_by="L")
        d.vouch("L", 8.0)
        assert d.purge_stale_relayed(10.0, 5.0) == []  # vouch covers it
        assert d.purge_stale_relayed(14.0, 5.0) == ["x"]  # vouch went stale

    def test_steady_state_purges_never_scan_the_table(self):
        # 1,200 fresh entries: 600 heard directly, 600 relayed by three
        # leaders that keep vouching.  A steady-state purge tick must be
        # heap pops and one vouch check per relayer — touching the whole
        # table would make the tick O(cluster size) at every node.
        d = Directory("me")
        direct = [f"d{i}" for i in range(600)]
        relayed = [f"r{i}" for i in range(600)]
        leaders = ["L0", "L1", "L2"]
        for nid in direct:
            d.upsert(rec(nid), now=0.0)
        for i, nid in enumerate(relayed):
            d.upsert(rec(nid), now=0.0, relayed_by=leaders[i % 3])
        d._entries = _NoScanDict(d._entries)
        for tick in range(1, 40):
            now = float(tick)
            for nid in direct:
                d.refresh(nid, now)
            for leader in leaders:
                d.vouch(leader, now)
            assert d.purge_stale(now, 5.0) == []
            assert d.purge_stale_relayed(now, 5.0) == []
        # Real expiries still go through the non-scanning paths.
        now = 60.0
        for nid in direct[:-1]:
            d.refresh(nid, now)
        for leader in leaders[:2]:
            d.vouch(leader, now)
        assert d.purge_stale(now, 5.0) == [direct[-1]]
        assert d.purge_stale_relayed(now, 5.0) == relayed[2::3]
        assert len(d) == 1200 - 1 - 200


class TestVersionedViews:
    def test_version_moves_on_structural_changes_only(self):
        d = Directory("me")
        v0 = d.version
        d.upsert(rec("x"), now=0.0)
        v1 = d.version
        assert v1 > v0
        d.refresh("x", 1.0)
        d.vouch("L", 1.0)
        assert d.version == v1  # freshness-only: no bump
        d.remove("x")
        assert d.version > v1

    def test_members_cached_until_version_moves(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        first = d.members()
        d.refresh("x", 1.0)
        assert d.members() is first  # same tuple object: cache hit
        d.upsert(rec("y"), now=1.0)
        assert d.members() is not first
        assert list(d.members()) == ["x", "y"]

    def test_snapshot_returns_fresh_copy(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        snap = d.snapshot()
        snap["poison"] = rec("poison")
        assert "poison" not in d.snapshot()

    def test_records_reflect_payload_updates(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        before = d.records()
        d.upsert(rec("x", attrs={"k": "v"}), now=1.0)
        after = d.records()
        assert before is not after
        assert [r.attrs for r in after] == [{"k": "v"}]

    def test_purge_invalidates_view_caches(self):
        d = Directory("me")
        d.upsert(rec("x"), now=0.0)
        d.upsert(rec("y"), now=10.0)
        assert list(d.members()) == ["x", "y"]
        assert d.purge_stale(14.0, 5.0) == ["x"]  # y refreshed at 10.0
        assert list(d.members()) == ["y"]

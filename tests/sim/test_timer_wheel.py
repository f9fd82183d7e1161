"""Timer-wheel guards: total order, cancel/re-arm semantics, recycling.

The wheel must fire events in exactly ``(time, priority, seq)`` order
whichever lane (ready heap, fine slots, coarse ring, far heap) holds
them; a seeded random schedule checks that against a sorted reference.

The wheel uses *lazy deletion*: ``cancel()`` flags the queued entry and
the run loop skips it when popped.  The classic blind spot of that
scheme is a timer that is cancelled and then re-armed for the **same
tick** — if the replacement reuses (or collides with) the stale queue
entry, the callback fires twice in one instant.  These tests pin the
single-firing behaviour, plus the free-list recycling contract for
kernel-owned batch events.
"""

import math
import random

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.engine import _FREE_MAX


def _random_time(rng, now):
    """A fire time in one of the wheel's lanes, often on shared instants."""
    lane = rng.random()
    if lane < 0.2:
        return now  # same tick: the matured "ready" heap
    if lane < 0.5:
        return now + rng.randrange(0, 8 * 256) / 256.0  # fine slots
    if lane < 0.7:
        return now + rng.choice((8.0, rng.uniform(8.0, 128.0)))  # coarse ring
    if lane < 0.85:
        return now + rng.uniform(128.0, 4000.0)  # far heap
    if lane < 0.95:
        # Past exact slot arithmetic: the far heap's direct lane.
        return max(now, float(2**40)) + rng.choice((0.0, 0.5, rng.uniform(0, 2**41)))
    return math.inf


class TestTotalOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedule_fires_in_sorted_order(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        pending = {}  # seq -> (time, priority, seq) of live, unfired events
        handles = {}
        fired = []

        def schedule(time, priority):
            ev = sim.call_at(time, fire, priority=priority)
            ev.fn, ev.args = fire, (ev,)
            pending[ev.seq] = (ev.time, priority, ev.seq)
            handles[ev.seq] = ev

        def fire(ev):
            fired.append(pending.pop(ev.seq))
            for _ in range(rng.choice((0, 0, 1, 2))):
                # Children keep the parent's priority, so their keys sort
                # after it even when they land on the same instant.
                schedule(_random_time(rng, sim.now), ev.priority)
            if pending and rng.random() < 0.2:
                victim = handles[rng.choice(sorted(pending))]
                victim.cancel()
                del pending[victim.seq]

        for _ in range(300):
            schedule(_random_time(rng, 0.0), rng.choice((-1, 0, 0, 1)))
        for seq in rng.sample(sorted(pending), 40):
            handles[seq].cancel()
            del pending[seq]
        expected_total = len(pending)
        horizon = 0.0
        while sim.peek() is not None and horizon < 10_000.0:
            horizon += rng.choice((0.0, 0.5, 3.0, 50.0, 700.0))
            if rng.random() < 0.3:
                sim.step()
            else:
                sim.run(until=horizon)
        sim.run()
        assert not pending
        assert len(fired) >= expected_total
        assert fired == sorted(fired)
        assert any(t == math.inf for t, _p, _s in fired)
        assert any(2**40 <= t < math.inf for t, _p, _s in fired)


@pytest.mark.parametrize("base", [float(2**40), 0.0], ids=["heap", "wheel"])
class TestCancelRearmSameTick:
    """A cancelled recurring timer re-armed in the same tick fires once.

    Run on both of the wheel's lane families: ``wheel`` starts the clock
    at 0, so the timers live in the slotted lanes; ``heap`` starts it past
    slot arithmetic (``2^40``), so every timer goes through the far heap
    and its same-instant ``direct`` run.  All times are ``base`` plus a
    small whole number of seconds, exact in float64.
    """

    def test_external_cancel_and_rearm_same_tick(self, base):
        sim = Simulator(start_time=base)
        fires = []
        old = sim.call_every(1.0, lambda: fires.append(("old", sim.now - base)))

        def swap():
            # Runs at t=3.0 *before* the old timer's queued firing: the
            # stale entry is already in the queue for this very tick.
            old.cancel()
            sim.call_every(
                1.0, lambda: fires.append(("new", sim.now - base)), first_delay=0.0
            )

        sim.call_at(base + 3.0, swap, priority=-1)
        sim.run(until=base + 5.0)
        assert fires == [
            ("old", 1.0),
            ("old", 2.0),
            ("new", 3.0),
            ("new", 4.0),
            ("new", 5.0),
        ]

    def test_cancel_from_inside_own_callback_with_replacement(self, base):
        sim = Simulator(start_time=base)
        fires = []
        holder = {}

        def tick():
            fires.append(sim.now - base)
            if sim.now == base + 2.0:
                # Self-cancel mid-callback and re-arm a replacement with
                # the same period: the old series must not fire at 3.0.
                holder["t"].cancel()
                holder["t"] = sim.call_every(1.0, tick)

        holder["t"] = sim.call_every(1.0, tick)
        sim.run(until=base + 4.0)
        assert fires == [1.0, 2.0, 3.0, 4.0]

    def test_cancelled_timer_never_fires_again(self, base):
        sim = Simulator(start_time=base)
        fires = []
        timer = sim.call_every(1.0, lambda: fires.append(sim.now - base))
        sim.call_at(base + 2.5, timer.cancel)
        sim.run(until=base + 10.0)
        assert fires == [1.0, 2.0]

    def test_double_cancel_is_idempotent(self, base):
        sim = Simulator(start_time=base)
        fires = []
        timer = sim.call_every(1.0, lambda: fires.append(sim.now - base))
        sim.run(until=base + 1.0)
        timer.cancel()
        timer.cancel()
        sim.run(until=base + 3.0)
        assert fires == [1.0]


class TestFreeListRecycling:
    """Kernel-owned batch events are recycled through the free-list."""

    def test_owned_event_object_reused_after_firing(self):
        sim = Simulator()
        seen = []
        first = sim.call_at_batch(1.0, seen.extend, ["a"], owned=True)
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, seen.extend, ["b"], owned=True)
        assert second is first  # same object, recycled via the free-list
        sim.run(until=2.0)
        assert seen == ["a", "b"]

    def test_unowned_event_never_recycled(self):
        sim = Simulator()
        first = sim.call_at_batch(1.0, lambda batch: None, ["a"])
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, lambda batch: None, ["b"])
        assert second is not first

    def test_cancelled_owned_event_does_not_fire_or_resurrect(self):
        sim = Simulator()
        seen = []
        ev = sim.call_at_batch(1.0, seen.extend, ["dead"], owned=True)
        ev.cancel()
        # New owned work scheduled for the same tick must not collide
        # with the cancelled entry still sitting in the queue.
        sim.call_at_batch(1.0, seen.extend, ["live"], owned=True)
        sim.run(until=5.0)
        assert seen == ["live"]

    def test_free_list_is_bounded(self):
        sim = Simulator()
        n = _FREE_MAX + 100
        for i in range(n):
            sim.call_at_batch(1.0, lambda batch: None, [i], owned=True)
        sim.run(until=1.0)
        assert len(sim._free) <= _FREE_MAX

    def test_recycled_event_keeps_trigger_semantics(self):
        # A recycled object must behave like a fresh one: new time, new
        # payload, cancellable before firing.
        sim = Simulator()
        seen = []
        first = sim.call_at_batch(1.0, seen.extend, ["a"], owned=True)
        sim.run(until=1.0)
        second = sim.call_at_batch(2.0, seen.extend, ["b"], owned=True)
        assert second is first
        second.cancel()
        sim.run(until=3.0)
        assert seen == ["a"]


class TestClock:
    def test_negative_start_time_rejected(self):
        # The wheel's slot arithmetic assumes a non-negative clock.
        with pytest.raises(SimulationError):
            Simulator(start_time=-1.0)

    def test_nan_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=math.nan)

"""The connectivity-event bus: scheduling, invalidation, churn safety."""

import pytest

from repro.core.config import HandoverConfig
from repro.core.handover import HandoverThread
from repro.mobility import CorridorWalk, LinearMovement, StaticPosition
from repro.radio import BLUETOOTH, WLAN, Link, World
from repro.radio.bus import LINK_DOWN, LINK_UP, QUALITY_BELOW
from repro.scenarios import Scenario
from repro.sim import SimulationError, Simulator


def make_world(seed=1):
    sim = Simulator(seed=seed)
    return sim, World(sim)


# ----------------------------------------------------------------------
# kernel plumbing
# ----------------------------------------------------------------------
def test_call_at_runs_and_cancels():
    sim = Simulator(seed=0)
    ran = []
    sim.call_at(5.0, lambda: ran.append(sim.now))
    handle = sim.call_at(7.0, lambda: ran.append("cancelled-anyway"))
    handle.cancel()
    handle.cancel()  # idempotent
    sim.run()
    assert ran == [5.0]
    assert sim.now == 7.0  # the voided entry still drains off the heap
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)  # scheduling in the past


def test_kernel_counts_processed_events():
    sim = Simulator(seed=0)
    for delay in (1.0, 2.0, 3.0):
        sim.timeout(delay)
    sim.run()
    assert sim.events_processed == 3


# ----------------------------------------------------------------------
# watch lifecycle
# ----------------------------------------------------------------------
def test_repeating_link_watch_fires_alternating_events():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    # Out 5 m -> 15 m (down at 10), back (up at 10), out again.
    from repro.mobility import PathMovement
    world.add_node("b", PathMovement([
        (0.0, (5.0, 0.0)), (10.0, (15.0, 0.0)), (20.0, (5.0, 0.0)),
        (30.0, (15.0, 0.0))]), [BLUETOOTH])
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    sim.run(until=40.0)
    assert [e.kind for e in events] == [LINK_DOWN, LINK_UP, LINK_DOWN]
    assert [round(e.time, 6) for e in events] == [5.0, 15.0, 25.0]
    assert world.stats.bus.fired == 3


def test_settled_pair_watch_parks_without_events():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4, 0), [BLUETOOTH])
    events = []
    watch = world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    assert not watch.armed  # parked: nothing will ever cross
    sim.run(until=1000.0)
    assert events == []
    assert world.stats.bus.scheduled == 0


def test_repeating_watch_callback_sees_its_next_event_pending():
    """Repeating watches re-arm before the callback runs."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    from repro.mobility import PathMovement
    world.add_node("b", PathMovement([
        (0.0, (5.0, 0.0)), (10.0, (15.0, 0.0)), (20.0, (5.0, 0.0)),
        (30.0, (15.0, 0.0))]), [BLUETOOTH])
    seen = []

    def record(event):
        pending = watch.pending
        seen.append((event.kind, round(event.time, 6), watch.armed,
                     pending and (pending.kind, round(pending.time, 6))))

    watch = world.bus.watch_link("a", "b", BLUETOOTH, callback=record)
    assert (watch.pending.kind, round(watch.pending.time, 6)) == (
        LINK_DOWN, 5.0)
    sim.run(until=40.0)
    # After the last LinkDown b is still walking out (settles at 30 s),
    # so the watch waits out a horizon re-check with nothing pending.
    assert seen == [(LINK_DOWN, 5.0, True, (LINK_UP, 15.0)),
                    (LINK_UP, 15.0, True, (LINK_DOWN, 25.0)),
                    (LINK_DOWN, 25.0, True, None)]


def test_resumed_in_range_pair_link_up_sees_watch_armed():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((2.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    seen = []
    watch = world.bus.watch_link(
        "a", "b", BLUETOOTH,
        callback=lambda e: seen.append((e.kind, e.time, watch.armed,
                                        watch.pending)))
    sim.run(until=1.0)
    world.suspend_node("b")
    sim.run(until=3.0)
    world.resume_node("b")
    (down, up) = seen
    assert down[:2] == (LINK_DOWN, 1.0)
    kind, time, armed, pending = up
    assert (kind, time, armed) == (LINK_UP, 3.0, True)
    assert pending.kind == LINK_DOWN
    assert pending.time == pytest.approx(8.0)   # b leaves the 10 m ring


def test_parked_suspended_and_held_watches_have_nothing_pending():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((2.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    world.add_node("c", StaticPosition(4.0, 0), [BLUETOOTH])
    parked = world.bus.watch_link("a", "c", BLUETOOTH, callback=id)
    moving = world.bus.watch_link("a", "b", BLUETOOTH, callback=id)
    assert parked.pending is None and not parked.armed
    assert moving.pending.kind == LINK_DOWN
    world.suspend_node("a")
    world.suspend_node("b")
    assert moving.pending is None and not moving.armed      # suspended
    world.resume_node("a")
    assert moving.pending is None and not moving.armed      # held for b
    world.resume_node("b")
    assert moving.pending.kind == LINK_DOWN and moving.armed


def test_quality_below_fires_immediately_when_already_low():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(9.5, 0), [BLUETOOTH])  # edge zone
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    sim.run(until=1.0)
    assert len(events) == 1
    assert events[0].kind == QUALITY_BELOW
    assert events[0].time == 0.0


def test_override_crossing_beyond_horizon_is_still_detected():
    """A settled pair with a slow decay must not park the quality watch:
    the crossing lies past the prediction horizon, so the watch has to
    keep re-checking at rollover instead of sleeping forever."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4, 0), [BLUETOOTH])
    # round(255 - 0.04 t) < 230 from t = 637.5 — past the 600 s horizon.
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=255,
                               decay_per_second=0.04)
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    sim.run(until=2000.0)
    assert len(events) == 1
    assert events[0].time == pytest.approx(637.5, abs=1e-3)
    assert world.stats.bus.rescheduled >= 1  # horizon rollover re-check


def test_override_change_invalidates_and_reschedules():
    """Installing a decay after the watch armed re-predicts the crossing."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", StaticPosition(4.0, 0), [BLUETOOTH])
    events = []
    world.bus.watch_quality_below("a", "b", BLUETOOTH, 230,
                                  callback=events.append)
    assert events == []  # plateau quality 255: parked
    world.install_linear_decay("a", "b", BLUETOOTH, initial_quality=240)
    assert world.stats.bus.rescheduled >= 1
    sim.run(until=60.0)
    assert len(events) == 1
    assert events[0].time == pytest.approx(10.5, abs=1e-6)


# ----------------------------------------------------------------------
# churn: no event for a dead node ever fires (satellite)
# ----------------------------------------------------------------------
def test_no_event_fires_for_removed_node():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    events = []
    world.bus.watch_link("a", "b", BLUETOOTH, callback=events.append)
    sim.run(until=2.0)         # crossing predicted for t=5
    world.remove_node("b")     # powered off before it happens
    assert world.stats.bus.cancelled >= 1
    sim.run(until=100.0)       # run far past the predicted instant
    assert events == []
    assert world.stats.bus.fired == 0


def test_power_off_cancels_pending_contact_events():
    """PeerHoodNode.power_off cancels bus watches via World.remove_node."""
    scenario = Scenario(seed=5)
    scenario.add_node("anchor", position=(0, 0), mobility_class="static")
    scenario.add_node(
        "walker",
        mobility=CorridorWalk((5.0, 0.0), heading_deg=0.0, depart_time=10.0),
        mobility_class="dynamic")
    events = []
    scenario.world.bus.watch_link("anchor", "walker", BLUETOOTH,
                                  callback=events.append)
    scenario.run(until=5.0)
    scenario.node("walker").power_off()
    cancelled_before = scenario.world.stats.bus.cancelled
    assert cancelled_before >= 1
    scenario.run(until=120.0)  # walker would have left range at ~13.6 s
    assert events == []
    assert scenario.world.stats.bus.fired == 0


def test_scenario_remove_node_churn_cancels_monitor_watch():
    """A sleeping event-driven monitor wakes and exits on peer removal."""
    scenario = Scenario(seed=6)
    anchor = scenario.add_node("anchor", position=(0, 0),
                               mobility_class="static")
    peer = scenario.add_node("peer", position=(4.0, 0),
                             mobility_class="static")
    link = Link(scenario.world, "anchor", "peer", BLUETOOTH)
    from repro.core.connection import PeerHoodConnection
    connection = PeerHoodConnection(
        fabric=scenario.fabric, local_node_id="anchor", link=link,
        connection_id=1, remote_address=peer.address, service_name="t")
    thread = HandoverThread(anchor.library, connection,
                            config=HandoverConfig(event_driven=True)).start()
    scenario.run(until=10.0)
    assert thread.monitor_wakeups == 0  # plateau: predictive sleep
    scenario.remove_node("peer")
    # The removal cancelled the monitor's sleep watch; the monitor wakes,
    # reads quality 0 (peer gone) and proceeds through its low counter.
    scenario.run(until=20.0)
    assert thread.monitor_wakeups > 0
    lows = scenario.trace.events("signal-low")
    assert lows and lows[0].detail["quality"] == 0


# ----------------------------------------------------------------------
# scheduled link breaks
# ----------------------------------------------------------------------
def test_idle_link_breaks_at_scheduled_instant():
    """No traffic needed: the link goes down when coverage is lost."""
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    link = Link(world, "a", "b", BLUETOOTH)
    sim.run(until=4.999)
    assert link.is_open
    sim.run(until=5.001)
    assert not link.is_open  # broke at t=5 with zero frames exchanged


def test_scheduled_break_wakes_blocked_receiver():
    from repro.radio.channel import ChannelClosed
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [WLAN])
    world.add_node("b", LinearMovement((30.0, 0.0), (2.0, 0.0)), [WLAN])
    link = Link(world, "a", "b", WLAN)
    outcomes = []

    def receiver(sim, link):
        try:
            yield link.receive("a")
        except ChannelClosed:
            outcomes.append(sim.now)

    sim.spawn(receiver(sim, link))
    sim.run(until=60.0)
    assert outcomes == [10.0]  # 30 + 2t = 50 -> t = 10


def test_closed_link_cancels_its_down_watch():
    sim, world = make_world()
    world.add_node("a", StaticPosition(0, 0), [BLUETOOTH])
    world.add_node("b", LinearMovement((5.0, 0.0), (1.0, 0.0)), [BLUETOOTH])
    link = Link(world, "a", "b", BLUETOOTH)
    link.close()
    assert world.stats.bus.cancelled >= 1
    assert world.bus.active_watches() == 0

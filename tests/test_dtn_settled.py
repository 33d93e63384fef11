"""The settled-pair exchange skip of the DTN forwarder.

A directed pair whose full offer pass found nothing to send is stamped
with both stores' versions; while the stamp holds, the next pass is
skipped.  The skip must be invisible: a router that overrides
``offers`` (even with a plain ``super()`` call) never skips, so it runs
the full pass every time and serves as the oracle for the stock router
under churn, crash-reboot faults, byzantine beaconers, jammers and a
lossy PHY.
"""

import dataclasses

import pytest

from repro.dtn import DtnOverlay, MessageStore, make_router
from repro.dtn.bundle import Bundle
from repro.dtn.routing import DirectDelivery, Epidemic, SprayAndWait
from repro.dtn.traffic import generate_traffic, schedule_traffic
from repro.faults import FaultPlane
from repro.mobility import LinearMovement, StaticPosition
from repro.radio import BLUETOOTH, World
from repro.scenarios import commuter_corridor, island_hopping_ferry
from repro.sim import Simulator

ROUTERS = {"direct": DirectDelivery, "epidemic": Epidemic,
           "spray": SprayAndWait}


def _oracle(router_name):
    """The stock router with ``offers`` overridden: never skips."""
    class Oracle(ROUTERS[router_name]):
        def offers(self, store, peer_id, peer_seen):
            return super().offers(store, peer_id, peer_seen)
    return Oracle()


def _count_offers(router):
    """Wrap the instance's ``offers``; returns the call-count list."""
    calls = [0]
    offers = router.offers

    def counted(*args):
        calls[0] += 1
        return offers(*args)

    router.offers = counted
    return calls


# Each variant: (scenario factory, nodes removed mid-run).  Island
# cliques hold many settled pairs; the corridor adds mobile contacts.
VARIANTS = {
    "ferry": (lambda seed: island_hopping_ferry(count=15, seed=seed), ()),
    "churn": (lambda seed: island_hopping_ferry(count=15, seed=seed),
              ("i0n1", "i1n0", "ferry")),
    "corridor-churn": (lambda seed: commuter_corridor(count=10, seed=seed),
                       ("m2", "m7")),
    "crash-reboot": (lambda seed: island_hopping_ferry(
        count=15, crash_rate=0.5, crash_downtime_s=60.0, seed=seed), ()),
    "byzantine": (lambda seed: island_hopping_ferry(
        count=15, byzantine_rate=0.5, seed=seed), ()),
    "jammer": (lambda seed: island_hopping_ferry(
        count=15, jammer_count=2, seed=seed), ()),
    "lossy-phy": (lambda seed: island_hopping_ferry(
        count=15, shadowing_sigma_db=8.0, phy_collisions=1, seed=seed),
        ()),
}


def _run(variant, router, seed=4):
    factory, doomed = VARIANTS[variant]
    scenario = factory(seed)
    plane = DtnOverlay(scenario.world, router, meter=scenario.meter)
    injections = generate_traffic(
        scenario.sim.rng("dtn/traffic"), plane.live_nodes(), "uniform",
        20, window=(5.0, 240.0), ttl_s=200.0)
    schedule_traffic(plane, injections)
    scenario.run(until=150.0)
    for name in doomed:
        scenario.remove_node(name)
    scenario.run(until=480.0)
    world = scenario.world
    return {
        "counters": dataclasses.asdict(plane.counters),
        "delivered": plane.delivered,
        "data_bytes": scenario.meter.bytes(category="dtn-data"),
        "control_bytes": scenario.meter.bytes(category="dtn-control"),
        "wakeups": plane.wakeups,
        "faults": None if world.faults is None
        else dataclasses.asdict(world.faults.counters),
        "phy": None if world.phy is None
        else dataclasses.asdict(world.phy.counters),
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_skip_matches_the_unskipped_oracle(router_name, variant):
    stock = make_router(router_name)
    stock_calls = _count_offers(stock)
    oracle = _oracle(router_name)
    oracle_calls = _count_offers(oracle)
    expected = _run(variant, oracle)
    assert _run(variant, stock) == expected
    assert expected["counters"]["created"] > 0
    assert stock_calls[0] < oracle_calls[0]      # the skip was taken


def _line_with_a_mule(router, jammer=False):
    """Static clique a–b–c, far node d, and a mule that comes within
    range of ``c`` alone at t=20; with ``jammer`` a mobile jammer
    covers ``a`` (and not ``c``) from t≈19.  Returns the plane and its
    simulator."""
    sim = Simulator(seed=1)
    world = World(sim)
    for index, name in enumerate("abc"):
        world.add_node(name, StaticPosition(index, 0), [BLUETOOTH])
    world.add_node("d", StaticPosition(-100, 0), [BLUETOOTH])
    world.add_node("m", LinearMovement((32.0, 0.0), (-1.0, 0.0)),
                   [BLUETOOTH])
    if jammer:
        FaultPlane(world).add_jammer(
            LinearMovement((-50.0, 0.0), (2.4, 0.0)), 2.5)
    return DtnOverlay(world, router), sim


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_cascade_still_sweeps_a_settled_peer_past_its_expiry(router_name):
    """a's bundle expires at t=10 while (c, a) stays settled; the
    mule's contact with c at t=20 cascades over (c, a), which must
    still sweep a."""
    results = []
    for router in (make_router(router_name), _oracle(router_name)):
        plane, sim = _line_with_a_mule(router)
        plane.send("a", "d", ttl_s=10.0)
        plane.send("c", "d", ttl_s=400.0)   # re-settles (c, a)
        sim.run(until=20.5)
        results.append(dataclasses.asdict(plane.counters))
    assert results[0] == results[1]
    assert results[0]["expired"] >= 1


@pytest.mark.parametrize("router_name", ["epidemic", "spray"])
def test_fault_gates_still_run_for_a_settled_pair(router_name):
    """A jammer reaches a while (c, a) is settled: the cascade over
    (c, a) must still hit the fault gate and count the jammed
    delivery, as the unskipped oracle does."""
    results = []
    for router in (make_router(router_name), _oracle(router_name)):
        plane, sim = _line_with_a_mule(router, jammer=True)
        plane.send("a", "d", ttl_s=400.0)
        sim.run(until=20.5)
        results.append((dataclasses.asdict(plane.counters),
                        dataclasses.asdict(plane.faults.counters)))
    assert results[0] == results[1]
    assert results[0][1]["jammed_deliveries"] >= 1


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_attaching_to_a_clique_offers_each_directed_pair_once(router_name):
    """The attach cascade used to re-run every pair from every node
    (about k³/2 offer passes); settled pairs now cost nothing."""
    k = 30
    sim = Simulator(seed=1)
    world = World(sim)
    for index in range(k):
        world.add_node(f"n{index:02d}",
                       StaticPosition(index % 6, index // 6), [BLUETOOTH])
    router = make_router(router_name)
    calls = _count_offers(router)
    plane = DtnOverlay(world, router)
    assert all(len(plane.contacts(name)) == k - 1 for name in plane.stores)
    assert calls[0] <= k * (k - 1)


def test_store_version_tracks_every_content_change():
    store = MessageStore("a")
    versions = [store.version]

    def changed():
        versions.append(store.version)
        return versions[-1] != versions[-2]

    bundle = Bundle("x#1", "x", "y", created_at=0.0, ttl_s=10.0,
                    copies=4)
    store.add(bundle, now=0.0)
    assert changed()
    vector = store.summary_vector()
    assert store.summary_vector() is vector      # cached between changes
    store.replace(bundle.with_copies(2), now=1.0)
    assert changed()
    assert store.summary_vector() is vector      # seen set unchanged
    assert store.expire(5.0) == [] and not changed()
    assert store.expire(10.0) == [bundle.with_copies(2)] and changed()
    store.mark_seen("x#1")                       # already seen
    assert not changed()
    store.mark_seen("z#9")
    assert changed() and store.summary_vector() == {"x#1", "z#9"}
    store.add(Bundle("x#2", "x", "y", created_at=1.0), now=1.0)
    assert changed()
    assert store.remove("missing") is None and not changed()
    assert store.remove("x#2") is not None and changed()
    store.add(Bundle("x#3", "x", "y", created_at=1.0), now=1.0)
    changed()
    store.drop_all()
    assert changed()
    assert store.summary_vector() == {"x#1", "x#2", "x#3", "z#9"}
    store.wipe()
    assert changed() and store.summary_vector() == frozenset()

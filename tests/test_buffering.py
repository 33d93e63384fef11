"""Tests for the §6.1 Data Buffering extension (ReliableChannel) and
the shared BoundedBuffer both planes (reliable channel, DTN stores)
are built on."""

import pytest

from repro.core.buffering import (
    EVICT_LARGEST,
    EVICT_OLDEST,
    EVICT_SOONEST_EXPIRY,
    BoundedBuffer,
    ReliableChannel,
)
from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverThread
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import Scenario, fig_5_8_handover

SETTLE_S = 180.0


# ----------------------------------------------------------------------
# the shared BoundedBuffer
# ----------------------------------------------------------------------
def test_bounded_buffer_validation():
    with pytest.raises(ValueError, match="capacity"):
        BoundedBuffer(capacity_bytes=0)
    with pytest.raises(ValueError, match="policy"):
        BoundedBuffer(policy="random")
    buffer = BoundedBuffer()
    with pytest.raises(ValueError, match="size"):
        buffer.add("k", "item", -1, now=0.0)
    with pytest.raises(ValueError, match="ttl"):
        buffer.add("k", "item", 1, now=0.0, ttl_s=0.0)


def test_bounded_buffer_unbounded_keeps_insertion_order():
    buffer = BoundedBuffer()
    for index in range(5):
        assert buffer.add(index, f"item{index}", 10, now=float(index)) == []
    assert buffer.keys() == [0, 1, 2, 3, 4]
    assert buffer.used_bytes == 50
    assert buffer.get(3).item == "item3"


def test_bounded_buffer_evicts_oldest_first():
    buffer = BoundedBuffer(capacity_bytes=30, policy=EVICT_OLDEST)
    buffer.add("a", 1, 10, now=0.0)
    buffer.add("b", 2, 10, now=1.0)
    buffer.add("c", 3, 10, now=2.0)
    evicted = buffer.add("d", 4, 10, now=3.0)
    assert [entry.key for entry in evicted] == ["a"]
    assert buffer.keys() == ["b", "c", "d"]
    assert buffer.evicted == 1


def test_bounded_buffer_evicts_largest_first():
    buffer = BoundedBuffer(capacity_bytes=30, policy=EVICT_LARGEST)
    buffer.add("small", 1, 5, now=0.0)
    buffer.add("big", 2, 20, now=1.0)
    evicted = buffer.add("new", 3, 10, now=2.0)
    assert [entry.key for entry in evicted] == ["big"]
    assert buffer.keys() == ["small", "new"]


def test_bounded_buffer_evicts_soonest_expiry_first():
    buffer = BoundedBuffer(capacity_bytes=30, policy=EVICT_SOONEST_EXPIRY)
    buffer.add("immortal", 1, 10, now=0.0)
    buffer.add("late", 2, 10, now=0.0, ttl_s=100.0)
    buffer.add("soon", 3, 10, now=0.0, ttl_s=5.0)
    evicted = buffer.add("new", 4, 10, now=1.0, ttl_s=50.0)
    assert [entry.key for entry in evicted] == ["soon"]
    assert sorted(buffer.keys()) == ["immortal", "late", "new"]


def test_bounded_buffer_rejects_entry_larger_than_capacity():
    buffer = BoundedBuffer(capacity_bytes=10)
    rejected = buffer.add("huge", 1, 11, now=0.0)
    assert [entry.key for entry in rejected] == ["huge"]
    assert len(buffer) == 0 and buffer.evicted == 1


def test_bounded_buffer_replacing_a_key_is_not_an_eviction():
    buffer = BoundedBuffer(capacity_bytes=20)
    buffer.add("k", "old", 10, now=0.0)
    assert buffer.add("k", "new", 15, now=1.0) == []
    assert buffer.get("k").item == "new"
    assert buffer.used_bytes == 15
    assert buffer.evicted == 0


def test_bounded_buffer_replacement_keeps_queue_position_and_age():
    """Spray token updates must not rejuvenate a bundle: under
    EVICT_OLDEST the re-stored key still counts as the oldest."""
    buffer = BoundedBuffer(capacity_bytes=30, policy=EVICT_OLDEST)
    buffer.add("a", 1, 10, now=0.0)
    buffer.add("b", 2, 10, now=50.0)
    buffer.add("a", "updated", 10, now=100.0)   # in-place replacement
    assert buffer.keys() == ["a", "b"]          # position preserved
    assert buffer.get("a").stored_at == 0.0     # custody age preserved
    evicted = buffer.add("c", 3, 20, now=200.0)
    assert [entry.key for entry in evicted] == ["a"]  # still the oldest


def test_bounded_buffer_ttl_expiry_is_lazy_and_counted():
    buffer = BoundedBuffer()
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=50.0)
    buffer.add("c", 3, 10, now=0.0)          # immortal
    assert buffer.drop_expired(4.9) == []
    dropped = buffer.drop_expired(5.0)       # expiry instant inclusive
    assert [entry.key for entry in dropped] == ["a"]
    assert buffer.expired == 1
    assert buffer.drop_expired(1000.0)[0].key == "b"
    assert buffer.keys() == ["c"]


def _full_scan_sweep(buffer, now):
    """Reference sweep: test every entry, as before the expiry floor."""
    victims = [entry for entry in buffer.entries()
               if entry.expires_at is not None and now >= entry.expires_at]
    for victim in victims:
        buffer.remove(victim.key)
    return [victim.key for victim in victims]


def _add_replace_shorter(buffer):
    buffer.add("a", 1, 10, now=0.0, ttl_s=100.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=50.0)
    buffer.add("a", 1, 10, now=1.0, ttl_s=2.0)      # a now dies at 3


def _add_replace_longer(buffer):
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=50.0)
    buffer.add("a", 1, 10, now=1.0, ttl_s=100.0)    # a now dies at 101


def _remove_earliest(buffer):
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=20.0)
    buffer.remove("a")                               # floor left stale


def _drop_matching_earliest(buffer):
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=20.0)
    buffer.add("c", 3, 10, now=0.0)
    buffer.drop_matching(lambda entry: entry.key == "a")


def _immortal_entries(buffer):
    buffer.add("a", 1, 10, now=0.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=7.0)
    buffer.add("c", 3, 10, now=0.0)


def _evicted_earliest(buffer):
    buffer.add("a", 1, 10, now=0.0, ttl_s=5.0)
    buffer.add("b", 2, 10, now=0.0, ttl_s=20.0)
    buffer.add("c", 3, 10, now=0.0, ttl_s=30.0)     # evicts a at 20 B


@pytest.mark.parametrize("setup,capacity", [
    (_add_replace_shorter, None), (_add_replace_longer, None),
    (_remove_earliest, None), (_drop_matching_earliest, None),
    (_immortal_entries, None), (_evicted_earliest, 20)])
def test_bounded_buffer_expiry_floor_matches_a_full_scan(setup, capacity):
    """The floor only skips sweeps that would find nothing: every sweep
    returns the victims and ``expired`` count a full scan would, at
    instants before, exactly at and after each expiry."""
    buffer = BoundedBuffer(capacity_bytes=capacity)
    reference = BoundedBuffer(capacity_bytes=capacity)
    setup(buffer)
    setup(reference)
    assert buffer.keys() == reference.keys()
    expired = 0
    for now in (1.0, 2.9, 3.0, 4.0, 5.0, 6.0, 7.0, 19.9, 20.0, 25.0,
                30.0, 100.0, 101.0, 1e9):
        expected = _full_scan_sweep(reference, now)
        expired += len(expected)
        assert [entry.key for entry in buffer.drop_expired(now)] == expected
        assert buffer.expired == expired
        assert buffer.keys() == reference.keys()


def test_bounded_buffer_expiry_floor_skips_until_the_earliest_expiry():
    buffer = BoundedBuffer()
    assert buffer.expiry_floor == float("inf")
    buffer.add("a", 1, 10, now=0.0)                  # immortal
    assert buffer.expiry_floor == float("inf")
    buffer.add("b", 2, 10, now=0.0, ttl_s=8.0)
    buffer.add("c", 3, 10, now=0.0, ttl_s=4.0)
    assert buffer.expiry_floor == 4.0
    assert buffer.drop_expired(3.99) == []
    assert [entry.key for entry in buffer.drop_expired(4.0)] == ["c"]
    assert buffer.expiry_floor == 8.0                # recomputed
    assert [entry.key for entry in buffer.drop_expired(8.0)] == ["b"]
    assert buffer.expiry_floor == float("inf")
    assert buffer.keys() == ["a"] and buffer.expired == 2


def test_bounded_buffer_deliberate_removal_not_counted():
    buffer = BoundedBuffer(capacity_bytes=100)
    buffer.add("a", 1, 10, now=0.0)
    buffer.add("b", 2, 10, now=0.0)
    assert buffer.remove("a").item == 1
    assert buffer.remove("missing") is None
    dropped = buffer.drop_matching(lambda entry: entry.key == "b")
    assert [entry.key for entry in dropped] == ["b"]
    assert buffer.evicted == 0 and buffer.expired == 0
    assert len(buffer) == 0 and buffer.used_bytes == 0


def reliable_sink(node, received):
    """Register a service that reads through a ReliableChannel."""

    def handler(connection):
        channel = ReliableChannel(connection)

        def serve():
            while True:
                try:
                    payload = yield from channel.receive()
                except ConnectionClosedError:
                    return
                received.append(payload)
        return serve()

    node.library.register_service("reliable.sink", handler)


def settled_pair(seed):
    scenario = Scenario(seed=seed)
    client = scenario.add_node("client", position=(0, 0))
    server = scenario.add_node("server", position=(5, 0),
                               mobility_class="static")
    received = []
    reliable_sink(server, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("client", "server")
    return scenario, client, server, received


def test_in_order_delivery_and_ack_trimming():
    scenario, client, server, received = settled_pair(seed=71)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection, ack_every=4)
        for index in range(10):
            channel.send(index, 64)
            yield sim.timeout(0.5)
        yield sim.timeout(10.0)
        return channel

    channel = scenario.run_process(run(scenario.sim))
    assert received == list(range(10))
    # Cumulative acks trimmed the window (at most ack_every-1 linger
    # until the next ack batch; the final resend loop clears the rest).
    assert channel.unacknowledged <= 4


def test_sequence_numbers_are_monotone():
    scenario, client, server, _ = settled_pair(seed=72)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection)
        sequences = [channel.send(i, 8) for i in range(5)]
        yield sim.timeout(1.0)
        return sequences

    sequences = scenario.run_process(run(scenario.sim))
    assert sequences == [1, 2, 3, 4, 5]


def test_validation():
    scenario, client, server, _ = settled_pair(seed=73)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        return connection

    connection = scenario.run_process(run(scenario.sim))
    with pytest.raises(ValueError):
        ReliableChannel(connection, ack_every=0)
    with pytest.raises(ValueError):
        ReliableChannel(connection, resend_interval_s=0)


def test_handover_with_buffering_loses_nothing():
    """§6.1: buffering guarantees data integrity across the handover.

    The raw Fig. 5.8 runs occasionally lose a frame that was in flight
    on the old chain when the transport was substituted; with the
    ReliableChannel every message arrives exactly once, in order.
    """
    losses_plain = 0
    for seed in (17, 18, 19, 20):
        scenario = fig_5_8_handover(seed=seed)
        server, client = scenario.node("A"), scenario.node("B")
        received = []
        reliable_sink(server, received)
        scenario.start_all()
        scenario.run(until=SETTLE_S)
        if not scenario.wait_for_route("B", "A"):
            continue

        def run(sim, scenario=scenario, client=client, server=server):
            connection = yield from client.library.connect(
                server.address, "reliable.sink", retries=6)
            channel = ReliableChannel(connection, ack_every=4,
                                      resend_interval_s=3.0)
            scenario.world.install_linear_decay(
                "A", "B", BLUETOOTH, initial_quality=240)
            thread = HandoverThread(client.library, connection).start()
            for index in range(50):
                channel.send(index, 64)
                yield sim.timeout(1.0)
            yield sim.timeout(15.0)
            thread.stop()
            return connection, channel

        connection, channel = scenario.run_process(run(scenario.sim))
        assert connection.handovers >= 1, "the run must exercise handover"
        assert received == list(range(50)), (
            f"seed {seed}: buffered stream lost or reordered data: "
            f"{len(received)} items")


def test_duplicates_are_dropped():
    """Retransmission after handover must not double-deliver."""
    scenario = fig_5_8_handover(seed=21)
    server, client = scenario.node("A"), scenario.node("B")
    received = []
    reliable_sink(server, received)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    assert scenario.wait_for_route("B", "A")

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection, ack_every=100,
                                  resend_interval_s=2.0)
        # With acks this rare, the resend loop retransmits the full
        # window repeatedly; the receiver must deduplicate.
        for index in range(8):
            channel.send(index, 64)
            yield sim.timeout(1.0)
        yield sim.timeout(10.0)
        return channel

    scenario.run_process(run(scenario.sim))
    assert received == list(range(8))


def test_close_flushes_final_ack():
    scenario, client, server, received = settled_pair(seed=74)

    def run(sim):
        connection = yield from client.library.connect(
            server.address, "reliable.sink", retries=6)
        channel = ReliableChannel(connection)
        channel.send("only", 64)
        yield sim.timeout(3.0)
        channel.close("done")
        yield sim.timeout(2.0)
        return channel

    scenario.run_process(run(scenario.sim))
    assert received == ["only"]

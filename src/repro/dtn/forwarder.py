"""The store-carry-forward forwarder: custody exchange at contact events.

The plane's mechanics live here, policy-free (routers supply policy,
:mod:`repro.dtn.routing`; stateful routers additionally observe
contacts through ``on_contact`` and ship ``control_bytes`` at every
contact-open).  Transfers here are *instantaneous* — the
infinite-contact-bandwidth baseline; the bandwidth-limited plane that
schedules transfers within the contact window is
:class:`repro.dtn.capacity.BandwidthDtnOverlay`, built on these same
mechanics.  Three classes:

* :class:`DtnPlane` — stores, bundle injection, the contact-synchronous
  exchange cascade, delivery bookkeeping.  Knows nothing about *how*
  contacts are detected.
* :class:`DtnOverlay` — the event-driven forwarder (the tentpole): one
  repeating link watch per node pair from the connectivity bus's
  contact feed (:mod:`repro.radio.bus`), so the forwarder wakes
  **only** at predicted LinkUp/LinkDown instants.  ``wakeups`` counts
  exactly those callback firings — the invariant *no forwarder wakeup
  without a scheduled contact event* is checkable as
  ``overlay.wakeups <= world.stats.bus.fired``.
* :class:`PollingDtnOverlay` — the 1 s polling oracle kept as the test
  and benchmark baseline: a process ticks every ``poll_interval_s``,
  re-derives the adjacency of every node from the spatial grid and
  diffs it.  Each tick wakes every node's forwarder, so ``wakeups``
  grows as ``N × duration / interval`` — the figure the event-driven
  overlay beats ≥ 5× in ``benchmarks/bench_dtn_delivery.py``.

Exchange semantics (both implementations share them):

1. On contact-up (and on every injection), the two stores drop expired
   bundles (lazy TTL — no timers), trade summary vectors
   (``dtn-control`` traffic on the shared meter) and the router picks
   what to transmit (``dtn-data``).
2. Transfers *cascade*: a node whose store grew immediately re-offers
   to its other current contacts, so a connected cluster equilibrates
   within the contact instant (the infinite-contact-bandwidth baseline
   assumption; documented in docs/ARCHITECTURE.md).
3. Delivery to the destination releases the transmitting custodian's
   copy and records one :class:`DeliveryRecord` per bundle (first copy
   wins; summary vectors stop later copies).
4. Settled pairs are skipped: a directed pair whose full offer pass
   found nothing to send is stamped with both stores'
   :attr:`~repro.dtn.store.MessageStore.version`; while the stamp still
   matches (and neither store has reached its earliest expiry) the next
   pass would find nothing again, so it is not run.  This needs
   ``eligible`` to be a pure function of the bundle and the peer, so it
   only applies to routers that keep the base ``Router.offers``.

Churn: a node that is ``power_off()``/``remove_node()``-ed mid-carry
loses its buffered bundles (``DtnCounters.dropped_dead``) and leaves
every adjacency — the bus cancels its watches (no contact event for a
dead node ever fires), the overlay's ``on_cancel`` hook notices and
retires the node, and the plane refuses new sends naming it.  A bundle
*destined* to a dead node is never delivered; it ages out by TTL.

Units: metres / sim-seconds / bytes throughout.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.core.buffering import EVICT_OLDEST
from repro.dtn.bundle import (
    DEFAULT_SIZE_BYTES,
    DEFAULT_TTL_S,
    Bundle,
)
from repro.dtn.routing import Router
from repro.dtn.store import MessageStore
from repro.metrics.counters import DtnCounters, TrafficMeter
from repro.radio.bus import LINK_UP, ConnectivityEvent
from repro.radio.technologies import Technology, get_technology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.world import World

#: Bytes charged per bundle id in a summary-vector exchange.
SUMMARY_VECTOR_ID_BYTES = 8

#: Adjacency stamp of a pair with no settled offer pass (versions are
#: never negative).
_UNSETTLED = -1


@dataclasses.dataclass(frozen=True)
class DeliveryRecord:
    """One bundle's arrival at its destination."""

    bundle_id: str
    source: str
    destination: str
    custodian: str           #: the node that handed the copy over
    created_at: float
    delivered_at: float

    @property
    def latency_s(self) -> float:
        """Creation-to-delivery delay, sim-seconds."""
        return self.delivered_at - self.created_at


class DtnPlane:
    """Stores + exchange mechanics over a set of world nodes.

    ``nodes`` defaults to every world node carrying ``tech``, sorted.
    One :class:`~repro.metrics.counters.DtnCounters` instance is shared
    by all stores; byte volume rides ``meter`` (``dtn-data`` /
    ``dtn-control`` categories) when one is supplied.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 nodes: typing.Sequence[str] | None = None,
                 capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST,
                 meter: TrafficMeter | None = None):
        self.world = world
        self.sim = world.sim
        self.router = router
        self.tech = get_technology(tech) if isinstance(tech, str) else tech
        if nodes is None:
            nodes = [n for n in world.node_ids()
                     if self.tech.name in world.node(n).technologies]
        self.counters = DtnCounters()
        self.meter = meter
        self.stores: dict[str, MessageStore] = {
            name: MessageStore(name, capacity_bytes=capacity_bytes,
                               policy=policy, counters=self.counters)
            for name in sorted(nodes)}
        self.delivered: dict[str, DeliveryRecord] = {}
        #: Contact-event callback firings (see class docstrings).
        self.wakeups = 0
        #: Current contacts with their settled stamps: node → {contact:
        #: the contact's store version when the node's last offer pass
        #: to it found nothing to send, else ``_UNSETTLED``}.  Stamps
        #: hold only while the node's own version equals
        #: ``_settled_at[node]``; the first stamp at a newer version
        #: clears the others.  Contact-up resets a pair's stamps and
        #: contact-down drops them with the adjacency.
        self._adjacent: dict[str, dict[str, int]] = {
            name: {} for name in self.stores}
        self._settled_at: dict[str, int] = {}
        self._dead: set[str] = set()
        self._sequences: dict[str, int] = {}
        #: Installed fault plane, if the world carries one (crash /
        #: deaf-mute / jammer / byzantine injection — :mod:`repro.faults`).
        self.faults = getattr(world, "faults", None)
        if self.faults is not None:
            self.faults.add_listener(self)
        #: Installed lossy PHY plane, if any (:mod:`repro.radio.phy`).
        #: ``None`` keeps every hook below on the literal pre-PHY path.
        self.phy = getattr(world, "phy", None)
        #: Directed pairs ``(listener, speaker)`` whose contact-open
        #: control exchange was PHY-lost: the listener never heard the
        #: speaker's summary vector and offers blind (sees the empty
        #: vector) for the rest of the contact.  Cleared at
        #: :meth:`contact_down`.
        self._blind: set[tuple[str, str]] = set()
        #: Only the base offer pass is a function of store content and
        #: vector alone; a router that overrides ``offers`` never skips.
        self._skips_settled = type(router).offers is Router.offers
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.register_dtn(self)

    @property
    def telemetry(self):
        """The world's attached recorder, if any (looked up live so the
        plane works regardless of attach order; ``None`` costs one
        attribute read per hook site)."""
        return getattr(self.world, "telemetry", None)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str,
             size_bytes: int = DEFAULT_SIZE_BYTES,
             ttl_s: float = DEFAULT_TTL_S) -> Bundle:
        """Inject one bundle at ``source`` addressed to ``destination``.

        The source takes custody immediately and the exchange cascade
        runs at once, so a destination already in contact receives the
        bundle in the same instant.  Raises ``KeyError`` for nodes the
        plane does not manage and ``ValueError`` for dead (powered-off)
        endpoints — sending *to* the dead is refused at the edge; a
        node that dies *later* simply never receives (TTL reaps the
        copies).
        """
        for name in (source, destination):
            if name not in self.stores:
                raise KeyError(f"node {name!r} is not on the DTN plane")
            if name in self._dead:
                raise ValueError(
                    f"node {name!r} was removed from the world; "
                    f"bundles cannot originate at or target it")
        if self.faults is not None and self.faults.is_crashed(source):
            raise ValueError(
                f"node {source!r} is crashed; bundles cannot originate "
                f"at a dark node (a crashed *destination* is fine — the "
                f"bundle waits out the outage)")
        sequence = self._sequences.get(source, 0) + 1
        self._sequences[source] = sequence
        copies = getattr(self.router, "initial_copies", 1)
        bundle = Bundle(bundle_id=f"{source}#{sequence}", source=source,
                        destination=destination, created_at=self.sim.now,
                        ttl_s=ttl_s, size_bytes=size_bytes, copies=copies)
        self.counters.created += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.bundle_injected(bundle.bundle_id, source,
                                      destination, size_bytes)
        self.stores[source].add(bundle, self.sim.now)
        self._cascade_from(source)
        return bundle

    # ------------------------------------------------------------------
    # contact bookkeeping (shared by both detection strategies)
    # ------------------------------------------------------------------
    def contact_up(self, a: str, b: str) -> None:
        """A contact opened: record adjacency and equilibrate.

        The router observes the encounter first (``on_contact`` — the
        PRoPHET predictability updates), then control traffic is
        metered (summary vectors + router control vectors), then the
        exchange cascade runs.  The pair's settled stamps are dropped
        first, so both directions get a full offer pass.  The cascade
        costs O(cluster) exchanges, but an exchange over a settled pair
        is O(1): attaching to a clique of k empty stores makes at most
        k(k−1) offer passes.
        """
        if a in self._dead or b in self._dead:
            return
        if a not in self.stores or b not in self.stores:
            return
        self._open_contact(a, b)
        self._exchange(a, b)
        self._exchange(b, a)
        self._cascade_from(a)
        self._cascade_from(b)

    def contact_down(self, a: str, b: str) -> None:
        """A contact closed: forget the adjacency.  O(1)."""
        self._adjacent.get(a, {}).pop(b, None)
        self._adjacent.get(b, {}).pop(a, None)
        if self._blind:
            self._blind.discard((a, b))
            self._blind.discard((b, a))

    def _link(self, a: str, b: str) -> None:
        """Record the adjacency, with neither direction settled."""
        self._adjacent[a][b] = _UNSETTLED
        self._adjacent[b][a] = _UNSETTLED

    def _stamp_settled(self, carrier: str, peer: str) -> None:
        """The carrier's offer pass to ``peer`` found nothing to send."""
        contacts = self._adjacent[carrier]
        if peer not in contacts:
            return
        version = self.stores[carrier].version
        if self._settled_at.get(carrier) != version:
            self._settled_at[carrier] = version
            for other in contacts:
                contacts[other] = _UNSETTLED
        contacts[peer] = self.stores[peer].version

    def _open_contact(self, a: str, b: str,
                      airtime: typing.Callable[[int], float] | None = None,
                      ) -> int:
        """Link the pair, let the router observe the encounter, then
        meter both control vectors and put them on the lossy air.

        ``airtime`` prices a vector's air window (``None``: the
        technology's).  A lost vector leaves the *receiver* blind about
        the speaker for the rest of this contact — it offers against the
        empty vector, re-offering bundles the peer already holds.  The
        bytes count either way: the speaker spent the airtime.  Returns
        both directions' control bytes.
        """
        self._link(a, b)
        self.router.on_contact(a, b, self.sim.now)
        directions = [(sender, receiver,
                       self.contact_control_bytes(sender, receiver))
                      for sender, receiver in ((a, b), (b, a))]
        if self.meter is not None:
            for sender, _, size in directions:
                self.meter.count(sender, "dtn-control", size)
        if self.phy is not None:
            for sender, receiver, size in directions:
                if not self.phy.transmit(
                        sender, receiver, size, kind="control",
                        tech=self.tech, duration_s=None if airtime is None
                        else airtime(size)):
                    self._blind.add((receiver, sender))
        return sum(size for _, _, size in directions)

    def contacts(self, node_id: str) -> list[str]:
        """Current contacts of ``node_id``, sorted."""
        return sorted(self._adjacent.get(node_id, ()))

    def contact_control_bytes(self, sender: str, receiver: str) -> int:
        """Control bytes ``sender`` ships when this contact opens.

        Its summary vector (8 B per seen id) plus the router's own
        control vector (:meth:`~repro.dtn.routing.Router.
        control_bytes` — 0 for the stateless baselines, the
        predictability table for PRoPHET).  O(1) while the summary
        vector is cached, O(seen) to rebuild it.
        """
        return (SUMMARY_VECTOR_ID_BYTES
                * len(self.stores[sender].summary_vector())
                + self.router.control_bytes(sender, receiver))

    def _peer_vector(self, peer: str, carrier: str) -> frozenset:
        """The peer's summary vector *as the carrier heard it*.

        Byzantine hook plus PHY control blindness: a carrier whose
        contact-open control reception was PHY-lost heard nothing and
        offers against the empty vector.  Ground truth — ``has_seen``,
        delivery, custody settlement — never goes through here: the
        distortions are about advertisement, not about reception.
        """
        if (carrier, peer) in self._blind:
            return frozenset()
        vector = self.stores[peer].summary_vector()
        if self.faults is not None:
            return self.faults.advertised_vector(peer, vector)
        return vector

    def _exchange(self, carrier: str, peer: str) -> bool:
        """One-directional offer pass; True if the peer's store grew.

        The fault gate, both expiry sweeps and the advertised vector
        run first, because they count faults and drop bundles.  A pair
        settled at the current store versions then returns at once;
        the skip needs the peer's true vector (blind and byzantine
        advertisements never skip).
        """
        if (self.faults is not None
                and not self.faults.can_transmit(carrier, peer)):
            return False
        now = self.sim.now
        carrier_store = self.stores[carrier]
        peer_store = self.stores[peer]
        carrier_store.expire(now)
        peer_store.expire(now)
        vector = self._peer_vector(peer, carrier)
        skips = (self._skips_settled
                 and vector is peer_store.summary_vector())
        if (skips
                and self._settled_at.get(carrier) == carrier_store.version
                and self._adjacent[carrier].get(peer) == peer_store.version):
            return False
        offers = self.router.offers(carrier_store, peer, vector)
        if not offers:
            if skips:
                self._stamp_settled(carrier, peer)
            return False
        grew = False
        for bundle in offers:
            if peer_store.has_seen(bundle.bundle_id):
                self.counters.duplicates += 1
                continue
            if (self.phy is not None
                    and not self.phy.transmit(carrier, peer,
                                              bundle.size_bytes,
                                              tech=self.tech)):
                # Copy lost on the air: the bytes were spent, custody
                # did not move, no spray token was burnt.  The bundle
                # is re-offered at the pair's next exchange event.
                if self.meter is not None:
                    self.meter.count(carrier, "dtn-data",
                                     bundle.size_bytes)
                continue
            self.counters.transmissions += 1
            if self.meter is not None:
                self.meter.count(carrier, "dtn-data", bundle.size_bytes)
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.bundle_forwarded(bundle.bundle_id, carrier, peer)
            peer_copy = self.router.after_transmit(
                carrier_store, bundle, peer, now)
            if bundle.destination == peer:
                self._deliver(bundle, carrier, peer)
            elif peer_store.add(peer_copy, now):
                grew = True
        return grew

    def _deliver(self, bundle: Bundle, custodian: str,
                 destination: str) -> None:
        self.stores[destination].mark_seen(bundle.bundle_id)
        if bundle.bundle_id in self.delivered:
            return   # a later copy slipped through: first arrival wins
        self.counters.delivered += 1
        self.delivered[bundle.bundle_id] = DeliveryRecord(
            bundle_id=bundle.bundle_id, source=bundle.source,
            destination=destination, custodian=custodian,
            created_at=bundle.created_at, delivered_at=self.sim.now)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.bundle_delivered(bundle.bundle_id, custodian)

    def _cascade_from(self, origin: str) -> None:
        """Re-offer outward from ``origin`` until the cluster settles.

        FIFO over nodes whose store changed, contacts visited in sorted
        order — deterministic, and monotone in the union of seen sets,
        so it terminates.  The cluster-wide equilibrium models contacts
        whose duration dwarfs the transmission time of the buffered
        bundles (the baseline assumption; see module docstring).
        Without a fault plane nothing counts gates or advertisements,
        so a pair still settled at the current store versions, with
        neither store at its earliest expiry, is skipped here without
        calling :meth:`_exchange`.
        """
        settled_at = (self._settled_at if self._skips_settled
                      and self.faults is None else None)
        now = self.sim.now
        stores = self.stores
        queue: collections.deque[str] = collections.deque([origin])
        while queue:
            node = queue.popleft()
            if node in self._dead:
                continue
            contacts = self._adjacent[node]
            for peer in sorted(contacts):
                if peer in self._dead:
                    continue
                if settled_at is not None:
                    carrier_store, peer_store = stores[node], stores[peer]
                    if (settled_at.get(node) == carrier_store.version
                            and contacts.get(peer) == peer_store.version
                            and now < carrier_store.expiry_floor
                            and now < peer_store.expiry_floor):
                        continue
                if self._exchange(node, peer):
                    queue.append(peer)

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def retire_node(self, node_id: str) -> None:
        """The node left the world: drop custody, leave every contact.

        Idempotent.  Buffered bundles are counted ``dropped_dead``; the
        node's delivery history stays (what arrived, arrived).
        """
        if node_id in self._dead or node_id not in self.stores:
            return
        self._dead.add(node_id)
        victims = self.stores[node_id].drop_all()
        self._telemetry_losses(victims, "custodian-removed")
        for peer in list(self._adjacent.get(node_id, ())):
            self.contact_down(node_id, peer)

    def live_nodes(self) -> list[str]:
        """Plane nodes not yet retired, sorted."""
        return [n for n in self.stores if n not in self._dead]

    def retired(self, node_id: str) -> bool:
        """True once the node left the world (power-off churn).  O(1)."""
        return node_id in self._dead

    def crashed(self, node_id: str) -> bool:
        """True while the node is crash-suspended (fault plane).  O(1)."""
        return self.faults is not None and self.faults.is_crashed(node_id)

    # ------------------------------------------------------------------
    # fault-plane listener hooks
    # ------------------------------------------------------------------
    def on_crash(self, node_id: str) -> None:
        """A crash-reboot outage began: full state loss, contacts close.

        Unlike :meth:`retire_node` the node stays on the plane — it
        returns at reboot with an empty store and no memory of what it
        had seen (:meth:`~repro.dtn.store.MessageStore.wipe`).
        Buffered bundles are counted ``dropped_dead`` like any custodian
        death; stateful routers drop the node's state
        (:meth:`~repro.dtn.routing.Router.on_crash`).  The fault plane
        calls this *before* ``World.suspend_node``, so adjacency closes
        here while the bus still reports pre-fault geometry (the
        synthetic LinkDowns that follow find the contacts already
        gone — a harmless no-op).
        """
        if node_id not in self.stores or node_id in self._dead:
            return
        victims = self.stores[node_id].wipe()
        self._telemetry_losses(victims, "custodian-crashed")
        self.router.on_crash(node_id)
        for peer in list(self._adjacent.get(node_id, ())):
            self.contact_down(node_id, peer)

    def on_reboot(self, node_id: str) -> None:
        """A crash-reboot outage ended.  Nothing to restore — the state
        loss already happened at crash; the bus's synthetic LinkUps
        (``World.resume_node``) reopen whatever contacts are in range.
        """

    def _telemetry_losses(self, victims: list[Bundle],
                          reason: str) -> None:
        """Close bundle spans whose *last* living copy just vanished.

        A multi-copy bundle's journey stays open while any other live
        store still holds it; only terminal losses end the span.  Runs
        only on (rare) churn/crash edges, O(victims × nodes).
        """
        telemetry = self.telemetry
        if telemetry is None or not victims:
            return
        for bundle in victims:
            if bundle.bundle_id in self.delivered:
                continue
            survives = any(
                bundle.bundle_id in store
                for name, store in self.stores.items()
                if name not in self._dead)
            if not survives:
                telemetry.bundle_dropped(bundle.bundle_id, reason)

    # ------------------------------------------------------------------
    # result views
    # ------------------------------------------------------------------
    def delivery_ratio(self) -> float:
        """Delivered / created (1.0 for an idle plane)."""
        if self.counters.created == 0:
            return 1.0
        return self.counters.delivered / self.counters.created

    def latencies(self) -> list[float]:
        """Delivery latencies in delivery order, sim-seconds."""
        return [record.latency_s for record in self.delivered.values()]

    def overhead_ratio(self) -> float:
        """Transmissions per delivery (the classic DTN overhead figure)."""
        return self.counters.transmissions / max(1, self.counters.delivered)


class DtnOverlay(DtnPlane):
    """Event-driven contact detection: the bus's contact feed.

    Pairs the feed reports in range at attach time get a synthetic
    contact-up (mirroring the contact-trace recorder's opening edge),
    because a settled in-range pair never produces a LinkUp event.
    ``detach()`` cancels the watches; the ``on_cancel`` hook
    distinguishes that teardown from the bus cancelling a dead node's
    watches.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 nodes: typing.Sequence[str] | None = None,
                 capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST,
                 meter: TrafficMeter | None = None):
        super().__init__(world, router, tech=tech, nodes=nodes,
                         capacity_bytes=capacity_bytes, policy=policy,
                         meter=meter)
        self._detached = False
        self._watches, seed_pairs = world.bus.watch_contacts(
            self.stores, self.tech, self._on_event,
            on_cancel=self._on_cancel)
        # Seed adjacency *after* the watches exist so cascades observe
        # the full current topology.
        for first, second in seed_pairs:
            self.contact_up(first, second)

    def _on_event(self, event: ConnectivityEvent) -> None:
        self.wakeups += 1
        if event.kind == LINK_UP:
            self.contact_up(event.node_a, event.node_b)
        else:
            self.contact_down(event.node_a, event.node_b)

    def _on_cancel(self, a: str, b: str) -> None:
        if self._detached:
            return
        # The bus cancels watches when World.remove_node drops an
        # endpoint (power-off churn): retire whichever side is gone.
        for name in (a, b):
            if name in self.stores and not self.world.has_node(name):
                self.retire_node(name)

    def detach(self) -> None:
        """Cancel every watch (measurement finished).  Idempotent."""
        self._detached = True
        for watch in self._watches.values():
            if watch.active:
                watch.cancel()
        self._watches.clear()


class PollingDtnOverlay(DtnPlane):
    """The 1 s polling oracle: adjacency re-derived every tick.

    Kept as the baseline the event-driven overlay is gated against
    (``bench_dtn_delivery``: ≥ 5× fewer wakeups at N = 500) and as the
    semantic cross-check (same delivered bundles on contacts longer
    than the poll interval; tests assert it).  Each tick charges one
    wakeup per live node — every node's forwarder ran, found (mostly)
    nothing, and went back to sleep, exactly the cost profile the
    event-driven design removes.
    """

    def __init__(self, world: "World", router: Router,
                 tech: Technology | str = "bluetooth",
                 nodes: typing.Sequence[str] | None = None,
                 capacity_bytes: int | None = None,
                 policy: str = EVICT_OLDEST,
                 meter: TrafficMeter | None = None,
                 poll_interval_s: float = 1.0):
        super().__init__(world, router, tech=tech, nodes=nodes,
                         capacity_bytes=capacity_bytes, policy=policy,
                         meter=meter)
        if poll_interval_s <= 0:
            raise ValueError(
                f"poll interval must be positive: {poll_interval_s}")
        self.poll_interval_s = poll_interval_s
        self._stopped = False
        for first, second in self._pairs_in_range():
            self.contact_up(first, second)
        self._process = self.sim.spawn(self._poll_loop(),
                                       name="dtn-polling-oracle")

    def _pairs_in_range(self):
        names = list(self.stores)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                if self.world.in_range(first, second, self.tech):
                    yield (first, second)

    def _poll_loop(self):
        while not self._stopped:
            yield self.sim.timeout(self.poll_interval_s)
            if self._stopped:
                return
            self.tick()

    def tick(self) -> None:
        """One polling round: wake every forwarder, diff adjacencies."""
        world = self.world
        for name in list(self.stores):
            if name not in self._dead and not world.has_node(name):
                self.retire_node(name)
        live = self.live_nodes()
        self.wakeups += len(live)
        fresh: dict[str, set[str]] = {}
        for name in live:
            found = world.neighbors(name, self.tech)
            fresh[name] = {peer for peer in found if peer in self.stores
                           and peer not in self._dead}
        for name in live:
            before = self._adjacent[name].keys()
            now = fresh[name]
            for peer in sorted(before - now):
                self.contact_down(name, peer)
            for peer in sorted(now - before):
                if name < peer:   # the peer's own pass covers the rest
                    self.contact_up(name, peer)

    def stop(self) -> None:
        """End the polling process after its current sleep."""
        self._stopped = True

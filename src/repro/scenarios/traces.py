"""Contact traces: record the connectivity-event stream, replay it later.

The event-driven core (PR 3) makes pairwise connectivity a first-class
*stream*: every LinkUp/LinkDown the solver predicts is a scheduled event.
This module taps that stream into the standard DTN/opportunistic-network
artifact — a **contact trace** — and replays it as a mobility-free
workload:

* :func:`record_contact_trace` subscribes to the bus's contact feed
  (one link watch per node pair) and runs the scenario; the result is a
  time-ordered list of
  rows (one JSON object per line when written), with *zero polling*:
  kernel wakeups occur only at actual contact changes.
* :func:`replay_trace` schedules a recorded stream on a fresh simulator
  and re-emits it through a callback — no world, no mobility models, no
  solver.  Replaying a recorded trace and re-serialising it reproduces
  the recorded file **byte for byte** (asserted in the tests), so traces
  are a portable workload: record once at mobility-simulation cost,
  re-run experiments against the contact stream at event-replay cost.

Trace format (JSONL, one object per event, canonical key order)::

    {"a": "v3", "b": "v7", "kind": "link-up", "t": 12.5, "tech": "wlan"}

``a`` < ``b`` (pairs are unordered), ``t`` in sim-seconds, ``kind`` one
of ``link-up`` / ``link-down``.  Quality events carry ``threshold``.
Pairs already in contact when recording starts get a synthetic
``link-up`` row at the recording start time, so a trace is
self-contained: per-pair kinds strictly alternate and every contact
interval has an opening edge.

:func:`replay_arena` is the registered mobility-free scenario the
experiment registry exposes for replay runs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import typing

from repro.radio.bus import ConnectivityEvent
from repro.radio.technologies import Technology, get_technology
from repro.scenarios.builder import Scenario
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------
def trace_row(event: ConnectivityEvent) -> dict:
    """JSON-safe canonical row for one connectivity event.  O(1).

    ``t`` is sim-seconds, ``a`` < ``b``; ``threshold`` (0–255) appears
    only on quality events.  Inverse of :func:`row_event`.
    """
    row = {
        "t": event.time,
        "kind": event.kind,
        "a": event.node_a,
        "b": event.node_b,
        "tech": event.tech,
    }
    if event.threshold is not None:
        row["threshold"] = event.threshold
    return row


def row_event(row: typing.Mapping) -> ConnectivityEvent:
    """Inverse of :func:`trace_row`; tolerant of JSON-parsed types.  O(1)."""
    return ConnectivityEvent(
        time=float(row["t"]), kind=str(row["kind"]),
        node_a=str(row["a"]), node_b=str(row["b"]),
        tech=str(row["tech"]),
        threshold=row.get("threshold"))


def trace_line(row: typing.Mapping) -> str:
    """Canonical single-line rendering (sorted keys, no spaces)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def trace_digest(rows: typing.Iterable[typing.Mapping]) -> str:
    """SHA-256 over the canonical line rendering of the stream.

    O(rows).  Two streams digest equal iff their canonical JSONL bytes
    are equal — the identity the record-vs-replay tests compare, cheap
    enough to ship in run records (the ``contact_trace`` workload).
    """
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(trace_line(row).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def write_trace(rows: typing.Iterable[typing.Mapping],
                path: str | pathlib.Path) -> pathlib.Path:
    """Write a trace as JSONL, deterministically.

    Canonical line rendering, ``\\n`` endings, parent directories
    created; same rows ⇒ same bytes on any platform.  O(rows).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        for row in rows:
            sink.write(trace_line(row) + "\n")
    return path


def load_trace(path: str | pathlib.Path) -> list[dict]:
    """Read a JSONL trace back into rows (file order preserved).

    Blank lines are skipped; no validation beyond JSON parsing —
    :func:`replay_trace` re-canonicalises through
    :func:`row_event`/:func:`trace_row`.  O(rows).
    """
    rows = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class ContactTraceRecorder:
    """Collects the connectivity events of the bus's contact feed.

    One repeating link watch per unordered node pair carrying the
    technology (:meth:`~repro.radio.bus.ConnectivityBus.watch_contacts`)
    — each dormant between crossings, so the recording itself costs
    kernel wakeups only when contacts change.
    """

    def __init__(self, scenario: Scenario, tech: Technology | str,
                 nodes: typing.Sequence[str] | None = None):
        self.scenario = scenario
        self.tech = get_technology(tech) if isinstance(tech, str) else tech
        world = scenario.world
        eligible = [name for name in (nodes if nodes is not None
                                      else scenario.nodes)
                    if world.has_node(name)
                    and self.tech.name in world.node(name).technologies]
        self.events: list[ConnectivityEvent] = []
        self._watches, in_range = world.bus.watch_contacts(
            eligible, self.tech, self.events.append)
        self.pairs: list[tuple[str, str]] = list(self._watches)
        # Opening edges for contacts already underway, so the stream
        # reconstructs full contact intervals.
        now = scenario.sim.now
        self.events.extend(
            ConnectivityEvent(now, "link-up", first, second, self.tech.name)
            for first, second in in_range)

    def detach(self) -> None:
        """Cancel all recorder watches (recording finished)."""
        for watch in self._watches.values():
            if watch.active:
                watch.cancel()
        self._watches.clear()

    def rows(self) -> list[dict]:
        """The recorded stream as serialisable rows, in firing order."""
        return [trace_row(event) for event in self.events]


def record_contact_trace(scenario: Scenario, tech: Technology | str,
                         until: float,
                         path: str | pathlib.Path | None = None,
                         nodes: typing.Sequence[str] | None = None,
                         ) -> list[dict]:
    """Record the pairwise contact stream of ``scenario`` up to ``until``.

    Installs the recorder, advances the simulation to ``until``
    (absolute sim-seconds), detaches, and returns the rows — written to
    ``path`` as JSONL when given.  The scenario's daemons need not be
    started: contacts are pure geometry.  Setup is O(pairs) watch
    installations (capped by the bus's contact feed); the run
    itself wakes the kernel only at actual contact changes, so a
    static world records in O(pairs) total.  Nodes removed mid-run
    simply stop producing events (their watches are cancelled by the
    bus); rows already recorded for them are kept.
    """
    recorder = ContactTraceRecorder(scenario, tech, nodes=nodes)
    scenario.run(until=until)
    recorder.detach()
    rows = recorder.rows()
    if path is not None:
        write_trace(rows, path)
    return rows


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class ReplayResult:
    """Outcome of one trace replay."""

    def __init__(self, rows: list[dict], final_time: float,
                 events_processed: int):
        self.rows = rows
        self.final_time = final_time
        self.events_processed = events_processed

    def digest(self) -> str:
        return trace_digest(self.rows)


def replay_trace(rows: typing.Sequence[typing.Mapping],
                 on_event: typing.Callable[[ConnectivityEvent], None]
                 | None = None) -> ReplayResult:
    """Re-run a recorded stream as scheduled events, mobility-free.

    Every row becomes one ``call_at`` on a fresh simulator; the kernel
    pops them in (time, insertion) order — identical to the recorded
    order — and re-emits each through ``on_event`` (when given).  The
    returned rows re-serialise byte-identically to the recording.
    O(rows log rows) kernel work, independent of the node count and
    mobility complexity that produced the trace — the point of
    replaying.  Rows must carry non-negative ``t`` in sim-seconds;
    ``on_event`` exceptions propagate (the replay is synchronous).
    """
    sim = Simulator(seed=0)
    replayed: list[dict] = []

    def emit(row: typing.Mapping) -> None:
        event = row_event(row)
        replayed.append(trace_row(event))
        if on_event is not None:
            on_event(event)

    for row in rows:
        sim.call_at(float(row["t"]), lambda row=row: emit(row),
                    name="trace-replay")
    sim.run()
    return ReplayResult(replayed, sim.now, sim.events_processed)


# ----------------------------------------------------------------------
# the registered mobility-free scenario
# ----------------------------------------------------------------------
def replay_arena(seed: int = 0, config=None) -> Scenario:
    """An empty world: the scenario under which traces are replayed.

    Replay needs no geometry — the contact stream *is* the environment —
    so the arena exists to give replay runs a registered scenario name
    in the experiments registry (specs are pure data and must name one).
    """
    return Scenario(seed=seed)

"""Span recorder for the benchmark's traced run.

The recorder wraps public entry points of each ``repro.<package>`` layer
from the outside (class attributes are swapped for the duration of a
sweep and restored afterwards); the program's source is not touched.
Every wrapped call either opens a *span* -- name, start, end, parent
span and cell index, kept in memory -- or, for hot leaf calls such as
``position``, only bumps a counter.  :func:`fold_self_time` turns the
spans into self time per layer: a span's duration minus the part its
child spans cover.

Attribution limits (what the fold can and cannot see):

* Only wrapped entry points open spans.  Work done in an unwrapped
  function is charged to the innermost open span, whatever its layer:
  ``World.position`` called from a DTN contact is ``dtn`` time, and
  counted-only calls (``position``, ``can_transmit``, ``Router.offers``,
  ``MessageStore.expire`` and the ``BoundedBuffer.drop_expired`` it
  calls) are charged to their caller's span, so DTN store expiry is
  ``dtn`` time although the buffer lives in ``repro.core``.
* Kernel events run inside the ``sim.step`` span.  Private callbacks
  scheduled with ``call_at`` -- the bus's ``_fire``/``_rearm``, fault
  ``_apply`` -- are charged to ``sim`` except for the parts that reach
  a wrapped public method (``contact_up``, ``crash_now`` ...).
* A process resume (``Process._step``) is charged to the layer of the
  generator that runs, found by following ``yield from`` to the
  innermost generator: a plugin scan loop is ``plugins`` time even
  though the kernel resumed it.
* ``repro.obs.SubsystemProfiler`` is not used: it buckets by kernel
  event label, so mobility work done inside a DTN contact event would
  land in ``dtn``.
* Wrapping costs a Python call per span; the traced run reports that
  overhead (traced minus untraced median cell time) instead of hiding
  it.  Use self *shares* from a traced run, not its absolute speed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import statistics
import time
import typing

#: Layer charged for code outside ``repro`` (and the cell root span).
ROOT_LAYER = "experiments"

#: (module, class or None, attribute, layer, mode).  ``mode`` is "span"
#: (timed), "count" (counted, not timed) or "both".  Counter names are
#: ``<layer>.<attribute>``.
TARGETS: tuple[tuple[str, str | None, str, str, str], ...] = (
    # scenarios: the build the workloads call, and node start-up
    ("repro.experiments.workloads", None, "build_scenario", "scenarios",
     "span"),
    ("repro.scenarios.builder", "Scenario", "start_all", "scenarios",
     "span"),
    # sim kernel
    ("repro.sim.kernel", "Simulator", "run", "sim", "span"),
    ("repro.sim.kernel", "Simulator", "step", "sim", "span"),
    # dtn
    ("repro.dtn.forwarder", "DtnOverlay", "__init__", "dtn", "span"),
    ("repro.dtn.capacity", "BandwidthDtnOverlay", "__init__", "dtn",
     "span"),
    ("repro.dtn.forwarder", "DtnPlane", "contact_up", "dtn", "both"),
    ("repro.dtn.capacity", "BandwidthDtnOverlay", "contact_up", "dtn",
     "both"),
    ("repro.dtn.forwarder", "DtnPlane", "contact_down", "dtn", "span"),
    ("repro.dtn.capacity", "BandwidthDtnOverlay", "contact_down", "dtn",
     "span"),
    ("repro.dtn.forwarder", "DtnPlane", "send", "dtn", "span"),
    ("repro.dtn.forwarder", "DtnPlane", "on_crash", "dtn", "span"),
    ("repro.dtn.forwarder", "DtnPlane", "on_reboot", "dtn", "span"),
    ("repro.dtn.routing", "Router", "offers", "dtn", "count"),
    ("repro.dtn.routing", "Prophet", "offers", "dtn", "count"),
    ("repro.dtn.store", "MessageStore", "expire", "dtn", "count"),
    # core
    ("repro.core.buffering", "BoundedBuffer", "drop_expired", "core",
     "count"),
    ("repro.core.daemon", "Daemon", "handle_discovery_fetch", "core",
     "both"),
    ("repro.core.device_storage", "DeviceStorage",
     "analyze_neighbourhood", "core", "both"),
    ("repro.core.device_storage", "DeviceStorage", "update_direct",
     "core", "span"),
    # radio: contact solver, bus, world queries, PHY
    ("repro.radio.contacts", "ContactSolver", "next_link_crossing",
     "radio", "both"),
    ("repro.radio.contacts", "ContactSolver", "next_quality_crossing",
     "radio", "both"),
    ("repro.radio.bus", "ConnectivityBus", "watch_link", "radio", "span"),
    ("repro.radio.bus", "ConnectivityBus", "watch_link_down", "radio",
     "span"),
    ("repro.radio.bus", "ConnectivityBus", "watch_quality_below", "radio",
     "span"),
    ("repro.radio.bus", "ConnectivityBus", "cancel", "radio", "span"),
    ("repro.radio.bus", "ConnectivityBus", "suspend_node", "radio",
     "both"),
    ("repro.radio.bus", "ConnectivityBus", "resume_node", "radio", "span"),
    ("repro.radio.world", "World", "neighbors", "radio", "span"),
    ("repro.radio.world", "World", "in_range", "radio", "span"),
    ("repro.radio.world", "World", "link_quality_at", "radio", "span"),
    ("repro.radio.phy", "PhyPlane", "transmit", "radio", "span"),
    ("repro.radio.phy", "PhyPlane", "begin", "radio", "span"),
    ("repro.radio.phy", "PhyPlane", "resolve", "radio", "span"),
    # mobility
    ("repro.mobility.waypoint", "RandomWaypoint", "linear_segments",
     "mobility", "both"),
    ("repro.mobility.linear", "LinearMovement", "linear_segments",
     "mobility", "both"),
    ("repro.mobility.linear", "PathMovement", "linear_segments",
     "mobility", "both"),
    ("repro.mobility.static", "StaticPosition", "linear_segments",
     "mobility", "both"),
    ("repro.mobility.walker", "CorridorWalk", "linear_segments",
     "mobility", "both"),
    ("repro.mobility.waypoint", "RandomWaypoint", "position", "mobility",
     "count"),
    ("repro.mobility.linear", "LinearMovement", "position", "mobility",
     "count"),
    ("repro.mobility.linear", "PathMovement", "position", "mobility",
     "count"),
    ("repro.mobility.static", "StaticPosition", "position", "mobility",
     "count"),
    ("repro.mobility.walker", "CorridorWalk", "position", "mobility",
     "count"),
    # faults
    ("repro.faults.plane", "FaultPlane", "arm", "faults", "span"),
    ("repro.faults.plane", "FaultPlane", "crash_now", "faults", "span"),
    ("repro.faults.plane", "FaultPlane", "reboot_now", "faults", "span"),
    ("repro.faults.plane", "FaultPlane", "advertised_vector", "faults",
     "span"),
    ("repro.faults.plane", "FaultPlane", "can_transmit", "faults",
     "count"),
)


class Span(typing.NamedTuple):
    """One finished span, as folded and written out."""

    name: str
    layer: str
    start: float
    end: float
    parent: int         #: index of the enclosing span, -1 for a root
    cell: int           #: cell index within the sweep, -1 outside cells


class SpanRecorder:
    """In-memory spans and counters for one traced sweep.

    Spans are stored as mutable ``[name_id, start, end, parent, cell]``
    lists (cheap to append in the hot path) and converted to
    :class:`Span` by :meth:`spans`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.raw: list[list] = []
        self.stack: list[int] = []
        self.cell = -1
        self.counts: dict[str, int] = {}
        #: Scenarios built in the current cell, read and dropped by
        #: :meth:`collect_world_stats`.
        self.scenarios: list = []

    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name and its layer."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return index

    def open(self, name_id: int) -> list:
        """Open a span under the current innermost one; returns it."""
        stack = self.stack
        span = [name_id, time.perf_counter(), 0.0,
                stack[-1] if stack else -1, self.cell]
        stack.append(len(self.raw))
        self.raw.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def collect_world_stats(self) -> None:
        """Add the current cell's world counters to :attr:`counts`."""
        counts = self.counts
        for scenario in self.scenarios:
            stats = scenario.world.stats
            for name, value in (
                    ("radio.neighbor_queries", stats.neighbor_queries),
                    ("radio.distance_checks", stats.distance_checks),
                    ("radio.bus_scheduled", stats.bus.scheduled),
                    ("radio.bus_fired", stats.bus.fired),
                    ("radio.bus_cancelled", stats.bus.cancelled)):
                counts[name] = counts.get(name, 0) + value
        self.scenarios.clear()

    def spans(self) -> list[Span]:
        return [Span(self.names[n], self.layers[n], s, e, p, c)
                for n, s, e, p, c in self.raw]

    def clear(self) -> None:
        """Drop recorded spans and counts (the name table is kept)."""
        self.raw.clear()
        self.stack.clear()
        self.counts.clear()
        self.scenarios.clear()
        self.cell = -1


def fold_self_time(spans: typing.Sequence[Span],
                   cell_scales: typing.Sequence[float] | None = None
                   ) -> dict[str, float]:
    """Self seconds per layer: each span minus its children's durations.

    Children are the spans whose ``parent`` points at a span; nesting
    within one layer (a subclass ``__init__`` calling its base's) nets
    out, so every host second inside a root span is counted once.  With
    ``cell_scales`` each span's self time is multiplied by its cell's
    scale (reference-speed seconds per host second).
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    folded: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - covered[index]
        if cell_scales is not None and span.cell >= 0:
            own *= cell_scales[span.cell]
        folded[span.layer] = folded.get(span.layer, 0.0) + own
    return folded


def layer_of_file(filename: str) -> str:
    """``repro.<package>`` layer of a source file, else :data:`ROOT_LAYER`."""
    parts = os.path.normpath(filename).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1]
    return ROOT_LAYER


def _span_wrapper(fn, recorder: SpanRecorder, name_id: int,
                  counter: str | None):
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counts[counter] = counts.get(counter, 0) + 1
        span = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
    return wrapper


def _count_wrapper(fn, counts: dict[str, int], counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] = counts.get(counter, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _process_step_wrapper(fn, recorder: SpanRecorder):
    """Span a process resume, charged to the generator that runs."""
    by_code: dict[object, int] = {}

    @functools.wraps(fn)
    def wrapper(process, payload, throw):
        generator = process._generator
        inner = getattr(generator, "gi_yieldfrom", None)
        while inner is not None and hasattr(inner, "gi_code"):
            generator = inner
            inner = generator.gi_yieldfrom
        code = getattr(generator, "gi_code", None)
        name_id = by_code.get(code)
        if name_id is None:
            layer = (layer_of_file(code.co_filename) if code is not None
                     else "sim")
            label = getattr(code, "co_qualname",
                            getattr(code, "co_name", "process"))
            name_id = by_code[code] = recorder.name_id(
                f"{layer}.process:{label}", layer)
        span = recorder.open(name_id)
        try:
            return fn(process, payload, throw)
        finally:
            recorder.close(span)
    return wrapper


class Patches:
    """Swap class/module attributes for wrappers; :meth:`restore` undoes.

    Used as a context manager so a failed sweep can never leave the
    program patched for the next one.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str,
            make: typing.Callable[[object], object]) -> None:
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every :data:`TARGETS` entry and ``Process._step``."""
    for module_name, class_name, attribute, layer, mode in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module,
                                                          class_name)
        counter = f"{layer}.{attribute}" if mode != "span" else None
        if mode == "count":
            patches.set(owner, attribute,
                        lambda fn, c=counter: _count_wrapper(
                            fn, recorder.counts, c))
            continue
        where = class_name or module_name.rsplit(".", 1)[-1]
        name_id = recorder.name_id(f"{layer}.{where}.{attribute}", layer)
        patches.set(owner, attribute,
                    lambda fn, n=name_id, c=counter: _span_wrapper(
                        fn, recorder, n, c))
    process_mod = importlib.import_module("repro.sim.process")
    patches.set(process_mod.Process, "_step",
                lambda fn: _process_step_wrapper(fn, recorder))
    workloads_mod = importlib.import_module("repro.experiments.workloads")
    patches.set(workloads_mod, "build_scenario",
                lambda fn: _capture_wrapper(fn, recorder.scenarios))


def _capture_wrapper(fn, sink: list):
    """Keep every scenario built, so its world counters can be read."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        scenario = fn(*args, **kwargs)
        sink.append(scenario)
        return scenario
    return wrapper


def write_spans(spans: typing.Sequence[Span], path: str) -> None:
    """Write spans as gzipped CSV (name, layer, start, end, parent, cell)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8",
                   newline="\n") as sink:
        sink.write("name,layer,start,end,parent,cell\n")
        for span in spans:
            sink.write(f"{span.name},{span.layer},{span.start:.9f},"
                       f"{span.end:.9f},{span.parent},{span.cell}\n")


#: Layers whose self time the traced run reports.
REPORTED_LAYERS = ("core", "plugins", "radio", "mobility", "dtn", "faults",
                   "sim", "scenarios", "experiments")

#: Counter name -> per-layer metric name (per cell, unit "count").
COUNTERS = {
    "dtn.contact_up": "dtn.contact_up_calls",
    "dtn.offers": "dtn.offers_calls",
    "dtn.expire": "dtn.store_expire_calls",
    "core.drop_expired": "core.buffer_expire_calls",
    "core.handle_discovery_fetch": "core.discovery_fetches",
    "core.analyze_neighbourhood": "core.analyze_calls",
    "mobility.linear_segments": "mobility.segments_calls",
    "mobility.position": "mobility.position_calls",
    "radio.crossings_solved": "radio.crossings_solved",
    "radio.bus_scheduled": "radio.bus_scheduled",
    "radio.bus_fired": "radio.bus_fired",
    "radio.bus_cancelled": "radio.bus_cancelled",
    "radio.suspend_node": "radio.bus_suspends",
    "radio.neighbor_queries": "radio.neighbor_queries",
    "radio.distance_checks": "radio.distance_checks",
    "faults.can_transmit": "faults.gate_calls",
}

_BUILD = "scenarios.workloads.build_scenario"


def _is_attach(name: str) -> bool:
    return name.startswith("dtn.") and name.endswith(".__init__")


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def _record_sum(records, suffix: str) -> int:
    return sum(value for record in records
               for key, value in record["metrics"].items()
               if key.endswith(suffix) and isinstance(value, int))


class LayerTotals:
    """Accumulates traced sweeps into the per-layer metrics."""

    def __init__(self) -> None:
        self.sweeps = 0
        self.cells = 0
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.records: list[dict] = []
        self.cell_walls: list[float] = []
        self.setups: list[float] = []
        self.builds: list[float] = []
        self.attaches: list[float] = []
        self.sim_events = 0

    def add(self, spans: typing.Sequence[Span], counts: dict[str, int],
            cells: typing.Sequence, records: list[dict]) -> None:
        """Fold one traced sweep; ``cells`` are the probe's cell timings.

        Every time is taken at reference speed: multiplied by its cell's
        ``scale`` (see :mod:`perfbench.calibration`).
        """
        self.sweeps += 1
        self.cells += len(cells)
        scales = [cell.scale for cell in cells]
        for layer, seconds in fold_self_time(spans, scales).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for name, value in counts.items():
            if name in ("radio.next_link_crossing",
                        "radio.next_quality_crossing"):
                name = "radio.crossings_solved"
            self.counts[name] = self.counts.get(name, 0) + value
        self.records.extend(records)
        builds = [0.0] * len(cells)
        attaches = [0.0] * len(cells)
        for span in spans:
            if not 0 <= span.cell < len(cells):
                continue
            first_run = cells[span.cell].first_run
            if first_run is None or span.end > first_run:
                continue   # only set-up (before the first run) counts
            if span.name == _BUILD:
                builds[span.cell] += span.end - span.start
            elif _is_attach(span.name) and not (
                    span.parent >= 0 and _is_attach(spans[span.parent].name)):
                attaches[span.cell] += span.end - span.start
        self.builds.extend(b * s for b, s in zip(builds, scales))
        self.attaches.extend(a * s for a, s in zip(attaches, scales))
        self.cell_walls.extend(cell.wall * cell.scale for cell in cells)
        self.setups.extend(cell.setup * cell.scale for cell in cells)
        self.sim_events += sum(cell.events for cell in cells)

    def metrics(self, *, untraced_cell_s: float, events_per_s: float,
                overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per cell unless it is a ratio or rate.

        ``untraced_cell_s``, ``events_per_s`` and ``overhead_s`` come
        from the untraced sweeps interleaved with the traced ones, so
        rates are not slowed by the tracing itself.
        """
        cells = max(self.cells, 1)
        out: dict[str, tuple[float, str]] = {}
        traced_cell_s = statistics.median(self.cell_walls)
        out["trace.cell_s"] = (traced_cell_s, "s")
        out["trace.overhead_s"] = (traced_cell_s - untraced_cell_s, "s")
        out["trace.setup_s"] = (statistics.median(self.setups), "s")
        out["scenarios.build_s"] = (statistics.median(self.builds), "s")
        out["dtn.attach_s"] = (statistics.median(self.attaches), "s")
        for layer in REPORTED_LAYERS:
            out[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0) / cells,
                                      "s")
        for counter, metric in COUNTERS.items():
            out[metric] = (self.counts.get(counter, 0) / cells, "count")
        records = self.records
        transmissions = _record_sum(records, "_transmissions")
        out["dtn.useful_offer_ratio"] = (
            _ratio(transmissions, self.counts.get("dtn.offers", 0)),
            "ratio")
        out["dtn.byte_useful_ratio"] = (
            _ratio(_record_sum(records, "_bytes_transferred"),
                   _record_sum(records, "_bytes_offered")), "ratio")
        phy_offered = _record_sum(records, "_phy_offered")
        out["radio.phy_offered"] = (phy_offered / cells, "count")
        out["radio.phy_delivered_ratio"] = (
            _ratio(_record_sum(records, "_phy_delivered"), phy_offered),
            "ratio")
        out["radio.bus_useful_ratio"] = (
            _ratio(self.counts.get("radio.bus_fired", 0),
                   self.counts.get("radio.bus_scheduled", 0)), "ratio")
        out["faults.crashes"] = (_record_sum(records, "_crashes") / cells,
                                 "count")
        out["sim.events"] = (self.sim_events / cells, "count")
        out["sim.events_per_s"] = (events_per_s, "1/s")
        out["experiments.overhead_s"] = (overhead_s, "s")
        return out

"""End-to-end benchmark of the PeerHood/DTN simulator.

Runs one workload (see :mod:`perfbench.workloads`) as cold, uncached
campaigns through ``run_campaign`` with the serial backend, in this
process, for ``--seconds`` of host time, and prints every metric by name
and unit.  Every number printed is host time or host memory; simulated
outputs are only checked (conservation laws per record, and byte
identity of each sweep's ``runs.jsonl`` with the first sweep's).

    python3 perfbench/run.py --workload dtn_ferry --seed 1 \\
        --seconds 25 --trace 0

Times are host seconds rescaled to a reference host speed, measured by
a calibration kernel before every cell (:mod:`perfbench.calibration`
says why); the raw host figures are printed above the result line.

``--trace 0`` reports the end-to-end metrics (``sweep_s``, ``cell_s``,
``setup_s``, ``sim_s_per_s``, ``peak_rss_mb``; ``failed_ratio`` is the
``failed``/``attempted`` pair).  ``--trace 1`` alternates untraced and
traced sweeps and reports the per-layer metrics folded from the span
recorder (:mod:`perfbench.tracing`); the first traced sweep's spans are
written to ``.perfbench/spans/<workload>.csv.gz`` (the latest traced run
of a workload replaces the file).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every cell passed its checks, 1 when any failed, 2 when the
program's sources cannot be found (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def _load_program() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    package = ROOT / "src" / "repro" / "experiments" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(
            f"no simulator sources under {ROOT / 'src'}; run the benchmark "
            f"from a full checkout")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


@dataclasses.dataclass
class Cell:
    """Host-time measurements of one executed cell."""

    start: float
    wall: float = 0.0
    first_run: float | None = None   #: first Simulator.run entry
    run_host: float = 0.0            #: host seconds inside Simulator.run
    run_sim: float = 0.0             #: simulated seconds advanced there
    events: int = 0                  #: kernel events processed there
    #: Reference-speed seconds per host second around this cell.
    scale: float = 1.0

    @property
    def setup(self) -> float:
        end = self.first_run if self.first_run is not None else (
            self.start + self.wall)
        return end - self.start


class CellProbe:
    """Cell boundaries, ``Simulator.run`` timing and calibration.

    Wraps ``campaign.execute_point_outcome`` (one call per executed
    cell) and ``Simulator.run``; a handful of calls per cell, so the
    untraced figures carry no measurable probe cost.  Before each cell's
    clock starts it times the calibration kernel; :meth:`finish` times
    it once more and gives each cell the mean of the samples on either
    side.  With a span recorder attached the cell wrapper also opens the
    root span of the cell and collects the world counters of every
    scenario it built.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.cells: list[Cell] = []
        self.kernels: list[float] = []
        self.calibration_s = 0.0     #: host time spent calibrating
        self._current: Cell | None = None
        self._root_id = (recorder.name_id("experiments.cell",
                                          "experiments")
                         if recorder is not None else None)

    def reset(self) -> None:
        self.cells, self.kernels, self.calibration_s = [], [], 0.0

    def calibrate(self) -> None:
        from perfbench.calibration import kernel_seconds

        started = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.calibration_s += time.perf_counter() - started

    def finish(self) -> None:
        """Close the sweep: one more kernel sample, then cell scales."""
        from perfbench.calibration import REFERENCE_KERNEL_S

        self.calibrate()
        for index, cell in enumerate(self.cells):
            around = (self.kernels[index] + self.kernels[index + 1]) / 2.0
            cell.scale = REFERENCE_KERNEL_S / around

    def install(self, patches) -> None:
        from repro.experiments import campaign
        from repro.sim.kernel import Simulator
        patches.set(campaign, "execute_point_outcome", self._wrap_cell)
        patches.set(Simulator, "run", self._wrap_run)

    def _wrap_cell(self, execute):
        probe = self

        def cell(point_dict, telemetry=False):
            probe.calibrate()
            current = probe._current = Cell(start=time.perf_counter())
            recorder = probe.recorder
            if recorder is not None:
                recorder.cell = len(probe.cells)
                span = recorder.open(probe._root_id)
            try:
                return execute(point_dict, telemetry=telemetry)
            finally:
                if recorder is not None:
                    recorder.close(span)
                    recorder.collect_world_stats()
                current.wall = time.perf_counter() - current.start
                probe.cells.append(current)
                probe._current = None
        return cell

    def _wrap_run(self, run):
        probe = self

        def timed_run(sim, until=None):
            current = probe._current
            if current is None:
                return run(sim, until)
            started = time.perf_counter()
            if current.first_run is None:
                current.first_run = started
            sim_before = sim.now
            events_before = sim.events_processed
            try:
                return run(sim, until)
            finally:
                current.run_host += time.perf_counter() - started
                current.run_sim += sim.now - sim_before
                current.events += sim.events_processed - events_before
        return timed_run


@dataclasses.dataclass
class Sweep:
    """One cold campaign: its timings, cells, records and bytes."""

    wall: float                      #: campaign wall, calibration excluded
    cells: list[Cell]
    records: list[dict]
    runs_bytes: bytes
    attempted: int
    failed: int                      #: cells that failed or broke a check
    problems: list[str]

    def scale(self) -> float:
        """Mean reference-speed scale of the sweep's cells."""
        return statistics.fmean(c.scale for c in self.cells)

    def scaled_wall(self) -> float:
        """Campaign wall at reference speed: each cell at its own scale,
        the campaign's own overhead at the sweep's mean scale."""
        return (sum(c.wall * c.scale for c in self.cells)
                + self.overhead())

    def overhead(self) -> float:
        """Sweep wall minus the sum of cell walls, at reference speed."""
        return (self.wall - sum(c.wall for c in self.cells)) * self.scale()


def run_sweep(spec, out_dir: pathlib.Path, probe: CellProbe) -> Sweep:
    """Execute ``spec`` cold (fresh directory, no cache) and check it."""
    from repro.experiments.campaign import CampaignError, run_campaign
    from repro.experiments.dispatch import SerialBackend
    from perfbench.workloads import check_record

    probe.reset()
    started = time.perf_counter()
    try:
        result = run_campaign(spec, out_dir, backend=SerialBackend())
    except CampaignError as error:
        result = error.result
    wall = time.perf_counter() - started - probe.calibration_s
    probe.finish()
    problems = [f"cell {f['label']}: {f['error']}"
                for f in result.stats.failures]
    failed = len(problems)
    for record in result.records:
        broken = check_record(record)
        failed += bool(broken)
        problems.extend(f"cell {record.get('run')}: {problem}"
                        for problem in broken)
    runs_bytes = result.jsonl_path.read_bytes()
    shutil.rmtree(out_dir, ignore_errors=True)
    return Sweep(wall=wall, cells=probe.cells, records=result.records,
                 runs_bytes=runs_bytes, attempted=result.stats.total,
                 failed=failed, problems=problems)


def end_to_end(sweeps: list[Sweep], scaled: bool = True
               ) -> dict[str, tuple[float, str]]:
    """The five end-to-end metrics over every sweep of an untraced run.

    Times are at reference speed unless ``scaled`` is false (raw host
    seconds).  ``sim_s_per_s`` is simulated seconds per second inside
    ``Simulator.run``, summed over a sweep's cells.
    """
    def scale(cell: Cell) -> float:
        return cell.scale if scaled else 1.0

    def sim_speed(sweep: Sweep) -> float:
        host = sum(c.run_host * scale(c) for c in sweep.cells)
        return sum(c.run_sim for c in sweep.cells) / host if host else 0.0

    cells = [cell for sweep in sweeps for cell in sweep.cells]
    return {
        "sweep_s": (statistics.median(
            s.scaled_wall() if scaled else s.wall for s in sweeps), "s"),
        "cell_s": (statistics.median(c.wall * scale(c) for c in cells),
                   "s"),
        "setup_s": (statistics.median(c.setup * scale(c) for c in cells),
                    "s"),
        "sim_s_per_s": (statistics.median(sim_speed(s) for s in sweeps),
                        "sim_s/s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class Run:
    """Sweeps of one workload and seed, with byte-identity checking."""

    def __init__(self, workload, seed: int):
        self.spec = workload.spec(seed)
        self.work = WORK / f"run-{os.getpid()}"
        self.first_bytes: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def sweep(self, probe: CellProbe) -> Sweep:
        self._count += 1
        result = run_sweep(self.spec, self.work / f"sweep-{self._count}",
                           probe)
        self.attempted += result.attempted
        self.problems.extend(result.problems)
        if self.first_bytes is None:
            self.first_bytes = result.runs_bytes
        if result.runs_bytes != self.first_bytes:
            # Records are deterministic per seed: a sweep whose
            # runs.jsonl differs from the first fails every cell in it.
            self.problems.append(
                f"sweep {self._count}: runs.jsonl differs from sweep 1")
            self.failed += result.attempted
        else:
            self.failed += result.failed
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _room_for_another(started: float, seconds: float,
                      last: float) -> bool:
    """True when one more step as long as ``last`` ends by the deadline."""
    return time.perf_counter() - started + last <= seconds


def untraced_run(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """At least two sweeps, more while another fits in ``seconds``."""
    from perfbench.stats import supported_percentile
    from perfbench.tracing import Patches

    probe = CellProbe()
    sweeps: list[Sweep] = []
    started = time.perf_counter()
    last = 0.0
    with Patches() as patches:
        probe.install(patches)
        while len(sweeps) < 2 or _room_for_another(started, seconds, last):
            sweep_started = time.perf_counter()
            sweeps.append(run.sweep(probe))
            last = time.perf_counter() - sweep_started
    walls = [c.wall * c.scale for s in sweeps for c in s.cells]
    tail = supported_percentile(walls)
    print(f"cell_s over n={len(walls)} cells: median "
          f"{statistics.median(walls):.6g} s, "
          + (f"p{tail[0]} {tail[1]:.6g} s" if tail else
             "no tail percentile has ten samples beyond it"))
    print(f"calibration kernel took "
          f"{statistics.median(1 / s.scale() for s in sweeps):.3f} x its "
          f"reference time; raw host figures: " + ", ".join(
              f"{name} {value:.6g} {unit}" for name, (value, unit)
              in end_to_end(sweeps, scaled=False).items()))
    return end_to_end(sweeps)


def traced_run(run: Run, seconds: float, spans_path: pathlib.Path
               ) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced sweeps; fold the traced ones."""
    from perfbench.tracing import LayerTotals, Patches, SpanRecorder
    from perfbench.tracing import install, write_spans

    plain_probe = CellProbe()
    recorder = SpanRecorder()
    traced_probe = CellProbe(recorder)
    totals = LayerTotals()
    plain: list[Sweep] = []
    started = time.perf_counter()
    pair_s = 0.0
    while not plain or _room_for_another(started, seconds, pair_s):
        pair_started = time.perf_counter()
        with Patches() as patches:
            plain_probe.install(patches)
            plain.append(run.sweep(plain_probe))
        with Patches() as patches:
            traced_probe.install(patches)
            install(recorder, patches)
            traced = run.sweep(traced_probe)
        spans = recorder.spans()
        if totals.sweeps == 0:
            write_spans(spans, str(spans_path))
        totals.add(spans, recorder.counts, traced.cells, traced.records)
        recorder.clear()
        pair_s = time.perf_counter() - pair_started
    return totals.metrics(
        untraced_cell_s=statistics.median(
            c.wall * c.scale for s in plain for c in s.cells),
        events_per_s=statistics.median(
            sum(c.events for c in s.cells)
            / max(sum(c.run_host * c.scale for c in s.cells), 1e-12)
            for s in plain),
        overhead_s=statistics.median(s.overhead() for s in plain))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_program()
    except FileNotFoundError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics = traced_run(
                run, args.seconds,
                WORK / "spans" / f"{args.workload}.csv.gz")
        else:
            metrics = untraced_run(run, args.seconds)
    finally:
        run.close()

    failed = run.failed
    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {failed}/{run.attempted} "
          f"= {failed / run.attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark's own logic: self-time fold, comparison rule,
output checks and the metric names it promises in BENCHMARK.json."""

from __future__ import annotations

import gc
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench_run
from perfbench import calibration, stats, tracing
from perfbench.layers import checks
from perfbench.workloads import check_record

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, layer, start, end, parent, cell=0):
    return tracing.Span(name, layer, start, end, parent, cell)


# ----------------------------------------------------------------------
# self-time fold
# ----------------------------------------------------------------------
def test_fold_subtracts_children_at_every_depth():
    spans = [
        span("cell", "experiments", 0.0, 10.0, -1),
        span("build", "scenarios", 1.0, 4.0, 0),
        span("segments", "mobility", 2.0, 3.0, 1),
        span("step", "sim", 5.0, 9.0, 0),
        span("contact_up", "dtn", 5.5, 8.5, 3),
        span("segments", "mobility", 6.0, 7.0, 4),
    ]
    folded = tracing.fold_self_time(spans)
    assert folded == pytest.approx({
        "experiments": 3.0,   # 10 - 3 - 4
        "scenarios": 2.0,     # 3 - 1
        "mobility": 2.0,      # 1 + 1
        "sim": 1.0,           # 4 - 3
        "dtn": 2.0,           # 3 - 1
    })
    assert sum(folded.values()) == pytest.approx(10.0)


def test_fold_nets_out_same_layer_nesting():
    # BandwidthDtnOverlay.__init__ calls DtnOverlay.__init__.
    spans = [span("outer", "dtn", 0.0, 5.0, -1),
             span("inner", "dtn", 1.0, 4.0, 0),
             span("watch", "radio", 2.0, 3.0, 1)]
    assert tracing.fold_self_time(spans) == pytest.approx(
        {"dtn": 4.0, "radio": 1.0})


class _Toy:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def leaf(self):
        return 0


def test_recorder_links_parents_and_restores_patches():
    recorder = tracing.SpanRecorder()
    originals = dict(_Toy.__dict__)
    outer_id = recorder.name_id("toy.outer", "core")
    inner_id = recorder.name_id("toy.inner", "radio")
    with tracing.Patches() as patches:
        patches.set(_Toy, "outer", lambda fn: tracing._span_wrapper(
            fn, recorder, outer_id, None))
        patches.set(_Toy, "inner", lambda fn: tracing._span_wrapper(
            fn, recorder, inner_id, "radio.inner"))
        patches.set(_Toy, "leaf", lambda fn: tracing._count_wrapper(
            fn, recorder.counts, "core.leaf"))
        toy = _Toy()
        assert toy.outer() == 2
        toy.leaf()
        toy.leaf()
    spans = recorder.spans()
    assert [(s.name, s.parent) for s in spans] == [("toy.outer", -1),
                                                   ("toy.inner", 0)]
    assert recorder.counts == {"radio.inner": 1, "core.leaf": 2}
    assert recorder.stack == []
    for name in ("outer", "inner", "leaf"):
        assert _Toy.__dict__[name] is originals[name]


def test_layer_of_file():
    sep = "/"
    assert tracing.layer_of_file(
        sep.join(["", "x", "src", "repro", "radio", "bus.py"])) == "radio"
    assert tracing.layer_of_file("/x/perfbench/run.py") == "experiments"


# ----------------------------------------------------------------------
# comparison rule
# ----------------------------------------------------------------------
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_ties_are_not_a_win():
    assert stats.classify(PARENT, list(PARENT), better="lower",
                          bound=0.1) == stats.UNCHANGED


def test_clear_gain_is_improved_in_either_direction():
    faster = [v * 0.8 for v in PARENT]
    assert stats.classify(PARENT, faster, better="lower",
                          bound=0.1) == stats.IMPROVED
    assert stats.classify(PARENT, faster, better="higher",
                          bound=0.1) == stats.REGRESSED


def test_gain_needs_nine_tenths_of_pairs():
    mostly = [v * 0.8 for v in PARENT]
    mostly[0], mostly[1] = 1.5, 1.5   # change loses two pairs of ten
    assert stats.classify(PARENT, mostly, better="lower",
                          bound=0.5) == stats.UNCHANGED


def test_gain_must_exceed_parent_spread():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    slightly = [v - 0.01 for v in parent]   # wins every pair, by a hair
    assert stats.classify(parent, slightly, better="lower",
                          bound=0.5) == stats.UNCHANGED


def test_spread_wider_than_bound_is_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5]
    assert stats.spread(wide) > 0.1
    assert stats.classify(PARENT, wide, better="lower",
                          bound=0.1) == stats.UNRESOLVED


def test_wide_spread_but_every_run_better_is_not_unresolved():
    # The parent's spread dwarfs the bound and the median gap is inside
    # the parent's IQR, so this is no claim -- but every change run
    # reads better than every parent run, so it is not unresolved.
    parent = [1.0] * 6 + [9.0] * 4
    change = [0.99] * 10
    assert stats.spread(parent) > 0.1
    assert stats.classify(parent, change, better="lower",
                          bound=0.1) == stats.UNCHANGED
    change[0] = 1.01   # one change run no longer beats every parent run
    assert stats.classify(parent, change, better="lower",
                          bound=0.1) == stats.UNRESOLVED


def test_worse_beyond_bound_is_regressed():
    slower = [v * 1.3 for v in PARENT]
    assert stats.classify(PARENT, slower, better="lower",
                          bound=0.1) == stats.REGRESSED
    within = [v * 1.05 for v in PARENT]
    assert stats.classify(PARENT, within, better="lower",
                          bound=0.1) == stats.UNCHANGED


def test_classify_rejects_unpaired_input():
    with pytest.raises(ValueError):
        stats.classify([1.0], [1.0, 2.0], better="lower", bound=0.1)
    with pytest.raises(ValueError):
        stats.classify([1.0], [1.0], better="faster", bound=0.1)


def test_supported_percentile_needs_ten_beyond():
    assert stats.supported_percentile(list(range(39))) is None
    assert stats.supported_percentile(list(range(40)))[0] == 75
    assert stats.supported_percentile(list(range(1000)))[0] == 99


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _phy_record(**overrides):
    metrics = {
        "created": 10, "spray_delivered": 7, "spray_transmissions": 30,
        "spray_phy_offered": 100, "spray_phy_delivered": 60,
        "spray_phy_lost_fading": 30, "spray_phy_lost_collision": 10,
        "spray_phy_captured": 5, "spray_bytes_offered": 5000,
        "spray_bytes_transferred": 4000}
    metrics.update(overrides)
    return {"workload": "dtn_phy", "metrics": metrics}


def test_clean_record_passes():
    assert check_record(_phy_record()) == []


@pytest.mark.parametrize("doctored, fragment", [
    ({"spray_delivered": 11}, "delivered 11 > created 10"),
    ({"spray_phy_lost_fading": 31}, "PHY fates 101 > offered 100"),
    ({"spray_phy_captured": 61}, "captured 61 > delivered 60"),
    ({"spray_bytes_transferred": 5001}, "bytes transferred 5001"),
])
def test_doctored_record_is_caught(doctored, fragment):
    problems = check_record(_phy_record(**doctored))
    assert len(problems) == 1 and fragment in problems[0]


def test_discovery_record_checks_stream_delivery():
    record = {"workload": "discovery_handover",
              "metrics": {"delivered": 10, "connected": 1}}
    assert check_record(record) == []
    record["metrics"]["delivered"] = 11
    assert check_record(record)


# ----------------------------------------------------------------------
# the promises BENCHMARK.json makes
# ----------------------------------------------------------------------
def _cells():
    return [bench_run.Cell(start=0.0, wall=1.0, first_run=0.2,
                           run_host=0.5, run_sim=100.0, events=50)]


def test_untraced_metrics_match_end_to_end_list():
    sweep = bench_run.Sweep(wall=1.2, cells=_cells(), records=[],
                            runs_bytes=b"", attempted=1, failed=0,
                            problems=[])
    names = list(bench_run.end_to_end([sweep]))
    assert names == [m["name"] for m in CONFIG["end_to_end"]]


def test_traced_metrics_match_per_layer_list():
    totals = tracing.LayerTotals()
    totals.add([span("experiments.cell", "experiments", 0.0, 1.0, -1)],
               {}, _cells(), [])
    metrics = totals.metrics(untraced_cell_s=0.9, events_per_s=100.0,
                             overhead_s=0.2)
    assert sorted(metrics) == sorted(m["name"] for m in CONFIG["per_layer"])


def test_layer_checks_flag_faults_outside_corridor():
    def traced(core, faults):
        metrics = {f"{layer}.self_s": {"value": 0.0}
                   for layer in tracing.REPORTED_LAYERS}
        metrics["core.self_s"] = {"value": core}
        metrics["faults.self_s"] = {"value": faults}
        return metrics
    results = dict(checks({"peerhood_plaza": [traced(1.0, 0.1),
                                              traced(1.0, 0.1)]}))
    assert results["peerhood_plaza: dominant layer ['core', 'core'] on "
                   "every seed"]
    assert not results["peerhood_plaza: faults.self_s 0.1000 == 0"]


@pytest.mark.parametrize("enabled", [True, False])
def test_calibration_keeps_collector_off_and_restores_it(monkeypatch,
                                                         enabled):
    states = []
    monkeypatch.setattr(calibration, "REPEATS", 2)
    monkeypatch.setattr(calibration, "kernel",
                        lambda: states.append(gc.isenabled()))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert calibration.kernel_seconds() >= 0.0
        assert states == [False, False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dtn_ferry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout == ""

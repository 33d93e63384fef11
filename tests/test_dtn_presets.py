"""Golden metrics for the four DTN workload presets.

One small cell per preset (``dtn``, ``dtn_faults``, ``dtn_bandwidth``,
``dtn_phy``) is run with the preset's own defaults and its whole
metrics dict — every key and every value — is compared with
``dtn_presets_golden.json`` beside this file.  The golden pins each
preset's metric key set (``dtn`` reports ``*_evicted`` and no fault
counters; ``dtn_faults`` reports ``*_dropped_dead`` and no
``*_evicted``), its setting defaults and the values the paired runner
produces, so a change to the shared runner that moves a single byte of
any preset's output fails here.
"""

import json
import pathlib

import pytest

from repro.experiments.spec import RunPoint
from repro.experiments.workloads import get_workload

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                     / "dtn_presets_golden.json").read_text())

#: preset → (scenario, params, settings).  ``dtn`` bounds its stores so
#: the eviction counter moves; the hostile corridor crashes custodians.
CELLS = {
    "dtn": ("commuter_corridor", {"count": 8}, {"capacity_bytes": 2048}),
    "dtn_faults": ("hostile_corridor", {"crash_rate": 0.5}, {}),
    "dtn_bandwidth": ("rural_bus_dtn", {"count": 9}, {}),
    "dtn_phy": ("lossy_festival", {"count": 10}, {}),
}


@pytest.mark.parametrize("preset", sorted(CELLS))
def test_preset_metrics_match_golden(preset):
    scenario, params, settings = CELLS[preset]
    point = RunPoint(spec="golden", workload=preset, index=0,
                     scenario=scenario, params=params, repeat=0, seed=7,
                     settings=settings)
    metrics = get_workload(preset)(point)
    assert json.dumps(metrics, sort_keys=True) \
        == json.dumps(GOLDEN[preset], sort_keys=True)


def test_golden_key_sets_differ_by_counter_group():
    keys = {preset: set(metrics) for preset, metrics in GOLDEN.items()}
    assert "spray_evicted" in keys["dtn"]
    assert "fault_events" not in keys["dtn"]
    assert "spray_dropped_dead" in keys["dtn_faults"]
    assert "spray_evicted" not in keys["dtn_faults"]
    assert not any("_phy_" in key for key in keys["dtn_bandwidth"])
    assert {key for key in keys["dtn_phy"] if "_phy_" in key} == {
        f"{router}_phy_{fate}" for router in ("epidemic", "spray")
        for fate in ("offered", "delivered", "lost_fading",
                     "lost_collision", "captured")}

"""The benchmark's workloads and the checks run on every cell they produce.

Each workload is a scaled cell of a bundled spec family, run ``cells``
times per sweep as independent repeats of one :class:`ExperimentSpec`
whose master seed is the benchmark's ``--seed``.  Repeats get distinct
derived seeds, so one sweep averages over several mobility draws and a
single unlucky topology cannot set the figure.  Which layers each
workload stresses is tabled in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.spec import ExperimentSpec


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a spec family scaled to a steady cell."""

    name: str
    workload: str                   #: registered repro workload
    scenario: str                   #: registered scenario
    params: dict[str, object]       #: scenario parameters (one value each)
    settings: dict[str, object]     #: workload settings
    cells: int                      #: repeats per sweep

    def spec(self, seed: int) -> ExperimentSpec:
        """The sweep's spec; ``seed`` is the master seed of every cell."""
        return ExperimentSpec(
            name=f"perfbench_{self.name}",
            workload=self.workload,
            scenarios=(self.scenario,),
            axes={key: (value,) for key, value in self.params.items()},
            repeats=self.cells,
            master_seed=seed,
            settings=dict(self.settings))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="peerhood_plaza",
        workload="discovery_handover",
        scenario="dense_plaza",
        params={"count": 28, "technologies": ("bluetooth", "wlan")},
        settings={"settle_s": 60.0, "messages": 10},
        cells=8),
    Workload(
        name="dtn_ferry",
        workload="dtn",
        scenario="island_hopping_ferry",
        params={"count": 120},
        settings={"duration_s": 480.0, "messages": 14, "ttl_s": 300.0,
                  "routers": ("epidemic", "spray"), "spray_copies": 6},
        cells=2),
    Workload(
        name="festival_lossy",
        workload="dtn_phy",
        scenario="crowded_festival",
        params={"count": 16, "shadowing_sigma_db": 8.0,
                "phy_collisions": 1},
        settings={"duration_s": 240.0, "messages": 10, "ttl_s": 300.0,
                  "size_bytes": 60_000, "rate_Bps": 24_000.0,
                  "routers": ("epidemic", "spray"), "spray_copies": 6},
        cells=12),
    Workload(
        name="corridor_faults",
        workload="dtn_faults",
        scenario="hostile_corridor",
        params={"count": 20, "crash_rate": 0.2},
        settings={"duration_s": 480.0, "messages": 14, "ttl_s": 300.0,
                  "routers": ("direct", "spray"), "spray_copies": 6,
                  "pattern": "uniform"},
        cells=10),
)}


def _routers(metrics: typing.Mapping[str, object]) -> list[str]:
    return sorted(key[:-len("_delivered")] for key in metrics
                  if key.endswith("_delivered")
                  and not key.endswith("_phy_delivered"))


def check_record(record: typing.Mapping[str, object]) -> list[str]:
    """Conservation laws a cell's record must satisfy; [] when it holds.

    Checked from the record's public counters only:

    * delivered <= created (for ``discovery_handover``, created is the
      ``messages`` setting: the stream writes at most that many);
    * PHY ``delivered + lost_fading + lost_collision <= offered`` and
      ``captured <= delivered``;
    * ``bytes_transferred <= bytes_offered``.
    """
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return ["record has no metrics mapping"]
    problems = []
    if record.get("workload") == "discovery_handover":
        sent = WORKLOADS["peerhood_plaza"].settings["messages"]
        if not 0 <= metrics.get("delivered", 0) <= sent:
            problems.append(
                f"delivered {metrics.get('delivered')} > sent {sent}")
        return problems
    created = metrics.get("created")
    if not isinstance(created, int):
        return ["record has no integer 'created' counter"]
    for router in _routers(metrics):
        delivered = metrics[f"{router}_delivered"]
        if delivered > created:
            problems.append(
                f"{router}: delivered {delivered} > created {created}")
        if f"{router}_phy_offered" in metrics:
            offered = metrics[f"{router}_phy_offered"]
            phy_delivered = metrics[f"{router}_phy_delivered"]
            fates = (phy_delivered + metrics[f"{router}_phy_lost_fading"]
                     + metrics[f"{router}_phy_lost_collision"])
            if fates > offered:
                problems.append(
                    f"{router}: PHY fates {fates} > offered {offered}")
            captured = metrics[f"{router}_phy_captured"]
            if captured > phy_delivered:
                problems.append(f"{router}: PHY captured {captured} > "
                                f"delivered {phy_delivered}")
        if f"{router}_bytes_offered" in metrics:
            moved = metrics[f"{router}_bytes_transferred"]
            offered = metrics[f"{router}_bytes_offered"]
            if moved > offered:
                problems.append(f"{router}: bytes transferred {moved} > "
                                f"offered {offered}")
    return problems

"""Lossy-PHY gates: the plane is inert at zero and bites flooding on.

Backs the lossy physical layer (:mod:`repro.radio.phy`).  Three gates,
all written into ``BENCH_phy.json`` at the repo root:

1. **Zero-loss identity** — a ``dtn_phy`` run on the crowded festival
   with every PHY knob absent must produce metrics byte-identical
   (over the keys the two workloads share) to a plain
   ``dtn_bandwidth`` run of the same scenario, seed and settings, with
   its own PHY counters all zero.  Zero knobs install no
   :class:`~repro.radio.phy.PhyPlane` at all, so the lossy code path
   costs nothing and perturbs nothing when unused — the old DTN and
   capacity baselines are untouched.
2. **Contention flips the flooding advantage** — under the default
   lossy profile (6 dB shadowing + collision/capture), epidemic's
   delivery ratio in the crowded festival must drop at least 5 points
   against its own lossless baseline (paired: identical mobility and
   injections), spray-and-wait must drop *less*, and epidemic's
   delivery advantage over spray must shrink or invert.  Flooding is
   no longer free once parallel sessions contend at shared receivers
   and every lost leg burns finite window budget.
3. **Worker-count and cache-state determinism** — the bundled
   ``phy_sweep``'s ``runs.jsonl`` and aggregate CSV bytes must match
   across a 1-worker campaign, a 2-worker campaign and a fully-cached
   re-run (zero cells executed); shadowing draws ride dedicated
   ``phy/shadowing/*`` RNG sub-streams, so the byte-identity contract
   extends to lossy, memoized campaigns.

``BENCH_PHY_REPEATS`` shrinks the sweep's repeat count in CI.
"""

import os
import pathlib

from repro.analysis.snapshots import write_bench_snapshot
from repro.experiments.spec import RunPoint
from repro.experiments.specs import get_spec
from repro.experiments.workloads import get_workload
from repro.scenarios import crowded_festival

from paperbench import (campaign_triple, print_table,
                        shared_keys_identical)

SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_phy.json")

#: Sweep repeats; CI shrinks via the environment (spec default is 2).
REPEATS = int(os.environ.get("BENCH_PHY_REPEATS", "0")) or None
#: Float-noise tolerance for the paired delivery comparisons.
EPS = 1e-9
#: Gate 2's floor: epidemic must lose at least this much delivery
#: ratio to the default lossy profile.
EPIDEMIC_DROP_FLOOR = 0.05

#: Shared settings for the zero-loss identity legs: both workloads must
#: see the same routers and rates or their metrics could not match.
_IDENTITY_SETTINGS = {
    "duration_s": 300.0, "messages": 8, "ttl_s": 240.0,
    "size_bytes": 60_000, "rate_Bps": 24_000.0,
    "routers": ("epidemic", "spray"), "spray_copies": 6,
}

#: The default lossy profile of gate 2 (``lossy_festival``'s knobs).
_LOSSY_PARAMS = {"shadowing_sigma_db": 6.0, "phy_collisions": 1}

#: Paired seeds for the contention gate; drops are averaged over them.
_CONTENTION_SEEDS = (101, 303)


def _identity_point(workload: str) -> RunPoint:
    """A crowded-festival run point; only ``workload`` varies."""
    return RunPoint(
        spec="phy_identity", workload=workload, index=0,
        scenario="crowded_festival", params={"count": 14}, repeat=0,
        seed=977, settings=dict(_IDENTITY_SETTINGS))


def run_zero_loss_identity():
    """Gate 1: absent PHY knobs ≡ the pre-PHY workload, bytewise."""
    # Zero knobs must install no plane at all — the lossless code
    # path, not a plane that happens to lose nothing.
    assert crowded_festival(seed=977).world.phy is None
    phy = get_workload("dtn_phy")(_identity_point("dtn_phy"))
    plain = get_workload("dtn_bandwidth")(
        _identity_point("dtn_bandwidth"))
    identity = shared_keys_identical("dtn_phy", phy, "dtn_bandwidth",
                                     plain)
    offered = [phy[key] for key in phy if key.endswith("_phy_offered")]
    assert offered and all(count == 0 for count in offered), (
        f"zero-knob run moved PHY counters: {offered}")
    return identity


def run_contention(seed: int):
    """One paired lossless-vs-lossy festival cell at ``seed``."""
    def ratios(params):
        point = RunPoint(
            spec="phy_contention", workload="dtn_phy", index=0,
            scenario="crowded_festival",
            params={"count": 12, **params}, repeat=0, seed=seed,
            settings={"duration_s": 240.0, "messages": 6,
                      "ttl_s": 200.0, "size_bytes": 60_000,
                      "rate_Bps": 24_000.0,
                      "routers": ("epidemic", "spray"),
                      "spray_copies": 6})
        metrics = get_workload("dtn_phy")(point)
        return metrics

    clean = ratios({})
    lossy = ratios(_LOSSY_PARAMS)
    assert lossy["epidemic_phy_lost_fading"] > 0, (
        "lossy festival cell saw no fading loss — profile inert?")
    return {
        "epidemic_clean": clean["epidemic_delivery_ratio"],
        "epidemic_lossy": lossy["epidemic_delivery_ratio"],
        "spray_clean": clean["spray_delivery_ratio"],
        "spray_lossy": lossy["spray_delivery_ratio"],
        "phy_lost_collision": lossy["epidemic_phy_lost_collision"],
    }


def write_snapshot(identity, contention, records, campaign_stats,
                   path=SNAPSHOT_PATH):
    """Persist every gate for cross-PR tracking."""
    drops = {
        "epidemic": round(contention["epidemic_clean"]
                          - contention["epidemic_lossy"], 4),
        "spray": round(contention["spray_clean"]
                       - contention["spray_lossy"], 4),
    }
    payload = {
        "zero_loss": identity,
        "contention": {key: round(value, 4)
                       for key, value in contention.items()},
        "delivery_drop": drops,
        "sweep_runs": len(records),
        "workers_identical": True,
    }
    return write_bench_snapshot(
        "phy", payload, path,
        n=12, repeats=max(r["repeat"] for r in records) + 1,
        campaign=campaign_stats.as_dict())


def test_phy_gates(tmp_path):
    identity = run_zero_loss_identity()

    cells = [run_contention(seed) for seed in _CONTENTION_SEEDS]
    contention = {key: sum(cell[key] for cell in cells) / len(cells)
                  for key in cells[0]}
    records, campaign_stats = campaign_triple(
        get_spec("phy_sweep"), tmp_path, repeats=REPEATS)
    write_snapshot(identity, contention, records, campaign_stats)

    print_table(
        "crowded_festival delivery ratio, lossless vs default lossy",
        ["router", "lossless", "lossy", "drop"],
        [[router,
          round(contention[f"{router}_clean"], 4),
          round(contention[f"{router}_lossy"], 4),
          round(contention[f"{router}_clean"]
                - contention[f"{router}_lossy"], 4)]
         for router in ("epidemic", "spray")])

    # Gate 2a: the lossy profile costs epidemic real delivery.
    epidemic_drop = (contention["epidemic_clean"]
                     - contention["epidemic_lossy"])
    spray_drop = contention["spray_clean"] - contention["spray_lossy"]
    assert epidemic_drop >= EPIDEMIC_DROP_FLOOR - EPS, (
        f"epidemic only dropped {epidemic_drop:.4f} under the lossy "
        f"profile (floor {EPIDEMIC_DROP_FLOOR})")
    # Gate 2b: flooding pays more for the lossy air than spraying.
    assert spray_drop <= epidemic_drop + EPS, (
        f"spray dropped more than epidemic: {spray_drop:.4f} vs "
        f"{epidemic_drop:.4f}")
    # Gate 2c: epidemic's advantage over spray shrinks (or inverts).
    clean_gap = (contention["epidemic_clean"]
                 - contention["spray_clean"])
    lossy_gap = (contention["epidemic_lossy"]
                 - contention["spray_lossy"])
    assert lossy_gap <= clean_gap + EPS, (
        f"epidemic's advantage grew under contention: "
        f"{clean_gap:.4f} -> {lossy_gap:.4f}")

    # Sanity: the sweep's lossy cells genuinely exercised the plane.
    offered = [r["metrics"]["epidemic_phy_offered"] for r in records
               if float(r["params"].get("shadowing_sigma_db", 0.0)) > 0]
    assert offered and all(count > 0 for count in offered)
    assert SNAPSHOT_PATH.exists()

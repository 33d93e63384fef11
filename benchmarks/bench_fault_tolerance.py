"""Fault-tolerance gates: the fault plane is inert at zero and graceful on.

Backs the PR 6 fault-injection plane (:mod:`repro.faults`).  Four
gates, all written into ``BENCH_fault_tolerance.json`` at the repo
root:

1. **Zero-rate identity** — a ``dtn_faults`` run on the commuter
   corridor with every fault parameter at zero must produce metrics
   byte-identical (over the keys the two workloads share) to a plain
   ``dtn`` run of the same scenario, seed and settings.  Zero rates
   install no :class:`~repro.faults.FaultPlane` at all, so the fault
   code path costs nothing and perturbs nothing when unused.
2. **Monotone degradation** — across the bundled ``fault_sweep``
   (the hostile corridor swept over ``crash_rate``), every router's
   mean delivery ratio must be non-increasing as the crash-reboot rate
   rises.  Killing more custodians mid-carry can only hurt.
3. **Redundancy beats direct under crashes** — at ``crash_rate`` 0.2
   the multi-copy (spray) and predictive (PRoPHET) routers must hold a
   mean delivery ratio at least direct-delivery's: single-custodian
   delivery has no fallback when its one carrier dies.
4. **Worker-count and cache-state determinism** — the sweep's
   ``runs.jsonl`` and aggregate CSV bytes must match across a 1-worker
   campaign, a 2-worker campaign and a fully-cached re-run (which must
   execute zero cells); fault schedules ride named RNG sub-streams and
   cached cells are position-independent, so the byte-identity
   contract extends to fault-injected, memoized campaigns.  The
   cached leg's cell accounting lands in the snapshot envelope's
   ``campaign`` field.

``BENCH_FAULT_REPEATS`` shrinks the sweep's repeat count in CI.
"""

import os
import pathlib

from repro.analysis.snapshots import write_bench_snapshot
from repro.experiments.spec import RunPoint
from repro.experiments.specs import get_spec
from repro.experiments.workloads import get_workload
from repro.scenarios import commuter_corridor

from paperbench import (campaign_triple, print_table,
                        shared_keys_identical)

SNAPSHOT_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_fault_tolerance.json")

#: Sweep repeats; CI shrinks via the environment (spec default is 3).
REPEATS = int(os.environ.get("BENCH_FAULT_REPEATS", "0")) or None
#: Mean-delivery comparisons tolerate only float noise, not regressions.
EPS = 1e-9

#: Shared settings for the zero-rate identity legs: both workloads must
#: see the same routers and pattern or their metrics could not match.
_IDENTITY_SETTINGS = {
    "duration_s": 480.0, "messages": 14, "ttl_s": 300.0,
    "routers": ("direct", "spray", "prophet"), "spray_copies": 6,
    "pattern": "uniform",
}


def _identity_point(workload: str) -> RunPoint:
    """A commuter-corridor run point; only ``workload`` varies."""
    return RunPoint(
        spec="fault_identity", workload=workload, index=0,
        scenario="commuter_corridor", params={}, repeat=0, seed=977,
        settings=dict(_IDENTITY_SETTINGS))


def run_zero_rate_identity():
    """Gate 1: zero fault params ≡ the fault-free workload, bytewise."""
    # Zero rates must install no plane at all — the fault-free code
    # path, not a plane that happens to schedule nothing.
    assert commuter_corridor(seed=977).world.faults is None
    plain = get_workload("dtn")(_identity_point("dtn"))
    faulted = get_workload("dtn_faults")(_identity_point("dtn_faults"))
    identity = shared_keys_identical("dtn", plain, "dtn_faults", faulted)
    assert faulted["fault_events"] == 0
    return identity


def mean_delivery(records) -> dict[str, dict[float, float]]:
    """``router → crash_rate → mean delivery ratio`` over the sweep."""
    ratios: dict[str, dict[float, list[float]]] = {}
    for record in records:
        rate = float(record["params"]["crash_rate"])
        for key, value in record["metrics"].items():
            if key.endswith("_delivery_ratio"):
                router = key[:-len("_delivery_ratio")]
                ratios.setdefault(router, {}).setdefault(
                    rate, []).append(value)
    return {router: {rate: sum(vs) / len(vs)
                     for rate, vs in sorted(by_rate.items())}
            for router, by_rate in sorted(ratios.items())}


def write_snapshot(identity, records, means, campaign_stats,
                   path=SNAPSHOT_PATH):
    """Persist every gate for cross-PR tracking."""
    first = records[0]["metrics"]
    payload = {
        "zero_rate": identity,
        "sweep_runs": len(records),
        "fault_events_first_run": first["fault_events"],
        "mean_delivery_ratio": {
            router: {str(rate): round(value, 4)
                     for rate, value in by_rate.items()}
            for router, by_rate in means.items()},
        "workers_identical": True,
    }
    return write_bench_snapshot(
        "fault_tolerance", payload, path,
        n=first["nodes"],
        repeats=max(r["repeat"] for r in records) + 1,
        campaign=campaign_stats.as_dict())


def test_fault_tolerance_gates(tmp_path):
    identity = run_zero_rate_identity()
    records, campaign_stats = campaign_triple(
        get_spec("fault_sweep"), tmp_path, repeats=REPEATS)
    means = mean_delivery(records)
    snapshot = write_snapshot(identity, records, means, campaign_stats)

    rates = sorted({float(r["params"]["crash_rate"]) for r in records})
    print_table(
        "fault_sweep mean delivery ratio by router x crash rate",
        ["router"] + [f"crash {rate}" for rate in rates],
        [[router] + [round(by_rate[rate], 4) for rate in rates]
         for router, by_rate in sorted(means.items())])

    # Gate 2: every router degrades monotonically with the crash rate.
    for router, by_rate in means.items():
        values = [by_rate[rate] for rate in rates]
        for lower, higher in zip(values, values[1:]):
            assert higher <= lower + EPS, (
                f"{router} delivery not monotone over crash_rate: "
                f"{dict(zip(rates, values))}")

    # Gate 3: redundancy holds up at a 20% crash-reboot rate.
    assert means["prophet"][0.2] + EPS >= means["direct"][0.2], (
        f"prophet fell below direct under crashes: {means}")
    assert means["spray"][0.2] + EPS >= means["direct"][0.2], (
        f"spray fell below direct under crashes: {means}")

    # Sanity: the hostile corridor actually injected faults.
    assert snapshot["fault_events_first_run"] > 0
    assert SNAPSHOT_PATH.exists()

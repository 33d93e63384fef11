"""Per-layer self shares from traced runs, and the orderings they must show.

Runs ``perfbench/run.py --trace 1`` for every workload on each of two
seeds and prints each layer's share of the traced self time.  It then
checks:

* held-out seed: each workload's dominant layer (largest self share) is
  the same on both seeds;
* ``core`` has the largest self share on ``peerhood_plaza``;
* ``dtn.attach_s`` is most of the traced ``setup_s`` on ``dtn_ferry``;
* the ``mobility`` self share on ``festival_lossy`` exceeds its share on
  ``dtn_ferry``;
* ``faults.self_s`` is non-zero only on ``corridor_faults``.

    python3 perfbench/layers.py --seeds 1,2

Exit status is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spread import run_once  # noqa: E402
from perfbench.tracing import REPORTED_LAYERS  # noqa: E402


def self_shares(metrics: dict) -> dict[str, float]:
    """Each reported layer's share of the summed layer self time."""
    seconds = {layer: metrics[f"{layer}.self_s"]["value"]
               for layer in REPORTED_LAYERS}
    total = sum(seconds.values())
    return {layer: (value / total if total else 0.0)
            for layer, value in seconds.items()}


def dominant(shares: dict[str, float]) -> str:
    return max(shares, key=shares.get)


def checks(traced: dict[str, list[dict]]) -> list[tuple[str, bool]]:
    """(description, passed) for every check the given workloads allow.

    ``traced`` maps workload -> metrics of its traced runs, one per
    seed, the first seed first.
    """
    results = []
    for workload, runs in traced.items():
        leaders = [dominant(self_shares(metrics)) for metrics in runs]
        results.append((f"{workload}: dominant layer {leaders} on every "
                        f"seed", len(set(leaders)) == 1))
    first = {workload: runs[0] for workload, runs in traced.items()}
    if "peerhood_plaza" in first:
        leader = dominant(self_shares(first["peerhood_plaza"]))
        results.append((f"peerhood_plaza: core leads (got {leader})",
                        leader == "core"))
    if "dtn_ferry" in first:
        metrics = first["dtn_ferry"]
        attach = metrics["dtn.attach_s"]["value"]
        setup = metrics["trace.setup_s"]["value"]
        results.append((f"dtn_ferry: attach {attach:.3f} s is most of "
                        f"set-up {setup:.3f} s", attach > 0.5 * setup))
    if "festival_lossy" in first and "dtn_ferry" in first:
        festival = self_shares(first["festival_lossy"])["mobility"]
        ferry = self_shares(first["dtn_ferry"])["mobility"]
        results.append((f"mobility share festival_lossy {festival:.3f} > "
                        f"dtn_ferry {ferry:.3f}", festival > ferry))
    for workload, metrics in first.items():
        faults = metrics["faults.self_s"]["value"]
        expected = workload == "corridor_faults"
        results.append((f"{workload}: faults.self_s {faults:.4f} "
                        f"{'> 0' if expected else '== 0'}",
                        (faults > 0) == expected))
    return results


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2",
                        help="two comma-separated seeds, the held-out last")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    traced: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            result = run_once(config, workload, seed, trace=1)
            traced.setdefault(workload, []).append(result["metrics"])
            shares = self_shares(result["metrics"])
            print(f"{workload:16s} seed {seed:<4d} " + "  ".join(
                f"{layer} {share:.3f}" for layer, share in sorted(
                    shares.items(), key=lambda item: -item[1])
                if share > 0), flush=True)
    failed = False
    for description, passed in checks(traced):
        failed |= not passed
        print(f"{'PASS' if passed else 'FAIL'}  {description}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Parent-vs-change comparison of the end-to-end metrics.

Runs ``perfbench/run.py`` in two checkouts that hold the same
``perfbench/`` directory -- the parent commit and the change -- for
seeds ``1..--pairs`` per workload, alternating which side runs first, and
prints one row per (metric, workload) labelled by
:func:`perfbench.stats.classify`: improved, unchanged, unresolved or
regressed.  Improvement needs the change to win 90% of the pairs and a
median gap wider than the parent's inter-quartile distance; no
regression means the change's median is within the metric's bound from
``BENCHMARK.json``.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

Exit status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spread import run_once  # noqa: E402
from perfbench.stats import REGRESSED, classify, quartiles  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--out", help="append every result line here")
    args = parser.parse_args(argv)
    metrics = config["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    regressed = False
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  label")
    for workload in args.workloads.split(","):
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else (
                "change", "parent")
            for side in order:
                result = run_once(config, workload, seed, cwd=sides[side])
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as sink:
                        sink.write(json.dumps({"side": side,
                                               "workload": workload,
                                               "seed": seed, **result})
                                   + "\n")
                for metric in metrics:
                    values[side][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
        for metric in metrics:
            parent = values["parent"][metric["name"]]
            change = values["change"][metric["name"]]
            label = classify(parent, change, better=metric["better"],
                             bound=metric["bound"])
            regressed |= label == REGRESSED
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            print(f"{workload:16s} {metric['name']:12s} "
                  f"{_summary(parent):>34s} {_summary(change):>34s} "
                  f"{wins:>3d}/{len(parent):<2d}  {label}", flush=True)
    return 1 if regressed else 0


def _summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics across seeds.

Runs ``perfbench/run.py`` once per seed for each workload (untraced,
one process at a time) and prints, per metric, the ten values' median
and inter-quartile distance as a share of the median, next to a third
of the metric's bound from ``BENCHMARK.json`` -- the steadiness target.

    python3 perfbench/spread.py --seeds 1-10 --workloads dtn_ferry
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` -> list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(config: dict, workload: str, seed: int, trace: int = 0,
             cwd: pathlib.Path = ROOT) -> dict:
    """One benchmark run; returns its final JSON line."""
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace)]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in config["workloads"]))
    parser.add_argument("--out", help="append every result line here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result = run_once(config, workload, seed)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as sink:
                    sink.write(json.dumps({"workload": workload,
                                           "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            share = spread(values[name])
            ok = share < bound / 3
            steady &= ok
            print(f"{workload:16s} {name:12s} median "
                  f"{statistics.median(values[name]):10.5g}  spread "
                  f"{share:6.3f}  target < {bound / 3:.3f}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

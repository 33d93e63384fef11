"""Shared helpers for the paper-reproduction benchmarks.

Each ``bench_e*.py`` file regenerates one evaluation artifact of the
thesis (see DESIGN.md's experiment index).  The pattern: a pure
``run_*`` function produces the figures, ``benchmark.pedantic`` times one
full run, the test asserts the paper's *shape*, and the reproduced rows
are printed (visible with ``pytest benchmarks/ --benchmark-only -s``) and
attached to ``benchmark.extra_info``.

The DTN benches share two determinism checks: :func:`campaign_triple`
(a spec's output bytes across worker counts and cache states) and
:func:`shared_keys_identical` (two workloads agree on every metric they
both report).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.experiments.campaign import run_campaign
# Table rendering lives in the metrics layer (shared with the experiment
# report command); re-exported here so every bench keeps its import.
from repro.metrics.tables import print_table

__all__ = ["campaign_triple", "fraction", "print_table",
           "shared_keys_identical"]


def fraction(numerator: int, denominator: int) -> float:
    """Safe ratio."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def campaign_triple(spec, tmp_dir: pathlib.Path,
                    repeats: int | None = None):
    """Run ``spec`` as three campaign legs and byte-compare them.

    ``repeats``, when given, overrides the spec's repeat count.  The
    legs are 1 worker filling a fresh cache, 2 workers uncached,
    and a 1-worker re-run against that cache.  All three must write
    byte-identical ``runs.jsonl`` and ``summary.csv``, and the cached
    leg must execute zero cells.  Returns the records and the cached
    leg's :class:`~repro.experiments.campaign.CampaignStats`.
    """
    if repeats is not None:
        spec = dataclasses.replace(spec, repeats=repeats)
    cache_dir = tmp_dir / "cache"
    legs = {"w1": dict(workers=1, cache_dir=cache_dir),
            "w2": dict(workers=2, cache_dir=None),
            "cached": dict(workers=1, cache_dir=cache_dir)}
    outputs = {}
    for leg, kwargs in legs.items():
        result = run_campaign(spec, tmp_dir / leg, **kwargs)
        outputs[leg] = (result.jsonl_path.read_bytes(),
                        result.csv_path.read_bytes(), result)
    for other in ("w2", "cached"):
        assert outputs["w1"][0] == outputs[other][0], (
            f"{spec.name} runs.jsonl differs between w1 and {other}")
        assert outputs["w1"][1] == outputs[other][1], (
            f"{spec.name} summary.csv differs between w1 and {other}")
    cached = outputs["cached"][2].stats
    assert cached.executed == 0 and cached.cache_hits == cached.total, (
        f"cached {spec.name} re-run recomputed cells: {cached.as_dict()}")
    return outputs["w1"][2].records, cached


def shared_keys_identical(left: str, left_metrics: dict, right: str,
                          right_metrics: dict) -> dict:
    """Assert two workloads' metrics match bytewise on their shared keys.

    ``left``/``right`` name the workloads for the failure message.
    Returns the gate's snapshot entry.
    """
    shared = sorted(set(left_metrics) & set(right_metrics))
    left_bytes = json.dumps({k: left_metrics[k] for k in shared},
                            sort_keys=True)
    right_bytes = json.dumps({k: right_metrics[k] for k in shared},
                             sort_keys=True)
    assert left_bytes == right_bytes, (
        f"{left} diverged from {right} over {shared}:\n"
        f"  {left}: {left_bytes}\n  {right}: {right_bytes}")
    return {"shared_keys": len(shared), "identical": True}

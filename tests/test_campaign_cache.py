"""Property tests for the campaign cache-key contract.

The key (:func:`repro.experiments.cache.cache_key`) must be a pure
function of a cell's *identity*: stable under param-dict insertion
order, across processes and across repeated runs of the same spec —
and injective over distinct ``(seed, params, scenario)`` (and every
other component), because a collision would silently serve one cell's
result as another's.
"""

import ast
import functools
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, workloads
from repro.experiments.cache import CampaignCache, cache_key, point_key
from repro.experiments.spec import canonical
from repro.experiments.workloads import workload_fingerprint

_SCALARS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=8),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(tuple))
_PARAMS = st.dictionaries(st.text(min_size=1, max_size=8), _VALUES,
                          max_size=5)


def _key_kwargs(**overrides):
    base = dict(
        spec="spec", version=1, scenario="scenario",
        params={"count": 4, "technologies": ("bluetooth", "wlan")},
        repeat=0, seed=42, workload="discovery", fingerprint="f" * 64,
        settings={"settle_s": 40.0})
    base.update(overrides)
    return base


def _identity_canon(triple) -> str:
    """Canonical serialisation of (seed, params, scenario) — exactly
    the equivalence the key is allowed (and required) to respect."""
    seed, params, scenario = triple
    return json.dumps(
        [seed, {k: canonical(v) for k, v in params.items()}, scenario],
        sort_keys=True)


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(params=_PARAMS, data=st.data())
def test_key_independent_of_param_insertion_order(params, data):
    order = data.draw(st.permutations(sorted(params)))
    shuffled = {name: params[name] for name in order}
    assert (cache_key(**_key_kwargs(params=params))
            == cache_key(**_key_kwargs(params=shuffled)))


@settings(max_examples=60)
@given(params=_PARAMS, settings_map=_PARAMS, seed=st.integers(0, 2**63))
def test_key_stable_under_repeated_computation(params, settings_map,
                                               seed):
    kwargs = _key_kwargs(params=params, settings=settings_map, seed=seed)
    first = cache_key(**kwargs)
    assert cache_key(**kwargs) == first
    assert len(first) == 64 and int(first, 16) >= 0


def test_key_stable_across_processes():
    """A fresh interpreter derives the same key for the same cell."""
    kwargs = _key_kwargs()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    program = ("import json, sys\n"
               "from repro.experiments.cache import cache_key\n"
               "print(cache_key(**json.load(sys.stdin)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", program], input=json.dumps(kwargs),
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # JSON shipping turned the tuples into lists; canonicalisation must
    # erase exactly that difference.
    assert proc.stdout.strip() == cache_key(**kwargs)


def test_keys_of_a_spec_stable_across_expansions_and_axis_order():
    """Same cells, same keys — however the axes dict was declared."""
    fingerprint = workload_fingerprint("discovery")
    axes_ab = {"count": (3, 4), "technologies": (("bluetooth",),)}
    axes_ba = {"technologies": (("bluetooth",),), "count": (3, 4)}
    by_label = {}
    for axes in (axes_ab, axes_ba, axes_ab):
        spec = ExperimentSpec(
            name="keyspec", workload="discovery",
            scenarios=("random_disc",), axes=axes, repeats=2,
            master_seed=9, settings={"settle_s": 40.0})
        keys = {p.label(): point_key(p, fingerprint) for p in spec.expand()}
        by_label.setdefault("expected", keys)
        assert keys == by_label["expected"]


# ----------------------------------------------------------------------
# injectivity
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.integers(0, 2**63), _PARAMS,
              st.text(min_size=1, max_size=8)),
    min_size=2, max_size=6, unique_by=_identity_canon))
def test_distinct_seed_params_scenario_never_collide(identities):
    keys = [cache_key(**_key_kwargs(seed=seed, params=params,
                                    scenario=scenario))
            for seed, params, scenario in identities]
    assert len(set(keys)) == len(keys)


def test_every_key_component_separates():
    base = _key_kwargs()
    for field, changed in [
            ("spec", "other"), ("version", 2), ("scenario", "other"),
            ("repeat", 1), ("seed", 43), ("workload", "other"),
            ("fingerprint", "0" * 64),
            ("settings", {"settle_s": 41.0}),
            ("extras", {"telemetry": True})]:
        assert cache_key(**_key_kwargs(**{field: changed})) \
            != cache_key(**base), f"{field} did not enter the key"
    # absent extras and empty extras are the same (default) identity
    assert cache_key(**_key_kwargs(extras={})) == cache_key(**base)


def test_expanded_spec_cells_have_distinct_keys():
    spec = ExperimentSpec(
        name="inj", workload="discovery",
        scenarios=("line_topology", "random_disc"),
        axes={"count": (3, 4)}, repeats=2, master_seed=5,
        settings={"settle_s": 40.0})
    fingerprint = workload_fingerprint(spec.workload)
    keys = [point_key(p, fingerprint) for p in spec.expand()]
    assert len(set(keys)) == len(keys) == spec.size()


# ----------------------------------------------------------------------
# workload fingerprints
# ----------------------------------------------------------------------
def test_workload_fingerprint_stable_and_distinct():
    assert workload_fingerprint("discovery") \
        == workload_fingerprint("discovery")
    assert workload_fingerprint("discovery") \
        != workload_fingerprint("line_delay")
    assert len(workload_fingerprint("discovery")) == 64


def _workloads_copy(tmp_path, monkeypatch, edit=None):
    """A private copy of the workloads module, optionally with a
    comment line inserted inside the top-level definition ``edit``."""
    source = pathlib.Path(workloads.__file__).read_text()
    if edit is not None:
        node = next(node for node in ast.parse(source).body
                    if edit in (getattr(node, "name", None),
                                getattr(getattr(node, "target", None),
                                        "id", None)))
        assert node.end_lineno > node.lineno, edit
        lines = source.splitlines(keepends=True)
        lines.insert(node.lineno, "# edited\n")
        source = "".join(lines)
    name = f"workloads_copy_{edit}"
    path = tmp_path / f"{name}.py"
    path.write_text(source)
    module_spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, name, module)
    module_spec.loader.exec_module(module)
    return module


DTN_PRESETS = ("dtn", "dtn_faults", "dtn_bandwidth", "dtn_phy")


@pytest.mark.parametrize("shared", ["run_dtn_preset", "DTN_PRESETS",
                                    "_pattern_endpoints", "_fault_group"])
def test_fingerprint_covers_shared_workload_code(tmp_path, monkeypatch,
                                                 shared):
    """Editing code the DTN presets share changes every preset's
    fingerprint, and leaves an unrelated workload's alone."""
    base = _workloads_copy(tmp_path, monkeypatch)
    edited = _workloads_copy(tmp_path, monkeypatch, edit=shared)
    for preset in DTN_PRESETS:
        assert base.workload_fingerprint(preset) \
            != edited.workload_fingerprint(preset), (shared, preset)
    assert base.workload_fingerprint("line_delay") \
        == edited.workload_fingerprint("line_delay")


def _double(point):
    return {"x": 2}


class _Callable:
    def __call__(self, point):
        return {"x": 3}


def test_sourceless_workloads_never_share_a_fingerprint(monkeypatch):
    """Partials and callable objects hash their code and bound args,
    not a constant shared by every callable without ``__code__``."""
    for name, fn in [("p1", functools.partial(_double)),
                     ("p2", functools.partial(_double, scale=2)),
                     ("p3", functools.partial(_Callable())),
                     ("obj", _Callable())]:
        monkeypatch.setitem(workloads._WORKLOADS, name, fn)
    fingerprints = {workload_fingerprint(name)
                    for name in ("p1", "p2", "p3", "obj")}
    assert len(fingerprints) == 4
    plain = workload_fingerprint("p1")
    monkeypatch.setitem(workloads._WORKLOADS, "p1",
                        functools.partial(_double, scale=3))
    assert workload_fingerprint("p1") != plain


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
def test_cache_roundtrip_and_counters(tmp_path):
    cache = CampaignCache(tmp_path / "cache")
    key = cache_key(**_key_kwargs())
    assert cache.get(key) is None and cache.misses == 1
    entry = {"record": {"run": 3, "metrics": {"x": 1.5}},
             "telemetry": [{"run": 3, "type": "sample"}]}
    cache.put(key, entry)
    assert key in cache
    assert cache.get(key) == entry
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


def test_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = CampaignCache(tmp_path)
    key = cache_key(**_key_kwargs())
    cache.put(key, {"record": {"run": 0}})
    path = cache._path(key)
    path.write_text("{torn", encoding="utf-8")
    assert cache.get(key) is None
    path.write_text(json.dumps({"no_record": True}), encoding="utf-8")
    assert cache.get(key) is None

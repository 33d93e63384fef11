"""``RandomWaypoint.linear_segments`` against the per-segment walk.

The model answers windows from a per-model piece cache: every segment
after a window's first is a cached piece, the last clipped at ``t1``.
The reference below is the walk that cache replaced — one ``position``
call per segment — and the cache must reproduce it bitwise
(``float.hex``) for any stream, speed range, pause range and window,
including windows queried out of time order.
"""

import bisect

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.mobility import RandomWaypoint
from repro.sim.rng import RandomStream


def walk_segments(model, t0, t1):
    """The per-segment walk: one ``position(cursor)`` per segment."""
    if t0 < 0:
        t0 = 0.0
    model._extend_until(t1)
    still = (0.0, 0.0)
    segments = []
    cursor = t0
    index = max(0, bisect.bisect_right(model._leg_starts, t0) - 1)
    for i in range(index, len(model._legs)):
        if cursor >= t1:
            break
        leg_start, leg_end, origin, target = model._legs[i]
        if leg_start > cursor:  # pause before this leg departs
            end = min(leg_start, t1)
            segments.append((cursor, end, model.position(cursor), still))
            cursor = end
            if cursor >= t1:
                break
        if leg_end <= cursor or leg_end == leg_start:
            continue
        travel = leg_end - leg_start
        velocity = ((target[0] - origin[0]) / travel,
                    (target[1] - origin[1]) / travel)
        end = min(leg_end, t1)
        segments.append((cursor, end, model.position(cursor), velocity))
        cursor = end
    if cursor < t1:  # pausing past the last generated leg's arrival
        segments.append((cursor, t1, model.position(cursor), still))
    return segments


def hexed(segments):
    """Segments as ``float.hex`` strings, so equality is bitwise."""
    return [(start.hex(), end.hex(), x.hex(), y.hex(), vx.hex(), vy.hex())
            for start, end, (x, y), (vx, vy) in segments]


def make(seed, speed_range=(0.5, 2.0), pause_range=(0.0, 10.0),
         area=(100.0, 100.0)):
    return RandomWaypoint(RandomStream(seed, "rwp/n0"), area=area,
                          speed_range=speed_range, pause_range=pause_range)


speed_ranges = st.one_of(
    st.floats(0.2, 3.0).map(lambda v: (v, v)),  # a fixed speed
    st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 5.0)).map(
        lambda p: (p[0], p[0] + p[1])))
pause_ranges = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 30.0)).map(
        lambda p: (p[0], p[0] + p[1])))
areas = st.sampled_from([(100.0, 100.0), (3.0, 250.0), (0.0, 0.0)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), speed_range=speed_ranges,
       pause_range=pause_ranges, area=areas, data=st.data())
def test_windows_match_the_per_segment_walk(seed, speed_range, pause_range,
                                            area, data):
    # In a zero-size area only pauses advance the clock: keep them long
    # enough that the legs up to t=1500 stay few.
    assume(area != (0.0, 0.0) or pause_range[0] >= 1.0)
    model = make(seed, speed_range, pause_range, area)
    oracle = make(seed, speed_range, pause_range, area)
    probe = make(seed, speed_range, pause_range, area)
    probe._extend_until(1500.0)
    boundaries = sorted({t for leg in probe._legs for t in leg[:2]})
    on_boundary = st.sampled_from(boundaries)
    anywhere = st.floats(-50.0, 1500.0)
    # Windows in drawn order, so later ones often reach back in time.
    for _ in range(data.draw(st.integers(1, 8))):
        t0 = data.draw(st.one_of(on_boundary, anywhere), label="t0")
        t1 = data.draw(st.one_of(
            on_boundary,
            st.floats(-10.0, 900.0).map(lambda length: t0 + length)),
            label="t1")
        assert (hexed(model.linear_segments(t0, t1))
                == hexed(walk_segments(oracle, t0, t1)))


@pytest.mark.parametrize("pause_range", [(0.0, 0.0), (0.0, 10.0)])
def test_leg_boundary_and_degenerate_windows(pause_range):
    model = make(7, pause_range=pause_range)
    oracle = make(7, pause_range=pause_range)
    oracle._extend_until(900.0)
    windows = [(-30.0, 200.0), (-5.0, -1.0), (40.0, 40.0), (90.0, 12.0)]
    for leg_start, leg_end, _, _ in oracle._legs[:12]:
        windows += [(leg_start, leg_start + 300.0),
                    (leg_end, leg_end + 600.0),
                    (max(0.0, leg_start - 7.5), leg_end),
                    (leg_start, leg_end)]
    for t0, t1 in reversed(windows):  # out of time order on purpose
        assert (hexed(model.linear_segments(t0, t1))
                == hexed(walk_segments(oracle, t0, t1)))
    assert model.linear_segments(40.0, 40.0) == []
    assert model.linear_segments(90.0, 12.0) == []
    assert model.linear_segments(-5.0, -1.0) == []


def test_legs_and_positions_are_untouched_by_the_cache():
    model = make(11)
    fresh = make(11)
    for t0 in (900.0, 0.0, 450.0, 1200.0, 33.0):
        model.linear_segments(t0, t0 + 600.0)
    fresh._extend_until(model._legs[-1][0])
    assert model._legs == fresh._legs
    assert model._next_leg_start == fresh._next_leg_start
    for t in [i * 7.3 for i in range(250)]:
        assert model.position(t) == fresh.position(t)
    assert model._legs == fresh._legs


def test_returned_lists_are_fresh():
    model = make(3)
    expected = hexed(walk_segments(make(3), 120.0, 720.0))
    first = model.linear_segments(120.0, 720.0)
    first.clear()
    second = model.linear_segments(120.0, 720.0)
    second[1:] = [second[0]]
    assert hexed(model.linear_segments(120.0, 720.0)) == expected


def test_a_repeated_window_makes_one_position_call(monkeypatch):
    model = make(5)
    model.linear_segments(240.0, 840.0)  # builds the window's pieces
    calls = []
    original = RandomWaypoint.position

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(RandomWaypoint, "position", counting)
    segments = model.linear_segments(240.0, 840.0)
    assert calls == [240.0]
    assert len(segments) > 2

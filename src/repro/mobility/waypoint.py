"""Random-waypoint mobility, the standard ad-hoc network evaluation model."""

from __future__ import annotations

import bisect

from repro.mobility.base import MobilityModel, Point, Segment, distance
from repro.sim.rng import RandomStream


class RandomWaypoint(MobilityModel):
    """Pick a random destination, move to it at a random speed, pause, repeat.

    Legs are generated lazily but cached, so out-of-order time queries are
    consistent.  All randomness comes from the supplied stream — two models
    with equal streams trace identical paths.

    :meth:`linear_segments` answers from a second cache, the *pieces*:
    each leg's moving stretch and its pause, built once with the anchor
    positions a segment-by-segment walk would compute.  A window then
    costs one bisect, one slice and one ``position`` call instead of a
    ``position`` call per segment — the contact solver, the bus watches
    and the batch engine ask for a 600 s window per pair solve.  Like
    the leg cache it is never pruned: queries may arrive out of time
    order, and a pruned piece would have to be rebuilt bitwise.

    Parameters
    ----------
    rng:
        Seeded random stream (use ``sim.rng(f"rwp/{name}")``).
    area:
        ``(width, height)`` of the rectangle the node roams in, metres.
    speed_range:
        ``(min, max)`` speed in m/s, drawn uniformly per leg.
    pause_range:
        ``(min, max)`` pause at each waypoint in seconds.
    start:
        Starting point; defaults to a random point in the area.
    """

    def __init__(self, rng: RandomStream, area: Point = (100.0, 100.0),
                 speed_range: tuple[float, float] = (0.5, 2.0),
                 pause_range: tuple[float, float] = (0.0, 10.0),
                 start: Point | None = None):
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ValueError(f"invalid speed range: {speed_range}")
        if pause_range[0] < 0 or pause_range[1] < pause_range[0]:
            raise ValueError(f"invalid pause range: {pause_range}")
        self._rng = rng
        self.area = area
        self.speed_range = speed_range
        self.pause_range = pause_range
        if start is None:
            start = (rng.uniform(0.0, area[0]), rng.uniform(0.0, area[1]))
        # Each leg: (start_time, end_time, from_point, to_point) followed by
        # a pause until the next leg's start_time.  ``_leg_starts`` mirrors
        # the start times so ``position`` can bisect instead of scanning —
        # the spatial-grid refresh evaluates every mobile node per
        # timestep, so lookups must not degrade with elapsed sim time.
        # The cache itself cannot be pruned: queries may legally arrive
        # out of time order (see MobilityModel).
        self._legs: list[tuple[float, float, Point, Point]] = []
        self._leg_starts: list[float] = []
        self._next_leg_start = 0.0
        self._current_point: Point = start
        # The pieces of every leg in ``_legs[:_pieced_legs]`` (see the
        # class docstring), in time order; ``_piece_starts`` mirrors
        # their start times for bisecting.
        self._pieces: list[Segment] = []
        self._piece_starts: list[float] = []
        self._pieced_legs = 0

    def _extend_until(self, t: float) -> None:
        while self._next_leg_start <= t:
            origin = self._current_point
            target = (self._rng.uniform(0.0, self.area[0]),
                      self._rng.uniform(0.0, self.area[1]))
            speed = self._rng.uniform(*self.speed_range)
            travel = distance(origin, target) / speed
            leg_start = self._next_leg_start
            leg_end = leg_start + travel
            self._legs.append((leg_start, leg_end, origin, target))
            self._leg_starts.append(leg_start)
            pause = self._rng.uniform(*self.pause_range)
            self._next_leg_start = leg_end + pause
            self._current_point = target

    def _extend_pieces(self) -> None:
        """Turn every generated leg not yet in ``_pieces`` into pieces.

        Leg *i* contributes its moving piece (unless it has zero length)
        and its pause piece (unless the next departure is immediate).
        Each anchor is what ``position`` answers at the piece start —
        ``position(leg_end)`` is not bitwise ``target``, so no anchor is
        re-derived from the leg tuple.
        """
        legs = self._legs
        still = (0.0, 0.0)
        for i in range(self._pieced_legs, len(legs)):
            leg_start, leg_end, origin, target = legs[i]
            if leg_end != leg_start:
                travel = leg_end - leg_start
                velocity = ((target[0] - origin[0]) / travel,
                            (target[1] - origin[1]) / travel)
                self._pieces.append((leg_start, leg_end,
                                     self.position(leg_start), velocity))
                self._piece_starts.append(leg_start)
            next_start = (legs[i + 1][0] if i + 1 < len(legs)
                          else self._next_leg_start)
            if next_start > leg_end:
                self._pieces.append((leg_end, next_start,
                                     self.position(leg_end), still))
                self._piece_starts.append(leg_end)
        self._pieced_legs = len(legs)

    def linear_segments(self, t0: float, t1: float):
        """Legs and pauses intersecting ``[t0, t1]``; extends the cache.

        Leg generation draws only from this model's own stream, so
        predicting ahead never perturbs any other component — the legs a
        later ``position`` query would generate are identical.

        Every segment after the window's first is a whole cached piece
        (the last clipped at ``t1``), so a window costs one bisect, one
        slice and one ``position`` call — the first segment re-anchored
        at ``t0``.  The piece cache grows with the leg cache and is never
        pruned, since a later query may reach back to any earlier window.
        Returns a fresh list; callers may mutate it.
        """
        if t0 < 0:
            t0 = 0.0
        if t1 <= t0:
            return []
        self._extend_until(t1)
        self._extend_pieces()
        pieces = self._pieces
        starts = self._piece_starts
        first = bisect.bisect_right(starts, t0) - 1
        last = bisect.bisect_left(starts, t1, first + 1) - 1
        _, end, _, velocity = pieces[first]
        if last == first:
            return [(t0, t1, self.position(t0), velocity)]
        segments = [(t0, end, self.position(t0), velocity)]
        segments += pieces[first + 1:last]
        start, _, anchor, velocity = pieces[last]
        segments.append((start, t1, anchor, velocity))
        return segments

    def active_piece(self, t: float, horizon_s: float = 600.0):
        """The leg or pause containing ``t``, without building a window's
        segment list.  O(log legs); extends the leg cache through ``t``
        (same stream-isolation argument as :meth:`linear_segments`).

        Unlike the base implementation the piece carries the *leg's own*
        boundaries — its position anchor is the leg origin at the leg
        start, not the position at ``t`` — so the batch engine's compiled
        row stays valid for the whole leg instead of one horizon slice.
        """
        if t < 0:
            t = 0.0
        self._extend_until(t)
        index = max(0, bisect.bisect_right(self._leg_starts, t) - 1)
        leg_start, leg_end, origin, target = self._legs[index]
        if t <= leg_end and leg_end > leg_start:
            travel = leg_end - leg_start
            velocity = ((target[0] - origin[0]) / travel,
                        (target[1] - origin[1]) / travel)
            return (leg_start, leg_end, origin, velocity)
        # Pausing at the leg's destination until the next departure (the
        # cache extension above guarantees the next start lies past t).
        next_start = (self._leg_starts[index + 1]
                      if index + 1 < len(self._legs)
                      else self._next_leg_start)
        return (leg_end, next_start, target, (0.0, 0.0))

    def position(self, t: float) -> Point:
        """Position at time ``t`` (sim-seconds); O(log legs) per call."""
        if t < 0:
            t = 0.0
        self._extend_until(t)
        if not self._legs:
            return self._current_point
        index = bisect.bisect_right(self._leg_starts, t) - 1
        if index < 0:
            return self._legs[0][2]  # before the first departure
        leg_start, leg_end, origin, target = self._legs[index]
        if t > leg_end:
            return target  # pausing at this leg's destination
        if leg_end == leg_start:
            return target
        fraction = (t - leg_start) / (leg_end - leg_start)
        return (origin[0] + fraction * (target[0] - origin[0]),
                origin[1] + fraction * (target[1] - origin[1]))

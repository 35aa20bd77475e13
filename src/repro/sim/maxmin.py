"""Max-min fair sharing: the one component walk and progressive fill.

The DES fluid network (:mod:`repro.sim.fluid`) and the solver
(:mod:`repro.solver.core`) compute the same fixed point, so both call
these.  They differ only in data: footprint weights (1.0 per DES path hop;
the solver's per-resource crossing counts) and freeze slacks (an absolute
1e-9 in the DES; ``1e-9 · max(1, x)`` in the solver, whose capacities span
orders of magnitude).  Slacks are passed per flow and per resource, so
nothing here branches on its caller.
"""

from __future__ import annotations

import math

__all__ = ["component", "fill", "fill_all", "neighbours"]

_MIN_STEP = 1e-9   # smallest rate increment a fill round applies


def component(seed, visited: set, members, rank=None) -> list:
    """The contention component containing ``seed``, sorted by ``rank``
    (arrival order).  ``members[f]`` holds, for each resource flow ``f``
    uses, the flows on that resource.  Reached flows join ``visited``, so
    one ``visited`` set across seeds partitions a population."""
    visited.add(seed)
    comp = [seed]
    frontier = [seed]
    while frontier:
        grown = []
        for f in frontier:
            for group in members[f]:
                for o in group:
                    if o not in visited:
                        visited.add(o)
                        comp.append(o)
                        grown.append(o)
        frontier = grown
    comp.sort(key=rank)
    return comp


def neighbours(finished, members) -> list:
    """Flows sharing a resource with any of ``finished`` (still in
    ``members``), finishers excluded: once the finishers are gone, the
    components of these seeds hold every flow whose rate can change."""
    seen = set(finished)
    seeds = []
    for f in finished:
        for group in members[f]:
            for o in group:
                if o not in seen:
                    seen.add(o)
                    seeds.append(o)
    return seeds


def fill(fps, caps, capacity, cap_slack, res_slack) -> list:
    """Weighted progressive filling of one contention component.

    Flow ``k`` (arrival order, which fixes the rounding) consumes
    ``weight × rate`` of each ``(resource, weight)`` in ``fps[k]`` and is
    capped at ``caps[k]``.  Each round raises every unfrozen rate by the
    largest common step, then freezes the flows within ``cap_slack[k]`` of
    their cap or on a resource with at most ``res_slack[r]`` left.
    Returns the rates in ``fps`` order.
    """
    rate = [0.0] * len(fps)
    residual: dict = {}
    demand: dict = {}     # resource -> summed weight of its unfrozen flows
    count: dict = {}      # resource -> footprint entries of those flows
    for fp in fps:
        for r, w in fp:
            residual[r] = capacity[r]
            demand[r] = demand.get(r, 0.0) + w
            count[r] = count.get(r, 0) + 1
    active = list(range(len(fps)))
    while active:
        step = math.inf
        for k in active:
            head = caps[k] - rate[k]
            if head < step:
                step = head
        for r, d in demand.items():
            head = residual[r] / d
            if head < step:
                step = head
        if step > _MIN_STEP:
            for k in active:
                rate[k] += step
                for r, w in fps[k]:
                    residual[r] -= w * step
            for r in demand:
                if residual[r] < 0.0:    # numerical guard
                    residual[r] = 0.0
        full = {r for r in demand if residual[r] <= res_slack[r]}
        rest, frozen = [], []
        for k in active:
            if rate[k] < caps[k] - cap_slack[k] and not (
                    full and any(r in full for r, _w in fps[k])):
                rest.append(k)
            else:
                frozen.append(k)
        if not frozen:     # no progress possible without a freeze: stop
            break
        for k in frozen:
            for r, w in fps[k]:
                count[r] -= 1
                if count[r]:
                    demand[r] -= w
                else:
                    del demand[r]
                    del count[r]
        active = rest
    return rate


def fill_all(fps, caps, capacity, cap_slack, res_slack) -> list:
    """:func:`fill` over a whole population, one contention component at a
    time (components share no resource, so their fills are independent)."""
    members: dict = {}
    for k, fp in enumerate(fps):
        for r, _w in fp:
            members.setdefault(r, []).append(k)
    groups = [[members[r] for r, _w in fp] for fp in fps]
    rates = [0.0] * len(fps)
    visited: set = set()
    for seed in range(len(fps)):
        if seed in visited:
            continue
        comp = component(seed, visited, groups)
        filled = fill([fps[k] for k in comp], [caps[k] for k in comp],
                      capacity, [cap_slack[k] for k in comp], res_slack)
        for k, r in zip(comp, filled):
            rates[k] = r
    return rates

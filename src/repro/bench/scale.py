"""Scale-out benches: ``repro bench --sweep-nodes`` and scenario runs.

Drives generated topologies (tori, fat-trees, hierarchies) with the
open-loop traffic engine and reports flow-level statistics per cell:
p50/p99 flow completion time, goodput, peak concurrency, gateway queue
high-water mark, and the kernel-cost figure of merit (dispatched events per
transferred MB).  The default grid ends at a 256-node 3D torus under 128
concurrent flows — the scale the calendar-queue scheduler exists for.

``event_growth`` (events/MB at high flow count over events/MB at low flow
count, same topology) is the committed scaling floor: growth must stay
sub-linear (≤ ``sweep_nodes_event_growth`` in the regress baseline) as
flows multiply 8×.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..madeleine import reset_global_ids
from ..scenario import Scenario, Topology, TrafficSpec

__all__ = ["DEFAULT_GRID", "sweep_nodes", "run_traffic_scenario",
           "solve_traffic_scenario", "format_sweep", "scaling_scenario",
           "incremental_rates_scenario"]

#: (kind, shape, flows) cells; shape is ``dims`` for torus.
DEFAULT_GRID: tuple = (
    ("torus", (4, 4), 16),
    ("torus", (8, 8), 64),
    ("torus", (8, 8, 4), 128),
)

_SWEEP_SEED = 7


def _topology(kind: str, shape: Sequence[int]) -> Topology:
    if kind == "torus":
        return Topology(kind="torus", protocols=("myrinet",),
                        dims=tuple(shape))
    if kind == "fat_tree":
        leaves, spines, hosts = shape
        return Topology(kind="fat_tree", protocols=("myrinet", "sci"),
                        sizes=(leaves, hosts), gateways=(spines,))
    if kind == "hierarchy":
        clusters, size, gws = shape
        return Topology(kind="hierarchy", protocols=("myrinet", "sci"),
                        sizes=(clusters, size), gateways=(gws,))
    raise ValueError(f"unknown sweep topology kind {kind!r}")


def _cell_scenario(topo: Topology, flows: int, *, pattern: str,
                   size: int, mean_interarrival: float,
                   scheduler: str, seed: int) -> Scenario:
    return Scenario(
        seed=seed, topology=topo,
        traffic=TrafficSpec(pattern=pattern, flows=flows,
                            mean_interarrival=mean_interarrival, size=size),
        scheduler=scheduler,
        # Congestion is the point of these scenarios; the gateway stall
        # timeout is a crash heuristic and would abandon slow messages.
        gw_stall_timeout=None)


def run_traffic_scenario(scenario: Scenario) -> dict:
    """Run one traffic scenario and return its flow-level summary row."""
    from ..traffic import run_traffic
    reset_global_ids()
    session, engine = run_traffic(scenario)
    row = engine.summary()
    m = session.metrics
    gw_hwm = 0
    for inst in m.series("gateway.occupancy"):
        gw_hwm = max(gw_hwm, int(inst.hwm))
    row["gw_queue_hwm"] = gw_hwm
    row["forwarded"] = int(m.total("gateway.messages_forwarded"))
    return row


def solve_traffic_scenario(scenario: Scenario) -> dict:
    """The solver fast path of :func:`run_traffic_scenario`: the same
    summary row, estimated by the fluid fixed-point solver instead of the
    DES (no gateway-queue telemetry — the fluid model has no queues)."""
    from ..solver import solve
    return solve(scenario).summary()


def sweep_nodes(grid: Sequence = DEFAULT_GRID, *,
                pattern: str = "uniform", size: int = 32 << 10,
                mean_interarrival: float = 50.0,
                scheduler: str = "calendar", seed: int = _SWEEP_SEED,
                progress=None, mode: str = "des") -> list[dict]:
    """Run the node-scaling grid; one summary row per ``(kind, shape,
    flows)`` cell.  ``mode="solver"`` estimates every cell with the
    analytic solver instead of running the DES — the fast path for
    exploring grids far beyond what simulation wall-clock allows (flow-level
    accuracy bounds in docs/solver.md)."""
    if mode not in ("des", "solver"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    rows = []
    for kind, shape, flows in grid:
        topo = _topology(kind, shape)
        if progress is not None:
            progress(f"{kind}{tuple(shape)} x {flows} flows "
                     f"({topo.n_nodes} nodes)")
        sc = _cell_scenario(topo, flows, pattern=pattern, size=size,
                            mean_interarrival=mean_interarrival,
                            scheduler=scheduler, seed=seed)
        row = (solve_traffic_scenario(sc) if mode == "solver"
               else run_traffic_scenario(sc))
        row.update({"kind": kind, "shape": list(shape), "flows": flows,
                    "nodes": topo.n_nodes})
        rows.append(row)
    return rows


def format_sweep(rows: list[dict]) -> str:
    head = (f"{'topology':16s} {'nodes':>5s} {'flows':>5s} {'done':>5s} "
            f"{'p50 FCT':>9s} {'p99 FCT':>9s} {'goodput':>9s} "
            f"{'gwq':>4s} {'ev/MB':>8s}")
    lines = [head, "-" * len(head)]
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        gwq = r.get("gw_queue_hwm")
        lines.append(
            f"{r['kind'] + '(' + shape + ')':16s} {r['nodes']:5d} "
            f"{r['flows']:5d} {r['completed']:5d} "
            f"{r['p50_fct_us']:7.0f}us {r['p99_fct_us']:7.0f}us "
            f"{r['goodput_mbs']:6.1f}MBs "
            + (f"{gwq:4d} " if gwq is not None else f"{'-':>4s} ")
            + f"{r['events_per_mb']:8.0f}")
    return "\n".join(lines)


def scaling_scenario() -> dict:
    """The regress cell: events/MB growth 8 → 64 flows on a 4×4 torus.

    Sub-linear kernel cost is the commitment: with 8× the concurrent
    flows, dispatched events per MB must grow by at most the committed
    ``sweep_nodes_event_growth`` factor (< 1 in practice — fixed per-run
    costs amortize).  Runs on the calendar scheduler, whose dispatch order
    is asserted bit-identical to the heap elsewhere.
    """
    topo = _topology("torus", (4, 4))
    out = {}
    for flows in (8, 64):
        sc = _cell_scenario(topo, flows, pattern="uniform", size=32 << 10,
                            mean_interarrival=200.0, scheduler="calendar",
                            seed=11)
        row = run_traffic_scenario(sc)
        if row["completed"] < flows:
            # A partial run's FCT/event statistics describe only the flows
            # that happened to finish — comparing them against the baseline
            # would be meaningless, so refuse loudly instead.
            raise RuntimeError(
                f"scaling cell torus(4,4) x {flows} flows: only "
                f"{row['completed']}/{flows} flows completed; refusing to "
                f"report partial FCT statistics")
        out[f"events_per_mb_{flows}f"] = row["events_per_mb"]
        out[f"p99_fct_us_{flows}f"] = row["p99_fct_us"]
        out[f"completed_{flows}f"] = float(row["completed"])
    out["event_growth"] = (out["events_per_mb_64f"]
                           / out["events_per_mb_8f"])
    return out


_FROZEN_REL_EPS = 1e-9


def _pr8_max_min_rates(flows, capacities: dict) -> dict:
    """The whole-population ``max_min_rates`` of the reference loop, frozen:
    the fill of the ``incremental_solver_speedup`` denominator and an
    independent check on the shared engine (:mod:`repro.sim.maxmin`)."""
    rate = {f.id: 0.0 for f in flows}
    used = {key: 0.0 for key in capacities}
    active = list(flows)
    while active:
        load: dict = {}
        for f in active:
            for key, w in f.footprint:
                load[key] = load.get(key, 0.0) + w
        inc = min(f.ceiling - rate[f.id] for f in active)
        for key, demand in load.items():
            inc = min(inc, (capacities[key] - used[key]) / demand)
        inc = max(inc, 0.0)
        for f in active:
            rate[f.id] += inc
            for key, w in f.footprint:
                used[key] += w * inc
        saturated = {
            key for key in load
            if capacities[key] - used[key]
            <= _FROZEN_REL_EPS * max(1.0, capacities[key])
        }
        rest = [f for f in active
                if rate[f.id] < f.ceiling - _FROZEN_REL_EPS * max(1.0, f.ceiling)
                and not any(key in saturated for key, _w in f.footprint)]
        if len(rest) == len(active):   # numerical stall: nothing froze
            break                      # pragma: no cover
        active = rest
    return rate


def _pr8_solve_finish_times(scenario: Scenario) -> dict:
    """The PR 8 solver epoch loop, preserved verbatim as the speed
    reference for the incremental engine: a full max-min fill over every
    live rail at every epoch, ``pending.pop(0)`` admission, and
    per-epoch rebuilds of every load dict.  Returns app index → finish µs.
    """
    from ..solver.core import _application_flows
    from ..solver.network import SolverNetwork

    net = SolverNetwork(scenario)
    caps = {key: r.capacity for key, r in net.resources.items()}
    rails = []
    meta = {}
    for index, src, dst, nbytes, arrival in _application_flows(scenario):
        expanded = net.routed_flows(index, src, dst, nbytes, arrival=arrival)
        rails.extend(expanded)
        meta[index] = len(expanded)
    pending = sorted(rails, key=lambda r: (r.arrival + r.setup_us, r.id))
    active, finish = {}, {}
    now = 0.0
    while pending or active:
        if not active:
            now = max(now, pending[0].arrival + pending[0].setup_us)
        else:
            rates = _pr8_max_min_rates([f for f, _rem in active.values()],
                                       caps)
            dt_done = math.inf
            for rid, (_f, rem) in active.items():
                dt_done = min(dt_done, rem / rates[rid])
            horizon = now + dt_done
            if pending:
                horizon = min(horizon,
                              pending[0].arrival + pending[0].setup_us)
            dt = horizon - now
            for rid, entry in active.items():
                entry[1] = entry[1] - rates[rid] * dt
            now = horizon
            for rid in [rid for rid, (_f, rem) in active.items()
                        if rem <= 1e-6]:
                finish[rid] = now
                del active[rid]
        while pending and pending[0].arrival + pending[0].setup_us \
                <= now + 1e-9:
            f = pending.pop(0)
            if f.nbytes <= 0:
                finish[f.id] = now
            else:
                active[f.id] = [f, float(f.nbytes)]
    return {index: max(finish[(index, r)] for r in range(k))
            for index, k in meta.items()}


def incremental_rates_scenario() -> dict:
    """The regress cell for the incremental fluid-rate engine (PR 9).

    Two committed guarantees (see ``DEFAULT_FLOORS``):

    * **DES locality** — on the 256-node torus uniform-traffic cell, the
      mean fraction of live flows whose rates each epoch re-solves stays
      under ``incremental_recompute_fraction`` (arrival/completion events
      only dirty their own contention component);
    * **solver speed** — the ``--sweep-nodes --mode solver`` grid runs at
      least ``incremental_solver_speedup`` × faster than the PR 8 epoch
      loop (re-run here verbatim, so the ratio is machine-independent),
      while agreeing with it on every flow completion time to 1e-6
      relative (``fct_agreement_ok``) and staying bit-identical to the
      full-recompute mode.

    ``wall_*`` and ``solver_speedup`` are wall-clock measurements and are
    excluded from the tolerance-band baseline comparison; everything else
    is deterministic.
    """
    import time
    from ..solver import solve

    out = {}
    # -- DES locality on the big torus cell ---------------------------------
    kind, shape, flows = DEFAULT_GRID[-1]
    sc = _cell_scenario(_topology(kind, shape), flows, pattern="uniform",
                        size=32 << 10, mean_interarrival=50.0,
                        scheduler="calendar", seed=_SWEEP_SEED)
    row = run_traffic_scenario(sc)
    if row["completed"] < flows:
        raise RuntimeError(
            f"incremental_rates cell {kind}{tuple(shape)} x {flows}: only "
            f"{row['completed']}/{flows} flows completed")
    out["des_recompute_fraction"] = row["fluid_recompute_fraction"]
    out["des_epochs"] = float(row["fluid_epochs"])
    out["des_recompute_flows"] = float(row["fluid_recompute_flows"])

    # -- solver speed + agreement over the sweep grid ------------------------
    def grid_cells():
        for kind, shape, flows in DEFAULT_GRID:
            yield _cell_scenario(_topology(kind, shape), flows,
                                 pattern="uniform", size=32 << 10,
                                 mean_interarrival=50.0,
                                 scheduler="calendar", seed=_SWEEP_SEED)

    # Interleave the two loops per cell and keep each cell's best of three
    # repetitions: a `--jobs` pool runs other scenarios on sibling cores,
    # and timing the loops back-to-back would let that contention land on
    # one side only and skew the ratio.
    cells = list(grid_cells())
    legacy: list = [None] * len(cells)
    results: list = [None] * len(cells)
    best_legacy = [float("inf")] * len(cells)
    best_inc = [float("inf")] * len(cells)
    for _rep in range(3):
        for i, sc in enumerate(cells):
            t0 = time.perf_counter()
            legacy[i] = _pr8_solve_finish_times(sc)
            best_legacy[i] = min(best_legacy[i], time.perf_counter() - t0)
            t0 = time.perf_counter()
            results[i] = solve(sc)
            best_inc[i] = min(best_inc[i], time.perf_counter() - t0)
    wall_legacy = sum(best_legacy)
    wall_inc = sum(best_inc)
    full = [solve(sc, incremental=False) for sc in cells]

    agree = 1.0
    for ref, res, res_full in zip(legacy, results, full):
        for est, est_full in zip(res.flows, res_full.flows):
            if est.finish_us != est_full.finish_us:
                agree = 0.0     # incremental must equal full *bit for bit*
            if not math.isclose(est.finish_us, ref[est.index],
                                rel_tol=1e-6, abs_tol=1e-3):
                agree = 0.0
    big = results[-1]
    out["solver_recompute_fraction"] = (big.epoch_flows
                                        / big.live_flow_epochs)
    out["mean_component_flows"] = (
        sum(size * n for size, n in big.component_sizes.items())
        / max(1, sum(big.component_sizes.values())))
    out["solver_epochs"] = float(big.recomputes)
    out["fct_agreement_ok"] = agree
    out["wall_legacy_s"] = wall_legacy
    out["wall_incremental_s"] = wall_inc
    out["solver_speedup"] = wall_legacy / wall_inc
    return out

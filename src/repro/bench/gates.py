"""One gate table and one evaluator for every committed bound.

Both regression harnesses pin the paper's results against committed
baselines: ``repro bench --regress`` (the figure 5–8 gateway pipeline and
the feature floors, ``benchmarks/baselines/bench_regress.json``) and
``repro solve --validate`` (solver == DES within 5%,
``benchmarks/baselines/solver_validate.json``).  Each harness turns its
baseline into *rows* — a :class:`Gate` from the table below plus the bound
the baseline commits for it — and :func:`evaluate` makes every pass/fail
decision, so the missing/non-finite checks, the edge slack and the
message format exist once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

__all__ = ["Gate", "evaluate", "EDGE_SLACK", "BAND", "FLOORS", "PRE_PR3",
           "FCT_AGREEMENT", "STRICT", "FAMILY_FLOOR", "SPEEDUP"]

#: absolute slack at a floor's or ceiling's edge: a value that lands on
#: the bound up to float summation noise passes.
EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class Gate:
    """One committed bound on one measured metric.

    ``key`` names the bound in the committed baseline; ``path`` is the
    metric as ``scenario.metric`` (``family.max_rel_err`` for the solver
    families); ``op`` is ``">="`` (a floor), ``"<="`` (a ceiling) or
    ``"band"`` (symmetric tolerance around a baseline value).  ``default``
    is the bound a fresh baseline is seeded with (``None``: nothing to
    seed).
    """

    key: str
    path: str
    op: str
    default: Optional[float]
    reason: str = ""


def _lookup(current: Mapping, path: str):
    value = current
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value


def evaluate(rows: Iterable[tuple[Gate, float]], current: Mapping,
             tolerance: float = 0.0) -> list[str]:
    """Failure messages for ``(gate, bound)`` rows against ``current``
    (empty means every gate passes).

    A metric that is absent, null or non-finite fails every gate, as does
    a null or non-finite committed bound; ``band`` rows allow
    ``tolerance`` relative drift from the bound.
    """
    failures = []
    for gate, bound in rows:
        path, value = gate.path, _lookup(current, gate.path)
        if bound is None or not math.isfinite(bound):
            failures.append(f"{path}: committed baseline value is {bound!r}; "
                            f"re-measure and update the baseline")
        elif value is None:
            failures.append(f"{path}: missing from this run")
        elif not math.isfinite(value):
            failures.append(f"{path}: non-finite ({value!r}) — the scenario "
                            f"produced no measurable value")
        elif gate.op == "band":
            if abs(value - bound) > tolerance * max(abs(bound), 1e-9):
                failures.append(f"{path}: {value:.6g} drifted from baseline "
                                f"{bound:.6g} (>{tolerance:.0%})")
        elif gate.op == ">=":
            if value < bound - EDGE_SLACK:
                failures.append(f"{path}: {value:.6g} is below the committed "
                                f"floor {bound:.6g} — {gate.reason}")
        elif value > bound + EDGE_SLACK:
            failures.append(f"{path}: {value:.6g} exceeds the committed "
                            f"ceiling {bound:.6g} — {gate.reason}")
    # A metric under several gates (a band and a floor) is reported
    # missing or non-finite once.
    return list(dict.fromkeys(failures))


# -- bench-regress (bench_regress.json) --------------------------------------
#: every baseline metric of a scenario that ran; ``default`` seeds the
#: baseline's ``tolerance``.
BAND = Gate("tolerance", "", "band", 0.10)

#: the baseline's ``floors``: commitments a feature must keep delivering.
FLOORS = (
    Gate("pipeline_depth4_gain", "pipeline.depth4_gain", ">=", 0.10,
         "the depth-4 tuned pipeline stopped beating depth-2/static-MTU"),
    Gate("batching_record_reduction", "batching.record_reduction", ">=",
         0.25, "header batching stopped removing wire records"),
    Gate("multirail_dual_gain", "multirail.multirail_dual_gain", ">=", 1.5,
         "dual-rail striping stopped aggregating bandwidth"),
    Gate("sweep_nodes_event_growth", "sweep_nodes.event_growth", "<=", 1.3,
         "kernel cost per MB is no longer sub-linear in concurrent flow "
         "count"),
    Gate("incremental_recompute_fraction",
         "incremental_rates.des_recompute_fraction", "<=", 0.25,
         "rate epochs are no longer local to their contention component"),
    Gate("incremental_solver_speedup", "incremental_rates.solver_speedup",
         ">=", 2.0, "the solver sweep grid lost its speedup over the frozen "
         "reference epoch loop (re-run in-process, so machine-independent)"),
    Gate("adaptive_mixed_gain", "adaptive.adaptive_mixed_gain", ">=", 1.15,
         "the adaptive transport stopped beating the static configuration "
         "on the mixed workload"),
    Gate("adaptive_jain_fairness", "adaptive.adaptive_jain_fairness", ">=",
         0.9, "the adaptive policy is starving some flows to win its "
         "aggregate gain"),
    Gate("adaptive_recovery_fraction", "adaptive.adaptive_recovery_fraction",
         ">=", 0.7, "post-rail-loss bandwidth fell away from the "
         "surviving-rail optimum"),
)

#: bound = ``fig5_events_per_mb × (1 − min_event_reduction)`` of the
#: baseline's ``pre_pr3`` entry, a historical measurement.
PRE_PR3 = Gate("pre_pr3", "fig5.events_per_mb", "<=", None,
               "the hot-path pass guarantees min_event_reduction below the "
               "pre-optimisation kernel (pre_pr3)")

#: a 0/1 flag, held at 1 wherever the solver speedup floor is committed.
FCT_AGREEMENT = Gate("fct_agreement_ok", "incremental_rates.fct_agreement_ok",
                     ">=", 1.0, "the incremental solver's completion times "
                     "diverged from the full recomputation (or from the "
                     "frozen reference loop)")

# -- solver-validate (solver_validate.json) ----------------------------------
#: per strict family; the path is prefixed with the family name.
STRICT = Gate("strict_limit", "max_rel_err", "<=", 0.05,
              "a strict family must stay within the strict solver==DES limit")
#: per family; bound = the family's committed ``max_rel_err`` + ``slack``.
FAMILY_FLOOR = Gate("slack", "max_rel_err", "<=", 0.005,
                    "the solver drifted from the DES past the family's "
                    "committed floor (+slack)")
SPEEDUP = Gate("min_speedup", "speedup", ">=", 100.0,
               "the solver must beat the DES by this wall-clock factor on "
               "the strict grids")

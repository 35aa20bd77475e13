"""The gate table: parity with the committed baselines, edge behaviour, and
absent/null/non-finite metrics failing every gate."""

import copy
import json

import pytest

from repro.bench import gates
from repro.bench import regress as rg
from repro.solver import validate as sv

REGRESS = json.loads(rg.DEFAULT_BASELINE.read_text(encoding="utf-8"))
VALIDATE = json.loads(sv.DEFAULT_VALIDATE_BASELINE.read_text(encoding="utf-8"))

#: every committed bench-regress floor with the metric and direction its
#: hand-written check enforced before the gate table existed.
REGRESS_FLOORS = {
    "pipeline_depth4_gain": ("pipeline.depth4_gain", ">="),
    "batching_record_reduction": ("batching.record_reduction", ">="),
    "multirail_dual_gain": ("multirail.multirail_dual_gain", ">="),
    "sweep_nodes_event_growth": ("sweep_nodes.event_growth", "<="),
    "incremental_recompute_fraction":
        ("incremental_rates.des_recompute_fraction", "<="),
    "incremental_solver_speedup": ("incremental_rates.solver_speedup", ">="),
    "adaptive_mixed_gain": ("adaptive.adaptive_mixed_gain", ">="),
    "adaptive_jain_fairness": ("adaptive.adaptive_jain_fairness", ">="),
    "adaptive_recovery_fraction":
        ("adaptive.adaptive_recovery_fraction", ">="),
}


def _regress_rows():
    return rg.gate_rows(REGRESS["scenarios"], REGRESS)


def _validate_result():
    return {"families": {name: {"max_rel_err": fam["max_rel_err"],
                                "strict": fam["strict"]}
                         for name, fam in VALIDATE["families"].items()},
            "speedup": 150.0}


def _one(rows, key, path):
    match = [(g, b) for g, b in rows if g.key == key and g.path == path]
    assert len(match) == 1, (key, path, match)
    return match[0]


def test_regress_table_reproduces_every_committed_bound():
    rows = _regress_rows()
    assert set(REGRESS["floors"]) == set(REGRESS_FLOORS)
    assert {g.key for g in gates.FLOORS} == set(REGRESS_FLOORS)
    for key, (path, op) in REGRESS_FLOORS.items():
        gate, bound = _one(rows, key, path)
        assert (gate.op, bound) == (op, REGRESS["floors"][key])
    pre = REGRESS["pre_pr3"]
    gate, bound = _one(rows, "pre_pr3", "fig5.events_per_mb")
    assert gate.op == "<="
    assert bound == pre["fig5_events_per_mb"] * (
        1.0 - pre["min_event_reduction"])
    gate, bound = _one(rows, "fct_agreement_ok",
                       "incremental_rates.fct_agreement_ok")
    assert (gate.op, bound) == (">=", 1.0)
    bands = [(g, b) for g, b in rows if g.op == "band"]
    assert len(bands) == sum(
        1 for metrics in REGRESS["scenarios"].values() for m in metrics
        if not m.startswith("wall_") and m != "solver_speedup")
    assert len(rows) == len(bands) + len(REGRESS_FLOORS) + 2


def test_validate_table_reproduces_every_committed_bound():
    rows = sv.validate_rows(VALIDATE)
    for name, fam in VALIDATE["families"].items():
        path = f"{name}.max_rel_err"
        gate, bound = _one(rows, "slack", path)
        assert (gate.op, bound) == ("<=", fam["max_rel_err"]
                                    + VALIDATE["slack"])
        strict = [g for g, _b in rows
                  if g.key == "strict_limit" and g.path == path]
        if fam["strict"]:
            gate, bound = _one(rows, "strict_limit", path)
            assert (gate.op, bound) == ("<=", VALIDATE["strict_limit"])
        else:
            assert strict == []
    gate, bound = _one(rows, "min_speedup", "speedup")
    assert (gate.op, bound) == (">=", VALIDATE["min_speedup"])
    n_strict = sum(f["strict"] for f in VALIDATE["families"].values())
    assert len(rows) == len(VALIDATE["families"]) + n_strict + 1


_ABSENT = object()


def _set(current, path, value):
    """Set the metric at ``path``; ``_ABSENT`` deletes it."""
    *parents, leaf = path.split(".")
    for part in parents:
        current = current[part]
    if value is _ABSENT:
        del current[leaf]
    else:
        current[leaf] = value


def _edges(gate, bound, tolerance):
    """(just inside, just outside) the bound."""
    if gate.op == "band":
        width = tolerance * max(abs(bound), 1e-9)
        return bound + width * (1 - 1e-6), bound + width * (1 + 1e-6)
    step = 2e-9 * max(1.0, abs(bound))   # just past the 1e-9 edge slack
    return bound, (bound - step if gate.op == ">=" else bound + step)


@pytest.mark.parametrize("harness", ["regress", "validate"])
def test_every_row_passes_just_inside_and_fails_just_outside(harness):
    if harness == "regress":
        rows, base, tol = _regress_rows(), REGRESS["scenarios"], \
            REGRESS["tolerance"]
    else:
        rows, tol = sv.validate_rows(VALIDATE), 0.0
        result = _validate_result()
        base = dict(result["families"], speedup=result["speedup"])
    for gate, bound in rows:
        inside, outside = _edges(gate, bound, tol)
        current = copy.deepcopy(base)
        _set(current, gate.path, inside)
        assert gates.evaluate([(gate, bound)], current, tol) == [], gate
        _set(current, gate.path, outside)
        failures = gates.evaluate([(gate, bound)], current, tol)
        assert len(failures) == 1 and failures[0].startswith(gate.path)


_REGRESS_GATED = ([g.path for g in gates.FLOORS]
                  + [gates.PRE_PR3.path, gates.FCT_AGREEMENT.path])
_VALIDATE_GATED = ([f"{name}.max_rel_err" for name in VALIDATE["families"]]
                   + ["speedup"])
_BROKEN = {"nan": (float("nan"), "non-finite"), "none": (None, "missing"),
           "absent": (_ABSENT, "missing")}


@pytest.mark.parametrize("how", sorted(_BROKEN))
@pytest.mark.parametrize("path", _REGRESS_GATED)
def test_regress_gate_fails_on_broken_metric(path, how):
    current = copy.deepcopy(REGRESS["scenarios"])
    assert rg.compare_to_baseline(current, REGRESS) == []
    _set(current, path, _BROKEN[how][0])
    failures = rg.compare_to_baseline(current, REGRESS)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{path}: ")
    assert _BROKEN[how][1] in failures[0]


@pytest.mark.parametrize("how", sorted(_BROKEN))
@pytest.mark.parametrize("path", _VALIDATE_GATED)
def test_validate_gate_fails_on_broken_metric(path, how):
    result = _validate_result()
    assert sv.compare_validate(result, VALIDATE) == []
    _set(result if path == "speedup" else result["families"], path,
         _BROKEN[how][0])
    failures = sv.compare_validate(result, VALIDATE)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{path}: ")
    assert _BROKEN[how][1] in failures[0]


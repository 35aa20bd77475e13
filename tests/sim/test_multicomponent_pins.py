"""Exact DES schedules of two multi-component traffic cells.

The golden fig5 trace is one contention component, so it cannot see a
rounding change that only shows when several components are filled in
the same epoch.  These cells (a 4×4 Myrinet torus and a two-protocol fat
tree with gateways) split into many components; each pin holds the FCT
digest in perfbench's format, the kernel's event count and the fluid
network's work counters.  A change to the fill's rounding or to which
flows an epoch settles moves them; re-pin only on purpose.
"""

import hashlib
import json

import pytest

from repro.madeleine import Session
from repro.solver.validate import traffic_scenario
from repro.traffic import TrafficEngine

#: (kind, flows) -> (FCT digest, events, epochs, component fills, cache hits)
PINS = {
    ("torus", 64): ("ab4c97e62cbf2e76", 12890, 1846, 1626, 910),
    ("fat_tree", 32): ("966557aa9466b6ae", 11361, 1581, 1258, 865),
}


@pytest.mark.parametrize("cell", sorted(PINS))
def test_multicomponent_schedule_is_pinned(cell):
    scenario = traffic_scenario(*cell)
    session = Session.from_scenario(scenario)
    engine = TrafficEngine(session, scenario)
    engine.start()
    session.run()
    records = sorted(engine.records, key=lambda r: r.flow.index)
    assert len(records) == cell[1]
    text = json.dumps([(r.flow.index, r.flow.nbytes, r.fct.hex())
                       for r in records])
    fnet = session.world.fnet
    assert (hashlib.sha256(text.encode()).hexdigest()[:16],
            session.sim.events_processed, fnet.recompute_epochs,
            fnet.component_fills, fnet.fill_cache_hits) == PINS[cell]

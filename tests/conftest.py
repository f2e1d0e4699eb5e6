"""Fixtures shared by the test modules."""

from dataclasses import replace

import pytest

from relaydmt import (
    Network, PropagationProgram, dmt, kpp_network, layered_network, netgraph,
    protocol, single_link_network)

# the structure analyses a compiled program builds on first use
PROGRAM_ANALYSES = ("_structure", "_masks", "_classes", "row_blocks", "_steps")


def _record_runs(monkeypatch, module, name):
    """Patch the one-network function ``module.name`` to record the
    networks it runs on, in call order, and return that record."""
    runs = []
    inner = getattr(module, name)

    def counting(net):
        runs.append(net)
        return inner(net)

    monkeypatch.setattr(module, name, counting)
    return runs


@pytest.fixture
def classify_runs(monkeypatch):
    """The networks ``netgraph._classify`` runs on, in call order."""
    return _record_runs(monkeypatch, netgraph, "_classify")


@pytest.fixture
def min_cut_runs(monkeypatch):
    """The networks ``netgraph._min_cut`` runs on, in call order."""
    return _record_runs(monkeypatch, netgraph, "_min_cut")


@pytest.fixture
def schedule_runs(monkeypatch):
    """The networks ``protocol._auto_schedule`` runs on, in call order."""
    return _record_runs(monkeypatch, protocol, "_auto_schedule")


@pytest.fixture
def family_runs(monkeypatch):
    """The networks ``dmt._family_dmt`` runs on, in call order."""
    return _record_runs(monkeypatch, dmt, "_family_dmt")


@pytest.fixture
def antenna_nets():
    """Networks with multi-antenna nodes, which no sweep models: KPP(2,3)
    with two-antenna source and sink, layered (1,2,2,1) with two-antenna
    relays, and a 2x2 bare link."""
    def widened(net, ids):
        return Network([replace(n, antennas=2) if n.id in ids else n
                        for n in net.nodes], net.edges, name=net.name)

    layered = layered_network((1, 2, 2, 1))
    return {
        "kpp23": widened(kpp_network((2, 3)), {"s", "d"}),
        "layered1221": widened(layered, {n.id for n in layered.relays}),
        "bare22": widened(single_link_network(), {"s", "d"}),
    }


@pytest.fixture
def analysis_builds(monkeypatch):
    """Per structure analysis of ``PropagationProgram``, the programs it
    was built on, in call order."""
    builds = {name: [] for name in PROGRAM_ANALYSES}
    for name in PROGRAM_ANALYSES:
        prop = PropagationProgram.__dict__[name]

        def counting(prog, inner=prop.func, built=builds[name]):
            built.append(prog)
            return inner(prog)

        monkeypatch.setattr(prop, "func", counting)
    return builds

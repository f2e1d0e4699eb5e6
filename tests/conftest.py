"""Fixtures shared by the test modules."""

import pytest

from relaydmt import PropagationProgram, netgraph

# the structure analyses a compiled program builds on first use
PROGRAM_ANALYSES = ("_structure", "_masks", "_classes", "row_blocks")


@pytest.fixture
def classify_runs(monkeypatch):
    """The networks ``netgraph._classify`` runs on, in call order."""
    runs = []
    inner = netgraph._classify

    def counting(net):
        runs.append(net)
        return inner(net)

    monkeypatch.setattr(netgraph, "_classify", counting)
    return runs


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

"""Fixtures shared by the test modules."""

import pytest

from relaydmt import netgraph


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

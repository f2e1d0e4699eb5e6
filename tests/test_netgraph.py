"""Graph layer: flow values against an independent augmenting-path
oracle, family classification, builders and the JSON round-trip."""

import random

import pytest

from relaydmt import (
    Edge,
    NetworkError,
    Network,
    Node,
    SearchBudgetError,
    UnreachableSinkError,
    classify,
    edge_disjoint_paths,
    expand_antennas,
    forward_paths,
    is_relay_bank,
    kpp_network,
    layered_network,
    load_network,
    min_cut,
    naf_network,
    network_from_dict,
    network_to_dict,
    saf_network,
    save_network,
    single_link_network,
    two_hop_network,
)


# ---------------------------------------------------------------------------
# oracle: shortest-augmenting-path max flow, written against the raw
# arc list so it shares nothing with the library's solver

def augmenting_flow(arcs, s, t):
    """Unit-capacity max flow by repeated BFS augmentation."""
    adj = {}
    for u, v in arcs:
        adj.setdefault(u, []).append([v, 1, None])
        adj.setdefault(v, [])
    for u in list(adj):
        for arc in adj[u]:
            if arc[2] is None:
                back = [u, 0, arc]
                adj[arc[0]].append(back)
                arc[2] = back
    flow = 0
    while True:
        parent = {s: None}
        queue = [s]
        while queue and t not in parent:
            u = queue.pop(0)
            for arc in adj[u]:
                if arc[1] > 0 and arc[0] not in parent:
                    parent[arc[0]] = arc
                    queue.append(arc[0])
        if t not in parent:
            return flow
        arc = parent[t]
        while arc is not None:
            arc[1] -= 1
            arc[2][1] += 1
            arc = parent[arc[2][0]]
        flow += 1


def expand_by_hand(net):
    """Re-derive the single-antenna arc list from the stated rule:
    relay copies per antenna, terminal multiplicity as parallel arcs."""
    copies = {}
    for n in net.nodes:
        if n.role == "relay" and n.antennas > 1:
            copies[n.id] = [f"{n.id}::{i}" for i in range(n.antennas)]
        else:
            copies[n.id] = [n.id]
    tmult = {net.source.id: net.source.antennas,
             net.sink.id: net.sink.antennas}
    arcs = []
    for e in net.edges:
        mult = tmult.get(e.tail, 1) * tmult.get(e.head, 1)
        for u in copies[e.tail]:
            for v in copies[e.head]:
                arcs += [(u, v)] * mult
    return arcs


def random_dag(rng, max_nodes=20):
    """Connected random DAG with ranked nodes; the rank order rules
    out cycles and a final splice guarantees the sink is reachable."""
    n_mid = rng.randint(1, max_nodes - 2)
    names = ["s"] + [f"v{i}" for i in range(n_mid)] + ["d"]
    edges = []
    for i, u in enumerate(names[:-1]):
        for v in names[i + 1:]:
            if rng.random() < 0.3:
                edges.append(Edge(u, v))
    reach = {"s"}
    for u, v in sorted((e.tail, e.head) for e in edges):
        if u in reach:
            reach.add(v)
    if "d" not in reach:
        via = rng.choice(sorted(reach))
        edges.append(Edge(via, "d"))
    nodes = [Node("s", "source")] + [Node(v) for v in names[1:-1]] \
        + [Node("d", "sink")]
    return Network(nodes, edges)


# ---------------------------------------------------------------------------
# flow

def test_min_cut_matches_augmenting_path_oracle_on_random_dags():
    rng = random.Random(20240811)
    for _ in range(100):
        net = random_dag(rng)
        arcs = [(e.tail, e.head) for e in net.edges]
        assert min_cut(net) == augmenting_flow(arcs, "s", "d")


def test_disjoint_paths_are_valid_disjoint_and_count_the_cut():
    rng = random.Random(5)
    for _ in range(40):
        net = random_dag(rng)
        paths = edge_disjoint_paths(net)
        used = []
        for p in paths:
            assert p[0] == "s" and p[-1] == "d"
            for pair in zip(p, p[1:]):
                assert net.has_edge(*pair)
                used.append(pair)
        assert len(used) == len(set(used)), "paths share an edge"
        assert len(paths) == min_cut(net)


def test_antenna_expansion_preserves_min_cut_two_ways():
    rng = random.Random(99)
    for _ in range(25):
        net = random_dag(rng, max_nodes=12)
        nodes = [Node(n.id, n.role, rng.randint(1, 3)) for n in net.nodes]
        multi = Network(nodes, net.edges)
        by_hand = augmenting_flow(expand_by_hand(multi), "s", "d")
        assert min_cut(multi) == by_hand
        assert min_cut(expand_antennas(multi)) == by_hand


def test_expansion_is_identity_for_single_antenna_nets():
    net = kpp_network((2, 3))
    assert expand_antennas(net) is net


def test_known_cut_values():
    assert min_cut(single_link_network()) == 1
    assert min_cut(naf_network()) == 2
    assert min_cut(kpp_network((2, 2, 2))) == 3
    assert min_cut(kpp_network((2, 3, 4), direct_link=True)) == 4
    assert min_cut(layered_network((1, 2, 2, 1))) == 2
    assert min_cut(layered_network((1, 3, 2, 1))) == 2


def test_flow_on_long_paths_needs_no_recursion():
    # 3600 relays: one augmenting path is longer than the recursion limit
    net = kpp_network((1200,) * 3)
    assert min_cut(net) == 3
    assert len(edge_disjoint_paths(net)) == 3


# ---------------------------------------------------------------------------
# classification

def test_parallel_path_tags():
    assert classify(kpp_network((2, 3, 4))).tag == "KPP"
    assert classify(kpp_network((2, 3, 4), direct_link=True)).tag == "KPP(D)"
    crossed = kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),))
    assert classify(crossed).tag == "KPP(I)"
    both = kpp_network((2, 2, 4), direct_link=True,
                       cross_links=(((3, 1), (1, 1)),))
    assert classify(both).tag == "KPP(I,D)"


def test_equal_length_paths_classify_as_regular():
    # the layered reading wins over the plain parallel-path one
    cls = classify(kpp_network((2, 2, 2)))
    assert (cls.tag, cls.K, cls.L) == ("regular", 3, 1)
    cls = classify(two_hop_network(5, direct_link=False))
    assert (cls.tag, cls.K, cls.L) == ("regular", 5, 1)
    cls = classify(layered_network((1, 2, 2, 1)))
    assert (cls.tag, cls.K, cls.L) == ("regular", 2, 2)
    assert cls.has_interference


def test_layered_tags():
    cls = classify(layered_network((1, 2, 3, 1)))
    assert cls.tag == "fully-connected-layered"
    assert [len(l) for l in cls.layers] == [1, 2, 3, 1]
    partial = layered_network((1, 3, 3, 1), fully_connected=False)
    assert classify(partial).tag in ("layered", "regular")


def test_classify_on_long_paths_needs_no_recursion():
    # 3600 relays: each backbone path is longer than the recursion limit
    cls = classify(kpp_network((1200,) * 3))
    assert (cls.tag, cls.K, cls.L) == ("regular", 3, 1199)
    assert [len(p) for p in cls.backbone] == [1201] * 3
    cls = classify(kpp_network((1199, 1200, 1201)))
    assert (cls.tag, cls.K) == ("KPP", 3)


def test_forward_paths_follow_edges_not_the_layer_product():
    # three 29-relay paths: 3**29 layer tuples, but only three paths
    net = kpp_network((30, 30, 30))
    assert list(forward_paths(net)) == list(classify(net).backbone)
    paths = forward_paths(layered_network((1, 2, 3, 1)))
    assert len(paths) == 6 and list(paths) == sorted(paths)


def test_spent_backbone_budget_is_an_error_not_a_tag():
    # the search cannot settle this regular network within its budget;
    # it must not fall through to the layered tags
    with pytest.raises(SearchBudgetError):
        classify(layered_network((1, 6, 6, 6, 6, 1)))
    assert classify(layered_network((1, 6, 6, 6, 1))).label == "regular(6,3)"


def test_banks_and_leftovers():
    assert classify(saf_network(3)).tag == "KPP(D)"
    assert classify(naf_network()).tag == "other"
    assert classify(single_link_network()).tag == "other"
    assert is_relay_bank(naf_network())
    assert is_relay_bank(saf_network(2))
    assert not is_relay_bank(two_hop_network(2, direct_link=False))
    assert not is_relay_bank(kpp_network((2, 3), direct_link=True))
    # a relay must hear the source and reach the sink: once a relay that
    # missed either link still made a bank, and got the bank's schedule
    # and its d(0) = 3 curve on a network whose min-cut is 2
    assert not is_relay_bank(saf_network(3).without_edges({("r3", "d")}))
    assert not is_relay_bank(saf_network(2).without_edges({("s", "r2")}))


def test_backbone_marks_exactly_the_parallel_families():
    # the CLI and auto_schedule take "has a backbone" as the parallel-path
    # family test, so classify must set one for these five tags and no other
    parallel = {"regular", "KPP", "KPP(I)", "KPP(D)", "KPP(I,D)"}
    full_duplex_line = Network(
        [Node("s", "source"), Node("r1", "relay", 1, "full"),
         Node("r2", "relay", 1, "full"), Node("d", "sink")],
        [Edge("s", "r1"), Edge("r1", "r2"), Edge("r2", "d")])
    nets = [
        single_link_network(), naf_network(), full_duplex_line,
        saf_network(2), saf_network(3), saf_network(4),
        two_hop_network(3, direct_link=False),
        kpp_network((2, 2, 2)), kpp_network((3, 3)), kpp_network((2, 5)),
        kpp_network((2, 3, 4)), kpp_network((2, 3, 2, 4)),
        kpp_network((2, 3, 4, 5)),
        kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),)),
        kpp_network((2, 3, 3), cross_links=(((1, 1), (2, 2)),)),
        kpp_network((2, 3, 4), direct_link=True),
        kpp_network((2, 3), direct_link=True),
        kpp_network((2, 3), cross_links=(((1, 1), (2, 1)),), direct_link=True),
        layered_network((1, 2, 2, 1)), layered_network((1, 2, 3, 1)),
        layered_network((1, 2, 3, 1), fully_connected=False),
        layered_network((1, 4, 3, 1), fully_connected=False),
    ]
    tags = set()
    for net in nets:
        cls = classify(net)
        tags.add(cls.tag)
        assert (cls.backbone is not None) == (cls.tag in parallel), cls.tag
    assert tags >= parallel | {"layered", "fully-connected-layered"}


def test_each_network_keeps_its_own_classification(classify_runs):
    net = kpp_network((2, 3, 4), direct_link=True)
    assert classify(net) is classify(net)
    assert classify(net).tag == "KPP(D)"
    # the twin backflow_check builds: reverse backbone edges removed
    reverse = [(b, a) for p in classify(net).backbone for a, b in zip(p, p[1:])]
    twin = net.without_edges(reverse)
    assert classify(twin).tag == "KPP(D)"
    assert not any(twin.has_edge(*pair) for pair in reverse)
    bare = net.without_edges([("s", "d"), ("d", "s")])
    assert classify(bare).tag == "KPP"
    assert classify_runs == [net, twin, bare]


def test_classification_label_is_readable():
    cls = classify(kpp_network((2, 3, 4), direct_link=True))
    assert "KPP(D)" in cls.label


# ---------------------------------------------------------------------------
# builders and measures

def test_kpp_builder_shapes():
    net = kpp_network((2, 3))
    assert {n.id for n in net.relays} == {"p1r1", "p2r1", "p2r2"}
    assert net.has_edge("s", "p1r1") and net.has_edge("p1r1", "d")
    # bidirectional by default
    assert net.has_edge("p1r1", "s")
    forward_only = kpp_network((2, 3), bidirectional=False)
    assert not forward_only.has_edge("p1r1", "s")
    with pytest.raises(NetworkError):
        kpp_network((1, 3))


def test_cross_link_coordinates_are_one_based():
    net = kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),))
    assert net.has_edge("p3r1", "p1r1") and net.has_edge("p1r1", "p3r1")


def test_network_validation_errors():
    with pytest.raises(NetworkError):
        Network([Node("s", "source"), Node("d", "sink"), Node("s")],
                [Edge("s", "d")])
    with pytest.raises(NetworkError):
        Network([Node("a"), Node("b", "sink")], [Edge("a", "b")])
    with pytest.raises(UnreachableSinkError):
        Network([Node("s", "source"), Node("d", "sink"), Node("r")],
                [Edge("s", "r")])
    with pytest.raises(NetworkError):
        Edge("x", "x")
    with pytest.raises(NetworkError):
        Node("r", antennas=0)


# ---------------------------------------------------------------------------
# serialization

def test_dict_round_trip_preserves_everything():
    nets = [
        kpp_network((2, 3, 4), direct_link=True, name="forked"),
        layered_network((1, 2, 3, 1), name="funnel"),
        Network([Node("s", "source", antennas=2), Node("d", "sink"),
                 Node("r", antennas=3, duplex="full")],
                [Edge("s", "r"), Edge("r", "d"), Edge("s", "d")],
                name="mixed"),
    ]
    for net in nets:
        assert network_from_dict(network_to_dict(net)) == net


def _two_hop_dict(antennas=1, bidirectional=None):
    """s -> r -> d with r's ``antennas``, and the r -> d edge marked
    ``bidirectional`` unless that is None."""
    edge = {"tail": "r", "head": "d"}
    if bidirectional is not None:
        edge["bidirectional"] = bidirectional
    return {"nodes": [{"id": "s", "role": "source", "antennas": 2},
                      {"id": "r", "antennas": antennas},
                      {"id": "d", "role": "sink", "antennas": 2}],
            "edges": [{"tail": "s", "head": "r"}, edge]}


def test_dict_antennas_and_bidirectional_load_as_written():
    net = network_from_dict(_two_hop_dict(antennas=2, bidirectional=True))
    assert net.has_edge("d", "r")
    assert [n.antennas for n in net.nodes] == [2, 2, 2]
    assert not network_from_dict(_two_hop_dict(bidirectional=False)).has_edge("d", "r")


@pytest.mark.parametrize("field,value", [
    # each once loaded: 2.7 as 2 antennas, true as 1, "3" as 3, and a
    # non-empty string as true, adding the reverse edge
    ("antennas", 2.7), ("antennas", True), ("antennas", "3"), ("antennas", 2.0),
    ("bidirectional", "no"), ("bidirectional", 1), ("bidirectional", None),
])
def test_dict_rejects_non_integer_antennas_and_non_boolean_links(field, value):
    data = _two_hop_dict()
    if field == "antennas":
        data["nodes"][1]["antennas"] = value
    else:
        data["edges"][1]["bidirectional"] = value
    with pytest.raises(NetworkError, match="malformed network description"):
        network_from_dict(data)


@pytest.mark.parametrize("place,value", [
    # each once loaded through str(): None as node "None", 1 as "1", a
    # list as the name "['x']"
    ("id", None), ("id", 1), ("tail", None), ("head", 2), ("name", ["x"]),
])
def test_dict_rejects_non_string_ids_and_names(place, value):
    data = _two_hop_dict()
    if place == "id":
        data["nodes"][1]["id"] = value
    elif place == "name":
        data["name"] = value
    else:
        data["edges"][1][place] = value
    with pytest.raises(NetworkError, match="malformed network description"):
        network_from_dict(data)


def test_file_round_trip(tmp_path):
    net = kpp_network((2, 2), direct_link=True, name="disk")
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net

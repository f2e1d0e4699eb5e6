"""Relay networks as directed multigraphs.

A network has exactly one source, one sink and any number of relays.
Nodes carry an antenna count and a duplex mode; edges are directed and
each directed edge fades independently. A bidirectional radio link is
stored as a pair of opposite directed edges.

The module covers structural questions only: family classification
(parallel-path and layered taxonomies), max-flow min-cut, edge-disjoint
path extraction, antenna expansion and a JSON file format.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

ROLES = ("source", "relay", "sink")
DUPLEX_MODES = ("half", "full")


class NetworkError(ValueError):
    """Malformed network description."""


class UnreachableSinkError(NetworkError):
    """The sink cannot be reached from the source."""


class NotLayeredError(NetworkError):
    """Operation requires a layered network."""


class SearchBudgetError(NetworkError):
    """A structural search ran out of steps before it could decide."""


# depth-first steps the backbone search may take
_BACKBONE_BUDGET = 300_000


@dataclass(frozen=True)
class Node:
    id: str
    role: str = "relay"
    antennas: int = 1
    duplex: str = "half"

    def __post_init__(self):
        if self.role not in ROLES:
            raise NetworkError(f"unknown role {self.role!r} for node {self.id!r}")
        if self.duplex not in DUPLEX_MODES:
            raise NetworkError(f"unknown duplex mode {self.duplex!r} for node {self.id!r}")
        if self.antennas < 1:
            raise NetworkError(f"node {self.id!r} needs at least one antenna")


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str

    def __post_init__(self):
        if self.tail == self.head:
            raise NetworkError(f"self loop at {self.tail!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of source-to-sink paths (full node sequences)."""

    paths: tuple[tuple[str, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        # length of a path is its edge count
        return tuple(len(p) - 1 for p in self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


class Network:
    """Directed multigraph with one source and one sink.

    ``edges`` may contain repeated (tail, head) pairs; parallel edges
    arise from antenna expansion and are counted individually by the
    flow routines. A network is immutable after construction, so it
    keeps the answers about it alone once they are found: its
    classification (:func:`classify`), its min-cut (:func:`min_cut`),
    its schedule (``protocol.auto_schedule``), that schedule's
    orthogonality report (``protocol.validate_orthogonal``) and its
    tradeoff curves (``dmt.family_dmt``). A failure is never kept, nor
    is the report on any other schedule. Every caller shares the kept
    objects, so they must not be mutated.
    """

    def __init__(self, nodes, edges, name: str = ""):
        self.name = name
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self._node_by_id = {n.id: n for n in self.nodes}
        if len(self._node_by_id) != len(self.nodes):
            raise NetworkError("duplicate node ids")
        sources = [n for n in self.nodes if n.role == "source"]
        sinks = [n for n in self.nodes if n.role == "sink"]
        if len(sources) != 1 or len(sinks) != 1:
            raise NetworkError("need exactly one source and one sink")
        self.source = sources[0]
        self.sink = sinks[0]
        self.out_neighbors: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        self.in_neighbors: dict[str, set[str]] = {n.id: set() for n in self.nodes}
        for e in self.edges:
            if e.tail not in self._node_by_id or e.head not in self._node_by_id:
                raise NetworkError(f"edge {e.pair} references unknown node")
            self.out_neighbors[e.tail].add(e.head)
            self.in_neighbors[e.head].add(e.tail)
        self.edge_set = {e.pair for e in self.edges}
        self._classification = None
        self._min_cut = None
        self._schedule = None
        self._orthogonality = None
        self._family = None
        if not self._reaches_sink():
            raise UnreachableSinkError("sink not reachable from source")

    def _reaches_sink(self) -> bool:
        seen = {self.source.id}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            if u == self.sink.id:
                return True
            for v in self.out_neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return False

    def node(self, node_id: str) -> Node:
        return self._node_by_id[node_id]

    @property
    def relays(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.role == "relay")

    def has_edge(self, tail: str, head: str) -> bool:
        return (tail, head) in self.edge_set

    def without_edges(self, pairs) -> "Network":
        """Copy of the network with the given (tail, head) pairs removed."""
        drop = set(pairs)
        kept = [e for e in self.edges if e.pair not in drop]
        return Network(self.nodes, kept, name=self.name)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.name == other.name
                and sorted(self.nodes, key=lambda n: n.id)
                == sorted(other.nodes, key=lambda n: n.id)
                and sorted(e.pair for e in self.edges)
                == sorted(e.pair for e in other.edges))

    def __repr__(self):
        return f"Network({len(self.nodes)} nodes, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Classification:
    """Result of :func:`classify`.

    ``tag`` is the most specific family label. For the parallel-path
    families ``backbone`` holds the chosen path decomposition; for the
    layered families ``layers`` holds the node partition including the
    singleton source and sink layers.
    """

    tag: str
    K: int | None = None
    L: int | None = None
    backbone: PathSet | None = None
    layers: tuple[tuple[str, ...], ...] | None = None
    has_direct: bool = False
    has_interference: bool = False

    @property
    def label(self) -> str:
        if self.tag == "regular":
            return f"regular({self.K},{self.L})"
        return self.tag


def _backbone_search(net: Network):
    """Find a vertex-disjoint path decomposition covering every relay.

    Returns (paths, direct, interference) or None. Paths are chosen
    deterministically: path heads in ascending id order and node choices
    ascending, with backtracking, so the first full cover found is the
    lexicographically smallest valid one. The depth-first search runs on
    an explicit stack and raises ``SearchBudgetError`` after
    ``_BACKBONE_BUDGET`` steps rather than report no cover.
    """
    s, d = net.source.id, net.sink.id
    relay_ids = {n.id for n in net.relays}
    starts = sorted(v for v in net.out_neighbors[s] if v in relay_ids)
    ends = {v for v in net.in_neighbors[d] if v in relay_ids}
    if len(starts) < 2 or len(ends) != len(starts):
        return None
    start_set = set(starts)
    steps = 0
    stack = [([], [s, starts[0]], {starts[0]})]    # (paths, path, used)
    while stack:
        if steps == _BACKBONE_BUDGET:
            raise SearchBudgetError(f"backbone search gave up after {steps} steps")
        steps += 1
        paths, path, used = stack.pop()
        if path[-1] in ends:
            # a node feeding the sink must terminate its path here
            paths = paths + [path + [d]]
            remaining = [v for v in starts if v not in used]
            if remaining:
                stack.append((paths, [s, remaining[0]], used | {remaining[0]}))
            elif len(used) == len(relay_ids):
                # all starts consumed and every relay covered
                found = _validate_leftovers(net, paths)
                if found is not None:
                    return found
            continue
        # starts may only head their own path; the smallest hop pops first
        for v in sorted(net.out_neighbors[path[-1]], reverse=True):
            if v in relay_ids and v not in used and v not in start_set:
                stack.append((paths, path + [v], used | {v}))
    return None


def _validate_leftovers(net: Network, paths):
    """Check edges outside the decomposition against the family rules."""
    s, d = net.source.id, net.sink.id
    forward = set()
    adjacent = set()
    path_of = {}
    for i, p in enumerate(paths):
        for a, b in zip(p, p[1:]):
            forward.add((a, b))
            adjacent.add((a, b))
            adjacent.add((b, a))
        for v in p[1:-1]:
            path_of[v] = i
    direct = False
    interference = False
    for pair in net.edge_set:
        if pair in forward:
            continue
        u, v = pair
        if {u, v} == {s, d}:
            if pair == (s, d):
                direct = True
                continue
            if (s, d) in net.edge_set:
                continue  # reverse side of a bidirectional direct link
            return None
        if pair in adjacent:
            continue  # reverse side of a backbone link
        if u in path_of and v in path_of and path_of[u] != path_of[v]:
            interference = True
            continue
        return None
    return tuple(tuple(p) for p in paths), direct, interference


def _layering(net: Network):
    """BFS layer assignment from the source, or None if not layered.

    Valid when the source and sink sit alone in the first and last
    layer, every relay layer has at least two nodes and every edge stays
    within a layer or crosses to an adjacent one.
    """
    s, d = net.source.id, net.sink.id
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in net.out_neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if len(dist) != len(net.nodes):
        return None
    depth = dist[d]
    if depth < 2:
        return None
    layers = [[] for _ in range(depth + 1)]
    for v, k in dist.items():
        if k > depth:
            return None
        layers[k].append(v)
    if layers[0] != [s] or layers[depth] != [d]:
        return None
    for mid in layers[1:-1]:
        if len(mid) < 2 or d in mid:
            return None
    for u, v in net.edge_set:
        if abs(dist[u] - dist[v]) > 1:
            return None
    return tuple(tuple(sorted(layer)) for layer in layers)


def _fully_connected(net: Network, layers) -> bool:
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in b:
                if not net.has_edge(u, v):
                    return False
    return True


def classify(net: Network) -> Classification:
    """Most specific family tag with supporting structure.

    Precedence, most specific first: regular(K, L) for a parallel-path
    network that is also layered, then the plain parallel-path tags
    split by the presence of a direct source-sink link and of links
    between relays on different paths, then the layered tags, then
    ``other``. The classification is found once per network and kept;
    a network whose search runs out of budget raises on every call.
    """
    if net._classification is None:
        net._classification = _classify(net)
    return net._classification


def _classify(net: Network) -> Classification:
    layers = _layering(net)
    found = _backbone_search(net)
    if found is not None:
        paths, direct, interference = found
        backbone = PathSet(paths)
        K = len(paths)
        if not direct and layers is not None:
            sizes = {len(layer) for layer in layers[1:-1]}
            if sizes == {K}:
                return Classification(
                    tag="regular", K=K, L=len(layers) - 2, backbone=backbone,
                    layers=layers, has_interference=interference)
        if direct and interference:
            tag = "KPP(I,D)"
        elif direct:
            tag = "KPP(D)"
        elif interference:
            tag = "KPP(I)"
        else:
            tag = "KPP"
        return Classification(tag=tag, K=K, backbone=backbone, layers=layers,
                              has_direct=direct, has_interference=interference)
    if layers is not None:
        L = len(layers) - 2
        if _fully_connected(net, layers):
            return Classification(tag="fully-connected-layered", L=L, layers=layers)
        return Classification(tag="layered", L=L, layers=layers)
    return Classification(tag="other")


def is_relay_bank(net: Network) -> bool:
    """True when the direct source-sink link exists and every relay sits
    between source and sink: its links are s -> r and r -> d, both
    present, and no others. This is the shape served by the
    two-slot single-relay schedule and the slotted sequential one.
    """
    s, d = net.source.id, net.sink.id
    return net.has_edge(s, d) and bool(net.relays) and all(
        set(net.out_neighbors[r.id]) == {d} and set(net.in_neighbors[r.id]) == {s}
        for r in net.relays)


# ---------------------------------------------------------------------------
# flow

class _Dinic:
    """Unit-capacity max flow; parallel edges kept as individual arcs."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.forward_arcs = []  # (u, index into adj[u]) of original edges

    def add_edge(self, u, v, cap=1):
        self.forward_arcs.append((u, len(self.adj[u])))
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v, cap, _ in self.adj[u]:
                    if cap > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while pushed := self._augment(s, t, level, it):
                flow += pushed

    def _augment(self, s, t, level, it):
        """Push along one level-graph path, found with an explicit stack
        and the current-arc pointers ``it``; a dead end advances its
        parent's pointer. Returns the amount pushed (0 when none is left)."""
        path = []                 # nodes whose current arc leads to the next
        u = s
        while u != t:
            arcs = self.adj[u]
            while it[u] < len(arcs):
                v, cap, _ = arcs[it[u]]
                if cap > 0 and level[v] == level[u] + 1:
                    break
                it[u] += 1
            if it[u] < len(arcs):
                path.append(u)
                u = arcs[it[u]][0]
            elif path:
                u = path.pop()
                it[u] += 1
            else:
                return 0
        pushed = min(self.adj[w][it[w]][1] for w in path)
        for w in path:
            arc = self.adj[w][it[w]]
            arc[1] -= pushed
            self.adj[arc[0]][arc[2]][1] += pushed
        return pushed


def _flow_network(net: Network):
    ids = [n.id for n in net.nodes]
    index = {v: i for i, v in enumerate(ids)}
    dinic = _Dinic(len(ids))
    for e in net.edges:
        dinic.add_edge(index[e.tail], index[e.head])
    return dinic, index, ids


def min_cut(net: Network) -> int:
    """Source-sink edge connectivity of the antenna-expanded graph.

    Found once per network and kept, as :func:`classify` keeps its
    classification; a failure is not kept."""
    if net._min_cut is None:
        net._min_cut = _min_cut(net)
    return net._min_cut


def _min_cut(net: Network) -> int:
    expanded = expand_antennas(net)
    dinic, index, _ = _flow_network(expanded)
    return dinic.max_flow(index[expanded.source.id], index[expanded.sink.id])


def edge_disjoint_paths(net: Network) -> PathSet:
    """A maximum family of pairwise edge-disjoint source-sink paths.

    Computed on the antenna-expanded graph by decomposing a max flow;
    the family size equals ``min_cut(net)``.
    """
    expanded = expand_antennas(net)
    dinic, index, ids = _flow_network(expanded)
    s, t = index[expanded.source.id], index[expanded.sink.id]
    dinic.max_flow(s, t)
    # original arcs carrying one unit of flow: capacity fully spent
    succ = [[] for _ in ids]
    for u, k in dinic.forward_arcs:
        v, cap, _ = dinic.adj[u][k]
        if cap == 0:
            succ[u].append(v)
    paths = []
    while succ[s]:
        walk = [s]
        seen_at = {s: 0}
        while walk[-1] != t:
            u = walk[-1]
            if not succ[u]:
                raise AssertionError("flow decomposition stalled")
            v = succ[u].pop()
            if v in seen_at:
                # drop a flow cycle and keep walking from its entry point
                k = seen_at[v]
                for w in walk[k + 1:]:
                    del seen_at[w]
                walk = walk[:k + 1]
                continue
            walk.append(v)
            seen_at[v] = len(walk) - 1
        paths.append(tuple(ids[i] for i in walk))
    return PathSet(tuple(paths))


# ---------------------------------------------------------------------------
# layered helpers

def forward_paths(net: Network) -> PathSet:
    """All source-sink paths that advance one layer per hop."""
    cls = classify(net)
    if cls.layers is None:
        raise NotLayeredError("network is not layered")
    # extend prefixes one layer at a time along edges; layers are sorted,
    # so the paths come out in lexicographic order
    paths = [(net.source.id,)]
    for layer in cls.layers[1:]:
        paths = [p + (v,) for p in paths for v in layer if net.has_edge(p[-1], v)]
    return PathSet(tuple(paths))


# ---------------------------------------------------------------------------
# antennas

def expand_antennas(net: Network) -> Network:
    """Single-antenna equivalent network.

    Every relay with a antennas becomes a single-antenna nodes, and a
    link between an n_t-antenna tail and an n_r-antenna head becomes
    n_t * n_r single-antenna links. The source and sink keep their ids
    (a network has exactly one of each); their antenna multiplicity is
    realized as parallel edges.
    """
    if all(n.antennas == 1 for n in net.nodes):
        return net
    copies: dict[str, list[str]] = {}
    nodes = []
    for n in net.nodes:
        if n.role == "relay" and n.antennas > 1:
            names = [f"{n.id}::{i}" for i in range(n.antennas)]
            for name in names:
                if name in {m.id for m in net.nodes}:
                    raise NetworkError(f"expanded id {name!r} collides")
                nodes.append(Node(name, "relay", 1, n.duplex))
            copies[n.id] = names
        else:
            nodes.append(Node(n.id, n.role, 1, n.duplex))
            copies[n.id] = [n.id]
    terminal_mult = {
        net.source.id: net.source.antennas,
        net.sink.id: net.sink.antennas,
    }
    edges = []
    for e in net.edges:
        mult = terminal_mult.get(e.tail, 1) * terminal_mult.get(e.head, 1)
        for u in copies[e.tail]:
            for v in copies[e.head]:
                edges.extend(Edge(u, v) for _ in range(mult))
    return Network(nodes, edges, name=net.name)


# ---------------------------------------------------------------------------
# builders

def _mk_nodes(relay_ids, *, duplex="half", source_antennas=1, sink_antennas=1,
              relay_antennas=None):
    relay_antennas = relay_antennas or {}
    nodes = [Node("s", "source", source_antennas, duplex)]
    nodes += [Node(r, "relay", relay_antennas.get(r, 1), duplex) for r in relay_ids]
    nodes.append(Node("d", "sink", sink_antennas, duplex))
    return nodes


def _bidi(pairs):
    out = []
    for t, h in pairs:
        out.append(Edge(t, h))
        out.append(Edge(h, t))
    return out


def kpp_network(lengths, *, direct_link=False, cross_links=(), bidirectional=True,
                name="") -> Network:
    """K parallel vertex-disjoint paths with the given hop counts.

    ``cross_links`` lists pairs ((i, a), (j, b)) of relay coordinates
    (path index, position along the path, both 1-based) joined by a
    bidirectional link.
    """
    if any(n < 2 for n in lengths):
        raise NetworkError("every path needs at least two hops")
    relay = lambda i, a: f"p{i + 1}r{a}"
    relay_ids = [relay(i, a) for i, n in enumerate(lengths) for a in range(1, n)]
    pairs = []
    for i, n in enumerate(lengths):
        chain = ["s"] + [relay(i, a) for a in range(1, n)] + ["d"]
        pairs += list(zip(chain, chain[1:]))
    edges = _bidi(pairs) if bidirectional else [Edge(t, h) for t, h in pairs]
    for (i, a), (j, b) in cross_links:
        edges += _bidi([(relay(i - 1, a), relay(j - 1, b))])
    if direct_link:
        edges += _bidi([("s", "d")]) if bidirectional else [Edge("s", "d")]
    return Network(_mk_nodes(relay_ids), edges, name=name)


def two_hop_network(n_relays, *, direct_link=True, name="") -> Network:
    """Source, a bank of isolated relays and the sink; forward links only."""
    relay_ids = [f"r{i + 1}" for i in range(n_relays)]
    edges = [Edge("s", r) for r in relay_ids] + [Edge(r, "d") for r in relay_ids]
    if direct_link:
        edges.append(Edge("s", "d"))
    return Network(_mk_nodes(relay_ids), edges, name=name)


def naf_network() -> Network:
    return two_hop_network(1, direct_link=True, name="naf")


def saf_network(n_relays=2) -> Network:
    return two_hop_network(n_relays, direct_link=True, name="saf")


def single_link_network() -> Network:
    return Network(_mk_nodes([]), [Edge("s", "d")], name="single-link")


def layered_network(layer_sizes, *, fully_connected=True, bidirectional=True,
                    name="") -> Network:
    """Layered network from a size profile like (1, 2, 2, 1).

    The profile includes the singleton source and sink layers. With
    ``fully_connected`` every adjacent pair of layers is completely
    joined; otherwise only aligned nodes (same index, modulo the next
    layer's size) are joined, which keeps the network connected.
    """
    sizes = tuple(layer_sizes)
    if len(sizes) < 3 or sizes[0] != 1 or sizes[-1] != 1:
        raise NetworkError("profile must start and end with a singleton layer")
    if any(k < 2 for k in sizes[1:-1]):
        raise NetworkError("relay layers need at least two nodes")
    layers = [["s"]]
    relay_ids = []
    for li, k in enumerate(sizes[1:-1], start=1):
        ids = [f"l{li}n{j + 1}" for j in range(k)]
        relay_ids += ids
        layers.append(ids)
    layers.append(["d"])
    pairs = []
    for a, b in zip(layers, layers[1:]):
        if fully_connected:
            pairs += [(u, v) for u in a for v in b]
        else:
            hit = set()
            for j, u in enumerate(a):
                pairs.append((u, b[j % len(b)]))
                pairs.append((u, b[(j + 1) % len(b)]))
                hit.update({j % len(b), (j + 1) % len(b)})
            # a wider next layer leaves nodes unreached; patch them in
            # so every node sits one hop below the previous layer
            for k, v in enumerate(b):
                if k not in hit:
                    pairs.append((a[k % len(a)], v))
    edges = _bidi(pairs) if bidirectional else [Edge(t, h) for t, h in pairs]
    return Network(_mk_nodes(relay_ids), edges, name=name)


# ---------------------------------------------------------------------------
# file format

def network_to_dict(net: Network) -> dict:
    return {
        "name": net.name,
        "nodes": [
            {"id": n.id, "role": n.role, "antennas": n.antennas, "duplex": n.duplex}
            for n in net.nodes
        ],
        "edges": [{"tail": e.tail, "head": e.head} for e in net.edges],
    }


def _int(value):
    """``value`` when it is an int; anything else, bool included, is a
    TypeError rather than a truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _str(value):
    """``value`` when it is a string; anything else is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def network_from_dict(data: dict) -> Network:
    """Inverse of ``network_to_dict``, where an edge may add its reverse
    with ``"bidirectional": true``; node ids, edge ends and the name must
    be JSON strings and ``antennas`` a JSON integer."""
    try:
        nodes = [
            Node(
                _str(item["id"]),
                item.get("role", "relay"),
                _int(item.get("antennas", 1)),
                item.get("duplex", "half"),
            )
            for item in data["nodes"]
        ]
        edges = []
        for item in data["edges"]:
            tail, head = _str(item["tail"]), _str(item["head"])
            edges.append(Edge(tail, head))
            both = item.get("bidirectional", False)
            if not isinstance(both, bool):
                raise TypeError(f"bidirectional must be true or false, got {both!r}")
            if both:
                edges.append(Edge(head, tail))
        name = _str(data.get("name", ""))
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed network description: {exc}") from exc
    return Network(nodes, edges, name=name)


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"not valid JSON: {exc}") from exc
    return network_from_dict(data)

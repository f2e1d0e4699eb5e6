"""Periodic edge-activation schedules for relay networks.

A schedule assigns each directed edge a set of slots inside a cycle of
N slots; an edge repeats its slots every cycle. Relays hold one symbol
and forward the last value they heard, so a schedule determines the
whole data flow. The synthesis routines here cover parallel-path
colorings for every K, almost-continuous activation with delay
balancing for networks with inter-path links, buffered operation when
a direct source-sink link exists, staggered full-duplex activation and
pairwise path activation for fully connected layered networks.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from heapq import heappop, heappush

from .netgraph import (
    Network, PathSet, _fully_connected, _int, classify, edge_disjoint_paths,
    forward_paths, is_relay_bank)


class SchedulingError(ValueError):
    """The requested schedule cannot be built for this input."""


class DelaySearchError(SchedulingError):
    """Bounded delay search ended without a feasible assignment."""


@dataclass(frozen=True)
class Schedule:
    """Periodic activation plan.

    ``activations`` maps a directed edge (tail, head) to its slot set
    within one cycle. ``deliveries`` maps each sink reception slot to
    the index of the path whose symbol lands there: the slots of that
    path's last edge (the direct link, when used, is bookkept
    separately). ``path_counts`` holds the per-path symbol counts m_i,
    the sizes of those last-edge slot sets. ``params`` holds the
    construction's settings as plain JSON values, stored and loaded
    as they are.
    """

    cycle_length: int
    activations: dict
    backbone: PathSet | None = None
    path_counts: tuple = ()
    added_delays: dict = field(default_factory=dict)
    steady_state_delay: int = 0
    direct_link_mode: str = "none"
    buffer_primes: dict = field(default_factory=dict)
    symbols_per_cycle: int = 0
    deliveries: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.symbols_per_cycle, self.cycle_length)

    @property
    def uses_direct_link(self) -> bool:
        """True when the source sends to the sink in every slot: buffered
        operation or the slotted two-hop patterns."""
        return (self.direct_link_mode == "buffered"
                or bool(self.params.get("direct_every_slot")))

    def slots_of(self, tail: str, head: str) -> frozenset:
        return self.activations.get((tail, head), frozenset())


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    constraints: dict
    backflow_nodes: tuple
    rate: Fraction
    messages: tuple = ()

    @property
    def backflow_free(self) -> bool:
        return not self.backflow_nodes


def _path_edges(path):
    return list(zip(path, path[1:]))


def validate_orthogonal(net: Network, sched: Schedule) -> OrthogonalityReport:
    """Check the four coloring constraints plus the back-flow scan.

    Constraint 1: first-edge slot sets disjoint across paths.
    Constraint 2: last-edge slot sets disjoint across paths.
    Constraint 3: consecutive edges on a path never share a slot.
    Constraint 4: every edge of path i is active exactly m_i times.
    Back-flow (a relay hears a node two hops downstream) is legal but
    reported: it exists at the head of edge j when A_j meets A_{j+2}.
    """
    if sched.backbone is None:
        raise SchedulingError("schedule carries no path decomposition")
    msgs = []
    for pair in sched.activations:
        if pair not in net.edge_set:
            raise SchedulingError(f"schedule activates missing edge {pair}")
    paths = list(sched.backbone)
    slot_sets = []
    for path in paths:
        slot_sets.append([sched.slots_of(t, h) for t, h in _path_edges(path)])
        for s in slot_sets[-1]:
            if any(x < 0 or x >= sched.cycle_length for x in s):
                raise SchedulingError("slot outside cycle")

    firsts = [s[0] for s in slot_sets]
    lasts = [s[-1] for s in slot_sets]
    c1 = all(not (a & b) for a, b in itertools.combinations(firsts, 2))
    c2 = all(not (a & b) for a, b in itertools.combinations(lasts, 2))
    if not c1:
        msgs.append("first-edge slot sets overlap")
    if not c2:
        msgs.append("last-edge slot sets overlap")

    c3 = True
    for i, sets in enumerate(slot_sets):
        for j in range(len(sets) - 1):
            if sets[j] & sets[j + 1]:
                c3 = False
                msgs.append(f"path {i} edges {j},{j + 1} share a slot")

    c4 = True
    counts = []
    for i, sets in enumerate(slot_sets):
        sizes = {len(s) for s in sets}
        if len(sizes) != 1:
            c4 = False
            msgs.append(f"path {i} has unequal activation counts {sorted(sizes)}")
            counts.append(min(sizes))
        else:
            counts.append(sizes.pop())

    backflow = []
    for path, sets in zip(paths, slot_sets):
        for j in range(len(sets) - 2):
            if sets[j] & sets[j + 2]:
                backflow.append(path[j + 1])

    rate = Fraction(sum(counts), sched.cycle_length)
    constraints = {
        "first_edges_disjoint": c1,
        "last_edges_disjoint": c2,
        "half_duplex": c3,
        "equal_activation_counts": c4,
    }
    return OrthogonalityReport(
        ok=all(constraints.values()),
        constraints=constraints,
        backflow_nodes=tuple(backflow),
        rate=rate,
        messages=tuple(msgs),
    )


# ---------------------------------------------------------------------------
# schedule assembly helpers

def _backbone(net):
    """The network's parallel paths, in classification order; each has
    at least two edges and there are at least two of them."""
    cls = classify(net)
    if cls.backbone is None:
        raise SchedulingError(f"network is {cls.label}, need parallel paths")
    return cls.backbone


def _from_slot_sets(paths, slot_sets, N, **fields):
    """Build a Schedule from one slot set per path edge.

    ``slot_sets[i][j]`` holds the slots of edge j of path i. Paths that
    share an edge activate it in the union of their sets; each path
    delivers in its last-edge slots, so m_i is their number and the
    rate is sum(m_i) / N unless ``symbols_per_cycle`` is given.
    """
    activations = {}
    deliveries = {}
    for i, (path, sets) in enumerate(zip(paths, slot_sets)):
        for pair, slots in zip(_path_edges(path), sets):
            activations[pair] = activations.get(pair, frozenset()) | frozenset(slots)
        deliveries.update(dict.fromkeys(sets[-1], i))
    counts = tuple(len(sets[-1]) for sets in slot_sets)
    fields.setdefault("symbols_per_cycle", sum(counts))
    return Schedule(
        cycle_length=N,
        activations=activations,
        backbone=PathSet(tuple(tuple(p) for p in paths)),
        path_counts=counts,
        deliveries=deliveries,
        **fields,
    )


def _assemble(paths, colors, N, delays=None):
    """Build a Schedule from per-path per-edge single colors (m_i = 1)."""
    return _from_slot_sets(
        paths, [[{c % N} for c in cols] for cols in colors], N,
        added_delays=dict(delays or {}),
        steady_state_delay=N * _ceil_div(_max_span(colors, N), N))


def _with_direct_link(sched, net, **fields):
    """``sched`` plus the direct link in every slot, where the source
    sends a fresh symbol each time."""
    N = sched.cycle_length
    direct = {(net.source.id, net.sink.id): frozenset(range(N))}
    return replace(sched, activations={**sched.activations, **direct},
                   symbols_per_cycle=N, **fields)


def _ceil_div(a, b):
    return -(-a // b)


def _lag(cols, N):
    # slots from a path's first activation to its last: a rising slot
    # is reached directly (absolute slot numbers always rise), any other
    # residue by the smallest positive step that lands on it
    return sum(b - a if b > a else (b - a) % N or N
               for a, b in zip(cols, cols[1:]))


def _max_span(colors, N):
    # end-to-end slot span of the slowest path
    return 1 + max(_lag(cols, N) for cols in colors)


# ---------------------------------------------------------------------------
# parallel-path colorings

def color_kpp_general(net: Network) -> Schedule:
    """Rate-1 coloring for K >= 4 paths: cycle the first three slots
    i, i+1, i+2 along path i of the network's backbone and close with
    slot i+3. Back-flow free for every K >= 4 and all lengths >= 2."""
    backbone = _backbone(net)
    K = len(backbone)
    if K < 4:
        raise SchedulingError("need at least four paths")
    colors = []
    for i, n in enumerate(backbone.lengths):
        cols = [(i + (j % 3)) % K for j in range(n - 1)]
        cols.append((i + 3) % K)
        colors.append(cols)
    return _assemble(backbone, colors, K)


def color_kpp_three(net: Network) -> Schedule:
    """Rate-1 coloring for a network of exactly three paths.

    The construction depends on l, the number of path lengths that are
    1 mod 3. Paths with such lengths are moved to the front (stable
    order), colored by a per-case step along each path, and mapped
    back. For l = 2 the steps cannot close the third path without
    letting one relay hear two hops downstream; the slot overrides
    below confine that to a single node. When the third path has only
    two edges even that is impossible, and the fallback puts one such
    node on each of the first two paths instead.
    """
    backbone = _backbone(net)
    if len(backbone) != 3:
        raise SchedulingError("need exactly three paths")
    lengths = backbone.lengths

    order = sorted(range(3), key=lambda i: 0 if lengths[i] % 3 == 1 else 1)
    n = [lengths[i] for i in order]
    l = sum(1 for x in n if x % 3 == 1)

    # path p starts on color p and steps its color by +1 or by -1 (2)
    # mod 3 at each hop
    if l == 0:
        steps = [2 if x % 3 == 0 else 1 for x in n]
    elif l == 1:
        steps = [1, 2 if n[1] % 3 == 0 else 1, 1 if n[2] % 3 == 0 else 2]
    else:
        steps = [1, 1, 1]
    cols = [[(p + steps[p] * j) % 3 for j in range(n[p])] for p in range(3)]
    if l == 2 and n[2] > 2:
        cols[2][n[2] - 1] = 2
        if n[2] % 3 == 2:
            cols[2][n[2] - 2] = 0
    elif l == 2:
        # third path is a two-edge path: close it as [2, 0] and bend the
        # two long paths instead, one downstream-overlap node on each
        cols[0][n[0] - 1] = 1
        cols[1][n[1] - 1] = 2
        cols[2] = [2, 0]

    unsorted_cols = [None] * 3
    for pos, i in enumerate(order):
        unsorted_cols[i] = cols[pos]
    return _assemble(backbone, unsorted_cols, 3)


def color_kpp_two(net: Network) -> Schedule:
    """Maximum-rate coloring for a network of two paths whose first
    backbone path (n1 edges) is no longer than its second (n2 edges).

    Even n1 + n2: two slots suffice, alternating around the cycle
    formed by the two paths, rate 1. Odd n1 + n2: cycle length 2*n2;
    the short path runs on slot parity alone while the long path sends
    n2 - 1 staggered waves, each wave pausing one slot at a point that
    recedes one hop per wave. Rate (2*n2 - 1) / (2*n2), which is the
    maximum any orthogonal schedule can reach here.
    """
    return _kpp_two(_backbone(net))


def _kpp_two(backbone):
    """``color_kpp_two`` on a backbone of two paths."""
    if len(backbone) != 2:
        raise SchedulingError("need exactly two paths")
    n1, n2 = backbone.lengths
    if n1 > n2:
        raise SchedulingError(
            f"first path ({n1} edges) is longer than the second ({n2})")

    if (n1 + n2) % 2 == 0:
        colors = [[j % 2 for j in range(n1)],
                  [(n1 + n2 - k - 1) % 2 for k in range(n2)]]
        return _assemble(backbone, colors, 2)

    # wave w of the long path pauses once it reaches hop n2 - w
    N = 2 * n2
    short = [range(j % 2, N, 2) for j in range(n1)]
    long = [{(2 * w + 1 + j + (j + 1 >= n2 - w)) % N for w in range(n2 - 1)}
            for j in range(n2)]
    return _from_slot_sets(backbone, [short, long], N, steady_state_delay=N)


def color_regular(net: Network) -> Schedule:
    """Continuous coloring for K paths of equal length: edge j of path
    i is active in slot (i + j) mod K."""
    backbone = _backbone(net)
    if len(set(backbone.lengths)) != 1:
        raise SchedulingError("paths differ in length")
    K, n = len(backbone), backbone.lengths[0]
    colors = [[(i + j) % K for j in range(n)] for i in range(K)]
    return _assemble(backbone, colors, K)


# ---------------------------------------------------------------------------
# almost-continuous activation

def _closing_slots(forbidden):
    """Lexicographically smallest assignment of distinct slots 0..K-1 to
    positions, position i avoiding ``forbidden[i]`` (K >= 3, not every
    position forbidding the same slot); see almost_continuous_schedule.
    """
    free, pick = list(range(len(forbidden))), []
    for f in forbidden[:-1]:
        # the least free slot, or the next one when the least is f
        pick.append(free.pop(free[0] == f))
    c = free[0]
    if c != forbidden[-1]:
        return pick + [c]
    q = max(pos for pos, f in enumerate(forbidden) if f != c)
    return pick[:q] + [c] + sorted(pick[q:])


def almost_continuous_schedule(net: Network, delays=None) -> Schedule:
    """Rate-1 schedule for K >= 3 backbone paths where every relay past
    the first forwards in the next slot (plus any per-node added delay).

    Paths start in the slots 0..K-1 in a stable order by effective
    length ``eff`` mod K (interior delays included). The only free
    choice is a pause at each path's first relay, which sets the slot
    its last edge closes in; position pos may not close in
    (pos + eff - 2) mod K, where the pause would hold the relay in its
    own slot. The closing slots are the lexicographically smallest
    choice, by rule: each position in turn takes the least free slot it
    allows. Only the last position can be left with nothing but its
    forbidden slot c; then the latest earlier position q that allows c
    takes it, and the positions after q take the slots that q and its
    successors held, ascending. A choice always exists: it fails only
    if every position forbids the same slot, that is if the residues
    eff mod K fall by one at each position, which a sorted order of
    K >= 3 residues cannot do.
    """
    return _almost_continuous(_backbone(net), delays)


def _almost_continuous(backbone, delays):
    paths, lengths, K = backbone.paths, backbone.lengths, len(backbone)
    if K < 3:
        raise SchedulingError("need at least three paths")
    delays = dict(delays or {})
    for node, d in delays.items():
        if d < 0:
            raise SchedulingError(f"negative delay at {node!r}")
    for path in paths:
        for v in path[2:-1]:
            if (1 + delays.get(v, 0)) % K == 0:
                raise SchedulingError(
                    f"delay at {v!r} makes a relay forward in its own slot")

    def interior_delay(path):
        # delays at relays past the first; the first relay's pause is the
        # closing-slot choice's free variable, so its delay is folded away
        return sum(delays.get(v, 0) for v in path[2:-1])

    eff = [lengths[i] + interior_delay(paths[i]) for i in range(K)]
    order = sorted(range(K), key=lambda i: eff[i] % K)

    pick = _closing_slots([(pos + eff[i] - 2) % K for pos, i in enumerate(order)])
    colors = [None] * K
    for pos, i in enumerate(order):
        path, n = paths[i], lengths[i]
        base = pos + n - 1 + interior_delay(path) + delays.get(path[1], 0)
        pause = (pick[pos] - base) % K
        # a zero-mod-K hold at the first relay would need pick to equal
        # the forbidden color, which _closing_slots excludes
        assert (1 + delays.get(path[1], 0) + pause) % K != 0
        t = pos
        cols = [t]
        for j in range(1, n):
            t += 1 + delays.get(path[j], 0) + (pause if j == 1 else 0)
            cols.append(t)
        colors[i] = cols
    return _assemble(paths, colors, K, delays)


@dataclass(frozen=True)
class CausalReport:
    per_path: tuple  # (condition1, condition2) per backbone path
    details: tuple = ()

    @property
    def ok(self) -> bool:
        return all(a and b for a, b in self.per_path)


def _dijkstra_counted(net, delays, start, keep):
    """Shortest delays from start over the nodes in ``keep``, counting
    shortest routes (capped at 2).

    Edge (u, v) costs 1 plus the added delay of v, so a route's cost is
    its hop count plus the delays of the nodes it forwards through;
    callers subtract the target's own delay.
    """
    dist = {start: 0}
    count = {start: 1}
    heap = [(0, start)]
    done = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in net.out_neighbors[u]:
            if v not in keep:
                continue
            w = d + 1 + delays.get(v, 0)
            if v not in dist or w < dist[v]:
                dist[v] = w
                count[v] = count[u]
                heappush(heap, (w, v))
            elif w == dist[v] and v not in done:
                count[v] = min(2, count[v] + count[u])
    return dist, count


def check_causal_interference(net: Network, sched: Schedule) -> CausalReport:
    """Path-length conditions under which leakage cannot outrun data.

    For each backbone path with first relay v and last relay u, using
    hop counts plus added node delays:
    condition 1 - no route from v to the sink is shorter than the
    backbone tail; condition 2 - the backbone segment is the unique
    shortest route from v to u.
    Routes run over the schedule's backbone nodes only: a relay off the
    backbone is never active, so it cannot forward leakage.
    """
    if sched.backbone is None:
        raise SchedulingError("schedule carries no path decomposition")
    return _causal_report(net, sched.backbone, sched.added_delays)


def _causal_report(net, backbone, delays):
    """``check_causal_interference`` on a backbone and its added delays."""
    keep = {v for path in backbone for v in path}
    results, details = [], []
    for path in backbone:
        v, u, d = path[1], path[-2], path[-1]
        tail_weight = (len(path) - 2) + sum(delays.get(w, 0) for w in path[2:-1])
        dist, count = _dijkstra_counted(net, delays, v, keep)
        c1 = d in dist and dist[d] - delays.get(d, 0) == tail_weight
        if v == u:
            c2 = True  # two-edge path: the segment is the node itself
        else:
            seg_weight = (len(path) - 3) + sum(delays.get(w, 0) for w in path[2:-2])
            du = dist.get(u)
            c2 = du is not None and du - delays.get(u, 0) == seg_weight \
                and count[u] == 1
        results.append((bool(c1), bool(c2)))
        details.append(f"path via {v}: tail {tail_weight}, shortest {dist.get(d)}")
    return CausalReport(per_path=tuple(results), details=tuple(details))


def balance_delays_kpp3(net: Network, per_node_bound=None) -> dict:
    """Search added node delays making both causal conditions hold.

    Iterative deepening on the total added delay, up to
    ``per_node_bound``; within a budget, assignments are enumerated
    lexicographically over the backbone relays, so the result is
    deterministic. A delay on a path's first relay only matters to
    other paths' leak routes (its own forwarding pause is already a free
    variable), but that is exactly what makes some shortcuts fixable.
    Raises DelaySearchError when the bounded search is exhausted.
    """
    return _balance_delays(net, _backbone(net), per_node_bound)


def _balance_delays(net, backbone, per_node_bound=None):
    if len(backbone) != 3:
        raise SchedulingError("need a three-path network")
    K = 3
    if per_node_bound is None:
        per_node_bound = 2 * max(backbone.lengths)

    if _causal_report(net, backbone, {}).ok:
        return {}
    firsts = {path[1] for path in backbone}
    nodes = []
    for path in backbone:
        for v in path[1:-1]:
            if v not in nodes:
                nodes.append(v)
    # interior relays must not be told to forward in their own slot
    values = {
        v: [d for d in range(per_node_bound + 1)
            if v in firsts or (1 + d) % K != 0]
        for v in nodes
    }

    for total in range(1, per_node_bound + 1):
        # depth first on an explicit stack: (next relay, delay left, delays)
        stack = [(0, total, {})]
        while stack:
            idx, remaining, current = stack.pop()
            if remaining == 0:
                if _causal_report(net, backbone, current).ok:
                    return current
            elif idx < len(nodes):
                v = nodes[idx]
                # values are ascending: push only those within the budget
                fits = values[v][:bisect_right(values[v], remaining)]
                stack.extend(
                    (idx + 1, remaining - d, {**current, v: d} if d else current)
                    for d in reversed(fits))
    raise DelaySearchError(
        f"no delay assignment up to total {per_node_bound} satisfies the "
        f"causal-interference conditions")


def kppI_schedule(net: Network, frames_per_segment=None) -> Schedule:
    """Schedule for parallel paths with inter-path links, K >= 3.

    K = 3: balance delays, then run the almost-continuous schedule.
    K > 3: give every 3-path subset of the backbone its own segment of
    3 * frames slots, run as the K = 3 case on those paths alone;
    symbols parked mid-path when a segment ends resume when the path is
    next activated, so each path still lands one symbol per frame of
    every segment containing it.
    """
    backbone = _backbone(net)
    paths, lengths, K = backbone.paths, backbone.lengths, len(backbone)
    if K < 3:
        raise SchedulingError("need at least three parallel paths")
    if K == 3:
        return _almost_continuous(backbone, _balance_delays(net, backbone))

    if frames_per_segment is None:
        frames_per_segment = max(lengths)
    F = frames_per_segment
    combos = list(itertools.combinations(range(K), 3))
    N = len(combos) * 3 * F
    slot_sets = [[set() for _ in _path_edges(path)] for path in paths]
    for seg, combo in enumerate(combos):
        trio = PathSet(tuple(paths[i] for i in combo))
        sub = _almost_continuous(trio, _balance_delays(net, trio))
        frames = range(seg * 3 * F, (seg + 1) * 3 * F, 3)
        for i in combo:
            for sets, pair in zip(slot_sets[i], _path_edges(paths[i])):
                sets.update(f + s for f in frames for s in sub.slots_of(*pair))
    return _from_slot_sets(
        paths, slot_sets, N, steady_state_delay=N,
        params={"segments": len(combos), "frames_per_segment": F})


# ---------------------------------------------------------------------------
# direct link: buffered operation

def kppD_schedule(net: Network) -> Schedule:
    """Backbone schedule plus a direct link used in every slot.

    The backbone schedule is the one ``auto_schedule`` gives the
    network without its direct link: ``kppI_schedule`` when the paths
    have inter-path links and the parallel-path coloring otherwise. It
    must be back-flow free and rate 1 (for the coloring: any K >= 4, or
    K = 3 with at most one length equal to 1 mod 3 or all three). The source
    sends a fresh symbol on the direct link every slot; each relay
    feeding the sink buffers arrivals in a queue primed so that all
    relayed symbols show a near-uniform lag, after which every symbol
    reaches the sink once directly and once through one path.
    """
    cls = classify(net)
    if not cls.has_direct or cls.backbone is None:
        raise SchedulingError("need parallel paths plus a direct link")
    if cls.K < 3:
        raise SchedulingError("need at least three paths for buffering")
    base = _parallel_schedule(net)
    report = validate_orthogonal(net, base)
    if report.backflow_nodes:
        raise SchedulingError(
            f"base schedule has downstream overlap at "
            f"{', '.join(report.backflow_nodes)}, so buffered operation "
            f"is unsafe")
    if not report.ok or report.rate != 1:
        raise SchedulingError("base schedule must be clean and rate 1")

    N = base.cycle_length
    # injection-to-arrival lag of each path under the base coloring
    lags = [_lag([min(base.slots_of(*pair)) for pair in _path_edges(path)], N)
            for path in base.backbone]
    target = max(lags)
    primes = {}
    lag_of_path = []
    for path, lag in zip(base.backbone, lags):
        b = _ceil_div(target - lag, N)
        primes[path[-2]] = b
        lag_of_path.append(lag + b * N)
    return _with_direct_link(
        base, net,
        steady_state_delay=N * _ceil_div(max(lag_of_path), N),
        direct_link_mode="buffered",
        buffer_primes=primes,
        params={"relay_lags": lag_of_path})


# ---------------------------------------------------------------------------
# full duplex

def _intermediate_direct_links(net: Network, path):
    pos = {v: i for i, v in enumerate(path)}
    bad = []
    for u, v in net.edge_set:
        if u in pos and v in pos and abs(pos[u] - pos[v]) > 1:
            bad.append((u, v))
    return bad


def _has_cycle(net: Network) -> bool:
    """Depth-first search for a directed cycle, on an explicit stack."""
    state = {}                    # 1 while on the stack, 2 once finished
    for n in net.nodes:
        if n.id in state:
            continue
        state[n.id] = 1
        stack = [(n.id, iter(net.out_neighbors[n.id]))]
        while stack:
            u, todo = stack[-1]
            for v in todo:
                if state.get(v) == 1:
                    return True
                if v not in state:
                    state[v] = 1
                    stack.append((v, iter(net.out_neighbors[v])))
                    break
            else:
                state[u] = 2
                stack.pop()
    return False


def fd_schedule(net: Network, T=None, rounds=1) -> Schedule:
    """Window-per-path activation for full-duplex networks.

    The maximum family of edge-disjoint paths is activated round-robin,
    each path owning a window of T slots. Edge j of a path switches on
    j-1 slots into the window and off early enough for the pipeline to
    drain, so every window is self-contained and every sink row carries
    exactly one path product. Valid when no chosen path has a link
    between non-consecutive nodes, or when the network is acyclic.
    """
    non_fd = [n.id for n in net.nodes if n.role == "relay" and n.duplex != "full"]
    if non_fd:
        raise SchedulingError(f"relays not full duplex: {non_fd}")
    paths = list(edge_disjoint_paths(net))
    shortcuts = {tuple(p): _intermediate_direct_links(net, p) for p in paths}
    cond1 = not any(v for v in shortcuts.values())
    cond2 = not _has_cycle(net)
    if not (cond1 or cond2):
        worst = {p: v for p, v in shortcuts.items() if v}
        raise SchedulingError(
            f"paths have direct shortcuts {worst} and the network has cycles")

    lengths = [len(p) - 1 for p in paths]
    if T is None:
        T = max(lengths) + 2
    if T < max(lengths):
        raise SchedulingError(f"window {T} shorter than longest path")
    M = len(paths)
    # path w owns window rnd * M + w of every round
    slot_sets = [
        [{(rnd * M + w) * T + t for rnd in range(rounds)
          for t in range(j - 1, T - n + j)} for j in range(1, n + 1)]
        for w, n in enumerate(lengths)]
    return _from_slot_sets(paths, slot_sets, M * T * rounds,
                           params={"T": T, "rounds": rounds})


# ---------------------------------------------------------------------------
# layered pairing

def layer_partner_map(path_set: PathSet, layer_sizes) -> dict:
    """Pair every forward path with a node-disjoint partner by bumping
    each relay index by one within its layer (the last layer included).
    A bijection without fixed points whenever every layer has >= 2
    nodes."""
    sizes = tuple(layer_sizes)
    tuples = {}
    for p in path_set:
        key = tuple(p[1:-1])
        tuples[key] = p
    partner = {}
    for key, p in tuples.items():
        shifted = []
        for j, v in enumerate(key):
            layer = sorted({q[j + 1] for q in path_set})
            k = layer.index(v)
            shifted.append(layer[(k + 1) % sizes[j]])
        partner[p] = tuples[tuple(shifted)]
    return partner


def layered_matching_schedule(net: Network, T=None) -> Schedule:
    """Pairwise activation of forward paths in a fully connected
    layered network.

    Each forward path gets a block of 2T slots shared with its shifted
    partner; the two run on opposite slot parities, one hop per slot,
    with onsets staggered so stale relay state is never transmitted.
    Every path delivers 2T - L symbols per full cycle.
    """
    cls = classify(net)
    if cls.tag not in ("regular", "fully-connected-layered"):
        raise SchedulingError(f"network is {cls.label}, need fully connected layers")
    if cls.tag == "regular" and not _fully_connected(net, cls.layers):
        raise SchedulingError("network is not fully connected")
    sizes = tuple(len(layer) for layer in cls.layers[1:-1])
    L = len(sizes)
    pset = forward_paths(net)
    partner = layer_partner_map(pset, sizes)
    if T is None:
        T = L + 2
    if 2 * T <= L:
        raise SchedulingError("blocks too short for the pipeline")

    paths = list(pset)
    index = {p: i for i, p in enumerate(paths)}
    slot_sets = [[set() for _ in range(L + 1)] for _ in paths]
    for b, p in enumerate(paths):
        for role, path in enumerate((p, partner[p])):
            # edge j fires every other slot from role + j - 1 and stops
            # early enough for the last symbol to clear the block
            for j, sets in enumerate(slot_sets[index[path]], start=1):
                sets.update(range(2 * T * b + role + j - 1,
                                  2 * T * b + 2 * T - L - 1 + j, 2))
    return _from_slot_sets(
        paths, slot_sets, 2 * T * len(paths),
        params={"T": T, "partner": {" ".join(k): " ".join(v)
                                    for k, v in partner.items()}})


# ---------------------------------------------------------------------------
# reference two-hop schedules

def single_link_schedule(net: Network) -> Schedule:
    return _from_slot_sets([(net.source.id, net.sink.id)], [[{0}]], 1)


def naf_schedule(net: Network) -> Schedule:
    """Two-slot relay pattern: the relay listens in the first slot and
    repeats in the second while the source keeps talking on the direct
    link."""
    if len(net.relays) != 1:
        raise SchedulingError("need one relay")
    return saf_schedule(net, 2)


def saf_schedule(net: Network, n_slots=5) -> Schedule:
    """Slotted relaying: isolated relays take turns repeating the
    previous slot's broadcast while the source sends a fresh symbol
    every slot; the final slot of each frame goes unrelayed. The
    network must be a relay bank (``is_relay_bank``)."""
    s, d = net.source.id, net.sink.id
    relays = sorted(n.id for n in net.relays)
    if not is_relay_bank(net):
        raise SchedulingError(
            "need relays between source and sink and a direct link")
    M, R = n_slots, len(relays)
    if M < 2:
        raise SchedulingError("need at least two slots")
    # relay k listens in slots k, k + R, ... short of the last one
    listens = [range(k, M - 1, R) for k in range(R)]
    relayed = _from_slot_sets(
        [(s, r, d) for r in relays],
        [[listen, [t + 1 for t in listen]] for listen in listens], M,
        params={"direct_every_slot": 1})
    return _with_direct_link(relayed, net)


def _parallel_schedule(net):
    """Schedule of the paths of a parallel-path network, ignoring any
    direct link."""
    cls = classify(net)
    if cls.has_interference:
        return kppI_schedule(net)
    if cls.K == 2:
        return color_kpp_two(net)
    if cls.K == 3:
        return color_kpp_three(net)
    return color_kpp_general(net)


def auto_schedule(net: Network) -> Schedule:
    """Canonical schedule for whatever family the network falls in.

    A bank of one or two relays between source and sink, beside the
    direct link (``is_relay_bank``), gets the two-hop reference pattern:
    NAF for one relay, SAF for two. Otherwise dispatch follows
    classify: regular and parallel-path networks get the matching
    coloring, inter-path links go through the segmented interference
    construction, a direct link switches on buffered operation on top
    of the backbone schedule (a larger bank is KPP(D) with two-edge
    paths, so it runs buffered), and layered networks use the partner
    matching. Any other network is a ``SchedulingError``.

    The schedule is built once per network and kept on it, as
    ``classify`` keeps its classification; a failure is not kept. Every
    caller shares the one object, so it must not be mutated.
    """
    if net._schedule is None:
        net._schedule = _auto_schedule(net)
    return net._schedule


def _auto_schedule(net):
    if not net.relays:
        return single_link_schedule(net)
    if is_relay_bank(net) and len(net.relays) <= 2:
        return naf_schedule(net) if len(net.relays) == 1 else saf_schedule(net)
    cls = classify(net)
    if cls.tag == "regular":
        return color_regular(net)
    if cls.backbone is not None:
        if cls.has_direct:
            return kppD_schedule(net)
        return _parallel_schedule(net)
    if cls.tag in ("layered", "fully-connected-layered"):
        return layered_matching_schedule(net)
    raise SchedulingError(
        f"no schedule construction covers this network (classified {cls.tag})")


# ---------------------------------------------------------------------------
# file format

def schedule_to_dict(sched: Schedule) -> dict:
    return {
        "cycle_length": sched.cycle_length,
        "activations": [
            {"tail": t, "head": h, "slots": sorted(slots)}
            for (t, h), slots in sorted(sched.activations.items())
        ],
        "backbone": [list(p) for p in sched.backbone] if sched.backbone else None,
        "path_counts": list(sched.path_counts),
        "added_delays": dict(sched.added_delays),
        "steady_state_delay": sched.steady_state_delay,
        "direct_link_mode": sched.direct_link_mode,
        "buffer_primes": dict(sched.buffer_primes),
        "symbols_per_cycle": sched.symbols_per_cycle,
        "deliveries": {str(k): v for k, v in sched.deliveries.items()},
        "params": dict(sched.params),
    }


def _slot_key(key):
    """A ``deliveries`` key as JSON writes it: a decimal-integer string."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise ValueError(f"expected a decimal slot key, got {key!r}")
    return int(key)


def schedule_from_dict(data: dict) -> Schedule:
    """Inverse of ``schedule_to_dict``. Integer fields must hold JSON
    integers and ``path_counts`` a list of them; a description that does
    not is a SchedulingError, never truncated into a schedule."""
    try:
        path_counts = data.get("path_counts", [])
        if not isinstance(path_counts, list):
            raise TypeError(f"path_counts must be a list, got {path_counts!r}")
        return Schedule(
            cycle_length=_int(data["cycle_length"]),
            activations={
                (item["tail"], item["head"]): frozenset(_int(s) for s in item["slots"])
                for item in data["activations"]
            },
            backbone=PathSet(tuple(tuple(p) for p in data["backbone"]))
            if data.get("backbone") else None,
            path_counts=tuple(_int(m) for m in path_counts),
            added_delays={str(k): _int(v)
                          for k, v in data.get("added_delays", {}).items()},
            steady_state_delay=_int(data.get("steady_state_delay", 0)),
            direct_link_mode=data.get("direct_link_mode", "none"),
            buffer_primes={str(k): _int(v)
                           for k, v in data.get("buffer_primes", {}).items()},
            symbols_per_cycle=_int(data.get("symbols_per_cycle", 0)),
            deliveries={_slot_key(k): _int(v)
                        for k, v in data.get("deliveries", {}).items()},
            # unpacking, unlike dict(), refuses anything but a mapping
            params={**data.get("params", {})},
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchedulingError(f"malformed schedule description: {exc}") from exc


def save_schedule(sched: Schedule, path) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(sched), fh, indent=2)
        fh.write("\n")


def load_schedule(path) -> Schedule:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchedulingError(f"not valid JSON: {exc}") from exc
    return schedule_from_dict(data)

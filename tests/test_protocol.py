"""Schedule synthesis: every coloring is driven through an independent
token-passing simulator, rates are checked against the exact formulas,
and the causal/back-flow reports against their definitions."""

import contextlib
import hashlib
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from relaydmt import (
    DelaySearchError,
    Edge,
    Network,
    Node,
    NotLayeredError,
    PathSet,
    Schedule,
    SchedulingError,
    UnsupportedFamilyError,
    almost_continuous_schedule,
    auto_schedule,
    balance_delays_kpp3,
    check_causal_interference,
    classify,
    color_kpp_general,
    color_kpp_three,
    color_kpp_two,
    color_regular,
    family_dmt,
    fd_schedule,
    forward_paths,
    kppD_schedule,
    kppI_schedule,
    kpp_network,
    layer_partner_map,
    layered_matching_schedule,
    layered_network,
    load_schedule,
    naf_network,
    naf_schedule,
    saf_network,
    saf_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    single_link_network,
    single_link_schedule,
    two_hop_network,
    validate_orthogonal,
)
from relaydmt.protocol import _closing_slots, _has_cycle
from test_dmt import _bench_networks, _corpus_networks


# ---------------------------------------------------------------------------
# oracle: drive the activation sets directly. Relays hold the last
# symbol heard; the source mints one fresh token per slot it talks in.
# Nothing here shares code with the schedule builders or the channel.

def run_tokens(sched, cycles=6):
    N = sched.cycle_length
    source = sched.backbone.paths[0][0]
    sink = sched.backbone.paths[0][-1]
    holding = {}
    delivered = []
    for t in range(cycles * N):
        active = [pair for pair, slots in sched.activations.items()
                  if t % N in slots]
        talkers = {u for u, _ in active}
        incoming = {}
        for u, v in active:
            assert v not in talkers or v == sink, f"half-duplex clash at {v}"
            assert v not in incoming, f"collision at {v} in slot {t}"
            incoming[v] = t if u == source else holding.get(u)
        for v, val in incoming.items():
            if v == sink:
                delivered.append((t, val))
            else:
                holding[v] = val
    return delivered


def assert_clean_flow(sched, cycles=6):
    """Steady-state deliveries: the right count per cycle, no token
    twice, every token minted in its path's first-edge slot."""
    N = sched.cycle_length
    delivered = [(t, tok) for t, tok in run_tokens(sched, cycles)
                 if t >= sched.steady_state_delay]
    # ignore the possibly partial last window
    full = (cycles * N - sched.steady_state_delay) // N
    cutoff = sched.steady_state_delay + full * N
    delivered = [(t, tok) for t, tok in delivered if t < cutoff]
    assert all(tok is not None for _, tok in delivered)
    tokens = [tok for _, tok in delivered]
    assert len(tokens) == len(set(tokens)), "a symbol was delivered twice"
    assert len(delivered) == full * sched.symbols_per_cycle
    firsts = {i: sched.slots_of(p[0], p[1])
              for i, p in enumerate(sched.backbone)}
    for t, tok in delivered:
        path = sched.deliveries[t % N]
        assert tok % N in firsts[path], "token minted off its path slot"


# ---------------------------------------------------------------------------
# colorings

def test_general_coloring_is_clean_for_random_lengths():
    rng = random.Random(20240812)
    cases = [tuple(rng.randint(2, 8) for _ in range(rng.randint(4, 6)))
             for _ in range(20)]
    # ten paths: the backbone lists p10r1 before p2r1
    cases.append(tuple(range(2, 12)))
    for lengths in cases:
        net = kpp_network(lengths)
        sched = color_kpp_general(net)
        report = validate_orthogonal(net, sched)
        assert report.ok and report.rate == 1
        assert_clean_flow(sched)


def test_three_path_coloring_handles_unequal_lengths():
    for lengths in ((2, 2, 2), (2, 2, 4), (2, 3, 4), (3, 3, 5), (2, 8, 8)):
        net = kpp_network(lengths)
        sched = color_kpp_three(net)
        report = validate_orthogonal(net, sched)
        assert report.ok and report.rate == 1, lengths
        assert_clean_flow(sched, cycles=10)


@pytest.mark.parametrize("lengths,backflow", [
    # all three lengths 1 mod 3, and two of them with a long third path
    # or a two-edge third path, whose long paths bend once each
    ((4, 4, 4), ()), ((7, 4, 4), ()), ((4, 4, 2), ("p1r2", "p2r2")),
])
def test_three_path_coloring_branches(lengths, backflow):
    net = kpp_network(lengths)
    report = validate_orthogonal(net, color_kpp_three(net))
    assert report.ok and report.rate == 1
    assert report.backflow_nodes == backflow


def test_two_path_rate_formula():
    for n1 in range(2, 11):
        for n2 in range(n1, 11):
            sched = color_kpp_two(kpp_network((n1, n2)))
            want = Fraction(1) if (n1 + n2) % 2 == 0 \
                else Fraction(2 * n2 - 1, 2 * n2)
            assert sched.rate == want, (n1, n2)
            report = validate_orthogonal(kpp_network((n1, n2)), sched)
            assert report.ok


def test_two_path_flow_is_clean():
    for n1, n2 in ((2, 2), (2, 3), (3, 4), (2, 5), (4, 7)):
        assert_clean_flow(color_kpp_two(kpp_network((n1, n2))), cycles=12)


def test_regular_coloring_rate_one():
    for K, L in ((2, 1), (3, 1), (3, 2), (4, 3), (6, 2)):
        net = kpp_network((L + 1,) * K)
        sched = color_regular(net)
        report = validate_orthogonal(net, sched)
        assert report.ok and report.rate == 1
        assert_clean_flow(sched)


def test_almost_continuous_accepts_explicit_delays():
    net = kpp_network((2, 3, 4))
    sched = almost_continuous_schedule(net, delays={"p3r1": 3})
    assert sched.added_delays == {"p3r1": 3}
    report = validate_orthogonal(net, sched)
    assert report.ok and report.rate == 1


def test_closing_slot_matching_for_many_paths_needs_no_recursion():
    # one matched path per search level: 1000 levels
    sched = almost_continuous_schedule(kpp_network((2,) * 1000))
    assert sched.cycle_length == 1000 and sched.rate == 1


def _lex_matching(allowed):
    """Oracle: lexicographically smallest complete matching, or None.

    ``allowed[i]`` is the sorted candidate list for left vertex i; the
    result assigns a distinct value to each i, chosen greedily with
    backtracking so earlier vertices get the smallest workable value.
    """
    pick, used, options = [], set(), []
    while len(pick) < len(allowed):
        if len(options) == len(pick):
            options.append(iter(allowed[len(pick)]))
        c = next((c for c in options[-1] if c not in used), None)
        if c is not None:
            pick.append(c)
            used.add(c)
            continue
        # vertex exhausted: move the previous vertex to its next value
        options.pop()
        if not pick:
            return None
        used.remove(pick.pop())
    return pick


def test_closing_slots_match_the_backtracking_oracle():
    def oracle(forbidden):
        K = len(forbidden)
        return _lex_matching([[c for c in range(K) if c != f] for f in forbidden])

    # every forbidden list for K = 3..6: no matching exactly when every
    # position forbids the same slot, and the rule agrees everywhere else
    for K in range(3, 7):
        for forbidden in itertools.product(range(K), repeat=K):
            if len(set(forbidden)) == 1:
                assert oracle(forbidden) is None
            else:
                assert _closing_slots(forbidden) == oracle(forbidden), forbidden
    # the lists the schedule meets, residues sorted: always a matching
    for K in range(3, 9):
        for res in itertools.combinations_with_replacement(range(K), K):
            forbidden = [(pos + r - 2) % K for pos, r in enumerate(res)]
            assert len(set(forbidden)) > 1
            assert _closing_slots(forbidden) == oracle(forbidden), forbidden


def test_constructor_for_another_family_is_rejected():
    cases = [
        (color_kpp_two, kpp_network((2, 3, 4))),
        (color_kpp_three, kpp_network((2, 3))),
        (color_kpp_general, kpp_network((2, 3, 4))),
        (color_regular, kpp_network((2, 3))),
        (almost_continuous_schedule, kpp_network((2, 3))),
        (naf_schedule, saf_network(2)),
        # the slotted bank once scheduled relay-to-sink edges these lack
        (saf_schedule, kpp_network((2, 3, 4), direct_link=True)),
        (saf_schedule, saf_network(3).without_edges({("r3", "d")})),
    ]
    for build, net in cases:
        with pytest.raises(SchedulingError):
            build(net)


def test_two_path_coloring_needs_the_short_path_first():
    # the backbone keeps the network's path order; sorting the paths
    # here would change which KPP(n1 > n2) networks auto_schedule takes
    with pytest.raises(SchedulingError, match="longer"):
        color_kpp_two(kpp_network((3, 2)))


# ---------------------------------------------------------------------------
# the validation report itself

def hand_schedule(net, paths, slot_sets, cycle):
    activations = {}
    deliveries = {}
    for i, (p, sets) in enumerate(zip(paths, slot_sets)):
        for pair, slots in zip(zip(p, p[1:]), sets):
            activations[pair] = frozenset(slots)
        deliveries[max(sets[-1])] = i
    return Schedule(
        cycle_length=cycle, activations=activations,
        backbone=PathSet(tuple(paths)),
        path_counts=tuple(len(s[0]) for s in slot_sets),
        symbols_per_cycle=sum(len(s[0]) for s in slot_sets),
        deliveries=deliveries)


def test_constraint_violations_are_named():
    net = kpp_network((2, 2))
    clash = hand_schedule(net, [("s", "p1r1", "d"), ("s", "p2r1", "d")],
                          [[{0}, {1}], [{0}, {2}]], 4)
    report = validate_orthogonal(net, clash)
    assert not report.ok
    assert not report.constraints["first_edges_disjoint"]
    assert report.constraints["last_edges_disjoint"]
    assert any("first-edge" in m for m in report.messages)

    same_slot = hand_schedule(net, [("s", "p1r1", "d"), ("s", "p2r1", "d")],
                              [[{0}, {0}], [{1}, {2}]], 4)
    report = validate_orthogonal(net, same_slot)
    assert not report.constraints["half_duplex"]

    uneven = hand_schedule(net, [("s", "p1r1", "d"), ("s", "p2r1", "d")],
                           [[{0, 2}, {1}], [{3}, {1}]], 6)
    report = validate_orthogonal(net, uneven)
    assert not report.constraints["equal_activation_counts"]
    assert not report.constraints["last_edges_disjoint"]


def test_backflow_is_reported_but_legal():
    net = kpp_network((3, 2))
    # edge 0 and edge 2 of the long path share slot 0: its middle
    # relay hears its downstream neighbour while still holding data
    sched = hand_schedule(
        net, [("s", "p1r1", "p1r2", "d"), ("s", "p2r1", "d")],
        [[{0}, {1}, {0}], [{2}, {3}]], 4)
    report = validate_orthogonal(net, sched)
    assert report.ok
    assert report.backflow_nodes == ("p1r1",)
    assert not report.backflow_free
    # definitional cross-check straight off the activation sets
    sets = [sched.slots_of(a, b)
            for a, b in zip(("s", "p1r1", "p1r2", "d"),
                            ("p1r1", "p1r2", "d"))]
    assert sets[0] & sets[2]


def test_synthesized_colorings_are_backflow_free():
    cases = [
        color_kpp_three(kpp_network((2, 2, 4))),
        color_kpp_two(kpp_network((2, 3))),
        color_regular(kpp_network((3, 3, 3))),
        color_kpp_general(kpp_network((2, 5, 3, 7))),
    ]
    for sched in cases:
        net = kpp_network(tuple(len(p) - 1 for p in sched.backbone))
        assert validate_orthogonal(net, sched).backflow_free


def test_schedule_on_missing_edge_is_rejected():
    net = kpp_network((2, 2), bidirectional=False)
    bogus = hand_schedule(net, [("s", "p1r1", "d"), ("s", "p2r1", "d")],
                          [[{0}, {1}], [{2}, {3}]], 4)
    report = validate_orthogonal(net, bogus)
    assert report.ok
    wrong_net = kpp_network((2, 3), bidirectional=False)
    with pytest.raises(SchedulingError):
        validate_orthogonal(wrong_net, bogus)


# ---------------------------------------------------------------------------
# interference handling

def test_delay_balancing_fixes_the_crossed_network():
    net = kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),))
    assert not check_causal_interference(net, _bare(net)).ok
    delays = balance_delays_kpp3(net)
    assert delays == {"p1r1": 1}
    sched = kppI_schedule(net)
    assert sched.added_delays == delays
    assert sched.rate == 1
    assert check_causal_interference(net, sched).ok


def _bare(net):
    """Schedule stub carrying only the backbone, no delays."""
    cls = classify(net)
    return Schedule(cycle_length=3, activations={}, backbone=cls.backbone,
                    symbols_per_cycle=3)


def test_plain_three_path_network_needs_no_delays():
    net = kpp_network((2, 3, 4))
    assert balance_delays_kpp3(net) == {}
    assert check_causal_interference(net, _bare(net)).ok


def test_delay_search_budget_is_honoured():
    net = kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),))
    with pytest.raises(DelaySearchError):
        balance_delays_kpp3(net, per_node_bound=0)


def test_delay_search_on_a_long_crossed_network_needs_no_recursion():
    # one backbone relay per search level: 1017 levels
    net = kpp_network((340, 339, 341), cross_links=[((2, 2), (3, 2))])
    assert balance_delays_kpp3(net) == {"p2r338": 1}


def _restrict_to_paths(net, paths):
    """Sub-network spanned by the given backbone paths, built edge by
    edge: the oracle for a causal check routed over a segment's own
    nodes."""
    keep = {net.source.id, net.sink.id}
    for p in paths:
        keep |= set(p)
    nodes = [n for n in net.nodes if n.id in keep]
    edges = [e for e in net.edges if e.tail in keep and e.head in keep]
    return Network(nodes, edges, name=net.name)


@pytest.mark.parametrize("links", [
    [((1, 1), (2, 1))],
    [((3, 1), (1, 1))],
    # a leak route from path 1 to path 2 through path 4, which the
    # segments without path 4 must not see
    [((1, 1), (4, 1)), ((4, 2), (2, 2))],
])
def test_causal_check_on_a_segment_ignores_the_other_paths(links):
    net = kpp_network((2, 3, 3, 4), cross_links=links)
    paths = classify(net).backbone.paths
    for combo in itertools.combinations(range(4), 3):
        trio = PathSet(tuple(paths[i] for i in combo))
        sub_net = _restrict_to_paths(net, trio)
        relays = sorted({v for p in trio for v in p[1:-1]})
        # no delay, then each relay alone delayed by 1 or 2 slots
        for delays in [{}] + [{v: d} for v in relays for d in (1, 2)]:
            sched = Schedule(cycle_length=3, activations={}, backbone=trio,
                             added_delays=delays, symbols_per_cycle=3)
            assert (check_causal_interference(net, sched)
                    == check_causal_interference(sub_net, sched)), (combo, delays)


# classify -> auto_schedule -> validate_orthogonal -> family_dmt ->
# forward_paths, in the structural pipeline's order
CLASSIFIED_ONCE = {
    "kppD2342": lambda: kpp_network((2, 3, 4, 2), direct_link=True),
    "kppI4": lambda: crossed((2, 3, 3, 4)),
    "kppI5": lambda: crossed((2, 3, 3, 4, 3)),
    "fc1231": lambda: layered_network((1, 2, 3, 1)),
    "layered1231": lambda: layered_network((1, 2, 3, 1), fully_connected=False),
}


@pytest.mark.parametrize("name", CLASSIFIED_ONCE)
def test_each_network_is_classified_once(name, classify_runs):
    net = CLASSIFIED_ONCE[name]()
    if classify(net).tag == "layered":
        with pytest.raises(SchedulingError, match="fully connected"):
            auto_schedule(net)
    else:
        validate_orthogonal(net, auto_schedule(net))
    family_dmt(net)
    with contextlib.suppress(NotLayeredError):
        forward_paths(net)
    assert classify_runs == [net]


@pytest.mark.parametrize("name", CLASSIFIED_ONCE)
def test_each_network_is_scheduled_once(name, schedule_runs):
    net = CLASSIFIED_ONCE[name]()
    classify(net)
    with contextlib.suppress(SchedulingError):
        validate_orthogonal(net, auto_schedule(net))
    family_dmt(net)
    assert schedule_runs == [net]


def test_auto_schedule_keeps_successes_on_their_own_network(schedule_runs):
    net, twin = kpp_network((2, 3, 4)), kpp_network((2, 3, 4))
    assert auto_schedule(net) is auto_schedule(net)
    assert auto_schedule(twin) is not auto_schedule(net)
    refused = kpp_network((2, 4, 4), direct_link=True)
    for _ in range(2):
        with pytest.raises(SchedulingError, match="downstream overlap"):
            auto_schedule(refused)
    assert schedule_runs == [net, twin, refused, refused]


def test_the_kept_schedule_is_validated_once_per_network(validate_runs):
    kept = []
    for net in _bench_networks() + _corpus_networks(range(1)):
        with contextlib.suppress(SchedulingError):
            kept.append((net, auto_schedule(net)))
    validate_runs.clear()           # the buffered schedules' base checks
    for net, sched in kept:
        report = validate_orthogonal(net, sched)
        for _ in range(2):
            assert validate_orthogonal(net, sched) is report
        assert net._orthogonality is report
    assert len(kept) > 70
    assert validate_runs == [net for net, _ in kept]


def test_the_buffered_base_schedule_is_validated_afresh(validate_runs):
    net = kpp_network((2, 3, 4, 2), direct_link=True)
    sched = auto_schedule(net)
    report = validate_orthogonal(net, sched)
    assert kppD_schedule(net) == sched
    assert validate_orthogonal(net, sched) is report
    # the base checks before and after the kept one, never served it
    assert validate_runs == [net, net, net]


def test_other_schedules_and_twins_are_validated_afresh(tmp_path, validate_runs):
    net = kpp_network((2, 3, 4))
    sched = auto_schedule(net)
    report = validate_orthogonal(net, sched)
    path = tmp_path / "sched.json"
    save_schedule(sched, path)
    loaded = load_schedule(path)
    twin = net.without_edges([("p1r1", "s")])
    for _ in range(2):
        for other, other_sched in ((net, loaded), (twin, sched)):
            again = validate_orthogonal(other, other_sched)
            assert again == report and again is not report
    assert twin._orthogonality is None
    assert validate_runs == [net] + [net, twin] * 2


def test_a_failing_kept_schedule_keeps_no_report(validate_runs):
    # no family schedule lacks a backbone, so one is kept by hand
    net = kpp_network((2, 3, 4))
    net._schedule = bare = replace(auto_schedule(net), backbone=None)
    assert auto_schedule(net) is bare
    for _ in range(2):
        with pytest.raises(SchedulingError, match="no path decomposition"):
            validate_orthogonal(net, bare)
        assert net._orthogonality is None
    assert validate_runs == [net, net]


def test_segmented_interference_schedule_for_four_paths():
    net = kpp_network((2, 2, 2, 3), cross_links=(((1, 1), (2, 1)),))
    assert classify(net).tag == "KPP(I)"
    sched = kppI_schedule(net)
    assert sched.rate == 1
    report = validate_orthogonal(net, sched)
    assert report.constraints["half_duplex"]


# ---------------------------------------------------------------------------
# direct-link operation

def test_buffered_schedule_structure():
    net = kpp_network((2, 3, 4), direct_link=True)
    sched = kppD_schedule(net)
    assert sched.direct_link_mode == "buffered"
    assert sched.symbols_per_cycle == sched.cycle_length
    assert sched.slots_of("s", "d") == frozenset(range(sched.cycle_length))
    # the slowest path sets the delay target, so it primes nothing
    assert all(b >= 0 for b in sched.buffer_primes.values())
    assert 0 in sched.buffer_primes.values()
    assert set(sched.buffer_primes) == {p[-2] for p in sched.backbone}


def test_buffered_schedule_needs_three_paths():
    with pytest.raises(SchedulingError):
        kppD_schedule(kpp_network((2, 3), direct_link=True))


def test_buffered_schedule_picks_the_interference_base_itself():
    # KPP(I,D): the direct call and the dispatcher agree on the base
    # schedule, so both honour the cross link or both refuse
    def kppID(lengths, link):
        return kpp_network(lengths, direct_link=True, cross_links=[link],
                           bidirectional=False)

    net = kppID((4, 4, 4), ((1, 2), (2, 2)))
    assert classify(net).tag == "KPP(I,D)"
    assert kppD_schedule(net) == auto_schedule(net)
    net = kppID((2, 3, 4), ((1, 1), (2, 1)))
    with pytest.raises(SchedulingError):
        kppD_schedule(net)
    with pytest.raises(SchedulingError):
        auto_schedule(net)


# ---------------------------------------------------------------------------
# layered and reference schedules

def test_partner_map_properties():
    for sizes in ((1, 2, 2, 1), (1, 3, 2, 1), (1, 2, 3, 4, 1)):
        net = layered_network(sizes)
        pset = classify(net)
        from relaydmt import forward_paths
        paths = forward_paths(net)
        partner = layer_partner_map(paths, sizes[1:-1])
        assert all(partner[p] != p for p in paths)
        assert sorted(partner.values()) == sorted(paths)
        assert all(not (set(p[1:-1]) & set(partner[p][1:-1]))
                   for p in paths)


def test_layered_matching_schedule_delivers():
    net = layered_network((1, 2, 3, 1))
    sched = layered_matching_schedule(net)
    L = 2
    T = sched.params["T"]
    n_paths = len(sched.backbone)
    assert sched.cycle_length == 2 * T * n_paths
    assert sched.symbols_per_cycle == (2 * T - L) * n_paths


def test_reference_schedules():
    single = single_link_schedule(single_link_network())
    assert (single.cycle_length, single.symbols_per_cycle) == (1, 1)

    naf = naf_schedule(naf_network())
    assert naf.cycle_length == 2
    assert naf.params.get("direct_every_slot")
    assert naf.slots_of("s", "d") == frozenset({0, 1})

    saf = saf_schedule(saf_network(2))
    assert saf.cycle_length == 5
    assert saf.slots_of("s", "d") == frozenset(range(5))
    longer = saf_schedule(saf_network(2), n_slots=8)
    assert longer.cycle_length == 8


def test_naf_is_one_relay_saf_with_two_slots():
    assert naf_schedule(naf_network()) == saf_schedule(naf_network(), 2)


def full_duplex(net):
    return Network([Node(n.id, n.role, n.antennas, "full") if n.role == "relay"
                    else n for n in net.nodes], net.edges)


def crossed(lengths):
    return kpp_network(lengths, cross_links=[((1, 1), (2, 1))])


# Constructions the seeded benchmark corpus does not reach: SHA-256 of
# json.dumps(schedule_to_dict(s), sort_keys=True), recorded from an
# implementation that wrote every Schedule field by hand, so a change
# in any derived field (deliveries, path counts, rate) shows here.
PINNED = {
    "kppI4": lambda: kppI_schedule(crossed((2, 3, 3, 4))),
    "kppI4-F2": lambda: kppI_schedule(crossed((2, 3, 3, 4)), 2),
    "kppI5": lambda: kppI_schedule(crossed((2, 3, 3, 4, 3))),
    "kppI5-F2": lambda: kppI_schedule(crossed((2, 3, 3, 4, 3)), 2),
    **{f"fd-T{T}-r{r}": (lambda T=T, r=r: fd_schedule(
        full_duplex(kpp_network((2, 3, 4))), T, r))
       for T in (None, 7) for r in (1, 2)},
    **{f"layered{''.join(map(str, p))}-T5": (
        lambda p=p: layered_matching_schedule(layered_network(p), 5))
       for p in ((1, 2, 3, 1), (1, 3, 2, 1), (1, 2, 2, 2, 1))},
    "saf3-M2": lambda: saf_schedule(saf_network(3), 2),
    "saf3-M8": lambda: saf_schedule(saf_network(3), 8),
    "kpp25": lambda: color_kpp_two(kpp_network((2, 5))),
    "kpp47": lambda: color_kpp_two(kpp_network((4, 7))),
    "naf": lambda: naf_schedule(naf_network()),
    # two of its four segments need the delay {'p1r1': 1}
    "kppI2243": lambda: kppI_schedule(
        kpp_network((2, 2, 4, 3), cross_links=[((3, 1), (1, 1))])),
    "kppID444": lambda: kppD_schedule(kpp_network(
        (4, 4, 4), direct_link=True, cross_links=[((1, 2), (2, 2))],
        bidirectional=False)),
}

PINNED_SHA256 = {
    "kppI4": "a7b74c2a8c29c3a182044ed28525b10569b8940725850e7ad548734d307dcc48",
    "kppI4-F2": "4972abc4ebb6a249798f72bb4d362487b948665f490489e9ddaab04e1d7e4291",
    "kppI5": "43db67b3505ba58a5c2d1a0686789d51a08a3ae82a9d6a856243a4a395d6cd4d",
    "kppI5-F2": "40dba11068395d3bef52394606cdc9696b30ddc730132b55ae5ed145f6fcf648",
    "fd-TNone-r1": "9cc9c4215e4cee5abbae4143b02d2f63f666c9ac12c2ba6a40f01085c96c834f",
    "fd-TNone-r2": "b0db353cb3a1a01d1a573dfeb1d9a3d4afdf38313c0000416aa81aead6655000",
    "fd-T7-r1": "86fa51f62e55e9b8f1ab9dd9760bfe96dfb307fdf25d3fc323c909a2d8203d33",
    "fd-T7-r2": "9dbde5e36d1f5be925bea42e8994faecb784d058613df3642d022b654fcba15f",
    "layered1231-T5": "0066fe417549b39e7d9792046015d600daab89f3be311102dec1eab487f7cbd8",
    "layered1321-T5": "ea2a41b6780cff80ca08cb3e05d5ee25875204b746987a14a821c8f7b82ef46d",
    "layered12221-T5": "efd2ead759319477b999f8ed05a5b128973c17416150365785abd592a0b3f6a6",
    "saf3-M2": "d62984ee0bd7f33a6a48170deb63e44dbed43e5f3a8cb0016adf0775e8c43194",
    "saf3-M8": "d17449e718212fe2941bffa7aac282affdb238d37a33c24d4db1172857127126",
    "kpp25": "2e34e14695e552cd92e01a842075c0d7db9215d697434966c17efc8d0abcfcce",
    "kpp47": "77275bdf49f399529a1d646e4e59805c28f8474bd31d8c320e3831cfa1865889",
    "naf": "ca5c218d3d4b03dc95203ed6814d68e32c6c539a2b04895a6c4ee2bdd4d451dd",
    "kppI2243": "96b862d9721b8ab3f337f907e649ada544d260a7134c074d71952639875e14ef",
    "kppID444": "70926ffe672044afbbb147e43d11ee39a2a3796d7b13933afc7f2ed4ccab7aa7",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_schedule_matches_pinned_digest(case):
    blob = json.dumps(schedule_to_dict(PINNED[case]()), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_SHA256[case]


# ---------------------------------------------------------------------------
# dispatch

def test_auto_schedule_covers_the_zoo():
    cases = [
        (single_link_network(), dict(cycle_length=1)),
        (naf_network(), dict(cycle_length=2)),
        (saf_network(2), dict(cycle_length=5)),
        (saf_network(3), dict(direct_link_mode="buffered")),
        (kpp_network((2, 2, 2)), dict(cycle_length=3)),
        (kpp_network((2, 3, 4)), dict(symbols_per_cycle=3)),
        (kpp_network((2, 3, 4, 5)), dict(symbols_per_cycle=4)),
        (kpp_network((2, 3, 4), direct_link=True),
         dict(direct_link_mode="buffered")),
        (kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),)),
         dict(added_delays={"p1r1": 1})),
        (two_hop_network(4, direct_link=False), dict(cycle_length=4)),
    ]
    for net, expected in cases:
        sched = auto_schedule(net)
        for field, want in expected.items():
            assert getattr(sched, field) == want, (net.name or net, field)


@pytest.mark.parametrize("net", [
    *(saf_network(k) for k in range(1, 6)),
    saf_network(3).without_edges({("r3", "d")}),
    saf_network(2).without_edges({("s", "r2")}),
    kpp_network((2, 3, 4), direct_link=True),
], ids=[*(f"saf{k}" for k in range(1, 6)), "no-sink-link", "no-source-link",
        "kppD234"])
def test_two_hop_patterns_exactly_where_the_curve_is_two_hop(net):
    # family_dmt reads its curve off auto_schedule's bank rule: NAF/SAF
    # and the two-hop reference curve for one or two relays, buffered
    # operation and the K+1 line for more, nothing for a relay that
    # misses its source or sink link
    try:
        sched = auto_schedule(net)
    except SchedulingError:
        sched = None
    try:
        fam = family_dmt(net)
    except UnsupportedFamilyError:
        fam = None
    assert (sched is None) == (fam is None)
    if sched is not None:
        two_hop = any("half-duplex relaying" in note for note in fam.notes)
        assert bool(sched.params.get("direct_every_slot")) == two_hop
        assert two_hop == (len(net.relays) <= 2)
    else:
        assert classify(net).tag == "other"


def test_direct_link_in_every_slot_is_one_schedule_property():
    assert naf_schedule(naf_network()).uses_direct_link
    slotted = saf_schedule(saf_network(2), 3)
    assert slotted.uses_direct_link
    assert schedule_from_dict(schedule_to_dict(slotted)).uses_direct_link
    assert auto_schedule(kpp_network((2, 3, 4), direct_link=True)).uses_direct_link
    plain = auto_schedule(kpp_network((2, 3, 4)))
    assert not plain.uses_direct_link
    assert "uses_direct_link" not in schedule_to_dict(plain)


def test_auto_schedule_layered_dispatch():
    sched = auto_schedule(layered_network((1, 2, 3, 1)))
    assert "partner" in sched.params


# ---------------------------------------------------------------------------
# serialization

def test_dict_round_trip():
    for sched in (color_kpp_three(kpp_network((2, 3, 4))),
                  kppD_schedule(kpp_network((2, 3, 4), direct_link=True)),
                  kppI_schedule(crossed((2, 3, 3, 4))),
                  layered_matching_schedule(layered_network((1, 2, 3, 1))),
                  naf_schedule(naf_network())):
        clone = schedule_from_dict(schedule_to_dict(sched))
        assert clone == sched


def test_file_round_trip(tmp_path):
    sched = color_kpp_two(kpp_network((2, 3)))
    path = tmp_path / "sched.json"
    save_schedule(sched, path)
    assert load_schedule(path) == sched


def test_malformed_description_is_a_scheduling_error():
    for data in [
        {"activations": []},
        {"cycle_length": "x", "activations": []},
        {"cycle_length": 2,
         "activations": [{"tail": "s", "head": "d", "slots": ["a"]}]},
        {"cycle_length": 2, "activations": [], "params": []},
        {"cycle_length": 2, "activations": [], "deliveries": []},
        # integers are never truncated: floats, bools and strings of
        # characters are refused wherever an integer belongs
        {"cycle_length": 2.7, "activations": []},
        {"cycle_length": True, "activations": []},
        {"cycle_length": 2,
         "activations": [{"tail": "s", "head": "d", "slots": [1.9, True]}]},
        {"cycle_length": 2,
         "activations": [{"tail": "s", "head": "d", "slots": [True]}]},
        {"cycle_length": 2, "activations": [], "path_counts": "ab"},
        {"cycle_length": 2, "activations": [], "path_counts": [1.0]},
        {"cycle_length": 2, "activations": [], "steady_state_delay": 1.5},
        {"cycle_length": 2, "activations": [], "symbols_per_cycle": "2"},
        {"cycle_length": 2, "activations": [], "added_delays": {"p1r1": 1.0}},
        {"cycle_length": 2, "activations": [], "buffer_primes": {"a": False}},
        {"cycle_length": 2, "activations": [], "deliveries": {"0": 0.5}},
        {"cycle_length": 2, "activations": [], "deliveries": {"1.0": 0}},
        {"cycle_length": 2, "activations": [], "deliveries": {" 1": 0}},
        {"cycle_length": 2, "activations": [], "deliveries": {1: 0}},
        {"cycle_length": 2.7, "path_counts": "ab",
         "activations": [{"tail": "s", "head": "d", "slots": [1.9, True]}]},
    ]:
        with pytest.raises(SchedulingError):
            schedule_from_dict(data)


def test_cycle_search_on_a_long_chain_needs_no_recursion():
    # 2000 relays in a one-way chain: deeper than the recursion limit
    ids = ["s"] + [f"r{i}" for i in range(2000)] + ["d"]
    nodes = ([Node("s", "source")] + [Node(u) for u in ids[1:-1]]
             + [Node("d", "sink")])
    chain = [Edge(a, b) for a, b in zip(ids, ids[1:])]
    assert not _has_cycle(Network(nodes, chain))
    assert _has_cycle(Network(nodes, chain + [Edge("r1999", "r0")]))

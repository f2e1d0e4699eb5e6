"""Tradeoff-curve calculus against a dense-grid minimization oracle.

The oracle discretizes every curve on a 1/1000 grid and runs the
min-plus convolution by brute force. Random inputs keep all breakpoints
on the grid with integer slopes, which makes the greedy combiner and
the grid search agree exactly at grid points.
"""

import json
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import relaydmt
from relaydmt import (
    CurveError,
    DmtCurve,
    Edge,
    Network,
    NetworkError,
    Node,
    SchedulingError,
    UnsupportedFamilyError,
    auto_schedule,
    classify,
    curve_rows,
    expand_antennas,
    family_dmt,
    is_relay_bank,
    kpp_network,
    layered_network,
    linear_curve,
    mimo_dmt,
    min_cut,
    naf_network,
    parallel,
    parallel_repeated,
    pointwise_max,
    pointwise_sum,
    product_parallel,
    rate_scale,
    saf_network,
    saf_schedule,
    schedule_curve,
    single_link_network,
    triangular_lower_bound,
    two_hop_network,
)

GRID = 1000


# ---------------------------------------------------------------------------
# oracle

def random_grid_curve(rng):
    """Convex decreasing curve whose breakpoints all sit on the grid."""
    n_seg = int(rng.integers(1, 4))
    slopes = sorted(rng.choice(np.arange(-9, 0), size=n_seg, replace=False))
    widths = rng.integers(40, 220, size=n_seg)
    rs = [Fraction(0)]
    for w in widths:
        rs.append(rs[-1] + Fraction(int(w), GRID))
    ds = [Fraction(0)]
    for w, s in zip(widths[::-1], slopes[::-1]):
        ds.append(ds[-1] + Fraction(int(w) * int(-s), GRID))
    return DmtCurve(list(zip(rs, ds[::-1])))


def dense_min_plus(curves):
    """Brute-force rate-splitting minimum on the grid.

    Returns the array of minima at r = k/GRID for k up to the sum of
    the curves' ranges; exact for grid-aligned inputs because some
    optimal split then lands on the grid.
    """
    ends = [int(c.points[-1][0] * GRID) for c in curves]
    acc = np.array([float(curves[0](Fraction(k, GRID)))
                    for k in range(ends[0] + 1)])
    done = ends[0]
    for c, e in zip(curves[1:], ends[1:]):
        nxt = np.array([float(c(Fraction(k, GRID))) for k in range(e + 1)])
        out = np.full(done + e + 1, np.inf)
        for j in range(done + 1):
            seg = out[j:j + e + 1]
            np.minimum(seg, acc[j] + nxt, out=seg)
        acc = out
        done += e
    return acc


def assert_matches_grid(curve, grid, rng, queries=25):
    ks = set(rng.integers(0, len(grid), size=queries).tolist())
    ks.update(int(r * GRID) for r, _ in curve.points
              if (r * GRID).denominator == 1 and r * GRID < len(grid))
    for k in sorted(ks):
        assert abs(float(curve(Fraction(k, GRID))) - grid[k]) < 1e-6, k


def test_parallel_matches_dense_grid():
    rng = np.random.default_rng(20240812)
    for _ in range(6):
        curves = [random_grid_curve(rng)
                  for _ in range(int(rng.integers(2, 5)))]
        assert_matches_grid(parallel(curves), dense_min_plus(curves), rng)


def test_parallel_repeated_matches_dense_grid():
    rng = np.random.default_rng(20240813)
    for _ in range(4):
        k = int(rng.integers(2, 4))
        curves = [random_grid_curve(rng) for _ in range(k)]
        counts = [int(rng.integers(1, 4)) for _ in range(k)]
        total = sum(counts)
        fractions = [Fraction(n, total) for n in counts]
        combined = parallel_repeated(curves, fractions, total)
        stretched = [DmtCurve([(r * n, d) for r, d in c.points])
                     for c, n in zip(curves, counts)]
        assert_matches_grid(combined, dense_min_plus(stretched), rng)


def test_parallel_hand_case():
    # spend rate on the steeper branch first
    combined = parallel([linear_curve(1), linear_curve(2)])
    assert combined.points == ((0, 3), (1, 1), (2, 0))
    single = random_grid_curve(np.random.default_rng(0))
    assert parallel([single]).points == single.points


def test_parallel_repeated_input_checks():
    c = linear_curve(1)
    with pytest.raises(CurveError, match="sum"):
        parallel_repeated([c, c], [Fraction(1, 2), Fraction(1, 3)], 6)
    with pytest.raises(CurveError, match="whole"):
        parallel_repeated([c, c], [Fraction(1, 2), Fraction(1, 2)], 3)
    with pytest.raises(CurveError, match="one fraction"):
        parallel_repeated([c], [Fraction(1, 2), Fraction(1, 2)], 2)


# ---------------------------------------------------------------------------
# curve construction and calculus

def test_curve_validation():
    with pytest.raises(CurveError, match="float"):
        DmtCurve([(0.0, 1)])
    with pytest.raises(CurveError, match="duplicate"):
        DmtCurve([(0, 2), (0, 1)])
    with pytest.raises(CurveError, match="negative"):
        DmtCurve([(0, 2), (1, -1)])
    with pytest.raises(CurveError, match="non-increasing"):
        DmtCurve([(0, 1), (1, 2)])
    with pytest.raises(CurveError, match="convex"):
        DmtCurve([(0, 2), (2, 1), (3, 0)])
    with pytest.raises(CurveError):
        DmtCurve([])


def test_curve_evaluation_and_merging():
    merged = DmtCurve([(0, 2), (1, 1), (2, 0)])
    assert merged.points == ((0, 2), (2, 0))

    kinked = DmtCurve([(0, 2), (1, 1), (3, 0)])
    assert kinked(Fraction(1, 2)) == Fraction(3, 2)
    assert kinked(2) == Fraction(1, 2)
    assert kinked(10) == 0
    assert kinked.max_diversity == 2
    assert kinked.max_multiplexing == 3
    assert kinked.segments() == [(1, -1), (2, Fraction(-1, 2))]

    shifted = DmtCurve([(Fraction(1, 2), 1), (1, 0)])
    assert shifted(0) == 1
    never_zero = DmtCurve([(0, 2), (1, 1)])
    assert never_zero(5) == 1
    assert never_zero.max_multiplexing == 1


def test_reference_curve_shapes():
    assert linear_curve(3).points == ((0, 3), (1, 0))
    assert linear_curve(2, rmax=Fraction(1, 2)).points == ((0, 2), (Fraction(1, 2), 0))
    assert mimo_dmt(2, 2).points == ((0, 4), (1, 1), (2, 0))
    assert mimo_dmt(1, 4).points == linear_curve(4).points
    assert mimo_dmt(3, 2).points == mimo_dmt(2, 3).points
    assert product_parallel(6, 3).points == ((0, 2), (6, 0))
    with pytest.raises(CurveError):
        linear_curve(0)
    with pytest.raises(CurveError):
        mimo_dmt(0, 2)
    with pytest.raises(CurveError):
        product_parallel(3, 0)


def test_rate_scale():
    base = DmtCurve([(0, 2), (1, 1), (3, 0)])
    assert rate_scale(base, 1).points == base.points
    assert rate_scale(base, 2).points == ((0, 2), (Fraction(1, 2), 1), (Fraction(3, 2), 0))
    assert rate_scale(base, Fraction(1, 2)).points == ((0, 2), (2, 1), (6, 0))
    with pytest.raises(CurveError):
        rate_scale(base, 0)


def test_pointwise_sum_and_max():
    direct = linear_curve(1)
    relayed = rate_scale(linear_curve(1), 2)
    total = pointwise_sum(direct, relayed)
    assert total.points == ((0, 2), (Fraction(1, 2), Fraction(1, 2)), (1, 0))

    steep = DmtCurve([(0, 3), (Fraction(1, 3), 0)])
    hull = pointwise_max(linear_curve(2), steep)
    # crossing at 3 - 9r = 2 - 2r
    assert hull.points == ((0, 3), (Fraction(1, 7), Fraction(12, 7)), (1, 0))
    for r in (0, Fraction(1, 14), Fraction(1, 7), Fraction(1, 2), 1):
        assert hull(r) == max(linear_curve(2)(r), steep(r))


def test_triangular_bound_composes_reference_curves():
    # two-slot relaying: rows split into a per-symbol thread of 2 direct
    # uses and one leaked relay product; half the slots carry fresh symbols
    thread = linear_curve(1, rmax=2)
    leak = parallel([linear_curve(1, rmax=1)])
    naf = rate_scale(triangular_lower_bound(thread, leak, True), 2)
    assert naf.points == ((0, 2), (Fraction(1, 2), Fraction(1, 2)), (1, 0))

    # five-slot bank of two relays: thread of 5 direct uses, two leak
    # coefficients used twice each
    thread = linear_curve(1, rmax=5)
    leak = parallel([linear_curve(1, rmax=2), linear_curve(1, rmax=2)])
    saf = rate_scale(triangular_lower_bound(thread, leak, True), 5)
    assert saf.points == ((0, 3), (Fraction(4, 5), Fraction(1, 5)), (1, 0))

    # dependent parts fall back to the larger exponent
    a, b = linear_curve(3), DmtCurve([(0, 4), (Fraction(1, 4), 0)])
    assert triangular_lower_bound(a, b, False).points == pointwise_max(a, b).points


# ---------------------------------------------------------------------------
# per-family analytic curves

def test_family_parallel_paths():
    fam = family_dmt(kpp_network((2, 3, 4)))
    assert fam.achievable.points == ((0, 3), (1, 0))
    assert fam.tight and fam.cutset.points == fam.achievable.points

    crossed = kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),))
    fam = family_dmt(crossed)
    assert fam.achievable.points == ((0, 3), (1, 0)) and fam.tight

    fam = family_dmt(kpp_network((2, 2, 2)))
    assert fam.achievable.points == ((0, 3), (1, 0)) and fam.tight
    assert fam.notes  # regular nets carry the applicability caveat


def test_family_buffered_direct_link():
    for lengths, want in [((2, 3, 4), 4), ((2, 3, 4, 2), 5)]:
        fam = family_dmt(kpp_network(lengths, direct_link=True))
        assert fam.achievable.points == ((0, want), (1, 0))
        assert fam.tight


def test_family_two_paths():
    fam = family_dmt(kpp_network((2, 4)))
    assert fam.achievable.points == ((0, 2), (1, 0)) and fam.tight

    fam = family_dmt(kpp_network((2, 3)))
    assert fam.achievable.points == (
        (0, 2), (Fraction(1, 3), 1), (Fraction(5, 6), 0))
    assert not fam.tight
    assert fam.cutset.points == ((0, 2), (1, 0))
    assert fam.notes


def test_family_two_paths_ignores_path_order():
    # the long path listed first must not be mistaken for the short one
    for short_first in ((2, 3), (2, 5)):
        a = family_dmt(kpp_network(short_first))
        b = family_dmt(kpp_network(short_first[::-1]))
        assert b.achievable.points == a.achievable.points
        assert b.cutset.points == a.cutset.points and b.tight == a.tight
    assert family_dmt(kpp_network((5, 2))).achievable.points[-1] == (
        Fraction(9, 10), 0)


def test_family_relay_banks():
    fam = family_dmt(naf_network())
    assert fam.achievable.points == ((0, 2), (Fraction(1, 2), Fraction(1, 2)), (1, 0))
    assert fam.cutset.points == ((0, 2), (1, 0))
    assert not fam.tight

    fam = family_dmt(saf_network(2))
    assert fam.achievable.points == ((0, 3), (Fraction(4, 5), Fraction(1, 5)), (1, 0))
    assert fam.cutset.points == ((0, 3), (1, 0))
    assert not fam.tight

    # three isolated relays plus the direct link leave the bank regime
    # and run buffered, meeting the K+1 line
    fam = family_dmt(saf_network(3))
    assert fam.achievable.points == ((0, 4), (1, 0)) and fam.tight

    # without the direct link the bank is plain orthogonal relaying
    fam = family_dmt(two_hop_network(2, direct_link=False))
    assert fam.achievable.points == ((0, 2), (1, 0)) and fam.tight


def test_family_point_to_point():
    fam = family_dmt(single_link_network())
    assert fam.achievable.points == ((0, 1), (1, 0)) and fam.tight
    wide = Network([Node("s", "source", 2), Node("d", "sink", 2)],
                   [Edge("s", "d")])
    assert family_dmt(wide).achievable.points == ((0, 4), (1, 1), (2, 0))


def test_family_layered():
    fam = family_dmt(layered_network((1, 2, 2, 1)))
    assert fam.achievable.points == ((0, 2), (1, 0)) and fam.tight

    # narrowest hop in the middle: the 2x2 cut-set curve is strictly
    # above the matching-schedule line
    fam = family_dmt(layered_network((1, 5, 2, 2, 5, 1)))
    assert fam.achievable.points == ((0, 4), (1, 0))
    assert fam.cutset.points == ((0, 4), (1, 1), (2, 0))
    assert not fam.tight

    fam = family_dmt(layered_network((1, 2, 4, 1), fully_connected=False))
    assert fam.achievable.points == ((0, 2), (1, 0)) and fam.tight


def test_family_unsupported():
    with pytest.raises(UnsupportedFamilyError, match="three paths"):
        family_dmt(kpp_network((2, 3), direct_link=True))
    with pytest.raises(UnsupportedFamilyError):
        family_dmt(kpp_network((2, 3), cross_links=(((1, 1), (2, 1)),)))


def test_family_layered_without_disjoint_partner():
    # a (1,3,2,1) layered network whose only way out is l2n0-d: min cut
    # 1, and the one edge-disjoint path has no node-disjoint partner
    relays = ["l1n0", "l1n1", "l1n2", "l2n0", "l2n1"]
    pairs = [("s", "l1n0"), ("s", "l1n1"), ("s", "l1n2"), ("l1n0", "l2n1"),
             ("l1n1", "l2n0"), ("l1n1", "l2n1"), ("l1n2", "l2n1"),
             ("l2n0", "d")]
    net = Network([Node("s", "source")] + [Node(r, "relay") for r in relays]
                  + [Node("d", "sink")],
                  [Edge(a, b) for a, b in pairs] + [Edge(b, a) for a, b in pairs])
    assert classify(net).tag == "layered"
    assert min_cut(net) == 1
    with pytest.raises(UnsupportedFamilyError, match="node-disjoint partner"):
        family_dmt(net)


# ---------------------------------------------------------------------------
# curves read off schedules, against the closed forms they replaced

def two_hop_window_curve(n_relays):
    """One or two relays beside the direct link: the relay term of the
    2-slot NAF or 5-slot SAF window, whose relays forward in all but
    one slot, on top of the direct link's line."""
    window = 2 if n_relays == 1 else 5
    relay_term = rate_scale(linear_curve(n_relays), Fraction(window, window - 1))
    return pointwise_sum(linear_curve(1), relay_term)


def kpp_two_curve(lengths):
    """Two paths: the rate-1 line for an even total length; otherwise,
    with n the longer path's edge count, breakpoints at rates
    (n - 1) / 2n and (2n - 1) / 2n, the schedule's rate."""
    n = max(lengths)
    if sum(lengths) % 2 == 0:
        return linear_curve(2)
    return DmtCurve([(0, 2), (Fraction(n - 1, 2 * n), 1),
                     (Fraction(2 * n - 1, 2 * n), 0)])


@pytest.mark.parametrize("n_relays", [1, 2])
def test_two_hop_banks_match_the_window_curve(n_relays):
    fam = family_dmt(naf_network() if n_relays == 1 else saf_network(2))
    assert fam.achievable.points == two_hop_window_curve(n_relays).points
    assert fam.cutset.points == mimo_dmt(1, n_relays + 1).points
    assert not fam.tight
    assert any("half-duplex relaying" in note for note in fam.notes)


@pytest.mark.parametrize("n", range(2, 10))
def test_two_paths_match_the_closed_form_in_both_orders(n):
    for lengths in ((2, n), (n, 2)):
        fam = family_dmt(kpp_network(lengths))
        assert fam.achievable.points == kpp_two_curve(lengths).points, lengths
        assert fam.cutset.points == linear_curve(2).points
        assert fam.tight == (n % 2 == 0)


@pytest.mark.parametrize("K", range(3, 7))
def test_k_paths_meet_the_k_line_and_a_direct_link_adds_one(K):
    lengths = (2, 3, 4, 5, 6, 7)[:K]
    for tag, net in [
        ("KPP", kpp_network(lengths)),
        ("KPP(I)", kpp_network(lengths, cross_links=[((1, 1), (2, 1))])),
        (f"regular({K},2)", kpp_network((3,) * K)),
        ("KPP(D)", kpp_network(lengths, direct_link=True)),
        ("KPP(D)", saf_network(K)),
    ]:
        fam = family_dmt(net)
        want = linear_curve(K + 1 if tag == "KPP(D)" else K)
        assert fam.label == tag
        assert fam.achievable.points == want.points and fam.tight, (tag, K)
        assert fam.cutset.points == want.points


def test_buffered_interference_network_gains_the_k_plus_one_line():
    net = kpp_network((4, 4, 4), direct_link=True,
                      cross_links=[((1, 2), (2, 2))], bidirectional=False)
    fam = family_dmt(net)
    assert fam.label == "KPP(I,D)"
    assert fam.achievable.points == ((0, 4), (1, 0)) and fam.tight


def test_back_flow_base_schedule_has_no_buffered_curve():
    net = kpp_network((2, 4, 4), direct_link=True)
    with pytest.raises(SchedulingError, match="downstream overlap"):
        auto_schedule(net)
    with pytest.raises(UnsupportedFamilyError, match="downstream overlap") as err:
        family_dmt(net)
    assert isinstance(err.value.__cause__, SchedulingError)


def test_schedule_curve_of_slotted_banks():
    net = saf_network(2)
    # three slots: each relay forwards once; four: one relay twice
    assert schedule_curve(saf_schedule(net, 3)).points == (
        (0, 3), (Fraction(2, 3), Fraction(1, 3)), (1, 0))
    assert schedule_curve(saf_schedule(net, 4)).points == (
        (0, 3), (Fraction(1, 4), Fraction(7, 4)), (Fraction(3, 4), Fraction(1, 4)),
        (1, 0))
    assert schedule_curve(saf_schedule(net, 5)).points == two_hop_window_curve(2).points
    # a relay left without a slot adds nothing
    assert schedule_curve(saf_schedule(net, 2)).points == two_hop_window_curve(1).points


def _workloads():
    """The benchmark's ``workloads`` module, as a namespace dict."""
    return runpy.run_path(
        str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))


def _corpus_networks(seeds=range(16)):
    """The distinct networks of the benchmark corpus at ``seeds``, each
    built fresh."""
    workloads = _workloads()
    specs = {json.dumps(spec[:2]): spec
             for seed in seeds for spec in workloads["corpus_specs"](seed)}
    return [workloads["build_network"](relaydmt, spec) for spec in specs.values()]


def _bench_networks():
    """The benchmark's five sweep families, each built fresh."""
    return [build(relaydmt) for build in _workloads()["FAMILIES"].values()]


def test_corpus_curves_exist_exactly_where_schedules_do():
    checked = refused = longest_first = 0
    for net in _corpus_networks():
        cls = classify(net)
        if cls.backbone is None and not is_relay_bank(net):
            continue
        try:
            sched = auto_schedule(net)
        except SchedulingError:
            sched = None
        try:
            fam = family_dmt(net)
        except UnsupportedFamilyError:
            fam = None
        if cls.tag == "KPP" and cls.K == 2 and cls.backbone.lengths != tuple(
                sorted(cls.backbone.lengths)):
            # color_kpp_two refuses a longer first path; the curve does not
            assert sched is None and fam is not None
            longest_first += 1
        else:
            assert (sched is None) == (fam is None), cls.label
        if fam is not None:
            assert fam.cutset.points == linear_curve(min_cut(net)).points
        checked += 1
        refused += fam is None
    assert checked > 100 and refused > 0 and longest_first > 0


def _assert_checked(curve):
    # exact breakpoints, and the curve the checking constructor makes of them
    assert all(type(x) is Fraction for point in curve.points for x in point)
    assert curve == DmtCurve(curve.points)


def test_calculus_results_are_checked_curves():
    # the calculus builds its results without re-running the constructor's
    # checks; over the corpus curves, each result must pass them unchanged
    curves = {}
    for net in _corpus_networks(range(4)):
        try:
            fam = family_dmt(net)
        except UnsupportedFamilyError:
            continue
        for curve in (fam.achievable, fam.cutset):
            _assert_checked(curve)
            curves[curve.points] = curve
    assert len(curves) > 10
    for a in curves.values():
        _assert_checked(rate_scale(a, Fraction(3, 2)))
        _assert_checked(linear_curve(a.max_diversity, a.max_diversity / 3))
        for b in curves.values():
            _assert_checked(parallel([a, b]))
            _assert_checked(pointwise_sum(a, b))


# ---------------------------------------------------------------------------
# answers kept on the network

def test_min_cut_and_family_dmt_run_once_per_network(min_cut_runs, family_runs):
    nets = _bench_networks() + _corpus_networks(range(1))
    curved = []
    for net in nets:
        cut = min_cut(net)
        try:
            fam = family_dmt(net)
        except UnsupportedFamilyError:
            continue
        curved.append(net)
        for _ in range(2):
            assert min_cut(net) == cut
            assert family_dmt(net) is fam
    assert len(curved) > 70
    assert min_cut_runs == family_runs == nets


def test_twins_and_expanded_networks_keep_their_own_answers(
        antenna_nets, min_cut_runs, family_runs):
    net = kpp_network((2, 3, 4), direct_link=True)
    twin = net.without_edges([("s", "d"), ("d", "s")])
    assert (min_cut(net), min_cut(twin)) == (4, 3)
    assert family_dmt(net).cutset.max_diversity == 4
    assert family_dmt(twin).cutset.max_diversity == 3
    bare = antenna_nets["bare22"]
    wide = expand_antennas(bare)
    assert family_dmt(bare).achievable == mimo_dmt(2, 2)
    # the expansion realizes the antennas as parallel edges, which the
    # bare-link rule reads as one single-antenna link
    assert family_dmt(wide).achievable == mimo_dmt(1, 1)
    assert (min_cut(bare), min_cut(wide)) == (4, 4)
    assert min_cut_runs == [net, twin, bare, wide]
    assert family_runs == [net, twin, bare, wide]


def test_a_failing_family_dmt_keeps_nothing(antenna_nets, family_runs):
    relays = antenna_nets["layered1221"]
    crossed = kpp_network((3, 4), cross_links=[((1, 1), (2, 1))])
    for net, match in ((relays, "multi-antenna"), (crossed, "three parallel paths")):
        for _ in range(2):
            with pytest.raises(UnsupportedFamilyError, match=match):
                family_dmt(net)
        assert net._family is None
    assert family_runs == [relays, relays, crossed, crossed]


def test_a_failing_min_cut_keeps_nothing(min_cut_runs):
    # the two antennas of r expand to an id another relay already has
    net = Network([Node("s", "source"), Node("r", "relay", 2), Node("r::0", "relay"),
                   Node("d", "sink")],
                  [Edge("s", "r"), Edge("r", "r::0"), Edge("r::0", "d")])
    for _ in range(2):
        with pytest.raises(NetworkError, match="collides"):
            min_cut(net)
    assert min_cut_runs == [net, net]


def test_pipeline_records_match_a_fresh_network():
    workloads = _workloads()
    pipeline, build = workloads["pipeline"], workloads["build_network"]
    rejected = 0
    for spec in workloads["corpus_specs"](0):
        net = build(relaydmt, spec)
        first, again = (pipeline(relaydmt, net, spec[2]) for _ in range(2))
        assert first == again == pipeline(relaydmt, build(relaydmt, spec), spec[2]), spec
        rejected += "rejected" in first
    assert rejected > 0


# ---------------------------------------------------------------------------
# export

def test_curve_rows_and_csv():
    assert curve_rows(linear_curve(2)) == [(0.0, 2.0), (1.0, 0.0)]

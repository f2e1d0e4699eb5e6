"""Tradeoff-curve calculus against a dense-grid minimization oracle.

The oracle discretizes every curve on a 1/1000 grid and runs the
min-plus convolution by brute force. Random inputs keep all breakpoints
on the grid with integer slopes, which makes the greedy combiner and
the grid search agree exactly at grid points.
"""

from fractions import Fraction

import numpy as np
import pytest

from relaydmt import (
    CurveError,
    DmtCurve,
    Edge,
    Network,
    Node,
    UnsupportedFamilyError,
    classify,
    curve_rows,
    family_dmt,
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
# export

def test_curve_rows_and_csv():
    assert curve_rows(linear_curve(2)) == [(0.0, 2.0), (1.0, 0.0)]

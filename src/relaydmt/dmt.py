"""Diversity-multiplexing tradeoff curves and their calculus.

A tradeoff curve d(r) gives the SNR exponent of the outage probability
when the rate grows as r * log(SNR). Every curve here is piecewise
linear, convex and non-increasing, stored as exact Fraction
breakpoints, so compositions (parallel combining, rate scaling,
pointwise sums and maxima) stay exact and curve equality is decidable.
Parallel-path families have their curves read off the schedules that
``auto_schedule`` builds; layered networks keep rules of their own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .netgraph import (
    Network, PathSet, _Dinic, classify, edge_disjoint_paths, min_cut)
from .protocol import Schedule, SchedulingError, _kpp_two, auto_schedule


class CurveError(ValueError):
    """Breakpoints do not describe a convex non-increasing curve."""


class UnsupportedFamilyError(ValueError):
    """No analytic tradeoff is implemented for this network family."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise CurveError(f"breakpoints must be exact, got float {x!r}")
    return Fraction(x)


def _merged(pts):
    """The breakpoints with collinear interior points merged, as a tuple."""
    kept = pts[:1]
    for i in range(1, len(pts) - 1):
        s_prev = (pts[i][1] - kept[-1][1]) / (pts[i][0] - kept[-1][0])
        s_next = (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
        if s_prev != s_next:
            kept.append(pts[i])
    if len(pts) > 1:
        kept.append(pts[-1])
    return tuple(kept)


@dataclass(frozen=True)
class DmtCurve:
    """Convex non-increasing piecewise-linear curve.

    ``points`` is a sorted tuple of (r, d) Fractions. Left of the first
    point the curve is flat at the first d; right of the last point it
    is flat at the last d (normally zero).
    """

    points: tuple

    def __init__(self, points):
        pts = [(_frac(r), _frac(d)) for r, d in points]
        if not pts:
            raise CurveError("need at least one breakpoint")
        pts.sort()
        if any(b[0] == a[0] for a, b in zip(pts, pts[1:])):
            raise CurveError("duplicate multiplexing values")
        if any(r < 0 or d < 0 for r, d in pts):
            raise CurveError("negative breakpoint")
        slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(pts, pts[1:])]
        if any(s > 0 for s in slopes):
            raise CurveError("curve must be non-increasing")
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise CurveError("curve must be convex")
        object.__setattr__(self, "points", _merged(pts))

    @classmethod
    def _built(cls, pts):
        """A curve the calculus built from checked curves: ``pts`` are
        already exact, sorted, distinct in r, non-negative, non-increasing
        and convex, so only collinear interior points are merged."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "points", _merged(pts))
        return curve

    def __call__(self, r) -> Fraction:
        r = Fraction(r)
        pts = self.points
        if r <= pts[0][0]:
            return pts[0][1]
        for (r0, d0), (r1, d1) in zip(pts, pts[1:]):
            if r <= r1:
                return d0 + (d1 - d0) * (r - r0) / (r1 - r0)
        return pts[-1][1]

    @property
    def max_diversity(self) -> Fraction:
        return self.points[0][1]

    @property
    def max_multiplexing(self) -> Fraction:
        """Smallest r with d(r) = 0, or the last breakpoint if d never
        reaches zero."""
        pts = self.points
        if pts[0][1] == 0:
            return pts[0][0]
        for _, (r1, d1) in zip(pts, pts[1:]):
            if d1 == 0:
                return r1
        return pts[-1][0]

    def segments(self):
        """(width, slope) pairs of the finite part."""
        return [((r1 - r0), (d1 - d0) / (r1 - r0))
                for (r0, d0), (r1, d1) in zip(self.points, self.points[1:])]


def linear_curve(diversity, rmax=1) -> DmtCurve:
    """The classical d(r) = diversity * (1 - r/rmax)+ line."""
    diversity, rmax = Fraction(diversity), Fraction(rmax)
    if diversity <= 0 or rmax <= 0:
        raise CurveError("need positive diversity and rate range")
    return DmtCurve._built([(Fraction(0), diversity), (rmax, Fraction(0))])


def mimo_dmt(m, n) -> DmtCurve:
    """Piecewise-linear curve through (k, (m-k)(n-k))."""
    if m < 1 or n < 1:
        raise CurveError("need positive antenna counts")
    return DmtCurve([(k, (m - k) * (n - k)) for k in range(min(m, n) + 1)])


# ---------------------------------------------------------------------------
# curve calculus

def parallel(curves) -> DmtCurve:
    """Tradeoff of independent parallel branches carrying split rate.

    d(r) = inf over r_1 + ... + r_k = r of sum d_i(r_i): the infimal
    convolution, computed by spending rate on the steepest remaining
    segment first. Convexity of the inputs makes the greedy exact.
    """
    curves = list(curves)
    if not curves:
        raise CurveError("need at least one curve")
    d0 = sum(c.points[0][1] for c in curves)
    segs = [s for c in curves for s in c.segments()]
    segs.sort(key=lambda s: s[1])
    pts = [(Fraction(0), d0)]
    r, d = Fraction(0), d0
    for width, slope in segs:
        if slope >= 0:
            break
        r, d = r + width, d + width * slope
        pts.append((r, d))
    return DmtCurve._built(pts)


def parallel_repeated(curves, fractions, total_symbols) -> DmtCurve:
    """Parallel combining when branch i carries a fraction of the
    symbol stream: branch i sees n_i = fractions[i] * total_symbols
    symbols, so its curve stretches to d_i(r / n_i) before combining.
    """
    curves = list(curves)
    fractions = [Fraction(f) for f in fractions]
    if len(curves) != len(fractions):
        raise CurveError("one fraction per curve")
    if sum(fractions) != 1:
        raise CurveError(f"fractions sum to {sum(fractions)}, not 1")
    stretched = []
    for c, f in zip(curves, fractions):
        n = f * total_symbols
        if n.denominator != 1 or n <= 0:
            raise CurveError(f"fraction {f} of {total_symbols} symbols "
                             f"is not a positive whole count")
        stretched.append(DmtCurve([(r * n, d) for r, d in c.points]))
    return parallel(stretched)


def product_parallel(n_coefficients, n_max) -> DmtCurve:
    """Tradeoff of N independent product coefficients when the busiest
    one repeats n_max times: d(r) = (N - r)+ / n_max."""
    N, nm = Fraction(n_coefficients), Fraction(n_max)
    if N <= 0 or nm <= 0:
        raise CurveError("need positive counts")
    return DmtCurve([(0, N / nm), (N, 0)])


def rate_scale(curve: DmtCurve, factor) -> DmtCurve:
    """Account for a schedule spending ``factor`` slots per symbol:
    the result is d(factor * r)."""
    factor = Fraction(factor)
    if factor <= 0:
        raise CurveError("need a positive factor")
    return DmtCurve._built([(r / factor, d) for r, d in curve.points])


def _grid(c1: DmtCurve, c2: DmtCurve):
    rs = sorted({r for r, _ in c1.points} | {r for r, _ in c2.points})
    # insert crossings so pointwise max stays piecewise linear on the grid
    extra = []
    for a, b in zip(rs, rs[1:]):
        fa, fb = c1(a) - c2(a), c1(b) - c2(b)
        if fa * fb < 0:
            # linear in between: crossing at a + t*(b-a)
            t = fa / (fa - fb)
            extra.append(a + t * (b - a))
    return sorted(set(rs) | set(extra))


def pointwise_sum(c1: DmtCurve, c2: DmtCurve) -> DmtCurve:
    rs = sorted({r for r, _ in c1.points} | {r for r, _ in c2.points})
    return DmtCurve._built([(r, c1(r) + c2(r)) for r in rs])


def pointwise_max(c1: DmtCurve, c2: DmtCurve) -> DmtCurve:
    return DmtCurve([(r, max(c1(r), c2(r))) for r in _grid(c1, c2)])


def triangular_lower_bound(diag_curve: DmtCurve, leak_curve: DmtCurve,
                           independent: bool) -> DmtCurve:
    """Combine the diagonal and leakage tradeoffs of a triangular
    channel: with independent coefficient sets an outage needs both
    parts weak and the exponents add; otherwise each part alone is
    still a valid bound, so take the larger.
    """
    if independent:
        return pointwise_sum(diag_curve, leak_curve)
    return pointwise_max(diag_curve, leak_curve)


# ---------------------------------------------------------------------------
# analytic curves per network family

@dataclass(frozen=True)
class FamilyAnalysis:
    label: str
    achievable: DmtCurve
    cutset: DmtCurve
    tight: bool
    notes: tuple = ()


def _layer_hop_sizes(layers):
    return [len(a) * len(b) for a, b in zip(layers, layers[1:])]


def _disjoint_partner_exists(paths):
    """Perfect matching between paths and node-disjoint paths, found as
    a unit-capacity flow: source -> path i -> partner j -> sink."""
    relays = [set(p[1:-1]) for p in paths]
    n = len(paths)
    flow = _Dinic(2 * n + 2)
    s, t = 2 * n, 2 * n + 1
    for i in range(n):
        flow.add_edge(s, i)
        flow.add_edge(n + i, t)
        for j in range(n):
            if not (relays[i] & relays[j]):
                flow.add_edge(i, n + j)
    return flow.max_flow(s, t) == n


def schedule_curve(sched: Schedule) -> DmtCurve:
    """Achievable tradeoff of a schedule over node-disjoint paths: each
    path landing m symbols per N-slot cycle is one fading product, the
    line d = (1 - N r / m)+, and the paths combine in parallel; a direct
    link used in every slot adds a line of diversity one."""
    lines = [linear_curve(k, k * m) for m, k in Counter(sched.path_counts).items() if m]
    curve = rate_scale(parallel(lines), sched.cycle_length)
    if sched.uses_direct_link:
        curve = pointwise_sum(curve, linear_curve(1))
    return curve


def family_dmt(net: Network) -> FamilyAnalysis:
    """Analytic achievable and cut-set curves; ``tight`` marks
    achievable == cutset. A bare link gets the MIMO curve of its
    antennas and the layered families their own rules. Any other network
    is read off the schedule ``auto_schedule`` builds: its
    ``schedule_curve``, against the line of its path count plus the
    direct link. No schedule, or a multi-antenna relay network, is an
    ``UnsupportedFamilyError``.

    The analysis is built once per network and kept on it, as
    ``auto_schedule`` keeps its schedule; a failure is not kept, so it
    raises again on every call. Every caller shares the one frozen
    analysis and its curves."""
    if net._family is None:
        net._family = _family_dmt(net)
    return net._family


def _family_dmt(net):
    cls = classify(net)
    if not net.relays:
        # bare point-to-point link; antennas set the exponent
        curve = mimo_dmt(net.source.antennas, net.sink.antennas)
        return FamilyAnalysis(cls.label, curve, curve, True)

    if any(n.antennas > 1 for n in net.nodes):
        raise UnsupportedFamilyError(
            f"no analytic tradeoff for {cls.label} with multi-antenna nodes")

    if cls.tag == "fully-connected-layered":
        hops = _layer_hop_sizes(cls.layers)
        m_min = min(hops)
        i = hops.index(m_min)
        ach = linear_curve(m_min)
        cut = mimo_dmt(len(cls.layers[i]), len(cls.layers[i + 1]))
        return FamilyAnalysis(cls.label, ach, cut,
                              tight=(ach.points == cut.points))

    if cls.tag == "layered":
        paths = list(edge_disjoint_paths(net))
        cut = min_cut(net)
        if not _disjoint_partner_exists(paths):
            raise UnsupportedFamilyError(
                "no node-disjoint partner assignment among the "
                "edge-disjoint paths")
        curve = linear_curve(cut)
        return FamilyAnalysis(cls.label, curve, curve, True)

    try:
        if cls.tag == "KPP" and cls.K == 2:
            # color_kpp_two wants the shorter of the two paths first
            sched = _kpp_two(PathSet(tuple(sorted(cls.backbone, key=len))))
        else:
            sched = auto_schedule(net)
    except SchedulingError as exc:
        raise UnsupportedFamilyError(
            f"no analytic tradeoff for {cls.label}: {exc}") from exc
    ach = schedule_curve(sched)
    cut = linear_curve(len(sched.path_counts) + sched.uses_direct_link)
    tight = ach.points == cut.points
    note = (f"read off the {sched.cycle_length}-slot schedule of "
            f"{len(sched.path_counts)} paths")
    if sched.uses_direct_link:
        note += " and the direct link"
    if not tight:
        note += "; half-duplex relaying costs multiplexing"
    return FamilyAnalysis(cls.label, ach, cut, tight, (note,))


# ---------------------------------------------------------------------------
# export

def curve_rows(curve: DmtCurve):
    """(r, d) rows of the exact breakpoints, as floats."""
    return [(float(r), float(d)) for r, d in curve.points]

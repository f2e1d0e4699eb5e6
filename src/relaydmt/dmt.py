"""Diversity-multiplexing tradeoff curves and their calculus.

A tradeoff curve d(r) gives the SNR exponent of the outage probability
when the rate grows as r * log(SNR). Every curve here is piecewise
linear, convex and non-increasing, stored as exact Fraction
breakpoints, so compositions (parallel combining, rate scaling,
pointwise sums and maxima) stay exact and curve equality is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .netgraph import (
    Network, _Dinic, classify, edge_disjoint_paths, is_relay_bank, min_cut)


class CurveError(ValueError):
    """Breakpoints do not describe a convex non-increasing curve."""


class UnsupportedFamilyError(ValueError):
    """No analytic tradeoff is implemented for this network family."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise CurveError(f"breakpoints must be exact, got float {x!r}")
    return Fraction(x)


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
        # merge collinear interior points
        kept = pts[:1]
        for i in range(1, len(pts) - 1):
            s_prev = (pts[i][1] - kept[-1][1]) / (pts[i][0] - kept[-1][0])
            s_next = (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
            if s_prev != s_next:
                kept.append(pts[i])
        if len(pts) > 1:
            kept.append(pts[-1])
        object.__setattr__(self, "points", tuple(kept))

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
    return DmtCurve([(0, diversity), (rmax, 0)])


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
    return DmtCurve(pts)


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
    return DmtCurve([(r / factor, d) for r, d in curve.points])


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
    return DmtCurve([(r, c1(r) + c2(r)) for r in rs])


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


def family_dmt(net: Network) -> FamilyAnalysis:
    """Analytic achievable and cut-set curves for the supported
    families; ``tight`` marks achievable == cutset.
    """
    cls = classify(net)
    tag, K = cls.tag, cls.K

    if not net.relays:
        # bare point-to-point link; antennas set the exponent
        curve = mimo_dmt(net.source.antennas, net.sink.antennas)
        return FamilyAnalysis(cls.label, curve, curve, True)

    if is_relay_bank(net) and len(net.relays) <= 2:
        # one or two relays straight off the source: the reference
        # two-hop protocols, not the buffered direct-link operation
        n = len(net.relays)
        window = 2 if n == 1 else 5
        relay_term = rate_scale(linear_curve(n), Fraction(window, window - 1))
        ach = pointwise_sum(linear_curve(1), relay_term)
        return FamilyAnalysis(
            cls.label, ach, mimo_dmt(1, n + 1), False,
            (f"{window}-slot half-duplex relaying; the listen/forward "
             "split costs multiplexing against the cut-set line",))

    if tag == "regular" or (tag in ("KPP", "KPP(I)") and K >= 3):
        curve = linear_curve(K)
        notes = ()
        if tag == "regular":
            notes = ("achievability follows the K-path coloring: K symbols "
                     "per K-slot cycle at any hop count, which only delays "
                     "start-up",)
        return FamilyAnalysis(cls.label, curve, curve, True, notes)

    if tag == "KPP(D)":
        if K < 3:
            raise UnsupportedFamilyError(
                "direct-link analysis needs at least three paths")
        curve = linear_curve(K + 1)
        return FamilyAnalysis(cls.label, curve, curve, True)

    if tag == "KPP" and K == 2:
        n1, n2 = sorted(cls.backbone.lengths)
        if (n1 + n2) % 2 == 0:
            curve = linear_curve(2)
            return FamilyAnalysis(cls.label, curve, curve, True)
        ach = DmtCurve([
            (0, 2),
            (Fraction(n2 - 1, 2 * n2), 1),
            (Fraction(2 * n2 - 1, 2 * n2), 0),
        ])
        return FamilyAnalysis(
            cls.label, ach, linear_curve(2), False,
            ("odd total length caps the schedule rate below one",))

    if tag == "fully-connected-layered":
        hops = _layer_hop_sizes(cls.layers)
        m_min = min(hops)
        i = hops.index(m_min)
        ach = linear_curve(m_min)
        cut = mimo_dmt(len(cls.layers[i]), len(cls.layers[i + 1]))
        return FamilyAnalysis(cls.label, ach, cut,
                              tight=(ach.points == cut.points))

    if tag == "layered":
        paths = list(edge_disjoint_paths(net))
        cut = min_cut(net)
        if not _disjoint_partner_exists(paths):
            raise UnsupportedFamilyError(
                "no node-disjoint partner assignment among the "
                "edge-disjoint paths")
        curve = linear_curve(cut)
        return FamilyAnalysis(cls.label, curve, curve, True)

    raise UnsupportedFamilyError(f"no analytic tradeoff for {cls.label}")


# ---------------------------------------------------------------------------
# export

def curve_rows(curve: DmtCurve):
    """(r, d) rows of the exact breakpoints, as floats."""
    return [(float(r), float(d)) for r, d in curve.points]

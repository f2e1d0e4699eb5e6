"""End-to-end acceptance: ten numbered criteria, one test each.

Each test prints a single "criterion NN: PASS/FAIL" line with the
measured numbers. The slope-reproduction criterion (06) checks the
analytic diversity orders, which are statements about rho -> infinity.
Two-hop amplify-and-forward branch gains |g1 g2|^2 / (1 + |g2|^2) have
near-exponential outage statistics whose log-log slope converges like
d - c/ln(rho), so on a 15-40 dB grid the relay families still sit far
below their order. Criterion 06 therefore measures them on a 100-300 dB
grid with an importance-sampled estimator (draws tilted toward deep
fades, reweighted by the likelihood ratio) against the same target
bands, checks that estimator against plain Monte Carlo at 30-40 dB,
runs a broken schedule as a negative control, and prints the plain
15-40 dB slopes beside the tilted ones so the finite-SNR shortfall
stays visible.
"""

import dataclasses
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from relaydmt import (
    FadingRealization,
    Network,
    Node,
    PathSet,
    PropagationProgram,
    Schedule,
    SimPlan,
    SlopeFit,
    auto_schedule,
    backflow_check,
    color_kpp_general,
    color_kpp_three,
    color_kpp_two,
    expand_antennas,
    extract_blocks,
    family_dmt,
    forward_paths,
    kpp_network,
    layer_partner_map,
    layered_network,
    linear_curve,
    min_cut,
    naf_network,
    naf_schedule,
    outage_sweep,
    parallel,
    parallel_repeated,
    product_parallel,
    propagate,
    rate_scale,
    saf_network,
    saf_schedule,
    single_link_network,
    single_link_schedule,
    triangular_lower_bound,
    validate_orthogonal,
    whitening_check,
)
from relaydmt.montecarlo import _block_sv2, _row_blocks, _thresholds

from test_dmt import GRID, dense_min_plus, random_grid_curve
from test_netgraph import augmenting_flow, expand_by_hand, random_dag


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_c01_rate_split_combiners_match_dense_grid():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        curves = [random_grid_curve(rng)
                  for _ in range(int(rng.integers(2, 5)))]
        grid = dense_min_plus(curves)
        combined = parallel(curves)
        for k in rng.integers(0, len(grid), size=40):
            worst = max(worst, abs(float(combined(Fraction(int(k), GRID)))
                                   - grid[int(k)]))
    for _ in range(20):
        k = int(rng.integers(2, 4))
        curves = [random_grid_curve(rng) for _ in range(k)]
        counts = [int(rng.integers(1, 4)) for _ in range(k)]
        total = sum(counts)
        combined = parallel_repeated(
            curves, [Fraction(n, total) for n in counts], total)
        stretched = [type(c)([(r * n, d) for r, d in c.points])
                     for c, n in zip(curves, counts)]
        grid = dense_min_plus(stretched)
        for k in rng.integers(0, len(grid), size=40):
            worst = max(worst, abs(float(combined(Fraction(int(k), GRID)))
                                   - grid[int(k)]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(1, ok, f"worst gap {worst:.2e} over 40 instances, "
                         f"{elapsed:.2f} s"), worst


def composed_tradeoff(net, sched):
    """Tradeoff of a triangular channel rebuilt from its propagated
    structure: the thread coefficient repeated over every row, plus the
    distinct leakage coefficients with their own use counts."""
    fading = FadingRealization.sample(net, 17)
    model = propagate(net, sched, fading, cycles=1)
    h_diag, h_rest, independent = extract_blocks(model)
    thread_uses = int((np.abs(h_diag) > 0).sum())

    groups = []
    scale = np.abs(model.h).max()
    for v in h_rest[np.abs(h_rest) > 1e-12 * scale]:
        for g in groups:
            if abs(v - g[0]) <= 1e-9 * abs(v):
                g[1] += 1
                break
        else:
            groups.append([v, 1])
    diag_curve = linear_curve(1, rmax=thread_uses)
    leak_curve = parallel([linear_curve(1, rmax=n) for _, n in groups])
    bound = triangular_lower_bound(diag_curve, leak_curve, independent)
    return rate_scale(bound, model.total_slots)


def test_c02_composite_curves_from_channel_structure():
    naf = composed_tradeoff(naf_network(), naf_schedule(naf_network()))
    naf_want = ((0, 2), (Fraction(1, 2), Fraction(1, 2)), (1, 0))
    saf = composed_tradeoff(saf_network(2), saf_schedule(saf_network(2)))
    saf_want = ((0, 3), (Fraction(4, 5), Fraction(1, 5)), (1, 0))
    ok = naf.points == naf_want and saf.points == saf_want
    assert report(2, ok, f"two-slot {naf.points}, five-slot {saf.points}"), \
        (naf.points, saf.points)


def test_c03_two_slot_channel_closed_form_exact():
    net = naf_network()
    sched = naf_schedule(net)
    worst = 0.0
    for seed in range(100):
        fading = FadingRealization.sample(net, seed)
        a = fading.gains[("s", "r1")]
        b = fading.gains[("r1", "d")]
        g = fading.gains[("s", "d")]
        model = propagate(net, sched, fading, cycles=1)
        want_h = np.array([[g, 0.0], [a * b, g]])
        want_s = np.array([[1.0, 0.0], [0.0, 1.0 + abs(b) ** 2]])
        worst = max(worst,
                    np.abs(model.h - want_h).max() / np.abs(want_h).max(),
                    np.abs(model.sigma - want_s).max() / np.abs(want_s).max())
    ok = worst <= 1e-12
    assert report(3, ok, f"largest relative deviation {worst:.2e} "
                         "over 100 fadings"), worst


def test_c04_synthesized_colorings_are_clean_rate_one():
    rng = random.Random(20240804)
    bad = []
    for _ in range(50):
        k = rng.randint(3, 6)
        lengths = tuple(rng.randint(2, 8) for _ in range(k))
        net = kpp_network(lengths)
        sched = (color_kpp_three(net) if k == 3
                 else color_kpp_general(net))
        rep = validate_orthogonal(net, sched)
        if not rep.ok or rep.rate != 1:
            bad.append((lengths, rep.rate))

    two_path_bad = []
    for n1 in range(2, 11):
        for n2 in range(n1, 11):
            net = kpp_network((n1, n2))
            rep = validate_orthogonal(net, color_kpp_two(net))
            want = 1 if (n1 + n2) % 2 == 0 else Fraction(2 * n2 - 1, 2 * n2)
            if not rep.ok or rep.rate != want:
                two_path_bad.append((n1, n2, rep.rate))
    ok = not bad and not two_path_bad
    assert report(4, ok, f"50 random multi-path cases, 45 two-path cases; "
                         f"offenders {bad + two_path_bad or 'none'}"), \
        (bad, two_path_bad)


def test_c05_min_cut_agrees_with_independent_flow_search():
    rng = random.Random(20240805)
    mismatches = 0
    for _ in range(100):
        net = random_dag(rng)
        arcs = [(e.tail, e.head) for e in net.edges]
        if min_cut(net) != augmenting_flow(arcs, "s", "d"):
            mismatches += 1

    bases = [kpp_network((2, 3, 4)), kpp_network((2, 2), direct_link=True),
             layered_network((1, 2, 2, 1)), saf_network(3)]
    for i in range(20):
        base = bases[i % len(bases)]
        nodes = [Node(n.id, n.role, rng.randint(1, 3), n.duplex)
                 for n in base.nodes]
        net = Network(nodes, list(base.edges))
        lib = min_cut(net)
        oracle = augmenting_flow(expand_by_hand(net), "s", "d")
        relib = min_cut(expand_antennas(net))
        if not (lib == oracle == relib):
            mismatches += 1
    ok = mismatches == 0
    assert report(5, ok, f"100 random graphs + 20 multi-antenna expansions, "
                         f"{mismatches} mismatches"), mismatches


# ---------------------------------------------------------------------------

SNR_GRID = (15, 20, 25, 30, 35, 40)
TRIALS = 100_000
CYCLES = 4
HIGH_SNR_GRID = (100, 140, 180, 220, 260, 300)
TILTED_TRIALS = 20_000
TILTED_BATCH = 2_000
NOMINAL_SHARE = 0.2       # defensive weight on the unbiased law
CROSS_CHECK_SNR = (30, 35, 40)
CROSS_CHECK_TRIALS = 50_000


def _sweep(net, sched, rates, fit_points=4):
    plan = SimPlan(snr_db=SNR_GRID, rates=rates, trials=TRIALS, seed=0,
                   cycles=CYCLES, fit_points=fit_points)
    return outage_sweep(net, sched, plan)


def _mixture_gains(rng, n_edges, tilted_edges, batch, lam):
    """Edge gains for the tilted sampler, plus each draw's log
    likelihood ratio log prod p(x_e) / q(x_e) over the tilted edges.

    Every edge first gets a nominal draw |g|^2 = x ~ Exp(1). On a
    tilted edge, a draw that lands in the fade region (0, 1] is
    replaced, with probability 1 - NOMINAL_SHARE, by x = U^(1/lam),
    whose density there is lam x^(lam - 1). With lam = 2 / ln(rho) the
    exponent -ln x / ln rho of that draw is Exp(2), which covers the
    deep fades that carry the outage probability at SNR rho. Draws
    above 1 keep the nominal law and weight 1, so the weight of one
    edge never exceeds 1 / NOMINAL_SHARE. Draws stay in the log domain
    because x underflows at the top of the grid.
    """
    a = NOMINAL_SHARE
    log_x = np.log(rng.standard_exponential((n_edges, batch)))
    t = log_x[tilted_edges]
    fade = t <= 0.0
    swap = fade & (rng.random(t.shape) >= a)
    t = np.where(swap, -rng.standard_exponential(t.shape) / lam, t)
    log_x[tilted_edges] = t

    x = np.exp(t)
    log_q = np.logaddexp(math.log(a) - x,
                         math.log((1 - a) * (1 - math.exp(-1.0)) * lam)
                         + (lam - 1.0) * t)
    log_w = np.where(fade, -x - log_q, 0.0).sum(axis=0)

    phase = rng.uniform(0.0, 2.0 * math.pi, (n_edges, batch))
    return np.exp(log_x / 2.0 + 1j * phase), log_w


def _tilted_outage(net, sched, rates, snr_db, seed, trials=TILTED_TRIALS):
    """Importance-sampled outage probability per (snr_db, rate).

    Only the draws and their weights differ from ``outage_sweep``: the
    channel comes from the same ``PropagationProgram``, is scored by the
    same block-wise whitened spectrum (``row_values`` through
    ``_row_blocks`` and ``_block_sv2``) and compared with the same
    thresholds.
    Returns (estimate, standard error, outage events under the
    proposal) per cell.
    """
    plan = SimPlan(snr_db=snr_db, rates=rates, cycles=CYCLES)
    prog = PropagationProgram(net, sched, CYCLES)
    thr = _thresholds(plan, sched, len(prog.kept_rows))
    blocks = _row_blocks(prog)
    tilted_edges = sorted(prog.edge_index[e] for e in sched.activations)
    out = {}
    for db in snr_db:
        rho = 10.0 ** (db / 10.0)
        lam = min(1.0, 2.0 / math.log(rho))
        rng = np.random.default_rng([seed, db])
        sums = {r: np.zeros(3) for r in rates}
        for start in range(0, trials, TILTED_BATCH):
            b = min(TILTED_BATCH, trials - start)
            gains, log_w = _mixture_gains(rng, prog.n_edges, tilted_edges,
                                          b, lam)
            sv2 = _block_sv2(prog.row_values(gains), blocks, True)
            bits = np.log2(1.0 + rho * sv2).sum(axis=1)
            w = np.exp(log_w)
            for r in rates:
                hit = bits < thr[(db, r)]
                sums[r] += (hit.sum(), w[hit].sum(), (w[hit] ** 2).sum())
        for r in rates:
            events, s1, s2 = sums[r]
            p = s1 / trials
            var = max(s2 / trials - p * p, 0.0) / (trials - 1)
            out[(db, r)] = (p, math.sqrt(var), int(events))
    return out


def _tilted_slope(cells, rate):
    """Least-squares slope of log10 P against log10 rho over the whole
    high-SNR grid, with the delta-method uncertainty of each point
    pushed through the fit."""
    snr_db, floor = HIGH_SNR_GRID, SimPlan.count_floor
    low = [db for db in snr_db if cells[(db, rate)][2] < floor]
    if low:
        return SlopeFit(None, None, (), None,
                        f"fewer than {floor} outage events at {low} dB")
    xs = np.array([db / 10.0 for db in snr_db])
    ys = np.array([math.log10(cells[(db, rate)][0]) for db in snr_db])
    hs = np.array([cells[(db, rate)][1] / (cells[(db, rate)][0] * math.log(10))
                   for db in snr_db])
    xm, ym = xs.mean(), ys.mean()
    sxx = ((xs - xm) ** 2).sum()
    b = float(((xs - xm) * (ys - ym)).sum() / sxx)
    spread = math.sqrt(float((((xs - xm) / sxx) ** 2 * hs**2).sum()))
    return SlopeFit(-b, float(ym - b * xm), tuple(snr_db), spread)


def _band(fit, target, tol):
    if fit.slope is None:
        return False, f"undefined ({fit.note})"
    ok = abs(fit.slope - target) <= tol
    return ok, (f"{fit.slope:.3f}+-{fit.uncertainty:.3f} vs "
                f"{target:.3g}+-{tol} over {fit.snrs_used}")


def _plain(fit):
    if fit.slope is None:
        return f"plain 15-40 dB: undefined ({fit.note})"
    return (f"plain 15-40 dB: {fit.slope:.3f}+-{fit.uncertainty:.3f} "
            f"over {fit.snrs_used}")


def _c06_parts(seed=0):
    """Every check of criterion 06 as (tag, ok, text) triples; the
    tilted sampler's stream is pinned by ``seed``."""
    parts = []

    def target(net, r):
        return float(family_dmt(net).achievable(r))

    net = single_link_network()
    fit = _sweep(net, single_link_schedule(net), (0.0,)).slopes[0.0]
    parts.append(("a", *_band(fit, target(net, 0.0), 0.15)))

    cases = [
        ("b", kpp_network((2, 2)), (0.1,), 0.3, 4),
        ("c", kpp_network((2, 3, 4)), (0.25, 0.5), 0.35, 4),
        ("d", kpp_network((2, 3, 4, 2), direct_link=True), (0.25,), 0.5, 3),
    ]
    plain_c = None
    for tag, net, rates, tol, fit_points in cases:
        sched = auto_schedule(net)
        plain = _sweep(net, sched, rates, fit_points)
        tilted = _tilted_outage(net, sched, rates, HIGH_SNR_GRID, seed)
        for r in rates:
            ok, text = _band(_tilted_slope(tilted, r), target(net, r), tol)
            parts.append((f"{tag} r={r}", ok,
                          f"{text} ({_plain(plain.slopes[r])})"))
        if tag == "c":
            plain_c = (net, sched, plain)

    # negative control: path 3 never hears the source, so the schedule
    # delivers order 2 - 3r and must miss the 3(1 - r) bands
    net, sched, plain = plain_c
    acts = {e: s for e, s in sched.activations.items() if e != ("s", "p3r1")}
    broken = dataclasses.replace(sched, activations=acts)
    tilted = _tilted_outage(net, broken, (0.25, 0.5), HIGH_SNR_GRID, seed)
    for r in (0.25, 0.5):
        fit = _tilted_slope(tilted, r)
        inside, text = _band(fit, target(net, r), 0.35)
        parts.append((f"control r={r}", fit.slope is not None and not inside,
                      f"{text}, must miss"))

    # cross-check: where plain Monte Carlo sees events, the tilted
    # estimate agrees with it; the larger draw count keeps the tilted
    # error well below the plain sweep's own
    tilted = _tilted_outage(net, sched, (0.25, 0.5), CROSS_CHECK_SNR, seed,
                            CROSS_CHECK_TRIALS)
    worst, compared = 0.0, 0
    for (db, r), (p, se, _) in tilted.items():
        est = plain.estimate(db, r)
        if est.outages < plain.plan.count_floor:
            continue
        q = est.prob
        joint = math.sqrt(se**2 + q * (1 - q) / est.trials)
        worst = max(worst, abs(p - q) / joint)
        compared += 1
    parts.append(("cross-check", compared > 0 and worst <= 3.0,
                  f"{compared} cells at {CROSS_CHECK_SNR} dB, worst gap "
                  f"{worst:.2f} combined standard errors"))
    return parts


def test_c06_outage_slopes_reach_analytic_diversity():
    parts = _c06_parts()
    detail = "; ".join(f"{tag}: {txt}" for tag, _, txt in parts)
    ok = all(good for _, good, _ in parts)
    assert report(6, ok, detail), (
        "an outage slope missed the analytic order (single link on the "
        "plain grid, relay families on the tilted 100-300 dB grid), the "
        "broken-schedule control landed inside a band, or the tilted "
        "and plain estimates disagree at 30-40 dB; see the printed line")


def test_c07_noise_whitening_does_not_move_slopes():
    # low grid on purpose: amplified-noise correction is largest there,
    # and outage counts stay above the fit floor at this trial budget
    plan = SimPlan(snr_db=(5, 10, 15, 20, 25), rates=(0.0,), trials=10_000,
                   seed=0, cycles=4)
    gaps = {}
    for name, net, sched in [
        ("two-slot", naf_network(), naf_schedule(naf_network())),
        ("five-slot", saf_network(2), saf_schedule(saf_network(2))),
    ]:
        pair = whitening_check(net, sched, plan)
        gaps[name] = pair.slope_gap(0.0)
    ok = all(g is not None and g < 0.2 for g in gaps.values())
    assert report(7, ok, "slope gaps " + ", ".join(
        f"{k}={v if v is None else round(v, 4)}" for k, v in gaps.items())), gaps


def _overlapping_three_path_coloring():
    """Legal rate-1 coloring of three two-relay paths in which every
    first relay listens while its downstream relay talks."""
    paths = tuple(("s", f"p{i}r1", f"p{i}r2", "d") for i in (1, 2, 3))
    colors = [(0, 1, 0), (1, 2, 1), (2, 0, 2)]
    activations = {}
    deliveries = {}
    for i, path in enumerate(paths):
        for (t, h), c in zip(zip(path, path[1:]), colors[i]):
            activations[(t, h)] = frozenset({c})
        deliveries[colors[i][-1]] = i
    return Schedule(
        cycle_length=3,
        activations=activations,
        backbone=PathSet(paths),
        path_counts=(1, 1, 1),
        symbols_per_cycle=3,
        steady_state_delay=6,
        deliveries=deliveries,
    )


def test_c08_backflow_leakage_leaves_the_slope_alone():
    net = kpp_network((3, 3, 3))
    sched = _overlapping_three_path_coloring()
    rep = validate_orthogonal(net, sched)
    assert rep.ok and rep.rate == 1
    assert rep.backflow_nodes, "the coloring must actually overlap"

    plan = SimPlan(snr_db=(10, 15, 20, 25, 30), rates=(0.2,), trials=10_000,
                   seed=0, cycles=4)
    gap = backflow_check(net, sched, plan).slope_gap(0.2)
    ok = gap is not None and gap < 0.25
    assert report(8, ok, f"slope gap {gap if gap is None else round(gap, 4)} "
                         f"with back-flow at {', '.join(rep.backflow_nodes)}"), gap


def _random_banded_triangular(rng):
    """Block lower triangular draw: square diagonal blocks plus a random
    set of populated sub-diagonal bands. Returns (H, diagonal part,
    furthest populated band)."""
    n_blocks = int(rng.integers(2, 5))
    sizes = rng.integers(1, 3, size=n_blocks)
    edges = np.concatenate([[0], np.cumsum(sizes)])
    m = int(edges[-1])
    n_bands = int(rng.integers(1, n_blocks))
    offsets = rng.choice(np.arange(1, n_blocks), size=n_bands, replace=False)

    def draw(rows, cols):
        return (rng.standard_normal((rows, cols))
                + 1j * rng.standard_normal((rows, cols)))

    h = np.zeros((m, m), dtype=complex)
    h_d = np.zeros_like(h)
    h_l = np.zeros_like(h)
    for j in range(n_blocks):
        blk = draw(int(sizes[j]), int(sizes[j]))
        h[edges[j]:edges[j + 1], edges[j]:edges[j + 1]] = blk
        h_d[edges[j]:edges[j + 1], edges[j]:edges[j + 1]] = blk
    last = int(offsets.max())
    for k in offsets:
        for j in range(n_blocks - int(k)):
            blk = draw(int(sizes[j + k]), int(sizes[j]))
            h[edges[j + k]:edges[j + k + 1], edges[j]:edges[j + 1]] = blk
            if k == last:
                h_l[edges[j + k]:edges[j + k + 1],
                    edges[j]:edges[j + 1]] = blk
    return h, h_d, h_l


def test_c09_triangular_determinant_inequality_never_violated():
    rng = np.random.default_rng(20240809)
    violations = 0
    for i in range(1000):
        if i % 2:
            h, h_d, h_l = _random_banded_triangular(rng)
        else:
            # dense scalar case: the furthest band is the corner entry
            n = 2 + (i // 2) % 5
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = np.tril(a)
            h_d = np.diag(np.diag(a))
            h_l = np.zeros_like(h)
            h_l[n - 1, 0] = h[n - 1, 0]
        m = h.shape[0]
        for rho in (10.0, 100.0, 1000.0, 10000.0):
            full = np.linalg.slogdet(np.eye(m) + rho * h @ h.conj().T)[1]
            for part in (h_d, h_l):
                bound = np.linalg.slogdet(
                    np.eye(m) + rho * part @ part.conj().T)[1]
                if full < bound - 1e-9 * max(1.0, abs(bound)):
                    violations += 1
    ok = violations == 0
    assert report(9, ok, f"{violations} violations over 1000 realizations "
                         "x 4 SNRs x 2 sub-blocks"), violations


def test_c10_layer_pairing_and_coefficient_count_match_the_cut():
    bad = []
    for L in range(1, 5):
        for sizes in itertools.product((2, 3, 4), repeat=L):
            net = layered_network((1, *sizes, 1))
            pset = forward_paths(net)
            partner = layer_partner_map(pset, sizes)
            fixed = [p for p, q in partner.items() if p == q]
            overlap = [p for p, q in partner.items()
                       if set(p[1:-1]) & set(q[1:-1])]
            bijective = len(set(partner.values())) == len(pset)
            multiplicity = Counter(
                pair for p in pset for pair in zip(p, p[1:]))
            n_max = max(multiplicity.values())
            flat = product_parallel(len(pset), n_max)(0)
            if fixed or overlap or not bijective or flat != min_cut(net):
                bad.append((1, *sizes, 1))
    ok = not bad
    assert report(10, ok, f"120 layered profiles, offenders {bad or 'none'}"), bad

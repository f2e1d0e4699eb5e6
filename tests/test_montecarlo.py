"""Outage estimation: information oracle, slope fitting, sweep behavior.

Statistical assertions use wide bands and fixed seeds; the sharp checks
are the deterministic ones (reproducibility, monotonicity in rate and
SNR, whitened-versus-identity ordering).
"""

import math
import tracemalloc

import numpy as np
import pytest

from relaydmt import (
    Edge,
    FadingRealization,
    Network,
    Node,
    OutageEstimate,
    PropagationError,
    PropagationProgram,
    Schedule,
    SimPlan,
    auto_schedule,
    backflow_check,
    color_kpp_three,
    fit_slope,
    kpp_network,
    layered_network,
    mutual_info,
    naf_network,
    naf_schedule,
    outage_sweep,
    propagate,
    saf_network,
    single_link_network,
    single_link_schedule,
    whitening_check,
)
from relaydmt.montecarlo import (
    _block_sv2,
    _draw_gains,
    _row_blocks,
    _thresholds,
)


def det_information(h, snr, sigma=None):
    # direct determinant evaluation, no whitening factorization
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    sigma = np.eye(n) if sigma is None else np.asarray(sigma)
    m = np.eye(n) + snr * np.linalg.inv(sigma) @ h @ h.conj().T
    return float(np.log2(np.linalg.det(m).real))


def test_mutual_info_matches_determinant():
    rng = np.random.default_rng(5)
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 4), (5, 5)]:
        h = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        sigma = np.eye(rows) + a @ a.conj().T
        for snr in (1.0, 100.0, 1e4):
            assert mutual_info(h, snr) == pytest.approx(
                det_information(h, snr), rel=1e-9)
            assert mutual_info(h, snr, sigma) == pytest.approx(
                det_information(h, snr, sigma), rel=1e-9)


def test_mutual_info_scalar_and_model():
    g = 0.3 - 0.4j
    assert mutual_info([[g]], 100.0) == pytest.approx(
        math.log2(1 + 100.0 * 0.25), rel=1e-12)
    assert mutual_info([[g]], 100.0, [[2.0]]) == pytest.approx(
        math.log2(1 + 50.0 * 0.25), rel=1e-12)

    net = naf_network()
    model = propagate(net, naf_schedule(net), FadingRealization.sample(net, 3))
    assert mutual_info(model, 10.0) == pytest.approx(
        det_information(model.h, 10.0, model.sigma), rel=1e-9)
    # explicit covariance overrides the model's own
    ident = np.eye(model.n_rows)
    assert mutual_info(model, 10.0, ident) == pytest.approx(
        det_information(model.h, 10.0), rel=1e-9)


# ---------------------------------------------------------------------------
# slope fitting

def mk_estimates(counts, trials, dbs=(10, 20, 30, 40)):
    return [OutageEstimate(db, 0.0, c, trials) for db, c in zip(dbs, counts)]


def test_fit_slope_recovers_exact_power_law():
    # P = 1 / rho^2 exactly on the grid
    fit = fit_slope(mk_estimates([1_000_000, 10_000, 100], 100_000_000,
                                 dbs=(10, 20, 30)))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.snrs_used == (10, 20, 30)
    assert fit.uncertainty > 0


def test_fit_slope_count_floor_drops_sparse_points():
    fit = fit_slope(mk_estimates([10_000, 1_000, 100, 10], 1_000_000))
    assert fit.snrs_used == (10, 20, 30)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)

    # floor relaxed: the 40 dB point joins and the fit stays exact
    fit = fit_slope(mk_estimates([10_000, 1_000, 100, 10], 1_000_000),
                    count_floor=10)
    assert fit.snrs_used == (10, 20, 30, 40)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_uses_top_points_only():
    # shallow decay at the bottom, slope 3 across the top two points
    counts = [316_228, 100_000, 10_000, 10]
    fit = fit_slope(mk_estimates(counts, 10_000_000), count_floor=5,
                    fit_points=2)
    assert fit.snrs_used == (30, 40)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)


def test_fit_slope_needs_two_points():
    fit = fit_slope(mk_estimates([40, 3, 2, 0], 1000))
    assert fit.slope is None and fit.intercept is None
    assert "grid points" in fit.note
    assert fit.snrs_used == ()

    with_zero = fit_slope(mk_estimates([400, 40, 0, 0], 1000))
    assert with_zero.snrs_used == (10, 20)
    assert with_zero.slope is not None


def test_wilson_interval_reference_values():
    # standard 95% Wilson interval for 10 successes in 100
    lo, hi = OutageEstimate(10, 0.0, 10, 100).wilson()
    assert lo == pytest.approx(0.0552, abs=2e-4)
    assert hi == pytest.approx(0.1744, abs=2e-4)
    lo, hi = OutageEstimate(10, 0.0, 0, 50).wilson()
    assert lo == 0.0
    assert hi == pytest.approx(0.0713, abs=2e-4)
    assert OutageEstimate(10, 0.0, 25, 1000).prob == 0.025


# ---------------------------------------------------------------------------
# sweeps

def small_plan(**kw):
    base = dict(snr_db=(10, 15, 20), rates=(0.0,), trials=768, batch=256,
                seed=7, cycles=4)
    base.update(kw)
    return SimPlan(**base)


def test_threshold_rules():
    net = naf_network()
    sched = naf_schedule(net)
    plan = small_plan(snr_db=(20,), rates=(0.0, 0.5))
    thr = _thresholds(plan, sched, 8)
    assert thr[(20, 0.0)] == 8.0
    # 4 cycles x 2 symbols at half of log2(100) bits each
    assert thr[(20, 0.5)] == pytest.approx(4 * 2 * 0.5 * math.log2(100.0))


def test_sweep_is_reproducible():
    net = naf_network()
    sched = naf_schedule(net)
    plan = small_plan(rates=(0.0, 0.4))
    a = outage_sweep(net, sched, plan)
    b = outage_sweep(net, sched, plan)
    assert a.estimates == b.estimates
    assert a.slopes == b.slopes
    assert a.total_slots == 8 and a.n_symbols == 8

    shifted = outage_sweep(net, sched, small_plan(rates=(0.0, 0.4), seed=8))
    assert any(a.estimates[k].outages != shifted.estimates[k].outages
               for k in a.estimates)


def test_outage_monotone_in_snr_and_rate():
    net = naf_network()
    sched = naf_schedule(net)
    # fixed zero rate: bits grow with SNR against a fixed target
    res = outage_sweep(net, sched, small_plan(snr_db=(5, 10, 15, 20, 25)))
    probs = [res.estimate(db, 0.0).prob for db in (5, 10, 15, 20, 25)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))

    # fixed draws, growing rate target
    res = outage_sweep(net, sched, small_plan(rates=(0.1, 0.3, 0.5)))
    for db in (10, 15, 20):
        by_rate = [res.estimate(db, r).prob for r in (0.1, 0.3, 0.5)]
        assert by_rate == sorted(by_rate)


def test_single_link_slope_near_one():
    net = single_link_network()
    plan = SimPlan(snr_db=(10, 15, 20, 25, 30), rates=(0.0,), trials=30_000,
                   seed=11, cycles=4)
    res = outage_sweep(net, single_link_schedule(net), plan)
    fit = res.slopes[0.0]
    assert fit.slope == pytest.approx(1.0, abs=0.2)
    assert fit.uncertainty < 0.2


def test_whitening_check_orders_outages():
    # the true covariance dominates the identity, so whitened mutual
    # information is lower and whitened outage counts can only be larger
    net = naf_network()
    pair = whitening_check(net, naf_schedule(net), small_plan(rates=(0.0, 0.3)))
    for key, est_w in pair.first.estimates.items():
        assert est_w.outages >= pair.second.estimates[key].outages
    assert any(est.outages > 0 for est in pair.first.estimates.values())


def test_backflow_check_clean_coloring_is_exactly_neutral():
    # the coloring never listens while a downstream relay talks, so
    # removing the reverse edges changes nothing, draw for draw
    net = kpp_network((2, 2, 2))
    sched = color_kpp_three(net)
    pair = backflow_check(net, sched, small_plan(rates=(0.0, 0.4)))
    for key, est in pair.first.estimates.items():
        assert est.outages == pair.second.estimates[key].outages
    gap = pair.slope_gap(0.0)
    assert gap is None or gap == 0.0


@pytest.mark.parametrize("net", [
    kpp_network((2, 3, 4)),
    kpp_network((2, 3, 4, 2), direct_link=True),
], ids=["kpp234", "kppD2342"])
def test_paired_checks_share_the_sweep_draws(net):
    # 700 trials end on a short batch of 188 draws, cut from a full one
    sched = auto_schedule(net)
    plan = small_plan(snr_db=(10, 20, 30), rates=(0.0, 0.5), trials=700)
    plain = outage_sweep(net, sched, plan)
    for pair in (whitening_check(net, sched, plan),
                 backflow_check(net, sched, plan)):
        assert pair.first.estimates == plain.estimates
        assert pair.first.slopes == plain.slopes


def test_backflow_check_needs_backbone():
    net = naf_network()
    sched = naf_schedule(net)
    bare = type(sched)(cycle_length=sched.cycle_length,
                       activations=sched.activations,
                       symbols_per_cycle=sched.symbols_per_cycle)
    with pytest.raises(ValueError, match="path decomposition"):
        backflow_check(net, bare, small_plan())


# ---------------------------------------------------------------------------
# block-wise scoring against the dense spectrum

SCORED = {
    "single": single_link_network,
    "kpp234": lambda: kpp_network((2, 3, 4)),
    "kppD2342": lambda: kpp_network((2, 3, 4, 2), direct_link=True),
    "layered12221": lambda: layered_network((1, 2, 2, 2, 1)),
    "kppI4": lambda: kpp_network((2, 3, 3, 4), cross_links=[((1, 1), (2, 1))]),
    "kpp45": lambda: kpp_network((4, 5)),
    "saf3": lambda: saf_network(3),
    "naf": naf_network,
}
SCORED_DB = (10, 15, 20, 25, 30, 35, 40)
# KPP(4,5) back-flow gains grow with the window: at 4 cycles I + G G^H is
# not positive definite in floating point, and at 2 both scorers miss a
# 50-digit reference by 1e-4 to 1e-3 of the bits. At 1 cycle forming
# I + G G^H in double still costs both 1e-8 against that reference, so
# the two can only be held to each other at 1e-9 on the whitened arm.
SCORED_CYCLES = {"kpp45": 1}
WHITENED_RTOL = {"kpp45": 1e-9}


def _bits(sv2):
    return np.array([np.log2(1.0 + 10.0 ** (db / 10.0) * sv2).sum(axis=1)
                     for db in SCORED_DB])


def _batched_whitened_sv(h, g):
    rows = h.shape[1]
    sigma = np.eye(rows) + g @ np.conj(np.swapaxes(g, 1, 2))
    L = np.linalg.cholesky(sigma)
    return np.linalg.svd(np.linalg.solve(L, h), compute_uv=False)


def _dense_sv2(h, g, whiten):
    s = _batched_whitened_sv(h, g) if whiten else np.linalg.svd(h, compute_uv=False)
    return s**2


@pytest.mark.parametrize("family", sorted(SCORED))
def test_block_scoring_matches_dense_spectrum(family):
    net = SCORED[family]()
    prog = PropagationProgram(net, auto_schedule(net), SCORED_CYCLES.get(family, 4))
    gains = _draw_gains(np.random.default_rng(3), prog.n_edges, 16)
    h, g = prog.run(gains)
    vals, blocks = prog.row_values(gains), _row_blocks(prog)
    for whiten in (True, False):
        rtol = WHITENED_RTOL.get(family, 1e-12) if whiten else 1e-12
        np.testing.assert_allclose(_bits(_block_sv2(vals, blocks, whiten)),
                                   _bits(_dense_sv2(h, g, whiten)), rtol=rtol)


def _gathered_sv2(h, g, blocks, whiten):
    """The block scorer fed from dense ``run`` output instead of row values."""
    out = [np.zeros((h.shape[0], 0))]
    for rows, h_cols, g_cols, _, _ in blocks:
        hb = h[:, rows[:, :, None], h_cols[:, None, :]]      # (batch, m, r, nh)
        gb = g[:, rows[:, :, None], g_cols[:, None, :]]
        if rows.shape[1] == 1:
            sv2 = (hb.real**2 + hb.imag**2).sum(axis=(2, 3))
            if whiten:
                sv2 = sv2 / (1.0 + (gb.real**2 + gb.imag**2).sum(axis=(2, 3)))
        else:
            if whiten:
                sigma = gb @ np.conj(np.swapaxes(gb, -1, -2)) + np.eye(rows.shape[1])
                hb = np.linalg.solve(np.linalg.cholesky(sigma), hb)
            sv2 = np.linalg.svd(hb, compute_uv=False) ** 2
        out.append(sv2.reshape(len(sv2), -1))
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("family", sorted(SCORED))
def test_compact_scoring_is_bit_identical_to_dense_gather(family):
    net = SCORED[family]()
    prog = PropagationProgram(net, auto_schedule(net), SCORED_CYCLES.get(family, 4))
    gains = _draw_gains(np.random.default_rng(4), prog.n_edges, 16)
    h, g = prog.run(gains)
    vals, blocks = prog.row_values(gains), _row_blocks(prog)
    for whiten in (True, False):
        assert np.array_equal(_block_sv2(vals, blocks, whiten),
                              _gathered_sv2(h, g, blocks, whiten))


def test_kpp45_unwhitenable_covariance_is_a_library_error():
    # at 4 cycles KPP(4,5) back-flow gains reach 1e9 and I + G G^H loses
    # its identity in double; the sweep must say so in its own terms
    net = kpp_network((4, 5))
    with pytest.raises(PropagationError, match="not positive definite.*fewer cycles"):
        outage_sweep(net, auto_schedule(net), SimPlan(trials=256, seed=0))


def test_mutual_info_on_unwhitenable_model_is_a_library_error():
    # seed 18 drives max|G| to 3.9e13 at 4 cycles; mutual_info factors
    # sigma with the sweeps' routine and reports it the same way
    net = kpp_network((4, 5))
    model = propagate(net, auto_schedule(net), FadingRealization.sample(net, 18),
                      cycles=4)
    with pytest.raises(PropagationError, match="not positive definite.*fewer cycles"):
        mutual_info(model, 100.0)


def test_kppI4_sweep_builds_no_dense_channel():
    # a dense (256, 192, 192) H and (256, 192, 480) G alone take 528 MB
    net = SCORED["kppI4"]()
    sched = auto_schedule(net)
    plan = SimPlan(snr_db=(10, 20, 30, 40), rates=(0.25,), trials=256, seed=0)
    tracemalloc.start()
    try:
        outage_sweep(net, sched, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _dense_counts(prog, sched, plan, whiten):
    """The sweep's seeded draw stream, scored on the whole channel."""
    thr = _thresholds(plan, sched, len(prog.kept_rows))
    counts = dict.fromkeys(thr, 0)
    children = np.random.SeedSequence(plan.seed).spawn(-(-plan.trials // plan.batch))
    for k, child in enumerate(children):
        b = min(plan.batch, plan.trials - k * plan.batch)
        gains = _draw_gains(np.random.default_rng(child), prog.n_edges, plan.batch)
        bits = _bits(_dense_sv2(*prog.run(gains[:, :b]), whiten))
        for i, db in enumerate(plan.snr_db):
            for r in plan.rates:
                counts[(db, r)] += int((bits[i] < thr[(db, r)]).sum())
    return counts


@pytest.mark.parametrize("family", sorted(set(SCORED) - {"kppI4"}))
def test_block_scoring_keeps_every_outage_count(family):
    # the dense oracle needs about 15 s for KPP(I) K=4 at 700 draws, so
    # its agreement is left to the spectrum test above
    net = SCORED[family]()
    sched = auto_schedule(net)
    plan = small_plan(snr_db=SCORED_DB, rates=(0.0, 0.25, 0.5), trials=700,
                      batch=256, cycles=SCORED_CYCLES.get(family, 4))
    prog = PropagationProgram(net, sched, plan.cycles)
    pair = whitening_check(net, sched, plan)
    for result, whiten in ((pair.first, True), (pair.second, False)):
        want = _dense_counts(prog, sched, plan, whiten)
        assert {k: e.outages for k, e in result.estimates.items()} == want


@pytest.mark.parametrize("family,sizes", [
    ("kpp234", [1] * 12),
    ("kppD2342", [6, 5, 5]),
    ("layered12221", [4, 4]),
])
def test_row_blocks_of_the_bench_families(family, sizes):
    net = SCORED[family]()
    blocks = _row_blocks(PropagationProgram(net, auto_schedule(net), 4))
    got = [r for rows, *_ in blocks for r in [rows.shape[1]] * len(rows)]
    assert sorted(got, reverse=True) == sizes


def test_row_blocks_of_kppI4():
    net = SCORED["kppI4"]()
    blocks = _row_blocks(PropagationProgram(net, auto_schedule(net), 4))
    got = [r for rows, *_ in blocks for r in [rows.shape[1]] * len(rows)]
    assert (len(got), max(got), sum(got)) == (81, 13, 192)


def test_rows_sharing_only_relay_noise_form_one_block():
    # relay a hears only w, which never receives, so a stores pure noise
    # and forwards it in two slots: those two sink rows share a G column
    # and no H column, and scoring them apart would ignore the correlation
    net = Network([Node("s", "source"), Node("w"), Node("a"), Node("d", "sink")],
                  [Edge("s", "d"), Edge("w", "a"), Edge("a", "d")])
    sched = Schedule(cycle_length=3, symbols_per_cycle=2,
                     activations={("w", "a"): frozenset({0}),
                                  ("a", "d"): frozenset({1, 2}),
                                  ("s", "d"): frozenset({1, 2})})
    prog = PropagationProgram(net, sched, 2)
    blocks = _row_blocks(prog)
    assert [(rows.shape, h_cols.shape) for rows, h_cols, *_ in blocks] == [((2, 2), (2, 2))]
    gains = _draw_gains(np.random.default_rng(5), prog.n_edges, 16)
    np.testing.assert_allclose(_bits(_block_sv2(prog.row_values(gains), blocks, True)),
                               _bits(_dense_sv2(*prog.run(gains), True)), rtol=1e-12)

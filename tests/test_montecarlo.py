"""Outage estimation: information oracle, slope fitting, sweep behavior.

Statistical assertions use wide bands and fixed seeds; the sharp checks
are the deterministic ones (reproducibility, monotonicity in rate and
SNR, whitened-versus-identity ordering).
"""

import ast
import math
import multiprocessing
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydmt import (
    Edge,
    FadingRealization,
    Network,
    NetworkError,
    Node,
    OutageEstimate,
    PropagationError,
    PropagationProgram,
    Schedule,
    SchedulingError,
    SimPlan,
    TransferModel,
    auto_schedule,
    backflow_check,
    color_kpp_three,
    fit_slope,
    kpp_network,
    layered_network,
    naf_network,
    naf_schedule,
    outage_sweep,
    propagate,
    saf_network,
    single_link_network,
    single_link_schedule,
    whitening_check,
)
from relaydmt import montecarlo
from relaydmt.montecarlo import (
    _block_sv2,
    _draw_gains,
    _thresholds,
    _whitened_sv2,
)


def mutual_info(h, snr, sigma=None) -> float:
    """log2 det(I + snr * H H^H Sigma^-1) in bits: the information oracle.

    ``h`` may be a TransferModel, in which case its own noise covariance
    is used unless an explicit ``sigma`` overrides it. Whitening goes
    through ``_whitened_sv2``, the sweeps' own routine, so a covariance
    that cannot be factored in double raises PropagationError.
    """
    cycles = None
    if isinstance(h, TransferModel):
        sigma = h.sigma if sigma is None else sigma
        h, cycles = h.h, h.program.cycles
    sv2 = _whitened_sv2(np.asarray(h), None if sigma is None else np.asarray(sigma),
                        cycles)
    return float(np.log2(1.0 + snr * sv2).sum())


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


@pytest.mark.parametrize("field,value", [
    ("trials", 0), ("trials", -5), ("trials", 2.5), ("trials", True),
    ("batch", 0), ("batch", -1), ("batch", "8"),
])
def test_sim_plan_rejects_trials_or_batch_below_one(field, value):
    # unchecked, trials=0 gives estimates whose .prob divides by zero and
    # batch=0 a ZeroDivisionError deep in the sweep
    with pytest.raises(ValueError, match=f"SimPlan.{field} must be an integer"):
        small_plan(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("count_floor", 0), ("fit_points", 0), ("fit_points", 1),
    ("rates", (-0.5,)), ("rates", (0.5, math.nan)), ("rates", (math.inf,)),
])
def test_sim_plan_rejects_unusable_fit_settings_and_rates(field, value):
    # unchecked, negative and NaN rates were scored against the r = 0
    # budget, and fit_points=0 fitted every usable point
    with pytest.raises(ValueError, match=f"SimPlan.{field} must be"):
        small_plan(**{field: value})


def test_fit_slope_rejects_a_zero_floor_or_fewer_than_two_points():
    est = mk_estimates([500, 100, 3, 0], 1000)
    # count_floor=0 used to reach math.log10(0) on the empty point
    with pytest.raises(ValueError, match="count_floor"):
        fit_slope(est, count_floor=0)
    for points in (0, 1):
        with pytest.raises(ValueError, match="fit_points"):
            fit_slope(est, fit_points=points)


@pytest.mark.parametrize("field,value", [
    ("snr_db", (math.nan, 10, math.inf)), ("snr_db", (10, -math.inf)),
    ("snr_db", (0, 0, 5)), ("rates", (0.5, 0.5)),
])
def test_sim_plan_rejects_bad_grids(field, value):
    # unchecked, NaN and infinite SNRs counted no outages, a repeated SNR
    # counted each draw twice into one estimate and fit_slope then died
    # in math.sqrt, and a repeated rate counted 18 outages of 64 draws
    with pytest.raises(ValueError, match=f"SimPlan.{field} must be"):
        small_plan(**{field: value})


def test_sim_plan_and_program_check_cycles():
    # unchecked, cycles=2.5 reached range() as a TypeError, cycles=True ran
    # one cycle and cycles=0 waited for the sweep to compile
    for value in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="SimPlan.cycles must be an integer"):
            small_plan(cycles=value)
    net = naf_network()
    for value in (2.5, True, "2"):
        with pytest.raises(PropagationError, match="cycles must be an integer"):
            PropagationProgram(net, naf_schedule(net), value)
    with pytest.raises(PropagationError, match="at least one cycle"):
        PropagationProgram(net, naf_schedule(net), 0)
    assert PropagationProgram(net, naf_schedule(net), np.int64(2)).cycles == 2


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


def _serial_pool(pid):
    """The pool's oracle: the batches one after another, in order."""
    return SimpleNamespace(map=map)


@pytest.mark.parametrize("net,pooled_calls", [
    (kpp_network((2, 3, 4)), 0),
    (kpp_network((2, 3, 4, 2), direct_link=True), 3),
], ids=["kpp234", "kppD2342"])
def test_pooled_batches_match_a_serial_map(net, pooled_calls, monkeypatch):
    # 700 trials are three batches, the last one short; KPP(2,3,4)'s blocks
    # all have one row, so its sweeps keep to the calling thread
    sched = auto_schedule(net)
    plan = small_plan(snr_db=(10, 20, 30), rates=(0.0, 0.5), trials=700)

    def results():
        pair = (whitening_check(net, sched, plan), backflow_check(net, sched, plan))
        return [outage_sweep(net, sched, plan)] + [s for p in pair for s in (p.first, p.second)]

    pool, used = montecarlo._pool(os.getpid()), []
    monkeypatch.setattr(montecarlo, "_pool", lambda pid: used.append(pid) or pool)
    pooled = results()
    assert len(used) == pooled_calls
    monkeypatch.setattr(montecarlo, "_pool", _serial_pool)
    for a, b in zip(pooled, results(), strict=True):
        assert a.estimates == b.estimates
        assert a.slopes == b.slopes


def test_more_workers_than_cores_keep_every_count(monkeypatch, analysis_builds):
    # sixteen batches on eight workers that switch every microsecond share
    # one program, whose analyses must be built once, before any batch runs
    net = kpp_network((2, 3, 4, 2), direct_link=True)
    sched = auto_schedule(net)
    plan = small_plan(rates=(0.0, 0.5), trials=62, batch=4)
    monkeypatch.setattr(montecarlo, "_pool", _serial_pool)
    want = whitening_check(net, sched, plan)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(8) as pool:
        monkeypatch.setattr(montecarlo, "_pool", lambda pid: pool)
        sys.setswitchinterval(1e-6)
        try:
            got = whitening_check(net, sched, plan)
        finally:
            sys.setswitchinterval(interval)
    assert (got.first.estimates, got.second.estimates) == (
        want.first.estimates, want.second.estimates)
    assert _builds(analysis_builds) == {
        "_structure": 0, "_masks": 0, "_classes": 2, "row_blocks": 2, "_steps": 0}


def _counting_pool(monkeypatch):
    """Patch ``montecarlo._pool`` to note each caller's process id and
    hand out the real, pid-keyed pool; returns the list of ids."""
    pool, used = montecarlo._pool, []
    monkeypatch.setattr(montecarlo, "_pool", lambda pid: used.append(pid) or pool(pid))
    return used


def test_pooled_sweep_raises_the_first_batch_error_and_keeps_its_pool(monkeypatch):
    # each of the four batches fails on its own max|sigma| (2.06e+36,
    # 2.37e+28, 1.03e+29, 1.58e+30); the pooled sweep must raise batch 0's
    # error, as a serial pass does
    used = _counting_pool(monkeypatch)
    net = kpp_network((4, 5))
    with pytest.raises(PropagationError,
                       match=r"not positive definite.*= 2\.06e\+36\); fewer cycles"):
        outage_sweep(net, auto_schedule(net), SimPlan(trials=1024, seed=0))
    assert len(used) == 1

    # the pool still serves the next sweep, with the serial loop's counts;
    # KPP(D)(2,3,4,2)'s blocks of five and six rows send it to the pool
    net = kpp_network((2, 3, 4, 2), direct_link=True)
    res = outage_sweep(net, auto_schedule(net),
                       SimPlan(snr_db=(10, 20, 30), rates=(0.0, 0.5), trials=1024, seed=0))
    assert len(used) == 2
    assert {k: e.outages for k, e in res.estimates.items()} == {
        (10, 0.0): 14, (10, 0.5): 133, (20, 0.0): 0, (20, 0.5): 21,
        (30, 0.0): 0, (30, 0.5): 2}


def test_single_batch_sweeps_run_on_the_calling_thread(monkeypatch):
    def no_pool(pid):
        raise AssertionError("a one-batch sweep asked for the pool")

    monkeypatch.setattr(montecarlo, "_pool", no_pool)
    net = kpp_network((2, 3, 4))
    sched = auto_schedule(net)
    for trials in (1, 255, 256):
        plan = small_plan(trials=trials)
        outage_sweep(net, sched, plan)
        whitening_check(net, sched, plan)
        backflow_check(net, sched, plan)


def test_closed_form_sweeps_run_on_the_calling_thread(monkeypatch):
    # every block of the single link and of KPP(2,3,4) and its twin has one
    # row, so their three batches score in closed form without the pool;
    # the counts are those the pooled pass gave
    def no_pool(pid):
        raise AssertionError("a closed-form sweep asked for the pool")

    monkeypatch.setattr(montecarlo, "_pool", no_pool)
    plan = small_plan(rates=(0.0, 0.5))
    net = single_link_network()
    got = outage_sweep(net, single_link_schedule(net), plan)
    assert {k: e.outages for k, e in got.estimates.items()} == {
        (10, 0.0): 91, (10, 0.5): 183, (15, 0.0): 30, (15, 0.5): 135,
        (20, 0.0): 7, (20, 0.5): 80}
    net = kpp_network((2, 3, 4))
    pair = backflow_check(net, auto_schedule(net), plan)
    want = {(10, 0.0): 257, (10, 0.5): 563, (15, 0.0): 61, (15, 0.5): 463,
            (20, 0.0): 8, (20, 0.5): 336}
    for res in (pair.first, pair.second):
        assert {k: e.outages for k, e in res.estimates.items()} == want

    # KPP(D)(2,3,4,2) has blocks of five and six rows: its batches pool
    net = kpp_network((2, 3, 4, 2), direct_link=True)
    with pytest.raises(AssertionError, match="asked for the pool"):
        outage_sweep(net, auto_schedule(net), plan)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_sweeps_on_a_pool_of_its_own(monkeypatch):
    # the child inherits the parent's pool but none of its worker threads;
    # a pool that outlived the fork would wait for them forever. Both
    # sweeps must pool, so KPP(D)(2,3,4,2), whose blocks have several rows
    used = _counting_pool(monkeypatch)
    net = kpp_network((2, 3, 4, 2), direct_link=True)
    sched = auto_schedule(net)
    plan = small_plan(rates=(0.0, 0.5))
    want = outage_sweep(net, sched, plan).estimates
    assert used == [os.getpid()]
    assert {k: e.outages for k, e in want.items()} == {
        (10, 0.0): 12, (10, 0.5): 99, (15, 0.0): 1, (15, 0.5): 53,
        (20, 0.0): 0, (20, 0.5): 22}

    def child():
        same = outage_sweep(net, sched, plan).estimates == want
        sys.exit(0 if same and used[-1] == os.getpid() else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child's sweep did not finish")
    assert proc.exitcode == 0


def test_backflow_check_needs_backbone():
    net = naf_network()
    sched = naf_schedule(net)
    bare = type(sched)(cycle_length=sched.cycle_length,
                       activations=sched.activations,
                       symbols_per_cycle=sched.symbols_per_cycle)
    with pytest.raises(SchedulingError, match="path decomposition"):
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
# (network, cycles) the sweeps' expression classes must replay bit for
# bit: every scored family, KPP(4,5) at 2 cycles, and a crossed KPP(I)
# K=3 from the seed-0 corpus whose rows gain older-history entries in
# every cycle, so only part of it repeats
REPLAYED = {
    **{f: (SCORED[f], SCORED_CYCLES.get(f, 4)) for f in SCORED},
    "kpp45-2cycles": (SCORED["kpp45"], 2),
    "kppI3-growing": (lambda: kpp_network((5, 2, 3), cross_links=[((3, 2), (1, 4))]), 4),
}


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


def _scored(prog, gains):
    """The sweeps' distinct replay of ``gains`` and the blocks reading it."""
    return prog.distinct_values(gains), prog.row_blocks


def _first_copy_reads(prog, gains):
    """The distinct replay read back at each kept row's first copy."""
    first = prog._classes[2]
    return prog.distinct_values(gains)[np.concatenate(
        [np.arange(i, i + cols.size) for i, cols in zip(first, prog.row_support)]
        + [np.zeros(0, dtype=int)])]


def _assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", sorted(SCORED))
def test_block_scoring_matches_dense_spectrum(family):
    net = SCORED[family]()
    prog = PropagationProgram(net, auto_schedule(net), SCORED_CYCLES.get(family, 4))
    gains = _draw_gains(np.random.default_rng(3), prog.n_edges, 16)
    h, g = prog.run(gains)
    vals, blocks = _scored(prog, gains)
    for whiten in (True, False):
        rtol = WHITENED_RTOL.get(family, 1e-12) if whiten else 1e-12
        np.testing.assert_allclose(_bits(_block_sv2(vals, blocks, whiten)),
                                   _bits(_dense_sv2(h, g, whiten)), rtol=rtol)


def _gathered_sv2(h, g, blocks, whiten):
    """The block scorer fed from dense ``run`` output instead of the
    distinct replay, scoring every block rather than one per class."""
    out = [np.zeros((h.shape[0], 0))]
    for rows, h_cols, g_cols, *_ in blocks:
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


def _block_sv2_copying(vals, blocks, whiten, cycles=None):
    """The block scorer as it was while ``distinct_values`` had no zero
    row: it appends one to a copy of ``vals``, adds the identity to sigma
    out of place and holds every gather to the end. The oracle the lean
    scorer must match byte for byte."""
    vals = np.concatenate([vals, np.zeros((1, vals.shape[1]))])
    out = [np.zeros((vals.shape[1], 0))]
    for rows, _, _, h_idx, g_idx, inverse in blocks:
        hb = np.moveaxis(vals[h_idx], -1, 0)
        gb = np.moveaxis(vals[g_idx], -1, 0)
        if rows.shape[1] == 1:
            sv2 = (hb.real**2 + hb.imag**2).sum(axis=(2, 3))
            if whiten:
                sv2 = sv2 / (1.0 + (gb.real**2 + gb.imag**2).sum(axis=(2, 3)))
        else:
            sigma = (gb @ np.conj(np.swapaxes(gb, -1, -2)) + np.eye(rows.shape[1])
                     if whiten else None)
            sv2 = _whitened_sv2(hb, sigma, cycles)
        out.append(sv2[:, inverse].reshape(len(sv2), -1))
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("family", ["single", "kpp234", "kppD2342", "layered12221",
                                    "kppI4"])
def test_lean_block_scorer_matches_the_copying_one(family):
    net = SCORED[family]()
    prog = PropagationProgram(net, auto_schedule(net), 4)
    gains = _draw_gains(np.random.default_rng(9), prog.n_edges, 64)
    vals = prog.distinct_values(gains)
    assert vals[-1].tobytes() == bytes(16 * 64)       # the zero row, +0.0 throughout
    for whiten in (True, False):
        _assert_same_bytes(_block_sv2(vals, prog.row_blocks, whiten),
                           _block_sv2_copying(vals[:-1], prog.row_blocks, whiten))


def _check_distinct_scoring(prog, gains):
    # each row read at its first copy is the full replay, byte for byte,
    # and one block per class scores what every block scores on dense H, G
    _assert_same_bytes(_first_copy_reads(prog, gains), prog.row_values(gains))
    h, g = prog.run(gains)
    vals, blocks = _scored(prog, gains)
    for whiten in (False, True):
        want = _gathered_sv2(h, g, blocks, whiten)
        _assert_same_bytes(_block_sv2(vals, blocks, whiten), want)


@pytest.mark.parametrize("family", sorted(REPLAYED))
def test_compact_scoring_is_bit_identical_to_dense_gather(family):
    make, cycles = REPLAYED[family]
    net = make()
    prog = PropagationProgram(net, auto_schedule(net), cycles)
    _check_distinct_scoring(prog, _draw_gains(np.random.default_rng(4), prog.n_edges, 16))


def test_growing_program_repeats_only_part_of_its_values():
    make, cycles = REPLAYED["kppI3-growing"]
    net = make()
    prog = PropagationProgram(net, auto_schedule(net), cycles)
    steps, rows, _ = prog._classes
    assert (len(prog._steps), len(steps)) == (48, 23)
    assert (len(prog.kept_rows), len(rows)) == (12, 6)
    # every cycle's rows reach more columns than the last one's
    per_cycle = np.add.reduceat([c.size for c in prog.row_support], [0, 3, 6, 9])
    assert per_cycle.tolist() == [20, 28, 36, 44]


LIBRARY_ERRORS = (NetworkError, SchedulingError)
PARALLEL_CASES = st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.lists(st.integers(2, 5), min_size=k, max_size=k),
    st.sampled_from(["kpp", "kppD", "kppI"]),
    st.integers(0, 2**16)))


def _parallel_network(case):
    """KPP, KPP(D) or KPP(I) with one cross link placed by ``pick``, and
    the generator that placed it."""
    lengths, kind, pick = case
    rng = np.random.default_rng(pick)
    cross = []
    if kind == "kppI":
        i, j = rng.choice(len(lengths), 2, replace=False)
        cross = [((i + 1, int(rng.integers(1, lengths[i]))),
                  (j + 1, int(rng.integers(1, lengths[j]))))]
    return kpp_network(tuple(lengths), direct_link=kind == "kppD", cross_links=cross), rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(PARALLEL_CASES)
def test_distinct_scoring_is_bit_identical_on_random_parallel_networks(case):
    net, rng = _parallel_network(case)
    try:
        sched = auto_schedule(net)
    except LIBRARY_ERRORS:
        return
    prog = PropagationProgram(net, sched, 2)
    gains = _draw_gains(rng, prog.n_edges, 4)
    try:
        _check_distinct_scoring(prog, gains)
    except np.linalg.LinAlgError:
        # the oracle met a covariance lost in double, as on crossed
        # (2,3,3,5); the sweeps' scorer must stop on it too
        with pytest.raises(PropagationError, match="not positive definite"):
            _block_sv2(*_scored(prog, gains), True)


def test_kpp45_unwhitenable_covariance_is_a_library_error():
    # at 4 cycles KPP(4,5) back-flow gains reach 1e9 and I + G G^H loses
    # its identity in double; the sweep must say so in its own terms
    net = kpp_network((4, 5))
    with pytest.raises(PropagationError, match="not positive definite.*fewer cycles"):
        outage_sweep(net, auto_schedule(net), SimPlan(trials=256, seed=0))


def test_unwhitenable_one_cycle_window_suggests_no_fewer_cycles():
    # crossed KPP(I) (2,3,3,5) loses its covariance in double already at
    # one cycle, where fewer cycles is no way out
    net = kpp_network((2, 3, 3, 5), cross_links=[((3, 1), (4, 2))])
    with pytest.raises(PropagationError, match="not positive definite") as err:
        outage_sweep(net, auto_schedule(net), SimPlan(trials=256, seed=0, cycles=1))
    assert "cycles" not in str(err.value)


def test_mutual_info_on_unwhitenable_model_is_a_library_error():
    # seed 18 drives max|G| to 3.9e13 at 4 cycles; the sweeps' routine
    # reports the covariance it cannot factor in the library's terms
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


def _per_cell_counts(plan, sched, prog, whitenings, k, child):
    """``_score_batch`` on one job, one comparison per (SNR, rate)
    cell: the oracle for its broadcast."""
    thr = _thresholds(plan, sched, len(prog.kept_rows))
    b = min(plan.batch, plan.trials - k * plan.batch)
    gains = _draw_gains(np.random.default_rng(child), prog.n_edges, plan.batch)[:, :b]
    vals = prog.distinct_values(gains)
    counts = []
    for whiten in whitenings:
        sv2 = _block_sv2(vals, prog.row_blocks, whiten, plan.cycles)
        for db in plan.snr_db:
            bits = np.log2(1.0 + 10.0 ** (db / 10.0) * sv2).sum(axis=1)
            counts += [int((bits < thr[(db, r)]).sum()) for r in plan.rates]
    return counts


@pytest.mark.parametrize("family", ["single", "kpp234", "kppD2342", "layered12221", "kppI4"])
def test_batch_counts_match_the_per_cell_loop(family):
    net = SCORED[family]()
    sched = auto_schedule(net)
    trials, batch = (40, 16) if family == "kppI4" else (600, 256)
    plan = small_plan(snr_db=SCORED_DB, rates=(0.0, 0.25, 0.5), trials=trials, batch=batch)
    prog = PropagationProgram(net, sched, plan.cycles)
    whitenings = (True, False)
    jobs = [(prog, None, whitenings, prog.row_blocks,
             montecarlo._threshold_grid(plan, sched, len(prog.kept_rows)))]
    children = np.random.SeedSequence(plan.seed).spawn(-(-plan.trials // plan.batch))
    outages = 0
    for k, child in enumerate(children):
        got = montecarlo._score_batch(plan, prog.n_edges, jobs + jobs, k, child)
        want = _per_cell_counts(plan, sched, prog, whitenings, k, child)
        assert got == want + want
        assert all(type(c) is int for c in got)
        outages += sum(want)
    assert len(want) == 2 * len(plan.snr_db) * len(plan.rates) and outages > 0


# blocks the sweeps score per batch, one per class of byte-equal gathers
SCORED_BLOCKS = {"kpp234": 3, "kppD2342": 3, "layered12221": 2}


def _blocks_of(family):
    net = SCORED[family]()
    prog = PropagationProgram(net, auto_schedule(net), 4)
    return prog, prog._classes, prog.row_blocks


@pytest.mark.parametrize("family,sizes", [
    ("kpp234", [1] * 12),
    ("kppD2342", [6, 5, 5]),
    ("layered12221", [4, 4]),
])
def test_row_blocks_of_the_bench_families(family, sizes):
    _, _, blocks = _blocks_of(family)
    got = [r for rows, *_ in blocks for r in [rows.shape[1]] * len(rows)]
    assert sorted(got, reverse=True) == sizes
    assert sum(len(h_idx) for _, _, _, h_idx, _, _ in blocks) == SCORED_BLOCKS[family]


def test_row_blocks_of_kppI4():
    prog, (steps, rows, _), blocks = _blocks_of("kppI4")
    got = [r for rows, *_ in blocks for r in [rows.shape[1]] * len(rows)]
    assert (len(got), max(got), sum(got)) == (81, 13, 192)
    # the four cycles repeat: each batch replays 94 of the 576 steps for
    # 30 distinct rows of 192, and scores 9 of the 81 blocks
    assert (len(prog._steps), len(steps)) == (576, 94)
    assert (len(prog._row_values), len(rows)) == (192, 30)
    assert sum(len(h_idx) for _, _, _, h_idx, _, _ in blocks) == 9


def _noise_linked_program():
    """Relay a hears only w, which never receives, so a stores pure noise
    and forwards it in two slots: those two sink rows share a G column
    and no H column."""
    net = Network([Node("s", "source"), Node("w"), Node("a"), Node("d", "sink")],
                  [Edge("s", "d"), Edge("w", "a"), Edge("a", "d")])
    sched = Schedule(cycle_length=3, symbols_per_cycle=2,
                     activations={("w", "a"): frozenset({0}),
                                  ("a", "d"): frozenset({1, 2}),
                                  ("s", "d"): frozenset({1, 2})})
    return PropagationProgram(net, sched, 2)


def test_rows_sharing_only_relay_noise_form_one_block():
    # scoring the two rows apart would ignore their noise correlation
    prog = _noise_linked_program()
    gains = _draw_gains(np.random.default_rng(5), prog.n_edges, 16)
    vals, blocks = _scored(prog, gains)
    assert [(rows.shape, h_cols.shape) for rows, h_cols, *_ in blocks] == [((2, 2), (2, 2))]
    np.testing.assert_allclose(_bits(_block_sv2(vals, blocks, True)),
                               _bits(_dense_sv2(*prog.run(gains), True)), rtol=1e-12)


def _union_find_row_blocks(prog, first):
    """``row_blocks`` as it was first written: a Python union-find over
    the support entries, then one ``np.unique`` per block and one
    ``searchsorted`` per row. The oracle the array version must match
    byte for byte."""
    root = list(range(len(prog.row_support)))

    def find(r):
        while root[r] != r:
            root[r] = r = root[root[r]]
        return r

    owner = {}
    for r, cols in enumerate(prog.row_support):
        for c in cols.tolist():
            root[find(r)] = find(owner.setdefault(c, r))
    members, groups, kept = {}, {}, len(prog.kept_cols)
    for r in range(len(root)):
        members.setdefault(find(r), []).append(r)
    for rows in members.values():
        cols = np.unique(np.concatenate([prog.row_support[r] for r in rows]))
        idx = np.full((len(rows), cols.size), -1)
        for i, r in enumerate(rows):
            idx[i, np.searchsorted(cols, prog.row_support[r])] = np.arange(
                first[r], first[r] + prog.row_support[r].size)
        nh = int((cols < kept).sum())
        groups.setdefault((len(rows), nh, cols.size - nh), []).append(
            (rows, cols[:nh], cols[nh:] - kept, idx[:, :nh], idx[:, nh:]))
    out = []
    for bs in groups.values():
        classes = {}      # gather indices -> (class, its indices)
        inverse = [classes.setdefault((h.tobytes(), g.tobytes()), (len(classes), h, g))[0]
                   for *_, h, g in bs]
        rows, h_cols, g_cols = (np.array(a) for a in list(zip(*bs))[:3])
        h_idx, g_idx = (np.array(a) for a in list(zip(*classes.values()))[1:])
        out.append((rows, h_cols, g_cols, h_idx, g_idx, np.array(inverse)))
    return out


def _assert_blocks_match_union_find(prog):
    got, want = prog.row_blocks, _union_find_row_blocks(prog, prog._classes[2])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w) == 6
        for a, b in zip(g, w):
            _assert_same_bytes(a, b)


ORACLE_BLOCK_FAMILIES = {
    **{f: SCORED[f] for f in ("single", "kpp234", "kppD2342", "layered12221",
                              "kppI4", "naf", "kpp45")},
    "saf2": lambda: saf_network(2),
}


@pytest.mark.parametrize("cycles", [1, 4])
@pytest.mark.parametrize("family", sorted(ORACLE_BLOCK_FAMILIES))
def test_row_blocks_match_union_find(family, cycles):
    net = ORACLE_BLOCK_FAMILIES[family]()
    _assert_blocks_match_union_find(PropagationProgram(net, auto_schedule(net), cycles))


def test_row_blocks_match_union_find_on_noise_linked_rows():
    _assert_blocks_match_union_find(_noise_linked_program())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(
    PARALLEL_CASES,
    st.tuples(st.lists(st.integers(2, 3), min_size=1, max_size=2), st.booleans())),
    st.integers(1, 3))
def test_row_blocks_match_union_find_on_random_networks(case, cycles):
    if len(case) == 3:
        net = _parallel_network(case)[0]
    else:
        widths, connected = case
        net = layered_network((1, *widths, 1), fully_connected=connected)
    try:
        sched = auto_schedule(net)
    except LIBRARY_ERRORS:
        return
    _assert_blocks_match_union_find(PropagationProgram(net, sched, cycles))


def _builds(analysis_builds):
    return {name: len(progs) for name, progs in analysis_builds.items()}


def test_whitening_check_builds_the_sweep_analyses_once(analysis_builds):
    # three batches, each scored twice, read one program's classes and
    # row blocks; no sweep reads the certificate's shape or edge masks
    net = SCORED["kppD2342"]()
    whitening_check(net, auto_schedule(net), small_plan())
    assert _builds(analysis_builds) == {
        "_structure": 0, "_masks": 0, "_classes": 1, "row_blocks": 1, "_steps": 0}


def test_backflow_check_builds_the_sweep_analyses_once_per_arm(analysis_builds):
    net = SCORED["kpp234"]()
    backflow_check(net, auto_schedule(net), small_plan())
    assert _builds(analysis_builds) == {
        "_structure": 0, "_masks": 0, "_classes": 2, "row_blocks": 2, "_steps": 0}
    real, twin = analysis_builds["_classes"]
    assert real is not twin and analysis_builds["row_blocks"] == [real, twin]


def test_outage_sweep_never_builds_the_repeated_cycles(analysis_builds):
    # KPP(I) K=4 compiles 96 of its 240 slots, and the sweep reads the
    # classes and row blocks derived from them, never the full step list
    net = SCORED["kppI4"]()
    outage_sweep(net, auto_schedule(net), small_plan(trials=16))
    assert _builds(analysis_builds) == {
        "_structure": 0, "_masks": 0, "_classes": 1, "row_blocks": 1, "_steps": 0}


def test_montecarlo_uses_only_public_channel_names():
    # the sweeps read a program through its public members; the compiled
    # step format and the analyses' internals stay inside channel.py
    tree = ast.parse(Path(montecarlo.__file__).read_text())
    private = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "channel"
               and any(alias.name.startswith("_") for alias in node.names)]
    private += [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert private == []

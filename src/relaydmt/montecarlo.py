"""Monte Carlo outage estimation and slope extraction.

The achievability side of every tradeoff claim is checked by sampling
fading realizations, replaying the schedule's channel once per batch of
them, and reusing each draw's singular values across the whole SNR and
rate grid. Outage slopes on a log-log axis estimate the diversity
order actually delivered by a schedule.

A sweep's draws come in batches of ``SimPlan.batch``, each with its own
child of the plan's seed, so the batches are independent units of work:
a sweep of more than one batch scores them on a thread pool sized to
the CPUs the process may run on (numpy's linear algebra releases the
GIL) and sums their integer outage counts, which gives the counts of a
serial pass exactly. A sweep whose blocks all have one row scores in
closed form, with little for numpy to do outside the GIL, so its
batches run on the calling thread.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .channel import PropagationError, PropagationProgram
from .netgraph import Network
from .protocol import Schedule, SchedulingError


def _whitened_sv2(h, sigma, cycles=None):
    """Squared singular values of L^-1 h, where L L^H = sigma.

    Batched over leading axes; ``sigma=None`` stands for the identity
    and skips the whitening. This is the one place the library factors
    a noise covariance: one that is not positive definite in double
    raises PropagationError, which suggests fewer cycles when the
    window's ``cycles`` is known and more than one.
    """
    if sigma is not None:
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            hint = "; fewer cycles may help" if cycles is not None and cycles > 1 else ""
            raise PropagationError(
                f"{sigma.shape[-1]}-row noise covariance is not positive "
                f"definite in double (max|sigma| = {np.abs(sigma).max():.3g}){hint}") from None
        h = np.linalg.solve(chol, h)
    return np.linalg.svd(h, compute_uv=False) ** 2


def _require_int(name, value, least):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class SimPlan:
    """Sweep settings; the seed pins the whole gain stream.

    The draws come in batches of ``batch``, each seeded by its own child
    of ``seed``, so ``batch`` sets both the gain stream and the unit of
    parallel work. ``snr_db`` and ``rates`` must be finite and distinct:
    each (snr, rate) cell is one estimate.
    """

    snr_db: tuple = (10, 15, 20, 25, 30, 35, 40)
    rates: tuple = (0.0,)
    trials: int = 10_000
    seed: int = 0
    cycles: int = 4
    batch: int = 256
    count_floor: int = 25
    fit_points: int = 4

    def __post_init__(self):
        for name, least in (("trials", 1), ("cycles", 1), ("batch", 1),
                            ("count_floor", 1), ("fit_points", 2)):
            _require_int(f"SimPlan.{name}", getattr(self, name), least)
        for r in self.rates:
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"SimPlan.rates must be finite and nonnegative, "
                                 f"got {r!r}")
        for db in self.snr_db:
            if not math.isfinite(db):
                raise ValueError(f"SimPlan.snr_db must be finite, got {db!r}")
        for name in ("snr_db", "rates"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"SimPlan.{name} must be distinct, got {values!r}")


@dataclass(frozen=True)
class OutageEstimate:
    snr_db: float
    rate: float
    outages: int
    trials: int

    @property
    def prob(self) -> float:
        return self.outages / self.trials

    def wilson(self, z: float = 1.96):
        n, p = self.trials, self.outages / self.trials
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class SlopeFit:
    slope: float | None
    intercept: float | None
    snrs_used: tuple
    uncertainty: float | None = None
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    estimates: dict              # (snr_db, rate) -> OutageEstimate
    slopes: dict                 # rate -> SlopeFit
    plan: SimPlan
    total_slots: int             # window length incl. start-up
    n_symbols: int               # symbols the rate budget charged for

    def estimate(self, snr_db, rate) -> OutageEstimate:
        return self.estimates[(snr_db, rate)]


def fit_slope(estimates, count_floor=25, fit_points=4) -> SlopeFit:
    """Diversity estimate from the top SNR points that still have
    enough outage events to trust.

    Plain least squares of log10 P against log10 SNR over the highest
    ``fit_points`` grid points whose event count clears the floor; the
    asymptotic slope only shows at the top of the grid, so low points
    never enter. The quoted uncertainty pushes each point's Wilson
    half-width through the fit.
    """
    _require_int("count_floor", count_floor, 1)
    _require_int("fit_points", fit_points, 2)
    usable = [e for e in sorted(estimates, key=lambda e: e.snr_db)
              if e.outages >= count_floor]
    usable = usable[-fit_points:]
    if len(usable) < 2:
        return SlopeFit(None, None, (), None,
                        f"only {len(usable)} grid points reached "
                        f"{count_floor} outage events")
    xs, ys, hs = [], [], []
    for e in usable:
        lo, hi = e.wilson()
        lo = max(lo, 1e-12)
        hs.append(max((math.log10(hi) - math.log10(lo)) / 2, 1e-6))
        xs.append(e.snr_db / 10.0)          # log10 of the SNR
        ys.append(math.log10(e.prob))
    xs, ys, hs = (np.array(v) for v in (xs, ys, hs))
    xm, ym = xs.mean(), ys.mean()
    sxx = ((xs - xm) ** 2).sum()
    b = float(((xs - xm) * (ys - ym)).sum() / sxx)
    spread = math.sqrt(float((((xs - xm) / sxx) ** 2 * hs**2).sum()))
    return SlopeFit(-b, float(ym - b * xm),
                    tuple(e.snr_db for e in usable), spread)


def _draw_gains(rng, n_edges, batch):
    z = rng.standard_normal((2, n_edges, batch))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def _thresholds(plan, sched, n_rows):
    """Bits required per window for each (snr, rate) cell.

    The budget charges the schedule's own throughput: cycles times
    symbols-per-cycle, at r * log2(snr) bits each. A schedule that
    spends extra slots on priming or on an odd-cycle pause therefore
    pays for them through its smaller symbol count, not through an
    inflated target. Zero rate falls back to one bit per delivered
    symbol so slopes at r=0 remain well defined.
    """
    charged = plan.cycles * sched.symbols_per_cycle
    thr = {}
    for db in plan.snr_db:
        rho = 10.0 ** (db / 10.0)
        for r in plan.rates:
            if r > 0:
                thr[(db, r)] = charged * r * math.log2(rho)
            else:
                thr[(db, r)] = float(n_rows)
    return thr


def _block_sv2(vals, blocks, whiten, cycles=None):
    """Squared singular values of the (whitened) channel, block by block.

    ``vals`` are a program's ``distinct_values``, whose last row is the
    zero that structural zeros read, and ``blocks`` its ``row_blocks``;
    each shape group's H and G come out of them with one take each, for
    one block per class. Single-row blocks are closed form,
    |h|^2 / (1 + |g|^2); larger ones build their block of
    sigma = I + G G^H, adding the identity to its diagonal in place, and
    go through ``_whitened_sv2`` (identity when not whitening) with G's
    gather already dropped. The class results are expanded to every
    block through the inverse index, so each column, and the order of
    the columns, is what scoring every block would give. ``cycles``, the
    window's cycle count, only shapes ``_whitened_sv2``'s error. Returns
    (batch, n).
    """
    out = [np.zeros((vals.shape[1], 0))]
    for rows, _, _, h_idx, g_idx, inverse in blocks:
        # (batch, k, r, nh) with the batch fastest in memory, the layout of
        # a gather from dense H, which fixes the summation order below
        hb = np.moveaxis(vals[h_idx], -1, 0)
        gb = np.moveaxis(vals[g_idx], -1, 0)
        if rows.shape[1] == 1:
            sv2 = (hb.real**2 + hb.imag**2).sum(axis=(2, 3))
            if whiten:
                sv2 = sv2 / (1.0 + (gb.real**2 + gb.imag**2).sum(axis=(2, 3)))
        else:
            sigma = None
            if whiten:
                sigma = gb @ np.conj(np.swapaxes(gb, -1, -2))
                np.einsum("...ii->...i", sigma)[...] += 1.0     # a view of the diagonal
            del gb
            sv2 = _whitened_sv2(hb, sigma, cycles)
        out.append(sv2[:, inverse].reshape(len(sv2), -1))
    return np.concatenate(out, axis=1)


@functools.cache
def _pool(pid):
    """The sweeps' thread pool of process ``pid``, made on first use: one
    worker per CPU the process may run on. Keyed by the process id, so a
    forked child, which has none of its parent's workers, makes its own.
    """
    # imported on first use: concurrent.futures brings in logging, 0.7 MB of
    # resident memory that a process sweeping one batch at a time never needs
    from concurrent.futures import ThreadPoolExecutor

    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call, as on macOS
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="relaydmt-sweep")


def _score_batch(plan, n_edges, jobs, k, child):
    """Draw batch ``k`` from its seed ``child`` and score it on every job.

    Returns the batch's outage counts as one flat list of ints, per
    scoring (jobs and their whitenings in order), then per SNR, then per
    rate.
    """
    b = min(plan.batch, plan.trials - k * plan.batch)
    gains = _draw_gains(np.random.default_rng(child), n_edges, plan.batch)[:, :b]
    counts = []
    for prog, cols, whitenings, blocks, thr in jobs:
        vals = prog.distinct_values(gains if cols is None else gains[cols])
        for whiten in whitenings:
            sv2 = _block_sv2(vals, blocks, whiten, plan.cycles)
            for db in plan.snr_db:
                bits = np.log2(1.0 + 10.0 ** (db / 10.0) * sv2).sum(axis=1)
                counts += [int((bits < thr[(db, r)]).sum()) for r in plan.rates]
    return counts


def _sweep_arms(sched: Schedule, plan: SimPlan, arms) -> list:
    """Score every arm on one seeded stream of fading draws.

    An arm is ``(program, columns, whitenings)``: the program replays
    once per batch on the shared draw, restricted to ``columns`` (the
    rows of the draw it reads, or None for all of them), and each entry
    of ``whitenings`` scores the batch once, with the true noise
    covariance (True) or the identity (False). Each batch replays and
    scores once per expression class, through the program's
    ``distinct_values`` and ``row_blocks``; no dense H or G is built.

    Each batch, drawn from its own child of the plan's seed, is one unit
    of work (``_score_batch``). One batch runs on the calling thread, and
    so do the batches of a sweep whose every block has one row: those
    score in closed form, a batch is a few hundred microseconds of
    interpreter work, and pool workers would only contend for the GIL.
    Other sweeps run their batches on the process's thread pool. The
    integer counts are summed, so every estimate is the serial pass's.
    Every program's row blocks and classes are built here first, since from Python 3.12 a
    cached_property takes no lock. Results are taken in batch order, so
    a failing sweep raises the error the serial pass would raise first.
    Returns one SweepResult per (arm, whitening), in order.
    """
    jobs = [(prog, cols, whitenings, prog.row_blocks,
             _thresholds(plan, sched, len(prog.kept_rows)))
            for prog, cols, whitenings in arms]
    work = functools.partial(_score_batch, plan, arms[0][0].n_edges, jobs)
    children = np.random.SeedSequence(plan.seed).spawn(-(-plan.trials // plan.batch))
    closed_form = all(rows.shape[1] == 1 for _, _, _, blocks, _ in jobs
                      for rows, *_ in blocks)
    batches = (map if len(children) == 1 or closed_form else _pool(os.getpid()).map)(
        work, range(len(children)), children)
    totals = iter(map(sum, zip(*batches)))     # each count summed over the batches

    results = []
    for prog, _, whitenings in arms:
        for _ in whitenings:
            est = {(db, r): OutageEstimate(db, r, next(totals), plan.trials)
                   for db in plan.snr_db for r in plan.rates}
            slopes = {r: fit_slope([est[(db, r)] for db in plan.snr_db],
                                   plan.count_floor, plan.fit_points)
                      for r in plan.rates}
            results.append(SweepResult(est, slopes, plan, prog.total_slots,
                                       plan.cycles * sched.symbols_per_cycle))
    return results


def outage_sweep(net: Network, sched: Schedule, plan: SimPlan) -> SweepResult:
    """Estimate outage probability over the plan's SNR x rate grid.

    Each batch of fading draws replays the schedule's channel once and
    scores it once per expression class; the squared singular values of
    every draw serve every grid cell. Outage is declared when the
    window's mutual information falls below the rate budget of the cell.
    """
    prog = PropagationProgram(net, sched, plan.cycles)
    return _sweep_arms(sched, plan, [(prog, None, (True,))])[0]


@dataclass(frozen=True)
class PairedSweep:
    """Two sweeps over identical fading draws."""

    first: SweepResult
    second: SweepResult

    def slope_gap(self, rate) -> float | None:
        a = self.first.slopes[rate].slope
        b = self.second.slopes[rate].slope
        if a is None or b is None:
            return None
        return abs(a - b)


def whitening_check(net: Network, sched: Schedule, plan: SimPlan) -> PairedSweep:
    """Same draws scored with the true noise covariance and with the
    identity approximation; a material slope gap would mean the
    amplified-noise correction matters at these SNRs."""
    prog = PropagationProgram(net, sched, plan.cycles)
    return PairedSweep(*_sweep_arms(sched, plan, [
        (prog, None, (True, False))]))


def backflow_check(net: Network, sched: Schedule, plan: SimPlan) -> PairedSweep:
    """Same draws on the real network and on a twin with the reverse
    backbone edges removed, isolating what back-flow leakage does to
    the outage slope."""
    if sched.backbone is None:
        raise SchedulingError("schedule carries no path decomposition")
    reverse = set()
    for path in sched.backbone:
        for a, b in zip(path, path[1:]):
            if net.has_edge(b, a):
                reverse.add((b, a))
    twin = net.without_edges(reverse)

    prog = PropagationProgram(net, sched, plan.cycles)
    # the twin's edges are a subset; reuse the same per-edge draws
    cols = [prog.edge_index[pair] for pair in sorted(twin.edge_set)]
    return PairedSweep(*_sweep_arms(sched, plan, [
        (prog, None, (True,)),
        (PropagationProgram(twin, sched, plan.cycles), cols, (True,))]))

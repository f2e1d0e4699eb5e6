"""Monte Carlo outage estimation and slope extraction.

The achievability side of every tradeoff claim is checked by sampling
fading realizations, building the induced linear channel once per
realization, and reusing its singular values across the whole SNR and
rate grid. Outage slopes on a log-log axis estimate the diversity
order actually delivered by a schedule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import PropagationError, PropagationProgram, _distinct, _replay
from .netgraph import Network
from .protocol import Schedule


def _whitened_sv2(h, sigma):
    """Squared singular values of L^-1 h, where L L^H = sigma.

    Batched over leading axes; ``sigma=None`` stands for the identity
    and skips the whitening. This is the one place the library factors
    a noise covariance: one that is not positive definite in double
    raises PropagationError.
    """
    if sigma is not None:
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise PropagationError(
                f"{sigma.shape[-1]}-row noise covariance is not positive "
                f"definite in double (max|sigma| = {np.abs(sigma).max():.3g}); "
                f"fewer cycles may help") from None
        h = np.linalg.solve(chol, h)
    return np.linalg.svd(h, compute_uv=False) ** 2


def _require_int(name, value, least):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class SimPlan:
    """Sweep settings; the seed pins the whole gain stream."""

    snr_db: tuple = (10, 15, 20, 25, 30, 35, 40)
    rates: tuple = (0.0,)
    trials: int = 10_000
    seed: int = 0
    cycles: int = 4
    batch: int = 256
    count_floor: int = 25
    fit_points: int = 4

    def __post_init__(self):
        for name, least in (("trials", 1), ("batch", 1), ("count_floor", 1),
                            ("fit_points", 2)):
            _require_int(f"SimPlan.{name}", getattr(self, name), least)
        for r in self.rates:
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"SimPlan.rates must be finite and nonnegative, "
                                 f"got {r!r}")


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


def _row_blocks(prog: PropagationProgram, first) -> list:
    """Independent row blocks of the program's channel, grouped by shape.

    Rows join a block when they share an H or G column, so after a
    permutation H, G and sigma are block diagonal and the whitened
    spectrum is the union of the blocks' spectra. ``first`` is
    ``_distinct(prog)``'s start of each kept row's first copy, so every
    row's gather indices point at that copy in the distinct replay
    ``_replay(steps, rows, gains)``; a structural zero points at -1, the
    zero row ``_block_sv2`` appends. Blocks of one shape whose H and G
    indices are byte-equal gather bit-identical values on every draw,
    so they form one class.

    The work is done on flat (row, column, value index) arrays of the
    support entries. Each row's label falls to the least row it is
    linked to, by taking minima through the shared columns and jumping
    labels to their labels' labels until nothing moves; blocks are then
    ordered by their least row, with rows ascending, and each block's
    columns come sorted out of one ``np.unique`` of block * width + column.

    Returns per shape the (m, r) rows, (m, nh) H columns and (m, ng) G
    columns of its m blocks, the (k, r, nh) and (k, r, ng) gather
    indices of its k classes, and the (m,) class of each block.
    """
    sizes = np.array([cols.size for cols in prog.row_support], dtype=np.intp)
    n_rows, width, kept = len(sizes), prog._width, len(prog.kept_cols)
    if not n_rows:
        return []
    # one (row, column, value index) triple per support entry
    row = np.repeat(np.arange(n_rows), sizes)
    col = np.concatenate(prog.row_support)
    val = np.arange(col.size) + np.repeat(np.asarray(first) - np.cumsum(sizes) + sizes, sizes)

    label = np.arange(n_rows)
    while True:
        least = np.full(width, n_rows)
        np.minimum.at(least, col, label[row])
        linked = label.copy()
        np.minimum.at(linked, row, least[col])
        linked = linked[linked]
        if (linked == label).all():
            break
        label = linked
    is_least = label == np.arange(n_rows)
    block = (np.cumsum(is_least) - 1)[label]       # blocks by least row
    n_blocks = int(is_least.sum())
    order = np.argsort(block, kind="stable")       # rows by block, ascending
    n_r = np.bincount(block, minlength=n_blocks)
    r_start = np.cumsum(n_r) - n_r
    rank = np.empty(n_rows, dtype=np.intp)        # each row's place in its block
    rank[order] = np.arange(n_rows) - np.repeat(r_start, n_r)

    # each block's columns, sorted, and each entry's place among them
    row_block = block[row]
    key, pos = np.unique(row_block * width + col, return_inverse=True)
    key_block, key_col = np.divmod(key, width)
    n_c = np.bincount(key_block, minlength=n_blocks)
    c_start = np.cumsum(n_c) - n_c
    n_h = np.bincount(key_block[key_col < kept], minlength=n_blocks)
    pos -= c_start[row_block]

    # shape groups in order of their first block; every group's gather
    # indices are one (m, r, nh + ng) stretch of a flat array
    groups = {}
    for b, shape in enumerate(zip(n_r.tolist(), n_h.tolist(), (n_c - n_h).tolist())):
        groups.setdefault(shape, []).append(b)
    groups = {shape: np.array(bs) for shape, bs in groups.items()}
    by_group = np.concatenate(list(groups.values()))
    size = (n_r * n_c)[by_group]
    start = np.empty(n_blocks, dtype=np.intp)
    start[by_group] = np.cumsum(size) - size
    flat = np.full(int(size.sum()), -1)
    flat[start[row_block] + rank[row] * n_c[row_block] + pos] = val
    out = []
    for (r, nh, ng), bs in groups.items():
        n = r * (nh + ng)
        idx = flat[start[bs[0]]:start[bs[0]] + len(bs) * n]
        # a block's H and G indices split its bytes at a fixed place
        classes, reps, inverse = {}, [], []
        for i, k in enumerate(idx.reshape(len(bs), n)):
            c = classes.setdefault(k.tobytes(), len(classes))
            if c == len(reps):
                reps.append(i)
            inverse.append(c)
        rows = order[r_start[bs][:, None] + np.arange(r)]
        cols = key_col[c_start[bs][:, None] + np.arange(nh + ng)]
        idx = idx.reshape(len(bs), r, nh + ng)[reps]
        out.append((rows, cols[:, :nh], cols[:, nh:] - kept, idx[:, :, :nh],
                    idx[:, :, nh:], np.array(inverse)))
    return out


def _block_sv2(vals, blocks, whiten):
    """Squared singular values of the (whitened) channel, block by block.

    ``vals`` are a program's distinct replay and ``blocks`` its
    ``_row_blocks``; each shape group's H and G come out of them with one
    take each, for one block per class. Single-row blocks are closed
    form, |h|^2 / (1 + |g|^2); larger ones build their block of
    sigma = I + G G^H and go through ``_whitened_sv2`` (identity when not
    whitening). The class results are expanded to every block through
    the inverse index, so each column, and the order of the columns,
    is what scoring every block would give. Returns (batch, n).
    """
    vals = np.concatenate([vals, np.zeros((1, vals.shape[1]))])
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
            sigma = (gb @ np.conj(np.swapaxes(gb, -1, -2)) + np.eye(rows.shape[1])
                     if whiten else None)
            sv2 = _whitened_sv2(hb, sigma)
        out.append(sv2[:, inverse].reshape(len(sv2), -1))
    return np.concatenate(out, axis=1)


def _sweep_arms(sched: Schedule, plan: SimPlan, arms) -> list:
    """Score every arm on one seeded stream of fading draws.

    An arm is ``(program, columns, whitenings)``: the program replays
    once per batch on the shared draw, restricted to ``columns`` (the
    rows of the draw it reads, or None for all of them), and each entry
    of ``whitenings`` scores the batch once, with the true noise
    covariance (True) or the identity (False). Each call splits every
    arm's program into expression classes once (``_distinct``), so a
    batch replays each distinct value and scores each distinct block a
    single time, and the results are repeated for their copies. Scoring
    reads the compact replay block by block, through gather indices
    found once per program from the kept rows' supports; no dense H or G
    is built. Returns one SweepResult per (arm, whitening), in order.
    """
    n_edges = arms[0][0].n_edges
    tallies = []     # per arm: distinct replay, blocks, thresholds, counts per scoring
    for prog, _, whitenings in arms:
        thr = _thresholds(plan, sched, len(prog.kept_rows))
        steps, rows, first = _distinct(prog)
        tallies.append(((steps, rows), _row_blocks(prog, first), thr,
                        [dict.fromkeys(thr, 0) for _ in whitenings]))

    children = np.random.SeedSequence(plan.seed).spawn(
        -(-plan.trials // plan.batch))
    for k, child in enumerate(children):
        b = min(plan.batch, plan.trials - k * plan.batch)
        rng = np.random.default_rng(child)
        gains = _draw_gains(rng, n_edges, plan.batch)[:, :b]
        for (_, cols, whitenings), (replay, blocks, thr, counts) in zip(arms, tallies):
            vals = _replay(*replay, gains if cols is None else gains[cols])
            for whiten, count in zip(whitenings, counts):
                sv2 = _block_sv2(vals, blocks, whiten)
                for db in plan.snr_db:
                    bits = np.log2(1.0 + 10.0 ** (db / 10.0) * sv2).sum(axis=1)
                    for r in plan.rates:
                        count[(db, r)] += int((bits < thr[(db, r)]).sum())

    results = []
    for (prog, _, _), (*_, counts) in zip(arms, tallies):
        for count in counts:
            est = {(db, r): OutageEstimate(db, r, count[(db, r)], plan.trials)
                   for db in plan.snr_db for r in plan.rates}
            slopes = {r: fit_slope([est[(db, r)] for db in plan.snr_db],
                                   plan.count_floor, plan.fit_points)
                      for r in plan.rates}
            results.append(SweepResult(est, slopes, plan, prog.total_slots,
                                       plan.cycles * sched.symbols_per_cycle))
    return results


def outage_sweep(net: Network, sched: Schedule, plan: SimPlan) -> SweepResult:
    """Estimate outage probability over the plan's SNR x rate grid.

    One propagation and one SVD per fading realization serve every
    grid cell; outage is declared when the window's mutual information
    falls below the rate budget of the cell.
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
        raise ValueError("schedule carries no path decomposition")
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

"""Induced linear channel of a schedule over a fading realization.

Running a schedule for a whole number of cycles turns the network into
one linear map: sink observations = H * (source symbols) + n, where n
has covariance sigma = I + G G^H and G collects the amplified relay
noise. Everything here is probe based: symbols and relay noises are
tracked as separate columns through the same register arithmetic the
real network would apply, so H, G and sigma come out of one pass with
no formula specific to any topology.

Reception is slot driven: a node listens in exactly the slots where
one of its scheduled incoming edges is active, and then hears every
transmitting neighbor, wanted or not. That single rule produces the
leakage terms (back-flow, inter-path interference, direct-link mixing)
that the scheduling machinery is designed to keep harmless.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .netgraph import Network
from .protocol import Schedule


class PropagationError(ValueError):
    """The schedule cannot be run on this network."""


class HalfDuplexError(PropagationError):
    """A half-duplex node is scheduled to talk and listen in one slot."""


@dataclass(frozen=True)
class FadingRealization:
    """One complex gain per directed edge."""

    gains: dict

    @classmethod
    def sample(cls, net: Network, rng, reciprocal: bool = False):
        """Draw i.i.d. unit-variance complex Gaussian gains; with
        ``reciprocal`` the two directions of a link share one draw."""
        rng = np.random.default_rng(rng)
        gains = {}
        for pair in sorted(net.edge_set):
            if reciprocal and (pair[1], pair[0]) in gains:
                gains[pair] = gains[(pair[1], pair[0])]
            else:
                re, im = rng.standard_normal(2)
                gains[pair] = complex(re, im) / np.sqrt(2.0)
        return cls(gains=gains)


@dataclass
class TransferModel:
    """Linear channel induced by (net, sched, fading) over a window.

    ``h`` is rows x symbols, ``noise`` is rows x forwarded-noise, and
    ``sigma = I + noise @ noise^H``. ``input_slots[j]`` is the absolute
    slot in which symbol j entered the source; ``output_slots[i]`` is
    the absolute slot of sink reception i. ``total_slots`` counts the
    whole window including the discarded start-up, which is what rate
    accounting must divide by.
    """

    h: np.ndarray
    noise: np.ndarray
    sigma: np.ndarray
    input_slots: tuple
    output_slots: tuple
    total_slots: int
    cycle_length: int
    n_cycles: int
    net: Network = None
    sched: Schedule = None
    fading: FadingRealization = None

    @property
    def n_rows(self):
        return self.h.shape[0]

    @property
    def n_symbols(self):
        return self.h.shape[1]


class PropagationProgram:
    """Slot-by-slot instruction list for one (net, sched, cycles).

    Compiling once and running over many gain draws is what makes the
    outage sweeps affordable: ``run`` takes a (n_edges, batch) gain
    array and returns stacked H and G for the whole batch.
    """

    def __init__(self, net: Network, sched: Schedule, cycles: int):
        if cycles < 1:
            raise PropagationError("need at least one cycle")
        self.net = net
        self.sched = sched
        self.cycles = cycles
        N = sched.cycle_length
        D = sched.steady_state_delay
        self.total_slots = D + cycles * N
        self.keep_from = D

        sid, did = net.source.id, net.sink.id
        tx = {n.id: set() for n in net.nodes}
        rx = {n.id: set() for n in net.nodes}
        for (tail, head), slots in sched.activations.items():
            if (tail, head) not in net.edge_set:
                raise PropagationError(f"schedule uses missing edge {(tail, head)}")
            tx[tail] |= slots
            rx[head] |= slots
        if rx[sid]:
            raise PropagationError("source is scheduled to receive")
        for n in net.nodes:
            clash = tx[n.id] & rx[n.id]
            if clash and n.duplex != "full":
                raise HalfDuplexError(
                    f"{n.id} transmits and receives in slots {sorted(clash)}")
            if clash and n.id in sched.buffer_primes:
                raise PropagationError("buffered relays must be half duplex")

        self.edge_index = {pair: i for i, pair in enumerate(sorted(net.edge_set))}
        self.n_edges = len(self.edge_index)
        self.buffered = dict(sched.buffer_primes)

        # one pass over the window, recording everything that happens
        self.injections = []      # (slot, symbol index)
        self.slot_ops = []        # per slot: (sym_idx | None, recvs, row | None)
        n_sym = 0
        n_noise = 0
        self.rows = []            # absolute slot per sink row, in order
        for t in range(self.total_slots):
            s = t % N
            talkers = {u for u in tx if s in tx[u]}
            sym_idx = None
            if sid in talkers:
                sym_idx = n_sym
                n_sym += 1
                self.injections.append((t, sym_idx))
            recvs = []
            row = None
            for n in net.nodes:
                u = n.id
                if s not in rx[u]:
                    continue
                terms = []
                for w in net.in_neighbors[u]:
                    if w not in talkers:
                        continue
                    gidx = self.edge_index[(w, u)]
                    if w == sid:
                        terms.append(("sym", sym_idx, gidx))
                    else:
                        terms.append(("reg", w, gidx))
                if u == did:
                    row = (t, terms)
                    self.rows.append(t)
                else:
                    recvs.append((u, terms, n_noise))
                    n_noise += 1
            self.slot_ops.append((sym_idx, recvs, row))
        self.n_symbols = n_sym
        self.n_noise = n_noise
        self.kept_rows = [i for i, t in enumerate(self.rows) if t >= self.keep_from]

        # structural support, so every run prunes the same symbol columns;
        # each H entry sums gain products with coefficient +1, so unit
        # gains leave exactly the structurally nonzero entries nonzero
        h, _ = self._execute(np.ones((self.n_edges, 1), dtype=complex))
        alive = np.abs(h[0]).max(axis=0) > 0
        self.kept_cols = [j for j in range(n_sym) if alive[j]]

    def _execute(self, gains):
        """Run the program; gains has shape (n_edges, batch).

        Returns (h, g) with shapes (batch, kept rows, n_symbols) and
        (batch, kept rows, n_noise); symbol columns are NOT pruned here.
        """
        batch = gains.shape[1]
        P = self.n_symbols + self.n_noise
        regs = {}
        queues = {u: deque([None] * b) for u, b in self.buffered.items()}
        out = []

        def signal(w):
            if w in queues:
                q = queues[w]
                return q.popleft() if q else None
            return regs.get(w)

        def gather(terms, pulled):
            acc = np.zeros((P, batch), dtype=complex)
            for kind, key, gidx in terms:
                if kind == "sym":
                    acc[key] += gains[gidx]
                    continue
                vec = pulled[key]
                if vec is not None:
                    acc += gains[gidx] * vec
            return acc

        for sym_idx, recvs, row in self.slot_ops:
            # pull every transmitting register once, FIFO pops included
            senders = {key for _, terms, *_ in list(recvs) + ([row] if row else [])
                       for kind, key, _ in terms if kind == "reg"}
            pulled = {w: signal(w) for w in senders}
            updates = {}
            for u, terms, noise_idx in recvs:
                acc = gather(terms, pulled)
                acc[self.n_symbols + noise_idx] += 1.0
                updates[u] = acc
            if row is not None:
                out.append(gather(row[1], pulled))
            for u, vec in updates.items():
                if u in queues:
                    queues[u].append(vec)
                else:
                    regs[u] = vec

        full = np.stack(out, axis=0) if out else np.zeros((0, P, batch), complex)
        full = full[self.kept_rows]
        full = np.moveaxis(full, 2, 0)  # (batch, rows, P)
        return full[:, :, :self.n_symbols], full[:, :, self.n_symbols:]

    def run(self, gains):
        """Batched execution with structural column pruning applied."""
        h, g = self._execute(gains)
        return h[:, :, self.kept_cols], g

    def gain_vector(self, fading: FadingRealization, batch: int = 1):
        vec = np.empty((self.n_edges, batch), dtype=complex)
        for pair, i in self.edge_index.items():
            vec[i] = fading.gains[pair]
        return vec


def propagate(net: Network, sched: Schedule, fading: FadingRealization,
              cycles: int = 4) -> TransferModel:
    """Build the induced linear channel over ``cycles`` steady cycles.

    The window is steady_state_delay + cycles * cycle_length slots;
    rows from the start-up are dropped and symbols that never reach a
    kept row lose their columns.
    """
    prog = PropagationProgram(net, sched, cycles)
    h, g = prog.run(prog.gain_vector(fading))
    h, g = h[0], g[0]
    sigma = np.eye(h.shape[0]) + g @ g.conj().T
    inj = {j: t for t, j in prog.injections}
    return TransferModel(
        h=h,
        noise=g,
        sigma=sigma,
        input_slots=tuple(inj[j] for j in prog.kept_cols),
        output_slots=tuple(prog.rows[i] for i in prog.kept_rows),
        total_slots=prog.total_slots,
        cycle_length=sched.cycle_length,
        n_cycles=cycles,
        net=net,
        sched=sched,
        fading=fading,
    )


# ---------------------------------------------------------------------------
# structure analysis

@dataclass(frozen=True)
class StructureCertificate:
    kind: str                 # diagonal | lower-triangular | upper-triangular |
                              # block-lower-triangular | none
    thread_ok: bool
    max_thread_error: float
    main_columns: tuple = ()
    notes: tuple = ()


# an H entry counts as nonzero above this fraction of max|H|
_SUPPORT_TOL = 1e-10
# relative tolerance of the thread check against the expected coefficient
_THREAD_TOL = 1e-9


def _support(h):
    scale = np.abs(h).max()
    if scale == 0:
        return np.zeros(h.shape, dtype=bool)
    return np.abs(h) > _SUPPORT_TOL * scale


def _expected_thread(model: TransferModel):
    """Per-row expected dominant coefficient from the schedule alone.

    Rows delivered by a path carry that path's gain product; when the
    source talks to the sink every slot (buffered or slotted direct
    operation) the newest symbol rides the direct gain instead.
    """
    sched, fading, net = model.sched, model.fading, model.net
    direct_always = (sched.direct_link_mode == "buffered"
                     or sched.params.get("direct_every_slot"))
    sd = (net.source.id, net.sink.id)
    products = []
    if sched.backbone is not None:
        for path in sched.backbone:
            prod = 1.0 + 0.0j
            for pair in zip(path, path[1:]):
                prod *= fading.gains[pair]
            products.append(prod)
    expected = []
    for slot in model.output_slots:
        if direct_always:
            expected.append(fading.gains[sd])
            continue
        p = sched.deliveries.get(slot % sched.cycle_length)
        expected.append(products[p] if p is not None else None)
    return expected


def structure_certificate(model: TransferModel) -> StructureCertificate:
    """Classify H and check its dominant entries against the schedule.

    Kinds, most specific first: diagonal (one entry per row, strictly
    advancing), lower-triangular (newest symbol of each row strictly
    advancing), upper-triangular (oldest symbol strictly advancing),
    block-lower-triangular (no row touches a later cycle's symbols).
    The thread check compares the expected per-row coefficient with the
    matching entry of H at relative tolerance ``_THREAD_TOL``.
    """
    h = model.h
    if h.size == 0:
        return StructureCertificate("none", False, np.inf, notes=("empty",))
    sup = _support(h)
    per_row = [np.flatnonzero(r) for r in sup]
    if any(len(nz) == 0 for nz in per_row):
        return StructureCertificate("none", False, np.inf,
                                    notes=("empty row",))

    maxc = [nz[-1] for nz in per_row]
    minc = [nz[0] for nz in per_row]
    singleton = all(len(nz) == 1 for nz in per_row)
    increasing_max = all(b > a for a, b in zip(maxc, maxc[1:]))
    increasing_min = all(b > a for a, b in zip(minc, minc[1:]))

    if singleton and increasing_max:
        kind, main = "diagonal", maxc
    elif increasing_max:
        kind, main = "lower-triangular", maxc
    elif increasing_min:
        kind, main = "upper-triangular", minc
    else:
        # start-up is always whole cycles, so absolute cycle indices align
        row_cycle = [t // model.cycle_length for t in model.output_slots]
        col_cycle = [t // model.cycle_length for t in model.input_slots]
        blockish = all(
            col_cycle[c] <= row_cycle[r]
            for r in range(len(per_row)) for c in per_row[r])
        if blockish:
            kind, main = "block-lower-triangular", maxc
        else:
            return StructureCertificate("none", False, np.inf)

    expected = _expected_thread(model)
    err = 0.0
    ok = True
    for r, exp in enumerate(expected):
        if exp is None:
            continue
        got = h[r, main[r]]
        e = abs(got - exp) / max(abs(exp), 1e-300)
        err = max(err, e)
        if e > _THREAD_TOL:
            ok = False
    return StructureCertificate(kind, ok, err, main_columns=tuple(main))


def extract_blocks(model: TransferModel):
    """Split H into its dominant diagonal and the leakage remainder.

    Returns (h_diag, h_rest, independent): h_diag keeps only each row's
    thread entry, h_rest the others. ``independent`` is True when no
    single edge gain feeds both parts, established by running one
    compiled program with each edge gain perturbed in turn and watching
    which entries move.
    """
    cert = structure_certificate(model)
    if cert.kind == "none":
        raise PropagationError("channel has no triangular structure")
    h = model.h
    diag_mask = np.zeros(h.shape, dtype=bool)
    diag_mask[np.arange(h.shape[0]), list(cert.main_columns)] = True
    h_diag = np.where(diag_mask, h, 0)
    h_rest = h - h_diag

    independent = True
    if np.abs(h_rest).max() > 0 and model.net is not None:
        scale = np.abs(h).max()
        prog = PropagationProgram(model.net, model.sched, model.n_cycles)
        base = prog.gain_vector(model.fading)
        for i in range(prog.n_edges):
            gains = base.copy()
            gains[i] *= 1.001 + 0.002j
            moved = np.abs(prog.run(gains)[0][0] - h) > 1e-6 * scale
            if (moved & diag_mask).any() and (moved & ~diag_mask).any():
                independent = False
                break
    return h_diag, h_rest, independent

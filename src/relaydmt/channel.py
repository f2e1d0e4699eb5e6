"""Induced linear channel of a schedule over a fading realization.

Running a schedule for a whole number of cycles turns the network into
one linear map: sink observations = H * (source symbols) + n, where n
has covariance sigma = I + G G^H and G collects the amplified relay
noise. Symbols and relay noises are tracked as separate columns through
the same register arithmetic the real network would apply, so H, G and
sigma come out of one pass with no formula specific to any topology.
Compilation walks that arithmetic over structural supports (the columns
each register value can reach), and every run then works on those
supports alone. A slow-fading schedule repeats one slotted cycle, so
the walk stops once the relays' state repeats, shifted by one cycle's
values, symbols and noises, and the later cycles are derived from the
walked prefix; a program whose supports keep growing is walked to the
end. A compiled ``PropagationProgram`` also owns five analyses of its
structure, each built on first use and kept: the full step list of the
window, which ``run`` and ``row_values`` replay; the shape of H from
the kept rows' supports, found with one sort over every row's H
entries, which no draw or threshold moves (read by
``structure_certificate`` and ``extract_blocks``); an edge bitmask per
support entry, so ``extract_blocks`` probes only edges that reach both
a thread and a leakage entry; the expression classes, values that
repeat the same arithmetic on the same operands as one cycle's rows
repeat in the next (``distinct_values`` replays each once); and
``row_blocks``, the independent row blocks the sweeps score from them.
The sweeps read only the last two, so they never build the repeated
cycles' steps.

Reception is slot driven: a node listens in exactly the slots where
one of its scheduled incoming edges is active, and then hears every
transmitting neighbor, wanted or not. That single rule produces the
leakage terms (back-flow, inter-path interference, direct-link mixing)
that the scheduling machinery is designed to keep harmless.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

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
        ``reciprocal`` the two directions of a link share one draw.

        Edges take their draws in sorted (tail, head) order, one
        (real, imaginary) pair each, and a reverse edge reuses its
        earlier partner's. All pairs come from one ``standard_normal``
        call, so the generator's stream, and every gain's bytes, are
        those of one two-value draw per edge."""
        rng = np.random.default_rng(rng)
        pairs = sorted(net.edge_set)
        shared = {p for p in pairs if reciprocal and p[::-1] < p and p[::-1] in net.edge_set}
        # divide the real parts, not the complex gain: multiplying by 1/sqrt(2)
        # would move the last bit of most draws
        draws = iter((rng.standard_normal((len(pairs) - len(shared), 2)) / np.sqrt(2.0)).tolist())
        gains = {}
        for pair in pairs:
            gains[pair] = gains[pair[::-1]] if pair in shared else complex(*next(draws))
        return cls(gains=gains)


@dataclass
class TransferModel:
    """Linear channel induced by (net, sched, fading) over a window.

    ``h`` is rows x symbols, ``noise`` is rows x forwarded-noise, and
    ``sigma = I + noise @ noise^H``. ``input_slots[j]`` is the absolute
    slot in which symbol j entered the source; ``output_slots[i]`` is
    the absolute slot of sink reception i. ``total_slots`` counts the
    whole window including the discarded start-up, which is what rate
    accounting must divide by. ``program`` is the compiled
    ``PropagationProgram`` that produced h and noise from ``fading``; it
    carries the network, schedule and cycle count, and later analysis
    reruns it instead of compiling again.
    """

    h: np.ndarray
    noise: np.ndarray
    sigma: np.ndarray
    input_slots: tuple
    output_slots: tuple
    total_slots: int
    cycle_length: int
    program: PropagationProgram
    fading: FadingRealization

    @property
    def n_rows(self):
        return self.h.shape[0]

    @property
    def n_symbols(self):
        return self.h.shape[1]


class PropagationProgram:
    """Slot-by-slot instruction list for one (net, sched, cycles).

    Compiling once and running over many gain draws is what makes the
    outage sweeps affordable. The constructor validates the schedule
    against the network and compiles in one walk, which stops once the
    relays' state repeats a cycle on (see ``_compile``). Both outputs
    come from one replay of a (n_edges, batch) gain array: ``row_values``
    gives the kept rows' compact values, and ``run`` scatters them into
    stacked dense H and G; both replay ``_steps``, the window's full step
    list, which is built on their first use. Compilation fixes each
    value's support, so ``kept_cols`` (symbols some kept row reaches) and
    ``row_support`` (the [h | g] columns of each kept row, in its value's
    layout) are structural, not measured on a draw. A draw holds one
    gain per edge, so every node must have a single antenna.
    """

    def __init__(self, net: Network, sched: Schedule, cycles: int):
        if isinstance(cycles, bool) or not isinstance(cycles, numbers.Integral):
            raise PropagationError(f"cycles must be an integer, got {cycles!r}")
        if cycles < 1:
            raise PropagationError("need at least one cycle")
        multi = [n.id for n in net.nodes if n.antennas > 1]
        if multi:
            raise PropagationError(
                f"nodes with more than one antenna cannot be propagated: "
                f"{', '.join(multi)}")
        self.net = net
        self.sched = sched
        self.cycles = cycles
        N = sched.cycle_length
        if N < 1:
            raise PropagationError("need a cycle of at least one slot")
        D = sched.steady_state_delay
        self.total_slots = D + cycles * N
        self.keep_from = D

        tx = {n.id: set() for n in net.nodes}
        rx = {n.id: set() for n in net.nodes}
        for (tail, head), slots in sched.activations.items():
            if (tail, head) not in net.edge_set:
                raise PropagationError(f"schedule uses missing edge {(tail, head)}")
            if slots and (min(slots) < 0 or max(slots) >= N):
                raise PropagationError(
                    f"edge {(tail, head)} has a slot outside 0..{N - 1}")
            tx[tail] |= slots
            rx[head] |= slots
        if rx[net.source.id]:
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
        self._compile(tx, rx)

    def _compile(self, tx, rx):
        """Walk the window over structural supports until it repeats.

        Who talks and who listens depends only on the cycle phase, so each
        phase's talkers, listeners and each listener's talking
        in-neighbours (with their edge indexes) are tabled once. Each slot
        pulls every talking register once (FIFO pops included), then
        builds the value each listener hears. That value sums gain times
        earlier values, so its support (the symbol columns
        0..n_symbols-1 and noise columns n_symbols + k it reaches) is the
        union of theirs. Its layout is a tuple: the first term's support,
        then each later term's new columns, then its own noise column.
        Each term records where its source lands, as a slice when
        contiguous. A term whose support is disjoint from the layout so
        far is appended to it whole; only a term that overlaps it makes
        a column -> position dict, which places the overlap and appends
        the new columns. Relays store their value after the slot and the
        sink's becomes a row. Each value also gets its expression class
        (see ``_classes``) from its step key and its sources' classes.

        The walk stops early once the relays' state repeats. At each
        cycle boundary t = D + kN, k >= 1 (D = ``keep_from``), it compares
        every register and FIFO slot, empty ones included, with the state
        at t - N: the state repeats when each held value is the earlier
        one's id plus dv (the values made per cycle), has its support
        moved by ds (the symbols injected per cycle) on symbol columns and
        by dn (the relay noises per cycle) on noise columns, and has its
        class. Then every later slot is the slot N earlier, shifted. The
        step of slot t reads only the phase t mod N, the supports and
        classes of the values it pulls, and the next symbol and noise
        columns; each of these is the slot t - N's, shifted (supports
        by an injective column map that keeps order and overlaps, so
        layouts and term positions are equal). So slot t makes the values
        of slot t - N shifted, classes included, and leaves the state at
        t + 1 the shift of the state at t - N + 1; by induction every
        later slot follows. The window's later cycles are therefore the
        reference cycle [t - N, t) shifted k times, and everything below
        is derived from the walked prefix and that period with no walk
        over them. A program whose state never repeats (growing
        supports, as on KPP(4,5)) is walked to the end.

        Liveness runs over every value id, reading a repeated value's
        sources off its reference step with the offset k * dv. Since the
        reference cycle starts at or after D, its rows are kept, and a
        live value in a repeated cycle has its reference copy live (its
        chain to a kept row, shifted back, ends at a kept row too): every
        class's first live copy lies in the walked prefix. The full step
        list, which only ``run``, ``row_values`` and ``_masks`` read, is
        built on first use (``_steps``).
        """
        net, N, D = self.net, self.sched.cycle_length, self.keep_from
        sid, did = net.source.id, net.sink.id
        whole, part = divmod(self.total_slots, N)
        n_symbols = whole * len(tx[sid]) + sum(s < part for s in tx[sid])
        injections = []           # (slot, symbol index)
        slots = []                # absolute slot per sink row, in order
        regs = {}
        queues = {u: deque([None] * b) for u, b in self.buffered.items()}
        # per value, in parallel: its support (its layout), terms, adds
        # noise, class; a class is numbered in order of its first value
        sups, terms, noises, cls = [], [], [], []
        keys = {}                 # step key -> class
        row_values = []           # per row: its value

        # per phase: whether the source talks, the relays that talk, the
        # relays that listen with their talking in-neighbours, and the
        # sink's talking in-neighbours (None when it does not listen); the
        # in-neighbours come in node order, so the terms' order, and with
        # it every layout and summation order, does not depend on set order
        in_edges = {u: [(n.id, self.edge_index[(n.id, u)]) for n in net.nodes
                        if n.id in ins] for u, ins in net.in_neighbors.items()}
        talk, feeds = [set() for _ in range(N)], [{} for _ in range(N)]
        for u in tx:
            for s in tx[u]:
                talk[s].add(u)
        for u in in_edges:
            for s in rx[u]:
                feeds[s][u] = []
        for u, ins in in_edges.items():
            for w, edge in ins:
                for s in tx[w] & rx[u]:
                    feeds[s][u].append((w, edge))
        phases = []
        for talkers, heard in zip(talk, feeds):
            sink = heard.pop(did, None)
            phases.append((sid in talkers, list(talkers - {sid}), list(heard.items()), sink))

        def combine(feeds, pulled, noise):
            layout, out, index = (), [], None   # index: column -> position
            key = [0, noise is not None]        # size, noise flag, then per term
            for w, edge in feeds:
                if w == sid:    # the symbol injected this slot
                    src, src_cls, sup = None, None, (len(injections) - 1,)
                else:
                    src = pulled[w]
                    if src is None:
                        continue
                    src_cls, sup = cls[src], sups[src]
                n = len(layout)
                if index is None and (not n or set(layout).isdisjoint(sup)):
                    layout += sup
                    where = slice(n, n + len(sup))
                    key += src_cls, edge, n, n + len(sup)
                else:
                    if index is None:
                        index = dict(zip(layout, range(n)))
                    pos = [index.setdefault(c, len(index)) for c in sup]
                    if pos == list(range(pos[0], pos[0] + len(pos))):
                        where = slice(pos[0], pos[-1] + 1)
                        key += src_cls, edge, pos[0], pos[-1] + 1
                    else:
                        where = np.array(pos)
                        key += src_cls, edge, where.tobytes()
                out.append((src, edge, where))
            if index is not None:
                layout = tuple(index)
            if noise is not None:
                layout += (noise,)
            key[0] = len(layout)
            sups.append(layout)
            terms.append(out)
            noises.append(noise is not None)
            cls.append(keys.setdefault(tuple(key), len(keys)))
            return len(sups) - 1

        def shifted(a, b):
            """Whether held value b is held value a one cycle on."""
            if a is None or b is None:
                return a is b
            return (b - a == dv and cls[a] == cls[b]
                    and sups[b] == tuple(c + ds if c < n_symbols else c + dn
                                         for c in sups[a]))

        noise_col = n_symbols     # the next relay noise column
        walked, mark = self.total_slots, None
        for t in range(self.total_slots):
            if t >= D and (t - D) % N == 0:
                if mark is not None:
                    nv, ni, nc, nr, old_regs, old_queues = mark
                    dv, ds, dn = len(sups) - nv, len(injections) - ni, noise_col - nc
                    if (all(shifted(old_regs.get(u), v) for u, v in regs.items())
                            and all(len(q) == len(old_queues[u])
                                    and all(map(shifted, old_queues[u], q))
                                    for u, q in queues.items())):
                        walked = t
                        break
                mark = (len(sups), len(injections), noise_col, len(slots), dict(regs),
                        {u: tuple(q) for u, q in queues.items()})
            injects, pullers, listeners, sink = phases[t % N]
            if injects:
                injections.append((t, len(injections)))
            pulled = {}
            for w in pullers:
                q = queues.get(w)
                pulled[w] = regs.get(w) if q is None else q.popleft() if q else None
            updates = []
            for u, feeds in listeners:
                updates.append((u, combine(feeds, pulled, noise_col)))
                noise_col += 1
            if sink is not None:
                slots.append(t)
                row_values.append(combine(sink, pulled, None))
            for u, v in updates:
                if u in queues:
                    queues[u].append(v)
                else:
                    regs[u] = v
        # the reference cycle starts with the values, symbols and rows
        # counted at its mark, and repeats k = 1..reps times past the walk
        reps = (self.total_slots - walked) // N
        if not reps:
            dv = ds = dn = 0
            nv, ni, nr = len(sups), len(injections), len(slots)
        self._walked_slots = walked
        self._period = (nv, len(sups), dv)

        def repeat(xs, step):
            return [x + k * step for k in range(1, reps + 1) for x in xs]

        self.n_symbols = n_symbols
        self.n_noise = noise_col - n_symbols + reps * dn
        self.injections = injections + [(t + k * N, j + k * ds) for k in range(1, reps + 1)
                                        for t, j in injections[ni:]]
        self.rows = slots + repeat(slots[nr:], N)
        self.kept_rows = [i for i, t in enumerate(self.rows) if t >= D]
        walked_rows = [row_values[i] for i in self.kept_rows if i < len(row_values)]
        self._row_values = walked_rows + repeat(row_values[nr:], dv)

        # keep only the values a kept row depends on; a repeated value
        # reads its reference step's sources, k * dv on
        live = bytearray(len(sups) + reps * dv)
        for v in self._row_values:
            live[v] = 1
        for k in reversed(range(reps + 1)):
            off = k * dv
            for v in reversed(range(nv if k else 0, len(sups))):
                if live[v + off]:
                    for src, _, _ in terms[v]:
                        if src is not None:
                            live[src + off] = 1
        self._live = live
        self._walk = ([len(s) for s in sups], terms, noises, cls)

        # per kept row, the columns of [h | g] it reaches, in layout order:
        # the walked rows' layouts, then the reference cycle's shifted by
        # k * ds on symbol columns and k * dn on noise columns, all mapped
        # through one column map
        ref = [sups[v] for v in row_values[nr:]]
        sizes = [len(sups[v]) for v in walked_rows] + [len(s) for s in ref] * reps
        sup = np.fromiter(chain.from_iterable(sups[v] for v in walked_rows),
                          dtype=np.intp)
        if reps:
            ref = np.fromiter(chain.from_iterable(ref), dtype=np.intp)
            step = np.where(ref < n_symbols, ds, dn)
            sup = np.concatenate([sup, (ref + np.arange(1, reps + 1)[:, None] * step).ravel()])
        kept = np.zeros(self.n_symbols + self.n_noise, dtype=bool)
        kept[sup] = True                  # symbols some kept row reaches
        kept[self.n_symbols:] = True      # and every noise column
        self.kept_cols = np.flatnonzero(kept[:self.n_symbols]).tolist()
        self._width = int(kept.sum())
        sup = (np.cumsum(kept) - 1)[sup]
        self._scatter = sup + np.repeat(np.arange(len(sizes)) * self._width, sizes)

    @cached_property
    def row_support(self):
        """Per kept row, the [h | g] columns it reaches in its value's
        layout, read back off ``_scatter``."""
        row, col = np.divmod(self._scatter, self._width or 1)
        ends = np.cumsum(np.bincount(row, minlength=len(self.kept_rows))).tolist()
        return [col[a:b] for a, b in zip([0] + ends, ends)]

    @cached_property
    def _steps(self):
        """The live steps of the whole window, in value order, each freeing
        the values it reads last: (value, size, terms, noise, frees). A
        repeated value's step is its reference step, with sources moved
        k * dv on. ``run``, ``row_values`` and ``_masks`` replay them; no
        sweep does."""
        sizes, terms, noises, _ = self._walk
        start, end, dv = self._period
        steps = []
        for v, flag in enumerate(self._live):
            if not flag:
                continue
            if v < end:
                steps.append((v, sizes[v], terms[v], noises[v]))
                continue
            k, i = divmod(v - start, dv)
            i, off = start + i, k * dv
            steps.append((v, sizes[i], [(src if src is None else src + off, gidx, where)
                                        for src, gidx, where in terms[i]], noises[i]))
        return _with_frees(steps)

    def row_values(self, gains):
        """Replay the program; gains has shape (n_edges, batch).

        Returns the kept rows' values concatenated in row order, one
        (sum of row support sizes, batch) array, each row laid out as its
        ``row_support``. Each step adds its terms in the program's order
        on compact (support, batch) arrays, so every entry is the same
        sum of the same products as a dense replay.
        """
        return _replay(self._steps, self._row_values, gains)

    def run(self, gains):
        """``row_values`` scattered into dense (h, g) with shapes
        (batch, kept rows, kept columns) and (batch, kept rows, n_noise)."""
        batch = gains.shape[1]
        out = np.zeros((batch, len(self._row_values) * self._width), dtype=complex)
        out[:, self._scatter] = self.row_values(gains).T
        out = out.reshape(batch, len(self._row_values), self._width)
        kept = len(self.kept_cols)
        return out[:, :, :kept], out[:, :, kept:]

    def gain_vector(self, fading: FadingRealization):
        """One draw's gains as an (n_edges, 1) column."""
        vec = np.empty((self.n_edges, 1), dtype=complex)
        for pair, i in self.edge_index.items():
            vec[i] = fading.gains[pair]
        return vec

    @cached_property
    def _structure(self):
        """``_shape`` of the H columns in each kept row's compiled support.

        An entry of ``_scatter`` is row * width + column, so one sort of
        the H entries orders them by row and then by column."""
        width = self._width or 1
        in_h = self._scatter % width < len(self.kept_cols)
        row, col = np.divmod(np.sort(self._scatter[in_h]), width)
        ends = np.cumsum(np.bincount(row, minlength=len(self.kept_rows))).tolist()
        return _shape([col[a:b] for a, b in zip([0] + ends, ends)])

    @cached_property
    def _masks(self):
        """One edge bitmask per entry of ``row_values``, in its order.

        Bit i is set when some term summed into the entry multiplies by edge
        i's gain: a symbol term sets its edge's bit, a register term ORs its
        source entry's mask with its edge's bit, and an own-noise entry gets
        mask 0. Read off the compiled steps, so an entry whose mask lacks
        bit i replays bit-identically whatever edge i's gain is.
        """
        masks = {}
        for v, size, terms, _, frees in self._steps:
            acc = [0] * size
            for src, gidx, where in terms:
                bit = 1 << gidx
                pos = range(size)[where] if isinstance(where, slice) else where
                for p, m in zip(pos, (0,) if src is None else masks[src]):
                    acc[p] |= m | bit
            masks[v] = acc
            for u in frees:
                del masks[u]
        return [m for v in self._row_values for m in masks[v]]

    @cached_property
    def _classes(self):
        """The program's steps and rows with each repeated value kept once.

        Two values are bit-identical on every draw when their step keys are
        equal (size, noise flag, and the ordered terms as class of source,
        edge index and layout positions) and their sources are equal by the
        same rule: both then run the same float operations on the same
        operands. A slow-fading window repeats most values from cycle to
        cycle, shifted in columns but not in layout, so this one rule covers
        periodic and growing programs alike. A step key is one flat tuple:
        size, noise flag, then per term the class of its source, its edge
        and either the start and stop of its slice or the bytes of its
        position array. The third item of a term is an int for a slice and
        bytes for an array, so no two term lists share a key.

        The compile numbers each walked value's class as it goes, and a
        repeated value has its reference value's class. Each class is named
        after its first live copy, which the compile shows lies in the
        walked prefix, so no repeated cycle is visited here.

        Returns (steps, rows, first): the first copies' steps, with sources
        renamed to their classes and frees recomputed; the distinct row
        values in order of first appearance; and for each kept row the
        position in ``distinct_values`` where its first copy's entries
        start.

        Only the sweeps replay classes; ``run`` and ``row_values`` (and so
        ``propagate`` and ``extract_blocks``) replay every step. Replaying
        classes there too ran a prototype's ``structure`` benchmark
        225 -> 284 networks/s (medians of three alternating 36-s runs), but
        ``bench/run.py`` keeps every round's outputs, so its peak RSS read
        68.6 -> 74.1 MB (+8.1%; one pair +12.5%, past the 10% bound). That
        move waits until ``run_rounds`` drops each round's outputs once
        checked.
        """
        sizes, terms, noises, cls = self._walk
        start, end, dv = self._period
        live = self._live
        name = {}                 # class -> its first live copy
        for v in range(end):
            if live[v]:
                name.setdefault(cls[v], v)
        kept = [(v, sizes[v], [(None if src is None else name[cls[src]], gidx, where)
                               for src, gidx, where in terms[v]], noises[v])
                for v in name.values()]
        row_cls = [name[cls[v if v < end else start + (v - start) % dv]]
                   for v in self._row_values]
        rows = list(dict.fromkeys(row_cls))
        at = dict(zip(rows, accumulate([0] + [sizes[v] for v in rows])))
        return _with_frees(kept), rows, [at[c] for c in row_cls]

    def distinct_values(self, gains):
        """Each expression class replayed once on a (n_edges, batch) gain
        array, then one zero row; ``row_blocks`` gathers every kept row's
        values from it, and each structural zero from the zero row."""
        return _replay(*self._classes[:2], gains, zero_rows=1)

    @cached_property
    def row_blocks(self):
        """Independent row blocks of the channel, grouped by shape.

        Rows join a block when they share an H or G column, so after a
        permutation H, G and sigma are block diagonal and the whitened
        spectrum is the union of the blocks' spectra. Every row's gather
        indices point at its first copy in ``distinct_values``; a
        structural zero points at -1, the zero row ``distinct_values`` ends
        with.
        Blocks of one shape whose H and G indices are byte-equal gather
        bit-identical values on every draw, so they form one class.

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
        n_rows, width, kept = len(self.kept_rows), self._width, len(self.kept_cols)
        if not n_rows:
            return []
        # one (row, column, value index) triple per support entry
        row, col = np.divmod(self._scatter, width or 1)
        sizes = np.bincount(row, minlength=n_rows)
        val = np.arange(col.size) + np.repeat(
            np.asarray(self._classes[2]) - np.cumsum(sizes) + sizes, sizes)

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


def _with_frees(steps):
    """Each (value, size, terms, noise) step with, appended, the values it
    is the last step to read, which the replay then frees."""
    last = {src: v for v, _, terms, _ in steps for src, _, _ in terms if src is not None}
    frees = {}
    for src, v in last.items():
        frees.setdefault(v, []).append(src)
    return [(*step, frees.get(step[0], ())) for step in steps]


def _replay(steps, rows, gains, zero_rows=0):
    """Run compiled steps on a (n_edges, batch) gain array and return the
    values named in ``rows``, concatenated in that order, then
    ``zero_rows`` rows of zeros."""
    batch = gains.shape[1]
    vals = {}
    for v, size, terms, noise, frees in steps:
        acc = np.zeros((size, batch), dtype=complex)
        for src, gidx, where in terms:
            if src is None:
                acc[where] += gains[gidx]
            else:
                acc[where] += gains[gidx] * vals[src]
        if noise:
            acc[-1] += 1.0
        vals[v] = acc
        for u in frees:
            del vals[u]
    return np.concatenate([vals[v] for v in rows]
                          + [np.zeros((zero_rows, batch), dtype=complex)])


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
        program=prog,
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


# relative tolerance of the thread check against the expected coefficient
_THREAD_TOL = 1e-9


def _expected_thread(model: TransferModel):
    """Per-row expected dominant coefficient from the schedule alone.

    Rows delivered by a path carry that path's gain product; when the
    source talks to the sink every slot (buffered or slotted direct
    operation) the newest symbol rides the direct gain instead.
    """
    sched, net, fading = model.program.sched, model.program.net, model.fading
    direct_always = sched.uses_direct_link
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


def _shape(per_row):
    """Kind, main columns and notes of H from each row's sorted columns.

    Kinds, most specific first: diagonal (one entry per row, strictly
    advancing), lower-triangular (newest symbol of each row strictly
    advancing), upper-triangular (oldest symbol strictly advancing),
    block-lower-triangular (neither end advances).
    """
    if not any(len(cols) for cols in per_row):
        return "none", (), ("empty",)
    if not all(len(cols) for cols in per_row):
        return "none", (), ("empty row",)
    maxc = [cols[-1] for cols in per_row]
    minc = [cols[0] for cols in per_row]
    if all(b > a for a, b in zip(maxc, maxc[1:])):
        if all(len(cols) == 1 for cols in per_row):
            return "diagonal", maxc, ()
        return "lower-triangular", maxc, ()
    if all(b > a for a, b in zip(minc, minc[1:])):
        return "upper-triangular", minc, ()
    return "block-lower-triangular", maxc, ()


def structure_certificate(model: TransferModel) -> StructureCertificate:
    """Classify H and check its dominant entries against the schedule.

    The kind and each row's main column come from the structural
    supports the compile fixed, not from magnitudes on this draw (see
    ``_shape`` for the kinds). A listener only hears values stored in
    earlier slots and the symbol injected in its own slot, so no row
    reaches a later cycle's symbols and a channel whose rows advance at
    neither end is block lower triangular. The thread check compares the
    expected per-row coefficient with the matching entry of H at
    relative tolerance ``_THREAD_TOL``. A check with no expected value on
    any row has checked nothing, so it does not pass.
    """
    kind, main, notes = model.program._structure
    if kind == "none":
        return StructureCertificate(kind, False, np.inf, notes=notes)
    expected = _expected_thread(model)
    if all(exp is None for exp in expected):
        return StructureCertificate(kind, False, np.inf, main_columns=tuple(main),
                                    notes=("no row has an expected thread value",))
    err = 0.0
    ok = True
    for r, exp in enumerate(expected):
        if exp is None:
            continue
        got = model.h[r, main[r]]
        e = abs(got - exp) / max(abs(exp), 1e-300)
        err = max(err, e)
        if e > _THREAD_TOL:
            ok = False
    return StructureCertificate(kind, ok, err, main_columns=tuple(main))


def extract_blocks(model: TransferModel):
    """Split H into its dominant diagonal and the leakage remainder.

    Returns (h_diag, h_rest, independent): h_diag keeps only each row's
    thread entry, h_rest the others. ``independent`` is True when no
    single edge gain feeds both parts. The program's edge masks name the edges
    that can reach the thread entries and those that can reach the other
    H entries; only an edge in both can feed both, so only those are
    probed, by replaying the model's own program with that edge gain
    perturbed and watching which H entries move. The split takes each
    row's main column from the compiled supports, as
    ``structure_certificate`` does, and runs no thread check.
    """
    prog = model.program
    kind, main, _ = prog._structure
    if kind == "none":
        raise PropagationError("channel has no triangular structure")
    h = model.h
    diag_mask = np.zeros(h.shape, dtype=bool)
    diag_mask[np.arange(h.shape[0]), main] = True
    h_diag = np.where(diag_mask, h, 0)
    h_rest = h - h_diag

    independent = True
    if np.abs(h_rest).max() > 0:
        scale = np.abs(h).max()
        # the kept rows' compact H entries, in row_values order: an entry
        # outside the supports is zero on every draw and never moves, and
        # only an edge in the masks of both a thread entry and another
        # entry can move both
        rows = np.repeat(np.arange(len(main)), [len(c) for c in prog.row_support])
        cols = np.concatenate(prog.row_support)
        in_h = cols < len(prog.kept_cols)
        rows, cols = rows[in_h], cols[in_h]
        thread = cols == np.asarray(main)[rows]
        masks = np.array(prog._masks, dtype=object)[in_h]
        shared = np.bitwise_or.reduce(masks[thread]) & np.bitwise_or.reduce(masks[~thread])
        ref = h[rows, cols]
        base = prog.gain_vector(model.fading)
        for i in range(prog.n_edges):
            if not shared >> i & 1:
                continue
            gains = base.copy()
            gains[i] *= 1.001 + 0.002j
            moved = np.abs(prog.row_values(gains)[in_h, 0] - ref) > 1e-6 * scale
            if (moved & thread).any() and (moved & ~thread).any():
                independent = False
                break
    return h_diag, h_rest, independent

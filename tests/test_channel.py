"""Induced-channel construction against a scalar reference simulator.

The oracle below replays the slot dynamics with plain dicts: every node
state is a mapping from labels (source symbols, relay noises) to complex
weights, advanced one slot at a time. It shares no code with the batched
propagation engine, so agreement pins down H, sigma and the slot
bookkeeping at machine precision.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import deque
from dataclasses import replace
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydmt import (
    Edge,
    FadingRealization,
    HalfDuplexError,
    Network,
    Node,
    PropagationError,
    PropagationProgram,
    Schedule,
    SchedulingError,
    auto_schedule,
    color_kpp_general,
    color_kpp_three,
    extract_blocks,
    fd_schedule,
    kppD_schedule,
    kppI_schedule,
    kpp_network,
    layered_matching_schedule,
    layered_network,
    naf_network,
    naf_schedule,
    propagate,
    saf_network,
    saf_schedule,
    schedule_from_dict,
    schedule_to_dict,
    single_link_network,
    single_link_schedule,
    structure_certificate,
    two_hop_network,
)
from relaydmt import channel
from relaydmt.channel import _expected_thread, _shape
from relaydmt.protocol import PathSet
from test_dmt import _corpus_networks
from test_montecarlo import LIBRARY_ERRORS, PARALLEL_CASES, _parallel_network


# ---------------------------------------------------------------------------
# oracle

def trace_reference(net, sched, fading, cycles):
    """Slot-by-slot symbolic replay of the relaying dynamics.

    Rules: a node listens in the slots where a scheduled incoming edge
    is active and then hears every transmitting in-neighbor; listening
    adds one unit of fresh receiver noise; a relay stores the last thing
    it heard (buffered relays keep a queue primed with silence) and
    transmits its pre-slot state. The sink's own noise is not a column,
    it is the identity part of sigma.

    Returns (h, sigma, input_slots, output_slots).
    """
    N = sched.cycle_length
    total = sched.steady_state_delay + cycles * N
    sid, did = net.source.id, net.sink.id
    tx, rx = {}, {}
    for (a, b), slots in sched.activations.items():
        tx.setdefault(a, set()).update(slots)
        rx.setdefault(b, set()).update(slots)

    state = {}
    queues = {u: [None] * p for u, p in sched.buffer_primes.items()}
    rows, row_slots, sym_slots = [], [], []
    n_sym = 0
    for t in range(total):
        s = t % N
        talkers = {u for u, st in tx.items() if s in st}
        outgoing = {}
        for w in talkers:
            if w == sid:
                outgoing[w] = {("x", n_sym): 1.0 + 0.0j}
            elif w in queues:
                q = queues[w]
                outgoing[w] = q.pop(0) if q else None
            else:
                outgoing[w] = state.get(w)
        if sid in talkers:
            sym_slots.append(t)
            n_sym += 1
        updates = {}
        for u, st in rx.items():
            if s not in st:
                continue
            heard = {}
            for w in net.in_neighbors[u]:
                if w in talkers and outgoing[w] is not None:
                    g = fading.gains[(w, u)]
                    for lbl, c in outgoing[w].items():
                        heard[lbl] = heard.get(lbl, 0.0) + g * c
            if u == did:
                rows.append(heard)
                row_slots.append(t)
            else:
                heard[("n", u, t)] = 1.0 + 0.0j
                updates[u] = heard
        for u, vec in updates.items():
            if u in queues:
                queues[u].append(vec)
            else:
                state[u] = vec

    keep = [i for i, t in enumerate(row_slots) if t >= sched.steady_state_delay]
    kept = [rows[i] for i in keep]
    out_slots = tuple(row_slots[i] for i in keep)
    syms = [j for j in range(n_sym)
            if any(("x", j) in r and abs(r[("x", j)]) > 0 for r in kept)]
    h = np.array([[r.get(("x", j), 0.0) for j in syms] for r in kept],
                 dtype=complex).reshape(len(kept), len(syms))
    noise_labels = sorted({l for r in kept for l in r if l[0] == "n"},
                          key=lambda l: (l[2], l[1]))
    g = np.array([[r.get(l, 0.0) for l in noise_labels] for r in kept],
                 dtype=complex).reshape(len(kept), len(noise_labels))
    sigma = np.eye(len(kept)) + g @ g.conj().T
    return h, sigma, tuple(sym_slots[j] for j in syms), out_slots


def fd_chain(n_relays):
    ids = [f"r{i + 1}" for i in range(n_relays)]
    nodes = [Node("s", "source"), Node("d", "sink")]
    nodes[1:1] = [Node(r, "relay", 1, "full") for r in ids]
    chain = ["s"] + ids + ["d"]
    return Network(nodes, [Edge(t, h) for t, h in zip(chain, chain[1:])])


ZOO = [
    ("single", lambda: single_link_network(), single_link_schedule, 3),
    ("two-slot relay", naf_network, naf_schedule, 2),
    ("slotted bank 2", lambda: saf_network(2), saf_schedule, 2),
    ("slotted bank 3", lambda: saf_network(3), saf_schedule, 2),
    ("three paths", lambda: kpp_network((2, 2, 2)), color_kpp_three, 2),
    ("uneven paths", lambda: kpp_network((2, 3, 4)), color_kpp_three, 2),
    ("four paths", lambda: kpp_network((2, 3, 2, 4)), color_kpp_general, 2),
    ("crossed paths", lambda: kpp_network((2, 2, 4), cross_links=(((3, 1), (1, 1)),)),
     kppI_schedule, 2),
    ("buffered direct", lambda: kpp_network((2, 3, 4), direct_link=True),
     kppD_schedule, 3),
    ("layered", lambda: layered_network((1, 2, 2, 1)),
     layered_matching_schedule, 2),
    ("full-duplex line", lambda: fd_chain(2), fd_schedule, 2),
]


@pytest.mark.parametrize("label,mknet,mksched,cycles",
                         ZOO, ids=[z[0] for z in ZOO])
def test_propagation_matches_reference(label, mknet, mksched, cycles):
    net = mknet()
    sched = mksched(net)
    for seed in (1, 2):
        fading = FadingRealization.sample(net, seed)
        model = propagate(net, sched, fading, cycles=cycles)
        h, sigma, in_slots, out_slots = trace_reference(net, sched, fading, cycles)
        assert model.input_slots == in_slots
        assert model.output_slots == out_slots
        np.testing.assert_allclose(model.h, h, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(model.sigma, sigma, rtol=1e-12, atol=1e-13)


def test_two_slot_relay_closed_form():
    # one cycle: rows [g x0; b(a x0 + w) + g x1], so H is [[g,0],[ab,g]]
    # and sigma gains 1+|b|^2 on the second diagonal entry
    net = naf_network()
    fading = FadingRealization.sample(net, 7)
    a = fading.gains[("s", "r1")]
    b = fading.gains[("r1", "d")]
    g = fading.gains[("s", "d")]
    model = propagate(net, naf_schedule(net), fading, cycles=1)
    np.testing.assert_allclose(model.h, [[g, 0.0], [a * b, g]], rtol=1e-12)
    np.testing.assert_allclose(model.sigma,
                               [[1.0, 0.0], [0.0, 1.0 + abs(b) ** 2]],
                               rtol=1e-12)
    assert model.total_slots == 2
    assert model.input_slots == (0, 1)


def test_slotted_bank_closed_form():
    net = saf_network(2)
    fading = FadingRealization.sample(net, 11)
    g = fading.gains[("s", "d")]
    p = [fading.gains[("s", f"r{k}")] * fading.gains[(f"r{k}", "d")]
         for k in (1, 2)]
    amp = [abs(fading.gains[(f"r{k}", "d")]) ** 2 for k in (1, 2)]
    model = propagate(net, saf_schedule(net), fading, cycles=1)
    want = np.diag([g] * 5) + np.diag([p[0], p[1], p[0], p[1]], k=-1)
    np.testing.assert_allclose(model.h, want, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(
        model.sigma,
        np.diag([1.0, 1 + amp[0], 1 + amp[1], 1 + amp[0], 1 + amp[1]]),
        rtol=1e-12, atol=1e-13)


def test_batched_run_matches_single_draws():
    net = kpp_network((2, 2, 2))
    sched = color_kpp_three(net)
    prog = PropagationProgram(net, sched, cycles=2)
    fadings = [FadingRealization.sample(net, s) for s in range(3)]
    gains = np.concatenate([prog.gain_vector(f) for f in fadings], axis=1)
    h, g = prog.run(gains)
    for k, f in enumerate(fadings):
        model = propagate(net, sched, f, cycles=2)
        np.testing.assert_allclose(h[k], model.h, rtol=1e-12)
        np.testing.assert_allclose(np.eye(h[k].shape[0]) + g[k] @ g[k].conj().T,
                                   model.sigma, rtol=1e-12)


# Digests of run() on seeded 3-draw batches, recorded from the dense
# register replay that preceded support-sparse propagation: every entry
# of H and G must keep its exact bits, including KPP(4,5) at 8 cycles
# (entries near 2e12) and the buffered FIFO paths of KPP(D), SAF and NAF.
PINNED_RUN_FAMILIES = {
    "kpp45": lambda: kpp_network((4, 5)),
    "kppD2342": lambda: kpp_network((2, 3, 4, 2), direct_link=True),
    "saf3": lambda: saf_network(3),
    "naf": naf_network,
    "layered1231": lambda: layered_network((1, 2, 3, 1)),
    "layered12221": lambda: layered_network((1, 2, 2, 2, 1)),
    "kppI4": lambda: kpp_network((2, 3, 3, 4), cross_links=[((1, 1), (2, 1))]),
}

PINNED_RUN_SHA256 = {
    "kpp45-c1": "fc1469cf5e9a9c927bfbe07b206f4b3f8f5130a76d6b98f5946882cca0119b9d",
    "kpp45-c4": "a59d3e71bef0f997977a2d9632e9c1cf5d6ce36af576d231734e9d80a03b6235",
    "kpp45-c8": "d2bbad375e84ae38633d87cbd10d71b8b30a28d4d8ffe84ba6db03a52e41b50e",
    "kppD2342-c1": "1061062d5fac8ccd4d8817e8e211abec8233db9fdbd12a0bbdab2e8e527f3c46",
    "kppD2342-c4": "92d063061b9779eafd3f0a345c7bddcddb33a174aa2672ea55a7d878a60386db",
    "saf3-c1": "9b4051984a66854f5cf65df322f6f92f364c667e9a0b0749408185ed6edd2c88",
    "saf3-c4": "56b3b1bc5451cb400e354d8b94a0a2342f78cacf9e011628fd7ab5eb4df552c9",
    "naf-c1": "b460b0574c1a431ca90fd32b2f5d4afa02911d7367fade8bbf4b9b98749b866a",
    "naf-c4": "90895bd22c0a762e6a9c5010517544063c62bf861ee951a6dfb824184af6d2b2",
    "layered1231-c1": "bf67f4631b2181abfe5602acea55a0893b154d7c8bf1dd01f0fa810baffe44d0",
    "layered1231-c4": "edd9006a4334eea542350c66d7c024001bb963ade38d176f1b0f04a50ab30431",
    "layered12221-c1": "3e9f92d17628d0b7acc99aa33dd3824f446e74a5ae5449230be35f15098cc192",
    "layered12221-c4": "4f15371dae0a41874c7542d533d64d8a1f414f3e43d8cdcb05f4e1870325204b",
    "kppI4-c1": "1b7c803bd49633732c1d6e38d665e0411900c0fdb92a7bd9b7c2334200c8bf37",
    "kppI4-c4": "7b0c9620c20d805c6e18e03be18c2251fc9e067f3be3c4818a7980ec0b4da30f",
}


@pytest.mark.parametrize("case", sorted(PINNED_RUN_SHA256))
def test_run_matches_pinned_digest(case):
    family, cycles = case.rsplit("-c", 1)
    net = PINNED_RUN_FAMILIES[family]()
    prog = PropagationProgram(net, auto_schedule(net), int(cycles))
    z = np.random.default_rng(int(cycles)).standard_normal((2, prog.n_edges, 3))
    h, g = prog.run((z[0] + 1j * z[1]) / np.sqrt(2.0))
    blob = hashlib.sha256()
    for part in (h, g):
        blob.update(repr((part.dtype.str, part.shape)).encode())
        blob.update(part.tobytes())
    blob.update(json.dumps(prog.kept_cols).encode())
    assert blob.hexdigest() == PINNED_RUN_SHA256[case]


# The benchmark's families; their compiled programs at 4 cycles, with
# each listener's terms summed in node order
BENCH_FAMILIES = {
    "single": single_link_network,
    "kpp234": lambda: kpp_network((2, 3, 4)),
    "kppD2342": PINNED_RUN_FAMILIES["kppD2342"],
    "layered12221": PINNED_RUN_FAMILIES["layered12221"],
    "kppI4": PINNED_RUN_FAMILIES["kppI4"],
}

PINNED_PROGRAM_SHA256 = {
    "single": "e30295d6b23bf75c107bbdc3003745ded723893646814f5737b8ac4b1785f864",
    "kpp234": "d20d0ac3499d9eac5e248c98338a748418fc19e0863985a726353b7cde052926",
    "kppD2342": "e0136ebcb38e8461dd3ffe65e744549d2446ce7cdf06bbe8bd73f6e98bb54d0f",
    "layered12221": "f040e11b36c85cab818db83a29ae83c5764d687e172556d296b73e4bd1f2ca89",
    "kppI4": "59e812e82d9bb6c04445c6283040ed886cbaf661c14c0e2b07a19787ed38b370",
}


def _steps_json(steps):
    """Compiled steps (values, sizes, terms with their layout positions,
    noise flags, frees) as plain lists."""
    return [[v, size, [[src, gidx, ["slice", where.start, where.stop]
                        if isinstance(where, slice) else where.tolist()]
                       for src, gidx, where in terms], noise, list(frees)]
            for v, size, terms, noise, frees in steps]


def _program_digest(prog):
    """sha256 of the compiled steps, the kept rows' supports and
    ``kept_cols``."""
    blob = json.dumps([_steps_json(prog._steps),
                       [cols.tolist() for cols in prog.row_support], prog.kept_cols])
    return hashlib.sha256(blob.encode()).hexdigest()


def _classes_digest(prog):
    """sha256 of the expression classes: the first copies' steps, the
    distinct rows and each kept row's first-copy start."""
    steps, rows, first = prog._classes
    return hashlib.sha256(json.dumps([_steps_json(steps), rows, first]).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(PINNED_PROGRAM_SHA256))
def test_compiled_program_matches_pinned_digest(family):
    net = BENCH_FAMILIES[family]()
    prog = PropagationProgram(net, auto_schedule(net), 4)
    assert _program_digest(prog) == PINNED_PROGRAM_SHA256[family]


# Compiles each benchmark family and prints the program and class
# digests, the sha256 of its row blocks, and the sha256 of its row_values
# and distinct_values on one seeded batch.
HASH_SEED_SCRIPT = """
import hashlib
import numpy as np
from relaydmt import PropagationProgram, auto_schedule
from test_channel import BENCH_FAMILIES, _classes_digest, _program_digest
for family in sorted(BENCH_FAMILIES):
    net = BENCH_FAMILIES[family]()
    prog = PropagationProgram(net, auto_schedule(net), 4)
    z = np.random.default_rng(0).standard_normal((2, prog.n_edges, 2))
    gains = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    blocks = hashlib.sha256()
    for group in prog.row_blocks:
        for a in group:
            blocks.update(repr((a.dtype.str, a.shape)).encode() + a.tobytes())
    print(family, _program_digest(prog), _classes_digest(prog), blocks.hexdigest(),
          *(hashlib.sha256(vals.tobytes()).hexdigest()
            for vals in (prog.row_values(gains), prog.distinct_values(gains))))
"""


def test_compile_does_not_depend_on_the_hash_seed():
    # node ids are strings, whose set order changes with PYTHONHASHSEED;
    # the compiled terms, layouts, classes, row blocks and replayed bytes
    # must not, nor may the early stop, which compares dicts and sets
    path = os.pathsep.join([str(Path(channel.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        outs.append(subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                                   capture_output=True, text=True, timeout=120,
                                   check=True).stdout)
    assert len(outs[0].splitlines()) == len(BENCH_FAMILIES)
    assert outs[0] == outs[1]


class DictLayoutProgram(PropagationProgram):
    """The compile and the classes as first written, the oracle the
    library's must match byte for byte: every value's layout is built
    as a column -> position dict, and each class key nests one tuple per
    term."""

    def _compile(self, tx, rx):
        net, N = self.net, self.sched.cycle_length
        sid, did = net.source.id, net.sink.id
        self.n_symbols = sum(t % N in tx[sid] for t in range(self.total_slots))
        self.n_noise = 0
        self.injections = []
        self.rows = []
        regs = {}
        queues = {u: deque([None] * b) for u, b in self.buffered.items()}
        values = []               # per value: (support, terms, adds noise)
        row_values = []
        in_edges = {u: [(n.id, self.edge_index[(n.id, u)]) for n in net.nodes
                        if n.id in ins] for u, ins in net.in_neighbors.items()}
        phases = []
        for s in range(N):
            talkers = {u for u in tx if s in tx[u]}
            feeds = {u: [(w, edge) for w, edge in in_edges[u] if w in talkers]
                     for u in in_edges if s in rx[u]}
            phases.append((sid in talkers, list(talkers - {sid}),
                           [(u, f) for u, f in feeds.items() if u != did], feeds.get(did)))

        def signal(w):
            if w in queues:
                q = queues[w]
                return q.popleft() if q else None
            return regs.get(w)

        def combine(feeds, pulled, noise):
            index, out = {}, []   # column -> position, in layout order
            for w, edge in feeds:
                if w == sid:
                    src, sup = None, (len(self.injections) - 1,)
                else:
                    src = pulled[w]
                    if src is None:
                        continue
                    sup = values[src][0]
                n = len(index)
                if not n or index.keys().isdisjoint(sup):
                    index.update(zip(sup, range(n, n + len(sup))))
                    where = slice(n, n + len(sup))
                else:
                    pos = [index.setdefault(c, len(index)) for c in sup]
                    contiguous = pos == list(range(pos[0], pos[0] + len(pos)))
                    where = slice(pos[0], pos[-1] + 1) if contiguous else np.array(pos)
                out.append((src, edge, where))
            if noise is not None:
                index[noise] = len(index)
            values.append((tuple(index), out, noise is not None))
            return len(values) - 1

        for t in range(self.total_slots):
            injects, pullers, listeners, sink = phases[t % N]
            if injects:
                self.injections.append((t, len(self.injections)))
            pulled = {w: signal(w) for w in pullers}
            updates = []
            for u, feeds in listeners:
                updates.append((u, combine(feeds, pulled, self.n_symbols + self.n_noise)))
                self.n_noise += 1
            if sink is not None:
                self.rows.append(t)
                row_values.append(combine(sink, pulled, None))
            for u, v in updates:
                if u in queues:
                    queues[u].append(v)
                else:
                    regs[u] = v
        self.kept_rows = [i for i, t in enumerate(self.rows) if t >= self.keep_from]

        rows = [row_values[i] for i in self.kept_rows]
        live = bytearray(len(values))
        for v in rows:
            live[v] = 1
        for v in reversed(range(len(values))):
            if live[v]:
                for src, _, _ in values[v][1]:
                    if src is not None:
                        live[src] = 1
        live = [v for v, flag in enumerate(live) if flag]
        last = {src: v for v in live for src, _, _ in values[v][1] if src is not None}
        frees = {}
        for src, v in last.items():
            frees.setdefault(v, []).append(src)
        self._steps = [(v, len(values[v][0]), *values[v][1:], frees.get(v, ()))
                       for v in live]
        self._row_values = rows

        sizes = [len(values[v][0]) for v in rows]
        sup = np.fromiter(chain.from_iterable(values[v][0] for v in rows),
                          dtype=np.intp, count=sum(sizes))
        kept = np.zeros(self.n_symbols + self.n_noise, dtype=bool)
        kept[sup] = True
        kept[self.n_symbols:] = True
        self.kept_cols = np.flatnonzero(kept[:self.n_symbols]).tolist()
        self._width = int(kept.sum())
        sup = (np.cumsum(kept) - 1)[sup]
        ends = list(accumulate(sizes))
        self.row_support = [sup[a:b] for a, b in zip([0] + ends, ends)]
        self._scatter = sup + np.repeat(np.arange(len(rows)) * self._width, sizes)

    @cached_property
    def _classes(self):
        cls, seen, kept = {}, {}, []
        for v, size, terms, noise, _ in self._steps:
            terms = [(None if src is None else cls[src], gidx, where)
                     for src, gidx, where in terms]
            key = (size, noise, tuple(
                (src, gidx, (where.start, where.stop) if isinstance(where, slice)
                 else where.tobytes()) for src, gidx, where in terms))
            cls[v] = seen.setdefault(key, v)
            if cls[v] == v:
                kept.append((v, size, terms, noise))
        last = {src: v for v, _, terms, _ in kept for src, _, _ in terms if src is not None}
        frees = {}
        for src, v in last.items():
            frees.setdefault(v, []).append(src)
        rows = list(dict.fromkeys(cls[v] for v in self._row_values))
        size = {v: s for v, s, *_ in kept}
        start = dict(zip(rows, np.cumsum([0] + [size[v] for v in rows]).tolist()))
        return ([(*step, frees.get(step[0], ())) for step in kept], rows,
                [start[cls[v]] for v in self._row_values])


def _assert_matches_dict_layouts(net, sched, cycles):
    # the oracle walks the whole window; the library may stop once the
    # relays' state repeats and derive the repeated cycles
    prog = PropagationProgram(net, sched, cycles)
    oracle = DictLayoutProgram(net, sched, cycles)
    assert _program_digest(prog) == _program_digest(oracle)
    assert _classes_digest(prog) == _classes_digest(oracle)
    assert ((prog.n_symbols, prog.n_noise, prog.injections, prog.rows, prog.kept_rows,
             prog._row_values, prog._width)
            == (oracle.n_symbols, oracle.n_noise, oracle.injections, oracle.rows,
                oracle.kept_rows, oracle._row_values, oracle._width))
    assert prog._scatter.tobytes() == oracle._scatter.tobytes()
    return prog


# the corpus's layered profiles: equal widths of 2 or 3 over 1-3 relay
# layers, and widths 2 and 3 in either order over two
CORPUS_LAYERED = [(1, *[w] * n, 1) for w in (2, 3) for n in (1, 2, 3)] + [
    (1, 2, 3, 1), (1, 3, 2, 1)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(PARALLEL_CASES,
                 st.tuples(st.sampled_from(CORPUS_LAYERED), st.booleans())),
       st.sampled_from([1, 2, 4]))
def test_tuple_layouts_match_the_dict_layout_compile(case, cycles):
    if len(case) == 3:
        net = _parallel_network(case)[0]
    else:
        profile, connected = case
        net = layered_network(profile, fully_connected=connected)
    try:
        sched = auto_schedule(net)
    except LIBRARY_ERRORS:
        return
    _assert_matches_dict_layouts(net, sched, cycles)


def _delayed_schedule(net, extra):
    """``auto_schedule(net)`` through JSON, with its steady-state delay
    lengthened by ``extra`` slots."""
    data = schedule_to_dict(auto_schedule(net))
    data["steady_state_delay"] += extra
    return schedule_from_dict(json.loads(json.dumps(data)))


# programs whose walk the early stop must get right: FIFOs carrying primes
# and values across cycle boundaries (the buffered KPP(D) and KPP(I,D)),
# a full-duplex line, programs that grow and never stop (KPP(4,5), fully
# connected layered (1,2,2,2,1)), and a delay that is no multiple of N
EARLY_STOP = {
    "kppID444": (lambda: kpp_network((4, 4, 4), direct_link=True, bidirectional=False,
                                     cross_links=[((1, 2), (2, 2))]), auto_schedule),
    "kppD234": (lambda: kpp_network((2, 3, 4), direct_link=True), auto_schedule),
    "fd-line": (lambda: fd_chain(3), fd_schedule),
    "kpp45": (lambda: kpp_network((4, 5)), auto_schedule),
    "layered12221": (lambda: layered_network((1, 2, 2, 2, 1)), auto_schedule),
    "kpp234-delay+5": (lambda: kpp_network((2, 3, 4)), lambda net: _delayed_schedule(net, 5)),
}


@pytest.mark.parametrize("cycles", [1, 2, 4, 7])
@pytest.mark.parametrize("case", sorted(EARLY_STOP))
def test_early_stop_matches_the_dict_layout_compile(case, cycles):
    mknet, mksched = EARLY_STOP[case]
    net = mknet()
    prog = _assert_matches_dict_layouts(net, mksched(net), cycles)
    if cycles >= 4:
        stopped = prog._walked_slots < prog.total_slots
        assert stopped is (case not in ("kpp45", "layered12221"))


def test_slots_walked():
    # KPP(I) K=4 repeats from its first kept cycle, so the walk stops at
    # D + N = 96 of 240 slots; KPP(4,5)'s supports grow every cycle
    for net, walked, total in [
            (PINNED_RUN_FAMILIES["kppI4"](), 96, 240),
            (kpp_network((4, 5)), 50, 50)]:
        prog = PropagationProgram(net, auto_schedule(net), 4)
        assert (prog._walked_slots, prog.total_slots) == (walked, total)


def test_overlapping_terms_take_the_dict_layout():
    # both relays store x0 with their own noise, and the sink hears them
    # together: the second term meets x0 already in the layout and lands
    # on positions [0, 2], which no slice names
    net = Network([Node("s", "source"), Node("a"), Node("b"), Node("d", "sink")],
                  [Edge("s", "a"), Edge("s", "b"), Edge("a", "d"), Edge("b", "d")])
    sched = Schedule(cycle_length=2, symbols_per_cycle=1,
                     activations={("s", "a"): frozenset({0}), ("s", "b"): frozenset({0}),
                                  ("a", "d"): frozenset({1}), ("b", "d"): frozenset({1})})
    prog = _assert_matches_dict_layouts(net, sched, 2)
    _, size, terms, noise, _ = next(s for s in prog._steps if s[0] == prog._row_values[0])
    assert (size, noise) == (3, False)
    assert terms[0][2] == slice(0, 2)
    assert terms[1][2].tolist() == [0, 2]


@pytest.mark.parametrize("family", sorted(PINNED_RUN_FAMILIES))
def test_model_keeps_the_program_that_built_it(family):
    net = PINNED_RUN_FAMILIES[family]()
    sched = auto_schedule(net)
    model = propagate(net, sched, FadingRealization.sample(net, 6), cycles=2)
    prog = model.program
    assert (prog.net, prog.sched, prog.cycles) == (net, sched, 2)
    h, g = prog.run(prog.gain_vector(model.fading))
    assert (h[0].shape, g[0].shape) == (model.h.shape, model.noise.shape)
    assert h[0].tobytes() == model.h.tobytes()
    assert g[0].tobytes() == model.noise.tobytes()


@pytest.mark.parametrize("mknet,probed", [
    (lambda: layered_network((1, 2, 2, 2, 1)), True),
    (lambda: kpp_network((2, 3, 4, 2), direct_link=True), False),
], ids=["layered12221", "kppD2342"])
def test_model_analysis_compiles_one_program(mknet, probed, monkeypatch,
                                             analysis_builds):
    # propagate compiles; the certificate and the leakage probes reuse
    # it, and extract_blocks reads the program's structure without
    # certifying or finding it again
    net = mknet()
    sched = auto_schedule(net)
    compiled, certified, replays, shaped = [], [], [], []
    init = PropagationProgram.__init__
    certify = channel.structure_certificate
    replay = PropagationProgram.row_values
    shape = channel._shape

    def counting_init(self, *args):
        compiled.append(args)
        init(self, *args)

    def counting_certify(model):
        certified.append(model)
        return certify(model)

    def counting_replay(self, gains):
        replays.append(gains)
        return replay(self, gains)

    def counting_shape(per_row):
        shaped.append(per_row)
        return shape(per_row)

    monkeypatch.setattr(PropagationProgram, "__init__", counting_init)
    monkeypatch.setattr(channel, "structure_certificate", counting_certify)
    monkeypatch.setattr(channel, "_shape", counting_shape)
    model = propagate(net, sched, FadingRealization.sample(net, 4), cycles=4)
    assert channel.structure_certificate(model).kind != "none"
    monkeypatch.setattr(PropagationProgram, "row_values", counting_replay)
    _, h_rest, _ = extract_blocks(model)
    assert np.abs(h_rest).max() > 0
    # the layered coloring's thread and leakage share gains, so some edge
    # is probed; the buffered direct link's leakage uses gains of its own
    assert (len(replays) > 0) is probed
    assert len(compiled) == 1
    assert len(certified) == 1
    # the certificate and extract_blocks read one structure per model;
    # the leakage makes extract_blocks read the edge masks, once; the
    # replays build the full step list once, and nothing on this path
    # reads the sweeps' classes or row blocks
    assert len(shaped) == 1
    assert {name: len(progs) for name, progs in analysis_builds.items()} == {
        "_structure": 1, "_masks": 1, "_classes": 0, "row_blocks": 0, "_steps": 1}
    assert analysis_builds["_structure"] == [model.program]


@pytest.mark.parametrize("label,mknet,mksched,cycles",
                         ZOO, ids=[z[0] for z in ZOO])
def test_noise_covariance_dominates_identity(label, mknet, mksched, cycles):
    net = mknet()
    model = propagate(net, mksched(net), FadingRealization.sample(net, 3),
                      cycles=cycles)
    eig = np.linalg.eigvalsh(model.sigma)
    assert eig.min() >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# structure certificates

def test_certificates_across_zoo():
    cases = [
        (naf_network(), naf_schedule, "lower-triangular"),
        (saf_network(2), saf_schedule, "lower-triangular"),
        (kpp_network((2, 2, 2)), color_kpp_three, "diagonal"),
        (kpp_network((2, 3, 4), direct_link=True), kppD_schedule,
         "lower-triangular"),
        (fd_chain(2), fd_schedule, "diagonal"),
    ]
    for net, mksched, kind in cases:
        sched = mksched(net)
        model = propagate(net, sched, FadingRealization.sample(net, 5))
        cert = structure_certificate(model)
        assert cert.kind == kind, (net.name or kind, cert)
        assert cert.thread_ok, (kind, cert.max_thread_error)
        assert cert.max_thread_error < 1e-9


def test_certificate_rejects_thread_values_of_another_draw():
    net = kpp_network((2, 3, 4))
    model = propagate(net, color_kpp_three(net), FadingRealization.sample(net, 9))
    cert = structure_certificate(
        replace(model, fading=FadingRealization.sample(net, 10)))
    assert not cert.thread_ok and cert.max_thread_error > 1e-3


def test_certificate_skips_rows_no_path_delivers():
    # a schedule that names no deliveries has no expected thread value on
    # any row; a check that compared nothing must not pass
    net = kpp_network((2, 3, 4))
    sched = replace(color_kpp_three(net), deliveries={})
    cert = structure_certificate(
        propagate(net, sched, FadingRealization.sample(net, 9)))
    assert cert.kind == "block-lower-triangular"
    assert not cert.thread_ok and cert.max_thread_error == np.inf
    assert cert.notes == ("no row has an expected thread value",)


def test_certificate_thread_values_match_path_products():
    # unequal lengths interleave arrivals across cycle boundaries, so the
    # channel is a permuted diagonal: still one symbol per row, each
    # carrying the whole gain product of its delivering path
    net = kpp_network((2, 3, 4))
    sched = color_kpp_three(net)
    fading = FadingRealization.sample(net, 9)
    model = propagate(net, sched, fading)
    cert = structure_certificate(model)
    assert cert.kind == "block-lower-triangular"
    assert cert.thread_ok
    products = []
    for path in sched.backbone:
        prod = 1.0
        for pair in zip(path, path[1:]):
            prod *= fading.gains[pair]
        products.append(prod)
    scale = np.abs(model.h).max()
    for r, slot in enumerate(model.output_slots):
        nz = np.flatnonzero(np.abs(model.h[r]) > 1e-12 * scale)
        assert len(nz) == 1
        want = products[sched.deliveries[slot % sched.cycle_length]]
        assert abs(model.h[r, nz[0]] - want) <= 1e-12 * abs(want)


def test_certificate_synthetic_kinds():
    def shape(h):
        return _shape([np.flatnonzero(row) for row in np.array(h)])

    # oldest column advances while the newest stalls
    kind, main, _ = shape(
        [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert (kind, list(main)) == ("upper-triangular", [0, 1, 2, 3])

    # neither end advances
    kind, main, _ = shape(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    assert (kind, list(main)) == ("block-lower-triangular", [1, 1, 3, 3])

    assert shape(np.zeros((4, 4))) == ("none", (), ("empty",))
    assert shape([[1, 0], [0, 0]]) == ("none", (), ("empty row",))


# every model the structural certificate is checked on: the ZOO, plus
# KPP(4,5), whose back-flow leakage dwarfs its thread entries, and the
# 192-row KPP(I) K=4 channel
STRUCTURE_MODELS = [(label, mknet, mksched, cycles)
                    for label, mknet, mksched, cycles in ZOO] + [
    ("kpp45", lambda: kpp_network((4, 5)), auto_schedule, 4),
    ("kppI4", lambda: kpp_network((2, 3, 3, 4), cross_links=[((1, 1), (2, 1))]),
     auto_schedule, 4),
]


@pytest.mark.parametrize("label,mknet,mksched,cycles", STRUCTURE_MODELS,
                         ids=[z[0] for z in STRUCTURE_MODELS])
def test_compiled_rows_reach_no_later_symbol(label, mknet, mksched, cycles):
    # a listener hears stored registers and the symbol injected in its
    # own slot, never a later one: no row can reach into a later cycle
    net = mknet()
    model = propagate(net, mksched(net), FadingRealization.sample(net, 1),
                      cycles=cycles)
    prog = model.program
    kept = len(prog.kept_cols)
    for r, cols in enumerate(prog.row_support):
        for c in cols[cols < kept]:
            assert model.input_slots[c] <= model.output_slots[r], (r, c)


def magnitude_certificate(model):
    """(kind, main columns, thread ok) read from magnitudes on the
    model's own draw: an H entry counts when it exceeds 1e-10 of
    max|H|, and a row may not reach a symbol of a later cycle."""
    h = model.h
    if h.size == 0:
        return "none", (), False
    per_row = [np.flatnonzero(np.abs(row) > 1e-10 * np.abs(h).max())
               for row in h]
    if any(len(nz) == 0 for nz in per_row):
        return "none", (), False
    maxc = [nz[-1] for nz in per_row]
    minc = [nz[0] for nz in per_row]
    if all(b > a for a, b in zip(maxc, maxc[1:])):
        kind = "diagonal" if all(len(nz) == 1 for nz in per_row) else "lower-triangular"
        main = maxc
    elif all(b > a for a, b in zip(minc, minc[1:])):
        kind, main = "upper-triangular", minc
    elif all(model.input_slots[c] // model.cycle_length
             <= model.output_slots[r] // model.cycle_length
             for r, nz in enumerate(per_row) for c in nz):
        kind, main = "block-lower-triangular", maxc
    else:
        return "none", (), False
    ok = all(abs(h[r, main[r]] - exp) <= 1e-9 * abs(exp)
             for r, exp in enumerate(_expected_thread(model)) if exp is not None)
    return kind, tuple(main), ok


@pytest.mark.parametrize("label,mknet,mksched,cycles", STRUCTURE_MODELS,
                         ids=[z[0] for z in STRUCTURE_MODELS])
def test_structural_certificate_matches_magnitudes(label, mknet, mksched, cycles):
    net = mknet()
    sched = mksched(net)
    for seed in range(10) if label == "kpp45" else (5,):
        model = propagate(net, sched, FadingRealization.sample(net, seed),
                          cycles=cycles)
        cert = structure_certificate(model)
        assert (cert.kind, cert.main_columns, cert.thread_ok) == \
            magnitude_certificate(model), seed


def test_extract_blocks_split_and_independence():
    for mknet, mksched in [(naf_network, naf_schedule),
                           (lambda: saf_network(2), saf_schedule)]:
        net = mknet()
        model = propagate(net, mksched(net), FadingRealization.sample(net, 4))
        h_diag, h_rest, independent = extract_blocks(model)
        np.testing.assert_allclose(h_diag + h_rest, model.h, rtol=1e-15)
        assert all((np.abs(r) > 0).sum() == 1 for r in h_diag)
        assert independent

    net = kpp_network((2, 2, 2))
    model = propagate(net, color_kpp_three(net),
                      FadingRealization.sample(net, 4))
    _, h_rest, independent = extract_blocks(model)
    assert np.abs(h_rest).max() == 0.0
    assert independent

    # leaky channels on either side of the flag: layered (1,2,2,2,1) runs
    # the regular(2,3) coloring, whose thread and leakage share a gain;
    # the buffered direct link's leakage uses gains of its own
    for net, want in [(layered_network((1, 2, 2, 2, 1)), False),
                      (kpp_network((2, 3, 4, 2), direct_link=True), True)]:
        model = propagate(net, auto_schedule(net),
                          FadingRealization.sample(net, 4), cycles=4)
        h_diag, h_rest, independent = extract_blocks(model)
        np.testing.assert_allclose(h_diag + h_rest, model.h, rtol=1e-15)
        assert np.abs(h_rest).max() > 0
        assert independent is want


MASKED_FAMILIES = {
    "kpp234": lambda: kpp_network((2, 3, 4)),
    "kppD2342": lambda: kpp_network((2, 3, 4, 2), direct_link=True),
    "layered12221": lambda: layered_network((1, 2, 2, 2, 1)),
    "saf2": lambda: saf_network(2),
    "kppI4": lambda: kpp_network((2, 3, 3, 4), cross_links=[((1, 1), (2, 1))]),
}


@pytest.mark.parametrize("family", sorted(MASKED_FAMILIES))
def test_edge_masks_name_the_gains_each_entry_replays(family):
    # the premise of probing only shared edges: perturbing gain i leaves
    # every entry whose mask lacks bit i bit-identical and moves the rest
    net = MASKED_FAMILIES[family]()
    prog = PropagationProgram(net, auto_schedule(net), 4)
    masks = prog._masks
    base = prog.gain_vector(FadingRealization.sample(net, 2))
    vals = prog.row_values(base)[:, 0]
    assert len(masks) == len(vals)
    for i in range(prog.n_edges):
        gains = base.copy()
        gains[i] *= 1.001 + 0.002j
        moved = prog.row_values(gains)[:, 0] != vals
        has = np.array([m >> i & 1 for m in masks], dtype=bool)
        assert not moved[~has].any(), i
        assert moved[has].all(), i


def _all_edges_probe(model):
    """(h_diag, h_rest, independent) with every edge probed: the loop
    extract_blocks ran before edge masks picked the shared edges."""
    _, main, _ = model.program._structure
    h = model.h
    diag_mask = np.zeros(h.shape, dtype=bool)
    diag_mask[np.arange(h.shape[0]), main] = True
    h_diag = np.where(diag_mask, h, 0)
    h_rest = h - h_diag
    if np.abs(h_rest).max() > 0:
        prog = model.program
        base = prog.gain_vector(model.fading)
        for i in range(prog.n_edges):
            gains = base.copy()
            gains[i] *= 1.001 + 0.002j
            moved = np.abs(prog.run(gains)[0][0] - h) > 1e-6 * np.abs(h).max()
            if (moved & diag_mask).any() and (moved & ~diag_mask).any():
                return h_diag, h_rest, False
    return h_diag, h_rest, True


@pytest.mark.parametrize("mknet,flags", [
    (naf_network, None),
    (lambda: saf_network(2), None),
    (lambda: kpp_network((2, 2, 2)), None),
    (lambda: layered_network((1, 2, 2, 2, 1)), None),
    (lambda: kpp_network((2, 3, 4, 2), direct_link=True), None),
    # the magnitude probe misses the shared thread edges at seeds 8 and
    # 9; the strict xfail below keeps that defect visible
    (lambda: kpp_network((4, 5)), [False] * 8 + [True] * 2),
], ids=["naf", "saf2", "kpp222", "layered12221", "kppD2342", "kpp45"])
def test_extract_blocks_matches_all_edges_probe(mknet, flags):
    net = mknet()
    sched = auto_schedule(net)
    got_flags = []
    for seed in range(10):
        model = propagate(net, sched, FadingRealization.sample(net, seed),
                          cycles=4)
        want, got = _all_edges_probe(model), extract_blocks(model)
        assert got[0].tobytes() == want[0].tobytes(), seed
        assert got[1].tobytes() == want[1].tobytes(), seed
        assert got[2] is want[2], seed
        got_flags.append(got[2])
    if flags is not None:
        assert got_flags == flags


@pytest.mark.xfail(strict=True, reason=(
    "thread entries sit far below the back-flow leakage, so perturbing a "
    "thread edge moves them less than 1e-6 of max|H| and the shared gain "
    "goes unseen on some draws"))
def test_extract_blocks_sees_thread_edges_feeding_leakage():
    # KPP(4,5): the thread edges also feed back-flow leakage entries, so
    # no draw can make the two parts independent
    net = kpp_network((4, 5))
    sched = auto_schedule(net)
    flags = [extract_blocks(propagate(net, sched,
                                      FadingRealization.sample(net, seed),
                                      cycles=4))[2]
             for seed in range(10)]
    assert flags == [False] * 10


def _empty_row_case():
    """A network and schedule whose H has an empty row: w never hears
    anything, so the slot-1 sink row carries only a's receiver noise."""
    net = Network([Node("s", "source"), Node("w", "relay"), Node("a", "relay"),
                   Node("d", "sink")],
                  [Edge("s", "d"), Edge("w", "a"), Edge("a", "d")])
    sched = Schedule(
        cycle_length=3,
        activations={("w", "a"): frozenset({0}), ("a", "d"): frozenset({1}),
                     ("s", "d"): frozenset({2})},
        symbols_per_cycle=1,
    )
    return net, sched


def test_extract_blocks_needs_structure():
    net, sched = _empty_row_case()
    model = propagate(net, sched, FadingRealization.sample(net, 1), cycles=2)
    assert structure_certificate(model).kind == "none"
    with pytest.raises(PropagationError):
        extract_blocks(model)


def _row_by_row_structure(prog):
    """``_structure`` with each kept row's H columns sorted on their own:
    the reference for the one sort over every row."""
    kept = len(prog.kept_cols)
    return _shape([np.sort(cols[cols < kept]) for cols in prog.row_support])


def test_structure_matches_the_row_by_row_sort():
    cases = [_empty_row_case()]
    for net in (_corpus_networks(range(4)) + [mk() for mk in BENCH_FAMILIES.values()]
                + [kpp_network((4, 5))]):
        try:
            cases.append((net, auto_schedule(net)))
        except SchedulingError:
            pass
    kinds = set()
    for net, sched in cases:
        for cycles in (1, 2, 4, 7):
            prog = PropagationProgram(net, sched, cycles)
            kind, main, notes = _row_by_row_structure(prog)
            assert prog._structure == (kind, main, notes)
            kinds.add((kind, notes))
    assert len(cases) > 90
    assert kinds >= {("diagonal", ()), ("lower-triangular", ()),
                     ("block-lower-triangular", ()), ("none", ("empty row",))}


# ---------------------------------------------------------------------------
# scheduling faults the engine must reject

def test_half_duplex_clash_rejected():
    net = naf_network()
    sched = Schedule(
        cycle_length=1,
        activations={("s", "r1"): frozenset({0}), ("r1", "d"): frozenset({0})},
        backbone=PathSet((("s", "r1", "d"),)),
        symbols_per_cycle=1,
    )
    with pytest.raises(HalfDuplexError):
        propagate(net, sched, FadingRealization.sample(net, 0))


def test_full_duplex_node_may_clash():
    net = fd_chain(1)
    sched = Schedule(
        cycle_length=1,
        activations={("s", "r1"): frozenset({0}), ("r1", "d"): frozenset({0})},
        backbone=PathSet((("s", "r1", "d"),)),
        symbols_per_cycle=1,
        steady_state_delay=1,
    )
    fading = FadingRealization.sample(net, 0)
    model = propagate(net, sched, fading, cycles=3)
    # unit relay delay: row t carries the symbol minted at t-1
    h, sigma, in_slots, out_slots = trace_reference(net, sched, fading, 3)
    np.testing.assert_allclose(model.h, h, rtol=1e-12)
    np.testing.assert_allclose(model.sigma, sigma, rtol=1e-12)
    prod = fading.gains[("s", "r1")] * fading.gains[("r1", "d")]
    np.testing.assert_allclose(np.diag(model.h, k=0),
                               [prod] * model.n_rows, rtol=1e-12)


def test_missing_edge_and_listening_source_rejected():
    net = naf_network()
    bad_edge = Schedule(cycle_length=1,
                        activations={("r1", "s"): frozenset({0})})
    with pytest.raises(PropagationError):
        PropagationProgram(net, bad_edge, 1)

    bidi = kpp_network((2, 2))
    to_source = Schedule(cycle_length=1,
                         activations={("p1r1", "s"): frozenset({0})})
    with pytest.raises(PropagationError, match="source"):
        PropagationProgram(bidi, to_source, 1)

    with pytest.raises(PropagationError):
        PropagationProgram(net, naf_schedule(net), 0)


def test_slots_outside_the_cycle_and_empty_cycles_rejected():
    # once a slot past the cycle was dropped (H 4x4 instead of 6x6 here)
    # and a zero-slot cycle raised ZeroDivisionError from the compile
    net = kpp_network((2, 2, 2))
    sched = color_kpp_three(net)
    pair, slots = next(iter(sched.activations.items()))
    moved = {**sched.activations, pair: frozenset(t + 3 for t in slots)}
    with pytest.raises(PropagationError, match="outside"):
        PropagationProgram(net, replace(sched, activations=moved), 2)
    with pytest.raises(PropagationError, match="cycle"):
        PropagationProgram(net, replace(sched, cycle_length=0), 2)


def test_multi_antenna_nodes_rejected(antenna_nets):
    # once each network was propagated with one gain per edge, as if
    # every node had a single antenna
    for name, net in antenna_nets.items():
        with pytest.raises(PropagationError, match="more than one antenna"):
            PropagationProgram(net, auto_schedule(net), 1)


# ---------------------------------------------------------------------------
# back-flow: reverse links must be invisible under clean colorings

def _forward_twin(lengths, **kw):
    return (kpp_network(lengths, bidirectional=True, **kw),
            kpp_network(lengths, bidirectional=False, **kw))


def test_clean_colorings_never_use_reverse_links():
    for lengths, mksched in [
        ((2, 2, 2), color_kpp_three),
        ((2, 3, 4), color_kpp_three),
        ((2, 3, 2, 4), color_kpp_general),
    ]:
        bidi, fwd = _forward_twin(lengths)
        sched = mksched(bidi)
        fading = FadingRealization.sample(bidi, 13)
        a = propagate(bidi, sched, fading, cycles=2)
        b = propagate(fwd, sched, fading, cycles=2)
        np.testing.assert_allclose(a.h, b.h, rtol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-12)


def test_overlapping_colors_do_leak_through_reverse_links():
    # first and third edge of the long path share a slot, so its first
    # relay listens while the second one talks; the reverse link then
    # carries real energy and the forward-only twin disagrees
    bidi, fwd = _forward_twin((3, 2))
    sched = Schedule(
        cycle_length=2,
        activations={("s", "p1r1"): frozenset({0}),
                     ("p1r1", "p1r2"): frozenset({1}),
                     ("p1r2", "d"): frozenset({0})},
        backbone=PathSet((("s", "p1r1", "p1r2", "d"),)),
        symbols_per_cycle=1,
        deliveries={0: 0},
        steady_state_delay=2,
    )
    fading = FadingRealization.sample(bidi, 13)
    a = propagate(bidi, sched, fading, cycles=3)
    b = propagate(fwd, sched, fading, cycles=3)
    assert a.h.shape == b.h.shape
    assert not np.allclose(a.h, b.h)
    assert not np.allclose(a.sigma, b.sigma)


# ---------------------------------------------------------------------------
# fading bookkeeping

def _edge_by_edge_sample(net, rng, reciprocal):
    """The fading draw taken one edge at a time, each gain divided by
    sqrt(2) as a complex number: the reference for ``sample``'s bytes."""
    gains = {}
    for pair in sorted(net.edge_set):
        if reciprocal and (pair[1], pair[0]) in gains:
            gains[pair] = gains[(pair[1], pair[0])]
        else:
            re, im = rng.standard_normal(2)
            gains[pair] = complex(re, im) / np.sqrt(2.0)
    return gains


@pytest.mark.parametrize("reciprocal", [False, True])
def test_fading_draw_matches_the_edge_by_edge_draw(reciprocal):
    # dividing the complex gains by sqrt(2) in an array multiplies by
    # 1/sqrt(2) and moves the last bit of most draws; every byte, the key
    # order and the generator's next value must match instead
    nets = _corpus_networks(range(4)) + [mk() for mk in BENCH_FAMILIES.values()]
    shared = 0
    for k, net in enumerate(nets):
        rng, ref = np.random.default_rng(k), np.random.default_rng(k)
        got = FadingRealization.sample(net, rng, reciprocal=reciprocal).gains
        want = _edge_by_edge_sample(net, ref, reciprocal)
        assert list(got) == list(want)
        assert [type(g) for g in got.values()] == [type(g) for g in want.values()]
        assert (b"".join(np.complex128(g).tobytes() for g in got.values())
                == b"".join(np.complex128(g).tobytes() for g in want.values()))
        assert rng.standard_normal() == ref.standard_normal()
        shared += sum(got[p] is got.get(p[::-1]) for p in got if p < p[::-1])
    assert len(nets) > 100
    assert (shared > 0) is reciprocal


def test_fading_reciprocal():
    net = kpp_network((2, 2))
    rec = FadingRealization.sample(net, 21, reciprocal=True)
    assert rec.gains[("s", "p1r1")] == rec.gains[("p1r1", "s")]
    plain = FadingRealization.sample(net, 21)
    pairs = [p for p in plain.gains if (p[1], p[0]) in plain.gains]
    assert any(plain.gains[p] != plain.gains[(p[1], p[0])] for p in pairs)

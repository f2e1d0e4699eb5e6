"""relaydmt benchmark: one workload per process.

    python3 bench/run.py --workload sweep-small --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Workloads: sweep-small, sweep-kppI, structure (see bench/NOTES.md).
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it replays the workload with spans around the library's
functions and prints the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 1 when an output differs from the
recorded reference and 2 when the checkout holds no library sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans as S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep-small", "sweep-kppI", "structure")
SETUP_REPS = 9
# percentiles at or above this one may serve as the tail
MIN_TAIL_PERCENTILE = 50
# Lower quartile of the calibration loop's time when the machine runs
# at reference speed, and how often the loop runs during a measurement.
CAL_REF_S = 8.5e-3
CAL_EVERY_S = 0.25
TIME_UNITS = {"s", "ms", "us"}
RATE_UNITS = {"trials/s", "networks/s"}


def lower_quartile(values):
    """First quartile, interpolated between the sorted values."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Clock:
    """Follows the machine's speed with a fixed calibration loop.

    On a shared machine the speed of the whole processor drifts by tens
    of percent over seconds to minutes, and bursts of other load slow
    some operations by half or more. So each figure is the lower
    quartile of its values over the rounds, which a burst that covers
    less than three quarters of the run does not move, and which, unlike
    the fastest value, does not hang on the rare moments the machine
    runs free. A fixed calibration loop (an integer sum, a walk
    over a small graph, Fraction arithmetic, small numpy operations and
    four 48x48 SVDs, the kinds of work the library does) runs every
    CAL_EVERY_S alongside: the lower quartile of its times over
    CAL_REF_S is the run's slowdown, and every reported time is divided
    by it, so the figures read as at reference speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._b = rng.standard_normal((6, 6))
        self._graph = {i: {(7 * i + k) % 300 for k in (1, 2, 5)} for i in range(300)}
        self.samples = []
        self._last = float("-inf")

    def calibrate(self):
        np = self._np
        t0 = perf_counter()
        total = 0
        for i in range(20000):
            total += i
        for _ in range(4):
            np.linalg.svd(self._a)
        seen, todo = {0}, [0]
        while todo:
            for m in self._graph[todo.pop()] - seen:
                seen.add(m)
                todo.append(m)
        harmonic = Fraction(0)
        for i in range(1, 200):
            harmonic += Fraction(1, i)
        x = self._b
        for _ in range(300):
            x = (x @ self._b) * 0.1 + np.zeros((6, 6))
            np.flatnonzero(x > 0)
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def tick(self):
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.calibrate()

    def slowdown(self):
        return lower_quartile(self.samples) / CAL_REF_S


def at_reference_speed(metrics, slowdown):
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value /= slowdown
        elif unit in RATE_UNITS:
            value *= slowdown
        out[name] = (value, unit)
    return out


def import_library():
    """A fresh import of relaydmt from the checkout's own sources."""
    for name in [n for n in sys.modules if n == "relaydmt" or n.startswith("relaydmt.")]:
        del sys.modules[name]
    R = importlib.import_module("relaydmt")
    if Path(R.__file__).resolve().parent != SRC / "relaydmt":
        raise ImportError(f"relaydmt imported from {R.__file__}, not from {SRC}")
    return R


def build_ops(W, R, workload, seed):
    if workload == "structure":
        ops = W.corpus_ops(R, seed)
        W.pipeline(R, W.FAMILIES["kpp234"](R), 0)
        return ops
    ops = [W.SweepOp(R, family, func, seed, W.FAMILY_TRIALS[family])
           for family, func in W.SWEEP_OPS[workload]]
    for op in ops:
        op.warm_up()
    return ops


def set_up(W, workload, seed, clock):
    """Import, build the inputs, schedule and warm up; return the median
    time of SETUP_REPS repetitions and the last repetition's package and
    operations."""
    times = []
    for _ in range(SETUP_REPS):
        clock.calibrate()
        t0 = perf_counter()
        R = import_library()
        ops = build_ops(W, R, workload, seed)
        times.append(perf_counter() - t0)
    return statistics.median(times), R, ops


def run_op(op, tracer=None):
    if tracer is not None:
        tracer.scope = op.scope
    t0 = perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # a failing operation is counted; the run goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return perf_counter() - t0, output, error


def run_rounds(ops, clock, seconds=None, rounds=None, tracer=None):
    """Whole rounds over ``ops``, each a list of (latency, output,
    error): ``rounds`` of them, or as many as fit in ``seconds`` judging
    by the last round (at least one)."""
    done = []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        results = []
        for op in ops:
            clock.tick()
            results.append(run_op(op, tracer))
        done.append(results)
        r1 = perf_counter()
        if rounds is not None:
            if len(done) >= rounds:
                return done
        elif (r1 - start) + (r1 - r0) > seconds:
            return done


class Checker:
    """Compares outputs with the recorded reference for the seed, or,
    for a seed without one, with the first output of the same operation
    in this run. Digests of the outputs let two commits be compared on
    any seed."""

    def __init__(self, W, reference, seed):
        self.W = W
        self.sweeps = reference["sweeps"].get(str(seed))
        self.networks = reference["structure"].get(str(seed))
        self.pipeline = reference["pipeline"]
        self.first = {}
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def expected(self, key):
        if key.startswith("profile/"):
            return self.pipeline[key.split("/", 1)[1]]
        table = self.networks if key.startswith("net") else self.sweeps
        return None if table is None else table[key]

    def check(self, op, output, error):
        self.attempted += 1
        ok = error is None and op.valid(output)
        if ok:
            self.digests[op.key] = self.W.digest(output)
            exp = self.expected(op.key)
            if exp is None:
                ok = self.first.setdefault(op.key, output) == output
            elif isinstance(exp, str):
                ok = exp == self.digests[op.key]
            else:
                ok = exp == output
        if not ok:
            self.failed += 1
            print(f"mismatch: {op.key}: {error or json.dumps(output)}", file=sys.stderr)
        return ok

    def check_rounds(self, ops, rounds):
        for results in rounds:
            for op, (_, output, error) in zip(ops, results):
                self.check(op, output, error)


def tail_percentile(samples):
    """Highest whole percentile (nearest rank, at least
    MIN_TAIL_PERCENTILE) with at least 10 samples ranked beyond it, as
    (value, percentile, samples beyond). With too few samples for any,
    the maximum, reported as percentile 100."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, MIN_TAIL_PERCENTILE - 1, -1):
        k = -(-p * n // 100)  # 1-based nearest rank
        if n - k >= 10:
            return s[k - 1], p, n - k
    return s[-1], 100, 0


def round_latencies(rounds):
    """The operations' latencies in each round."""
    return [[lat for lat, _, _ in results] for results in rounds]


def round_seconds(rounds):
    """Lower quartile over the rounds of a round's summed latency."""
    return lower_quartile(sum(lat) for lat in round_latencies(rounds))


def end_to_end(ops, rounds, setup_s):
    """Each statistic is taken within a round, a pass over every
    operation, and reported as its lower quartile over the rounds."""
    per_round = round_latencies(rounds)
    round_s = round_seconds(rounds)
    draws = sum(op.draws_in(out) for op, (_, out, _) in zip(ops, rounds[0]) if out is not None)
    tails = [tail_percentile(lat) for lat in per_round]
    _, pct, beyond = tails[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (draws / round_s, "trials/s"),
        "networks_per_s": (len(ops) / round_s, "networks/s"),
        "net_p50_ms": (1e3 * lower_quartile(statistics.median(lat) for lat in per_round), "ms"),
        "net_tail_ms": (1e3 * lower_quartile(tail for tail, _, _ in tails), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"{len(rounds)} rounds of {len(ops)} operations",
             f"net_tail_ms is p{pct} of a round's {len(ops)} operations, {beyond} beyond it"]
    return metrics, notes


def profile_ops(W, R, workload, seed):
    """Work every traced run adds so each family has sweep and pipeline
    spans: the structural pipeline on the five families, and one sweep
    of each family the workload itself does not sweep."""
    swept = {f for f, _ in W.SWEEP_OPS.get(workload, ())}
    ops = [W.PipelineOp(R, build(R), 0, f"profile/{f}") for f, build in W.FAMILIES.items()]
    ops += [W.SweepOp(R, f, "outage_sweep", seed, W.FAMILY_TRIALS[f])
            for f in W.FAMILIES if f not in swept]
    return ops


def traced(W, R, workload, seed, seconds, ops, checker, clock):
    shapes = {}
    for family, build in W.FAMILIES.items():
        net = build(R)
        batch = min(W.BATCH, W.FAMILY_TRIALS[family])
        shapes[family] = W.channel_shape(R, net, R.auto_schedule(net), batch)
        checker.attempted += 1
        if not W.shape_matches(family, shapes[family]):
            checker.failed += 1
            print(f"mismatch: shape of {family}: {shapes[family]}", file=sys.stderr)
    extra = profile_ops(W, R, workload, seed)

    # untraced and traced rounds alternate, so drift in the machine's
    # speed does not land on one side of the overhead
    tracer = S.Tracer()
    untraced, replay = [], []
    start = perf_counter()
    while True:
        p0 = perf_counter()
        untraced += run_rounds(ops, clock, rounds=1)
        with tracer.patched(R):
            replay += run_rounds(ops, clock, rounds=1, tracer=tracer)
        p1 = perf_counter()
        if (p1 - start) + (p1 - p0) > seconds:
            break
    with tracer.patched(R):
        extra_results = [run_op(op, tracer) for op in extra]
    checker.check_rounds(ops, untraced + replay)
    checker.check_rounds(extra, [extra_results])

    traced_ops = [pair for results in replay for pair in zip(ops, results)]
    traced_ops += list(zip(extra, extra_results))
    family_counts = {f: [0, 0] for f in W.FAMILIES}
    pipeline_ops = 0
    for op, (_, out, _) in traced_ops:
        if out is None:
            continue
        if isinstance(op, W.SweepOp):
            family_counts[op.family][0] += op.draws
            family_counts[op.family][1] += W.outage_events(out)
        else:
            pipeline_ops += 1
    # typed rejections by protocol stages, among distinct networks
    distinct = list(zip(ops, replay[0])) + list(zip(extra, extra_results))
    rejected = sum(isinstance(op, W.PipelineOp) and out is not None
                   and out.get("rejected", [None])[0] in ("auto_schedule", "validate")
                   for op, (_, out, _) in distinct)
    # tracing overhead per round, from the lower-quartile rounds on both sides
    plain, spanned = round_seconds(untraced), round_seconds(replay)
    metrics = S.layer_metrics(tracer.spans, pipeline_ops, family_counts, shapes,
                              rejected, spanned - plain, plain)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "scope"],
                                "spans": tracer.spans}))
    notes = [f"{len(replay)} rounds traced, alternating with as many untraced",
             f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    return metrics, notes


def run_workload(workload, seed, seconds, trace):
    import workloads as W  # imports numpy: only after the BLAS threads are pinned

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    clock = Clock()
    setup_s, R, ops = set_up(W, workload, seed, clock)
    checker = Checker(W, reference, seed)
    if trace:
        metrics, notes = traced(W, R, workload, seed, seconds, ops, checker, clock)
    else:
        rounds = run_rounds(ops, clock, seconds=seconds)
        checker.check_rounds(ops, rounds)
        metrics, notes = end_to_end(ops, rounds, setup_s)
    slowdown = clock.slowdown()
    metrics = at_reference_speed(metrics, slowdown)
    known = ("recorded reference" if checker.sweeps or checker.networks
             else "no reference; outputs checked against each other")
    print(f"workload {workload}, seed {seed}: {known}")
    print(f"  outputs digest {W.digest(sorted(checker.digests.items()))}")
    for note in notes:
        print(f"  {note}")
    print(f"  machine ran {slowdown:.3f}x slower than reference speed "
          f"({len(clock.samples)} calibrations); times below are scaled to it")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        code = max(code, proc.returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaydmt" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'relaydmt'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    # one BLAS thread: the batched matrices are small, and a single
    # thread keeps figures steady on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())

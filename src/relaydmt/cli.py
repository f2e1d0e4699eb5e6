"""Batch front-end for the library.

One binary, five subcommands: classify a network file, synthesize and
export a schedule, compute analytic tradeoff curves, run an outage
simulation, and compare analytic against simulated diversity. Human
summaries go to standard output; machine-readable results go to files
named by --out, as CSV or JSON per --format, and every command that
writes --out prints ``wrote FILE``. Every run is deterministic given
its flags, with all randomness derived from --seed.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or
unsupported input), 4 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .dmt import curve_rows, family_dmt, schedule_curve
from .montecarlo import SimPlan, outage_sweep
from .netgraph import classify, load_network, min_cut
from .protocol import (auto_schedule, kppI_schedule, saf_schedule,
                       save_schedule, validate_orthogonal)

OK, USAGE, DATA, INTERNAL = 0, 2, 3, 4

_PARAM_KEYS = ("cycles", "frames", "saf_slots", "fit_points", "count_floor")
# every SNR point is a full sweep; a longer grid is a typo, not a plan
_MAX_SNR_POINTS = 10_000


class _Usage(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing

def _finite(text):
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relaydmt",
        description="Relay-network scheduling, tradeoff curves and "
                    "outage simulation.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, *, snr=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--network", required=True, metavar="FILE",
                        help="network description (JSON)")
        sp.add_argument("--out", metavar="FILE",
                        help="output file for machine-readable results")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output file format (default csv)")
        sp.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
        sp.add_argument("--family-params", default="", metavar="K=V,...",
                        help="extra knobs: " + ", ".join(_PARAM_KEYS))
        if snr:
            sp.add_argument("--snr-min", type=_finite, default=10.0,
                            help="lowest SNR grid point in dB (default 10)")
            sp.add_argument("--snr-max", type=_finite, default=40.0,
                            help="highest SNR grid point in dB (default 40)")
            sp.add_argument("--snr-step", type=_finite, default=5.0,
                            help="grid spacing in dB (default 5)")
            sp.add_argument("--trials", type=int, default=10_000,
                            help="fading draws per grid point (default 10000)")
            sp.add_argument("--rates", default=None, metavar="R,R,...",
                            help="multiplexing gains (comma separated)")
        return sp

    add("classify", "family tag, min-cut and backbone of a network")
    add("schedule", "synthesize a schedule, validate it, write it out")
    add("analyze", "analytic diversity-multiplexing curves")
    add("simulate", "Monte Carlo outage sweep", snr=True)
    cp = add("compare", "analytic curve vs simulated slope", snr=True)
    cp.add_argument("--tolerance", type=_finite, default=0.5,
                    help="|analytic - fitted| allowance in the table "
                         "(default 0.5)")
    return p


def _parse_family_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise _Usage(f"--family-params entry {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise _Usage(f"unknown --family-params key {key!r} "
                         f"(known: {', '.join(_PARAM_KEYS)})")
        try:
            params[key] = int(value)
        except ValueError:
            raise _Usage(f"--family-params {key} needs an integer, "
                         f"got {value!r}") from None
        if params[key] < 1:
            raise _Usage(f"--family-params {key} must be positive")
    return params


def _parse_rates(text):
    tokens = [t for t in (s.strip() for s in text.split(",")) if t]
    if not tokens:
        raise _Usage("--rates lists no values")
    rates = []
    for t in tokens:
        try:
            r = float(t)
        except ValueError:
            raise _Usage(f"rate {t!r} is not a number") from None
        if not math.isfinite(r):
            raise _Usage(f"rate {t!r} is not finite")
        if r < 0:
            raise _Usage("rates must be nonnegative")
        rates.append(r)
    return tuple(rates)


def _snr_grid(args):
    if args.snr_step <= 0:
        raise _Usage("--snr-step must be positive")
    if args.snr_max < args.snr_min:
        raise _Usage("--snr-max is below --snr-min")
    if (args.snr_max - args.snr_min) / args.snr_step >= _MAX_SNR_POINTS:
        raise _Usage(f"--snr-step {args.snr_step:g} gives more than "
                     f"{_MAX_SNR_POINTS} SNR points")
    grid, v = [], args.snr_min
    while v <= args.snr_max + 1e-9:
        grid.append(round(v, 9))
        if v + args.snr_step == v:
            raise _Usage(f"--snr-step {args.snr_step:g} is lost in rounding "
                         f"at {v:g} dB")
        v += args.snr_step
    return tuple(grid)


def _plan(args, params):
    if args.trials < 1:
        raise _Usage("--trials must be at least 1")
    if args.seed < 0:
        raise _Usage("--seed must be nonnegative")
    # only the knobs the user set; SimPlan holds the defaults
    knobs = {k: v for k, v in params.items()
             if k in ("cycles", "count_floor", "fit_points")}
    if args.rates is not None:
        knobs["rates"] = _parse_rates(args.rates)
    try:
        return SimPlan(snr_db=_snr_grid(args), trials=args.trials,
                       seed=args.seed, **knobs)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _require_out(args):
    if not args.out:
        raise _Usage(f"{args.command} writes its result to --out; "
                     "pass an output path")


def _schedule_for(net, params):
    if "frames" in params:
        # frames sets the segment length, and only KPP(I) with K >= 4
        # has segments; elsewhere it would bypass auto_schedule's choice
        cls = classify(net)
        if cls.tag != "KPP(I)" or cls.K < 4:
            paths = f" with {cls.K} paths" if cls.K else ""
            raise _Usage(f"--family-params frames needs a KPP(I) network "
                         f"with at least four paths, not {cls.label}{paths}")
        return kppI_schedule(net, params["frames"])
    if "saf_slots" in params:
        return saf_schedule(net, params["saf_slots"])
    return auto_schedule(net)


def _emit(args, doc, header, rows):
    """Write --out as JSON (``doc``) or as CSV (``header``, then
    ``rows``) and say so. csv writes None as an empty field and floats
    as their repr."""
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "json":
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            csv.writer(fh).writerows([header, *rows])
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# commands

def cmd_classify(args, params):
    net = load_network(args.network)
    cls = classify(net)
    cut = min_cut(net)
    bits = [cls.label]
    if cls.K is not None and cls.tag != "regular":
        bits.append(f"K={cls.K}")
    print(f"{', '.join(bits)}, min-cut {cut}")
    if cls.backbone is not None:
        for path in cls.backbone:
            print("  path: " + " > ".join(path))
    if cls.has_direct:
        print("  direct source-sink link present")
    if cls.has_interference:
        print("  links between distinct paths present")
    if args.out:
        _emit(args, {
            "family": cls.label,
            "k": cls.K,
            "l": cls.L,
            "min_cut": cut,
            "direct": cls.has_direct,
            "interference": cls.has_interference,
            "backbone": [list(p) for p in cls.backbone] if cls.backbone else None,
        }, ["family", "k", "l", "min_cut", "direct", "interference"],
            [[cls.label, cls.K, cls.L, cut,
              int(cls.has_direct), int(cls.has_interference)]])
    return OK


def cmd_schedule(args, params):
    _require_out(args)
    net = load_network(args.network)
    cls = classify(net)
    sched = _schedule_for(net, params)
    save_schedule(sched, args.out)
    print(f"family {cls.label}: cycle {sched.cycle_length} slots, "
          f"rate {sched.rate}, steady after {sched.steady_state_delay} slots")
    if sched.direct_link_mode != "none":
        print(f"  direct link mode: {sched.direct_link_mode}, "
              f"primes {dict(sched.buffer_primes)}")
    if cls.backbone is not None:
        report = validate_orthogonal(net, sched)
        for name, good in sorted(report.constraints.items()):
            print(f"  {name}: {'ok' if good else 'VIOLATED'}")
        if report.backflow_nodes:
            print(f"  back-flow nodes: {', '.join(report.backflow_nodes)}")
        else:
            print("  back-flow free")
        if not report.ok:
            for m in report.messages:
                print(f"  note: {m}")
    print(f"wrote {args.out}")
    return OK


def cmd_analyze(args, params):
    _require_out(args)
    net = load_network(args.network)
    fam = family_dmt(net)
    gap = "meets the cut-set bound" if fam.tight else "below the cut-set bound"
    print(f"family {fam.label}: d(0) = {fam.achievable.max_diversity}, "
          f"d reaches 0 at r = {fam.achievable.max_multiplexing}, {gap}")
    for note in fam.notes:
        print(f"  note: {note}")
    curves = {"achievable": curve_rows(fam.achievable),
              "cutset": curve_rows(fam.cutset)}
    _emit(args, {
        "family": fam.label,
        "tight": fam.tight,
        "notes": list(fam.notes),
        **{name: [list(p) for p in pts] for name, pts in curves.items()},
    }, ["curve", "multiplexing", "diversity"],
        [[name, r, d] for name, pts in curves.items() for r, d in pts])
    return OK


def _sweep(args, params):
    net = load_network(args.network)
    sched = _schedule_for(net, params)
    plan = _plan(args, params)
    return net, sched, plan, outage_sweep(net, sched, plan)


_POINT_FIELDS = ["rho_db", "r", "trials", "outages", "p_out", "ci"]


def _points(result):
    """One record per (SNR, rate) cell, for both the JSON and CSV output;
    floats print as their repr either way."""
    points = []
    for db in result.plan.snr_db:
        for r in result.plan.rates:
            e = result.estimate(db, r)
            lo, hi = e.wilson()
            points.append(dict(zip(_POINT_FIELDS, (
                float(db), float(r), e.trials, e.outages, e.prob,
                (hi - lo) / 2))))
    return points


def _slope_obj(fit):
    return {
        "slope": fit.slope,
        "uncertainty": fit.uncertainty,
        "snrs_used": [float(s) for s in fit.snrs_used],
        "note": fit.note,
    }


def cmd_simulate(args, params):
    _require_out(args)
    net, sched, plan, result = _sweep(args, params)
    print(f"{plan.trials} trials x {len(plan.snr_db)} SNR points, "
          f"rates {', '.join(str(r) for r in plan.rates)}, "
          f"window {plan.cycles} cycles ({result.n_symbols} symbols)")
    for r in plan.rates:
        fit = result.slopes[r]
        if fit.slope is None:
            print(f"  r={r}: slope undefined ({fit.note})")
        else:
            print(f"  r={r}: slope {fit.slope:.3f} +- {fit.uncertainty:.3f} "
                  f"over {fit.snrs_used} dB")
    points = _points(result)
    _emit(args, {
        "plan": {
            "snr_db": [float(v) for v in plan.snr_db],
            "rates": [float(v) for v in plan.rates],
            "trials": plan.trials,
            "seed": plan.seed,
            "cycles": plan.cycles,
        },
        "n_symbols": result.n_symbols,
        "total_slots": result.total_slots,
        "points": points,
        "slopes": {str(r): _slope_obj(result.slopes[r]) for r in plan.rates},
    }, _POINT_FIELDS, [list(p.values()) for p in points])
    return OK


def cmd_compare(args, params):
    if args.rates is None:
        raise _Usage("--rates is required for compare")
    net, sched, plan, result = _sweep(args, params)
    fam = family_dmt(net)
    # a schedule picked by --family-params is checked against its own curve
    curve = (schedule_curve(sched) if {"saf_slots", "frames"} & params.keys()
             else fam.achievable)
    print(f"family {fam.label}, {plan.trials} trials, "
          f"SNR {plan.snr_db[0]}-{plan.snr_db[-1]} dB")
    header = ["r", "analytic", "fitted", "gap", "uncertainty", "within"]
    print("  " + "  ".join(f"{h:>11s}" for h in header))
    rows = []
    for r in plan.rates:
        analytic = float(curve(Fraction(str(r))))
        fit = result.slopes[r]
        if fit.slope is None:
            row = [r, analytic, None, None, None, "n/a"]
            print(f"  {r:11.4g}  {analytic:11.4g}  {'undefined':>11s}"
                  f"  {'-':>11s}  {'-':>11s}  {'n/a':>11s}")
        else:
            gap = abs(fit.slope - analytic)
            verdict = "yes" if gap <= args.tolerance else "no"
            row = [r, analytic, fit.slope, gap, fit.uncertainty, verdict]
            print(f"  {r:11.4g}  {analytic:11.4g}  {fit.slope:11.4g}"
                  f"  {gap:11.4g}  {fit.uncertainty:11.4g}  {verdict:>11s}")
        rows.append(row)
    if args.out:
        _emit(args, {
            "family": fam.label,
            "tolerance": args.tolerance,
            "rows": [dict(zip(header, row)) for row in rows],
        }, header, rows)
    return OK


_COMMANDS = {
    "classify": cmd_classify,
    "schedule": cmd_schedule,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = _parse_family_params(args.family_params)
        return _COMMANDS[args.command](args, params)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, OSError, KeyError) as exc:
        # every library error, and json.JSONDecodeError, is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())

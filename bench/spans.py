"""Spans around the library's public functions, for the traced run.

A wrapper replaces each function in every ``relaydmt`` module that
holds a reference to it, so the calls the library makes internally
(``classify`` inside ``auto_schedule``, ``propagate`` inside
``extract_blocks``) get spans too. ``montecarlo`` binds
``PropagationProgram`` at import time, so compile and run are traced on
the class itself. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, function)
FUNCTIONS = {
    "netgraph.classify": ("netgraph", "classify"),
    "netgraph.min_cut": ("netgraph", "min_cut"),
    "protocol.auto_schedule": ("protocol", "auto_schedule"),
    "protocol.validate": ("protocol", "validate_orthogonal"),
    "dmt.family_dmt": ("dmt", "family_dmt"),
    "channel.propagate": ("channel", "propagate"),
    "channel.certificate": ("channel", "structure_certificate"),
    "channel.extract_blocks": ("channel", "extract_blocks"),
    "montecarlo.sweep": ("montecarlo", "outage_sweep"),
    "montecarlo.whitening_check": ("montecarlo", "whitening_check"),
    "montecarlo.backflow_check": ("montecarlo", "backflow_check"),
}
# span name -> (module, class, method)
METHODS = {
    "channel.compile": ("channel", "PropagationProgram", "__init__"),
    "channel.run": ("channel", "PropagationProgram", "run"),
}

PIPELINE_STAGES = (
    "netgraph.classify", "netgraph.min_cut", "protocol.auto_schedule",
    "protocol.validate", "dmt.family_dmt", "channel.propagate",
    "channel.compile", "channel.run", "channel.certificate",
    "channel.extract_blocks",
)
SHAPE_UNITS = {
    "rows": "count", "symbols": "count", "noise_cols": "count",
    "h_density": "frac", "g_density": "frac", "kept_col_frac": "frac",
    "blocks": "count", "max_block_rows": "count", "bytes_per_batch": "B",
}


class Tracer:
    """Collects spans [name, start, end, parent index, scope].

    ``scope`` is set by the caller before each operation, so spans can
    be grouped by what the benchmark was doing: ``pipeline`` or
    ``sweep:<family>``.
    """

    def __init__(self):
        self.spans = []
        self.scope = None
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, perf_counter(), None, parent, self.scope]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
        return traced

    @contextmanager
    def patched(self, package):
        """Install the wrappers; every patched attribute is restored on
        exit, also when the body raises."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        saved = []
        try:
            for name, (mod, attr) in FUNCTIONS.items():
                original = getattr(getattr(package, mod), attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, key, original))
                            setattr(m, key, wrapper)
            for name, (mod, cls, method) in METHODS.items():
                klass = getattr(getattr(package, mod), cls)
                original = vars(klass)[method]
                saved.append((klass, method, original))
                setattr(klass, method, self.wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(spans, pipeline_ops, family_counts, shapes, rejected,
                  overhead_s, untraced_s):
    """Per-layer metrics as {name: (value, unit)}.

    Stage times are self times. Unsuffixed stage times are per network
    of the structural pipeline; ``.<family>`` metrics are per sweep or
    check call on that family. ``family_counts`` maps a family to its
    summed (draws, outage events) over the traced calls.
    """
    own = self_times(spans)
    out = {}
    for stage in PIPELINE_STAGES:
        total = sum(t for s, t in zip(spans, own)
                    if s[0] == stage and s[4] == "pipeline")
        out[f"{stage}_ms"] = (1e3 * total / pipeline_ops, "ms")
    out["protocol.rejected"] = (rejected, "count")
    for family, shape in shapes.items():
        scope = f"sweep:{family}"
        calls = sweep = score = compile_s = run_s = 0.0
        for s, t in zip(spans, own):
            if s[4] != scope:
                continue
            if s[0].startswith("montecarlo."):
                calls += 1
                sweep += s[2] - s[1]
                score += t
            elif s[0] == "channel.compile":
                compile_s += t
            elif s[0] == "channel.run":
                run_s += t
        draws, events = family_counts[family]
        out[f"channel.compile_ms.{family}"] = (1e3 * compile_s / calls, "ms")
        out[f"channel.run_ms.{family}"] = (1e3 * run_s / calls, "ms")
        out[f"montecarlo.sweep_ms.{family}"] = (1e3 * sweep / calls, "ms")
        out[f"montecarlo.score_ms.{family}"] = (1e3 * score / calls, "ms")
        out[f"montecarlo.score_us_per_draw.{family}"] = (1e6 * score / draws, "us")
        out[f"montecarlo.draws.{family}"] = (draws / calls, "count")
        out[f"montecarlo.outage_events.{family}"] = (events / calls, "count")
        out[f"protocol.window_slots.{family}"] = (shape["window_slots"], "slots")
        for key, unit in SHAPE_UNITS.items():
            out[f"channel.{key}.{family}"] = (shape[key], unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_pct"] = (100.0 * overhead_s / untraced_s, "%")
    return out

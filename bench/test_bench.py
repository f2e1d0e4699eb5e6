"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench
"""

import json
import random
import sys

import pytest

from run import BENCH_DIR, SRC, Checker, tail_percentile

sys.path.insert(0, str(SRC))

import relaydmt as R  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402


def reference():
    return json.loads((BENCH_DIR / "reference.json").read_text())


def test_single_changed_outage_count_is_flagged():
    op = W.SweepOp(R, "single", "outage_sweep", 0, W.FAMILY_TRIALS["single"])
    out = op.run()
    checker = Checker(W, reference(), 0)
    assert checker.check(op, out, None)
    changed = json.loads(json.dumps(out))
    changed["counts"][3][2] += 1
    assert not checker.check(op, changed, None)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_seed_without_reference_checks_outputs_against_each_other():
    op = W.SweepOp(R, "single", "outage_sweep", 1000, 256)
    out = op.run()
    checker = Checker(W, reference(), 1000)
    assert checker.check(op, out, None) and checker.check(op, out, None)
    changed = json.loads(json.dumps(out))
    changed["counts"][0][2] += 1
    assert not checker.check(op, changed, None)


def _attributes():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "relaydmt" or name.startswith("relaydmt."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    snap.update({("PropagationProgram", k): v
                 for k, v in vars(R.PropagationProgram).items()})
    return snap


def test_wrappers_restore_every_attribute_when_a_call_raises():
    before = _attributes()
    original = R.min_cut
    tracer = S.Tracer()
    with pytest.raises(AttributeError):
        with tracer.patched(R):
            assert R.min_cut is not original
            assert R.netgraph.classify is R.protocol.classify
            R.min_cut("not a network")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [s[0] for s in tracer.spans] == ["netgraph.min_cut"]
    assert tracer.spans[0][2] is not None


def test_nested_library_calls_get_spans_and_self_times():
    tracer = S.Tracer()
    net = W.FAMILIES["kpp234"](R)
    tracer.scope = "pipeline"
    with tracer.patched(R):
        R.auto_schedule(net)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "protocol.auto_schedule" and "netgraph.classify" in names
    own = S.self_times(tracer.spans)
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == 0)
    assert own[0] == pytest.approx(outer - children)


def test_corpus_is_a_pure_function_of_the_seed():
    first = W.corpus_specs(7)
    random.seed(123)
    random.random()
    assert W.corpus_specs(7) == first
    assert W.corpus_specs(8) != first
    assert len(first) == 100


@pytest.mark.parametrize("n", [20, 37, 100, 216, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct, beyond = tail_percentile(samples)
    assert sum(x > value for x in samples) == beyond >= 10
    if pct < 99:
        k = -(-(pct + 1) * n // 100)
        assert n - k < 10


def test_tail_with_few_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)


@pytest.mark.parametrize("family", list(W.FAMILIES))
def test_channel_shapes_match_the_recorded_blocks(family):
    net = W.FAMILIES[family](R)
    shape = W.channel_shape(R, net, R.auto_schedule(net), W.BATCH)
    assert W.shape_matches(family, shape), shape


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    spans = [[stage, 0.0, 1.0, -1, "pipeline"] for stage in S.PIPELINE_STAGES]
    shapes = {}
    for f in W.FAMILIES:
        spans.append(["montecarlo.sweep", 0.0, 3.0, -1, f"sweep:{f}"])
        spans.append(["channel.run", 1.0, 2.0, len(spans) - 1, f"sweep:{f}"])
        shapes[f] = dict.fromkeys(list(S.SHAPE_UNITS) + ["window_slots"], 1)
    counts = {f: (10, 1) for f in W.FAMILIES}
    metrics = S.layer_metrics(spans, 1, counts, shapes, 0, 0.5, 5.0)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert metrics["montecarlo.score_ms.kpp234"][0] == pytest.approx(2e3)
    assert metrics["channel.run_ms.kpp234"][0] == pytest.approx(1e3)

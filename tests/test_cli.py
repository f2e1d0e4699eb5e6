"""Command-line behavior: outputs, formats, exit codes, determinism."""

import csv
import json

import pytest

from relaydmt import (
    kpp_network,
    layered_network,
    load_schedule,
    naf_network,
    saf_network,
    save_network,
    single_link_network,
)
from relaydmt.cli import main


@pytest.fixture
def nets(tmp_path):
    files = {}
    for name, net in [
        ("naf", naf_network()),
        ("saf2", saf_network(2)),
        ("kpp3", kpp_network((2, 3, 4))),
        ("kppd", kpp_network((2, 3, 4), direct_link=True)),
        ("single", single_link_network()),
        ("crossed2", kpp_network((2, 3), cross_links=(((1, 1), (2, 1)),))),
    ]:
        path = tmp_path / f"{name}.json"
        save_network(net, path)
        files[name] = str(path)
    return files


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# classify

def test_classify_summary_and_csv(nets, tmp_path, capsys):
    out = tmp_path / "cls.csv"
    assert main(["classify", "--network", nets["kppd"], "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("KPP(D)")
    assert "min-cut 4" in text
    assert "direct source-sink link present" in text
    assert text.count("path: s >") == 3
    assert text.splitlines()[-1] == f"wrote {out}"
    rows = read_csv(out)
    assert rows[0] == ["family", "k", "l", "min_cut", "direct", "interference"]
    assert rows[1][3] == "4" and rows[1][4] == "1"


def test_classify_json(nets, tmp_path):
    out = tmp_path / "cls.json"
    assert main(["classify", "--network", nets["kpp3"], "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert data["k"] == 3 and data["min_cut"] == 3
    assert data["direct"] is False
    assert len(data["backbone"]) == 3


# ---------------------------------------------------------------------------
# schedule

def test_schedule_writes_loadable_file(nets, tmp_path, capsys):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--network", nets["naf"], "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "cycle 2 slots" in text and "rate 1" in text
    sched = load_schedule(out)
    assert sched.cycle_length == 2
    assert sched.params.get("direct_every_slot") == 1


def test_schedule_reports_constraints(nets, tmp_path, capsys):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--network", nets["kpp3"], "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "first_edges_disjoint: ok" in text
    assert "back-flow free" in text


def test_schedule_on_a_long_crossed_network(tmp_path, capsys, classify_runs):
    # 1017 relays: the delay search runs deeper than the recursion limit
    path = tmp_path / "long.json"
    save_network(kpp_network((340, 339, 341), cross_links=[((2, 2), (3, 2))]),
                 path)
    out = tmp_path / "sched.json"
    assert main(["schedule", "--network", str(path), "--out", str(out)]) == 0
    assert "family KPP(I): cycle 3 slots, rate 1" in capsys.readouterr().out
    assert load_schedule(out).added_delays == {"p2r338": 1}
    # the command, the dispatch and the validation share one classification
    assert len(classify_runs) == 1


def test_schedule_family_param_overrides_slot_count(nets, tmp_path):
    out = tmp_path / "sched.json"
    assert main(["schedule", "--network", nets["saf2"], "--out", str(out),
                 "--family-params", "saf_slots=8"]) == 0
    assert load_schedule(out).cycle_length == 8


def test_schedule_frames_only_for_segmented_networks(nets, tmp_path, capsys):
    # frames sets the segment length of KPP(I) with K >= 4; elsewhere it
    # used to replace the dispatcher's schedule (dropping a KPP(I,D)
    # direct link) or be ignored
    files = {}
    for name, net in [
        ("kppI4", kpp_network((2, 3, 3, 4), cross_links=[((1, 1), (2, 1))])),
        ("kppI3", kpp_network((2, 2, 4), cross_links=[((3, 1), (1, 1))])),
        ("kppID3", kpp_network((4, 4, 4), direct_link=True,
                               cross_links=[((1, 2), (2, 2))],
                               bidirectional=False)),
        ("kppID4", kpp_network((2, 3, 3, 4), direct_link=True,
                               cross_links=[((1, 1), (2, 1))])),
    ]:
        files[name] = str(tmp_path / f"{name}.json")
        save_network(net, files[name])
    out = tmp_path / "sched.json"
    assert main(["schedule", "--network", files["kppI4"], "--out", str(out),
                 "--family-params", "frames=2"]) == 0
    assert load_schedule(out).params == {"segments": 4,
                                         "frames_per_segment": 2}
    for path in (files["kppI3"], files["kppID3"], files["kppID4"],
                 nets["kpp3"], nets["naf"]):
        assert main(["schedule", "--network", path, "--out", str(out),
                     "--family-params", "frames=2"]) == 2, path
        assert "frames needs a KPP(I) network" in capsys.readouterr().err
    assert main(["simulate", "--network", nets["kpp3"], "--out", str(out),
                 "--family-params", "frames=2"]) == 2


def test_schedule_requires_out(nets, capsys):
    assert main(["schedule", "--network", nets["naf"]]) == 2
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_csv_curves(nets, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["analyze", "--network", nets["naf"], "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "d(0) = 2" in text
    assert "below the cut-set bound" in text
    rows = read_csv(out)
    assert rows[0] == ["curve", "multiplexing", "diversity"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds == ["achievable"] * 3 + ["cutset"] * 2
    assert [float(r[1]) for r in rows[1:4]] == [0.0, 0.5, 1.0]
    assert [float(r[2]) for r in rows[1:4]] == [2.0, 0.5, 0.0]


def test_analyze_json(nets, tmp_path, capsys):
    out = tmp_path / "curves.json"
    assert main(["analyze", "--network", nets["kppd"], "--out", str(out),
                 "--format", "json"]) == 0
    assert "meets the cut-set bound" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["tight"] is True
    assert data["achievable"] == [[0.0, 4.0], [1.0, 0.0]]


def test_analyze_unsupported_family_is_data_error(nets, capsys):
    assert main(["analyze", "--network", nets["crossed2"],
                 "--out", "/dev/null"]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

SIM_FLAGS = ["--snr-min", "5", "--snr-max", "15", "--trials", "600",
             "--rates", "0.0,0.3"]


def test_simulate_csv_schema_and_determinism(nets, tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["simulate", "--network", nets["naf"], "--out", str(out),
                     *SIM_FLAGS]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == ["rho_db", "r", "trials", "outages", "p_out", "ci"]
    assert len(rows) == 1 + 3 * 2
    for row in rows[1:]:
        assert int(row[2]) == 600
        assert 0 <= int(row[3]) <= 600
        assert abs(float(row[4]) - int(row[3]) / 600) < 1e-12

    assert main(["simulate", "--network", nets["naf"],
                 "--out", str(tmp_path / "c.csv"), "--seed", "1",
                 *SIM_FLAGS]) == 0
    assert (tmp_path / "c.csv").read_bytes() != out1.read_bytes()


def test_simulate_json_carries_plan_and_slopes(nets, tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--network", nets["naf"], "--out", str(out),
                 "--format", "json", *SIM_FLAGS,
                 "--family-params", "cycles=2,count_floor=5"]) == 0
    data = json.loads(out.read_text())
    assert data["plan"]["cycles"] == 2
    assert data["plan"]["snr_db"] == [5.0, 10.0, 15.0]
    assert len(data["points"]) == 6
    assert set(data["slopes"]) == {"0.0", "0.3"}
    fit = data["slopes"]["0.0"]
    assert fit["slope"] is None or fit["slope"] == pytest.approx(1.0, abs=1.0)


def test_simulate_usage_errors(nets, capsys):
    cases = [
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--trials", "0"], "at least 1"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--rates", " , "], "lists no values"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--rates", "-0.5"], "nonnegative"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-step", "0"], "snr-step"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-min", "30", "--snr-max", "10"], "below"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--family-params", "bogus=3"], "unknown"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--family-params", "cycles=abc"], "integer"),
        # one point cannot give a slope; SimPlan's check is a usage error
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--family-params", "fit_points=1"], "fit_points"),
        (["simulate", "--network", nets["naf"]], "--out"),
        # non-finite numbers: an infinite --snr-max used to grow the SNR
        # grid forever, NaN gave an empty grid or NaN rates and exit 0
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-max", "inf"], "--snr-max"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-max", "nan"], "--snr-max"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-min=-inf"], "--snr-min"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-step", "nan"], "--snr-step"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--rates", "0.5,nan"], "not finite"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--rates", "inf"], "not finite"),
        # a repeated rate, or SNR points that round to one, counted each
        # draw twice into one estimate
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--rates", "0.5,0.5"], "SimPlan.rates must be distinct"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-min", "0", "--snr-max", "1e-9", "--snr-step", "1e-10"],
         "SimPlan.snr_db must be distinct"),
        (["compare", "--network", nets["naf"], "--rates", "0.5",
          "--tolerance", "nan"], "--tolerance"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--seed", "-1"], "--seed"),
        # finite grids that never end: the step is lost in rounding, or
        # the grid would hold 1e15 points
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-min", "1e17", "--snr-max", "2e17", "--snr-step", "5"],
         "SNR points"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-min", "1e17", "--snr-max", "1e17", "--snr-step", "5"],
         "lost in rounding"),
        (["simulate", "--network", nets["naf"], "--out", "x.csv",
          "--snr-max", "1e12", "--snr-step", "1e-3"], "SNR points"),
    ]
    for argv, needle in cases:
        assert main(argv) == 2, argv
        assert needle in capsys.readouterr().err, argv


def test_data_errors(tmp_path, nets, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["classify", "--network", missing]) == 3

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["classify", "--network", str(garbled)]) == 3

    # a schedule file is valid JSON but not a network description
    sched_file = tmp_path / "sched.json"
    assert main(["schedule", "--network", nets["naf"],
                 "--out", str(sched_file)]) == 0
    capsys.readouterr()
    assert main(["classify", "--network", str(sched_file)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("antennas", 2.7), ("bidirectional", "no"),
                                         ("id", None), ("tail", 1)])
def test_classify_rejects_truncated_network_fields(tmp_path, capsys, field, value):
    # once loaded as 2 antennas (min-cut 2), as a bidirectional edge, and
    # through str() as node "None" and edge tail "1"
    data = {"nodes": [{"id": "s", "role": "source", "antennas": 3},
                      {"id": "d", "role": "sink", "antennas": 3}],
            "edges": [{"tail": "s", "head": "d"}]}
    target = data["nodes"][0] if field in ("antennas", "id") else data["edges"][0]
    target[field] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--network", str(path)]) == 3
    assert "malformed network description" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["schedule", "analyze"])
@pytest.mark.parametrize("net", [
    saf_network(3).without_edges({("r3", "d")}),
    saf_network(2).without_edges({("s", "r2")}),
], ids=["no-sink-link", "no-source-link"])
def test_bank_with_a_missing_link_is_data_error(tmp_path, capsys, command, net):
    # once a 5-slot SAF schedule over the missing edge, and a d(0) = 3
    # curve over a min-cut of 2
    path = tmp_path / "net.json"
    save_network(net, path)
    assert main([command, "--network", str(path),
                 "--out", str(tmp_path / "out.json")]) == 3
    assert "error:" in capsys.readouterr().err


def test_classify_spent_search_budget_is_data_error(tmp_path, capsys):
    path = tmp_path / "layered166661.json"
    save_network(layered_network((1, 6, 6, 6, 6, 1)), path)
    assert main(["classify", "--network", str(path)]) == 3
    assert "backbone search" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare

def test_compare_table_and_csv(nets, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--network", nets["single"], "--out", str(out),
                 "--snr-min", "10", "--snr-max", "30", "--trials", "3000",
                 "--rates", "0.0,0.5"]) == 0
    text = capsys.readouterr().out
    assert "analytic" in text and "fitted" in text
    rows = read_csv(out)
    assert rows[0] == ["r", "analytic", "fitted", "gap", "uncertainty", "within"]
    assert len(rows) == 3
    assert float(rows[1][1]) == 1.0 and float(rows[2][1]) == 0.5
    assert rows[1][5] == "yes" and rows[2][5] == "yes"


def test_compare_without_out_prints_only(nets, tmp_path, capsys):
    before = set(tmp_path.iterdir())
    assert main(["compare", "--network", nets["single"],
                 "--snr-min", "10", "--snr-max", "20", "--trials", "400",
                 "--rates", "0.0"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert set(tmp_path.iterdir()) == before


def test_compare_requires_rates(nets, capsys):
    assert main(["compare", "--network", nets["single"]]) == 2
    assert "--rates" in capsys.readouterr().err

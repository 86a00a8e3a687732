import argparse
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from conftest import ladder, ladder_spec

from cograte import achievable, cli, errors, outer
from cograte.achievable import mu_sum_achievable, trace_boundary
from cograte.channel import load_channel
from cograte.cli import build_parser, bundled_channel_text, main
from cograte.outer import trace_outer_boundary
from cograte.regions import write_atomic
from cograte.solvers import SolverSettings


@pytest.fixture()
def channel_file(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(bundled_channel_text())
    return str(path)


def run(args):
    return main(args)


def test_region_csv(tmp_path, channel_file, capsys):
    out = str(tmp_path / "region.csv")
    code = run([
        "region", "--channel", channel_file, "--mu-grid", "log:0.01:100:25",
        "--out", out, "--seed", "1", "--starts", "4",
    ])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "mu,r_p,r_c"
    assert len(lines) == 26
    first = lines[1].split(",")  # largest mu row
    assert float(first[0]) == pytest.approx(100.0)
    assert float(first[1]) == pytest.approx(2.3542, abs=1e-3)


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_take_the_mode_a_plain_open_gives(tmp_path, umask):
    # the atomic write renames a temp file into place; mkstemp made that file
    # 0o600 whatever the umask
    old = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "written.csv"), "mu,r_p,r_c\n")
        with open(tmp_path / "plain.csv", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("written.csv") == mode("plain.csv") == 0o666 & ~umask
    assert (tmp_path / "written.csv").read_text() == "mu,r_p,r_c\n"
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "written.csv"]


def test_region_single_zero_mu(tmp_path, channel_file):
    out = str(tmp_path / "r.csv")
    code = run([
        "region", "--channel", channel_file, "--mu-grid", "single:0",
        "--out", out, "--starts", "4",
    ])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) == pytest.approx(1.6856244190235852, abs=1e-6)


def test_region_json_schema(tmp_path, channel_file):
    out = str(tmp_path / "r.json")
    code = run([
        "region", "--channel", channel_file, "--mu-grid", "single:1",
        "--out", out, "--format", "json", "--starts", "4",
    ])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["schema"] == 1
    assert "witness" in doc["points"][0]


def test_region_missing_channel(tmp_path):
    code = run(["region", "--channel", str(tmp_path / "nope.json"), "--out",
                str(tmp_path / "x.csv")])
    assert code == 2


def test_region_bad_mu_grid(tmp_path, channel_file):
    code = run(["region", "--channel", channel_file, "--mu-grid", "log:0:10:5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_region_deterministic_bytes(tmp_path, channel_file):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        assert run([
            "region", "--channel", channel_file, "--mu-grid", "log:0.1:10:5",
            "--out", out, "--seed", "7", "--starts", "4",
        ]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_bound_curves(tmp_path, channel_file):
    stem = str(tmp_path / "bound")
    code = run([
        "bound", "--channel", channel_file, "--alpha", "1",
        "--mu-grid", "single:inf", "--out", stem, "--starts", "4",
    ])
    assert code == 0
    lines = open(f"{stem}_alpha1.csv").read().strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(2.4093, abs=1e-3)
    combined = json.loads(open(f"{stem}.json").read())
    assert combined["schema"] == 1 and "1" in combined["alphas"]


def test_bound_rejects_negative_alpha(tmp_path, channel_file):
    code = run([
        "bound", "--channel", channel_file, "--alpha", "-1",
        "--out", str(tmp_path / "b"),
    ])
    assert code == 2


def test_bound_writes_one_file_per_alpha(tmp_path, channel_file):
    stem = str(tmp_path / "bt")
    code = run([
        "bound", "--channel", channel_file, "--alpha", "0.5,2",
        "--mu-grid", "lin:1:2:2", "--out", stem, "--starts", "3",
    ])
    assert code == 0
    assert os.path.exists(f"{stem}_alpha0.5.csv") and os.path.exists(f"{stem}_alpha2.csv")


def test_sweep_alpha_report(tmp_path, channel_file):
    out = str(tmp_path / "sweep.json")
    code = run([
        "sweep-alpha", "--channel", channel_file, "--out", out, "--starts", "4",
    ])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["schema"] == 1
    assert doc["n_value_per_mu"] == pytest.approx(2.3542, abs=1e-3)
    assert 0.4 < doc["alpha_star"] < 0.7
    assert doc["condition_check"] is True
    assert "0.9689" in doc["paper_alpha_note"]
    # past mu* = 2.93 the sweep reads the closed form and solves alpha* alone
    assert doc["alpha_evals"] == 1
    assert abs(doc["slope_at_alpha_star"]) <= 1e-4 * doc["n_value"]
    # below it the default resolution 400 solves 6 scan alphas; the slope
    # search adds a few
    assert run(["sweep-alpha", "--channel", channel_file, "--out", out, "--starts", "4",
                "--mu", "2"]) == 0
    doc = json.loads(open(out).read())
    assert 6 < doc["alpha_evals"] <= 6 + 8
    assert abs(doc["slope_at_alpha_star"]) <= 1e-4 * doc["n_value"]


def test_sweep_alpha_resolution_sets_the_scan_points(monkeypatch, tmp_path, channel_file):
    scans, alphas = [], []
    sweep, solve = cli.inf_alpha_partial_outer, outer.mu_sum_partial_outer

    def counted_sweep(*args, **kwargs):
        scans.append(kwargs["n_scan"])
        return sweep(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        alphas.extend(np.atleast_1d(args[1]))  # one entry per (alpha, mu) weighting
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "inf_alpha_partial_outer", counted_sweep)
    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted_solve)
    out = tmp_path / "sweep.json"
    # mu = 2 lies below the bundled channel's mu* = 2.93, so the scan is solved
    flags = ["--channel", channel_file, "--out", str(out), "--starts", "4"]
    assert run(["sweep-alpha", *flags, "--mu", "2", "--resolution", "100"]) == 0
    assert scans == [3]
    assert json.loads(out.read_text())["alpha_evals"] <= 3 + 8
    # resolution 2 scans the bracket edges alone; the slope brackets alpha* from them
    alphas.clear()
    assert run(["sweep-alpha", *flags, "--mu", "2", "--resolution", "2"]) == 0
    assert scans == [3, 2]
    assert alphas[:2] == [pytest.approx(1e-3, rel=1e-15), pytest.approx(1e3, rel=1e-15)]
    assert all(1e-3 < a < 1e3 for a in alphas[2:])
    # past mu* the scan of the edges reads the closed form, and alpha* alone is solved
    alphas.clear()
    assert run(["sweep-alpha", *flags, "--resolution", "2"]) == 0
    assert scans == [3, 2, 2]
    doc = json.loads(out.read_text())
    assert alphas == [doc["alpha_star"]] and doc["alpha_evals"] == 1
    assert doc["n_value_per_mu"] == pytest.approx(2.3542, abs=1e-3)
    assert abs(doc["slope_at_alpha_star"]) <= 1e-4 * doc["n_value"]


def test_sweep_alpha_solves_the_partial_bound_once_per_alpha_eval(
    monkeypatch, tmp_path, channel_file
):
    # the condition reads the sweep's winner, so no solve is made beyond
    # the alpha evaluations the report counts
    solve, calls = outer.mu_sum_partial_outer, []

    def counted_solve(*args, **kwargs):
        calls.extend(np.atleast_1d(args[1]))  # one entry per (alpha, mu) weighting
        return solve(*args, **kwargs)

    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted_solve)
    out = tmp_path / "sweep.json"
    flags = ["--channel", channel_file, "--out", str(out), "--starts", "4"]
    for mu in ("2", "1e6"):  # below and past the bundled channel's mu* = 2.93
        calls.clear()
        assert run(["sweep-alpha", *flags, "--mu", mu]) == 0
        assert len(calls) == json.loads(out.read_text())["alpha_evals"]


def test_reproduce_paper_solves_each_curve_and_the_alpha_scan_once(monkeypatch, tmp_path,
                                                                  channel_file):
    # a work guard without timing: the region, one call for the whole bound
    # family (5 alphas x 25 mus), the peak, the sweep's one solve at alpha*
    # (mu = 1e6 lies past mu* = 2.93, where the sweep reads the closed form)
    # and the broadcast check (15 calls when each alpha's curve took its own
    # call, and 11 with the sweep's scan and polish steps solved)
    solves, scans = [], []
    multistart, solve = achievable.maximize_multistart, outer.mu_sum_partial_outer

    def counted_multistart(*args, **kwargs):
        solves.append(len(args[4]))
        return multistart(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        scans.append(np.size(args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(achievable, "maximize_multistart", counted_multistart)
    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted_solve)
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(tmp_path / "rep")]) == 0
    assert len(solves) == 5 and scans == [125, 1]
    # the family's weightings are one ascent
    assert 125 in solves
    # below mu*, one call for the sweep's whole 6-point scan, then one per
    # polish step and the final solve
    solves.clear()
    scans.clear()
    out = str(tmp_path / "sweep.json")
    assert run(["sweep-alpha", "--channel", channel_file, "--mu", "2", "--out", out]) == 0
    assert scans[0] == 6 and scans.count(1) == len(scans) - 1 > 1
    assert solves.count(6) == 1


def test_only_log_dets_taller_than_one_take_a_lapack_solve(monkeypatch, tmp_path):
    # the bundled channel's log-dets are all 1x1, where LAPACK's per-matrix
    # cost was most of a gradient call; 2x2 ones keep the solve
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(tmp_path / "rep")]) == 0
    assert solves == []
    ch = ladder(2)
    mu_sum_achievable(ch, 2.0, SolverSettings(starts=1, max_iters=2))
    assert solves


def test_bound_solves_the_whole_family_in_one_call(monkeypatch, tmp_path, channel_file):
    # a work guard without timing: one call for every alpha's curve and none
    # for the region (6 calls when each alpha took its own)
    solves = []
    multistart = achievable.maximize_multistart

    def counted(*args, **kwargs):
        solves.append(len(args[4]))
        return multistart(*args, **kwargs)

    monkeypatch.setattr(achievable, "maximize_multistart", counted)
    code = run([
        "bound", "--channel", channel_file, "--alpha", "0.25,0.5,1,2,4",
        "--mu-grid", "log:0.1:10:4", "--out", str(tmp_path / "b"), "--starts", "2",
    ])
    assert code == 0
    assert solves == [5 * 4]


def test_bound_makes_no_achievable_solve(monkeypatch, tmp_path, channel_file):
    # only reproduce-paper, which writes the region and checks that the
    # bound contains it, solves the region
    def fail(*_args, **_kwargs):
        pytest.fail("bound solved the achievable region")

    monkeypatch.setattr(cli, "trace_boundary", fail)
    monkeypatch.setattr(achievable, "mu_sum_achievable", fail)
    assert run(["bound", "--channel", channel_file, "--out", str(tmp_path / "b")]) == 0
    monkeypatch.undo()

    calls = []
    trace = cli.trace_boundary
    monkeypatch.setattr(cli, "trace_boundary", lambda *a, **k: calls.append(1) or trace(*a, **k))
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(tmp_path / "rep")]) == 0
    assert calls == [1]


@pytest.mark.parametrize("n", [0, 2, 3, 4])
def test_a_cold_bound_contains_the_region_and_meets_the_warm_bound(tmp_path, sec7, n):
    # bound climbs from its own starts, without the region's witnesses: at
    # every mu each of its curves still lies above the region the CLI writes
    # (n = 0 is the bundled channel, else the benchmark's n-antenna ladder),
    # and within 1e-12 relative of the bound warm-started from that region:
    # the Newton polish converges both to the same stationary point
    if n:
        ch, path = ladder(n), tmp_path / "ladder.json"
        path.write_text(json.dumps(ladder_spec(n)))
        grid, starts = "log:0.5:4:4", 2
    else:
        ch, path = sec7, tmp_path / "sec7.json"
        path.write_text(bundled_channel_text())
        grid, starts = cli.DEFAULT_MU_GRID, 8
    alphas = [0.5, 1.0, 2.0]
    common = ["--channel", str(path), "--mu-grid", grid, "--starts", str(starts)]
    assert run(["region", *common, "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert run(["bound", *common, "--alpha", "0.5,1,2", "--out", str(tmp_path / "b")]) == 0
    opts = SolverSettings(starts=starts, seed=0)
    region = trace_boundary(ch, cli._parse_mu_grid(grid, 1e6), opts)
    assert (tmp_path / "r.json").read_text() == region.to_json()
    warm = trace_outer_boundary(ch, alphas, [p.mu for p in region.points], opts,
                                warm_boundary=region)
    cold = json.loads((tmp_path / "b.json").read_text())["alphas"]
    for alpha, curve in zip(alphas, warm):
        points = cold[f"{alpha:g}"]
        assert len(points) == len(region.points) == len(curve.points)
        for c, r, w in zip(points, region.points, curve.points):
            assert c["mu"] == r.mu == w.mu
            value = c["mu"] * c["r_p"] + c["r_c"]
            assert value >= r.rate.mu_sum(r.mu) - 1e-9
            assert value == pytest.approx(w.rate.mu_sum(w.mu), rel=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_bound_family_writes_what_each_alpha_writes_alone(tmp_path, channel_file, fmt):
    common = ["--channel", channel_file, "--mu-grid", "log:0.1:10:4", "--starts", "3",
              "--format", fmt]
    family = str(tmp_path / "family")
    assert run(["bound", *common, "--alpha", "0.5,1,2", "--out", family]) == 0
    combined = json.loads(open(f"{family}.json").read())["alphas"]
    assert sorted(combined) == ["0.5", "1", "2"]
    for label in combined:
        alone = str(tmp_path / f"alone{label}")
        assert run(["bound", *common, "--alpha", label, "--out", alone]) == 0
        got = open(f"{family}_alpha{label}.{fmt}", "rb").read()
        assert got == open(f"{alone}_alpha{label}.{fmt}", "rb").read()
        assert combined[label] == json.loads(open(f"{alone}.json").read())["alphas"][label]


def test_sweep_alpha_and_reproduce_paper_write_the_same_sweep_report(tmp_path, channel_file):
    out = tmp_path / "sweep.json"
    assert run(["sweep-alpha", "--channel", channel_file, "--seed", "0", "--out", str(out)]) == 0
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "sweep_alpha.json").read_bytes() == out.read_bytes()


def test_reproduce_paper_writes_what_region_and_bound_write(tmp_path, channel_file):
    # the bound family climbs from its own starts, as bound's does, so every
    # curve file is bound's, byte for byte
    rep = tmp_path / "rep"
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(rep)]) == 0
    common = ["--channel", channel_file, "--seed", "0"]
    for fmt in ("csv", "json"):
        out = tmp_path / f"region.{fmt}"
        assert run(["region", *common, "--format", fmt, "--out", str(out)]) == 0
        assert (rep / f"region.{fmt}").read_bytes() == out.read_bytes()
    assert run(["bound", *common, "--out", str(tmp_path / "bound")]) == 0
    for alpha in cli.DEFAULT_ALPHAS:
        name = f"bound_alpha{alpha:g}.csv"
        assert (rep / name).read_bytes() == (tmp_path / name).read_bytes()
    assert (rep / "bounds.json").read_bytes() == (tmp_path / "bound.json").read_bytes()


def test_no_solve_is_handed_another_solves_result(monkeypatch, tmp_path, channel_file):
    # reproduce-paper's bound family, the sweep's final solve at alpha* (mu =
    # 2 lies below mu* = 2.93, where the sweep solves its scan) and the
    # tightness check's broadcast solve all climb from their own starts
    partial, bc = [], []
    solve, broadcast = outer.mu_sum_partial_outer, outer.bc_mu_sum

    def recorded(calls, fn):
        def call(ch, alpha, mu, opts=None, extra_starts=(), **kwargs):
            # a grid takes one sequence of starts per weighting
            calls.append(sum(map(len, extra_starts)) if np.ndim(mu) else len(extra_starts))
            return fn(ch, alpha, mu, opts, extra_starts, **kwargs)

        return call

    monkeypatch.setattr(outer, "mu_sum_partial_outer", recorded(partial, solve))
    monkeypatch.setattr(outer, "bc_mu_sum", recorded(bc, broadcast))
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(tmp_path / "rep")]) == 0
    assert run(["sweep-alpha", "--channel", channel_file, "--mu", "2", "--out",
                str(tmp_path / "sweep.json")]) == 0
    assert len(partial) > 3 and len(bc) == 2
    assert partial == [0] * len(partial) and bc == [0, 0]


def test_reproduce_paper_scans_the_closed_form_once_for_one_alpha_star(monkeypatch, tmp_path):
    # the peak's certificate, the summary's alpha* and the sweep past max(1,
    # mu*) all read one scan of the licensed cap over alpha, kept on the
    # channel the command loads, so both reports carry the same alpha*
    scans = []

    def counted(scan):
        return lambda *args, **kwargs: scans.append(1) or scan(*args, **kwargs)

    for module in (achievable, cli, outer):  # wherever the search is reachable by name
        if hasattr(module, "scan_then_golden"):
            monkeypatch.setattr(module, "scan_then_golden", counted(module.scan_then_golden))
    out_dir = tmp_path / "rep"
    assert run(["reproduce-paper", "--seed", "0", "--out-dir", str(out_dir)]) == 0
    assert len(scans) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    sweep = json.loads((out_dir / "sweep_alpha.json").read_text())
    assert summary["alpha_star"] == sweep["alpha_star"]


def test_sweep_alpha_rejects_small_mu(tmp_path, channel_file):
    code = run([
        "sweep-alpha", "--channel", channel_file, "--mu", "0.5",
        "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2


def test_reproduce_paper(tmp_path):
    out_dir = str(tmp_path / "rep")
    code = run(["reproduce-paper", "--out-dir", out_dir, "--starts", "6"])
    assert code == 0
    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    assert all(summary["checks"].values())
    assert summary["max_rp_achievable"] == pytest.approx(2.3542, abs=1e-3)
    assert abs(summary["tightness_gap"]) <= 1e-3
    assert os.path.exists(os.path.join(out_dir, "region.csv"))
    for alpha in ("0.25", "0.5", "1", "2", "4"):
        assert os.path.exists(os.path.join(out_dir, f"bound_alpha{alpha}.csv"))
    sweep = json.loads(open(os.path.join(out_dir, "sweep_alpha.json")).read())
    assert {"alpha_star", "n_value", "non_unimodal", "alpha_evals", "slope_at_alpha_star"} <= set(
        sweep
    )


def test_reproduce_paper_passes_its_checks_at_a_large_mu_infinity(tmp_path):
    # at mu = 1e10 the tightness check compares mu-sums of 2.35e10 bits,
    # whose rounding alone passes an absolute tol
    out_dir = str(tmp_path / "rep")
    assert run(["reproduce-paper", "--mu-infinity", "1e10", "--out-dir", out_dir]) == 0
    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    assert summary["condition_check"] is True and all(summary["checks"].values())


def test_reproduce_paper_widens_a_bracket_above_alpha_star(tmp_path):
    # alpha* = 0.5535 lies below 1:10; the closed-form scan and the sweep both widen to 0.1
    out_dir = str(tmp_path / "rep")
    assert run(["reproduce-paper", "--alpha-bracket", "1:10", "--out-dir", out_dir]) == 0
    summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
    assert summary["alpha_star"] == pytest.approx(0.553516, rel=1e-6)
    sweep = json.loads(open(os.path.join(out_dir, "sweep_alpha.json")).read())
    assert sweep["bracket"] == [0.1, 10.0]


def test_starts_below_one_fails_while_parsing(tmp_path, channel_file, no_channel_read, capsys):
    out = str(tmp_path / "r.csv")
    assert run(["region", "--channel", channel_file, "--starts", "0", "--out", out]) == 2
    assert "argument --starts: expected an integer >= 1" in capsys.readouterr().err


def test_reproduce_paper_deterministic_csv(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out_dir in dirs:
        assert run([
            "reproduce-paper", "--out-dir", out_dir, "--seed", "7",
            "--starts", "4", "--mu-grid", "log:0.1:10:5",
        ]) == 0
    for name in ("region.csv", "bound_alpha1.csv"):
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b


def test_reproduce_paper_fails_on_other_channel(tmp_path):
    # a different channel cannot reproduce the reported peak rate: exit 4
    spec = json.loads(bundled_channel_text())
    spec["p_p"] = 2.0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(spec))
    code = run([
        "reproduce-paper", "--channel", str(other),
        "--out-dir", str(tmp_path / "rep"), "--starts", "3",
        "--mu-grid", "single:5",
    ])
    assert code == 4
    summary = json.loads(open(os.path.join(tmp_path, "rep", "summary.json")).read())
    assert not summary["checks"]["max_rp_matches_reported"]


def test_help_exits_zero():
    assert run(["--help"]) == 0


TRACE_FLAGS = {"--channel", "--mu-grid", "--seed", "--out", "--format", "--mu-infinity",
               "--starts"}
COMMAND_FLAGS = {
    "region": TRACE_FLAGS,
    "bound": TRACE_FLAGS | {"--alpha"},
    "sweep-alpha": {"--channel", "--seed", "--out", "--resolution", "--mu", "--starts",
                    "--alpha-bracket", "--tol"},
    "reproduce-paper": {"--channel", "--mu-grid", "--seed", "--starts", "--mu-infinity",
                        "--alpha-bracket", "--tol", "--out-dir"},
}


@pytest.fixture()
def no_channel_read(monkeypatch):
    def fail(_text):
        pytest.fail("the channel was read before the command line was checked")

    monkeypatch.setattr(cli, "load_channel", fail)


def test_each_command_declares_only_the_flags_it_reads():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert declared == COMMAND_FLAGS


@pytest.mark.parametrize("argv", [
    # flags the command does not read
    ["region", "--resolution", "5"],
    ["bound", "--resolution", "5"],
    ["sweep-alpha", "--mu-grid", "single:1"],
    ["sweep-alpha", "--format", "json"],
    ["reproduce-paper", "--out", "zzz"],
    ["reproduce-paper", "--format", "json"],
    ["reproduce-paper", "--resolution", "7"],
    # values out of range
    ["bound", "--alpha", "0"],
    ["bound", "--alpha", "1,nan"],
    ["sweep-alpha", "--alpha-bracket", "5:1"],
    ["reproduce-paper", "--alpha-bracket", "5:1"],
    ["sweep-alpha", "--resolution", "1"],
    ["region", "--mu-infinity", "nan"],
    ["sweep-alpha", "--tol", "nan"],
    ["reproduce-paper", "--tol", "nan"],
    ["reproduce-paper", "--tol", "0"],
    ["sweep-alpha", "--mu", "0"],
    ["region", "--mu-grid", "single:-1"],
    ["region", "--starts", "0"],
    ["reproduce-paper", "--starts", "0"],
    ["region", "--seed", "-1"],
    ["reproduce-paper", "--seed", "-1"],
], ids=" ".join)
def test_bad_command_line_exits_2_before_the_channel_is_read(
    monkeypatch, tmp_path, channel_file, no_channel_read, argv
):
    if argv[0] != "reproduce-paper":
        argv = argv + ["--channel", channel_file]
    monkeypatch.chdir(tmp_path)  # where every default output, reproduce_out too, would go
    assert run(argv) == 2
    assert os.listdir(tmp_path) == ["channel.json"]


@pytest.mark.parametrize("alphas", ["0.5000001,0.5000002", "1,1", "2,0.25,2.0000001"])
def test_bound_rejects_alphas_sharing_an_output_label(
    tmp_path, channel_file, no_channel_read, capsys, alphas
):
    stem = str(tmp_path / "b")
    assert run(["bound", "--channel", channel_file, "--alpha", alphas, "--out", stem]) == 2
    assert "share an output label" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["channel.json"]


@pytest.mark.parametrize("entry", ["NaN", "true", "1e200"])
def test_region_rejects_bad_channel_numbers(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(bundled_channel_text().replace("0.799", entry, 1))
    assert run(["region", "--channel", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert not os.path.exists(tmp_path / "r.csv")


def test_module_entry_point_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "cograte", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "reproduce-paper" in done.stdout


#: Exit code and stderr prefix of each error class when a command raises it.
ERROR_EXITS = {
    "ConfigError": (2, "error: "),
    "ParseError": (2, "error: "),
    "DimensionMismatch": (2, "error: "),
    "NonPositivePower": (2, "error: "),
    "InvalidAlpha": (2, "error: "),
    "UnsupportedMu": (2, "error: "),
    "OracleTooLarge": (2, "error: "),
    "ZeroChannel": (2, "error: "),
    "NonPositiveDefinite": (3, "solver error: "),
    "SingularNoise": (3, "solver error: "),
    "InfeasibleAllocation": (3, "solver error: "),
    "SolverDiverged": (3, "solver error: "),
    "BracketUnbounded": (3, "solver error: "),
}
ERROR_CLASSES = sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.CograteError)
    and value is not errors.CograteError
)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_each_error_class_keeps_its_exit_code(channel_file, monkeypatch, capsys, name):
    def fail(_args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "cmd_region", fail)
    code, prefix = ERROR_EXITS[name]
    assert run(["region", "--channel", channel_file]) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


@pytest.mark.parametrize("alpha", ["1e-310", "1e308"])
def test_bound_rejects_an_alpha_out_of_range_before_any_solve(
    tmp_path, channel_file, monkeypatch, capsys, alpha
):
    def fail(*_args, **_kwargs):
        pytest.fail("a solve ran before alpha was checked")

    monkeypatch.setattr(cli, "trace_outer_boundary", fail)
    assert run(["bound", "--channel", channel_file, "--alpha", alpha,
                "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha = {float(alpha):g} ")
    assert os.listdir(tmp_path) == ["channel.json"]


@pytest.mark.parametrize("command", ["reproduce-paper", "sweep-alpha"])
def test_alpha_bracket_out_of_range_fails_before_any_solve(
    tmp_path, channel_file, monkeypatch, capsys, command
):
    def fail(*_args, **_kwargs):
        pytest.fail("a solve ran before the bracket was checked")

    monkeypatch.setattr(cli, "trace_boundary", fail)
    monkeypatch.setattr(cli, "inf_alpha_partial_outer", fail)
    out = (["--out-dir", str(tmp_path / "out")] if command == "reproduce-paper"
           else ["--out", str(tmp_path / "s.json")])
    assert run([command, "--channel", channel_file, "--alpha-bracket", "1e-310:1", *out]) == 2
    assert capsys.readouterr().err.startswith("error: alpha = 1e-310 ")
    assert os.listdir(tmp_path) == ["channel.json"]


def test_commands_solve_the_bundled_channel_at_huge_powers(tmp_path):
    # entries near 1e20 in a log-det over the whole cognitive receive side
    # round its identity away; on the range of h_cc it stays
    doc = json.loads(bundled_channel_text())
    doc["p_p"] = doc["p_c"] = 1e20
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    flags = ["--channel", str(path), "--starts", "2"]
    trace = flags + ["--mu-grid", "single:2"]
    assert run(["region", *trace, "--out", str(tmp_path / "r.csv")]) == 0
    assert run(["bound", *trace, "--alpha", "1", "--out", str(tmp_path / "b")]) == 0
    out = tmp_path / "s.json"
    assert run(["sweep-alpha", *flags, "--mu", "2", "--resolution", "100", "--out", str(out)]) == 0
    peak = mu_sum_achievable(load_channel(path.read_text()), 2.0, SolverSettings(starts=2)).value
    assert json.loads(out.read_text())["n_value"] == pytest.approx(peak, abs=1e-6)

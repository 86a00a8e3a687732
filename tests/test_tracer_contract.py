"""The benchmark's tracer wraps module attributes of the package by name
(``perfbench/tracing.py``); several of them exist on ``outer`` only for it.
Installing it fails on any name that is gone, so this guards the names in
tier-1 without running the benchmark suite."""

import os

import numpy as np

import cograte.achievable as achievable
import cograte.outer as outer
from cograte.solvers import SolverSettings

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls_without_a_solve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    names = [(m, a) for m in (achievable, outer)
             for a in ("maximize_multistart", "build_lower", "encode_psd", "log_det_id_plus")]
    names += [(outer, "composite_matrices"), (outer, "waterfill"), (np.linalg, "slogdet")]
    before = [getattr(owner, attr) for owner, attr in names]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(names, before))
    assert sum(tracer.calls.values()) == 0


def test_traced_solves_reach_every_counted_layer(monkeypatch, sec7):
    # a call site that stops going through a patched name reads 0 in the
    # benchmark's counters; one short solve of each kind must reach them all
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    opts = SolverSettings(starts=1, max_iters=3)
    tracer = Tracer()
    tracer.install()
    try:
        achievable.mu_sum_achievable(sec7, 2.0, opts)
        outer.mu_sum_partial_outer(sec7, 1.0, 2.0, opts)
        outer.bc_mu_sum(sec7, 1.0, 2.0, opts)
    finally:
        tracer.uninstall()
    spans = ("linalg.log_det_id_plus", "linalg.build_lower", "linalg.encode_psd",
             "linalg.slogdet", "channel.composite_matrices", "solvers.waterfill")
    assert {name: tracer.calls[name] for name in spans if tracer.calls[name] == 0} == {}


def test_traced_alpha_sweep_counts_its_scalar_search(monkeypatch, sec7):
    # the benchmark counts scan evaluations by wrapping the search by name on
    # outer; a sweep that calls it under another name reads 0 there
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    import cograte.cli as cli

    # (1, 10) lies above alpha*, so the search adds a point past its low edge
    for bracket, scanned in (((1e-3, 1e3), (1e-3, 1e3)), ((1.0, 10.0), (0.1, 10.0))):
        tracer = Tracer()
        tracer.install()
        try:
            res = cli.inf_alpha_partial_outer(
                sec7, 1e6, bracket, SolverSettings(starts=1, max_iters=5), n_scan=5
            )
        finally:
            tracer.uninstall()
        assert res.bracket == scanned
        # each alpha solved for the search, an added one too, is a counted evaluation
        assert tracer.counts["solvers.scan_evals"] >= res.evaluations - 1
        assert tracer.counts["outer.alpha_evals"] > 0


def test_traced_curves_count_their_grid_solves_and_polish(monkeypatch, sec7):
    # the curve tracers solve a whole grid in one call, which the benchmark
    # counts only through these two names; a tracer that bypasses them reads
    # 0 solves on a workload with no other (mimo_region)
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    opts = SolverSettings(starts=1, max_iters=3)
    tracer = Tracer()
    tracer.install()
    try:
        region = achievable.trace_boundary(sec7, [2.0, 0.5], opts)
        outer.trace_outer_boundary(sec7, 1.0, [2.0, 0.5], opts, warm_boundary=region)
    finally:
        tracer.uninstall()
    counted = ("achievable.mu_sum_achievable", "outer.mu_sum_partial_outer", "regions.cross_polish")
    assert {name: tracer.calls[name] for name in counted if tracer.calls[name] == 0} == {}


def test_traced_commands_reach_every_counted_layer(monkeypatch, tmp_path):
    # the benchmark drives the program through cli.main; each command must
    # still reach the layers it counts through the names it patches
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    import cograte.cli as cli

    channel = tmp_path / "channel.json"
    channel.write_text(cli.bundled_channel_text())
    common = ["--channel", str(channel), "--starts", "1"]
    grid = ["--mu-grid", "log:0.5:2:3"]
    commands = [
        ["region", *common, *grid, "--out", str(tmp_path / "region.csv")],
        ["bound", *common, *grid, "--alpha", "1", "--out", str(tmp_path / "bound")],
        ["sweep-alpha", *common, "--out", str(tmp_path / "sweep.json")],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    spans = ("outer.condition_check", "outer.bc_mu_sum", "outer.mu_sum_partial_outer",
             "outer.inf_alpha_partial_outer", "achievable.mu_sum_achievable",
             "regions.cross_polish", "channel.composite_matrices", "solvers.waterfill",
             "linalg.encode_psd", "linalg.build_lower", "linalg.log_det_id_plus",
             "linalg.slogdet")
    assert {name: tracer.calls[name] for name in spans if tracer.calls[name] == 0} == {}
    assert tracer.counts["solvers.scan_evals"] > 0


def _phase_recorder(monkeypatch):
    """Rows of every objective call and of every gradient call of the DPC
    program, filed under the ascent or the Newton polish, which is handed the
    program's own objective and so is not counted by the tracer."""
    calls = {phase: {"rows": [], "gradient_rows": []} for phase in ("ascent", "polish")}
    inside = []
    objective, polish = achievable.LogDetProgram.objective, achievable.newton_polish

    def counted(program, thetas):
        own = calls["polish" if inside else "ascent"]
        own["rows"].append(len(thetas))
        values, gradient = objective(program, thetas)
        return values, lambda w: own["gradient_rows"].append(len(thetas)) or gradient(w)

    def polishing(*args, **kwargs):
        inside.append(True)
        try:
            return polish(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(achievable.LogDetProgram, "objective", counted)
    monkeypatch.setattr(achievable, "newton_polish", polishing)
    return calls["ascent"], calls["polish"]


def test_traced_iterations_are_the_solver_gradient_calls(monkeypatch, sec7):
    # the benchmark counts an iteration per objective call that does not
    # follow a projection; a solver that projects anything other than its
    # line-search candidates before an objective call reads fewer (or none).
    # The polish's gradient calls are its own, and the tracer does not see them
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    ascent, polish = _phase_recorder(monkeypatch)
    tracer = Tracer()
    tracer.install()
    try:
        achievable.mu_sum_achievable(sec7, [2.0, 0.5], SolverSettings(starts=2, max_iters=40))
    finally:
        tracer.uninstall()
    assert tracer.counts["solvers.iterations"] == len(ascent["gradient_rows"]) > 0
    assert len(polish["gradient_rows"]) > 0


def test_traced_counts_follow_a_grid_whose_starts_retire_apart(monkeypatch, sec7):
    # the ascent keeps only its running starts' rows and drops a start's row
    # in the iteration it retires; every gradient call must still read as an
    # iteration, and every row handed to the objective as an objective row,
    # while the polish's calls and rows stay out of the tracer's counts
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    ascent, polish = _phase_recorder(monkeypatch)
    tracer = Tracer()
    tracer.install()
    try:
        achievable.mu_sum_achievable(sec7, [4.0, 1.0, 0.25],
                                     SolverSettings(starts=3, seed=1, max_iters=2000))
    finally:
        tracer.uninstall()
    assert len(set(ascent["gradient_rows"])) > 3  # starts retired at several iterations
    assert tracer.counts["solvers.iterations"] == len(ascent["gradient_rows"])
    assert tracer.counts["solvers.objective_calls"] == len(ascent["rows"])
    assert tracer.counts["solvers.objective_rows"] == sum(ascent["rows"])
    assert len(polish["gradient_rows"]) > 0

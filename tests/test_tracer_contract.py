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

    tracer = Tracer()
    tracer.install()
    try:
        cli.inf_alpha_partial_outer(
            sec7, 1e6, (1e-3, 1e3), SolverSettings(starts=1, max_iters=5), n_scan=5
        )
    finally:
        tracer.uninstall()
    assert tracer.counts["solvers.scan_evals"] > 0
    assert tracer.counts["outer.alpha_evals"] > 0

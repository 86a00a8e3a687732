"""The benchmark's tracer wraps module attributes of the package by name
(``perfbench/tracing.py``); several of them exist on ``outer`` only for it.
Installing it fails on any name that is gone, so this guards the names in
tier-1 without running the benchmark suite."""

import os

import numpy as np

import cograte.achievable as achievable
import cograte.outer as outer

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

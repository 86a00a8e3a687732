"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real (shrunken) workload passes, so they take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, output_bytes  # noqa: E402

import cograte.achievable as achievable  # noqa: E402
import cograte.outer as outer  # noqa: E402
from cograte.errors import SolverDiverged  # noqa: E402

TINY_GRIDS = {2: ("log:0.5:2:2", 2)}


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """One traced reproduce-paper pass: its outputs and its tracer."""
    out = str(tmp_path_factory.mktemp("paper"))
    ops, tracer = workloads.Ops(), Tracer()
    tracer.install()
    try:
        workloads.run_pass("paper_repro", {}, out, ops, tracer)
    finally:
        tracer.uninstall()
    assert ops.failed == 0, ops.errors
    return workloads.read_outputs(out), tracer


@pytest.fixture()
def tiny_region(tmp_path, monkeypatch):
    """A shrunken mimo_region pass on the 2-antenna channel."""
    monkeypatch.setattr(workloads, "REGION_GRIDS", TINY_GRIDS)
    paths = inputs.generate("mimo_tightness", 1, str(tmp_path / "in"))
    with open(paths[2], encoding="utf-8") as handle:
        specs = {2: json.load(handle)}
    ops = workloads.Ops()
    workloads.run_pass("mimo_region", paths, str(tmp_path / "out"), ops)
    return workloads.read_outputs(str(tmp_path / "out")), specs, ops


def _shift(files, name, key="r_p", by=1e-3):
    """Copy of ``files`` with the first point's rate in ``name`` moved."""
    files = dict(files)
    if name.endswith(".csv"):
        lines = files[name].decode().splitlines()
        mu, r_p, r_c = lines[1].split(",")
        lines[1] = f"{mu},{float(r_p) + by!r},{r_c}"
        files[name] = ("\n".join(lines) + "\n").encode()
    else:
        doc = json.loads(files[name])
        doc["points"][0][key] += by
        files[name] = json.dumps(doc).encode()
    return files


def test_paper_outputs_pass_the_checks(paper):
    files, _ = paper
    result = checks.check_pass("paper_repro", files, {})
    assert result.failures == []
    assert result.oracle_gap_bits is not None and result.oracle_gap_bits <= checks.ORACLE_TOL


@pytest.mark.parametrize("name", ["region.csv", "region.json", "bound_alpha1.csv"])
@pytest.mark.parametrize("by", [1e-3, -1e-3])
def test_corrupted_paper_rate_is_caught(paper, name, by):
    files, _ = paper
    assert checks.check_pass("paper_repro", _shift(files, name, by=by), {}).failures


def test_corrupted_mimo_rate_is_caught(tiny_region):
    files, specs, ops = tiny_region
    assert ops.failed == 0, ops.errors
    assert checks.check_pass("mimo_region", files, specs).failures == []
    for name in ("region_n2.json", "bound_n2_alpha1.json"):
        for key in ("r_p", "r_c"):
            bad = checks.check_pass("mimo_region", _shift(files, name, key), specs)
            assert bad.failures, (name, key)


def test_determinism_check_ignores_only_elapsed_seconds(paper):
    files, _ = paper
    summary = json.loads(files["summary.json"])
    summary["elapsed_seconds"] += 1.0
    later = dict(files, **{"summary.json": json.dumps(summary).encode()})
    assert checks.same_outputs(files, later) == []
    summary["alpha_star"] += 1e-12
    later["summary.json"] = json.dumps(summary).encode()
    assert checks.same_outputs(files, later) == ["summary.json"]
    assert checks.same_outputs(files, _shift(files, "region.csv")) == ["region.csv"]


def test_tracer_reproduces_the_reanchor_work_counts(paper):
    _, tracer = paper
    counts = {name: run.LAYERS[name][1](tracer) for name in run.PAPER_REANCHOR}
    assert counts == run.PAPER_REANCHOR
    assert tracer.counts["solvers.iterations"] == 10588
    for name in run.EXERCISED["paper_repro"]:
        assert run.LAYERS[name][1](tracer) > 0, name


def test_write_bytes_do_not_depend_on_elapsed_seconds(paper):
    files, _ = paper
    summary = json.loads(files["summary.json"])
    sizes = set()
    for elapsed in (5.4, 5.412, 10.0, 123.456):
        summary["elapsed_seconds"] = elapsed
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        sizes.add(output_bytes("out/summary.json", text))
    assert len(sizes) == 1
    csv = files["region.csv"].decode()
    assert output_bytes("out/region.csv", csv) == len(files["region.csv"])


def test_tracer_restores_every_patched_name():
    before = (achievable.maximize_multistart, outer.maximize_multistart,
              outer.scan_then_golden, np.linalg.slogdet)
    tracer = Tracer()
    tracer.install()
    assert achievable.maximize_multistart is not before[0]
    tracer.uninstall()
    after = (achievable.maximize_multistart, outer.maximize_multistart,
             outer.scan_then_golden, np.linalg.slogdet)
    assert all(a is b for a, b in zip(before, after))


def test_solver_exception_counts_in_failed_ratio(tmp_path, monkeypatch):
    def diverge(*_args, **_kwargs):
        raise SolverDiverged("injected")

    monkeypatch.setattr(workloads, "REGION_GRIDS", TINY_GRIDS)
    monkeypatch.setattr(achievable, "maximize_multistart", diverge)
    monkeypatch.setattr(inputs, "CHANNELS", dict(inputs.CHANNELS, mimo_region=(2,)))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    report = run.run_workload("mimo_region", 1, 0.1, 0, declared)
    line = report["line"]
    assert line["correct"] is False and line["failed"] > 0
    assert report["end_to_end"]["failed_ratio"]["value"] == line["failed"] / line["attempted"]
    assert any("exited with code 3" in e for e in report["errors"])


def test_library_exception_is_a_failed_operation(tmp_path, monkeypatch):
    def crash(*_args, **_kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(outer, "mu_sum_partial_outer", crash)
    ops = workloads.Ops()
    paths = inputs.generate("mimo_tightness", 1, str(tmp_path / "in"))
    monkeypatch.setattr(workloads, "call_cli", lambda *_a, **_k: None)
    workloads.run_pass("mimo_tightness", paths, str(tmp_path / "out"), ops)
    assert ops.failed == 1 and "injected" in ops.errors[0]


def test_seed_changes_mimo_channels_but_not_paper_repro(tmp_path):
    one = inputs.generate("mimo_region", 1, str(tmp_path / "a"))
    same = inputs.generate("mimo_region", 1, str(tmp_path / "b"))
    other = inputs.generate("mimo_region", 2, str(tmp_path / "c"))
    for n in (2, 3):
        read = lambda p: open(p, "rb").read()  # noqa: E731
        assert read(one[n]) == read(same[n])
        assert read(one[n]) != read(other[n])
        # a receive-side change of basis keeps H^H H, hence every rate
        a, b = inputs.mimo_channel(n, 1), inputs.mimo_channel(n, 2)
        for key in ("h_pp", "h_pc", "h_cp", "h_cc"):
            ma, mb = checks._mat(a[key]), checks._mat(b[key])
            assert np.allclose(ma.conj().T @ ma, mb.conj().T @ mb, atol=1e-12)
    assert inputs.generate("paper_repro", 1, str(tmp_path / "p1")) == {}
    assert inputs.generate("paper_repro", 2, str(tmp_path / "p2")) == {}


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_repro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""The benchmark's own verdict on each workload, in brief: the checks, the
determinism between passes and the layer gates of ``perfbench/run.py``,
read from its modules without changing them, over two traced passes and one
untraced one per workload."""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _import_benchmark():
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, BENCH)
    try:
        import checks
        import inputs
        import run  # pins the BLAS thread variables as it loads
        import tracing
        import workloads
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return checks, inputs, run, tracing, workloads


checks, inputs, run, tracing, workloads = _import_benchmark()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_the_benchmark_passes_every_workload(tmp_path, workload):
    paths = inputs.generate(workload, 1, str(tmp_path / "inputs"))
    specs = {}
    for n, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            specs[n] = json.load(handle)
    ops, passes = workloads.Ops(), []
    for traced in (True, False, True):  # run.py alternates, starting traced
        out = str(tmp_path / f"pass{len(passes)}")
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            workloads.run_pass(workload, paths, out, ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append((workloads.read_outputs(out), tracer))

    assert ops.failed == 0, ops.errors
    first = passes[0][0]
    failed = [(name, detail) for name, ok, detail in checks.check_pass(workload, first, specs).items
              if not ok]
    assert failed == []
    for files, _tracer in passes[1:]:
        assert checks.same_outputs(first, files) == []
    one, other = (tracer for _files, tracer in passes if tracer is not None)
    assert one.counts == other.counts and one.calls == other.calls
    zero = [name for name in run.EXERCISED[workload] if not run.LAYERS[name][1](one) > 0]
    assert zero == []

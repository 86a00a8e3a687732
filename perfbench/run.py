"""Benchmark of cograte: time to result and solver accuracy on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--label L]

One run generates the workload's inputs from the seed, times the set-up in
fresh processes, then runs full workload passes for about ``--seconds``: at
least two, and another only while it should end in time.  The first pass is
the reference every later pass must match byte for byte, and the one the
correctness checks read.  A fixed calibration kernel runs before the first
pass and after each, to express pass time at a reference machine speed.  With ``--trace 0`` every pass runs untraced and the
end-to-end metrics are reported; with ``--trace 1`` traced and untraced
passes alternate, starting traced, and the per-layer metrics are reported
with the tracing overhead (traced minus untraced median pass time).  The
last line of standard output is one JSON object with the metrics
``BENCHMARK.json`` declares for the mode; a readable report comes before it,
and the full report, with the machine facts and the span tree, is written
under ``.perfbench_out/``.

``--workload all`` runs every workload in both modes, each in its own
process, and writes ``.perfbench_out/BENCH_<label>.json``.

Exit codes: 0 when the run completed (its JSON says whether the outputs were
correct), 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import os
import sys

# The program is single-threaded numpy on tiny matrices.  Pin the BLAS pools
# before numpy loads, so no thread count above the core count is ever used;
# COGRATE_THREADS keeps its default of 1.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("COGRATE_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("paper_repro", "mimo_region", "mimo_tightness")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


class MissingProgram(Exception):
    """The checkout lacks the program or the benchmark declaration."""


def load_program() -> dict:
    """Put the checkout's ``src`` first on the path; return BENCHMARK.json."""
    if not os.path.isfile(os.path.join(SRC, "cograte", "__init__.py")):
        raise MissingProgram(f"no cograte package under {SRC}")
    declaration = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(declaration):
        raise MissingProgram(f"no {declaration}")
    sys.path.insert(0, SRC)
    import cograte

    if os.path.dirname(os.path.dirname(os.path.realpath(cograte.__file__))) != os.path.realpath(SRC):
        raise MissingProgram(f"cograte was imported from {cograte.__file__}, not {SRC}")
    with open(declaration, encoding="utf-8") as handle:
        return json.load(handle)


# -- per-layer metrics ----------------------------------------------------

#: name -> (unit, value from a Tracer)
LAYERS = {
    "solvers.solves": ("count", lambda t: t.counts["solvers.solves"]),
    "solvers.iterations": ("count", lambda t: t.counts["solvers.iterations"]),
    "solvers.objective_calls": ("count", lambda t: t.counts["solvers.objective_calls"]),
    "solvers.objective_rows": ("count", lambda t: t.counts["solvers.objective_rows"]),
    "solvers.capped_solves": ("count", lambda t: t.counts["solvers.capped_solves"]),
    "solvers.objective_s": ("s", lambda t: t.total["solvers.objective"]),
    "solvers.project_calls": ("count", lambda t: t.counts["solvers.project_calls"]),
    "solvers.project_s": ("s", lambda t: t.total["solvers.project"]),
    "solvers.bookkeeping_s": ("s", lambda t: t.self_time["solvers.maximize_multistart"]),
    "solvers.waterfill_calls": ("count", lambda t: t.calls["solvers.waterfill"]),
    "solvers.waterfill_s": ("s", lambda t: t.total["solvers.waterfill"]),
    "solvers.scan_evals": ("count", lambda t: t.counts["solvers.scan_evals"]),
    "linalg.build_lower_calls": ("count", lambda t: t.calls["linalg.build_lower"]),
    "linalg.build_lower_s": ("s", lambda t: t.total["linalg.build_lower"]),
    "linalg.encode_psd_calls": ("count", lambda t: t.calls["linalg.encode_psd"]),
    "linalg.encode_psd_s": ("s", lambda t: t.total["linalg.encode_psd"]),
    "linalg.log_det_id_plus_calls": ("count", lambda t: t.calls["linalg.log_det_id_plus"]),
    "linalg.log_det_id_plus_s": ("s", lambda t: t.total["linalg.log_det_id_plus"]),
    "linalg.slogdet_calls": ("count", lambda t: t.calls["linalg.slogdet"]),
    "linalg.slogdet_rows": ("count", lambda t: t.counts["linalg.slogdet_rows"]),
    "linalg.slogdet_s": ("s", lambda t: t.total["linalg.slogdet"]),
    "linalg.slogdet_flops": ("flop-computed", lambda t: 2 * t.counts["linalg.slogdet_dim3"] // 3),
    "achievable.solves": ("count", lambda t: t.calls["achievable.mu_sum_achievable"]),
    "achievable.solve_s": ("s", lambda t: t.total["achievable.mu_sum_achievable"]),
    "outer.partial_solves": ("count", lambda t: t.calls["outer.mu_sum_partial_outer"]),
    "outer.partial_solve_s": ("s", lambda t: t.total["outer.mu_sum_partial_outer"]),
    "outer.bc_solves": ("count", lambda t: t.calls["outer.bc_mu_sum"]),
    "outer.bc_solve_s": ("s", lambda t: t.total["outer.bc_mu_sum"]),
    "outer.condition_check_s": ("s", lambda t: t.total["outer.condition_check"]),
    "outer.alpha_evals": ("count", lambda t: t.counts["outer.alpha_evals"]),
    "outer.alpha_sweep_s": ("s", lambda t: t.total["outer.inf_alpha_partial_outer"]),
    "regions.cross_polish_s": ("s", lambda t: t.total["regions.cross_polish"]),
    "regions.own_solve_won_ratio": (
        "ratio",
        lambda t: t.counts["regions.own_solve_won"] / max(t.counts["regions.polish_points"], 1),
    ),
    "regions.write_calls": ("count", lambda t: t.calls["regions.write_atomic"]),
    "regions.write_bytes": ("bytes", lambda t: t.counts["regions.write_bytes"]),
    "regions.write_s": ("s", lambda t: t.total["regions.write_atomic"]),
    "channel.load_channel_s": ("s", lambda t: t.total["channel.load_channel"]),
    "channel.composite_matrices_calls": ("count", lambda t: t.calls["channel.composite_matrices"]),
    "cli.self_s": ("s", lambda t: t.self_time["cli.main"]),
}

#: Layer metrics every workload exercises; the traced run fails if one reads 0.
EXERCISED_ALWAYS = (
    "solvers.solves", "solvers.iterations", "solvers.objective_calls", "solvers.objective_rows",
    "solvers.objective_s", "solvers.project_calls", "solvers.project_s", "solvers.bookkeeping_s",
    "solvers.waterfill_calls", "solvers.waterfill_s",
    "linalg.build_lower_calls", "linalg.build_lower_s", "linalg.encode_psd_calls",
    "linalg.encode_psd_s", "linalg.log_det_id_plus_calls", "linalg.log_det_id_plus_s",
    "linalg.slogdet_calls", "linalg.slogdet_rows", "linalg.slogdet_s", "linalg.slogdet_flops",
    "outer.partial_solves", "outer.partial_solve_s",
    "regions.write_calls", "regions.write_bytes", "regions.write_s",
    "channel.load_channel_s", "channel.composite_matrices_calls", "cli.self_s",
)
ACHIEVABLE = ("achievable.solves", "achievable.solve_s", "regions.cross_polish_s",
              "regions.own_solve_won_ratio")
TIGHTNESS = ("outer.bc_solves", "outer.bc_solve_s", "outer.condition_check_s",
             "outer.alpha_evals", "outer.alpha_sweep_s", "solvers.scan_evals")
EXERCISED = {
    "paper_repro": EXERCISED_ALWAYS + ACHIEVABLE + TIGHTNESS + ("solvers.capped_solves",),
    "mimo_region": EXERCISED_ALWAYS + ACHIEVABLE,
    "mimo_tightness": EXERCISED_ALWAYS + TIGHTNESS,
}
#: Work of one paper_repro pass at the re-anchor of this benchmark.
PAPER_REANCHOR = {"solvers.solves": 206, "solvers.capped_solves": 7, "linalg.slogdet_calls": 64146}


# -- machine speed ----------------------------------------------------------

#: Seconds per calibration unit on the reference machine: a 2-core x86-64
#: virtual machine, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread.
CAL_UNIT_REF_S = 0.015
#: Calibration time after each pass, as a share of that pass's time.
CAL_SHARE = 0.2
CAL_MIN_S = 0.5

_CAL_RNG = np.random.Generator(np.random.Philox(0))
_CAL_A = _CAL_RNG.standard_normal((32, 4, 4)) + 1j * _CAL_RNG.standard_normal((32, 4, 4))


def _calibration_unit() -> float:
    """A fixed mix of the program's kinds of work: batched small complex
    matmuls, batched 4x4 slogdet and interpreter loops."""
    eye = np.eye(4)
    total = 0.0
    for i in range(300):
        m = _CAL_A @ np.conj(np.swapaxes(_CAL_A, -1, -2)) + eye
        total += float(np.linalg.slogdet(m)[1][i % 32])
        for j in range(50):
            total += j * 0.5
    return total


def calibrate(seconds: float) -> tuple[int, float]:
    """Run calibration units for about ``seconds``; returns (units, seconds).

    On a shared 2-core host the speed of the same code swings by up to 2x
    over seconds to minutes.  Ten ``paper_repro`` runs in a slow phase of the
    host and ten in a fast one had raw median pass times of 4.80 s and 3.17 s;
    scaled by calibration units timed in the same runs, both sets read
    5.08 s.  On short passes, pass time over the time of calibration units run
    next to it was three times steadier than pass time alone, on the scalar
    and on the MIMO region paths alike.  So every run calibrates before its
    first pass and after each pass, for a fifth of the pass's time, and
    ``run_ref_s`` and ``setup_s`` are median times at the reference machine's
    speed.
    """
    units = 0
    start = time.perf_counter()
    while True:
        _calibration_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units, elapsed


# -- one workload ---------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    seconds: float
    files: dict
    tracer: object


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # an exported checkout has no history
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(HERE)):
        path = os.path.join(HERE, name)
        if name.endswith(".py") and os.path.isfile(path):
            with open(path, "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cograte_threads": os.environ.get("COGRATE_THREADS", "unset (default 1)"),
        "seed": seed,
        "git_revision": revision,
        "benchmark_sha256": digest.hexdigest()[:16],
    }


def time_setup(workload: str, seed: int, directory: str, ops) -> list[float]:
    """Wall-clock of fresh set-up processes, start to exit."""
    times = []
    probe = os.path.join(HERE, "setup_probe.py")
    for i in range(SETUP_REPEATS):
        ops.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed), os.path.join(directory, f"setup{i}")],
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            ops.fail(f"set-up exited with code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            times.append(elapsed)
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int, declared: dict) -> dict:
    # imported here: they load cograte, which load_program() has just located
    import checks
    import inputs
    from tracing import Tracer
    from workloads import Ops, mu_sum_bits, read_outputs, run_pass

    workdir = os.path.join(OUT, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    ops = Ops()
    try:
        paths = inputs.generate(workload, seed, os.path.join(workdir, "inputs"))
        specs = {}
        for n, path in paths.items():
            with open(path, encoding="utf-8") as handle:
                specs[n] = json.load(handle)
        setup = time_setup(workload, seed, workdir, ops) if trace == 0 else []

        passes: list[Pass] = []
        calibration = [calibrate(CAL_MIN_S)]  # before the first pass and after each

        def one_pass(traced: bool) -> None:
            out = os.path.join(workdir, f"pass{len(passes)}")
            tracer = Tracer() if traced else None
            gc.collect()
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                run_pass(workload, paths, out, ops, tracer)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            passes.append(Pass(traced, elapsed, read_outputs(out), tracer))
            calibration.append(calibrate(max(CAL_MIN_S, CAL_SHARE * elapsed)))

        # two passes at least; then another only if it should end in time
        # and nothing has failed yet
        begin = time.perf_counter()
        while len(passes) < 2 or (
            ops.failed == 0
            and time.perf_counter() - begin + (1 + CAL_SHARE) * passes[-1].seconds <= seconds
        ):
            one_pass(bool(trace) and len(passes) % 2 == 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # -- checks
    result = checks.check_pass(workload, passes[0].files, specs)
    for name, ok, detail in result.items:
        ops.attempted += 1
        if not ok:
            ops.fail(f"check failed: {name} ({detail})")
    for i, p in enumerate(passes[1:], start=1):
        ops.attempted += 1
        differ = checks.same_outputs(passes[0].files, p.files)
        if differ:
            ops.fail(f"pass {i} outputs differ from pass 0: {', '.join(differ)}")
    traced = [p for p in passes if p.traced]
    for p in traced[1:]:
        ops.attempted += 1
        if p.tracer.counts != traced[0].tracer.counts or p.tracer.calls != traced[0].tracer.calls:
            ops.fail("work counters differ between traced passes")
    counters = traced[0].tracer if traced else None
    # counters repeat exactly (checked above); times are medians over passes
    layers = {
        name: statistics.median(fn(p.tracer) for p in traced) if unit == "s" else fn(counters)
        for name, (unit, fn) in LAYERS.items()
    } if traced else {}
    for name in EXERCISED[workload] if traced else ():
        ops.attempted += 1
        if not layers[name] > 0:
            ops.fail(f"traced metric {name} reads zero on {workload}")
    reanchor = None
    if traced and workload == "paper_repro":
        reanchor = {name: LAYERS[name][1](counters) for name in PAPER_REANCHOR}

    untraced = [p.seconds for p in passes if not p.traced]
    unit_s = sum(t for _n, t in calibration) / sum(n for n, _t in calibration)
    try:
        mu_sum = mu_sum_bits(workload, passes[0].files)
    except (KeyError, ValueError, TypeError) as exc:
        mu_sum = None
        ops.attempted += 1
        ops.fail(f"mu_sum_bits unreadable: {exc!r}")
    end_to_end = {
        "run_ref_s": (statistics.median(untraced) * CAL_UNIT_REF_S / unit_s, "s"),
        "run_s": (statistics.median(untraced), "s"),
        "setup_s": (statistics.median(setup) * CAL_UNIT_REF_S / unit_s if setup else None, "s"),
        "setup_raw_s": (statistics.median(setup) if setup else None, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mu_sum_bits": (mu_sum, "bits"),
        "oracle_gap_bits": (result.oracle_gap_bits, "bits"),
        "failed_ratio": (ops.failed / ops.attempted, "ratio"),
    }
    per_layer = {name: (value, LAYERS[name][0]) for name, value in layers.items()}
    if traced:
        per_layer["tracing_overhead_s"] = (
            statistics.median(p.seconds for p in traced) - statistics.median(untraced), "s")

    section = declared["per_layer"] if trace else declared["end_to_end"]
    table = per_layer if trace else end_to_end
    metrics = {}
    for item in section:
        value, unit = table[item["name"]]
        if unit != item["unit"]:
            raise ValueError(f"{item['name']}: unit {unit} but BENCHMARK.json says {item['unit']}")
        metrics[item["name"]] = {"value": value, "unit": unit}
    return {
        "workload": workload,
        "line": {
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": metrics,
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "passes": [{"traced": p.traced, "seconds": p.seconds} for p in passes],
        "calibration": [{"units": n, "seconds": t} for n, t in calibration],
        "setup_seconds": setup,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.items],
        "errors": ops.errors,
        "paper_reanchor": reanchor,
        "condition_check": _condition(passes[0].files),
        "spans": [
            {"parent": parent, "name": name, "calls": calls}
            for (parent, name), calls in sorted(counters.edges.items(), key=str)
        ] if traced else [],
        "span_seconds": {
            name: {"total": counters.total[name], "self": counters.self_time[name]}
            for name in sorted(counters.total)
        } if traced else {},
    }


def _condition(files: dict):
    """What ``condition_check`` returned; a result, not a pass/fail check."""
    for name in ("summary.json", "sweep_alpha.json"):
        if name in files:
            try:
                return json.loads(files[name]).get("condition_check")
            except ValueError:
                return None
    return None


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict, trace: int) -> None:
    w = report["workload"]
    times = [p["seconds"] for p in report["passes"] if not p["traced"]]
    print(f"== {w}  ({len(report['passes'])} passes, {len(times)} untraced: "
          f"{', '.join(f'{t:.3f}' for t in times)} s)")
    section = "per_layer" if trace else "end_to_end"
    for name, m in report[section].items():
        print(f"  {name:34s} {_fmt(m['value']):>14s} {m['unit']}")
    if report["paper_reanchor"] is not None:
        match = report["paper_reanchor"] == PAPER_REANCHOR
        print(f"  re-anchor work {report['paper_reanchor']} "
              f"{'matches' if match else 'differs from'} {PAPER_REANCHOR}")
    print(f"  condition_check result: {report['condition_check']}")
    failed = [c for c in report["checks"] if not c["ok"]]
    print(f"  checks: {len(report['checks']) - len(failed)}/{len(report['checks'])} passed")
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def report_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"{workload}-s{seed}-t{trace}.json")


def run_one(args, declared: dict) -> int:
    report = run_workload(args.workload, args.seed, args.seconds, args.trace, declared)
    report["machine"] = machine_facts(args.seed)
    os.makedirs(OUT, exist_ok=True)
    path = report_path(args.workload, args.seed, args.trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print_report(report, args.trace)
    print(f"  machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"  report: {os.path.relpath(path, ROOT)}")
    print(json.dumps(report["line"], sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise RuntimeError(f"{workload} trace {trace} exited with {proc.returncode}")
            with open(report_path(workload, args.seed, trace), encoding="utf-8") as handle:
                results.setdefault(workload, {})[f"trace{trace}"] = json.load(handle)
    path = os.path.join(OUT, f"BENCH_{args.label}.json")
    bench = {"machine": machine_facts(args.seed), "seconds": args.seconds, "results": results}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    lines = [r["line"] for w in results.values() for r in w.values()]
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["trace0"]["line"]["metrics"].items()},
    }, sort_keys=True))
    return 0


def parse_args(argv):
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text: str) -> float:
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=seed, default=1)
    parser.add_argument("--seconds", type=seconds, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local", help="name of the BENCH_<label>.json file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        declared = load_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())

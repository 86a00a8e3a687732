"""What one pass of each workload runs, and what it leaves behind.

A pass drives the program only through its user paths: ``cograte.cli.main``
with command-line arguments, and public library calls for the fixed-alpha
probes of ``mimo_tightness``.  Every command and call is one operation; an
exception or a nonzero exit code fails it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import cograte.cli as cli
import cograte.outer as outer
from cograte.channel import load_channel
from cograte.solvers import SolverSettings

# Sizes keep a pass near 8-13 s, so a run holds two passes or more.
#: mu grid and multistart count of each MIMO region size; one 3-antenna
#: solve costs about as much as six 2-antenna ones.
REGION_GRIDS = {2: ("log:0.5:2:3", 8), 3: ("single:2", 2)}
TIGHT_MU = 4.0
#: One BC solve at 8 starts costs 8 s on a 2-antenna channel (it hits the
#: iteration cap); at 2 starts, 3 s.
TIGHT_STARTS = 2
#: Alpha scan points of sweep-alpha are resolution // 20 + 10.
TIGHT_RESOLUTION = 100
#: alpha of the fixed-alpha probes; the sweep's own alpha* is not fixed by
#: the inputs, so only these probes count towards mu_sum_bits.
PROBE_ALPHA = 1.0
PROBE_SETTINGS = SolverSettings(starts=TIGHT_STARTS, seed=0)


class Ops:
    """Attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def call_cli(argv, ops: Ops, tracer=None) -> None:
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    ops.attempted += 1
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a harness error
        ops.fail(f"cograte {argv[0]} raised {exc!r}")
        return
    if code != 0:
        ops.fail(f"cograte {argv[0]} exited with code {code}")


def call(ops: Ops, label: str, fn, *args, **kwargs):
    ops.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        ops.fail(f"{label} raised {exc!r}")
        return None


def embed_structured(q_p, sigma_cc):
    """(q_p, q_c) start of the BC solve with sigma_cc in the cognitive block,
    as ``condition_check`` builds it."""
    n = q_p.shape[0]
    q_c = np.zeros((n, n), dtype=np.result_type(q_p, sigma_cc))
    m = sigma_cc.shape[0]
    q_c[n - m :, n - m :] = sigma_cc
    return q_p, q_c


def _matrix(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def run_pass(workload: str, inputs: dict, out: str, ops: Ops, tracer=None) -> None:
    """Run one full pass of ``workload``, writing its outputs under ``out``."""
    os.makedirs(out, exist_ok=True)
    if workload == "paper_repro":
        call_cli(["reproduce-paper", "--seed", "0", "--out-dir", out], ops, tracer)
    elif workload == "mimo_region":
        for n, path in sorted(inputs.items()):
            grid, starts = REGION_GRIDS[n]
            common = ["--channel", path, "--mu-grid", grid, "--starts", str(starts),
                      "--format", "json"]
            call_cli(["region", *common, "--out", os.path.join(out, f"region_n{n}.json")],
                     ops, tracer)
            call_cli(["bound", *common, "--alpha", "1", "--out",
                      os.path.join(out, f"bound_n{n}")], ops, tracer)
    elif workload == "mimo_tightness":
        path = inputs[2]
        call_cli(["sweep-alpha", "--channel", path, "--mu", f"{TIGHT_MU:g}",
                  "--starts", str(TIGHT_STARTS), "--resolution", str(TIGHT_RESOLUTION),
                  "--out", os.path.join(out, "sweep_alpha.json")], ops, tracer)
        with open(path, encoding="utf-8") as handle:
            ch = load_channel(handle.read())
        part = call(ops, "mu_sum_partial_outer", outer.mu_sum_partial_outer,
                    ch, PROBE_ALPHA, TIGHT_MU, PROBE_SETTINGS)
        if part is None:
            return
        bc = call(ops, "bc_mu_sum", outer.bc_mu_sum, ch, PROBE_ALPHA, TIGHT_MU,
                  PROBE_SETTINGS, extra_starts=[embed_structured(part.q_p, part.sigma_cc)])
        if bc is None:
            return
        probes = {
            "alpha": PROBE_ALPHA,
            "mu": TIGHT_MU,
            "partial": {"value": part.value, "r_p": part.rate.r_p, "r_c": part.rate.r_c,
                        "q_p": _matrix(part.q_p), "sigma_cc": _matrix(part.sigma_cc)},
            "bc": {"value": bc.value, "r_p": bc.rate.r_p, "r_c": bc.rate.r_c,
                   "q_p": _matrix(bc.q_p), "q_c": _matrix(bc.q_c)},
        }
        with open(os.path.join(out, "probes.json"), "w", encoding="utf-8") as handle:
            json.dump(probes, handle, indent=1, sort_keys=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def read_outputs(out: str) -> dict[str, bytes]:
    """Every file a pass wrote, by path relative to its output directory."""
    files = {}
    for directory, _dirs, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out)] = handle.read()
    return dict(sorted(files.items()))


def _csv_mu_sum(text: str) -> float:
    total = 0.0
    for line in text.splitlines()[1:]:
        mu, r_p, r_c = (float(v) for v in line.split(","))
        total += mu * r_p + r_c
    return total


def _json_mu_sum(text: str) -> float:
    return sum(p["mu"] * p["r_p"] + p["r_c"] for p in json.loads(text)["points"])


def mu_sum_bits(workload: str, files: dict[str, bytes]) -> float:
    """Sum of mu*r_p + r_c over the maximizations whose weights the inputs fix."""
    if workload == "paper_repro":
        return sum(
            _csv_mu_sum(files[name].decode())
            for name in files
            if name == "region.csv" or (name.startswith("bound_alpha") and name.endswith(".csv"))
        )
    if workload == "mimo_region":
        return sum(
            _json_mu_sum(files[name].decode())
            for name in files
            if name.startswith("region_n") or "_alpha" in name
        )
    probes = json.loads(files["probes.json"])
    return probes["partial"]["value"] + probes["bc"]["value"]

"""Command-line front end: channel ingestion, region/bound tracing, the
alpha sweep, and the bundled-example reproduction run.

Commands
--------
region           trace the achievable boundary over a mu grid
bound            trace partial-bound boundaries for a list of alphas
sweep-alpha      minimize the bound over alpha and run the tightness check
reproduce-paper  re-run the bundled reference experiment and compare against
                 its reported values

Exit codes: 0 success, 2 config/IO error, 3 solver failure, 4 reproduction
checks failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .achievable import inf_alpha_max_rp, mu_sum_achievable, trace_boundary
from .channel import CognitiveChannel, load_channel, scaled_channel
from .errors import CograteError, ConfigError
from .outer import (
    DEFAULT_RESOLUTION,
    condition_check,
    inf_alpha_partial_outer,
    scan_points,
    trace_outer_boundary,
)
from .regions import SCHEMA_VERSION, check_mu, write_atomic
from .solvers import SolverSettings, scan_then_golden  # noqa: F401 (perfbench/tracing.py wraps it)

#: Values reported for the bundled example channel, emitted for comparison.
REPORTED_MAX_RP = 2.3542
REPORTED_ALPHA_STAR = 0.9689

DEFAULT_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_MU_GRID = "log:0.01:100:25"

def bundled_channel_text() -> str:
    """JSON text of the packaged example channel."""
    return resources.files("cograte").joinpath("data/paper_sec7.json").read_text()


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return integer


def _parse_alphas(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated alphas, each finite and > 0, with
    distinct ``f"{alpha:g}"`` labels (they name the output files and keys)."""
    alphas = tuple(_positive(x) for x in text.split(","))
    labels = [f"{alpha:g}" for alpha in alphas]
    if len(set(labels)) < len(labels):
        raise argparse.ArgumentTypeError(
            f"alphas {text!r} share an output label ({', '.join(labels)}); "
            "each alpha needs a distinct value to 6 significant digits"
        )
    return alphas


def _parse_bracket(text: str) -> tuple[float, float]:
    """argparse type: an alpha bracket LO:HI with 0 < LO < HI < inf."""
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (0 < lo < hi < math.inf):
        raise argparse.ArgumentTypeError(f"bad alpha bracket {text!r}; expected LO:HI, 0 < LO < HI")
    return lo, hi


def _parse_mu_grid(spec: str, mu_infinity: float) -> tuple[float, ...]:
    def number(token: str) -> float:
        if token == "inf":
            return mu_infinity
        return float(token)

    parts = spec.split(":")
    try:
        if parts[0] == "single" and len(parts) == 2:
            return (number(parts[1]),)
        if parts[0] in ("log", "lin") and len(parts) == 4:
            lo, hi, n = number(parts[1]), number(parts[2]), int(parts[3])
            if n < 1 or hi < lo:
                raise ValueError
            if parts[0] == "log":
                if lo <= 0:
                    raise ValueError
                return tuple(float(x) for x in np.geomspace(lo, hi, n))
            return tuple(float(x) for x in np.linspace(lo, hi, n))
    except (ValueError, IndexError):
        pass
    raise ValueError(
        f"bad mu grid {spec!r}; expected log:lo:hi:n | lin:lo:hi:n | single:v"
    )


def _mu_grid(args: argparse.Namespace) -> tuple[float, ...]:
    return tuple(check_mu(mu) for mu in _parse_mu_grid(args.mu_grid, args.mu_infinity))


def _settings(args: argparse.Namespace) -> SolverSettings:
    return SolverSettings(starts=args.starts, seed=args.seed)


def _load(path: str | None, alphas=()) -> CognitiveChannel:
    """The channel at ``path`` (default: the bundled one); any of ``alphas``
    out of range for it fails here, before a solve or a write."""
    text = bundled_channel_text() if path is None else Path(path).read_text(encoding="utf-8")
    ch = load_channel(text)
    for alpha in alphas:
        scaled_channel(ch, alpha)
    return ch


def _emit(boundary, path: str, fmt: str) -> None:
    content = boundary.to_csv() if fmt == "csv" else boundary.to_json()
    write_atomic(path, content)
    print(f"wrote {path}")


def _write_json(path: str, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _bounds_report(ch: CognitiveChannel, alphas, curves) -> dict:
    """Combined bound curves, one list of rate points per alpha."""
    return {
        "schema": SCHEMA_VERSION,
        "channel": ch.digest(),
        "alphas": {
            f"{alpha:g}": [
                {"mu": p.mu, "r_p": p.rate.r_p, "r_c": p.rate.r_c} for p in curve.points
            ]
            for alpha, curve in zip(alphas, curves)
        },
    }


def _trace(ch: CognitiveChannel, mu_grid, settings: SolverSettings, alphas):
    """The achievable boundary over ``mu_grid`` and the partial bound's
    boundary at each of ``alphas``, all alphas in one solve.  The region
    seeds every bound solve: the bound contains the region, so its witnesses
    are feasible warm starts on the bound side."""
    region = trace_boundary(ch, mu_grid, settings)
    return region, trace_outer_boundary(ch, alphas, mu_grid, settings, warm_boundary=region)


def cmd_region(args: argparse.Namespace) -> int:
    mu_grid, settings = _mu_grid(args), _settings(args)
    region = trace_boundary(_load(args.channel), mu_grid, settings)
    _emit(region, args.out or f"region.{args.format}", args.format)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    mu_grid, settings = _mu_grid(args), _settings(args)
    ch = _load(args.channel, args.alpha)
    _, curves = _trace(ch, mu_grid, settings, args.alpha)
    stem = (args.out or "bound").removesuffix(".csv").removesuffix(".json")
    for alpha, curve in zip(args.alpha, curves):
        _emit(curve, f"{stem}_alpha{alpha:g}.{args.format}", args.format)
    _write_json(f"{stem}.json", _bounds_report(ch, args.alpha, curves))
    print(f"wrote {stem}.json")
    return 0


def _alpha_note(alpha_star: float) -> str:
    return (
        f"computed alpha* = {alpha_star:.6g}; the originally reported value "
        f"{REPORTED_ALPHA_STAR} is included for comparison only and is not "
        f"used by any check"
    )


def _sweep_report(ch: CognitiveChannel, mu: float, args: argparse.Namespace,
                  settings: SolverSettings, resolution: int = DEFAULT_RESOLUTION) -> dict:
    """Minimize the partial bound over alpha at ``mu``, check the tightness
    condition at the sweep's winner, and report both."""
    n_scan = scan_points(resolution)
    sweep = inf_alpha_partial_outer(ch, mu, args.alpha_bracket, settings, n_scan=n_scan)
    condition = condition_check(
        ch, sweep.alpha_star, mu, sweep.n_value, sweep.q_p, sweep.sigma_cc, args.tol, settings
    )
    return {
        "schema": SCHEMA_VERSION,
        "mu": mu,
        "alpha_star": sweep.alpha_star,
        "bracket": list(sweep.bracket),
        "n_value": sweep.n_value,
        "n_value_per_mu": sweep.n_value / mu,
        "condition_check": bool(condition),
        "non_unimodal": bool(sweep.non_unimodal),
        "alpha_evals": sweep.evaluations,
        "slope_at_alpha_star": sweep.slope,
        "tolerances": {"condition": args.tol},
        "paper_alpha_note": _alpha_note(sweep.alpha_star),
        "reported_alpha_star": REPORTED_ALPHA_STAR,
    }


def cmd_sweep_alpha(args: argparse.Namespace) -> int:
    mu = check_mu(args.mu_infinity if args.mu is None else args.mu, 1.0)
    settings = _settings(args)
    ch = _load(args.channel, args.alpha_bracket)
    report = _sweep_report(ch, mu, args, settings, args.resolution)
    out = args.out or "sweep_alpha.json"
    _write_json(out, report)
    print(f"wrote {out}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    started = time.monotonic()
    mu_inf = check_mu(args.mu_infinity, 1.0)
    mu_grid, settings = _mu_grid(args), _settings(args)
    ch = _load(args.channel, args.alpha_bracket)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)

    region, curves = _trace(ch, mu_grid, settings, DEFAULT_ALPHAS)
    write_atomic(os.path.join(out_dir, "region.csv"), region.to_csv())
    write_atomic(os.path.join(out_dir, "region.json"), region.to_json())

    peak = mu_sum_achievable(ch, mu_inf, settings)
    max_rp = peak.rate.r_p

    containment_slack = math.inf
    for alpha, curve in zip(DEFAULT_ALPHAS, curves):
        write_atomic(
            os.path.join(out_dir, f"bound_alpha{alpha:g}.csv"), curve.to_csv()
        )
        for bp, rp in zip(curve.points, region.points):
            slack = bp.rate.mu_sum(bp.mu) - rp.rate.mu_sum(rp.mu)
            containment_slack = min(containment_slack, slack)
    _write_json(os.path.join(out_dir, "bounds.json"), _bounds_report(ch, DEFAULT_ALPHAS, curves))

    # the bound's licensed-rate cap minimized over alpha, the closed-form
    # water-filling capacity at each alpha, which certifies the peak solve too
    scan = inf_alpha_max_rp(ch, args.alpha_bracket)
    alpha_star = math.exp(scan.x)
    rp_bound = scan.value
    tightness_gap = rp_bound - max_rp

    # the solver-driven alpha sweep, independent of the closed form, and the
    # tightness condition at its winner, reported as sweep-alpha reports them
    sweep = _sweep_report(ch, mu_inf, args, settings)
    _write_json(os.path.join(out_dir, "sweep_alpha.json"), sweep)
    condition = sweep["condition_check"]

    checks = {
        "max_rp_matches_reported": abs(max_rp - REPORTED_MAX_RP) <= 1e-3,
        "bound_meets_achievable": abs(tightness_gap) <= 1e-3,
        "figure8_containment": containment_slack >= -1e-6,
        "condition_check": condition,
    }
    summary = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "mu_infinity": mu_inf,
        "max_rp_achievable": max_rp,
        "rp_bound_inf_alpha": rp_bound,
        "tightness_gap": tightness_gap,
        "alpha_star": alpha_star,
        "containment_min_slack": containment_slack,
        "condition_check": condition,
        "reported": {"max_rp": REPORTED_MAX_RP, "alpha_star": REPORTED_ALPHA_STAR},
        "paper_alpha_note": _alpha_note(alpha_star),
        "checks": checks,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)

    print(f"max r_p achievable     {max_rp:.6f}   (reported {REPORTED_MAX_RP})")
    print(f"inf-alpha bound r_p    {rp_bound:.6f}   gap {tightness_gap:.2e}")
    print(f"alpha*                 {alpha_star:.6f}   (reported {REPORTED_ALPHA_STAR})")
    print(f"containment min slack  {containment_slack:.2e}")
    print(f"condition check        {condition}")
    failures = [name for name, ok in checks.items() if not ok]
    if failures:
        print(f"FAILED checks: {', '.join(failures)}", file=sys.stderr)
        return 4
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cograte",
        description="Rate regions and outer bounds of the two-user cognitive link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--channel": dict(help="channel spec JSON path"),
        "--mu-grid": dict(default=DEFAULT_MU_GRID,
                          help="log:lo:hi:n | lin:lo:hi:n | single:v (v may be 'inf')"),
        "--seed": dict(type=_at_least(0), default=0),
        "--out": dict(help="output path (or stem for bound)"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--mu-infinity": dict(type=_positive, default=1e6,
                              help="finite surrogate for the mu -> infinity limit"),
        "--starts": dict(type=_at_least(1), default=8, help="solver multi-start count"),
        "--alpha": dict(type=_parse_alphas, default=DEFAULT_ALPHAS, help="comma-separated alphas"),
        "--mu": dict(type=float, help="mu weight (default: the mu-infinity surrogate)"),
        "--resolution": dict(type=_at_least(2), default=DEFAULT_RESOLUTION,
                             help="alpha scan points, one partial solve each: N // 100 + 2"),
        "--alpha-bracket": dict(type=_parse_bracket, default=(1e-3, 1e3), help="LO:HI"),
        "--tol": dict(type=_positive, default=1e-3,
                      help="tolerance of the tightness condition check"),
        "--out-dir": dict(default="reproduce_out"),
    }
    trace = ("--channel", "--mu-grid", "--seed", "--out", "--format", "--mu-infinity", "--starts")
    commands = (
        ("region", cmd_region, "trace the achievable boundary", trace),
        ("bound", cmd_bound, "trace partial-bound boundaries", trace + ("--alpha",)),
        ("sweep-alpha", cmd_sweep_alpha, "minimize the bound over alpha",
         ("--channel", "--seed", "--out", "--resolution", "--mu", "--mu-infinity", "--starts",
          "--alpha-bracket", "--tol")),
        ("reproduce-paper", cmd_reproduce, "re-run the bundled reference experiment",
         ("--channel", "--mu-grid", "--seed", "--starts", "--mu-infinity", "--alpha-bracket",
          "--tol", "--out-dir")),
    )
    for name, func, help_text, names in commands:
        # no abbreviations, so an unknown flag such as --out never binds to --out-dir
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in names:
            # reproduce-paper falls back to the bundled channel
            required = flag == "--channel" and name != "reproduce-paper"
            p.add_argument(flag, required=required, **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CograteError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .achievable import mu_sum_achievable, trace_boundary
from .channel import CognitiveChannel, load_channel
from .errors import (
    BracketUnbounded,
    CograteError,
    DimensionMismatch,
    InfeasibleAllocation,
    InvalidAlpha,
    NonPositiveDefinite,
    NonPositivePower,
    OracleTooLarge,
    ParseError,
    SingularNoise,
    SingularSigmaZ,
    SolverDiverged,
    UnsupportedMu,
    ZeroChannel,
)
from .outer import (
    condition_check,
    inf_alpha_partial_outer,
    partial_outer_max_rp,
    trace_outer_boundary,
)
from .regions import SCHEMA_VERSION, check_mu, write_atomic
from .solvers import SolverSettings, scan_then_golden

#: Values reported for the bundled example channel, emitted for comparison.
REPORTED_MAX_RP = 2.3542
REPORTED_ALPHA_STAR = 0.9689

DEFAULT_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_MU_GRID = "log:0.01:100:25"

_CONFIG_ERRORS = (
    ParseError,
    DimensionMismatch,
    NonPositivePower,
    InvalidAlpha,
    UnsupportedMu,
    OracleTooLarge,
    ZeroChannel,
    ValueError,
    OSError,
)
_SOLVER_ERRORS = (
    SolverDiverged,
    BracketUnbounded,
    NonPositiveDefinite,
    SingularSigmaZ,
    SingularNoise,
    InfeasibleAllocation,
)


@dataclass(frozen=True)
class RunConfig:
    """Validated per-command configuration assembled from CLI flags."""

    channel_path: str | None
    mu_grid: tuple[float, ...]
    alphas: tuple[float, ...]
    alpha_bracket: tuple[float, float]
    seed: int
    out: str | None
    fmt: str
    resolution: int
    mu_infinity: float
    starts: int
    tol: float

    def __post_init__(self):
        for mu in self.mu_grid:
            check_mu(mu)
        if any(not math.isfinite(a) or a <= 0 for a in self.alphas):
            raise ValueError("alpha values must be finite and > 0")
        lo, hi = self.alpha_bracket
        if not (0 < lo < hi < math.inf):
            raise ValueError(f"invalid alpha bracket {lo}:{hi}")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.mu_infinity <= 0 or not math.isfinite(self.mu_infinity):
            raise ValueError("mu-infinity must be finite and positive")


def bundled_channel_text() -> str:
    """JSON text of the packaged example channel."""
    return resources.files("cograte").joinpath("data/paper_sec7.json").read_text()


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


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad alpha list {text!r}") from None
    if not values:
        raise ValueError("alpha list is empty")
    return values


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad alpha bracket {text!r}; expected LO:HI")
    return float(parts[0]), float(parts[1])


def _config(args: argparse.Namespace) -> RunConfig:
    mu_infinity = float(getattr(args, "mu_infinity", 1e6))
    return RunConfig(
        channel_path=getattr(args, "channel", None),
        mu_grid=_parse_mu_grid(getattr(args, "mu_grid", DEFAULT_MU_GRID), mu_infinity),
        alphas=_parse_alphas(getattr(args, "alpha", "1")),
        alpha_bracket=_parse_bracket(getattr(args, "alpha_bracket", "1e-3:1e3")),
        seed=int(getattr(args, "seed", 0)),
        out=getattr(args, "out", None),
        fmt=getattr(args, "format", "csv"),
        resolution=int(getattr(args, "resolution", 400)),
        mu_infinity=mu_infinity,
        starts=int(getattr(args, "starts", 8)),
        tol=float(getattr(args, "tol", 1e-3)),
    )


def _load(cfg: RunConfig) -> CognitiveChannel:
    if cfg.channel_path is None:
        return load_channel(bundled_channel_text())
    with open(cfg.channel_path, "r", encoding="utf-8") as handle:
        return load_channel(handle.read())


def _settings(cfg: RunConfig) -> SolverSettings:
    return SolverSettings(starts=cfg.starts, seed=cfg.seed)


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


def cmd_region(args: argparse.Namespace) -> int:
    cfg = _config(args)
    ch = _load(cfg)
    boundary = trace_boundary(ch, cfg.mu_grid, _settings(cfg))
    out = cfg.out or f"region.{cfg.fmt}"
    _emit(boundary, out, cfg.fmt)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = _config(args)
    ch = _load(cfg)
    settings = _settings(cfg)
    # the achievable trace seeds every bound solve: the bound contains the
    # region, so its witnesses are feasible warm starts on the bound side
    region = trace_boundary(ch, cfg.mu_grid, settings)
    curves = [
        trace_outer_boundary(ch, alpha, cfg.mu_grid, settings, warm_boundary=region)
        for alpha in cfg.alphas
    ]
    stem = cfg.out or "bound"
    stem = stem[: -len(".csv")] if stem.endswith(".csv") else stem
    stem = stem[: -len(".json")] if stem.endswith(".json") else stem
    for alpha, curve in zip(cfg.alphas, curves):
        _emit(curve, f"{stem}_alpha{alpha:g}.{cfg.fmt}", cfg.fmt)
    _write_json(f"{stem}.json", _bounds_report(ch, cfg.alphas, curves))
    print(f"wrote {stem}.json")
    return 0


def _alpha_note(alpha_star: float) -> str:
    return (
        f"computed alpha* = {alpha_star:.6g}; the originally reported value "
        f"{REPORTED_ALPHA_STAR} is included for comparison only and is not "
        f"used by any check"
    )


def _sweep_report(cfg: RunConfig, mu: float, sweep, condition: bool) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "mu": mu,
        "alpha_star": sweep.alpha_star,
        "n_value": sweep.n_value,
        "n_value_per_mu": sweep.n_value / mu,
        "condition_check": bool(condition),
        "non_unimodal": bool(sweep.non_unimodal),
        "tolerances": {"condition": cfg.tol},
        "paper_alpha_note": _alpha_note(sweep.alpha_star),
        "reported_alpha_star": REPORTED_ALPHA_STAR,
    }


def cmd_sweep_alpha(args: argparse.Namespace) -> int:
    cfg = _config(args)
    ch = _load(cfg)
    settings = _settings(cfg)
    mu = check_mu(getattr(args, "mu", cfg.mu_infinity) or cfg.mu_infinity, 1.0)
    result = inf_alpha_partial_outer(ch, mu, cfg.alpha_bracket, settings, n_scan=cfg.resolution // 20 + 10)
    condition = condition_check(ch, result.alpha_star, mu, cfg.tol, settings)
    report = _sweep_report(cfg, mu, result, condition)
    report["bracket"] = list(result.bracket)
    out = cfg.out or "sweep_alpha.json"
    _write_json(out, report)
    print(f"wrote {out}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = _config(args)
    started = time.monotonic()
    ch = _load(cfg)
    settings = _settings(cfg)
    out_dir = getattr(args, "out_dir", None) or "reproduce_out"
    os.makedirs(out_dir, exist_ok=True)
    mu_inf = cfg.mu_infinity
    mu_grid = cfg.mu_grid

    region = trace_boundary(ch, mu_grid, settings)
    write_atomic(os.path.join(out_dir, "region.csv"), region.to_csv())
    write_atomic(os.path.join(out_dir, "region.json"), region.to_json())

    peak = mu_sum_achievable(ch, mu_inf, settings)
    max_rp = peak.rate.r_p

    curves = [
        trace_outer_boundary(ch, alpha, mu_grid, settings, warm_boundary=region)
        for alpha in DEFAULT_ALPHAS
    ]
    containment_slack = math.inf
    for alpha, curve in zip(DEFAULT_ALPHAS, curves):
        write_atomic(
            os.path.join(out_dir, f"bound_alpha{alpha:g}.csv"), curve.to_csv()
        )
        for bp, rp in zip(curve.points, region.points):
            slack = bp.rate.mu_sum(bp.mu) - rp.rate.mu_sum(rp.mu)
            containment_slack = min(containment_slack, slack)
    _write_json(os.path.join(out_dir, "bounds.json"), _bounds_report(ch, DEFAULT_ALPHAS, curves))

    # scalar minimization of the bound's licensed-rate cap over alpha; the
    # inner value is the closed-form water-filling capacity at each alpha
    lo, hi = cfg.alpha_bracket
    scan = scan_then_golden(
        lambda log_a: partial_outer_max_rp(ch, math.exp(log_a)),
        np.log(np.geomspace(lo, hi, 41)),
        tol=1e-12,
    )
    alpha_star = math.exp(scan.x)
    rp_bound = scan.value
    tightness_gap = rp_bound - max_rp
    condition = condition_check(ch, alpha_star, mu_inf, cfg.tol, settings)

    # the generic alpha sweep (solver-driven, independent of the closed form)
    sweep = inf_alpha_partial_outer(ch, mu_inf, cfg.alpha_bracket, settings)
    _write_json(
        os.path.join(out_dir, "sweep_alpha.json"), _sweep_report(cfg, mu_inf, sweep, condition)
    )

    checks = {
        "max_rp_matches_reported": abs(max_rp - REPORTED_MAX_RP) <= 1e-3,
        "bound_meets_achievable": abs(tightness_gap) <= 1e-3,
        "figure8_containment": containment_slack >= -1e-6,
        "condition_check": bool(condition),
    }
    summary = {
        "schema": SCHEMA_VERSION,
        "seed": cfg.seed,
        "mu_infinity": mu_inf,
        "max_rp_achievable": max_rp,
        "rp_bound_inf_alpha": rp_bound,
        "tightness_gap": tightness_gap,
        "alpha_star": alpha_star,
        "containment_min_slack": containment_slack,
        "condition_check": bool(condition),
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

    def common(p: argparse.ArgumentParser, channel_required: bool = True):
        p.add_argument("--channel", required=channel_required, help="channel spec JSON path")
        p.add_argument("--mu-grid", dest="mu_grid", default=DEFAULT_MU_GRID,
                       help="log:lo:hi:n | lin:lo:hi:n | single:v (v may be 'inf')")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (or stem for bound)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--resolution", type=int, default=400)
        p.add_argument("--mu-infinity", dest="mu_infinity", type=float, default=1e6,
                       help="finite surrogate for the mu -> infinity limit")
        p.add_argument("--starts", type=int, default=8, help="solver multi-start count")

    p_region = sub.add_parser("region", help="trace the achievable boundary")
    common(p_region)
    p_region.set_defaults(func=cmd_region)

    p_bound = sub.add_parser("bound", help="trace partial-bound boundaries")
    common(p_bound)
    p_bound.add_argument("--alpha", default="0.25,0.5,1,2,4", help="comma-separated alphas")
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep-alpha", help="minimize the bound over alpha")
    common(p_sweep)
    p_sweep.add_argument("--mu", type=float, default=None,
                         help="mu weight (default: the mu-infinity surrogate)")
    p_sweep.add_argument("--alpha-bracket", dest="alpha_bracket", default="1e-3:1e3")
    p_sweep.add_argument("--tol", type=float, default=1e-3,
                         help="tolerance of the tightness condition check")
    p_sweep.set_defaults(func=cmd_sweep_alpha)

    p_rep = sub.add_parser("reproduce-paper",
                           help="re-run the bundled reference experiment")
    common(p_rep, channel_required=False)
    p_rep.add_argument("--alpha-bracket", dest="alpha_bracket", default="1e-3:1e3")
    p_rep.add_argument("--tol", type=float, default=1e-3)
    p_rep.add_argument("--out-dir", dest="out_dir", default="reproduce_out")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except CograteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on the outputs of a pass.

Every check compares against a reference that does not run the
projected-ascent solvers: rates recomputed here from the reported witness
covariances with numpy eigenvalues, the program's ``grid_oracle`` on the
scalar bundled channel, the closed form of that channel's alpha-minimized
peak, and the containments the theory guarantees (bound over region, BC over
partial bound, any fixed alpha over the alpha infimum).  Tolerances leave
room for rounding but not for a rate moved by 1e-3 bits.

Determinism is checked by comparing every pass of a run with its first pass,
byte for byte.  ``summary.json`` of ``reproduce-paper`` records its own
wall-clock time under ``elapsed_seconds``; that one key is left out of the
comparison.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cograte.cli import REPORTED_MAX_RP, bundled_channel_text
from cograte.oracles import grid_oracle
from cograte.channel import load_channel

#: Reported rates must equal the rates recomputed from their witnesses.
RATE_TOL = 1e-9
#: Slack of the containments and of the feasibility checks.
ORDER_TOL = 1e-6
#: Oracle shortfall allowed on region and bound points (acceptance criterion 5).
ORACLE_TOL = 1e-2
#: The alpha-minimized peak against its closed form (acceptance criterion 2).
PEAK_TOL = 1e-6
#: The achievable peak against the same closed form (acceptance criterion 1).
ACHIEVABLE_PEAK_TOL = 1e-3
#: Cells of the grid oracle; its own error is far below ORDER_TOL.
ORACLE_RESOLUTION = 1 << 16


class Result:
    """Outcomes of the checks of one pass."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []
        self.oracle_gap_bits: float | None = None

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.items if not ok]


# -- independent rate formulas --------------------------------------------


def _mat(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    if a.ndim == 3:  # [re, im] pairs
        return a[..., 0] + 1j * a[..., 1]
    return a


def _channel(spec: dict):
    h = {k: _mat(spec[k]) for k in ("h_pp", "h_pc", "h_cp", "h_cc")}
    scale = 0.5 if spec.get("real_mode", False) else 1.0
    return h, float(spec["p_p"]), float(spec["p_c"]), scale


def _ld(m: np.ndarray) -> float:
    """log2 det(I + m) from the eigenvalues of the Hermitian part."""
    m = 0.5 * (m + np.conj(m.T))
    return float(np.sum(np.log2(np.linalg.eigvalsh(np.eye(m.shape[0]) + m))))


def _quad(h, s):
    return h @ s @ np.conj(h.T)


def _psd_and_trace(*blocks) -> tuple[float, float]:
    low = min(float(np.linalg.eigvalsh(0.5 * (b + np.conj(b.T)))[0]) for b in blocks)
    return low, sum(float(np.real(np.trace(b))) for b in blocks)


def achievable_rates(spec: dict, w: dict) -> tuple[float, float, list[str]]:
    h, p_p, p_c, s = _channel(spec)
    sp, scp, scc, q = (_mat(w[k]) for k in ("sigma_p", "sigma_cp", "sigma_cc", "q"))
    net = np.block([[sp, q], [np.conj(q.T), scp]])
    g = np.hstack([h["h_pp"], h["h_cp"]])
    intf = _quad(h["h_cp"], scc)
    r_p = s * (_ld(_quad(g, net) + intf) - _ld(intf))
    r_c = s * _ld(_quad(h["h_cc"], scc))
    bad = []
    low, _ = _psd_and_trace(net, scc)
    if low < -ORDER_TOL:
        bad.append(f"witness not PSD ({low:.2e})")
    if float(np.real(np.trace(sp))) > p_p + ORDER_TOL:
        bad.append("licensed budget exceeded")
    if float(np.real(np.trace(scp) + np.trace(scc))) > p_c + ORDER_TOL:
        bad.append("cognitive budget exceeded")
    return max(r_p, 0.0), max(r_c, 0.0), bad


def partial_rates(spec: dict, alpha: float, w: dict) -> tuple[float, float, list[str]]:
    h, p_p, p_c, s = _channel(spec)
    q_p, scc = _mat(w["q_p"]), _mat(w["sigma_cc"])
    ga = np.hstack([h["h_pp"], h["h_cp"] / math.sqrt(alpha)])
    intf = _quad(h["h_cp"], scc) / alpha
    r_p = s * (_ld(_quad(ga, q_p) + intf) - _ld(intf))
    r_c = s * _ld(_quad(h["h_cc"], scc) / alpha)
    low, total = _psd_and_trace(q_p, scc)
    bad = []
    if low < -ORDER_TOL:
        bad.append(f"witness not PSD ({low:.2e})")
    if total > p_p + alpha * p_c + ORDER_TOL:
        bad.append("sum budget exceeded")
    return max(r_p, 0.0), max(r_c, 0.0), bad


def bc_rates(spec: dict, alpha: float, w: dict) -> tuple[float, float, list[str]]:
    h, p_p, p_c, s = _channel(spec)
    q_p, q_c = _mat(w["q_p"]), _mat(w["q_c"])
    root = math.sqrt(alpha)
    ga = np.hstack([h["h_pp"], h["h_cp"] / root])
    k = np.hstack([np.zeros_like(h["h_pc"]), h["h_cc"] / root])
    r_p = s * (_ld(_quad(ga, q_p + q_c)) - _ld(_quad(ga, q_c)))
    r_c = s * _ld(_quad(k, q_c))
    low, total = _psd_and_trace(q_p, q_c)
    bad = []
    if low < -ORDER_TOL:
        bad.append(f"witness not PSD ({low:.2e})")
    if total > p_p + alpha * p_c + ORDER_TOL:
        bad.append("sum budget exceeded")
    return max(r_p, 0.0), max(r_c, 0.0), bad


# -- boundary checks ------------------------------------------------------


def _rate_match(result: Result, name: str, reported, recomputed) -> None:
    r_p, r_c, bad = recomputed
    err = max(abs(reported[0] - r_p), abs(reported[1] - r_c))
    result.add(f"{name} rates match witness", err <= RATE_TOL and not bad,
               f"max |diff| {err:.2e} bits{'; ' + ', '.join(bad) if bad else ''}")


def check_witnesses(result: Result, name: str, doc: dict, rates) -> None:
    """Each point's (r_p, r_c) is the rate pair of its own witness."""
    for p in doc["points"]:
        _rate_match(result, f"{name} mu={p['mu']:.6g}", (p["r_p"], p["r_c"]), rates(p["witness"]))


def check_pareto(result: Result, name: str, points) -> None:
    """Along decreasing mu, r_p never rises and r_c never falls."""
    pts = sorted(points, key=lambda p: -p[0])
    worst = 0.0
    for (_, rp0, rc0), (_, rp1, rc1) in zip(pts, pts[1:]):
        worst = max(worst, rp1 - rp0, rc0 - rc1)
    result.add(f"{name} Pareto order", worst <= ORDER_TOL, f"worst step {worst:.2e}")


def check_dominance(result: Result, name: str, bound, region) -> None:
    """The bound's mu-sum is at least the region's at every shared mu."""
    b = {mu: mu * rp + rc for mu, rp, rc in bound}
    slack = min(b[mu] - (mu * rp + rc) for mu, rp, rc in region if mu in b)
    result.add(f"{name} bound dominates region", slack >= -ORDER_TOL, f"min slack {slack:.2e}")


def _csv_points(text: str):
    return [tuple(float(v) for v in line.split(",")) for line in text.splitlines()[1:]]


def _json_points(doc: dict):
    return [(p["mu"], p["r_p"], p["r_c"]) for p in doc["points"]]


# -- per workload ---------------------------------------------------------


def _paper(result: Result, files: dict[str, bytes]) -> None:
    summary = json.loads(files["summary.json"])
    result.add("reproduce-paper checks all pass", all(summary["checks"].values()),
               json.dumps(summary["checks"], sort_keys=True))
    result.add("peak matches the reported 2.3542",
               abs(summary["max_rp_achievable"] - REPORTED_MAX_RP) <= 1e-3,
               f"{summary['max_rp_achievable']:.6f}")
    result.add("bound meets achievable peak", abs(summary["tightness_gap"]) <= 1e-3,
               f"gap {summary['tightness_gap']:.2e}")
    result.add("figure-8 containment", summary["containment_min_slack"] >= -ORDER_TOL,
               f"min slack {summary['containment_min_slack']:.2e}")
    result.add("condition check holds", summary["condition_check"] is True)

    spec = json.loads(bundled_channel_text())
    ch = load_channel(bundled_channel_text())
    region_doc = json.loads(files["region.json"])
    region = _csv_points(files["region.csv"].decode())
    err = max(abs(a - b) for pa, pb in zip(region, _json_points(region_doc)) for a, b in zip(pa, pb))
    result.add("region.csv agrees with region.json",
               len(region) == len(region_doc["points"]) and err <= RATE_TOL, f"{err:.2e}")
    check_witnesses(result, "region", region_doc, lambda w: achievable_rates(spec, w))
    check_pareto(result, "region", region)

    gaps = []

    def against_oracle(label, points, mode, alpha=None):
        worst_short, worst_excess = -math.inf, -math.inf
        for mu, r_p, r_c in points:
            ref = grid_oracle(ch, mu, ORACLE_RESOLUTION, mode, alpha)
            short = ref - (mu * r_p + r_c)
            worst_short = max(worst_short, short)
            worst_excess = max(worst_excess, -short)
        gaps.append(worst_short)
        result.add(f"{label} vs grid oracle", worst_short <= ORACLE_TOL and worst_excess <= ORDER_TOL,
                   f"shortfall {worst_short:.2e}, excess {worst_excess:.2e}")

    against_oracle("region", region, "achievable")
    alphas = sorted(name[len("bound_alpha"):-len(".csv")] for name in files
                    if name.startswith("bound_alpha") and name.endswith(".csv"))
    result.add("five bound curves written", len(alphas) == 5, ",".join(alphas))
    for a in alphas:
        bound = _csv_points(files[f"bound_alpha{a}.csv"].decode())
        check_pareto(result, f"bound alpha={a}", bound)
        check_dominance(result, f"alpha={a}", bound, region)
        against_oracle(f"bound alpha={a}", bound, "partial_outer", float(a))

    # scalar transmit sides: (p_p + a p_c)(hpp^2 + hcp^2/a) >= (sqrt(p_p) hpp
    # + sqrt(p_c) hcp)^2 by Cauchy-Schwarz, with equality at the optimal a
    hpp, hcp = abs(float(ch.h_pp[0, 0])), abs(float(ch.h_cp[0, 0]))
    peak = ch.rate_scale * math.log2(1.0 + (math.sqrt(ch.p_p) * hpp + math.sqrt(ch.p_c) * hcp) ** 2)
    bound_peak = summary["rp_bound_inf_alpha"]
    ach_peak = summary["max_rp_achievable"]
    gaps += [peak - bound_peak, peak - ach_peak]
    result.add("alpha-minimized peak vs closed form", abs(peak - bound_peak) <= PEAK_TOL,
               f"{bound_peak - peak:+.2e}")
    result.add("achievable peak vs closed form",
               peak - ach_peak <= ACHIEVABLE_PEAK_TOL and ach_peak - peak <= ORDER_TOL,
               f"{ach_peak - peak:+.2e}")
    result.oracle_gap_bits = max(gaps)


def _region(result: Result, files: dict[str, bytes], specs: dict[int, dict]) -> None:
    for n, spec in sorted(specs.items()):
        region_doc = json.loads(files[f"region_n{n}.json"])
        bound_doc = json.loads(files[f"bound_n{n}_alpha1.json"])
        combined = json.loads(files[f"bound_n{n}.json"])["alphas"]["1"]
        check_witnesses(result, f"n={n} region", region_doc, lambda w: achievable_rates(spec, w))
        check_witnesses(result, f"n={n} bound", bound_doc, lambda w: partial_rates(spec, 1.0, w))
        region, bound = _json_points(region_doc), _json_points(bound_doc)
        result.add(f"n={n} combined bound file agrees",
                   [(p["mu"], p["r_p"], p["r_c"]) for p in combined] == bound)
        check_pareto(result, f"n={n} region", region)
        check_pareto(result, f"n={n} bound", bound)
        check_dominance(result, f"n={n}", bound, region)


def _tightness(result: Result, files: dict[str, bytes], spec: dict) -> None:
    sweep = json.loads(files["sweep_alpha.json"])
    probes = json.loads(files["probes.json"])
    lo, hi = sweep["bracket"]
    result.add("alpha* inside the bracket", lo < sweep["alpha_star"] < hi,
               f"{sweep['alpha_star']:.6g} in ({lo:g}, {hi:g})")
    result.add("sweep reports n_value/mu",
               abs(sweep["n_value_per_mu"] - sweep["n_value"] / sweep["mu"]) <= RATE_TOL)
    alpha, mu = probes["alpha"], probes["mu"]
    part, bc = probes["partial"], probes["bc"]
    _rate_match(result, "partial probe", (part["r_p"], part["r_c"]), partial_rates(spec, alpha, part))
    _rate_match(result, "BC probe", (bc["r_p"], bc["r_c"]), bc_rates(spec, alpha, bc))
    for label, p in (("partial", part), ("BC", bc)):
        result.add(f"{label} probe value is its mu-sum",
                   abs(p["value"] - (mu * p["r_p"] + p["r_c"])) <= RATE_TOL)
    result.add("BC probe dominates partial probe", bc["value"] >= part["value"] - ORDER_TOL,
               f"BC - partial = {bc['value'] - part['value']:.3e}")
    result.add("fixed-alpha probe dominates the alpha infimum",
               part["value"] >= sweep["n_value"] - ORDER_TOL,
               f"slack {part['value'] - sweep['n_value']:.2e}")


def check_pass(workload: str, files: dict[str, bytes], specs: dict[int, dict]) -> Result:
    """Check the outputs of one pass; a missing or malformed output fails."""
    result = Result()
    try:
        if workload == "paper_repro":
            _paper(result, files)
        elif workload == "mimo_region":
            _region(result, files, specs)
        else:
            _tightness(result, files, specs[2])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        result.add("outputs readable", False, repr(exc))
    return result


def comparable(files: dict[str, bytes]) -> dict[str, bytes]:
    """Outputs as compared across passes: ``summary.json`` without its
    wall-clock ``elapsed_seconds``."""
    out = dict(files)
    if "summary.json" in out:
        doc = json.loads(out["summary.json"])
        doc.pop("elapsed_seconds", None)
        out["summary.json"] = json.dumps(doc, sort_keys=True).encode()
    return out


def same_outputs(first: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    """Names of outputs that differ between two passes."""
    a, b = comparable(first), comparable(other)
    return sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))

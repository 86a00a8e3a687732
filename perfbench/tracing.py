"""Spans and work counters recorded from outside the program.

Nothing in ``src/`` is changed.  While a :class:`Tracer` is installed it
replaces public functions by timing wrappers on the module that *calls*
them: the package imports by name (``from .solvers import
maximize_multistart``), so the wrapper must sit on ``achievable`` and
``outer``, not on ``solvers``.  ``numpy.linalg.slogdet`` is looked up as an
attribute at call time and is wrapped on numpy itself.

Each span adds its duration to its parent, so a layer's self time is its
time minus its children's.  Spans are aggregated in memory per
(parent, name) edge rather than kept one by one: a ``reproduce-paper`` pass
makes over 100k calls.

Solver work is counted by wrapping the ``objective`` and ``project`` that a
caller hands to ``maximize_multistart``.  The solver projects its starts,
evaluates them once, then per iteration makes one gradient call and, unless
every gradient vanished, projects the line-search candidates and evaluates
them.  So an objective call right after a projection is a line search, every
other one after the first is a gradient call, and iterations are the gradient
calls; a solve is capped when its iterations reach ``settings.max_iters``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import cograte.achievable as achievable
import cograte.cli as cli
import cograte.outer as outer

_perf = time.perf_counter


def output_bytes(path: str, content: str) -> int:
    """UTF-8 size of a written output, without the wall-clock field.

    ``summary.json`` records its own ``elapsed_seconds``, rounded to
    milliseconds, so its size moves by a byte or two from pass to pass; the
    field is left out so that the count repeats exactly, as every work
    counter must.
    """
    if os.path.basename(path) == "summary.json":
        doc = json.loads(content)
        doc.pop("elapsed_seconds", None)
        content = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return len(content.encode("utf-8"))


class Tracer:
    """In-memory spans and counters of one traced workload pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)``/``after(args, result)``
        update counters at the same boundary."""
        stack = self._stack
        calls, total, self_time, edges = self.calls, self.total, self.self_time, self.edges

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                edges[(parent[0] if parent else None, name)] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch(self, owner, attr: str, name: str, **hooks):
        self._replace(owner, attr, self.span(name, getattr(owner, attr), **hooks))

    def install(self):
        """Wrap every traced call site; undone by :meth:`uninstall`."""
        counts = self.counts

        def slogdet_before(args):
            m = np.asarray(args[0])
            rows, dim = int(np.prod(m.shape[:-2], dtype=np.int64)), m.shape[-1]
            counts["linalg.slogdet_rows"] += rows
            # LU factorization takes 2/3 dim^3 real flops, four times that in
            # complex; the 2/3 is applied when the metric is reported
            counts["linalg.slogdet_dim3"] += rows * dim**3 * (4 if np.iscomplexobj(m) else 1)

        def partial_before(_args):
            if self.inside("outer.inf_alpha_partial_outer"):
                counts["outer.alpha_evals"] += 1

        def polish_after(args, result):
            witnesses = args[2]
            counts["regions.polish_points"] += len(result)
            counts["regions.own_solve_won"] += sum(
                point.witness is witnesses[i] for i, point in enumerate(result)
            )

        def write_before(args):
            counts["regions.write_bytes"] += output_bytes(args[0], args[1])

        self._patch(np.linalg, "slogdet", "linalg.slogdet", before=slogdet_before)
        for module in (achievable, outer):
            self._replace(module, "maximize_multistart", self._solver(module.maximize_multistart))
            self._patch(module, "build_lower", "linalg.build_lower")
            self._patch(module, "encode_psd", "linalg.encode_psd")
            self._patch(module, "log_det_id_plus", "linalg.log_det_id_plus")
            self._patch(module, "cross_polish", "regions.cross_polish", after=polish_after)
        for module in (achievable, cli):
            self._patch(module, "mu_sum_achievable", "achievable.mu_sum_achievable")
        self._patch(outer, "mu_sum_partial_outer", "outer.mu_sum_partial_outer",
                    before=partial_before)
        self._patch(outer, "bc_mu_sum", "outer.bc_mu_sum")
        self._patch(outer, "composite_matrices", "channel.composite_matrices")
        self._patch(outer, "waterfill", "solvers.waterfill")
        self._patch(cli, "inf_alpha_partial_outer", "outer.inf_alpha_partial_outer")
        self._patch(cli, "condition_check", "outer.condition_check")
        self._patch(cli, "load_channel", "channel.load_channel")
        self._patch(cli, "write_atomic", "regions.write_atomic", before=write_before)
        # golden_section inside scan_then_golden receives the counted f
        for module, attr in ((cli, "scan_then_golden"), (outer, "scan_then_golden"),
                             (outer, "golden_section")):
            self._replace(module, attr, self._scalar(getattr(module, attr)))

    def _solver(self, solve):
        """Span around ``solve`` that counts its work through the objective
        and projection it is handed."""
        counts = self.counts
        span = self.span
        traced = span("solvers.maximize_multistart", solve)
        objective_span = "solvers.objective"
        project_span = "solvers.project"

        def maximize_multistart(objective, n_params, project, settings, *args, **kwargs):
            state = {"calls": 0, "after_project": False, "iterations": 0}

            def count_objective(thetas):
                counts["solvers.objective_calls"] += 1
                counts["solvers.objective_rows"] += int(np.atleast_2d(thetas).shape[0])
                if state["calls"] and not state["after_project"]:
                    state["iterations"] += 1
                state["calls"] += 1
                state["after_project"] = False
                return objective(thetas)

            def count_project(thetas):
                counts["solvers.project_calls"] += 1
                state["after_project"] = True
                return project(thetas)

            result = traced(
                span(objective_span, count_objective),
                n_params,
                span(project_span, count_project),
                settings,
                *args,
                **kwargs,
            )
            counts["solvers.solves"] += 1
            counts["solvers.iterations"] += state["iterations"]
            if state["iterations"] >= settings.max_iters:
                counts["solvers.capped_solves"] += 1
            return result

        return maximize_multistart

    def _scalar(self, minimize):
        counts = self.counts

        def minimizer(f, *args, **kwargs):
            def counted(x):
                counts["solvers.scan_evals"] += 1
                return f(x)

            return minimize(counted, *args, **kwargs)

        return minimizer

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

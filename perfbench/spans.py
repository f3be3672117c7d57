"""Spans around the calls into cgroute's public functions, kept in memory.

Tracing installs wrappers on the module attributes the callers look up
(``cgroute.solver.price_demand``, ``cgroute.rmp.linprog``,
``RestrictedMaster.solve`` and so on), runs the workload, and restores the
originals. Candidate enumeration is reached through the ``candidate_fn``
argument, so the benchmark passes a wrapped enumerator. A span's layer is
the part of its name before the first dot; each layer is a module of
``src/cgroute``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("scenario", "model", "pricing", "rmp", "solver", "exact", "harness")


class CountingRng:
    """Delegates every draw to the wrapped Generator, counting ``choice`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Records spans as [op, name, start, end, parent] plus per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(result)`` updates the counters."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(result)
            return result

        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def inclusive(self) -> dict[str, float]:
        """Total duration per span name, counting nested same-name spans once."""
        names = [s[1] for s in self.spans]
        total: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, parent) in enumerate(self.spans):
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][4]
            if p < 0:
                total[name] += end - start
        return total

    def self_by(self, key) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[key(span[1])] += own
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@contextmanager
def installed(tracer: Tracer, cg):
    """Swap traced wrappers into cgroute's modules; restore them on exit."""
    c = tracer.counts

    def on_cg(res):
        c["solver.cg_iterations"] += res.iterations
        c["solver.uncertified"] += not res.certified
        c["rmp.pool_size"] += res.master.pool_size

    def on_exact(res):
        c["exact.bb_nodes"] += res.nodes_explored
        c["exact.lp_solves"] += res.lp_solves
        c["exact.unproven"] += not res.optimal

    def on_price(res):
        c["pricing.price_calls"] += 1
        c["pricing.hits"] += res is not None

    original_round = cg.solver.randomized_round

    def traced_round(solution, master, graph, demands, rng, *rest, **kwargs):
        counting = CountingRng(rng)
        with tracer.span("solver.round"):
            result = original_round(solution, master, graph, demands, counting, *rest, **kwargs)
        c["solver.round_draws"] += counting.draws
        return result

    original_epoch = cg.harness.solve_epoch

    def traced_epoch(*args, **kwargs):
        tracer.op += 1
        with tracer.span("harness.solve_epoch"):
            return original_epoch(*args, **kwargs)

    def bump(key):
        return lambda res: c.update([key])

    s, h = cg.scenario, cg.harness
    plan = [
        (cg.solver, "augment_clique", tracer.wrap(cg.solver.augment_clique, "model.augment", bump("model.augment_calls"))),
        (cg.exact, "augment_clique", tracer.wrap(cg.exact.augment_clique, "model.augment", bump("model.augment_calls"))),
        (cg.solver, "price_demand", tracer.wrap(cg.solver.price_demand, "pricing.price", on_price)),
        (cg.rmp, "linprog", tracer.wrap(cg.rmp.linprog, "rmp.highs")),
        (cg.rmp.RestrictedMaster, "solve", tracer.wrap(cg.rmp.RestrictedMaster.solve, "rmp.lp", bump("rmp.lp_solves"))),
        (cg.solver, "column_generation", tracer.wrap(cg.solver.column_generation, "solver.cg", on_cg)),
        (cg.solver, "randomized_round", traced_round),
        (cg.solver, "solve", tracer.wrap(cg.solver.solve, "solver.solve")),
        (cg.exact, "solve_exact", tracer.wrap(cg.exact.solve_exact, "exact.solve", on_exact)),
        (h, "enumerate_candidates", traced_enumerator(tracer, h.enumerate_candidates)),
        (h, "solve", tracer.wrap(h.solve, "solver.solve")),
        (h, "solve_epoch", traced_epoch),
        (h, "run_timeseries", tracer.wrap(h.run_timeseries, "harness.run_timeseries")),
        (h, "emit_reports", tracer.wrap(h.emit_reports, "harness.report")),
    ]
    for name in ("generate_topology", "generate_demands", "generate_telco_trace", "telco_demands"):
        plan.append((s, name, tracer.wrap(getattr(s, name), "scenario.generate")))
    for name in ("load_trace", "load_node_limits", "load_demands"):
        plan.append((s, name, tracer.wrap(getattr(s, name), "scenario.load")))
    for name in ("save_trace", "save_node_limits", "save_demands"):
        plan.append((s, name, tracer.wrap(getattr(s, name), "scenario.save")))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    try:
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def traced_enumerator(tracer: Tracer, enumerate_fn):
    """The ``candidate_fn`` to pass in a traced run: a span plus a path count."""

    def count(paths):
        tracer.counts["pricing.candidates"] += len(paths)

    return tracer.wrap(enumerate_fn, "pricing.enumerate", count)

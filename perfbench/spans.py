"""Span tracing of gametree's layers from outside the program.

:class:`Tracer` wraps the public function of each layer named in
``LAYER_FUNCTIONS`` on every ``gametree`` module namespace that bound it
(``conditional_reach`` is called through both ``metrics`` and ``convert``,
``gap`` through ``cli``, ``metrics`` and ``equilibrium``), records one span
per call and keeps the spans in memory. Work counters are read from the
arguments and return values of the wrapped calls, never from program
internals. Per-layer metrics are totals over one pass of a workload's ops;
only the spans of the first traced pass are kept for writing out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Optional

# layer (a gametree module) -> its public functions recorded as spans
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "game": ("parse_game",),
    "strategy": ("parse_profile", "decompose", "serialize_profile"),
    "metrics": ("gap", "conditional_reach", "outcome_distribution"),
    "bestresponse": ("best_response",),
    "witnesses": ("recommendation_history",),
    "convert": ("efce_to_bce",),
    "equilibrium": ("compute_efce", "optimal_efce", "compute_bce", "optimal_bce",
                    "trigger_constraints"),
    "lp": ("lp_solve",),
}

# Calls whose arguments or return value feed a counter; the references are
# dropped when the op ends.
_KEEP = {"parse_game", "parse_profile", "gap", "trigger_constraints", "lp_solve"}

# name -> (unit, better) of every per-layer metric, in report order
METRICS = {
    "game.parse_game.s": ("s", "lower"),
    "game.parse_game.calls": ("count", "lower"),
    "game.nodes": ("count", "lower"),
    "strategy.parse_profile.s": ("s", "lower"),
    "strategy.decompose.s": ("s", "lower"),
    "strategy.decompose.calls": ("count", "lower"),
    "strategy.serialize_profile.s": ("s", "lower"),
    "strategy.support": ("count", "lower"),
    "metrics.gap.s.efce": ("s", "lower"),
    "metrics.gap.s.bce": ("s", "lower"),
    "metrics.gap.s.full-efce": ("s", "lower"),
    "metrics.gap.s.nfcce": ("s", "lower"),
    "metrics.gap.calls": ("count", "lower"),
    "metrics.conditional_reach.s": ("s", "lower"),
    "metrics.conditional_reach.calls": ("count", "lower"),
    "metrics.outcome_distribution.s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "bestresponse.best_response.s": ("s", "lower"),
    "bestresponse.best_response.calls": ("count", "lower"),
    "witnesses.recommendation_history.s": ("s", "lower"),
    "witnesses.recommendation_history.calls": ("count", "lower"),
    "convert.efce_to_bce.s": ("s", "lower"),
    "convert.efce_to_bce.calls": ("count", "lower"),
    "convert.reach_calls_per_rewrite": ("calls/rewrite", "lower"),
    "convert.cbr_yield": ("ratio", "higher"),
    "convert.self_s": ("s", "lower"),
    "equilibrium.profiles": ("count", "lower"),
    "equilibrium.trigger_constraints.s": ("s", "lower"),
    "equilibrium.trigger_rows": ("count", "lower"),
    "equilibrium.trigger_rows_nonzero": ("count", "lower"),
    "equilibrium.trigger_rows_unique_frac": ("ratio", "higher"),
    "equilibrium.reverify.s": ("s", "lower"),
    "equilibrium.self_s": ("s", "lower"),
    "lp.lp_solve.s.feasible": ("s", "lower"),
    "lp.lp_solve.s.optimal": ("s", "lower"),
    "lp.lp_solve.calls": ("count", "lower"),
    "lp.rows": ("count", "lower"),
    "lp.cols": ("count", "lower"),
    "lp.nonzeros": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Span:
    __slots__ = ("layer", "name", "op", "parent", "start", "end", "scale", "call",
                 "info")

    def __init__(self, layer, name, op, parent):
        self.layer, self.name, self.op, self.parent = layer, name, op, parent
        self.start = self.end = 0.0
        self.scale = 1.0   # wall time -> time at the benchmark's reference speed
        self.call = None   # (args, kwargs, result) until the op ends
        self.info = None   # counters read from ``call``

    @property
    def duration(self) -> float:
        """Seconds at the reference speed."""
        return (self.end - self.start) * self.scale


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []           # the current pass
        self.first: list[Span] = []           # the first traced pass, kept for write()
        self.per_pass: list[dict[str, float]] = []  # layer_metrics of each pass
        self.op = -1
        self._stack: list[int] = []
        self._op_start = 0
        self._installed: list = []

    def begin_pass(self):
        self.spans = []

    def end_pass(self, scales: list[float]):
        """Close the pass; ``scales[k]`` turns op k's wall time into time at
        the benchmark's reference speed."""
        for span in self.spans:
            span.scale = scales[span.op]
        self.per_pass.append(layer_metrics(self.spans))
        if not self.first:
            self.first = self.spans
        self.spans = []

    # -- wrapping --------------------------------------------------------------

    def install(self):
        """Wrap every layer function on every gametree module that binds it."""
        by_id = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"gametree.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    by_id[id(fn)] = (fn, self._wrapper(fn, layer, name))
        for modname, module in list(sys.modules.items()):
            if modname != "gametree" and not modname.startswith("gametree."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, layer: str, name: str):
        stack, clock, keep = self._stack, time.perf_counter, name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = Span(layer, name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.call = (args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._op_start = len(self.spans)

    def end_op(self):
        """Read the counters of the op's calls and drop the references."""
        for span in self.spans[self._op_start:]:
            if span.call is not None:
                span.info = _counters(span.name, *span.call)
                span.call = None
        self.op = -1

    def write(self, path: str, header: dict):
        """Write the spans of the first traced pass as JSON lines after a
        header line; each span is a list in the order of
        ``header["fields"]``, and ``parent`` is the index of its caller's
        span."""
        fields = ["id", "op", "parent", "layer", "name", "start", "end", "scale",
                  "info"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for k, s in enumerate(self.first):
                fh.write(json.dumps([k, s.op, s.parent, s.layer, s.name,
                                     s.start, s.end, s.scale, s.info]) + "\n")


def _counters(name: str, args, kwargs, result) -> Optional[dict]:
    if name == "parse_game":
        return {"nodes": result.num_nodes}
    if name == "parse_profile":
        support = 0
        for comp in result.components:
            size = 1
            for mix in comp.strategies:
                size *= len(mix)
            support += size
        return {"support": support}
    if name == "gap":
        return {"notion": args[2] if len(args) > 2 else kwargs["notion"]}
    if name == "trigger_constraints":
        nonzero = [tc.row for tc in result if any(c != 0 for c in tc.row)]
        return {"rows": len(result), "nonzero": len(nonzero),
                "unique": len(set(nonzero))}
    if name == "lp_solve":
        lp = args[0] if args else kwargs["lp"]
        return {"rows": len(lp.constraints), "cols": lp.num_vars,
                "nonzeros": sum(1 for con in lp.constraints
                                for c in con.coeffs.values() if c != 0),
                "objective": any(c != 0 for c in lp.objective.values())}
    return None


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (``trace.overhead_frac`` excluded)."""
    self_times = _self_times(spans)
    m = {name: 0 for name in METRICS if name != "trace.overhead_frac"}
    from_rewrite = {"conditional_reach": 0, "best_response": 0}
    unique_rows = 0
    for k, s in enumerate(spans):
        if s.layer in ("metrics", "convert", "equilibrium", "cli"):
            m[f"{s.layer}.self_s"] += self_times[k]
        calls = f"{s.layer}.{s.name}.calls"
        if calls in m:
            m[calls] += 1
        seconds = f"{s.layer}.{s.name}.s"
        if seconds in m:
            m[seconds] += s.duration
        up = spans[s.parent] if s.parent >= 0 else None
        if up is not None and up.name == "efce_to_bce" and s.name in from_rewrite:
            from_rewrite[s.name] += 1
        if up is not None and up.layer == "equilibrium" and s.name in ("gap", "efce_to_bce"):
            m["equilibrium.reverify.s"] += s.duration
        info = s.info
        if info is None:  # not a counted call, or it raised
            continue
        if s.name == "parse_game":
            m["game.nodes"] += info["nodes"]
        elif s.name == "parse_profile":
            m["strategy.support"] += info["support"]
        elif s.name == "gap":
            m[f"metrics.gap.s.{info['notion']}"] += s.duration
        elif s.name == "trigger_constraints":
            m["equilibrium.trigger_rows"] += info["rows"]
            m["equilibrium.trigger_rows_nonzero"] += info["nonzero"]
            unique_rows += info["unique"]
        elif s.name == "lp_solve":
            kind = "optimal" if info["objective"] else "feasible"
            m[f"lp.lp_solve.s.{kind}"] += s.duration
            m["lp.rows"] += info["rows"]
            m["lp.cols"] += info["cols"]
            m["lp.nonzeros"] += info["nonzeros"]
            if up is not None and up.layer == "equilibrium":
                m["equilibrium.profiles"] += info["cols"]
    rewrites = m["convert.efce_to_bce.calls"]
    m["convert.reach_calls_per_rewrite"] = _ratio(from_rewrite["conditional_reach"], rewrites)
    m["convert.cbr_yield"] = _ratio(from_rewrite["best_response"],
                                    from_rewrite["conditional_reach"])
    m["equilibrium.trigger_rows_unique_frac"] = _ratio(
        unique_rows, m["equilibrium.trigger_rows_nonzero"])
    return m


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's share of the self time of all spans."""
    shares: dict[str, float] = {}
    for s, self_time in zip(spans, _self_times(spans)):
        shares[s.layer] = shares.get(s.layer, 0.0) + self_time
    total = sum(shares.values()) or 1.0
    return {layer: t / total for layer, t in sorted(shares.items())}

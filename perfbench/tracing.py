"""Spans around the package's public callables, recorded from outside.

``Tracer.installed()`` replaces the module attributes the workloads reach
(and two class attributes) with wrappers that record one span per call:
(id, parent id, name, start ns, end ns).  ``Stream.next_u64`` is a leaf
called about 10^5 times per large instance, so its calls are folded into
a (calls, ns) pair on the enclosing span instead of being stored one by one.
A layer's self time is its spans' durations minus the time their child
spans and leaf calls cover.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from gbcsp import analytics, backtracker, generator, harness, model, rng, uc

LAYERS = ("rng", "generator", "model", "backtracker", "uc", "analytics", "harness")

# (owner, attribute, span name); owners that import a name get their own entry.
TARGETS = (
    (harness, "run_sweep", "harness.run_sweep"),
    (harness, "run_point", "harness.run_point"),
    (harness, "summarize_point", "harness.summarize_point"),
    (harness, "sample_instance", "generator.sample_instance"),
    (harness, "solve_all", "backtracker.solve_all"),
    (harness, "run_uc", "uc.run_uc"),
    (generator, "sample_instance", "generator.sample_instance"),
    (backtracker, "solve_all", "backtracker.solve_all"),
    (uc, "run_uc", "uc.run_uc"),
    (uc, "reduce_after_assignment", "uc.reduce_after_assignment"),
    (uc, "is_consistent", "model.is_consistent"),
    (model, "is_consistent", "model.is_consistent"),
    (model.ConstraintSpec, "__init__", "model.ConstraintSpec"),
    (analytics, "predict", "analytics.predict"),
    (analytics, "log_exact_expected_nodes", "analytics.log_exact_expected_nodes"),
    (analytics, "rate_argmax", "analytics.rate_argmax"),
)

# What to keep of a span's return value.
SUMMARIES = {
    "backtracker.solve_all": lambda s: (s.nodes, max(s.level_counts)),
    "uc.run_uc": lambda o: o.found,
    "analytics.predict": lambda p: p.regime,
}


class Tracer:
    def __init__(self, measure_alloc: bool = False):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.leaf: dict[int, list[int]] = {}
        self.results: dict[int, object] = {}
        self.alloc_peak: list[int] = []
        self.measure_alloc = measure_alloc
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn):
        """``fn`` recording one span per call."""
        clock, stack, spans = time.perf_counter_ns, self._stack, self.spans
        summary = SUMMARIES.get(name)
        alloc = self.measure_alloc and name == "backtracker.solve_all"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if alloc:
                self.alloc_peak.append(tracemalloc.get_traced_memory()[1] - base)
            if summary is not None:
                self.results[sid] = summary(result)
            return result

        return traced

    def _wrap_leaf(self, fn):
        clock, stack, leaf = time.perf_counter_ns, self._stack, self.leaf

        def next_u64(stream):
            start = clock()
            value = fn(stream)
            elapsed = clock() - start
            acc = leaf.get(stack[-1])
            if acc is None:
                leaf[stack[-1]] = [1, elapsed]
            else:
                acc[0] += 1
                acc[1] += elapsed
            return value

        return next_u64

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        originals.append((rng.Stream, "next_u64", rng.Stream.next_u64))
        if self.measure_alloc:
            tracemalloc.start()
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            rng.Stream.next_u64 = self._wrap_leaf(rng.Stream.next_u64)
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            if self.measure_alloc:
                tracemalloc.stop()

    # --- reductions -----------------------------------------------------------

    def by_name(self, name):
        return [s for s in self.spans if s[2] == name]

    def mean_us(self, name) -> float:
        spans = self.by_name(name)
        return sum(e - s for _, _, _, s, e in spans) / len(spans) / 1e3 if spans else 0.0

    def self_ns(self) -> dict[int, int]:
        covered = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        for sid, (_, ns) in self.leaf.items():
            covered[sid] += ns
        return {sid: end - start - covered[sid] for sid, _, _, start, end in self.spans}

    def leaf_totals(self) -> tuple[int, int]:
        calls = sum(c for c, _ in self.leaf.values())
        return calls, sum(ns for _, ns in self.leaf.values())

    def write_jsonl(self, path) -> None:
        origin = min((s[3] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start_ns": start - origin, "end_ns": end - origin}
                if sid in self.leaf:
                    rec["rng_words"], rec["rng_ns"] = self.leaf[sid]
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(timed: Tracer, reference: Tracer, reference_items: int,
              timed_items: int, timed_wall_ns: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: timings from ``timed``, exact counts from ``reference``
    (a traced pass over fixed inputs, with tracemalloc around ``solve_all``)."""
    m: dict[str, tuple[float, str]] = {}

    m["rng.words_per_item"] = (_ratio(reference.leaf_totals()[0], reference_items), "count")
    calls, ns = timed.leaf_totals()
    m["rng.ns_per_word"] = (_ratio(ns, calls), "ns")

    m["generator.sample_instance_us"] = (timed.mean_us("generator.sample_instance"), "us")
    m["model.constraint_init_us"] = (timed.mean_us("model.ConstraintSpec"), "us")
    m["model.is_consistent_us"] = (timed.mean_us("model.is_consistent"), "us")

    solves = timed.by_name("backtracker.solve_all")
    m["backtracker.solve_all_us"] = (timed.mean_us("backtracker.solve_all"), "us")
    m["backtracker.nodes_per_s"] = (_ratio(sum(timed.results[s[0]][0] for s in solves),
                                           sum(e - s for _, _, _, s, e in solves) / 1e9), "1/s")
    ref_solves = [reference.results[s[0]] for s in reference.by_name("backtracker.solve_all")]
    m["backtracker.nodes_per_item"] = (_ratio(sum(nodes for nodes, _ in ref_solves), reference_items), "count")
    m["backtracker.peak_level_rows"] = (max((rows for _, rows in ref_solves), default=0), "count")
    m["backtracker.alloc_peak_mb"] = (max(reference.alloc_peak, default=0) / 2**20, "MB")

    m["uc.run_uc_us"] = (timed.mean_us("uc.run_uc"), "us")
    runs = [reference.results[s[0]] for s in reference.by_name("uc.run_uc")]
    m["uc.rounds_per_run"] = (_ratio(len(reference.by_name("uc.reduce_after_assignment")), len(runs)), "count")
    m["uc.found_fraction"] = (_ratio(sum(runs), len(runs)), "ratio")

    m["analytics.predict_us"] = (timed.mean_us("analytics.predict"), "us")
    m["analytics.log_exact_expected_nodes_us"] = (timed.mean_us("analytics.log_exact_expected_nodes"), "us")
    supercritical = {s[0] for s in reference.by_name("analytics.predict")
                     if reference.results[s[0]] == "supercritical"}
    argmax_inside = sum(1 for s in reference.by_name("analytics.rate_argmax") if s[1] in supercritical)
    m["analytics.rate_argmax_calls_per_predict"] = (_ratio(argmax_inside, len(supercritical)), "count")

    self_ns = timed.self_ns()
    run_point_self = sum(self_ns[s[0]] for s in timed.by_name("harness.run_point"))
    m["harness.run_point_self_us"] = (_ratio(run_point_self, timed_items) / 1e3, "us")
    m["harness.summarize_point_us"] = (timed.mean_us("harness.summarize_point"), "us")

    layer_ns = dict.fromkeys(LAYERS, 0)
    layer_ns["rng"] = timed.leaf_totals()[1]
    for sid, _, name, _, _ in timed.spans:
        layer = name.split(".")[0]
        if layer in layer_ns:
            layer_ns[layer] += self_ns[sid]
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(layer_ns[layer], timed_wall_ns), "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    return m

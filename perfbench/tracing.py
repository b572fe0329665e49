"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces public layer functions with wrappers at their
module (or class) attribute, so calls made through that attribute - by the
pipeline or by other layers - are recorded. Nothing inside the package
changes; ``uninstall()`` puts the originals back.

A span is (name, start, end, parent index, scenario id). Spans stay in
memory until the caller writes them out. Hot leaf functions are counted, not
spanned, to keep the overhead low.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from scenarioforge import (compgen, evalkit, interpreter, netgen, pipeline,
                           simcore)

# (owner, attribute, span name); names are prefixed by the layer (module)
SPANS = (
    (pipeline, "run_batch", "pipeline.run_batch"),
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "interpret", "interpreter.interpret"),
    (interpreter.LoggingProvider, "complete", "interpreter.logged_complete"),
    (interpreter.MockProvider, "complete", "interpreter.provider_complete"),
    (netgen, "compile_network", "netgen.compile_network"),
    (netgen, "ingest_osm", "netgen.ingest_osm"),
    (netgen, "build_network_blueprint", "netgen.build_network_blueprint"),
    (netgen, "parse_sumo_xml", "netgen.parse_sumo_xml"),
    (netgen, "validate_network", "netgen.validate_network"),
    (netgen, "derive_connections", "netgen.derive_connections"),
    (netgen, "serialize_sumo_xml", "netgen.serialize_sumo_xml"),
    (netgen, "network_stats", "netgen.network_stats"),
    (compgen, "generate_agents", "compgen.generate_agents"),
    (compgen, "generate_objects", "compgen.generate_objects"),
    (simcore, "run", "simcore.run"),
    (simcore, "build_world", "simcore.build_world"),
    (simcore, "step", "simcore.step"),
    (simcore, "detect_collisions", "simcore.detect_collisions"),
    (simcore, "export_trace", "simcore.export_trace"),
    (simcore.SimulationTrace, "hash", "simcore.trace_hash"),
    (evalkit, "objective_distance", "evalkit.objective_distance"),
    (evalkit, "performance", "evalkit.performance"),
    (evalkit, "classify_bundle", "evalkit.classify_bundle"),
    (evalkit, "conformity", "evalkit.conformity"),
    (evalkit, "diversity_from_bundles", "evalkit.diversity_from_bundles"),
)

# (owner, attribute, counter name): called too often to span
COUNTERS = (
    (netgen, "lane_centerline", "netgen.lane_centerline"),
    (netgen, "point_along", "netgen.point_along"),
    (simcore, "obb_overlap", "simcore.obb_overlap"),
)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, scenario)
        self.counts: Counter = Counter()
        self._stack: list = []
        self._scenario = None
        self._saved: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(name,
                                                        getattr(owner, attr)))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._count_wrapper(name,
                                                         getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        is_scenario = name == "pipeline.run_pipeline"
        is_step = name == "simcore.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            outer_scenario = self._scenario
            if is_scenario:
                self._scenario = scenario_id(kwargs.get("run_id"),
                                             kwargs.get("seed"))
            elif is_step:
                counts["simcore.agent_steps"] += sum(
                    1 for v in args[0].vehicles.values() if v.active)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._scenario)
                self._scenario = outer_scenario
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def scenario_id(run_id, seed) -> str:
    """The run directory name ``run_pipeline`` uses: <run_id>-<seed>."""
    return f"{run_id}-{seed}"


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def by_name(spans) -> dict:
    """name -> {calls, total_s, self_s}."""
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
    for (name, start, end, _, _), s in zip(spans, selfs):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += s
    return dict(out)


def batch_overheads(spans) -> list[float]:
    """Per run_batch span: its wall minus the wall of its run_pipeline
    children (bundle re-parse, conformity, diversity, aggregate write)."""
    inner = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if name == "pipeline.run_pipeline" and parent is not None:
            inner[parent] += end - start
    return [end - start - inner[i]
            for i, (name, start, end, _, _) in enumerate(spans)
            if name == "pipeline.run_batch"]

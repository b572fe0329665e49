"""The traced run: per-layer metrics, the agent-count sweep, and the tracing
overhead.

1. An untraced pass runs repetitions for half the time budget.
2. A traced pass runs the same repetitions with the tracer installed; the
   difference of the two passes' wall time is the tracing overhead.
3. The sweep reruns the dense_highway input at 4/8/16/32 cars, traced.
4. Closed-loop workloads finish with one small traced ``run_batch`` (the
   probe), so batch aggregation is measured in every regime.

The spans of all three traced phases are written to one JSON file.
"""
from __future__ import annotations

import json
import os
import statistics

import tracing
import workloads

SWEEP_CARS = (4, 8, 16, 32)
PROBE_INPUTS = 2          # closed-loop inputs in the batch probe
LAYERS = ("pipeline", "interpreter", "netgen", "compgen", "simcore", "evalkit")


def _traced(tracer: tracing.Tracer, fn):
    mark = len(tracer.spans)
    with tracer:
        result = fn()
    return result, tracer.spans[mark:]


def run(runner, seconds: float, min_reps: int, seed: int, spans_out,
        import_s: float) -> dict:
    wl = runner.wl
    untraced = runner.loop(seconds / 2, min_reps)

    main = tracing.Tracer()
    unstaged = []

    traced = []
    for i in range(len(untraced)):
        rep, spans = _traced(main, lambda: runner.repetition(i))
        runner.record(i, rep)
        traced.append(rep)
        # pair each scenario's span with its manifest's stage times
        for name, start, end, _, scenario in spans:
            if name == "pipeline.run_pipeline":
                unstaged.append(end - start - rep["runs"][scenario]["stage_s"])

    metrics = layer_metrics(main, unstaged)
    metrics["setup.import_s"] = import_s
    untraced_wall = sum(r["wall"] for r in untraced)
    traced_wall = sum(r["wall"] for r in traced)
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics["pipeline.files_written"] = statistics.median(
        r["files"] for r in traced)
    metrics["pipeline.bytes_written"] = statistics.median(
        r["bytes"] for r in traced)

    sweep = tracing.Tracer()
    for n_cars in SWEEP_CARS:
        source, scenario_seed = workloads.sweep_input(seed, n_cars)
        rep, spans = _traced(sweep, lambda: runner.repetition(
            9000 + n_cars, source, scenario_seed))
        runner.check_only(rep)
        for span, key in (("simcore.step", "step_ms"),
                          ("simcore.detect_collisions",
                           "detect_collisions_ms")):
            times = [end - start for name, start, end, _, _ in spans
                     if name == span]
            metrics[f"simcore.{key}.n{n_cars}"] = \
                1000 * statistics.fmean(times)

    if wl.batch:
        batch_tracer = main
    else:
        batch_tracer = tracing.Tracer()
        sources = [source for source, _ in wl.inputs[:PROBE_INPUTS]]
        rep, _ = _traced(batch_tracer, lambda: runner.repetition(
            0, batch_inputs=sources))
        runner.check_only(rep)
    metrics.update(batch_metrics(batch_tracer))

    if spans_out:
        write_spans(spans_out, wl.name, seed,
                    {"main": main, "sweep": sweep, "probe": batch_tracer})

    scenarios = sum(1 for span in main.spans
                    if span[0] == "pipeline.run_pipeline")
    return {
        "metrics": metrics,
        "self_times": tracing.by_name(main.spans),
        "layer_self_s": layer_self(main.spans, scenarios),
        "untraced": runner.summarize(untraced),
        "traced": runner.summarize(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }


def layer_metrics(tr: tracing.Tracer, unstaged: list) -> dict:
    rows = tracing.by_name(tr.spans)

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    scen = calls("pipeline.run_pipeline")
    steps = calls("simcore.step")
    agent_steps = tr.counts["simcore.agent_steps"]
    networks = calls("netgen.compile_network") + calls("netgen.ingest_osm")
    per = {
        "pipeline.scenario_s": "pipeline.run_pipeline",
        "simcore.step_s": "simcore.step",
        "simcore.detect_collisions_s": "simcore.detect_collisions",
        "simcore.export_trace_s": "simcore.export_trace",
        "simcore.trace_hash_s": "simcore.trace_hash",
        "simcore.build_world_s": "simcore.build_world",
        "netgen.derive_connections_s": "netgen.derive_connections",
        "netgen.serialize_s": "netgen.serialize_sumo_xml",
        "netgen.network_stats_s": "netgen.network_stats",
        "compgen.generate_agents_s": "compgen.generate_agents",
        "compgen.generate_objects_s": "compgen.generate_objects",
        "interpreter.busy_s": "interpreter.interpret",
        "evalkit.performance_s": "evalkit.performance",
    }
    m = {key: total(name) / scen for key, name in per.items()}
    m.update({
        "simcore.step_us_per_agent_step":
            1e6 * total("simcore.step") / agent_steps,
        "simcore.obb_tests_per_step": tr.counts["simcore.obb_overlap"] / steps,
        "simcore.agent_steps": agent_steps / scen,
        "netgen.lane_centerline_calls":
            tr.counts["netgen.lane_centerline"] / agent_steps,
        "netgen.point_along_calls":
            tr.counts["netgen.point_along"] / agent_steps,
        "netgen.compile_s": (total("netgen.compile_network")
                             + total("netgen.ingest_osm")) / scen,
        "netgen.validate_calls_per_network":
            calls("netgen.validate_network") / networks,
        "netgen.network_stats_calls_per_scenario":
            calls("netgen.network_stats") / scen,
        "interpreter.provider_calls_per_scenario":
            calls("interpreter.provider_complete") / scen,
        "evalkit.objective_distance_self_s":
            rows.get("evalkit.objective_distance", {}).get("self_s", 0.0)
            / scen,
        "pipeline.unstaged_s": statistics.fmean(unstaged),
    })
    return m


def batch_metrics(tr: tracing.Tracer) -> dict:
    rows = tracing.by_name(tr.spans)
    batches = rows["pipeline.run_batch"]["calls"]
    aggregate = sum(rows.get(name, {}).get("total_s", 0.0)
                    for name in ("evalkit.conformity",
                                 "evalkit.diversity_from_bundles"))
    return {"evalkit.aggregate_s": aggregate / batches,
            "pipeline.batch_overhead_s":
                statistics.median(tracing.batch_overheads(tr.spans))}


def layer_self(spans, scenarios: int) -> dict:
    """Self seconds per scenario, summed by layer (the span-name prefix)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), s in zip(spans, tracing.self_times(spans)):
        out[name.split(".")[0]] += s
    return {k: v / scenarios for k, v in out.items()}


def write_spans(path: str, workload: str, seed: int, phases: dict) -> None:
    doc = {"workload": workload, "seed": seed,
           "fields": ["name", "start", "end", "parent", "scenario"],
           "phases": {k: {"spans": t.spans, "counts": dict(t.counts)}
                      for k, t in phases.items()}}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))

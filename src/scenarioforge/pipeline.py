"""Pipeline orchestration: interpret -> netgen -> compgen -> simulate -> eval.

run_stages is the one stage chain. It runs in memory, keeps what each stage
produced and records per-stage status in pipeline order, so a failure pins
the taxonomy class of the stage that died. run_pipeline (also for run_batch
and ablate) writes that record to <output_dir>/runs/<run_id>-<seed>/, each
artifact listed in the manifest, prompts.jsonl included. run_comparison and
forge place, netgen compile and netgen osm run parts of it, in memory only.
"""
from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import shutil
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

from . import compgen, evalkit, ir, netgen, simcore
from .interpreter import (ABLATION_ROWS, HttpProvider, LoggingProvider,
                          MockProvider, UnparseableAfterRetries,
                          default_knowledge_base, interpret, strip_knowledge)

STAGES = ("interpret", "netgen", "compgen", "simulate", "evaluate")
BEHAVIOR_MODEL = "parametric car-following substitute"


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    provider_kind: str = "mock"          # mock | http
    provider_endpoint: Optional[str] = None
    provider_model: Optional[str] = None
    provider_fault: Optional[str] = None  # fault injection for the mock
    min_gap: float = 4.0
    max_agents: int = 32
    duration: float = 30.0
    dt: float = 0.1
    output_dir: str = "out"
    global_seed: int = 0
    variations: int = 10                 # scenarios per input
    workers: int = 1
    osm_cache_dir: str = "osm-cache"
    osm_fixture: Optional[str] = None    # path to a cached OSM extract

    def __post_init__(self):
        if self.provider_kind not in ("mock", "http"):
            raise ConfigError(f"unknown provider kind: {self.provider_kind!r}")
        # a bool is an int subclass, but not a count, seed or length
        counts = (self.variations, self.workers, self.max_agents)
        if any(type(v) is not int for v in (*counts, self.global_seed)) \
                or min(counts) < 1:
            raise ConfigError("variations, workers and max_agents must be "
                              "integers >= 1, and global_seed an integer")
        lengths = (self.min_gap, self.duration, self.dt)
        # false for NaN, and exact for an int of any size
        if not all(type(v) in (int, float) and 0 < v <= sys.float_info.max
                   for v in lengths) or self.dt > 0.5:
            raise ConfigError("min_gap, duration and dt must be finite and "
                              f"> 0, dt at most 0.5; got {lengths}")
        simcore.check_steps(self.duration, self.dt, ConfigError)


def load_config(path: Optional[str] = None, **overrides) -> PipelineConfig:
    """Config from a JSON document plus environment credential overrides."""
    data = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        data.pop("format", None)
    data.update(overrides)
    try:
        cfg = PipelineConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc))
    cfg.provider_endpoint = os.environ.get("SCENARIOFORGE_ENDPOINT",
                                           cfg.provider_endpoint)
    cfg.provider_model = os.environ.get("SCENARIOFORGE_MODEL",
                                        cfg.provider_model)
    return cfg


def make_provider(cfg: PipelineConfig):
    if cfg.provider_kind == "http":
        return HttpProvider(endpoint=cfg.provider_endpoint,
                            model=cfg.provider_model)
    return MockProvider(fault=cfg.provider_fault)


@dataclass
class RunManifest:
    run_id: str
    seed: int
    stages: dict = field(default_factory=dict)     # stage run -> ok|error:kind
    artifacts: dict = field(default_factory=dict)  # name -> path
    timing: dict = field(default_factory=dict)     # stage -> seconds
    failure: Optional[str] = None                  # taxonomy kind
    # what the stages produced: in memory only, not serialized
    description: Optional[ir.ScenarioDescription] = field(default=None,
                                                          repr=False)
    network: Optional[netgen.RoadNetwork] = field(default=None, repr=False)
    bundle: Optional[ir.ScenarioBundle] = field(default=None, repr=False)
    trace: Optional[simcore.SimulationTrace] = field(default=None, repr=False)
    report: Optional[dict] = field(default=None, repr=False)  # report.json
    # what stopped the chain: a message, as a traceback would hold this record
    error: Optional[str] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.stages.values())

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "seed": self.seed,
                "stages": {s: self.stages.get(s, "skipped") for s in STAGES},
                "artifacts": self.artifacts, "timing": self.timing,
                "failure": self.failure}


def classify_failure(exc: Exception) -> str:
    if isinstance(exc, UnparseableAfterRetries):
        # classified by its last rejection; an answer that never became a
        # description is a provider failure
        exc = exc.last_error
        if not isinstance(exc, (ir.BlueprintReuse,
                                netgen.NetworkValidationError)):
            return "RuntimeError"
    if isinstance(exc, ir.BlueprintReuse):
        return "BlueprintReuse"
    if isinstance(exc, netgen.NetworkValidationError):
        kinds = {e.kind for e in exc.errors}
        if "MalformedKeyword" in kinds:
            return "MalformedKeyword"
        return "ValidationError"
    if isinstance(exc, ir.DescriptionError):
        return "ValidationError"
    return "RuntimeError"


def _bundle_to_dict(bundle: ir.ScenarioBundle) -> dict:
    """The placement: the one part of a bundle no other artifact holds."""
    return {"seed": bundle.seed,
            "agents": [dataclasses.asdict(a) for a in bundle.agents],
            "objects": [dataclasses.asdict(o) for o in bundle.objects]}


def _write(path: str, content) -> None:
    """Write content, a text or a function that writes to the open file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if callable(content):
            content(fh)
        else:
            fh.write(content)


def _build_network(rec: RunManifest, source, cfg: PipelineConfig, kb,
                   provider) -> netgen.RoadNetwork:
    if not isinstance(source, ir.GpsBoundingBox):
        return netgen.compile_network(rec.description.road, kb, provider,
                                      seed=rec.seed)
    if not cfg.osm_fixture:
        return netgen.ingest_osm(
            source, netgen.fetch_osm_extract(source, cfg.osm_cache_dir))
    with open(cfg.osm_fixture, encoding="utf-8") as fh:
        return netgen.ingest_osm(source, fh.read())


def _av_performance(bundle: ir.ScenarioBundle, trace: simcore.SimulationTrace
                    ) -> evalkit.PerformanceReport:
    """The AV's performance over the route planned from its start edge."""
    net = bundle.network
    av = next(a for a in bundle.agents if a.role == "AV")
    route = simcore.plan_route(net, av.edge_id)
    return evalkit.performance(trace, simcore.route_length(net, route),
                               max(e.speed for e in net.edges), av_id=av.id)


def _evaluate(bundle: ir.ScenarioBundle, trace: simcore.SimulationTrace
              ) -> dict:
    """report.json: AV performance and distance from the description."""
    perf = _av_performance(bundle, trace)
    dist = evalkit.objective_distance(bundle.description, bundle,
                                      evalkit.HashingEmbedder())
    return {
        "behavior_model": BEHAVIOR_MODEL,
        "objective_distance": round(dist, 6),
        "performance": dataclasses.asdict(perf),
        "scene_class": evalkit.classify_bundle(bundle),
        "trace_hash": trace.hash(),
        "collisions": len(trace.collisions),
    }


def run_stages(rec: RunManifest, source: Optional[ir.MultimodalInput],
               cfg: PipelineConfig, kb: ir.PromptKnowledgeBase, provider,
               stages=STAGES, place=None) -> RunManifest:
    """The one stage chain, in memory: run `stages`, a contiguous part of
    STAGES, keeping what each produces in rec. The first stage that raises
    records its taxonomy kind and message, and no later stage runs. place(desc,
    net, constraints) places the agents (default compgen.generate_agents)."""
    for stage in stages:
        t0 = time.monotonic()
        try:
            if stage == "interpret":
                rec.description = interpret(source, kb, provider, rec.seed)
            elif stage == "netgen":
                rec.network = _build_network(rec, source, cfg, kb, provider)
            elif stage == "compgen":
                desc, net = rec.description, rec.network
                constraints = compgen.PlacementConstraints(
                    min_gap=cfg.min_gap, max_agents=cfg.max_agents,
                    seed=rec.seed)
                agents = (place or compgen.generate_agents)(desc, net,
                                                            constraints)
                objects = compgen.generate_objects(desc, net, constraints)
                rec.bundle = ir.ScenarioBundle(
                    description=desc, network=net, agents=tuple(agents),
                    objects=tuple(objects), seed=rec.seed)
            elif stage == "simulate":
                rec.trace = simcore.run(rec.bundle, cfg.duration, cfg.dt)
            else:
                rec.report = _evaluate(rec.bundle, rec.trace)
        except Exception as exc:
            rec.failure = classify_failure(exc)
            rec.error = str(exc)
            rec.stages[stage] = f"error:{rec.failure}"
            return rec
        rec.timing[stage] = round(time.monotonic() - t0, 4)
        rec.stages[stage] = "ok"
    return rec


def run_pipeline(source: ir.MultimodalInput, cfg: PipelineConfig,
                 seed: Optional[int] = None, run_id: Optional[str] = None,
                 kb: Optional[ir.PromptKnowledgeBase] = None) -> RunManifest:
    """One end-to-end run. Artifacts land in <output_dir>/runs/<run_id>-<seed>;
    a directory an earlier run with the same id and seed left is removed."""
    seed = cfg.global_seed if seed is None else seed
    if run_id is None:
        # the random suffix keeps runs started in the same second apart
        run_id = (time.strftime("%Y%m%dT%H%M%S", time.gmtime())
                  + f"-{uuid.uuid4().hex[:8]}")
    if os.path.basename(run_id) != run_id:
        raise ConfigError(f"run_id must not contain a path: {run_id!r}")
    # first, so a provider that cannot start leaves an earlier run as it was
    provider = LoggingProvider(make_provider(cfg))
    run_dir = os.path.join(cfg.output_dir, "runs", f"{run_id}-{seed}")
    # a reused run id replaces the earlier run wholesale; what could not be
    # removed makes makedirs fail rather than mix into the new run
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    rec = run_stages(RunManifest(run_id=run_id, seed=seed), source, cfg,
                     kb or default_knowledge_base(), provider)

    def put(name: str, filename: str, content) -> None:
        """The one way a file enters the run directory: listed as written."""
        path = os.path.join(run_dir, filename)
        _write(path, content)
        rec.artifacts[name] = path

    if rec.description is not None:
        put("description", "description.json",
            ir.serialize_description(rec.description))
    if rec.network is not None:
        xml_nodes, xml_edges = netgen.serialize_sumo_xml(rec.network)
        put("network_nodes", "network.nod.xml", xml_nodes)
        put("network_edges", "network.edg.xml", xml_edges)
    if rec.bundle is not None:
        put("bundle", "bundle.json",
            ir.canonical_json(_bundle_to_dict(rec.bundle)))
    if rec.trace is not None:
        put("trace", "trace.jsonl",
            functools.partial(simcore.export_trace, rec.trace))
    if rec.report is not None:
        put("report", "report.json", ir.canonical_json(rec.report))
    put("prompts", "prompts.jsonl",
        "".join(json.dumps(x, sort_keys=True) + "\n"
                for x in provider.exchanges))
    # last, so its mtime marks the end of the run
    _write(os.path.join(run_dir, "manifest.json"),
           ir.canonical_json(rec.to_dict()))
    # of what the stages produced, only the bundle stays in the returned
    # record; the trace and the report are on disk
    return dataclasses.replace(rec, description=None, network=None,
                               trace=None, report=None)


def run_batch(inputs, cfg: PipelineConfig) -> dict:
    """Diversify each input into cfg.variations seeded runs and aggregate
    conformity + diversity over the whole batch. Partial failures are
    recorded and the batch continues. The batch replaces an earlier batch
    in cfg.output_dir wholesale: its batch-* run directories go first."""
    if not inputs:
        raise ConfigError("batch needs >= 1 input")
    # first, so a provider that cannot start leaves an earlier batch as it was
    make_provider(cfg)
    runs_dir = glob.escape(os.path.join(cfg.output_dir, "runs"))
    for stale in glob.glob(os.path.join(runs_dir, "batch-*")):
        shutil.rmtree(stale)
    # of each run the batch keeps its outcome and, when it made a bundle,
    # its scenario_row; the bundle goes before the next run starts
    outcomes, rows = [], []
    for i, source in enumerate(inputs):
        for v in range(cfg.variations):
            seed = cfg.global_seed + i * 1000 + v
            run_id = f"batch-i{i:03d}-v{v:02d}"
            m = run_pipeline(source, cfg, seed=seed, run_id=run_id)
            outcomes.append({"ok": m.ok, "failure": m.failure})
            if m.bundle is not None:
                rows.append(evalkit.scenario_row(m.bundle))

    conf = evalkit.conformity(rows, outcomes)
    aggregate = {
        "behavior_model": BEHAVIOR_MODEL,
        "runs": len(outcomes),
        "ok": sum(1 for o in outcomes if o["ok"]),
        "conformity": dataclasses.asdict(conf),
    }
    if rows:
        table = evalkit.diversity(rows)
        aggregate["diversity"] = {k: list(v) for k, v in table.items()}
        aggregate["diversity_table"] = evalkit.format_diversity_table(table)
    _write(os.path.join(cfg.output_dir, "aggregate.json"),
           ir.canonical_json(aggregate))
    return aggregate


_ABLATION_FIXTURES = (
    "two cars on a straight road, one cuts in",
    "construction zone lane closure with cones",
    "busy intersection left turn conflict",
)


def ablate(cfg: PipelineConfig) -> dict:
    """Success-rate table after removing named prompt components."""
    kb_full = default_knowledge_base()
    rates = {}
    for row in ABLATION_ROWS:
        kb = strip_knowledge(kb_full, row)
        sub = dataclasses.replace(
            cfg, variations=1,
            output_dir=os.path.join(cfg.output_dir, "ablate",
                                    row.replace(" ", "_")))
        ok = 0
        for i, text in enumerate(_ABLATION_FIXTURES):
            m = run_pipeline(ir.TextRequest(text), sub,
                             seed=cfg.global_seed + i,
                             run_id=f"ablate-{i:02d}", kb=kb)
            ok += 1 if m.ok else 0
        rates[row] = ok / len(_ABLATION_FIXTURES)
    result = {"rows": list(ABLATION_ROWS), "success_rate": rates}
    _write(os.path.join(cfg.output_dir, "ablation.json"),
           ir.canonical_json(result))
    return result


def format_ablation(result: dict) -> str:
    width = max(len(r) for r in result["rows"]) + 2
    lines = [f"{'Metrics'.ljust(width)}Success rate"]
    for row in result["rows"]:
        lines.append(f"{row.ljust(width)}{result['success_rate'][row]:.2f}")
    return "\n".join(lines)


_COMPARISON_FIXTURES = (
    "two cars on a curved road, one cuts in ahead",
    "busy intersection left turn conflict with three vehicles",
    "construction zone lane closure with cones and two cars",
    "highway merge with a truck and two cars",
    "straight road at night, lead vehicle rear-end risk",
)


def run_comparison(cfg: PipelineConfig, n_networks: int = 5,
                   n_inits: int = 5) -> dict:
    """A/B harness: guided placement vs the RandomTrip-style baseline on the
    same networks, n_networks x n_inits runs per arm. Each network is built
    once; each init runs the later stages once per arm, with that arm's
    placement, and evaluates only the AV's performance. A failed network or
    placement is a failed run of its arm, counted by taxonomy kind; the
    scores cover the completed runs."""
    if n_networks < 1 or n_inits < 1:
        raise ConfigError(f"compare needs >= 1 network and init, got "
                          f"{n_networks} and {n_inits}")
    kb = default_knowledge_base()
    provider = make_provider(cfg)
    arms = {"ours": None,
            "baseline": lambda desc, net, c: compgen.random_trip_placement(
                net, len(desc.agents), seed=c.seed)}
    runs = {arm: [] for arm in arms}
    for ni in range(n_networks):
        text = _COMPARISON_FIXTURES[ni % len(_COMPARISON_FIXTURES)]
        built = run_stages(RunManifest(run_id=f"compare-n{ni}", seed=ni),
                           ir.TextRequest(text), cfg, kb, provider,
                           stages=STAGES[:2])
        for vi in range(n_inits):
            for arm, place in arms.items():
                # each run records its own stages on a copy of the network's
                rec = dataclasses.replace(
                    built, seed=cfg.global_seed + ni * 100 + vi,
                    stages=dict(built.stages), timing=dict(built.timing))
                if rec.failure is None:
                    run_stages(rec, None, cfg, kb, provider,
                               stages=STAGES[2:4], place=place)
                runs[arm].append(rec.failure or
                                 _av_performance(rec.bundle, rec.trace))
    report = evalkit.compare_pipelines(runs["ours"], runs["baseline"])
    out = {arm: {row: [mean] if std is None else [mean, std]
                 for row, (mean, std) in report[arm].items()} for arm in arms}
    out.update(rows=report["rows"], failures=report["failures"],
               table=evalkit.format_comparison(report))
    _write(os.path.join(cfg.output_dir, "comparison.json"),
           ir.canonical_json(out))
    return report

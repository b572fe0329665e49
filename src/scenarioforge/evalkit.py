"""Scenario-set evaluation: conformity, diversity, embedding similarity,
AV-performance scoring and pipeline comparison."""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

from . import compgen, simcore
from .ir import (VRU_KINDS, AgentDescription, ObjectDescription,
                 RoadDescription, RoadSegment, ScenarioBundle,
                 ScenarioDescription, fold_sum, serialize_description)

FAILURE_KINDS = ("MalformedKeyword", "BlueprintReuse", "ValidationError",
                 "RuntimeError")

# driving-score decomposition constants (the source metric definition is
# not public, so these are an interpretation)
SCORE_WEIGHTS = (0.4, 0.3, 0.3)     # safety, efficiency, comfort
TTC_REF = 4.0                       # s
JERK_REF = 2.0                      # m/s^3

TABLE5_ROWS = ("Route completion", "Driving score", "Total score",
               "Use Time", "Success rate", "Collision rate")


class ZeroVector(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class AVNotFound(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingVector:
    components: tuple[float, ...]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(float(c) for c in self.components))
        if len(self.components) != self.dimension:
            raise DimensionMismatch(
                f"{len(self.components)} components, dimension {self.dimension}")
        if any(not math.isfinite(c) for c in self.components):
            raise ValueError("non-finite embedding component")


class HashingEmbedder:
    """Offline deterministic embedder: token-hash counts, L2-normalized."""

    def __init__(self, dimension: int = 512):
        self.dimension = dimension

    def embed(self, text: str) -> EmbeddingVector:
        counts = [0.0] * self.dimension
        for tok in re.findall(r"[a-z0-9_.]+", text.lower()):
            idx = int.from_bytes(hashlib.sha256(tok.encode()).digest()[:8],
                                 "big") % self.dimension
            counts[idx] += 1.0
        norm = math.sqrt(fold_sum(c * c for c in counts))
        if norm > 0:
            counts = [c / norm for c in counts]
        return EmbeddingVector(tuple(counts), self.dimension)


def cosine_similarity(u: EmbeddingVector, v: EmbeddingVector) -> float:
    if u.dimension != v.dimension:
        raise DimensionMismatch(f"{u.dimension} vs {v.dimension}")
    nu = math.sqrt(fold_sum(c * c for c in u.components))
    nv = math.sqrt(fold_sum(c * c for c in v.components))
    if nu == 0 or nv == 0:
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    dot = fold_sum(a * b for a, b in zip(u.components, v.components))
    return max(-1.0, min(1.0, dot / (nu * nv)))


# ---------------------------------------------------------------------------
# bundle -> description (f applied to the generated scenario)

def classify_bundle(bundle: ScenarioBundle) -> str:
    """Scene class from the realized scenario, not its source description."""
    if any(o.kind == "Cone" for o in bundle.objects):
        return "ConstructionZone"
    neighbors = bundle.network.lane_graph.neighbors
    if any(len(v) >= 4 for v in neighbors.values()):
        return "Intersection"
    return "General"


def describe_bundle(bundle: ScenarioBundle) -> ScenarioDescription:
    """Re-derive a scenario description from a generated bundle."""
    net = bundle.network
    stats = net.stats
    scene = classify_bundle(bundle)
    layout_map = {"ConstructionZone": "Straight",
                  "Intersection": "CrossIntersection", "General": "Straight"}
    lanes_fwd = max(1, round(stats.total_lanes / max(stats.total_edges, 1)))
    speed = max((e.speed for e in net.edges), default=13.89)
    road = RoadDescription(
        layout=layout_map[scene],
        segments=(RoadSegment(length=max(stats.route_length, 1.0),
                              lanes_forward=lanes_fwd, lanes_backward=0,
                              speed_limit=speed),))

    agents = tuple(
        AgentDescription(kind=a.kind,
                         role=a.role,
                         intent="cruise",
                         approx_speed=round(a.speed, 2),
                         color=a.color)
        for a in bundle.agents)
    counts: dict[str, int] = {}
    for o in bundle.objects:
        counts[o.kind] = counts.get(o.kind, 0) + 1
    objects = tuple(ObjectDescription(kind=k, count=n)
                    for k, n in sorted(counts.items()))
    return ScenarioDescription(road=road, objects=objects, agents=agents,
                               weather=bundle.description.weather,
                               narrative="generated scenario", scene_type=scene)


def objective_distance(description: ScenarioDescription,
                       bundle: ScenarioBundle, embedder,
                       describer=None) -> float:
    """1 - cosine similarity between the request text and the text of the
    scenario actually generated from it."""
    describer = describer or describe_bundle
    u = embedder.embed(serialize_description(description))
    v = embedder.embed(serialize_description(describer(bundle)))
    return 1.0 - cosine_similarity(u, v)


# ---------------------------------------------------------------------------
# conformity

@dataclass(frozen=True)
class ConformityReport:
    scene_type_acc: float
    vehicle_attr_acc: float
    static_obj_attr_acc: float
    success_rate: float
    failure_taxonomy_counts: dict = field(default_factory=dict)


def _vehicle_attr_acc(desc: ScenarioDescription, bundle: ScenarioBundle
                      ) -> float:
    desc_agents = [a for a in desc.agents if a.kind not in VRU_KINDS]
    bundle_agents = [a for a in bundle.agents if a.kind not in VRU_KINDS]
    if not desc_agents and not bundle_agents:
        return 1.0
    pool: list = list(bundle_agents)
    matched = 0
    for a in desc_agents:
        hit = None
        for i, b in enumerate(pool):
            if b is None or a.kind != b.kind:
                continue
            if a.color is None or b.color is None or a.color == b.color:
                hit = i
                break
        if hit is None:
            for i, b in enumerate(pool):
                if b is not None and a.kind == b.kind:
                    hit = i
                    break
        if hit is not None:
            pool[hit] = None
            matched += 1
    return matched / max(len(desc_agents), len(bundle_agents))


def _static_attr_acc(desc: ScenarioDescription, bundle: ScenarioBundle
                     ) -> float:
    want: dict[str, int] = {}
    for o in desc.objects:
        want[o.kind] = want.get(o.kind, 0) + o.count
    have: dict[str, int] = {}
    for o in bundle.objects:
        have[o.kind] = have.get(o.kind, 0) + 1
    kinds = set(want) | set(have)
    if not kinds:
        return 1.0
    scores = []
    for k in kinds:
        a, b = want.get(k, 0), have.get(k, 0)
        scores.append(min(a, b) / max(a, b) if max(a, b) else 1.0)
    return fold_sum(scores) / len(scores)


def scenario_row(bundle: ScenarioBundle) -> dict:
    """What a batch keeps of one run: diversity's scenario dict plus the
    conformity inputs, scored against the bundle's own description."""
    desc, stats = bundle.description, bundle.network.stats
    return {"lanes": stats.total_lanes, "edges": stats.total_edges,
            "route_length": stats.route_length, "agents": bundle.agents,
            "objects": len(bundle.objects),
            "scene_hit": 1.0 if classify_bundle(bundle) == desc.scene_type
            else 0.0,
            "vehicle_attr_acc": _vehicle_attr_acc(desc, bundle),
            "static_attr_acc": _static_attr_acc(desc, bundle)}


def conformity(rows, outcomes=None) -> ConformityReport:
    """Conformity over a batch.

    rows: the scenario_row of each run that produced a bundle. outcomes: one
    record per run, {"ok": True} or {"ok": False, "failure": <taxonomy
    kind>}; defaults to all-ok over the rows.
    """
    if outcomes is None:
        outcomes = [{"ok": True}] * len(rows)
    taxonomy = {k: 0 for k in FAILURE_KINDS}
    ok = 0
    for rec in outcomes:
        if rec.get("ok"):
            ok += 1
        else:
            kind = rec.get("failure", "RuntimeError")
            taxonomy[kind if kind in taxonomy else "RuntimeError"] += 1

    def avg(vals):
        return fold_sum(vals) / len(vals) if vals else 1.0

    return ConformityReport(
        scene_type_acc=avg([r["scene_hit"] for r in rows]),
        vehicle_attr_acc=avg([r["vehicle_attr_acc"] for r in rows]),
        static_obj_attr_acc=avg([r["static_attr_acc"] for r in rows]),
        success_rate=ok / len(outcomes) if outcomes else 1.0,
        failure_taxonomy_counts=taxonomy)


# ---------------------------------------------------------------------------
# diversity

def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation: (0, 0) for no values, and a
    standard deviation of 0 for one."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        return 0.0, 0.0
    mean = fold_sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = fold_sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var)


def format_pm(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {std:.2f}"


DIVERSITY_METRICS = ("#Lanes", "#Edges", "Route Length", "#Agents",
                     "#Objects", "Shortest", "Vehicle yaw")


def diversity(scenarios) -> dict:
    """Mean/std table across a scenario set.

    scenarios: list of dicts with keys lanes, edges, route_length, agents
    (AgentState sequence), objects (count). Returns metric -> (mean, std).
    "Shortest" is over the scenarios with two or more agents; "Vehicle yaw"
    pools the headings of every non-VRU agent of every scenario.
    """
    if not scenarios:
        raise ValueError("need >= 1 scenario")
    placed = [s["agents"] for s in scenarios]
    return {
        "#Lanes": _mean_std([s["lanes"] for s in scenarios]),
        "#Edges": _mean_std([s["edges"] for s in scenarios]),
        "Route Length": _mean_std([s["route_length"] for s in scenarios]),
        "#Agents": _mean_std([len(sc) for sc in placed]),
        "#Objects": _mean_std([s["objects"] for s in scenarios]),
        "Shortest": _mean_std([compgen.min_pair_distance(sc) for sc in placed
                               if len(sc) >= 2]),
        "Vehicle yaw": _mean_std([a.heading for sc in placed for a in sc
                                  if a.kind not in VRU_KINDS]),
    }


def diversity_from_bundles(bundles) -> dict:
    return diversity([scenario_row(b) for b in bundles])


def format_diversity_table(table: dict) -> str:
    width = max(len(k) for k in table) + 2
    lines = [f"{'Metric'.ljust(width)}Value"]
    for k in DIVERSITY_METRICS:
        if k in table:
            lines.append(f"{k.ljust(width)}{format_pm(*table[k])}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# AV performance

@dataclass(frozen=True)
class PerformanceReport:
    route_completion: float
    driving_score: float
    total_score: float
    use_time: float
    success: bool
    collision: bool


def _ttc_ahead(av, states, start) -> float:
    """Smallest time to contact of av with an agent ahead in its lane, among
    one step's (id, x, y, speed, heading) states; start gives the lengths."""
    best = math.inf
    av_id, av_x, av_y, av_speed, av_heading = av
    rad = math.radians(av_heading)
    fx, fy = math.cos(rad), math.sin(rad)
    for other_id, x, y, speed, _ in states:
        if other_id == av_id:
            continue
        dx, dy = x - av_x, y - av_y
        ahead = dx * fx + dy * fy
        lateral = abs(-dx * fy + dy * fx)
        if ahead <= 0 or lateral > 2.0:
            continue
        gap = ahead - (start[av_id].length + start[other_id].length) / 2.0
        closing = av_speed - speed
        if gap > 0 and closing > 0:
            best = min(best, gap / closing)
    return best


def performance(trace: simcore.SimulationTrace, route_len: float,
                speed_limit: float, av_id: str) -> PerformanceReport:
    """Driving score (safety/efficiency/comfort mix), route completion,
    and their product as total score, of the agent av_id.

    One pass over the steps derives the AV's distance (speed * dt summed),
    the first step that completes the route, its accel (speed change per dt
    from its start speed), jerk (accel change per dt) and time to contact. A
    step the AV is absent from, once it has left the network, counts as speed
    0.0; the mean speed covers the steps it is present in."""
    if av_id not in trace.start:
        raise AVNotFound(f"trace contains no agent {av_id!r}")
    dt = trace.dt
    speeds, jerks = [], []
    distance, done_at, min_ttc = 0.0, None, math.inf
    prev_speed, prev_accel = trace.start[av_id].speed, None
    for k, states in enumerate(trace.states()):
        av = next((a for a in states if a[0] == av_id), None)
        v = 0.0
        if av is not None:
            v = av[3]
            speeds.append(v)
            min_ttc = min(min_ttc, _ttc_ahead(av, states, trace.start))
        distance += v * dt
        if done_at is None and distance >= route_len - 1e-9:
            done_at = k + 1
        accel = (v - prev_speed) / dt
        if prev_accel is not None:
            jerks.append((accel - prev_accel) / dt)
        prev_speed, prev_accel = v, accel

    route_completion = max(0.0, min(1.0, distance / route_len)) \
        if route_len > 0 else 0.0

    safety = 1.0 if math.isinf(min_ttc) else min(1.0, min_ttc / TTC_REF)
    mean_speed = fold_sum(speeds) / len(speeds) if speeds else 0.0
    efficiency = min(1.0, mean_speed / speed_limit) if speed_limit > 0 else 0.0

    mean_jerk = fold_sum(abs(j) for j in jerks) / len(jerks) if jerks else 0.0
    comfort = 1.0 - min(1.0, mean_jerk / JERK_REF)

    w_s, w_e, w_c = SCORE_WEIGHTS
    driving_score = 100.0 * (w_s * safety + w_e * efficiency + w_c * comfort)
    total_score = driving_score * route_completion

    collision = any(av_id in (c.agent_a, c.agent_b)
                    for c in trace.collisions)
    completed = route_len > 0 and distance >= route_len - 1e-9
    # the first step at which the route was done; an empty trace has none
    use_time = (done_at if completed and done_at is not None
                else len(trace.steps)) * dt
    return PerformanceReport(route_completion=route_completion,
                             driving_score=driving_score,
                             total_score=total_score, use_time=use_time,
                             success=completed and not collision,
                             collision=collision)


# ---------------------------------------------------------------------------
# pipeline comparison (six-row side-by-side table)

def compare_pipelines(ours: list, baseline: list) -> dict:
    """Per-metric mean/std for both arms plus collision rates.

    An arm lists one entry per run: the PerformanceReport of a completed
    run, or the failure taxonomy kind of a failed one. The score rows cover
    the completed runs only, so the arms may differ in size; an arm with no
    completed run reads 0 on every row. "failures" counts the failed runs of
    each arm by kind."""
    def column(arm):
        runs = [r for r in arm if isinstance(r, PerformanceReport)]
        return {
            "Route completion": _mean_std([r.route_completion for r in runs]),
            "Driving score": _mean_std([r.driving_score for r in runs]),
            "Total score": _mean_std([r.total_score for r in runs]),
            "Use Time": _mean_std([r.use_time for r in runs]),
            "Success rate": _mean_std([1.0 if r.success else 0.0
                                       for r in runs]),
            "Collision rate": (sum(1 for r in runs if r.collision)
                               / max(len(runs), 1), None),
        }
    arms = {"ours": ours, "baseline": baseline}
    return {"rows": list(TABLE5_ROWS),
            **{name: column(arm) for name, arm in arms.items()},
            "failures": {name: {k: arm.count(k) for k in FAILURE_KINDS}
                         for name, arm in arms.items()}}


def format_comparison(report: dict) -> str:
    """The six-row table, plus a row of failed-run counts when a run
    failed."""
    width = max(len(r) for r in report["rows"]) + 2
    lines = [f"{'Scenario'.ljust(width)}{'Ours'.ljust(18)}RandomTrip"]
    for row in report["rows"]:
        cells = []
        for arm in ("ours", "baseline"):
            mean, std = report[arm][row]
            cells.append(f"{mean:.2f}" if std is None
                         else format_pm(mean, std))
        lines.append(f"{row.ljust(width)}{cells[0].ljust(18)}{cells[1]}")
    failed = [sum(report["failures"][arm].values())
              for arm in ("ours", "baseline")]
    if any(failed):
        lines.append(f"{'Failed runs'.ljust(width)}"
                     f"{str(failed[0]).ljust(18)}{failed[1]}")
    return "\n".join(lines)

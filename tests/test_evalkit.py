import functools
import itertools
import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from scenarioforge import compgen, evalkit, ir, netgen, simcore
from scenarioforge.evalkit import (DimensionMismatch, EmbeddingVector,
                                   HashingEmbedder, ZeroVector,
                                   cosine_similarity)

from oracles import (conformity_pairs, diversity_from_bundles_reference,
                     hand_trace)


def vec(*components):
    return EmbeddingVector(tuple(components), len(components))


def make_desc(agents=(), objects=(), scene_type="General",
              layout="Straight"):
    return ir.ScenarioDescription(
        road=ir.RoadDescription(
            layout=layout, segments=(ir.RoadSegment(100.0, 2, 0, 13.89),)),
        objects=tuple(objects), agents=tuple(agents),
        weather=ir.WeatherDescription(), scene_type=scene_type)


def agent_state(idx, kind="Car", role="BV", x=0.0, y=0.0, heading=0.0,
                speed=0.0, color=None):
    length, width = compgen.VEHICLE_DIMS[kind]
    return compgen.AgentState(
        id=f"a{idx}", kind=kind, role=role, edge_id="e", lane_index=0,
        s=x, speed=speed, heading=heading, x=x, y=y, length=length,
        width=width, color=color)


def cone_at(x):
    return compgen.PlacedObject(kind="Cone", x=x, y=0.0, yaw=0.0,
                                footprint=(0.4, 0.4))


def make_bundle(desc, agents, objects=(), layout="Straight"):
    net = netgen.build_network_blueprint(ir.RoadDescription(
        layout=layout, segments=(ir.RoadSegment(100.0, 2, 0, 13.89),)))
    return ir.ScenarioBundle(description=desc, network=net,
                             agents=tuple(agents), objects=tuple(objects))


# ---------------------------------------------------------------------------
# embeddings and cosine similarity

def test_cosine_identities():
    assert cosine_similarity(vec(1, 0), vec(1, 0)) == pytest.approx(1.0)
    assert cosine_similarity(vec(1, 0), vec(0, 1)) == pytest.approx(0.0)
    assert cosine_similarity(vec(1, 0), vec(-1, 0)) == pytest.approx(-1.0)
    assert cosine_similarity(vec(1, 0), vec(1, 1)) == pytest.approx(
        0.7071067811865475, abs=1e-9)


def test_cosine_scale_invariance():
    a, b = vec(0.3, -1.2, 4.0), vec(2.0, 0.5, -0.1)
    assert cosine_similarity(a, b) == pytest.approx(
        cosine_similarity(vec(*[3 * c for c in a.components]), b), abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        cosine_similarity(vec(0, 0), vec(1, 0))


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(vec(1, 0), vec(1, 0, 0))


def test_embedding_vector_validation():
    with pytest.raises(DimensionMismatch):
        EmbeddingVector((1.0, 2.0), 3)
    with pytest.raises(ValueError):
        EmbeddingVector((float("nan"),), 1)


def test_hashing_embedder_properties():
    emb = HashingEmbedder()
    v = emb.embed("a red car cuts in on the highway")
    assert v.dimension == 512
    norm = math.sqrt(sum(c * c for c in v.components))
    assert norm == pytest.approx(1.0)
    assert emb.embed("a red car cuts in on the highway") == v
    # token order does not matter for a bag-of-words embedding
    assert cosine_similarity(v, emb.embed(
        "highway the on in cuts car red a")) == pytest.approx(1.0)


def test_hashing_embedder_numpy_cross_check():
    import numpy as np
    emb = HashingEmbedder(64)
    u = np.array(emb.embed("two cars near a construction zone").components)
    w = np.array(emb.embed("a lone cyclist in the rain").components)
    expected = float(u @ w / (np.linalg.norm(u) * np.linalg.norm(w)))
    got = cosine_similarity(emb.embed("two cars near a construction zone"),
                            emb.embed("a lone cyclist in the rain"))
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# objective distance and scene classification

def test_objective_distance_identity_describer_is_zero():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),))
    bundle = make_bundle(desc, [agent_state(0, role="AV")])
    d = evalkit.objective_distance(desc, bundle, HashingEmbedder(),
                                   describer=lambda b: desc)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_objective_distance_in_unit_range():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),))
    bundle = make_bundle(desc, [agent_state(0, role="AV")])
    d = evalkit.objective_distance(desc, bundle, HashingEmbedder())
    assert 0.0 <= d <= 2.0
    assert d < 1.0  # derived description shares most of the vocabulary


def test_classify_bundle():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),))
    plain = make_bundle(desc, [agent_state(0, role="AV")])
    assert evalkit.classify_bundle(plain) == "General"
    with_cones = make_bundle(desc, [agent_state(0, role="AV")],
                             objects=[cone_at(10.0)])
    assert evalkit.classify_bundle(with_cones) == "ConstructionZone"
    crossing = make_bundle(desc, [agent_state(0, role="AV")],
                           layout="CrossIntersection")
    assert evalkit.classify_bundle(crossing) == "Intersection"


# ---------------------------------------------------------------------------
# conformity

def test_vehicle_attrs_exact_match():
    colors = ("red", "white", "black")
    desc = make_desc(agents=tuple(
        ir.AgentDescription("Car", "AV" if i == 0 else "BV", color=c)
        for i, c in enumerate(colors)))
    bundle = make_bundle(desc, [
        agent_state(i, role="AV" if i == 0 else "BV", x=i * 10.0, color=c)
        for i, c in enumerate(colors)])
    report = evalkit.conformity([evalkit.scenario_row(bundle)])
    assert report.vehicle_attr_acc == pytest.approx(1.0)
    assert report.scene_type_acc == pytest.approx(1.0)


def test_vehicle_attrs_count_mismatch():
    desc = make_desc(agents=tuple(
        ir.AgentDescription("Car", "AV" if i == 0 else "BV")
        for i in range(3)))
    bundle = make_bundle(desc, [agent_state(0, role="AV"),
                                agent_state(1, x=10.0)])
    report = evalkit.conformity([evalkit.scenario_row(bundle)])
    assert report.vehicle_attr_acc == pytest.approx(2.0 / 3.0)


def test_static_objects_partial_count():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),),
                     objects=(ir.ObjectDescription("Cone", 5),))
    bundle = make_bundle(desc, [agent_state(0, role="AV")],
                         objects=[cone_at(float(i)) for i in range(4)])
    report = evalkit.conformity([evalkit.scenario_row(bundle)])
    assert report.static_obj_attr_acc == pytest.approx(0.8)


def test_conformity_success_rate_and_taxonomy():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),))
    bundle = make_bundle(desc, [agent_state(0, role="AV")])
    outcomes = [{"ok": True}] * 8 + \
        [{"ok": False, "failure": "MalformedKeyword"}] * 2
    report = evalkit.conformity([evalkit.scenario_row(bundle)] * 8,
                                outcomes)
    assert report.success_rate == pytest.approx(0.8)
    assert report.failure_taxonomy_counts["MalformedKeyword"] == 2
    assert report.failure_taxonomy_counts["RuntimeError"] == 0


def test_conformity_scene_mismatch_counted():
    desc = make_desc(agents=(ir.AgentDescription("Car", "AV"),),
                     scene_type="Intersection")
    bundle = make_bundle(desc, [agent_state(0, role="AV")])  # straight net
    report = evalkit.conformity([evalkit.scenario_row(bundle)])
    assert report.scene_type_acc == 0.0


# ---------------------------------------------------------------------------
# diversity table

def scenario_dict(n_agents, lanes=4, edges=2, route=100.0, objects=0):
    agents = [agent_state(i, x=i * 10.0, heading=float(i)) for i in
              range(n_agents)]
    return {"lanes": lanes, "edges": edges, "route_length": route,
            "agents": agents, "objects": objects}


def test_diversity_mean_std_oracle():
    table = evalkit.diversity([scenario_dict(3), scenario_dict(6),
                               scenario_dict(9)])
    assert table["#Agents"][0] == pytest.approx(6.0)
    assert table["#Agents"][1] == pytest.approx(3.0)
    assert table["#Agents"][1] == pytest.approx(statistics.stdev([3, 6, 9]))
    assert table["#Lanes"] == (4.0, 0.0)


def test_diversity_two_pass_oracle():
    rows = [scenario_dict(n, lanes=n * 2, route=50.0 * n) for n in
            (2, 3, 5, 7)]
    table = evalkit.diversity(rows)
    for key, values in (("#Lanes", [4, 6, 10, 14]),
                        ("Route Length", [100.0, 150.0, 250.0, 350.0])):
        assert table[key][0] == pytest.approx(statistics.fmean(values),
                                              abs=1e-9)
        assert table[key][1] == pytest.approx(statistics.stdev(values),
                                              abs=1e-9)


def placed_row(agents):
    return {"lanes": 2, "edges": 1, "route_length": 100.0, "agents": agents,
            "objects": 0}


def test_diversity_of_one_scenario():
    table = evalkit.diversity([placed_row([agent_state(0, x=0.0),
                                           agent_state(1, x=5.0)])])
    assert table["#Agents"] == (2.0, 0.0)
    assert table["Shortest"] == pytest.approx((5.0, 0.0))


def test_diversity_counts_every_agent():
    rows = [placed_row([agent_state(i, x=i * 10.0) for i in range(n - 1)]
                       + [agent_state(n, kind="Pedestrian", role="VRU",
                                      x=-10.0)])
            for n in (3, 6, 9)]
    table = evalkit.diversity(rows)
    assert table["#Agents"][0] == pytest.approx(6.0)
    assert table["#Agents"][1] == pytest.approx(statistics.stdev([3, 6, 9]))
    assert table["#Agents"][1] == pytest.approx(3.0)


def test_diversity_yaw_pools_vehicles_only():
    table = evalkit.diversity([placed_row([
        agent_state(0, x=0.0, heading=90.0),
        agent_state(1, x=10.0, heading=-90.0),
        agent_state(2, kind="Pedestrian", role="VRU", x=20.0,
                    heading=45.0)])])
    mean, std = table["Vehicle yaw"]
    assert mean == pytest.approx(0.0)
    assert std == pytest.approx(statistics.stdev([90.0, -90.0]))
    assert std == pytest.approx(127.27922061357856)


def test_diversity_sample_std_matches_statistics_module():
    rng = random.Random(4)
    scenarios = [[agent_state(i, x=rng.uniform(0, 100), y=rng.uniform(0, 100),
                              heading=rng.uniform(-179, 180))
                  for i in range(n)] for n in (2, 3, 4, 5)]
    table = evalkit.diversity([placed_row(sc) for sc in scenarios])
    yaws = [a.heading for sc in scenarios for a in sc]
    assert table["Vehicle yaw"][0] == pytest.approx(statistics.fmean(yaws))
    assert table["Vehicle yaw"][1] == pytest.approx(statistics.stdev(yaws))
    shortest = [min(math.dist((a.x, a.y), (b.x, b.y))
                    for a, b in itertools.combinations(sc, 2))
                for sc in scenarios]
    assert table["Shortest"][0] == pytest.approx(statistics.fmean(shortest))
    assert table["Shortest"][1] == pytest.approx(statistics.stdev(shortest))


def test_diversity_shortest_skips_scenarios_with_one_agent():
    table = evalkit.diversity([
        placed_row([agent_state(0, x=0.0), agent_state(1, x=5.0)]),
        placed_row([agent_state(0, x=0.0)]),
        placed_row([agent_state(0, x=0.0), agent_state(1, y=9.0)])])
    assert table["Shortest"] == pytest.approx(
        (7.0, statistics.stdev([5.0, 9.0])))
    assert table["#Agents"][0] == pytest.approx(5 / 3)


def test_diversity_requires_scenarios():
    with pytest.raises(ValueError):
        evalkit.diversity([])


def test_single_scenario_has_zero_std():
    table = evalkit.diversity([scenario_dict(4)])
    for key, (mean, std) in table.items():
        if key == "Vehicle yaw":
            continue  # yaw pools individual agents, not scenarios
        assert std == 0.0


def test_format_diversity_table():
    text = evalkit.format_diversity_table(
        evalkit.diversity([scenario_dict(3), scenario_dict(5)]))
    for row in evalkit.DIVERSITY_METRICS:
        assert row in text
    assert "±" in text


# ---------------------------------------------------------------------------
# the batch fold: one scenario_row per run equals the fold over bundles

@functools.cache
def layout_network(layout):
    return netgen.build_network_blueprint(ir.RoadDescription(
        layout=layout, segments=(ir.RoadSegment(100.0, 2, 0, 13.89),)))


def _role(kind, first):
    return "VRU" if kind in ir.VRU_KINDS else ("AV" if first else "BV")


VEHICLES = st.sampled_from(("Car", "Truck", "Bus", "Motorcycle"))
COLORS = st.sampled_from((None, "red", "white"))


@st.composite
def batch_runs(draw):
    """One run of a batch: its outcome and the bundle it made, or None when
    it failed before placement. A failed run may still have a bundle (a
    later stage died); runs have one agent or several, VRUs and cones."""
    failure = draw(st.sampled_from((None,) + evalkit.FAILURE_KINDS))
    outcome = ({"ok": True} if failure is None
               else {"ok": False, "failure": failure})
    if failure is not None and draw(st.booleans()):
        return outcome, None
    agent_kinds = st.lists(st.sampled_from(ir.AGENT_KINDS), max_size=3)
    desc_kinds = [draw(VEHICLES)] + draw(agent_kinds)
    desc = make_desc(
        agents=tuple(ir.AgentDescription(k, _role(k, i == 0),
                                         color=draw(COLORS))
                     for i, k in enumerate(desc_kinds)),
        objects=tuple(ir.ObjectDescription(k, n) for k, n in draw(
            st.dictionaries(st.sampled_from(("Cone", "Barrier")),
                            st.integers(1, 4))).items()),
        scene_type=draw(st.sampled_from(ir.SCENE_TYPES)))
    placed_kinds = [draw(VEHICLES)] + draw(agent_kinds)
    agents = [agent_state(i, kind=k, role=_role(k, i == 0), x=i * 7.0,
                          heading=draw(st.sampled_from((0.0, 90.0, -45.0))),
                          color=draw(COLORS))
              for i, k in enumerate(placed_kinds)]
    objects = [compgen.PlacedObject(kind=draw(st.sampled_from(
        ("Cone", "Barrier"))), x=float(i), y=0.0, yaw=0.0,
        footprint=(0.4, 0.4)) for i in range(draw(st.integers(0, 4)))]
    layout = draw(st.sampled_from(("Straight", "CrossIntersection", "Merge")))
    return outcome, ir.ScenarioBundle(
        description=desc, network=layout_network(layout),
        agents=tuple(agents), objects=tuple(objects))


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(batch_runs(), min_size=1, max_size=6))
def test_row_fold_equals_bundle_fold(runs):
    outcomes = [outcome for outcome, _ in runs]
    bundles = [b for _, b in runs if b is not None]
    rows = [evalkit.scenario_row(b) for b in bundles]
    assert repr(evalkit.conformity(rows, outcomes)) == repr(
        conformity_pairs([(b.description, b) for b in bundles], outcomes))
    if bundles:
        reference = repr(diversity_from_bundles_reference(bundles))
        assert repr(evalkit.diversity(rows)) == reference
        assert repr(evalkit.diversity_from_bundles(bundles)) == reference


# ---------------------------------------------------------------------------
# AV performance

def constant_speed_trace(n_steps, speed=10.0, dt=0.1, role="AV",
                         collide_with=None, empty_after=0):
    """a0 at a constant speed for n_steps steps, then empty_after steps
    without it."""
    steps = [[agent_state(0, role=role, x=k * speed * dt, speed=speed)]
             for k in range(n_steps)]
    collisions = [simcore.CollisionEvent(5, "a0", collide_with, 0.2)] \
        if collide_with else []
    return hand_trace(steps + [[]] * empty_after,
                      {"a0": agent_state(0, role=role, speed=speed)}, dt,
                      collisions).trace


def test_route_completion_fraction():
    trace = constant_speed_trace(43)  # 43 m travelled
    report = evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                                 av_id="a0")
    assert report.route_completion == pytest.approx(0.43)
    assert report.success is False
    # perfect safety/efficiency/comfort here
    assert report.driving_score == pytest.approx(100.0)
    assert report.total_score == pytest.approx(43.0)
    # incomplete route: use time covers the whole run
    assert report.use_time == pytest.approx(4.3)


def test_total_score_is_product():
    trace = constant_speed_trace(60, speed=7.0)
    report = evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                                 av_id="a0")
    assert report.total_score == pytest.approx(
        report.driving_score * report.route_completion)
    assert round(65.24 * 0.86, 2) == 56.11  # score composition arithmetic


def test_completed_route_use_time():
    trace = constant_speed_trace(200)  # 200 m at 10 m/s, route is 100 m
    report = evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                                 av_id="a0")
    assert report.route_completion == pytest.approx(1.0)
    assert report.success is True
    assert report.use_time == pytest.approx(10.0)


def test_av_that_left_counts_zero_speed():
    # 3 steps at 10 m/s, then gone: 3 m driven, and the drop to 0.0 m/s is
    # an accel of -100 m/s^2, so jerks 0, 0, -1000, 1000 average 500
    trace = constant_speed_trace(3, empty_after=2)
    report = evalkit.performance(trace, route_len=3.0, speed_limit=10.0,
                                 av_id="a0")
    assert report.route_completion == 1.0
    assert report.use_time == pytest.approx(0.3)
    # safety 1 and efficiency over the steps present 1; comfort 0
    assert report.driving_score == pytest.approx(70.0)


def test_collision_blocks_success():
    trace = constant_speed_trace(200, collide_with="other")
    report = evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                                 av_id="a0")
    assert report.collision is True
    assert report.success is False


def test_av_required():
    trace = constant_speed_trace(10, role="BV")
    with pytest.raises(evalkit.AVNotFound):
        evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                            av_id="missing")
    # an agent is in the trace when it has a start state
    trace.start = {}
    with pytest.raises(evalkit.AVNotFound):
        evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                            av_id="a0")


def test_safety_term_from_min_ttc():
    av = agent_state(0, role="AV", x=0.0, speed=10.0)
    # stopped leader 10.75 m ahead: bumper gap 6.25 m, TTC 0.625 s
    leader = compgen.AgentState(
        id="lead", kind="Car", role="BV", edge_id="e", lane_index=0,
        s=10.75, speed=0.0, heading=0.0, x=10.75, y=0.0, length=4.5,
        width=1.8)
    trace = hand_trace([[av, leader]], {"a0": av, "lead": leader}).trace
    report = evalkit.performance(trace, route_len=100.0, speed_limit=10.0,
                                 av_id="a0")
    # safety = min(1, 0.625/4) -> 0.15625; efficiency 1; comfort 1
    expected = 100.0 * (0.4 * 0.15625 + 0.3 * 1.0 + 0.3 * 1.0)
    assert report.driving_score == pytest.approx(expected)


# ---------------------------------------------------------------------------
# pipeline comparison

def perf(completion=1.0, score=80.0, time=10.0, success=True,
         collision=False):
    return evalkit.PerformanceReport(
        route_completion=completion, driving_score=score,
        total_score=score * completion, use_time=time, success=success,
        collision=collision)


def test_compare_pipelines_rows_and_rates():
    ours = [perf(collision=(i == 0)) for i in range(5)]
    base = [perf(success=False, collision=True) for _ in range(5)]
    report = evalkit.compare_pipelines(ours, base)
    assert report["rows"] == list(evalkit.TABLE5_ROWS)
    assert report["ours"]["Collision rate"] == (0.2, None)
    assert report["baseline"]["Collision rate"] == (1.0, None)
    assert report["ours"]["Success rate"][0] == pytest.approx(1.0)
    assert report["baseline"]["Success rate"][0] == pytest.approx(0.0)


def test_compare_pipelines_drops_failed_runs():
    # unequal numbers of completed runs; the baseline completed none
    report = evalkit.compare_pipelines(
        [perf(score=60.0), "RuntimeError", perf(score=80.0)],
        ["MalformedKeyword", "RuntimeError", "RuntimeError"])
    assert report["ours"]["Driving score"] == \
        pytest.approx((70.0, math.sqrt(200.0)))
    assert report["ours"]["Collision rate"] == (0.0, None)
    assert report["baseline"] == {
        row: (0.0, None) if row == "Collision rate" else (0.0, 0.0)
        for row in evalkit.TABLE5_ROWS}
    assert report["failures"] == {
        "ours": {"MalformedKeyword": 0, "BlueprintReuse": 0,
                 "ValidationError": 0, "RuntimeError": 1},
        "baseline": {"MalformedKeyword": 1, "BlueprintReuse": 0,
                     "ValidationError": 0, "RuntimeError": 2}}
    assert evalkit.format_comparison(report).splitlines()[-1].split() == \
        ["Failed", "runs", "1", "3"]


def test_format_comparison_table():
    text = evalkit.format_comparison(
        evalkit.compare_pipelines([perf()] * 3, [perf()] * 3))
    assert "Ours" in text and "RandomTrip" in text
    for row in evalkit.TABLE5_ROWS:
        assert row in text
    # no run failed: the six rows alone
    assert "Failed runs" not in text

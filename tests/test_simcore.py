import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import scenarioforge
from scenarioforge import compgen, ir, netgen, pipeline, simcore

from oracles import (all_pairs_collisions, export_trace_json, follower_scan,
                     leader_gap_scan, quads_overlap_oracle)


def straight_net(length=2000.0, fwd=1, speed=13.89):
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(length, fwd, 0, speed),))
    return netgen.build_network_blueprint(road)


def place(net, edge_id, lane_index, s, agent_id, kind="Car", role="BV",
          speed=0.0):
    edge = net.lane_graph.edges[edge_id]
    line = netgen.lane_centerline(net, edge, lane_index)
    x, y, heading = netgen.point_along(line, s)
    length, width = compgen.VEHICLE_DIMS[kind]
    return compgen.AgentState(
        id=agent_id, kind=kind, role=role, edge_id=edge_id,
        lane_index=lane_index, s=s, speed=speed, heading=heading,
        x=x, y=y, length=length, width=width)


def make_bundle(net, agents, objects=()):
    desc = ir.ScenarioDescription(
        road=ir.RoadDescription(
            layout="Straight", segments=(ir.RoadSegment(100.0, 1, 0, 13.89),)),
        objects=(), agents=(), weather=ir.WeatherDescription())
    return ir.ScenarioBundle(description=desc, network=net,
                             agents=tuple(agents), objects=tuple(objects),
                             weather=desc.weather)


# ---------------------------------------------------------------------------
# IDM law

def test_idm_free_road_from_standstill():
    p = simcore.BehaviorParams()
    assert simcore.idm_accel(p, 0.0, math.inf, 0.0) == pytest.approx(
        p.max_accel)


def test_idm_at_desired_speed_free_road():
    p = simcore.BehaviorParams()
    assert simcore.idm_accel(p, p.desired_speed, math.inf, 0.0) == \
        pytest.approx(0.0)


def test_idm_standstill_equilibrium_at_min_gap():
    p = simcore.BehaviorParams()
    # stationary at exactly the jam gap: no net acceleration
    assert simcore.idm_accel(p, 0.0, p.min_gap, 0.0) == pytest.approx(0.0)
    # inside the jam gap: pushed backwards
    assert simcore.idm_accel(p, 0.0, p.min_gap / 2.0, 0.0) < 0.0


def test_idm_interaction_term_scales_inverse_square():
    p = simcore.BehaviorParams()
    v = 10.0
    s_star = p.min_gap + v * p.time_headway  # zero closing speed
    free = simcore.idm_accel(p, v, math.inf, 0.0)
    at_10x = simcore.idm_accel(p, v, 10.0 * s_star, 0.0)
    # (s*/gap)^2 = 1/100 exactly
    assert free - at_10x == pytest.approx(p.max_accel / 100.0)
    at_1x = simcore.idm_accel(p, v, s_star, 0.0)
    assert free - at_1x == pytest.approx(p.max_accel)


def test_idm_hand_computed_value():
    p = simcore.BehaviorParams(desired_speed=15.0, max_accel=1.0,
                               comfortable_decel=2.0, min_gap=2.0,
                               time_headway=1.0)
    v, gap, dv = 10.0, 30.0, 5.0
    s_star = 2.0 + 10.0 * 1.0 + 10.0 * 5.0 / (2.0 * math.sqrt(1.0 * 2.0))
    expected = 1.0 * (1.0 - (10.0 / 15.0) ** 4 - (s_star / 30.0) ** 2)
    assert simcore.idm_accel(p, v, gap, dv) == pytest.approx(expected)
    assert expected < 0  # closing fast: braking


def test_idm_approach_is_monotone_in_gap():
    p = simcore.BehaviorParams()
    gaps = [5.0, 10.0, 20.0, 50.0, 200.0]
    accels = [simcore.idm_accel(p, 10.0, g, 2.0) for g in gaps]
    assert accels == sorted(accels)


def test_behavior_params_validation():
    with pytest.raises(ValueError):
        simcore.BehaviorParams(max_accel=0.0)
    with pytest.raises(ValueError):
        simcore.BehaviorParams(accel_exponent=0.5)


# ---------------------------------------------------------------------------
# OBB collision

def test_obb_disjoint_and_overlapping():
    a = simcore.obb_corners(0, 0, 0, 4.5, 1.8)
    b = simcore.obb_corners(10, 0, 0, 4.5, 1.8)
    assert simcore.obb_overlap(a, b) == 0.0
    c = simcore.obb_corners(4.0, 0, 0, 4.5, 1.8)
    # 4.5-long cars 4 m apart overlap by 0.5 m along the travel axis
    assert simcore.obb_overlap(a, c) == pytest.approx(0.5)


def test_obb_rotated_overlap():
    a = simcore.obb_corners(0, 0, 0, 4.0, 2.0)
    b = simcore.obb_corners(0, 0, 45, 4.0, 2.0)
    assert simcore.obb_overlap(a, b) > 0


def test_obb_matches_geometric_oracle():
    rng = random.Random(17)
    agree = 0
    for _ in range(500):
        qa = simcore.obb_corners(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                 rng.uniform(-180, 180), rng.uniform(1, 8),
                                 rng.uniform(0.5, 3))
        qb = simcore.obb_corners(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                 rng.uniform(-180, 180), rng.uniform(1, 8),
                                 rng.uniform(0.5, 3))
        sat = simcore.obb_overlap(qa, qb) > 0
        assert sat == quads_overlap_oracle(qa, qb)
        agree += 1
    assert agree == 500


def test_detect_collisions_reports_pair():
    net = straight_net(length=100.0)
    a = place(net, "e0f", 0, 10.0, "a")
    b = place(net, "e0f", 0, 12.0, "b")  # 2 m apart, 4.5 m long: overlap
    events = simcore.detect_collisions([a, b], step=7)
    assert len(events) == 1
    assert events[0].step == 7
    assert {events[0].agent_a, events[0].agent_b} == {"a", "b"}
    assert events[0].penetration > 0


def box_state(i, x, y, heading, length, width):
    return compgen.AgentState(
        id=f"a{i}", kind="Car", role="BV", edge_id="e", lane_index=0, s=0.0,
        speed=0.0, heading=heading, x=x, y=y, length=length, width=width)


# multiples of a half car length put boxes exactly edge to edge, or a hair
# apart or into each other
BOX_COORD = st.one_of(
    st.tuples(st.integers(-8, 8), st.sampled_from([-1e-9, 0.0, 1e-9]))
    .map(lambda t: t[0] * 2.25 + t[1]),
    st.floats(-20.0, 20.0))
BOX = st.tuples(
    BOX_COORD, BOX_COORD,
    st.one_of(st.sampled_from([0.0, 90.0, 180.0, -90.0, 45.0]),
              st.floats(-179.99, 180.0)),
    st.one_of(st.sampled_from([4.5, 8.0, 11.0]), st.floats(0.3, 12.0)),
    st.one_of(st.sampled_from([1.8, 2.5]), st.floats(0.3, 3.0)))


@settings(max_examples=200, deadline=None)
@given(boxes=st.lists(BOX, max_size=24),
       copies=st.lists(st.integers(0, 23), max_size=4),
       swap_dims=st.booleans())
def test_detect_collisions_matches_all_pairs(boxes, copies, swap_dims):
    boxes = boxes + [boxes[i] for i in copies if i < len(boxes)]  # coincident
    states = [box_state(i, *b) for i, b in enumerate(boxes)]
    if swap_dims:
        states[::2] = [replace(a, length=a.width, width=a.length)
                       for a in states[::2]]
    got = [(e.step, e.agent_a, e.agent_b, e.penetration)
           for e in simcore.detect_collisions(states, step=3)]
    assert got == all_pairs_collisions(states, step=3)


def test_detect_collisions_keeps_touching_and_coincident_boxes():
    states = [box_state(0, 0.0, 0.0, 0.0, 4.5, 1.8),
              box_state(1, 4.5, 0.0, 0.0, 4.5, 1.8),     # edge to edge
              box_state(2, 0.0, 0.0, 0.0, 4.5, 1.8),     # coincident with 0
              box_state(3, 4.5005, 0.0, 90.0, 4.5, 1.8),
              box_state(4, -4.5 + 1e-7, 0.0, 0.0, 4.5, 1.8)]  # 0.1 um deep
    got = [(e.agent_a, e.agent_b, e.penetration)
           for e in simcore.detect_collisions(states)]
    assert got == [(a, b, pen)
                   for _, a, b, pen in all_pairs_collisions(states)]
    assert ("a0", "a2", 1.8) in got
    assert [(a, b) for a, b, pen in got if pen < 1e-6] == \
        [("a0", "a4"), ("a2", "a4")]


# ---------------------------------------------------------------------------
# AV policy

def _obs(**kw):
    base = dict(speed=10.0, desired_speed=13.89, gap=math.inf,
                leader_speed=0.0, max_accel=1.5, comfortable_decel=2.0,
                min_gap=2.0, lane_options=[])
    base.update(kw)
    return base


def test_av_policy_free_road_accelerates():
    accel, lc = simcore.av_policy(_obs())
    assert accel > 0
    assert lc == 0


def test_av_policy_brakes_below_ttc_threshold():
    # closing at 10 m/s with 20 m gap: TTC 2 s < 3 s threshold
    accel, _ = simcore.av_policy(_obs(gap=20.0, leader_speed=0.0))
    assert accel == pytest.approx(-2.0)


def test_av_policy_hint_moves_braking_onset_earlier():
    # TTC = 4 s: beyond the default threshold, inside the hinted one
    obs = _obs(gap=40.0, leader_speed=0.0)
    plain, _ = simcore.av_policy(obs)
    hinted, _ = simcore.av_policy(obs, hints=("DecelerateEarlier",))
    assert hinted == pytest.approx(-2.0)
    assert hinted < plain


def test_av_policy_safer_lane_hint_eases_lane_change():
    option = {"direction": 1, "lane_index": 1, "gap": 100.0,
              "leader_speed": 10.0, "rear_gap": 50.0, "follower": None}
    obs = _obs(gap=20.0, leader_speed=10.0, lane_options=[option])
    _, lc_plain = simcore.av_policy(obs)
    _, lc_hinted = simcore.av_policy(obs, hints=("SaferLane",))
    assert lc_plain == 0
    assert lc_hinted == 1


def test_av_policy_never_exceeds_limits():
    rng = random.Random(3)
    for _ in range(200):
        obs = _obs(speed=rng.uniform(0, 30),
                   gap=rng.choice([math.inf, rng.uniform(0.5, 200)]),
                   leader_speed=rng.uniform(0, 30))
        accel, lc = simcore.av_policy(obs)
        assert -2.0 - 1e-9 <= accel <= 1.5 + 1e-9
        assert lc in (-1, 0, 1)


# ---------------------------------------------------------------------------
# closed-loop runs

def platoon_bundle(n=10, spacing=15.0, speed=10.0):
    net = straight_net()
    agents = []
    for i in range(n):
        role = "AV" if i == 0 else "BV"
        # index 0 leads the platoon
        s = 200.0 - i * spacing
        agents.append(place(net, "e0f", 0, s, f"v{i}", role=role, speed=speed))
    return make_bundle(net, agents)


def test_platoon_runs_without_collisions():
    trace = simcore.run(platoon_bundle(), duration=60.0, dt=0.1)
    assert len(trace.steps) == 600
    assert trace.collisions == []
    # followers kept moving
    assert all(trace.odometry[f"v{i}"] > 100.0 for i in range(10))


def test_platoon_order_is_preserved():
    trace = simcore.run(platoon_bundle(), duration=30.0, dt=0.1)
    for states in trace.steps:
        xs = {a.id: a.x for a in states}
        order = [xs[f"v{i}"] for i in range(10) if f"v{i}" in xs]
        assert order == sorted(order, reverse=True)


def test_trace_hash_is_deterministic():
    hashes = {simcore.run(platoon_bundle(), duration=10.0, dt=0.1).hash()
              for _ in range(3)}
    assert len(hashes) == 1


def test_dt_bounds_enforced():
    world = simcore.build_world(platoon_bundle(n=2))
    with pytest.raises(ValueError):
        simcore.step(world, 0.0)
    with pytest.raises(ValueError):
        simcore.step(world, 0.6)
    simcore.step(world, 0.5)  # boundary included


def test_no_teleportation():
    trace = simcore.run(platoon_bundle(), duration=20.0, dt=0.1)
    prev = {}
    for states in trace.steps:
        for a in states:
            if a.id in prev:
                moved = math.dist((a.x, a.y), prev[a.id])
                assert moved <= a.speed * 0.1 + 1e-6
            prev[a.id] = (a.x, a.y)


def test_av_stops_for_blocking_object():
    net = straight_net(length=200.0)
    av = place(net, "e0f", 0, 20.0, "av", role="AV", speed=10.0)
    line = netgen.lane_centerline(net, net.lane_graph.edges["e0f"], 0)
    bx, by, bh = netgen.point_along(line, 100.0)
    barrier = compgen.PlacedObject(kind="Barrier", x=bx, y=by, yaw=bh,
                                   footprint=(2.0, 0.5))
    bundle = make_bundle(net, [av], objects=[barrier])
    trace = simcore.run(bundle, duration=30.0, dt=0.1)
    assert trace.collisions == []
    final = trace.steps[-1][0]
    assert final.s < 100.0
    assert final.speed < 0.5
    # blocked run covers less ground than a free run
    free = simcore.run(make_bundle(net, [av]), duration=30.0, dt=0.1)
    assert trace.odometry["av"] < free.odometry["av"]


def test_vru_walks_straight():
    net = straight_net(length=100.0)
    ped = compgen.AgentState(
        id="p", kind="Pedestrian", role="VRU", edge_id="e0f", lane_index=0,
        s=0.0, speed=1.4, heading=90.0, x=50.0, y=-5.0, length=0.5, width=0.5)
    av = place(net, "e0f", 0, 10.0, "av", role="AV", speed=0.0)
    trace = simcore.run(make_bundle(net, [av, ped]), duration=10.0, dt=0.1)
    p_final = [a for a in trace.steps[-1] if a.id == "p"][0]
    assert p_final.x == pytest.approx(50.0)
    assert p_final.y == pytest.approx(-5.0 + 1.4 * 10.0)


def test_vehicle_deactivates_at_network_end():
    net = straight_net(length=50.0)
    av = place(net, "e0f", 0, 45.0, "av", role="AV", speed=10.0)
    trace = simcore.run(make_bundle(net, [av]), duration=5.0, dt=0.1)
    assert trace.steps[-1] == []  # left the network
    assert trace.odometry["av"] < 10.0 * 5.0


def test_bv_changes_lane_past_slow_leader():
    net = straight_net(length=500.0, fwd=2)
    slow = place(net, "e0f", 0, 100.0, "slow", kind="Truck", speed=2.0)
    fast = place(net, "e0f", 0, 40.0, "fast", speed=13.0)
    av = place(net, "e0f", 1, 5.0, "av", role="AV", speed=5.0)
    overrides = {"slow": simcore.BehaviorParams(desired_speed=2.0)}
    trace = simcore.run(make_bundle(net, [av, slow, fast]), duration=20.0,
                        dt=0.1, params_overrides=overrides)
    lanes_used = {a.lane_index for states in trace.steps for a in states
                  if a.id == "fast"}
    assert 1 in lanes_used  # overtook via the left lane
    assert trace.collisions == []


def test_route_planner_and_length():
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(50.0, 1, 0, 13.89),
                                     ir.RoadSegment(70.0, 1, 0, 13.89)))
    net = netgen.build_network_blueprint(road)
    route = simcore.plan_route(net, "e0f")
    assert route == ("e0f", "e1f")
    assert simcore.route_length(net, route) == pytest.approx(120.0)


def test_export_trace_format():
    import json
    trace = simcore.run(platoon_bundle(n=2), duration=1.0, dt=0.1)
    text = simcore.export_trace(trace)
    assert text == export_trace_json(trace)
    lines = text.strip().split("\n")
    assert len(lines) == 2 * 10
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "id", "x", "y", "speed", "heading", "accel"}


# signed zeros, subnormals, exponent forms, values on the 4-decimal rounding
# boundary, ints and non-finite values
TRACE_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-05, -4e-05, 1e16,
                     -1e16, 1.5e300, 0.00005, -0.00005, 0.00015, 2.67675,
                     1.00005, 123456.78905, math.nan, math.inf, -math.inf]),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True))
# quotes, backslashes, control characters and non-ASCII in agent ids
TRACE_ID = st.one_of(st.sampled_from(['a"b', "back\\slash", "tab\tnl\n",
                                      "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f697"]),
                     st.text(max_size=6))


@st.composite
def export_traces(draw):
    ids = draw(st.lists(TRACE_ID, min_size=1, max_size=4, unique=True))
    n_steps = draw(st.integers(0, 4))
    trace = simcore.SimulationTrace(dt=0.1)
    for _ in range(n_steps):
        states = []
        for agent_id in draw(st.lists(st.sampled_from(ids), max_size=4)):
            speed = draw(TRACE_FLOAT.filter(lambda v: not v < 0))
            heading = draw(st.one_of(
                st.sampled_from([180.0, -179.99995, 0.00005, -0.0]),
                st.floats(-179.999, 180.0)))
            states.append(compgen.AgentState(
                id=agent_id, kind="Car", role="BV", edge_id="e", lane_index=0,
                s=0.0, speed=speed, heading=heading, x=draw(TRACE_FLOAT),
                y=draw(TRACE_FLOAT), length=4.5, width=1.8))
        trace.steps.append(states)
    # series shorter than the trace, or missing, give an accel of 0.0
    for agent_id in ids:
        if draw(st.booleans()):
            trace.accel_series[agent_id] = draw(
                st.lists(TRACE_FLOAT, max_size=n_steps))
    return trace


@settings(max_examples=200, deadline=None)
@given(trace=export_traces())
def test_export_trace_matches_json_reference(trace):
    assert simcore.export_trace(trace) == export_trace_json(trace)


# ---------------------------------------------------------------------------
# per-step lane index and simulator invariants

# s on a quarter-metre grid puts vehicles level with each other or with an
# obstacle, so equal gaps occur; the 4.5 m obstacle ties with a car
LANE_S = st.one_of(st.integers(0, 240).map(lambda k: k * 0.25),
                   st.floats(0.0, 60.0))
VEHICLE = st.tuples(st.integers(0, 1), st.integers(0, 2), LANE_S,
                    st.sampled_from(sorted(compgen.VEHICLE_DIMS)),
                    st.booleans(), st.booleans())
OBSTACLE = st.tuples(st.integers(0, 1), st.integers(0, 2), LANE_S,
                     st.sampled_from([0.4, 2.0, 4.5]))


@settings(max_examples=200, deadline=None)
@example(lanes=(1, 1), obstacles=[],  # a truck and a car at equal gaps
         vehicles=[(0, 0, 0.0, "Car", True, False),
                   (0, 0, 11.75, "Truck", True, False),
                   (0, 0, 10.0, "Car", True, False)])
@example(lanes=(1, 1), obstacles=[(0, 0, 10.0, 4.5)],  # car ties obstacle
         vehicles=[(0, 0, 0.0, "Car", True, False),
                   (0, 0, 10.0, "Car", True, False)])
@example(lanes=(2, 1), obstacles=[],  # two followers level with each other
         vehicles=[(0, 1, 10.0, "Car", True, False),
                   (0, 0, 5.0, "Car", True, False),
                   (0, 0, 5.0, "Car", True, False)])
@given(lanes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       vehicles=st.lists(VEHICLE, min_size=1, max_size=14),
       obstacles=st.lists(OBSTACLE, max_size=4))
def test_indexed_leader_and_follower_match_linear_scans(lanes, vehicles,
                                                        obstacles):
    road = ir.RoadDescription(
        layout="Straight",
        segments=(ir.RoadSegment(60.0, lanes[0], 0, 13.89),
                  ir.RoadSegment(60.0, lanes[1], 0, 13.89)))
    net = netgen.build_network_blueprint(road)
    edge_ids = ("e0f", "e1f")
    world = simcore.World(net=net, vehicles={}, obstacles=[])
    for i, (ei, li, s, kind, active, routed) in enumerate(vehicles):
        li = min(li, lanes[ei] - 1)
        state = place(net, edge_ids[ei], li, s, f"v{i}", kind=kind,
                      speed=float(i))
        world.vehicles[state.id] = simcore._Vehicle(
            state=state, params=simcore.BehaviorParams(), active=active,
            route=simcore.plan_route(net, edge_ids[ei]) if routed else ())
    for ei, li, s, size in obstacles:
        world.obstacles.append((edge_ids[ei], min(li, lanes[ei] - 1), s,
                                compgen.PlacedObject("Cone", 0.0, 0.0, 0.0,
                                                     (size, 0.4))))
    index = simcore._LaneIndex(world)
    for veh in world.vehicles.values():
        me = veh.state
        for li in range(lanes[edge_ids.index(me.edge_id)]):
            assert simcore._leader_gap(world, index, veh, me.edge_id, li,
                                       me.s) == \
                leader_gap_scan(world, veh, me.edge_id, li, me.s)
            assert index.follower(me.id, (me.edge_id, li), me.s) is \
                follower_scan(world, me.id, me.edge_id, li, me.s)


@settings(max_examples=100, deadline=None)
@given(layout=st.sampled_from(ir.ROAD_LAYOUTS),
       lengths=st.lists(st.floats(20.0, 150.0), min_size=1, max_size=3),
       n_agents=st.integers(1, 12), seed=st.integers(0, 10_000),
       dt=st.sampled_from([0.1, 0.25, 0.5]))
def test_simulation_invariants(layout, lengths, n_agents, seed, dt):
    road = ir.RoadDescription(
        layout=layout,
        segments=tuple(ir.RoadSegment(length, 2, 1, 13.89)
                       for length in lengths))
    net = netgen.build_network_blueprint(road)
    agents = compgen.random_trip_placement(net, n_agents, seed=seed)
    trace = simcore.run(make_bundle(net, agents), duration=5.0, dt=dt)
    lanes = net.lane_graph.lanes
    for states in trace.steps:
        for a in states:
            assert all(math.isfinite(v)
                       for v in (a.x, a.y, a.s, a.speed, a.heading))
            assert a.speed >= 0.0
            assert 0.0 <= a.s <= lanes[(a.edge_id, a.lane_index)].length
    for series in (*trace.accel_series.values(),
                   *trace.jerk_series.values(), trace.odometry.values()):
        assert all(map(math.isfinite, series))


TRACE_HASH_SCRIPT = """
import json, sys
from scenarioforge import ir, pipeline
cfg = pipeline.PipelineConfig(output_dir=sys.argv[1], duration=10.0)
m = pipeline.run_pipeline(
    ir.TextRequest("busy intersection left turn conflict with three vehicles"),
    cfg, seed=4, run_id="h")
with open(m.artifacts["report"], encoding="utf-8") as fh:
    print(json.load(fh)["trace_hash"])
"""


def test_trace_hash_is_stable_across_hash_seeds(tmp_path):
    src = os.path.dirname(os.path.dirname(scenarioforge.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    hashes = []
    for hash_seed in ("0", "1", "4242"):
        out = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", TRACE_HASH_SCRIPT, str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    cfg = pipeline.PipelineConfig(output_dir=str(tmp_path / "here"),
                                  duration=10.0)
    m = pipeline.run_pipeline(ir.TextRequest(
        "busy intersection left turn conflict with three vehicles"),
        cfg, seed=4, run_id="h")
    with open(m.artifacts["report"], encoding="utf-8") as fh:
        here = json.load(fh)["trace_hash"]
    assert hashes == [here] * 3

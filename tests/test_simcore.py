import functools
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

import scenarioforge
from scenarioforge import compgen, evalkit, ir, netgen, pipeline, simcore

from conftest import street_grid_network
from oracles import (all_pairs_collisions, av_control_eager, bv_control_scan,
                     export_series_json, export_trace_json, follower_scan,
                     hand_trace, idm_accel_reference, leader_gap_scan,
                     performance_series, project_objects_scan,
                     quads_overlap_oracle, run_with_series, trace_hash_json)


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


def distance(trace, agent_id):
    """Metres the agent covered: its speed times dt summed over the steps it
    is present in."""
    return sum(speed for states in trace.states()
               for i, _, _, speed, _ in states if i == agent_id) * trace.dt


def make_bundle(net, agents, objects=()):
    desc = ir.ScenarioDescription(
        road=ir.RoadDescription(
            layout="Straight", segments=(ir.RoadSegment(100.0, 1, 0, 13.89),)),
        objects=(), agents=(), weather=ir.WeatherDescription())
    return ir.ScenarioBundle(description=desc, network=net,
                             agents=tuple(agents), objects=tuple(objects))


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


@settings(max_examples=500, deadline=None)
# 2 sqrt(0.8 * 3.0) and 2 sqrt(0.8) sqrt(3.0) are different doubles
@example(kind="Car", edge_speed=13.89, rates=(0.8, 3.0), speed=10.0,
         gap=20.0, speed_delta=5.0)
@given(kind=st.sampled_from(["Car", "Truck", "Bus"]),
       edge_speed=st.floats(0.1, 40.0),
       rates=st.none() | st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
       speed=st.floats(0.0, 1e3),
       gap=st.one_of(st.sampled_from([math.inf, 0.0, 0.05, 0.1]),
                     st.floats(max_value=0.0, exclude_max=True,
                               allow_infinity=False),
                     st.floats(allow_nan=False, allow_infinity=False)),
       speed_delta=st.floats(-1e3, 1e3))
def test_idm_matches_the_formula_bit_for_bit(kind, edge_speed, rates, speed,
                                             gap, speed_delta):
    """The braking term held by BehaviorParams and the clamps written as
    comparisons give the formula's float, by repr: for Car and Truck/Bus
    parameters, as built or with other max_accel and comfortable_decel, on
    free road, at and below the 0.1 m gap floor, at negative gaps, and with
    closing or opening leaders."""
    p = simcore._default_params(kind, edge_speed)
    if rates is not None:
        p = replace(p, max_accel=rates[0], comfortable_decel=rates[1])
    assert repr(simcore.idm_accel(p, speed, gap, speed_delta)) == \
        repr(idm_accel_reference(p, speed, gap, speed_delta))


def test_behavior_params_validation():
    with pytest.raises(ValueError):
        simcore.BehaviorParams(max_accel=0.0)
    with pytest.raises(ValueError):
        simcore.BehaviorParams(accel_exponent=0.5)


@pytest.mark.parametrize(
    "name", [f.name for f in fields(simcore.BehaviorParams)])
def test_behavior_params_reject_nan(name):
    with pytest.raises(ValueError):
        simcore.BehaviorParams(**{name: math.nan})


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


# map-scale offsets, where the closed-form extents round the most
OFFSET = st.sampled_from([(0.0, 0.0), (3000.0, -3000.0), (-3000.0, 3000.0),
                          (1e4, 1e4), (-1e4, -1e4), (1e4, -3000.0)])


@settings(max_examples=300, deadline=None)
@given(boxes=st.lists(BOX, max_size=24),
       copies=st.lists(st.integers(0, 23), max_size=4),
       swap_dims=st.booleans(), offset=OFFSET)
def test_detect_collisions_matches_all_pairs(boxes, copies, swap_dims,
                                             offset):
    boxes = boxes + [boxes[i] for i in copies if i < len(boxes)]  # coincident
    states = [box_state(i, x + offset[0], y + offset[1], *rest)
              for i, (x, y, *rest) in enumerate(boxes)]
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

def _two_car_av_control(speed=10.0, gap=math.inf, leader_speed=0.0):
    """simcore._av_control of a Car AV (desired speed 13.89, max accel 1.5,
    comfortable decel 2.0, min gap 2.0) at s = 100 m on a straight one-lane
    road, with a second car the given bumper gap ahead, or behind it when
    the gap is infinite."""
    net = straight_net()
    world = simcore.World(net=net, vehicles={}, obstacles=[])
    other_s = 50.0 if math.isinf(gap) else 104.5 + gap
    for state in (place(net, "e0f", 0, 100.0, "av", role="AV"),
                  place(net, "e0f", 0, other_s, "bv", speed=leader_speed)):
        world.vehicles[state.id] = simcore._Vehicle(
            state, simcore._default_params("Car", 13.89))
    av = world.vehicles["av"]
    av.speed = speed
    return simcore._av_control(net.lane_graph, simcore._LaneIndex(world), av)


def test_av_policy_free_road_accelerates():
    accel, lc = _two_car_av_control()
    assert accel > 0
    assert lc == 0


def test_av_policy_brakes_below_ttc_threshold():
    # closing at 10 m/s with 20 m gap: TTC 2 s < 3 s threshold
    accel, _ = _two_car_av_control(gap=20.0, leader_speed=0.0)
    assert accel == -2.0


def test_av_policy_never_exceeds_limits():
    rng = random.Random(3)
    for _ in range(200):
        accel, lc = _two_car_av_control(
            speed=rng.uniform(0, 30),
            gap=rng.choice([math.inf, rng.uniform(0.5, 200)]),
            leader_speed=rng.uniform(0, 30))
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
    assert all(distance(trace, f"v{i}") > 100.0 for i in range(10))


def test_platoon_order_is_preserved():
    trace = simcore.run(platoon_bundle(), duration=30.0, dt=0.1)
    for states in trace.states():
        xs = {i: x for i, x, *_ in states}
        order = [xs[f"v{i}"] for i in range(10) if f"v{i}" in xs]
        assert order == sorted(order, reverse=True)


def dense_bundle():
    """32 cars on two lanes of a 3 km road, all on it for 30 s."""
    net = straight_net(length=3000.0, fwd=2)
    return make_bundle(net, [
        place(net, "e0f", i % 2, 20.0 + 20.0 * (i // 2), f"car{i}",
              role="AV" if i == 0 else "BV", speed=10.0) for i in range(32)])


def test_trace_holds_under_64_bytes_per_state():
    """A trace keeps each step's numbers in one array of doubles and shares
    the ids tuple while the active set is unchanged: 32 cars for 300 steps
    hold under 64 B of heap per recorded state."""
    bundle = dense_bundle()
    simcore.run(bundle, duration=0.1, dt=0.1)   # measures the lanes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simcore.run(bundle, duration=30.0, dt=0.1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == 300
    n_states = sum(len(states) for states in trace.states())
    assert n_states == 32 * 300
    assert held < 64 * n_states
    assert all(ids is trace.steps[0][0] for ids, _ in trace.steps)


def test_run_builds_no_agent_state(monkeypatch):
    """A step updates each vehicle in place: running 32 cars for 300 steps
    builds no AgentState beyond the bundle's own. Rebuilding each state
    every step built 9,600, one per agent-step."""
    bundle = dense_bundle()
    built = 0
    init = compgen.AgentState.__init__

    def counted_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(compgen.AgentState, "__init__", counted_init)
    trace = simcore.run(bundle, duration=30.0, dt=0.1)
    assert sum(len(ids) for ids, _ in trace.steps) == 32 * 300
    assert built == 0


def test_run_builds_behavior_params_once_per_vehicle(monkeypatch):
    """32 cars for 300 steps build one BehaviorParams per vehicle and at most
    one for the AV's policy. Building the policy's parameters every step
    built 300 more."""
    bundle = dense_bundle()
    built = 0
    init = simcore.BehaviorParams.__init__

    def counted_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(simcore.BehaviorParams, "__init__", counted_init)
    trace = simcore.run(bundle, duration=30.0, dt=0.1)
    assert sum(len(ids) for ids, _ in trace.steps) == 32 * 300
    assert built <= 32 + 1


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
    for states in trace.states():
        for i, x, y, speed, _ in states:
            if i in prev:
                assert math.dist((x, y), prev[i]) <= speed * 0.1 + 1e-6
            prev[i] = (x, y)


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
    (_, x, _, speed, _), = list(trace.states())[-1]
    assert x < bx   # the lane runs along +x
    assert speed < 0.5
    # blocked run covers less ground than a free run
    free = simcore.run(make_bundle(net, [av]), duration=30.0, dt=0.1)
    assert distance(trace, "av") < distance(free, "av")


@functools.cache
def blueprint_networks() -> tuple:
    return tuple(netgen.build_network_blueprint(ir.RoadDescription(
        layout=layout, segments=(ir.RoadSegment(120.0, fwd, back, 13.89),)))
        for layout in ir.ROAD_LAYOUTS for fwd, back in ((1, 0), (2, 1)))


@functools.cache
def small_street_grid() -> netgen.RoadNetwork:
    return street_grid_network(random.Random(0), size=8)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_object_snapping_equals_the_full_scan(data):
    """Snapping measures only the lanes near an object and snaps it as the
    scan over every lane does: objects on a lane, near it, and beyond the
    2.5 m radius, on blueprint layouts and a street grid."""
    net = data.draw(st.sampled_from(blueprint_networks())
                    | st.builds(small_street_grid))
    graph = net.lane_graph
    objects = []
    for _ in range(data.draw(st.integers(1, 3))):
        e, li = data.draw(st.sampled_from(graph.inventory))
        path = graph.lanes[(e.id, li)]
        x, y, _ = path.point_at(data.draw(st.floats(0.0, path.length)))
        away = data.draw(st.sampled_from((0.0, 1.0, 2.4999, 2.5, 2.5001, 6.0,
                                          40.0)) | st.floats(0.0, 10.0))
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        objects.append(compgen.PlacedObject(
            kind=data.draw(st.sampled_from(("Cone", "Barrier", "Fence"))),
            x=x + away * math.cos(angle), y=y + away * math.sin(angle),
            yaw=0.0, footprint=(0.4, 0.4)))
    assert simcore._project_objects(net, objects) == \
        project_objects_scan(net, objects)


def test_vru_walks_straight():
    net = straight_net(length=100.0)
    ped = compgen.AgentState(
        id="p", kind="Pedestrian", role="VRU", edge_id="e0f", lane_index=0,
        s=0.0, speed=1.4, heading=90.0, x=50.0, y=-5.0, length=0.5, width=0.5)
    av = place(net, "e0f", 0, 10.0, "av", role="AV", speed=0.0)
    trace = simcore.run(make_bundle(net, [av, ped]), duration=10.0, dt=0.1)
    _, x, y, _, _ = [a for a in list(trace.states())[-1] if a[0] == "p"][0]
    assert x == pytest.approx(50.0)
    assert y == pytest.approx(-5.0 + 1.4 * 10.0)


def test_vehicle_deactivates_at_network_end():
    net = straight_net(length=50.0)
    av = place(net, "e0f", 0, 45.0, "av", role="AV", speed=10.0)
    trace = simcore.run(make_bundle(net, [av]), duration=5.0, dt=0.1)
    assert list(trace.states())[-1] == []  # left the network
    assert list(trace.start) == ["av"]
    assert trace.start["av"] is av   # the bundle's own state
    assert distance(trace, "av") < 10.0 * 5.0


@pytest.mark.parametrize("truck_params, overtakes", [
    (simcore.BehaviorParams(desired_speed=2.0), True),
    # the car's own desired speed, the speed limit
    (simcore.BehaviorParams(), False),
], ids=["slow_truck", "cruising_truck"])
def test_bv_changes_lane_past_slow_leader(truck_params, overtakes):
    # truck and car start at one speed, 60 m apart: only the truck's
    # params decide whether the car has a slow leader to pass
    net = straight_net(length=500.0, fwd=2)
    truck = place(net, "e0f", 0, 100.0, "truck", kind="Truck", speed=13.0)
    fast = place(net, "e0f", 0, 40.0, "fast", speed=13.0)
    av = place(net, "e0f", 1, 5.0, "av", role="AV", speed=5.0)
    world = simcore.build_world(make_bundle(net, [av, truck, fast]))
    world.vehicles["truck"].params = truck_params
    lanes_used, collisions = set(), []
    for k in range(200):
        simcore.step(world, 0.1)
        states = [v for v in world.vehicles.values() if v.active]
        lanes_used |= {a.lane_index for a in states if a.id == "fast"}
        collisions += simcore.detect_collisions(states, step=k)
    # overtaking uses the left lane; otherwise fast keeps to lane 0
    assert lanes_used == ({0, 1} if overtakes else {0})
    assert collisions == []


def test_route_planner_and_length():
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(50.0, 1, 0, 13.89),
                                     ir.RoadSegment(70.0, 1, 0, 13.89)))
    net = netgen.build_network_blueprint(road)
    route = simcore.plan_route(net, "e0f")
    assert route == ("e0f", "e1f")
    assert simcore.route_length(net, route) == pytest.approx(120.0)


def exported(trace) -> str:
    """The text export_trace writes to a stream."""
    out = io.StringIO()
    simcore.export_trace(trace, out)
    return out.getvalue()


def test_export_trace_format():
    trace = simcore.run(platoon_bundle(n=2), duration=1.0, dt=0.1)
    text = exported(trace)
    assert text == export_trace_json(
        run_with_series(platoon_bundle(n=2), 1.0, 0.1))
    lines = text.strip().split("\n")
    assert len(lines) == 2 * 10
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "id", "x", "y", "speed", "heading", "accel"}
    # 900 states: several batches of steps, the last one short
    trace = simcore.run(platoon_bundle(n=3), duration=30.0, dt=0.1)
    ref = run_with_series(platoon_bundle(n=3), 30.0, 0.1)
    assert exported(trace) == export_trace_json(ref)
    assert trace.hash() == trace_hash_json(ref)


# signed zeros, subnormals, exponent forms, values on the 4- and 6-decimal
# rounding boundaries (5e-7, a dyadic tie), values next to 1e-4 and 1e9,
# ints (recorded as doubles) and non-finite values
TRACE_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-05, -4e-05, 1e16,
                     -1e16, 1.5e300, 0.00005, -0.00005, 0.00015, 2.67675,
                     1.00005, 123456.78905, 5e-7, -5e-7, 9.99995e-5,
                     1.03125, 999999999.9999996, 1e9, math.nan, math.inf,
                     -math.inf]),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True))
# quotes, backslashes, control characters and non-ASCII in agent ids
TRACE_ID = st.one_of(st.sampled_from(['a"b', "back\\slash", "tab\tnl\n",
                                      "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f697"]),
                     st.text(max_size=6))


def car(agent_id, speed, heading=0.0, x=0.0, y=0.0):
    return compgen.AgentState(
        id=agent_id, kind="Car", role="BV", edge_id="e", lane_index=0, s=0.0,
        speed=speed, heading=heading, x=x, y=y, length=4.5, width=1.8)


@st.composite
def export_traces(draw):
    """A hand_trace of up to 4 steps. Its start speeds are AgentState
    speeds, so like every speed they are never NaN or below 0."""
    ids = draw(st.lists(TRACE_ID, min_size=1, max_size=4, unique=True))
    speeds = TRACE_FLOAT.filter(lambda v: v >= 0)
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        steps.append([car(agent_id, draw(speeds), heading=draw(st.one_of(
            st.sampled_from([180.0, -179.99995, 0.00005, -0.0]),
            st.floats(-179.999, 180.0))), x=draw(TRACE_FLOAT),
            y=draw(TRACE_FLOAT))
            for agent_id in draw(st.lists(st.sampled_from(ids), max_size=4))])
    start = {agent_id: car(agent_id, draw(speeds)) for agent_id in ids}
    return hand_trace(steps, start, collisions=draw(st.lists(st.builds(
        simcore.CollisionEvent, st.integers(0, 4), st.sampled_from(ids),
        st.sampled_from(ids), st.floats(0.0, 1.0)), max_size=3)))


def one_state_trace(x, y):
    return hand_trace([[car("a", 1.0, x=x, y=y)]], {"a": car("a", 1.0)})


class RecordingStream:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def states_trace(n_steps, n_agents, empty_after=0):
    """n_steps steps of n_agents distinct states each, then empty_after
    empty steps."""
    ids = [f"car{i}" for i in range(n_agents)]
    steps = [[car(agent_id, 10.0 + 0.37 * ((k * n_agents + i) % 11),
                  heading=0.001 * k, x=12.5 * i + 1.3 * k,
                  y=-3.2 * i + 0.01 * k)
              for i, agent_id in enumerate(ids)] for k in range(n_steps)]
    return hand_trace(steps + [[] for _ in range(empty_after)],
                      {agent_id: car(agent_id, 10.0) for agent_id in ids})


# one value that must not take the fixed-point spelling among exact floats
# that may: a NaN after a number, a value below -1e9, a small negative value;
# then traces of several batches, one ending in a run of empty steps
@settings(max_examples=200, deadline=None)
@example(ref=one_state_trace(1.0, math.nan))
@example(ref=one_state_trace(1.0, -1e16))
@example(ref=one_state_trace(-4e-05, 1.0))
@example(ref=states_trace(256, 2, empty_after=2))
@example(ref=states_trace(200, 3))
@given(ref=export_traces())
def test_export_trace_matches_json_reference(ref):
    """The written text is the reference's, in one write per run of steps
    that reaches 256 states (the last run may hold fewer), each ending in a
    newline; a trace without states writes one newline."""
    out = RecordingStream()
    simcore.export_trace(ref.trace, out)
    assert "".join(out.writes) == export_trace_json(ref)
    if not any(ref.steps):
        assert out.writes == ["\n"]
        return
    assert all(text.endswith("\n") for text in out.writes)
    steps = [[json.loads(line)["step"] for line in text.splitlines()]
             for text in out.writes]
    # no step spans two writes, each write ends with the step that brings
    # it to 256 states, and only the last may hold fewer
    assert all(a[-1] < b[0] for a, b in zip(steps, steps[1:]))
    assert all(len(s) - s.count(s[-1]) < 256 for s in steps)
    assert all(len(s) >= 256 for s in steps[:-1])


def test_export_trace_memory_is_bounded_by_a_batch():
    """The export holds one batch's text at a time, not the trace's: over
    24k states, its peak allocation stays under an eighth of the text."""
    trace = states_trace(1200, 20).trace

    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        simcore.export_trace(trace, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 2_000_000
    assert peak < sink.written / 8


@settings(max_examples=200, deadline=None)
@example(ref=one_state_trace(1.0, math.nan))
@example(ref=one_state_trace(1.0, -1e16))
@example(ref=one_state_trace(-4e-05, 1.0))
@given(ref=export_traces())
def test_trace_hash_matches_json_reference(ref):
    assert ref.trace.hash() == trace_hash_json(ref)


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
        veh = world.vehicles[state.id] = simcore._Vehicle(
            state, simcore.BehaviorParams(),
            route=simcore.plan_route(net, edge_ids[ei]) if routed else ())
        veh.active = active
    for ei, li, s, size in obstacles:
        world.obstacles.append((edge_ids[ei], min(li, lanes[ei] - 1), s,
                                compgen.PlacedObject("Cone", 0.0, 0.0, 0.0,
                                                     (size, 0.4))))
    index = simcore._LaneIndex(world)
    for me in world.vehicles.values():
        for li in range(lanes[edge_ids.index(me.edge_id)]):
            assert simcore._leader_gap(net.lane_graph, index, me, li) == \
                leader_gap_scan(world, me, me.edge_id, li, me.s)
            assert index.follower(me.id, (me.edge_id, li), me.s) is \
                follower_scan(world, me.id, me.edge_id, li, me.s)


BACKGROUND_VEHICLE = st.tuples(
    st.integers(0, 1), st.integers(0, 2), LANE_S,
    st.sampled_from(["Car", "Truck"]),
    st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 25.0)),
    st.sampled_from([0.0, 0.0, 0.05, 2.0]))


@settings(max_examples=300, deadline=None)
@example(lanes=(2, 1),  # a stopped leader, and a free lane beside
         vehicles=[(0, 0, 10.0, "Car", 10.0, 0.0),
                   (0, 0, 20.0, "Car", 0.0, 0.0)])
@example(lanes=(2, 1),  # NaN accelerations: every option is tried
         vehicles=[(0, 0, 10.0, "Car", math.nan, 0.0),
                   (0, 0, 20.0, "Car", 0.0, 0.0)])
@given(lanes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       vehicles=st.lists(BACKGROUND_VEHICLE, min_size=1, max_size=14))
def test_bv_control_matches_full_option_scan(lanes, vehicles):
    """Skipping the options when the free road misses the threshold gives
    what evaluating every option gives, for Car and Truck parameters,
    leaders on the next edge, cooldowns and NaN speeds."""
    road = ir.RoadDescription(
        layout="Straight",
        segments=(ir.RoadSegment(60.0, lanes[0], 0, 13.89),
                  ir.RoadSegment(60.0, lanes[1], 0, 13.89)))
    net = netgen.build_network_blueprint(road)
    edge_ids = ("e0f", "e1f")
    world = simcore.World(net=net, vehicles={}, obstacles=[])
    for i, (ei, li, s, kind, speed, cooldown) in enumerate(vehicles):
        state = place(net, edge_ids[ei], min(li, lanes[ei] - 1), s, f"v{i}",
                      kind=kind)
        veh = world.vehicles[state.id] = simcore._Vehicle(
            state, simcore._default_params(kind, 13.89))
        # set on the vehicle, as an AgentState refuses a NaN speed
        veh.speed, veh.lane_change_cooldown = speed, cooldown
    index = simcore._LaneIndex(world)
    for veh in world.vehicles.values():
        # repr, so that NaN accelerations compare equal
        assert repr(simcore._bv_control(net.lane_graph, index, veh)) == \
            repr(bv_control_scan(world, index, veh))


AV_VEHICLE = st.tuples(
    st.integers(0, 1), st.integers(0, 2), LANE_S,
    st.sampled_from(["Car", "Truck", "Bus"]), st.floats(0.0, 25.0),
    st.sampled_from([0.0, 0.0, 0.05, 2.0]))


@settings(max_examples=300, deadline=None)
@example(lanes=(1, 1), obstacles=[],  # a Truck AV closing on a leader
         av=(0, 0, 10.0, "Truck", 10.0, 0.0),
         vehicles=[(0, 0, 40.0, "Car", 8.0, 0.0)])
@given(lanes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       av=AV_VEHICLE, vehicles=st.lists(BACKGROUND_VEHICLE, max_size=12),
       obstacles=st.lists(OBSTACLE, max_size=4))
def test_av_control_matches_the_eager_policy(lanes, av, vehicles, obstacles):
    """The AV's control, which builds lane options only when its gap rule
    reads them, gives what the policy on an eagerly built observation gives,
    for Car, Truck and Bus AVs, leaders on the next edge, obstacles and
    cooldowns; its IDM term keeps the default headway."""
    road = ir.RoadDescription(
        layout="Straight",
        segments=(ir.RoadSegment(60.0, lanes[0], 0, 13.89),
                  ir.RoadSegment(60.0, lanes[1], 0, 13.89)))
    net = netgen.build_network_blueprint(road)
    edge_ids = ("e0f", "e1f")
    world = simcore.World(net=net, vehicles={}, obstacles=[])
    for i, (ei, li, s, kind, speed, cooldown) in enumerate([av] + vehicles):
        role = "BV" if i else "AV"
        state = place(net, edge_ids[ei], min(li, lanes[ei] - 1), s, f"v{i}",
                      kind=kind, role=role)
        veh = world.vehicles[state.id] = simcore._Vehicle(
            state, simcore._default_params(kind, 13.89),
            route=simcore.plan_route(net, edge_ids[ei]) if role == "AV"
            else ())
        veh.speed, veh.lane_change_cooldown = speed, cooldown
    for ei, li, s, size in obstacles:
        world.obstacles.append((edge_ids[ei], min(li, lanes[ei] - 1), s,
                                compgen.PlacedObject("Cone", 0.0, 0.0, 0.0,
                                                     (size, 0.4))))
    index = simcore._LaneIndex(world)
    for veh in world.vehicles.values():
        assert repr(simcore._av_control(net.lane_graph, index, veh)) == \
            repr(av_control_eager(net.lane_graph, index, veh))


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
    bundle = make_bundle(net, agents)
    world = simcore.build_world(bundle)
    lanes = net.lane_graph.lanes
    # the simulator's own vehicles, of which the trace records a part: their
    # lane and arc length equal the reference's, and stay on the lane
    for states in run_with_series(bundle, 5.0, dt).steps:
        simcore.step(world, dt)
        active = [v for v in world.vehicles.values() if v.active]
        assert repr([(v.id, v.edge_id, v.lane_index, v.s) for v in active]) \
            == repr([(a.id, a.edge_id, a.lane_index, a.s) for a in states])
        for v in active:
            assert all(math.isfinite(x)
                       for x in (v.x, v.y, v.s, v.speed, v.heading))
            assert v.speed >= 0.0
            assert 0.0 <= v.s <= lanes[(v.edge_id, v.lane_index)].length
    trace = simcore.run(bundle, duration=5.0, dt=dt)
    assert all(math.isfinite(a.speed) for a in trace.start.values())
    assert all(math.isfinite(json.loads(line)["accel"])
               for line in exported(trace).splitlines() if line)


# a VRU starts beside the AV, or near the origin, where a step's
# displacement is not lost in rounding against the coordinate
VRU = st.tuples(st.sampled_from(ir.VRU_KINDS), st.floats(0.0, 3.0),
                st.floats(-179.0, 180.0), st.booleans())
# a cone or barrier on the AV's lane, at a fraction of the lane's length
OBSTACLE_ON_LANE = st.tuples(st.sampled_from([("Cone", (0.4, 0.4)),
                                              ("Barrier", (2.0, 0.5))]),
                             st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
# the AV leaves the network in its first step and counts 0.0 m/s from then on
@example(layout="Straight", lengths=[30.0], n_agents=1, seed=0, vrus=[],
         obstacle=None, av_at_end=True, dt=0.5, n_steps=6, route="planned",
         speed_limit=None)
@example(layout="Straight", lengths=[30.0], n_agents=2, seed=1,
         vrus=[("Pedestrian", 1.4, 90.0, True)], obstacle=None,
         av_at_end=True, dt=0.1, n_steps=40, route=5.0, speed_limit=13.89)
# a barrier ahead on the AV's lane slows it down; a cyclist leaves the origin
@example(layout="Straight", lengths=[120.0], n_agents=3, seed=2,
         vrus=[("Cyclist", 1.4, 30.0, False)],
         obstacle=(("Barrier", (2.0, 0.5)), 0.75), av_at_end=False, dt=0.1,
         n_steps=40, route="planned", speed_limit=None)
@given(layout=st.sampled_from(ir.ROAD_LAYOUTS),
       lengths=st.lists(st.floats(20.0, 150.0), min_size=1, max_size=3),
       n_agents=st.integers(1, 8), seed=st.integers(0, 10_000),
       vrus=st.lists(VRU, max_size=2),
       obstacle=st.none() | OBSTACLE_ON_LANE, av_at_end=st.booleans(),
       dt=st.one_of(st.sampled_from([0.1, 0.25, 0.5]),
                    st.floats(0.0, 0.5, exclude_min=True)),
       n_steps=st.integers(0, 40),
       route=st.one_of(st.sampled_from(["planned", 0.0, 5.0]),
                       st.floats(0.0, 500.0)),
       speed_limit=st.one_of(st.none(), st.floats(0.0, 30.0)))
def test_trace_readers_match_per_vehicle_series(layout, lengths, n_agents,
                                                seed, vrus, obstacle,
                                                av_at_end, dt, n_steps, route,
                                                speed_limit):
    """The run, whose vehicles are updated in place, records the states,
    collisions and start states that rebuilding an AgentState per
    agent-step gave, by repr. export_trace and evalkit.performance, which
    derive accel, jerk and distance from the trace's speeds, equal bit for
    bit what they gave when the simulator kept those series per vehicle and
    step."""
    road = ir.RoadDescription(
        layout=layout,
        segments=tuple(ir.RoadSegment(length, 2, 1, 13.89)
                       for length in lengths))
    net = netgen.build_network_blueprint(road)
    agents = compgen.random_trip_placement(net, n_agents, seed=seed)
    av = agents[0]
    if av_at_end:
        # at full speed, 1 m before the end of its lane
        path = net.lane_graph.lanes[(av.edge_id, av.lane_index)]
        agents[0] = place(net, av.edge_id, av.lane_index, path.length - 1.0,
                          av.id, role="AV", speed=13.89)
    for i, (kind, speed, heading, beside_av) in enumerate(vrus):
        length, width = compgen.VEHICLE_DIMS[kind]
        x, y = (av.x, av.y) if beside_av else (0.0, 0.0)
        agents.append(compgen.AgentState(
            id=f"vru{i}", kind=kind, role="VRU", edge_id=av.edge_id,
            lane_index=0, s=0.0, speed=speed, heading=heading,
            x=x + 3.0 * i, y=y + 2.0, length=length, width=width))
    objects = []
    if obstacle is not None:
        (kind, footprint), at = obstacle
        path = net.lane_graph.lanes[(av.edge_id, av.lane_index)]
        x, y, heading = path.point_at(at * path.length)
        objects.append(compgen.PlacedObject(kind, x, y, heading, footprint))
    bundle = make_bundle(net, agents, objects)
    duration = n_steps * dt
    trace = simcore.run(bundle, duration, dt)
    ref = run_with_series(bundle, duration, dt)
    # every recorded double is the simulator's own value: repr tells an int
    # from a float, and keeps signed zeros
    assert [repr(states) for states in trace.states()] == [
        repr([(a.id, a.x, a.y, a.speed, a.heading) for a in states])
        for states in ref.steps]
    assert repr(trace.collisions) == repr(ref.collisions)
    assert repr(trace.start) == repr(ref.start)
    assert exported(trace) == export_series_json(ref)
    route_len = simcore.route_length(net, simcore.plan_route(net, av.edge_id)) \
        if route == "planned" else route
    if speed_limit is None:
        speed_limit = max(e.speed for e in net.edges)
    for agent in agents:
        # repr tells apart every float, signed zeros included
        assert repr(evalkit.performance(trace, route_len, speed_limit,
                                        agent.id)) == \
            repr(performance_series(ref, route_len, speed_limit, agent.id))


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

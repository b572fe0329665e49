import json
import random

import pytest

from scenarioforge import interpreter, ir
from scenarioforge.interpreter import (MockProvider, default_knowledge_base,
                                       integrate_forward_distance, interpret,
                                       interpret_response, strip_knowledge)


@pytest.fixture
def kb():
    return default_knowledge_base()


@pytest.fixture
def provider():
    return MockProvider()


# ---------------------------------------------------------------------------
# text input

def test_expand_cut_in_request(kb, provider):
    desc = interpret(ir.TextRequest("a car cuts in front of the ego vehicle"),
                     kb, provider)
    assert desc.scene_type == "General"
    assert desc.road.layout == "Straight"
    cars = [a for a in desc.agents if a.kind == "Car"]
    assert len(cars) >= 2
    assert any(a.intent == "cut-in" for a in cars)
    assert sum(1 for a in desc.agents if a.role == "AV") == 1


def test_expand_construction_request(kb, provider):
    desc = interpret(
        ir.TextRequest("two cars pass a construction zone at night"),
        kb, provider)
    assert desc.scene_type == "ConstructionZone"
    assert any(o.kind == "Cone" for o in desc.objects)
    assert any(o.kind == "WarningSign" for o in desc.objects)
    assert desc.weather.sun_altitude < 0
    assert len([a for a in desc.agents if a.kind == "Car"]) == 2


def test_expand_intersection_request(kb, provider):
    desc = interpret(ir.TextRequest("left turn across an intersection"),
                     kb, provider)
    assert desc.scene_type == "Intersection"
    assert desc.road.layout == "CrossIntersection"


def test_interpret_dispatches_long_text(kb, provider):
    text = ("On a rainy evening the ego vehicle was travelling along a two "
            "lane road when a truck ahead braked suddenly, and a pedestrian "
            "stepped off the curb near a warning sign.")
    assert len(text) >= interpreter.SHORT_REQUEST_THRESHOLD
    desc = interpret(ir.TextRequest(text), kb, provider)
    assert desc.weather.precipitation > 0
    assert any(a.kind == "Truck" for a in desc.agents)
    assert any(a.role == "VRU" for a in desc.agents)


def test_interpret_is_deterministic(kb):
    req = ir.TextRequest("a car cuts in on the highway")
    d1 = interpret(req, kb, MockProvider(seed=5), seed=3)
    d2 = interpret(req, kb, MockProvider(seed=5), seed=3)
    assert d1 == d2
    d3 = interpret(req, kb, MockProvider(seed=6), seed=3)
    assert ir.serialize_description(d1) != "" and isinstance(d3,
                                                             ir.ScenarioDescription)


def test_crash_report_restructuring(kb, provider):
    report = ("The driver stated that while proceeding through the "
              "crossing, a cyclist entered from the right and the vehicle "
              "swerved, striking a barrier on the far corner of the road.")
    desc = interpret(ir.CrashReport(report), kb, provider)
    assert desc.scene_type == "Intersection"
    assert any(a.kind == "Cyclist" and a.role == "VRU" for a in desc.agents)
    assert any(o.kind == "Barrier" for o in desc.objects)


# ---------------------------------------------------------------------------
# retry behavior

def test_retry_recovers_and_counts_attempts(kb):
    resp = interpret_response(ir.TextRequest("a car on a road"), kb,
                              MockProvider(fault="prose_once"))
    assert resp.attempt_count == 2
    assert resp.parsed is not None


def test_persistent_prose_exhausts_retries(kb):
    provider = MockProvider(fault="prose")
    with pytest.raises(interpreter.UnparseableAfterRetries):
        interpret(ir.TextRequest("a car on a road"), kb, provider,
                  max_retries=2)
    # initial attempt plus two retries
    assert provider._calls == 3


def test_empty_request_fails_after_retries(kb, provider):
    with pytest.raises(interpreter.UnparseableAfterRetries):
        interpret(ir.TextRequest(""), kb, provider)


def test_blueprint_reuse_surfaces_as_last_error(kb):
    provider = MockProvider(fault="blueprint_reuse")
    with pytest.raises(interpreter.UnparseableAfterRetries) as exc:
        interpret(ir.TextRequest("a car on a road"), kb, provider,
                  max_retries=1)
    assert isinstance(exc.value.last_error, ir.BlueprintReuse)


# ---------------------------------------------------------------------------
# image descriptors

def test_image_elements_preserved_exactly(kb, provider):
    img = ir.ImageDescriptor(
        captions=("vehicles queue near roadwork",),
        elements=(("car", 3), ("cone", 5)))
    desc = interpret(img, kb, provider)
    assert len([a for a in desc.agents if a.kind == "Car"]) == 3
    cones = [o for o in desc.objects if o.kind == "Cone"]
    assert len(cones) == 1 and cones[0].count == 5
    assert sum(1 for a in desc.agents if a.role == "AV") == 1


def test_image_plural_and_bus_detections(kb, provider):
    img = ir.ImageDescriptor(
        captions=("a bus stops at the crossing",),
        elements=(("buses", 1), ("pedestrians", 2)))
    desc = interpret(img, kb, provider)
    assert len([a for a in desc.agents if a.kind == "Bus"]) == 1
    assert len([a for a in desc.agents if a.kind == "Pedestrian"]) == 2


def test_image_needs_a_caption(kb, provider):
    with pytest.raises(ValueError):
        interpret(ir.ImageDescriptor(captions=(), elements=(("car", 1),)),
                  kb, provider)


# ---------------------------------------------------------------------------
# video descriptors and depth integration

def test_integrate_forward_distance_examples():
    assert integrate_forward_distance([50.0, 45.0, 40.0]) == pytest.approx(10.0)
    # receding landmark contributes nothing
    assert integrate_forward_distance([50.0, 55.0]) == 0.0
    assert integrate_forward_distance([30.0, 20.0, 25.0, 15.0]) == \
        pytest.approx(20.0)


def test_integrate_forward_distance_errors():
    with pytest.raises(interpreter.InsufficientFrames):
        integrate_forward_distance([42.0])
    with pytest.raises(interpreter.NonPositiveDepth):
        integrate_forward_distance([10.0, 0.0])
    with pytest.raises(interpreter.NonPositiveDepth):
        integrate_forward_distance([10.0, -3.0])


def test_integrate_forward_distance_properties():
    rng = random.Random(99)
    for _ in range(200):
        depths = [rng.uniform(1.0, 100.0) for _ in range(rng.randint(2, 12))]
        d = integrate_forward_distance(depths)
        assert d >= 0.0
        # appending a repeat of the last frame adds no distance
        assert integrate_forward_distance(depths + [depths[-1]]) == \
            pytest.approx(d)
        # monotone approach: distance equals total depth loss
        dec = sorted(depths, reverse=True)
        assert integrate_forward_distance(dec) == \
            pytest.approx(dec[0] - dec[-1])


def test_video_segment_length_from_depths(kb, provider):
    vid = ir.VideoDescriptor(
        frame_captions=("approaching a stopped car", "closing in", "stopped"),
        depth_samples=(50.0, 45.0, 40.0))
    desc = interpret(vid, kb, provider)
    assert len(desc.road.segments) == 1
    assert desc.road.segments[0].length == pytest.approx(10.0)


def test_video_eleven_frame_fixture(kb, provider):
    # landmark approached from 100 m to 47.5 m with one 2 m overshoot recovery
    depths = (100.0, 92.5, 85.0, 80.0, 82.0, 74.0, 68.0, 61.5, 55.0, 50.0,
              47.5)
    expected = sum(max(0.0, depths[i] - depths[i + 1])
                   for i in range(len(depths) - 1))
    assert expected == pytest.approx(54.5)
    vid = ir.VideoDescriptor(frame_captions=("f",) * 11, depth_samples=depths)
    desc = interpret(vid, kb, provider)
    assert desc.road.segments[0].length == pytest.approx(54.5)


def test_video_needs_two_depth_samples(kb, provider):
    vid = ir.VideoDescriptor(frame_captions=("a", "b"), depth_samples=(30.0,))
    with pytest.raises(interpreter.InsufficientFrames):
        interpret(vid, kb, provider)


# ---------------------------------------------------------------------------
# GPS input and provider plumbing

def test_gps_bbox_goes_through_expansion(kb, provider):
    bbox = ir.GpsBoundingBox(37.79, -122.41, 37.80, -122.40)
    desc = interpret(bbox, kb, provider)
    assert desc.road.segments
    assert desc.agents


def test_unsupported_input_type(kb, provider):
    with pytest.raises(TypeError):
        interpret(object(), kb, provider)


def test_http_provider_requires_endpoint(monkeypatch):
    monkeypatch.delenv("SCENARIOFORGE_ENDPOINT", raising=False)
    with pytest.raises(interpreter.ProviderUnavailable):
        interpreter.HttpProvider()


def test_http_provider_posts_prompt(http_server):
    http_server.replies.append(
        (200, b'{"text": "a scene"}', "application/json", 0.0))
    provider = interpreter.HttpProvider(http_server.url, model="m1",
                                        api_key="k3y")
    assert provider.complete("describe the road") == "a scene"
    (headers, body), = http_server.posts
    assert headers["Authorization"] == "Bearer k3y"
    assert json.loads(body) == {"model": "m1", "prompt": "describe the road"}


@pytest.mark.parametrize("status, body, delay", [
    (500, b'{"text": "a scene"}', 0.0),
    (200, b"<html>not json</html>", 0.0),
    (200, b'{"text": "a scene"}', 1.0),     # answers after the timeout
], ids=["http_500", "non_json", "timeout"])
def test_http_provider_failures_are_unavailable(http_server, status, body,
                                                delay):
    http_server.replies.append((status, body, "application/json", delay))
    provider = interpreter.HttpProvider(http_server.url, timeout=0.2)
    with pytest.raises(interpreter.ProviderUnavailable):
        provider.complete("describe the road")
    assert len(http_server.posts) == 1


def test_logging_provider_writes_pairs(tmp_path, kb):
    provider = interpreter.LoggingProvider(MockProvider(), str(tmp_path))
    interpret(ir.TextRequest("a car on a road"), kb, provider)
    prompts = sorted(p.name for p in tmp_path.glob("*-prompt.txt"))
    responses = sorted(p.name for p in tmp_path.glob("*-response.txt"))
    assert prompts == ["001-prompt.txt"]
    assert responses == ["001-response.txt"]
    assert "### TASK:" in (tmp_path / "001-prompt.txt").read_text()


# ---------------------------------------------------------------------------
# knowledge-base ablation

def test_strip_reasoning_section(kb):
    stripped = strip_knowledge(kb, no_reasoning_section=True)
    for text in stripped.templates.values():
        assert "### REASONING" not in text
    assert stripped.constraints == kb.constraints


def test_strip_prior_knowledge(kb):
    stripped = strip_knowledge(kb, no_prior_knowledge=True)
    assert stripped.constraints == ()
    assert stripped.code_examples == {}
    assert set(stripped.templates) == set(kb.templates)


def test_strip_interpreter_keeps_only_netgen(kb):
    stripped = strip_knowledge(kb, no_interpreter=True)
    assert set(stripped.templates) == {"netgen"}


def test_ablated_interpreter_yields_prose(kb, provider):
    stripped = strip_knowledge(kb, no_interpreter=True)
    with pytest.raises(interpreter.UnparseableAfterRetries):
        interpret(ir.TextRequest("a car on a road"), stripped, provider,
                  max_retries=1)

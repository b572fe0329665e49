import json
import random

import pytest

from scenarioforge import ir

from conftest import random_description


def make_description(**kw):
    base = dict(
        road=ir.RoadDescription(
            layout="Straight",
            segments=(ir.RoadSegment(100.0, 2, 0, 13.89),)),
        objects=(),
        agents=(ir.AgentDescription(kind="Car", role="AV"),),
        weather=ir.WeatherDescription(),
        narrative="two lane straight road",
        scene_type="General")
    base.update(kw)
    return ir.ScenarioDescription(**base)


def test_serialize_header_and_shape():
    doc = ir.serialize_description(make_description())
    data = json.loads(doc)
    assert data["format"] == "usd-v1"
    assert set(data) == {"format", "scene_type", "narrative", "road",
                         "objects", "agents", "weather"}
    assert doc.endswith("\n")


def test_serialize_is_sorted_and_deterministic():
    d = make_description()
    doc1 = ir.serialize_description(d)
    doc2 = ir.serialize_description(make_description())
    assert doc1 == doc2
    data = json.loads(doc1)
    assert list(data) == sorted(data)


def test_round_trip_identity():
    d = make_description(
        objects=(ir.ObjectDescription("Cone", 5, "taper"),),
        agents=(ir.AgentDescription("Car", "AV", color="white"),
                ir.AgentDescription("Truck", "BV", intent="cut-in",
                                    approx_speed=20.0)),
        scene_type="ConstructionZone")
    assert ir.parse_description(ir.serialize_description(d)) == d


def test_round_trip_random_descriptions():
    rng = random.Random(7)
    for _ in range(100):
        d = random_description(rng)
        doc = ir.serialize_description(d)
        assert ir.parse_description(doc) == d
        # a second serialize of the parsed value is byte-identical
        assert ir.serialize_description(ir.parse_description(doc)) == doc


def test_parse_missing_weather_section():
    data = json.loads(ir.serialize_description(make_description()))
    del data["weather"]
    with pytest.raises(ir.MissingSection) as exc:
        ir.parse_description(json.dumps(data))
    assert exc.value.section == "weather"


@pytest.mark.parametrize("section, value, missing", [
    ("objects", None, "objects"),
    ("agents", {"kind": "Car", "role": "AV"}, "agents"),
    ("road", "segments", "road"),
    ("road", {"layout": "Straight", "segments": [5]}, "segments"),
    ("road", {"layout": "Straight", "segments": {}}, "segments"),
    ("weather", [], "weather"),
], ids=["null_objects", "object_agents", "string_road", "number_segment",
        "object_segments", "list_weather"])
def test_parse_wrong_section_type_is_missing(section, value, missing):
    data = json.loads(ir.serialize_description(make_description()))
    data[section] = value
    with pytest.raises(ir.MissingSection) as exc:
        ir.parse_description(json.dumps(data))
    assert exc.value.section == missing


# a text field present with a value that is not a JSON string
@pytest.mark.parametrize("path, value", [
    (("narrative",), None),
    (("narrative",), ["two", "cars"]),
    (("road", "junction_notes"), {"note": "x"}),
    (("road", "junction_notes"), 3),
    (("objects", 0, "placement_hint"), None),
    (("agents", 0, "intent"), None),
    (("agents", 0, "intent"), ["cut-in"]),
    (("agents", 0, "relative_position"), {}),
    (("agents", 0, "relative_position"), True),
    (("agents", 0, "color"), ["red"]),
    (("agents", 0, "color"), {"rgb": "red"}),
    (("agents", 0, "color"), 0),
], ids=["null_narrative", "list_narrative", "object_junction_notes",
        "number_junction_notes", "null_placement_hint", "null_intent",
        "list_intent", "object_relative_position", "bool_relative_position",
        "list_color", "object_color", "number_color"])
def test_parse_non_string_text_field_is_missing(path, value):
    data = json.loads(ir.serialize_description(make_description(
        objects=(ir.ObjectDescription("Cone", 5, "taper"),))))
    record = data
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    with pytest.raises(ir.MissingSection) as exc:
        ir.parse_description(json.dumps(data))
    assert exc.value.section == path[-1]


def test_parse_text_fields_may_be_absent_and_color_null():
    data = json.loads(ir.serialize_description(make_description(
        objects=(ir.ObjectDescription("Cone", 5, "taper"),),
        agents=(ir.AgentDescription("Car", "AV", color="red"),))))
    for record, key in ((data, "narrative"), (data["road"], "junction_notes"),
                        (data["objects"][0], "placement_hint"),
                        (data["agents"][0], "intent"),
                        (data["agents"][0], "relative_position")):
        del record[key]
    data["agents"][0]["color"] = None
    assert ir.parse_description(json.dumps(data)) == make_description(
        narrative="", objects=(ir.ObjectDescription("Cone", 5),),
        agents=(ir.AgentDescription("Car", "AV"),))


def test_parse_missing_format_header():
    data = json.loads(ir.serialize_description(make_description()))
    del data["format"]
    with pytest.raises(ir.MissingSection):
        ir.parse_description(json.dumps(data))


def test_parse_rejects_non_json():
    with pytest.raises(ir.MissingSection):
        ir.parse_description("not a document")


def test_precipitation_out_of_range():
    with pytest.raises(ir.RangeViolation) as exc:
        ir.WeatherDescription(precipitation=1.5)
    assert exc.value.field == "precipitation"
    data = json.loads(ir.serialize_description(make_description()))
    data["weather"]["precipitation"] = -0.1
    with pytest.raises(ir.RangeViolation):
        ir.parse_description(json.dumps(data))


def test_invalid_scene_type():
    with pytest.raises(ir.InvalidEnum):
        make_description(scene_type="Motorway")


def test_invalid_agent_kind():
    with pytest.raises(ir.InvalidEnum):
        ir.AgentDescription(kind="Tank", role="BV")


def test_blueprint_reuse_detected():
    with pytest.raises(ir.BlueprintReuse):
        ir.AgentDescription(kind="Bus.Bus", role="BV")


def test_vru_kinds_force_vru_role():
    with pytest.raises(ir.InvalidEnum):
        ir.AgentDescription(kind="Pedestrian", role="BV")
    a = ir.AgentDescription(kind="Pedestrian", role="VRU")
    assert a.role == "VRU"


def test_at_most_one_av():
    with pytest.raises(ir.InvalidEnum):
        make_description(agents=(ir.AgentDescription("Car", "AV"),
                                 ir.AgentDescription("Car", "AV")))


def test_segment_requires_positive_length_and_a_lane():
    with pytest.raises(ir.RangeViolation):
        ir.RoadSegment(0.0, 1, 0, 13.89)
    with pytest.raises(ir.RangeViolation):
        ir.RoadSegment(100.0, 0, 0, 13.89)


# a JSON value int() or float() refuses, or one float() turns into a NaN or
# an infinity, spliced into a serialized document
@pytest.mark.parametrize("path, value, field", [
    (("objects", 0, "count"), "null", "object.count"),
    (("objects", 0, "count"), "1e400", "object.count"),
    (("road", "segments", 0, "lanes_forward"), "[1]", "lanes"),
    (("road", "segments", 0, "lanes_backward"), "{}", "lanes"),
    (("road", "segments", 0, "length"), "1" + "0" * 400, "length"),
    (("agents", 0, "approx_speed"), "1" + "0" * 400, "agent.approx_speed"),
    (("agents", 0, "approx_speed"), '"nan"', "agent.approx_speed"),
    (("road", "segments", 0, "length"), '"1e999"', "length"),
    (("road", "segments", 0, "speed_limit"), "Infinity", "speed_limit"),
    (("weather", "precipitation"), '"nan"', "precipitation"),
], ids=["null_count", "infinite_count", "list_lanes_forward",
        "object_lanes_backward", "huge_length", "huge_approx_speed",
        "nan_approx_speed", "infinite_length", "infinite_speed_limit",
        "nan_precipitation"])
def test_parse_unconvertible_number_is_range_violation(path, value, field):
    data = json.loads(ir.serialize_description(make_description(
        objects=(ir.ObjectDescription("Cone", 5),))))
    record = data
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = "@"
    doc = json.dumps(data).replace('"@"', value)
    with pytest.raises(ir.RangeViolation) as exc:
        ir.parse_description(doc)
    assert exc.value.field == field


def test_int_fields_keep_their_coercion():
    assert ir.ObjectDescription("Cone", "2").count == 2
    segment = ir.RoadSegment(100.0, 1.5, True, 13.89)
    assert (segment.lanes_forward, segment.lanes_backward) == (1, 1)


def test_road_requires_segments():
    with pytest.raises(ir.MissingSection):
        ir.RoadDescription(layout="Straight", segments=())


def test_object_count_positive():
    with pytest.raises(ir.RangeViolation):
        ir.ObjectDescription("Cone", 0)


def test_gps_bbox_ordering():
    with pytest.raises(ir.RangeViolation):
        ir.GpsBoundingBox(10.0, 5.0, 9.0, 6.0)
    bb = ir.GpsBoundingBox(10.0, 5.0, 10.1, 5.1)
    assert bb.max_lat > bb.min_lat


def test_image_detection_counts_positive():
    # a count below 1 is an input error before any provider call
    for elements in ((("car", -2),), (("car", 2), ("cones", 0))):
        with pytest.raises(ir.RangeViolation) as info:
            ir.ImageDescriptor(captions=("roadwork ahead",),
                               elements=elements)
        assert info.value.field == "image.elements"


def test_video_needs_two_frames():
    with pytest.raises(ir.RangeViolation):
        ir.VideoDescriptor(("one frame",), (10.0,))


def test_bundle_requires_exactly_one_av():
    d = make_description()

    class _A:
        def __init__(self, role):
            self.role = role

    with pytest.raises(ir.InvalidEnum):
        ir.ScenarioBundle(description=d, network=None,
                          agents=(_A("BV"),), objects=())

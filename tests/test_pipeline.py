import json
import math
import os
import subprocess
import sys

import pytest

from scenarioforge import compgen, ir, netgen, pipeline

from test_netgen import OSM_FIXTURE


def make_cfg(tmp_path, **kw):
    base = dict(output_dir=str(tmp_path / "out"), duration=5.0, dt=0.1,
                variations=1, global_seed=0)
    base.update(kw)
    return pipeline.PipelineConfig(**base)


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name to record each call; the list grows per call."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_pipeline_happy_path(tmp_path, monkeypatch):
    serialized = count_calls(monkeypatch, netgen, "serialize_sumo_xml")
    cfg = make_cfg(tmp_path)
    m = pipeline.run_pipeline(
        ir.TextRequest("a car cuts in front of the ego vehicle"), cfg,
        run_id="t0")
    assert m.ok
    # once for the mock provider's response, once for the written network
    assert len(serialized) == 2
    assert all(m.stages[s] == "ok" for s in pipeline.STAGES)
    assert set(m.artifacts) == {"description", "network_nodes",
                                "network_edges", "bundle", "trace", "report"}
    for path in m.artifacts.values():
        assert os.path.exists(path)
    run_dir = tmp_path / "out" / "runs" / "t0-0"
    assert (run_dir / "manifest.json").exists()
    assert list((run_dir / "prompts").glob("*-prompt.txt"))
    report = json.loads((run_dir / "report.json").read_text())
    assert report["performance"]["route_completion"] >= 0.0
    assert report["behavior_model"]
    assert 0.0 <= report["objective_distance"] <= 2.0


def load_bundle(manifest):
    """The bundle as read back from description.json and bundle.json."""
    with open(manifest.artifacts["description"], encoding="utf-8") as fh:
        desc = ir.parse_description(fh.read())
    with open(manifest.artifacts["bundle"], encoding="utf-8") as fh:
        data = json.load(fh)
    assert ir.parse_description(json.dumps(data["description"])) == desc
    nodes = tuple(netgen.Node(**n) for n in data["network"]["nodes"])
    edges = tuple(netgen.Edge(
        id=e["id"], from_node=e["from_node"], to_node=e["to_node"],
        num_lanes=e["num_lanes"], speed=e["speed"],
        spread_type=e["spread_type"],
        lanes=tuple(netgen.Lane(index=l["index"],
                                shape=tuple(map(tuple, l["shape"])))
                    for l in e["lanes"]))
        for e in data["network"]["edges"])
    connections = tuple(netgen.Connection(*c)
                        for c in data["network"]["connections"])
    net = netgen.RoadNetwork(nodes, edges, connections)
    agents = tuple(compgen.AgentState(**a) for a in data["agents"])
    objects = tuple(compgen.PlacedObject(
        kind=o["kind"], x=o["x"], y=o["y"], yaw=o["yaw"],
        footprint=tuple(o["footprint"])) for o in data["objects"])
    return ir.ScenarioBundle(description=desc, network=net, agents=agents,
                             objects=objects, weather=desc.weather,
                             seed=data["seed"])


@pytest.mark.parametrize("text", [
    "a car cuts in front of the ego vehicle",
    "construction zone lane closure with cones and two cars",
    "busy intersection left turn conflict with three vehicles",
])
def test_bundle_artifacts_round_trip_to_manifest_bundle(tmp_path, text):
    m = pipeline.run_pipeline(ir.TextRequest(text), make_cfg(tmp_path),
                              seed=3, run_id="rt")
    assert m.ok
    assert m.bundle is not None
    assert "bundle" not in m.to_dict()
    assert load_bundle(m) == m.bundle
    with open(m.artifacts["bundle"], encoding="utf-8") as fh:
        text = fh.read()
    assert text.index("\n") == len(text) - 1   # compact: one line


def test_default_run_ids_do_not_collide(tmp_path):
    cfg = make_cfg(tmp_path)
    source = ir.TextRequest("a car cuts in front of the ego vehicle")
    manifests = [pipeline.run_pipeline(source, cfg) for _ in range(2)]
    runs_dir = tmp_path / "out" / "runs"
    assert len(list(runs_dir.iterdir())) == 2
    assert manifests[0].run_id != manifests[1].run_id
    for m in manifests:
        run_dir = runs_dir / f"{m.run_id}-{m.seed}"
        on_disk = json.loads((run_dir / "manifest.json").read_text())
        assert on_disk == m.to_dict()
        files = {p.name for p in run_dir.iterdir() if p.is_file()}
        assert files == {"manifest.json"} | {
            os.path.basename(path) for path in m.artifacts.values()}
        for path in m.artifacts.values():
            assert os.path.dirname(path) == str(run_dir)


def test_run_pipeline_netgen_fault(tmp_path):
    cfg = make_cfg(tmp_path, provider_fault="hash_ids")
    m = pipeline.run_pipeline(ir.TextRequest("a car on a road"), cfg,
                              run_id="t1")
    assert not m.ok
    assert m.stages["interpret"] == "ok"
    assert m.stages["netgen"] == "error:MalformedKeyword"
    assert m.stages["compgen"] == "skipped"
    assert m.stages["simulate"] == "skipped"
    assert m.failure == "MalformedKeyword"
    assert m.bundle is None
    # the manifest still lands on disk for failed runs
    assert (tmp_path / "out" / "runs" / "t1-0" / "manifest.json").exists()


def test_run_pipeline_interpret_fault(tmp_path):
    cfg = make_cfg(tmp_path, provider_fault="prose")
    m = pipeline.run_pipeline(ir.TextRequest("a car on a road"), cfg,
                              run_id="t2")
    assert m.stages["interpret"] == "error:RuntimeError"
    assert m.failure == "RuntimeError"


def test_run_pipeline_blueprint_reuse_fault(tmp_path):
    cfg = make_cfg(tmp_path, provider_fault="blueprint_reuse")
    m = pipeline.run_pipeline(ir.TextRequest("a car on a road"), cfg,
                              run_id="t3")
    assert m.failure == "BlueprintReuse"


def test_run_pipeline_gps_with_fixture(tmp_path, monkeypatch):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE, encoding="utf-8")
    cfg = make_cfg(tmp_path, osm_fixture=str(fixture))
    bbox = ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002)
    serialized = count_calls(monkeypatch, netgen, "serialize_sumo_xml")
    m = pipeline.run_pipeline(bbox, cfg, run_id="gps")
    assert m.ok, m.stages
    # ingest_osm validates the documents that are then written
    assert len(serialized) == 1
    xml = (tmp_path / "out" / "runs" / "gps-0" / "network.edg.xml").read_text()
    assert "osm" in xml  # the network came from the extract, not a blueprint


def test_classify_failure():
    err = netgen.CompileFailed([netgen.ValidationError("MalformedKeyword",
                                                       "edge", "e#0")])
    assert pipeline.classify_failure(err) == "MalformedKeyword"
    err = netgen.CompileFailed([netgen.ValidationError("InvalidEnum", "edge",
                                                       "spreadType=left")])
    assert pipeline.classify_failure(err) == "ValidationError"
    from scenarioforge.interpreter import UnparseableAfterRetries
    assert pipeline.classify_failure(
        UnparseableAfterRetries(ir.BlueprintReuse("kind", "Car.Car"))) == \
        "BlueprintReuse"
    assert pipeline.classify_failure(
        UnparseableAfterRetries(ValueError("x"))) == "RuntimeError"
    assert pipeline.classify_failure(ir.MissingSection("weather")) == \
        "ValidationError"
    assert pipeline.classify_failure(RuntimeError("boom")) == "RuntimeError"


def test_load_config_json_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"duration": 12.0, "min_gap": 3.0}))
    cfg = pipeline.load_config(str(path), global_seed=9)
    assert cfg.duration == 12.0
    assert cfg.min_gap == 3.0
    assert cfg.global_seed == 9

    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(dt=0.0)
    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(dt=0.6)
    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(variations=0)
    for bad_field in ({"min_gap": 0.0}, {"min_gap": -1.0},
                      {"min_gap": math.nan}, {"max_agents": 0},
                      {"duration": 0.0}, {"duration": -5.0}):
        with pytest.raises(pipeline.ConfigError):
            pipeline.PipelineConfig(**bad_field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(pipeline.ConfigError):
        pipeline.load_config(str(bad))


def test_make_provider_kinds(tmp_path):
    cfg = make_cfg(tmp_path)
    from scenarioforge.interpreter import MockProvider
    assert isinstance(pipeline.make_provider(cfg), MockProvider)
    cfg.provider_kind = "carrier-pigeon"
    with pytest.raises(pipeline.ConfigError):
        pipeline.make_provider(cfg)


def test_run_batch_aggregates(tmp_path, monkeypatch):
    stats_calls = []
    network_stats = netgen.network_stats
    monkeypatch.setattr(netgen, "network_stats",
                        lambda net: stats_calls.append(net) or
                        network_stats(net))
    cfg = make_cfg(tmp_path, variations=2)
    inputs = [ir.TextRequest("a car cuts in on the highway"),
              ir.TextRequest("construction zone with cones")]
    agg = pipeline.run_batch(inputs, cfg)
    assert agg["runs"] == 4
    # evaluate and the aggregate share one computation per network
    assert len(stats_calls) == 4
    assert agg["ok"] == 4
    assert agg["conformity"]["success_rate"] == pytest.approx(1.0)
    assert agg["conformity"]["scene_type_acc"] == pytest.approx(1.0)
    assert set(agg["diversity"]) == set(
        ("#Lanes", "#Edges", "Route Length", "#Agents", "#Objects",
         "Shortest", "Vehicle yaw"))
    assert os.path.exists(tmp_path / "out" / "aggregate.json")


def test_run_batch_is_deterministic(tmp_path):
    inputs = [ir.TextRequest("two cars near a junction")]
    agg_a = pipeline.run_batch(inputs, make_cfg(tmp_path / "a", variations=2))
    agg_b = pipeline.run_batch(inputs, make_cfg(tmp_path / "b", variations=2))
    bytes_a = (tmp_path / "a" / "out" / "aggregate.json").read_bytes()
    bytes_b = (tmp_path / "b" / "out" / "aggregate.json").read_bytes()
    assert bytes_a == bytes_b
    assert agg_a == agg_b


def test_run_batch_records_partial_failures(tmp_path):
    cfg = make_cfg(tmp_path, provider_fault="hash_ids")
    agg = pipeline.run_batch([ir.TextRequest("a car on a road")], cfg)
    assert agg["ok"] == 0
    assert agg["conformity"]["success_rate"] == 0.0
    assert agg["conformity"]["failure_taxonomy_counts"][
        "MalformedKeyword"] == 1


def test_run_batch_needs_inputs(tmp_path):
    with pytest.raises(pipeline.ConfigError):
        pipeline.run_batch([], make_cfg(tmp_path))


def test_ablate_table(tmp_path):
    cfg = make_cfg(tmp_path)
    result = pipeline.ablate(cfg)
    assert result["rows"] == list(pipeline.ABLATION_ROWS)
    rates = result["success_rate"]
    assert rates["Ours"] == pytest.approx(1.0)
    assert rates["without interpreter"] == 0.0
    # removing prompt scaffolding can only hurt
    for row in pipeline.ABLATION_ROWS[1:]:
        assert rates[row] <= rates["Ours"]
    text = pipeline.format_ablation(result)
    for row in pipeline.ABLATION_ROWS:
        assert row in text
    assert os.path.exists(tmp_path / "out" / "ablation.json")


def test_run_comparison_small(tmp_path):
    cfg = make_cfg(tmp_path, duration=5.0)
    report = pipeline.run_comparison(cfg, n_networks=2, n_inits=2)
    assert report["rows"] == list(
        ("Route completion", "Driving score", "Total score", "Use Time",
         "Success rate", "Collision rate"))
    for arm in ("ours", "baseline"):
        assert set(report[arm]) == set(report["rows"])
    assert os.path.exists(tmp_path / "out" / "comparison.json")


RUNTIME_IMPORTS_SCRIPT = """
import sys
at_startup = set(sys.modules)   # whatever site and .pth files load
from scenarioforge import ir, pipeline
out, fixture = sys.argv[1:]
cfg = pipeline.PipelineConfig(output_dir=out, duration=5.0)
m = pipeline.run_pipeline(ir.TextRequest("two cars near a junction"), cfg)
assert m.failure is None, m.failure
cfg = pipeline.PipelineConfig(output_dir=out, duration=5.0,
                              osm_fixture=fixture)
bbox = ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002)
m = pipeline.run_pipeline(bbox, cfg, run_id="osm")
assert m.failure is None, m.failure
loaded = {name.split(".")[0] for name in set(sys.modules) - at_startup}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names)
                      - {"scenarioforge"})))
"""


def test_mock_run_imports_no_test_only_dependency(tmp_path):
    # the runtime is the standard library alone: a mock run and an OSM
    # fixture run load no other top-level module
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_IMPORTS_SCRIPT, str(tmp_path / "out"),
         str(fixture)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

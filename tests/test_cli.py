import json

import pytest

from scenarioforge import cli, interpreter, pipeline

from test_netgen import OSM_FIXTURE
from validator_cases import GOOD_EDGES, GOOD_NODES


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_happy_path(tmp_path, capsys):
    code = run_cli("run", "--text", "a car cuts in front of the ego vehicle",
                   "--output-dir", str(tmp_path), "--seed", "1",
                   "--duration", "5")
    assert code == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["failure"] is None
    assert len(manifest["artifacts"]) >= 5
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    names = {p.name for p in run_dirs[0].iterdir()}
    assert {"description.json", "network.nod.xml", "network.edg.xml",
            "bundle.json", "trace.jsonl", "report.json",
            "manifest.json"} <= names


def test_run_text_file_input(tmp_path, capsys):
    req = tmp_path / "req.txt"
    req.write_text("two cars near a construction zone\n")
    code = run_cli("run", "--text-file", str(req),
                   "--output-dir", str(tmp_path / "out"), "--duration", "5")
    assert code == 0


def test_run_crash_report_input(tmp_path, capsys):
    rep = tmp_path / "crash.txt"
    rep.write_text("The vehicle entered the intersection and struck a "
                   "cyclist crossing from the right side of the road.")
    code = run_cli("run", "--crash-report", str(rep),
                   "--output-dir", str(tmp_path / "out"), "--duration", "5")
    assert code == 0


def test_run_provider_fault_exits_nonzero(tmp_path, capsys):
    code = run_cli("run", "--text", "a car", "--provider-fault", "hash_ids",
                   "--output-dir", str(tmp_path))
    assert code == 1
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["failure"] == "MalformedKeyword"


def test_run_without_input_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--output-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{bad",
                                     b"[1, 2]", b'"a string"'],
                         ids=["missing", "not_utf8", "not_json",
                              "json_list", "json_string"])
def test_run_malformed_config_is_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    code = run_cli("run", "--text", "a car", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, content, flags", [
    ("run", '{"duration": Infinity}', ()),
    ("run", None, ("--duration", "inf")),
    ("run", '{"min_gap": Infinity}', ()),
    ("run", '{"global_seed": 1.5}', ()),
    ("batch", '{"variations": 1.5}', ()),
    # a finite duration that asks for too many steps
    ("run", None, ("--duration", "1e308")),
    ("run", '{"provider_kind": "bogus"}', ()),
], ids=["duration_inf", "duration_flag_inf", "min_gap_inf",
        "fractional_seed", "fractional_variations", "duration_flag_1e308",
        "bogus_provider_kind"])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, content,
                                          flags):
    """A wrong type, a non-finite number, a step count above the bound or an
    unknown provider kind ends before any run starts."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content or "{}")
    code = run_cli(command, "--text", "a car", "--config", str(cfg), *flags,
                   "--output-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_run_bbox_with_fixture(tmp_path, capsys):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE)
    code = run_cli("run", "--bbox=-0.001,-0.001,0.003,0.002",
                   "--osm-fixture", str(fixture),
                   "--output-dir", str(tmp_path / "out"), "--duration", "5")
    assert code == 0


def test_run_invalid_dt_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--text", "a car", "--dt", "0.7",
                   "--output-dir", str(tmp_path))
    assert code == 2


def test_run_zero_min_gap_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--text", "a car", "--min-gap", "0",
                   "--output-dir", str(tmp_path))
    assert code == 2
    # rejected before any stage ran
    assert not (tmp_path / "runs").exists()


def test_place_zero_min_gap_is_config_error(monkeypatch, capsys):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(pipeline, "interpret", no_stage)
    code = run_cli("place", "--text", "a car", "--min-gap", "0")
    assert code == 2
    assert "min_gap" in capsys.readouterr().err


def test_batch_fixtures(tmp_path, capsys):
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("a car cuts in on the highway\n"
                        "construction zone with three cones\n")
    code = run_cli("batch", "--fixtures", str(fixtures),
                   "--output-dir", str(tmp_path / "out"),
                   "--variations", "1", "--duration", "5")
    assert code == 0
    out = capsys.readouterr().out
    assert "Route Length" in out
    assert (tmp_path / "out" / "aggregate.json").exists()


def test_batch_needs_input(tmp_path, capsys):
    assert run_cli("batch", "--output-dir", str(tmp_path)) == 2


def test_ablate_command(tmp_path, capsys):
    code = run_cli("ablate", "--output-dir", str(tmp_path), "--duration", "5")
    assert code == 0
    out = capsys.readouterr().out
    for row in ("Ours", "without interpreter", "without prior knowledge",
                "without reasoning section"):
        assert row in out


def test_compare_command(tmp_path, capsys):
    code = run_cli("compare", "--networks", "2", "--inits", "2",
                   "--output-dir", str(tmp_path), "--duration", "5")
    assert code == 0
    out = capsys.readouterr().out
    assert "Collision rate" in out
    assert "RandomTrip" in out
    assert "Failed runs" not in out


def test_compare_counts_failed_runs(tmp_path, capsys):
    # every interpret call answers prose: each run of both arms fails, the
    # table and comparison.json still come out, and the exit code says so
    code = run_cli("compare", "--provider-fault", "prose", "--networks", "2",
                   "--inits", "2", "--output-dir", str(tmp_path),
                   "--duration", "5")
    assert code == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1].split() == ["Failed", "runs", "4", "4"]
    assert (tmp_path / "comparison.json").exists()


@pytest.mark.parametrize("count", [["--networks", "0"], ["--inits", "0"],
                                   ["--networks=-1"], ["--inits=-3"]])
def test_compare_rejects_counts_below_one(tmp_path, capsys, count):
    code = run_cli("compare", *count, "--output-dir", str(tmp_path))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "comparison.json").exists()


def test_eval_reprints_aggregate(tmp_path, capsys):
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("a car on a straight road\n")
    run_cli("batch", "--fixtures", str(fixtures),
            "--output-dir", str(tmp_path / "out"), "--variations", "1",
            "--duration", "5")
    capsys.readouterr()
    code = run_cli("eval", str(tmp_path / "out" / "aggregate.json"))
    assert code == 0
    assert "success_rate" in capsys.readouterr().out


def test_netgen_compile_and_stats(tmp_path, capsys):
    prefix = str(tmp_path / "net")
    assert run_cli("netgen", "compile", "--text", "a two lane straight road",
                   "--out-prefix", prefix) == 0
    capsys.readouterr()
    assert run_cli("netgen", "stats", prefix + ".nod.xml",
                   prefix + ".edg.xml") == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total_edges"] >= 1
    assert stats["total_lanes"] >= 1


STATS_NODES = """<nodes>
    <node id="a" x="0.0" y="0.0" type="priority"/>
    <node id="b" x="120.0" y="0.0" type="priority"/>
    <node id="c" x="120.0" y="90.0" type="traffic_light"/>
    <node id="d" x="5.5" y="90.5" type="priority"/>
</nodes>"""

STATS_EDGES = """<edges>
    <edge id="ab" from="a" to="b" numLanes="2" speed="13.89" spreadType="right"/>
    <edge id="ba" from="b" to="a" numLanes="1" speed="13.89" spreadType="right"/>
    <edge id="bc" from="b" to="c" numLanes="1" speed="13.89" spreadType="right"/>
    <edge id="cb" from="c" to="b" numLanes="1" speed="13.89" spreadType="right"/>
    <edge id="cd" from="c" to="d" numLanes="1" speed="13.89" spreadType="right"/>
    <edge id="dc" from="d" to="c" numLanes="1" speed="13.89" spreadType="right"/>
    <edge id="da" from="d" to="a" numLanes="1" speed="13.89" spreadType="right">
        <lane index="0" shape="5.5,90.5 -20.0,45.0 0.0,0.0"/>
    </edge>
</edges>"""


def test_netgen_stats_output_bytes(tmp_path, capsys):
    # four junctions, a one-way edge with a lane shape: every field non-zero
    (tmp_path / "n.xml").write_text(STATS_NODES)
    (tmp_path / "e.xml").write_text(STATS_EDGES)
    assert run_cli("netgen", "stats", str(tmp_path / "n.xml"),
                   str(tmp_path / "e.xml")) == 0
    assert capsys.readouterr().out == """{
  "pairwise_junction_distance": 118.51916214858947,
  "route_length": 324.5010916978524,
  "total_edges": 7,
  "total_lanes": 8
}
"""


def test_netgen_validate(tmp_path, capsys):
    good_n = tmp_path / "n.xml"
    good_e = tmp_path / "e.xml"
    good_n.write_text(GOOD_NODES)
    good_e.write_text(GOOD_EDGES)
    assert run_cli("netgen", "validate", str(good_n), str(good_e)) == 0
    bad_e = tmp_path / "bad.xml"
    bad_e.write_text(GOOD_EDGES.replace('spreadType="right"',
                                        'spreadType="left"'))
    assert run_cli("netgen", "validate", str(good_n), str(bad_e)) == 1
    assert "InvalidEnum" in capsys.readouterr().out
    nan_n = tmp_path / "nan.xml"
    nan_n.write_text(GOOD_NODES.replace('x="100.0"', 'x="nan"'))
    assert run_cli("netgen", "validate", str(nan_n), str(good_e)) == 1
    assert "InvalidEnum(node: x=nan)" in capsys.readouterr().out


def test_netgen_osm_from_extract(tmp_path, capsys):
    extract = tmp_path / "extract.osm"
    extract.write_text(OSM_FIXTURE)
    prefix = str(tmp_path / "osm-net")
    code = run_cli("netgen", "osm", "--bbox=-0.001,-0.001,0.003,0.002",
                   "--extract", str(extract), "--out-prefix", prefix)
    assert code == 0
    assert (tmp_path / "osm-net.nod.xml").exists()
    assert (tmp_path / "osm-net.edg.xml").exists()
    # an absolute prefix: the two paths stay apart
    assert capsys.readouterr().out == (
        f"5 edges -> {prefix}.nod.xml / {prefix}.edg.xml\n")


def test_netgen_osm_without_drivable_way_fails(tmp_path, capsys):
    extract = tmp_path / "empty.osm"
    extract.write_text('<osm version="0.6"></osm>')
    code = run_cli("netgen", "osm", "--bbox=0,0,0.001,0.001",
                   "--extract", str(extract),
                   "--out-prefix", str(tmp_path / "n"))
    assert code == 1
    assert capsys.readouterr().err == \
        "error: no drivable highway ways in extract\n"
    assert [p.name for p in tmp_path.iterdir()] == ["empty.osm"]


@pytest.mark.parametrize("command", [
    ["place", "--text", "a car cuts in"],
    ["netgen", "compile", "--text", "a two lane straight road"]],
    ids=["place", "netgen_compile"])
def test_stage_command_with_prose_answers_fails(tmp_path, capsys,
                                                monkeypatch, command):
    monkeypatch.setattr(interpreter.MockProvider, "complete",
                        lambda provider, prompt: "A straight road.")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: provider output unparseable after "
                            "retries: missing section: document\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bbox", ["1,2,3", "a,b,c,d", "3,0,1,1",
                                  "-inf,0,1,1", "0,0,91,1"])
@pytest.mark.parametrize("command", ["run", "netgen osm"])
def test_malformed_bbox_is_config_error(tmp_path, capsys, command, bbox):
    extra = (["--osm-fixture", "unused.osm", "--output-dir", str(tmp_path)]
             if command == "run" else
             ["--extract", "unused.osm", "--out-prefix", str(tmp_path / "n")])
    code = run_cli(*command.split(), f"--bbox={bbox}", *extra)
    assert code == 2
    assert "bbox" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_place_command(capsys):
    code = run_cli("place", "--text", "a car cuts in ahead of the ego car",
                   "--seed", "4")
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) >= 2
    assert any("AV" in line for line in out)

"""Command line driver tests.

Exit codes: 0 all checks pass, 1 a check failed, 2 the input could not
be loaded or validated.
"""

import json

import pytest

from gcstar.cli import emit_report, main, parse_preset
from gcstar.fingroupoid import fixture, groupoid_to_dict
from gcstar.report import Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_groupoid(tmp_path, name="P2", corrupt=None):
    gpd, w = fixture(name)
    data = groupoid_to_dict(gpd, w)
    if corrupt:
        corrupt(data)
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_fixture_ok(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "Z2")
    assert code == 0
    assert "OK" in out


def test_validate_broken_file_exits_2(capsys, tmp_path):
    def corrupt(data):
        data["inverse"]["(1, 2)"] = "(1, 2)"
    path = write_groupoid(tmp_path, corrupt=corrupt)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "FAIL" in out


def test_other_commands_reject_broken_input(capsys, tmp_path):
    def corrupt(data):
        data["inverse"]["(1, 2)"] = "(1, 2)"
    path = write_groupoid(tmp_path, corrupt=corrupt)
    code, _, err = run(capsys, "families", path)
    assert code == 2
    assert "error:" in err


def test_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "families", "--preset", "Q9")
    assert code == 2
    assert "unknown preset" in err


@pytest.mark.parametrize("preset", ["group", "group:0", "group:x",
                                    "pair:0", "transformation:0",
                                    "random:abc"])
def test_bad_sized_preset_exits_2(capsys, preset):
    code, _, err = run(capsys, "validate", "--preset", preset)
    assert code == 2
    assert f"preset {preset!r}" in err
    assert "Traceback" not in err


def test_fixture_preset_rejects_params():
    with pytest.raises(ValueError):
        parse_preset("Z2:3")


def test_parse_preset_constructions():
    gpd, w = parse_preset("group:4")
    assert len(gpd.arrows) == 4
    gpd, w = parse_preset("pair:3")
    assert len(gpd.arrows) == 9
    gpd, w = parse_preset("space:5")
    assert len(gpd.arrows) == 5
    gpd, w = parse_preset("transformation:3")
    assert len(gpd.arrows) == 9
    g1, w1 = parse_preset("random", seed=5)
    g2, w2 = parse_preset("random", seed=5)
    assert g1.arrows == g2.arrows


def test_families_and_algebra_pass(capsys):
    for cmd in ("families", "algebra"):
        code, out, _ = run(capsys, cmd, "--preset", "W2", "--trials", "3")
        assert code == 0, out
        assert out.strip().endswith("OK")


def test_rep_integrate_disintegrate_roundtrip(capsys):
    for cmd in ("rep", "integrate", "disintegrate", "roundtrip"):
        code, out, _ = run(capsys, cmd, "--preset", "P2", "--trials", "2",
                           "--seed", "3")
        assert code == 0, f"{cmd}: {out}"


def test_algebra_json_payload_p2(capsys):
    code, out, _ = run(capsys, "algebra", "--preset", "P2", "--json",
                       "--trials", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "algebra"
    assert doc["ok"] is True
    assert doc["params"]["preset"] == "P2"
    rows = {(g, h): entries for g, h, entries in doc["product"]}
    assert rows[("(1, 2)", "(2, 1)")] == {"(1, 1)": 1.0}
    assert rows[("(1, 2)", "(1, 2)")] == {}
    assert doc["inorm"]["(1, 2)"] == 1.0
    assert doc["cstarnorm"]["(1, 2)"] == pytest.approx(1.0, abs=1e-12)


def test_json_deterministic_modulo_timings(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "families", "--preset", "T2", "--json",
                           "--trials", "2", "--seed", "9")
        assert code == 0
        outs.append(out[: out.index('"timings"')])
    assert outs[0] == outs[1]


def test_rep_bundle(capsys, tmp_path):
    gpd, w = fixture("Z2")
    bundle = {
        "groupoid": groupoid_to_dict(gpd, w),
        "dims": {"x": 1},
        "U": {"0": [[[1.0, 0.0]]], "1": [[[1.0, 0.0]]]},
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, _ = run(capsys, "rep", "--bundle", str(path))
    assert code == 0, out


def test_bundle_dims_missing_object_exits_2(capsys, tmp_path):
    gpd, w = fixture("P2")
    bundle = {"groupoid": groupoid_to_dict(gpd, w), "dims": {"1": 1},
              "U": {}}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "rep", "--bundle", str(path))
    assert code == 2
    assert "bundle 'dims' table misses object '2'" in err
    assert out == ""


def _p2_bundle(dims=None, blocks=None):
    gpd, w = fixture("P2")
    bundle = {"groupoid": groupoid_to_dict(gpd, w),
              "dims": {"1": 1, "2": 1},
              "U": {str(g): [[1.0]] for g in gpd.arrows}}
    bundle["dims"].update(dims or {})
    bundle["U"].update(blocks or {})
    return bundle


@pytest.mark.parametrize("bundle, message", [
    (_p2_bundle(blocks={"(1, 1)": [[1.0, 0.0]], "(1, 2)": [[1.0, 0.0]],
                        "(2, 1)": [[1.0, 0.0]], "(2, 2)": [[1.0, 0.0]]}),
     "block of arrow '(1, 1)' has shape (1, 2), expected (1, 1)"),
    (_p2_bundle(dims={"2": 1.5}),
     "'dims' of object '2' must be a non-negative integer, got 1.5"),
    (_p2_bundle(dims={"1": -1}),
     "'dims' of object '1' must be a non-negative integer, got -1"),
    (_p2_bundle(blocks={"(2, 1)": [[float("nan")]]}),
     "block of arrow '(2, 1)' has a non-finite entry"),
], ids=["1x2-blocks", "fractional-dim", "negative-dim", "nan-entry"])
def test_bad_bundle_exits_2(capsys, tmp_path, bundle, message):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "rep", "--bundle", str(path))
    assert code == 2
    assert message in err
    assert out == ""


def test_arrow_without_src_exits_2(capsys, tmp_path):
    def drop_src(data):
        del data["arrows"][1]["src"]
    path = write_groupoid(tmp_path, corrupt=drop_src)
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "arrow entry 1" in err and "has no 'src'" in err


def test_rep_dump_writes_files(capsys, tmp_path):
    dump = tmp_path / "dump"
    code, _, _ = run(capsys, "rep", "--preset", "Z2", "--dump", str(dump))
    assert code == 0
    names = {p.name for p in dump.iterdir()}
    assert {"rep-unitary.bin", "rep-unitary.json",
            "regular-unitary.bin", "regular-unitary.json"} <= names


def test_etale_counting_only(capsys):
    code, _, err = run(capsys, "etale", "--preset", "W2")
    assert code == 2
    assert "counting weights" in err
    code, out, _ = run(capsys, "etale", "--preset", "Z2")
    assert code == 0, out


def test_etale_semigroup_file(capsys, tmp_path):
    gens = {"generators": [
        {"map": {"1": "2", "2": "1"}},
        {"map": {"1": "1", "2": "2"}},
    ]}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, _ = run(capsys, "etale", "--preset", "P2",
                       "--semigroup", str(path))
    assert code == 0, out


@pytest.mark.parametrize("generator, message", [
    ({"map": {"9": "1"}}, "generator 1 names unknown object '9'"),
    ({"map": {"1": "9"}}, "generator 1 names unknown object '9'"),
    ({"map": {"1": "1"}, "dom": ["7"]},
     "generator 1 names unknown object '7'"),
    ({"dom": ["1"]}, 'generator 1 has no "map"'),
    ({"map": {"1": "1"}, "dom": ["2"]}, "generator 1: dom and map keys"),
])
def test_etale_semigroup_file_errors(capsys, tmp_path, generator, message):
    gens = {"generators": [{"map": {"1": "2", "2": "1"}}, generator]}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, err = run(capsys, "etale", "--preset", "P2",
                         "--semigroup", str(path))
    assert code == 2
    assert message in err
    assert out == ""


def test_trafo_files(capsys, tmp_path):
    (tmp_path / "group.json").write_text(json.dumps({"order": 2}))
    (tmp_path / "action.json").write_text(
        json.dumps({"map": {"1": 2, "2": 1}}))
    code, out, _ = run(capsys, "trafo",
                       "--group", str(tmp_path / "group.json"),
                       "--action", str(tmp_path / "action.json"))
    assert code == 0, out


def test_trafo_needs_both_files(capsys):
    code, _, err = run(capsys, "trafo")
    assert code == 2
    assert "trafo needs" in err


@pytest.mark.parametrize("extra", [["--preset", "P2"], ["--groupoid", "g"],
                                   ["g.json"]])
def test_suite_refuses_groupoid_arguments(capsys, extra):
    code, out, err = run(capsys, "suite", "--trials", "1", *extra)
    assert code == 2
    assert "built-in fixtures" in err
    assert out == ""


def test_infinite_haar_weight_exits_2(capsys, tmp_path):
    path = write_groupoid(tmp_path, name="W2")
    with open(path) as fh:
        text = fh.read().replace("4.0", "1e309")
    with open(path, "w") as fh:
        fh.write(text)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "FAIL  haar-weight-positive" in out
    code, _, err = run(capsys, "algebra", path)
    assert code == 2
    assert "weight-positive" in err


def test_malformed_haar_and_empty_groupoid_exit_2(capsys, tmp_path):
    def drop_object(data):
        del data["haar"]["1"]
    path = write_groupoid(tmp_path, name="W2", corrupt=drop_object)
    code, _, err = run(capsys, "algebra", path)
    assert code == 2
    assert "haar weights miss object '1'" in err
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"objects": [], "arrows": []}))
    code, _, err = run(capsys, "algebra", str(path))
    assert code == 2
    assert "no objects" in err


def test_suite_small(capsys):
    code, out, _ = run(capsys, "suite", "--trials", "2")
    assert code == 0, out
    assert out.strip().endswith("OK")


def test_emit_report_json_roundtrip():
    rep = Report("demo")
    rep.add("first", True, defect=0.0)
    rep.add("second", False, defect=0.25, witness="bad spot")
    doc = json.loads(emit_report(rep, "json"))
    assert doc == rep.to_dict()
    text = emit_report(rep, "text").decode()
    assert "PASS" in text and "FAIL" in text and "bad spot" in text


def test_tolerance_guard(capsys):
    with pytest.raises(SystemExit):
        main(["families", "--preset", "Z2", "--tolerance", "-1"])

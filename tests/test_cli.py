"""Command line driver tests.

Exit codes: 0 all checks pass, 1 a check failed, 2 the input could not
be loaded or validated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcstar import cli
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
    (_p2_bundle(dims={"1": 2, "2": 2},
                blocks={"(1, 2)": [[1.0], [1.0, 2.0]]}),
     "bundle 'U' block of arrow '(1, 2)' is ragged: row lengths [1, 2]"),
], ids=["1x2-blocks", "fractional-dim", "negative-dim", "nan-entry",
        "ragged-block"])
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


def _w2_with(path, value):
    """The W2 groupoid JSON with the entry at path replaced by value."""
    gpd, w = fixture("W2")
    data = node = groupoid_to_dict(gpd, w)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _w2_arrow(i):
    """Arrow entry i of the W2 groupoid JSON."""
    gpd, w = fixture("W2")
    return groupoid_to_dict(gpd, w)["arrows"][i]


# name: (argv with {file} placeholders, files by name, text of the error)
MALFORMED = {
    "groupoid-list": (["validate", "{g}"], {"g": [1, 2]},
                      "the groupoid must be an object"),
    "arrows-int": (["validate", "{g}"], {"g": _w2_with(["arrows"], 5)},
                   'the groupoid "arrows" must be a list'),
    "arrow-id-list": (["validate", "{g}"],
                      {"g": _w2_with(["arrows", 0, "id"], ["u"])},
                      "arrow entry 0 ['id'] must be a string or number"),
    "arrow-twice": (["validate", "{g}"],
                    {"g": _w2_with(["arrows", 1], _w2_arrow(0))},
                    "the groupoid lists arrow '(1, 1)' twice"),
    "object-twice": (["validate", "{g}"],
                     {"g": _w2_with(["objects"], ["1", "2", "1"])},
                     "the groupoid lists object '1' twice"),
    "object-list": (["validate", "{g}"],
                    {"g": _w2_with(["objects"], [[1]])},
                    "objects [0] must be a string or number"),
    "compose-int": (["validate", "{g}"], {"g": _w2_with(["compose"], 3)},
                    'the groupoid "compose" must be a list'),
    "compose-short-row": (["validate", "{g}"],
                          {"g": _w2_with(["compose", 0], ["(1, 1)"] * 2)},
                          "compose row 0 is not [g, h, gh]"),
    "compose-list-label": (["validate", "{g}"],
                           {"g": _w2_with(["compose", 2, 1], ["u"])},
                           "compose row 2 [1] must be a string or number"),
    "inverse-list-label": (["validate", "{g}"],
                           {"g": _w2_with(["inverse", "(1, 1)"], ["u"])},
                           "inverse ['(1, 1)'] must be a string or number"),
    "haar-list": (["validate", "{g}"], {"g": _w2_with(["haar"], [1])},
                  'the groupoid "haar" must be an object'),
    "haar-string": (["validate", "{g}"],
                    {"g": _w2_with(["haar", "1"], "abc")},
                    "haar weight of '1' must be a number, got 'abc'"),
    "bundle-no-groupoid": (["rep", "--bundle", "{b}"],
                           {"b": {"dims": {}, "U": {}}},
                           'the bundle has no "groupoid"'),
    "bundle-dims-list": (["rep", "--bundle", "{b}"],
                         {"b": {**_p2_bundle(), "dims": [1]}},
                         'the bundle "dims" must be an object'),
    "bundle-U-list": (["rep", "--bundle", "{b}"],
                      {"b": {**_p2_bundle(), "U": [[[1.0]]]}},
                      'the bundle "U" must be an object'),
    "bundle-block-int": (["rep", "--bundle", "{b}"],
                         {"b": _p2_bundle(blocks={"(1, 1)": 5})},
                         "block of arrow '(1, 1)' must be a list, got 5"),
    "bundle-entry-string": (["rep", "--bundle", "{b}"],
                            {"b": _p2_bundle(blocks={"(1, 2)": [["abc"]]})},
                            "block of arrow '(1, 2)' entry must be a number"),
    "generator-int": (["etale", "--preset", "P2", "--semigroup", "{s}"],
                      {"s": {"generators": [5]}},
                      "generator 0 must be an object, got 5"),
    "generator-map-list": (["etale", "--preset", "P2", "--semigroup", "{s}"],
                           {"s": {"generators": [{"map": [["1", "2"]]}]}},
                           'generator 0 "map" must be an object'),
    "group-file-list": (["trafo", "--group", "{g}", "--action", "{a}"],
                        {"g": [2], "a": {"map": {"1": 2, "2": 1}}},
                        "the --group file must be an object"),
    "group-file-no-order": (["trafo", "--group", "{g}", "--action", "{a}"],
                            {"g": {}, "a": {"map": {"1": 2, "2": 1}}},
                            'the --group file has no "order"'),
    "action-file-list": (["trafo", "--group", "{g}", "--action", "{a}"],
                         {"g": {"order": 2}, "a": [{"1": 2}]},
                         "the --action file must be an object"),
    "action-file-no-map": (["trafo", "--group", "{g}", "--action", "{a}"],
                           {"g": {"order": 2}, "a": {}},
                           'the --action file has no "map"'),
    "action-image-list": (["trafo", "--group", "{g}", "--action", "{a}"],
                          {"g": {"order": 2}, "a": {"map": {"1": [2]}}},
                          "the --action map ['1'] must be a string or number"),
}


@pytest.mark.parametrize("argv, files, message", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_json_exits_2_naming_the_entry(capsys, tmp_path, argv,
                                                 files, message):
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, content in files.items():
        with open(paths[name], "w") as fh:
            json.dump(content, fh)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert message in err
    assert out == ""


def test_etale_refuses_to_enumerate_past_the_bisection_limit(capsys):
    # pair:6 has 13,327 bisections: its mul table alone would take 1.4 GB
    code, out, err = run(capsys, "etale", "--preset", "pair:6")
    assert code == 2
    assert err.startswith("error: the bisection semigroup of 36 arrows has "
                          "at least 3,974 elements")
    assert "over the bound of 268.4 MB" in err
    assert out == ""


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
    ({"map": {"1": "2", "2": "2"}},
     "generator 1: arrow set [(2, 1), (2, 2)] is not a bisection"),
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


@pytest.mark.parametrize("command", ["families", "algebra", "rep",
                                     "integrate", "disintegrate",
                                     "roundtrip"])
def test_overflowing_weight_exits_2_naming_the_point(capsys, tmp_path,
                                                     command):
    # weights whose products overflow gave NaN defects and bare NaN tokens
    # in --json, and algebra failed in LAPACK; validate_haar now refuses
    # a weight whose square is not finite, naming its arrow
    def huge(data):
        data["haar"]["1"] = 1e200
    path = write_groupoid(tmp_path, corrupt=huge)
    assert run(capsys, "validate", path)[0] == 2
    code, out, err = run(capsys, command, path, "--json")
    assert code == 2
    assert "error: FAIL weight-positive (defect=0.000e+00) witness=" in err
    assert out == ""


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


NATURALITY = ["right-grade-preserved", "object-grade-preserved",
              "commutes", "integrated-commutes", "induction"]


def test_disintegrate_and_suite_emit_naturality(capsys):
    code, out, _ = run(capsys, "disintegrate", "--preset", "T2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["title"] for r in doc["reports"]] == [
        "operator representation", "disintegration", "naturality"]
    assert [c["name"] for c in doc["reports"][-1]["checks"]] == NATURALITY
    code, out, _ = run(capsys, "suite", "--trials", "1", "--json")
    assert code == 0
    for report in json.loads(out)["reports"]:
        names = [c["name"] for c in report["checks"]]
        if report["title"].startswith("fixture"):
            assert names[-len(NATURALITY):] == [
                "naturality-" + n for n in NATURALITY]


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


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_tolerance_exits_2(capsys, tmp_path, value):
    # a block of norm 2 fails at the default tolerance; inf passed it and
    # nan failed every check
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_p2_bundle(blocks={"(2, 1)": [[2.0]]})))
    code, out, _ = run(capsys, "rep", "--bundle", str(path))
    assert code == 1 and "FAILED" in out
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--bundle", str(path), f"--tolerance={value}"])
    assert exc.value.code == 2
    assert "tolerance must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roundtrip", "disintegrate"])
def test_tiny_tolerance_takes_the_floor(capsys, command):
    # every command raises --tolerance to the same floor; roundtrip used
    # the raw value and failed W2 on star-certificate defects near 1e-14
    code, out, _ = run(capsys, command, "--preset", "W2",
                       "--tolerance", "1e-14")
    assert code == 0, out


def test_families_checks_gamma_at_the_floor(capsys, monkeypatch):
    # the gamma maps are checked at the one floor of every command, so a
    # tolerance under 1e-10 is raised to 1e-10
    check_gamma = cli.check_gamma
    seen = []

    def spy(gpd, weights, tol):
        seen.append(tol)
        return check_gamma(gpd, weights, tol)

    monkeypatch.setattr(cli, "check_gamma", spy)
    for tol, want in (("1e-11", 1e-10), ("1e-14", 1e-10), ("1e-9", 1e-9)):
        code, out, _ = run(capsys, "families", "--preset", "W2",
                           "--tolerance", tol)
        assert code == 0, out
        assert seen.pop() == want


def test_one_parser_serves_every_main_call(capsys):
    """main builds its parser once per process; calls with different
    subcommands, and a usage error between them, behave as in fresh
    processes."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argvs = (["etale", "--preset", "Z2"], ["validate", "--preset", "P2"],
             ["etale", "--preset", "Z2", "--bogus"],
             ["families", "--preset", "X2", "--tolerance", "1e-6"])
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "gcstar.cli", *argv],
                               env=env, capture_output=True, text=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        if "--bogus" in argv:
            assert code == 2 and "unrecognized arguments" in err
    assert cli._parser() is cli._parser()

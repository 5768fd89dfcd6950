"""The CLI ladder script tools/bench_cli.py on two tiny rows."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_cli.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_cli", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROWS", ((0.1, "validate --preset Z2"),
                                         (0.1, "etale --preset pair:6"),
                                         (9.0, "suite")))
    # pair:6 is past the bound on the |S| x |S| tables, a usage error
    monkeypatch.setattr(module, "EXPECTED_EXIT", {"etale --preset pair:6": 2})
    return module


def test_quick_rows_record_times_rss_and_exit_codes(bench, tmp_path):
    out = tmp_path / "bench.json"
    assert bench.main(["--quick", "--repeat", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["quick"] is True and doc["nproc"] >= 1
    # the machine's load as the run starts and ends
    assert set(doc["loadavg"]) == {"start", "end"}
    for load in doc["loadavg"].values():
        assert len(load) == 3 and all(v >= 0 for v in load)
    assert [r["command"] for r in doc["rows"]] == [
        "gcstar validate --preset Z2", "gcstar etale --preset pair:6"]
    for row, code in zip(doc["rows"], (0, 2)):
        assert row["runs"] == 2 and row["exit_codes"] == [code, code]
        wall = row["wall_s"]
        assert 0 < wall["min"] <= wall["median"] <= wall["max"]
        assert len(row["peak_rss_mb"]) == 2
        assert all(r > 1 for r in row["peak_rss_mb"])


def test_an_unexpected_exit_code_fails_the_run(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "EXPECTED_EXIT", {})
    out = tmp_path / "bench.json"
    assert bench.main(["--quick", "--repeat", "1", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["rows"][1]["exit_codes"] == [2]

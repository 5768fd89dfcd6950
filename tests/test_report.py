import numpy as np
import pytest

from gcstar.report import Check, Report, VerificationError, max_abs


def test_empty_report_is_ok():
    rep = Report("empty")
    assert rep.ok
    assert bool(rep)
    assert rep.max_defect() == 0.0
    rep.require()


def test_failure_tracking():
    rep = Report()
    rep.add("good", True, defect=1e-14)
    rep.add("bad", False, defect=0.5, witness=("g", "h"))
    assert not rep.ok
    assert [c.name for c in rep.failures()] == ["bad"]
    assert rep.max_defect() == 0.5
    with pytest.raises(VerificationError):
        rep.require()


def test_extend_with_prefix():
    inner = Report()
    inner.add("one", True)
    outer = Report("outer")
    outer.extend(inner, prefix="pre-")
    assert outer.checks[0].name == "pre-one"


def test_line_format():
    c = Check("unitary", False, defect=0.25, witness="x")
    line = c.line()
    assert line.startswith("FAIL unitary")
    assert "witness" in line


def test_to_dict_round_trip():
    rep = Report("t")
    rep.add("a", True, defect=0.0)
    data = rep.to_dict()
    assert data["title"] == "t"
    assert data["ok"] is True
    assert data["checks"][0]["name"] == "a"


def test_max_abs():
    assert max_abs(np.array([[1.0, -3.0], [2.0j, 0.0]])) == 3.0
    assert max_abs(np.array([3.0 + 4.0j])) == 5.0
    assert max_abs(np.zeros((0, 4))) == 0.0
    assert type(max_abs(np.ones(2))) is float

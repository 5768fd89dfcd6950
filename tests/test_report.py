import numpy as np
import pytest

from gcstar.report import Check, Report, VerificationError, max_abs, worst


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


def test_worst_rule():
    nan = float("nan")
    assert worst([]) == (0.0, None)
    assert worst([(0.0, "a"), (0.0, "b")]) == (0.0, None)
    # a negative gap reports 0.0
    assert worst([(-2.0, "a"), (-1.0, "b")]) == (0.0, None)
    # ties go to the first pair reaching the largest value
    assert worst([(1.0, "a"), (3.0, "b"), (3.0, "c"), (2.0, "d")]) \
        == (3.0, "b")
    # the first NaN beats any number, before or after it
    for pairs in ([(nan, "a"), (5.0, "b")], [(5.0, "b"), (nan, "a")],
                  [(1.0, "c"), (nan, "a"), (nan, "d"), (9.0, "e")]):
        d, witness = worst(pairs)
        assert np.isnan(d) and witness == "a"
    d, witness = worst(iter([(np.float64(nan), None)]))
    assert np.isnan(d) and witness is None


def test_add_worst_passes_iff_defect_within_tol():
    rep = Report()
    rep.add_worst("at-tol", [(1e-10, "a"), (2e-11, "b")], 1e-10)
    rep.add_worst("above", [(1e-10, "a"), (2e-10, "b")], 1e-10)
    rep.add_worst("nan", [(0.0, "a"), (float("nan"), "b")], 1e-10)
    rep.add_worst("empty", [], 0.0)
    got = [(c.name, c.passed, c.witness) for c in rep.checks]
    assert got == [("at-tol", True, "a"), ("above", False, "b"),
                   ("nan", False, "b"), ("empty", True, None)]
    assert rep.checks[1].defect == 2e-10
    assert np.isnan(rep.checks[2].defect)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_max_defect_is_nan_wherever_the_nan_check_is(where):
    defects = [0.5, 2.0, 1.0]
    defects[where] = float("nan")
    rep = Report()
    for i, d in enumerate(defects):
        rep.add(f"c{i}", False, defect=d)
    assert np.isnan(rep.max_defect())

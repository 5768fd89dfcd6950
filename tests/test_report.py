import numpy as np
import pytest

from gcstar.report import Check, Report, VerificationError, max_abs, worst_at


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


def test_worst_at_rule():
    nan = float("nan")
    assert worst_at([]) == (0.0, None)
    assert worst_at(np.zeros((2, 3))) == (0.0, None)
    # a negative gap reports 0.0
    assert worst_at([-2.0, -1.0]) == (0.0, None)
    # ties go to the first entry reaching the largest value, row-major
    assert worst_at([1.0, 3.0, 3.0, 2.0]) == (3.0, 1)
    assert worst_at([[1.0, 2.0], [3.0, 3.0]]) == (3.0, 2)
    # the first NaN beats any number, before or after it
    for defects, at in (([nan, 5.0], 0), ([5.0, nan], 1),
                        ([1.0, nan, nan, 9.0], 1)):
        d, k = worst_at(np.array(defects))
        assert np.isnan(d) and k == at
    # a 0-d defect is one instance
    assert worst_at(np.float64(2.5)) == (2.5, 0)
    assert worst_at(0.0) == (0.0, None)
    d, k = worst_at(np.float64(nan))
    assert np.isnan(d) and k == 0
    assert type(worst_at(np.float32(0.5))[0]) is float


def test_add_worst_at_passes_iff_defect_within_tol():
    rep = Report()
    labels = "ab"
    rep.add_worst_at("at-tol", [1e-10, 2e-11], 1e-10, labels.__getitem__)
    rep.add_worst_at("above", [1e-10, 2e-10], 1e-10, labels.__getitem__)
    rep.add_worst_at("nan", [0.0, float("nan")], 1e-10, labels.__getitem__)
    rep.add_worst_at("empty", [], 0.0, labels.__getitem__)
    rep.add_worst_at("zero-d", 3e-10, 1e-10, lambda k: "one")
    rep.add_worst_at("zero-d-clean", 0.0, 0.0, lambda k: "one")
    rep.add_worst_at("no-witness", [5.0], 1.0)
    got = [(c.name, c.passed, c.witness) for c in rep.checks]
    assert got == [("at-tol", True, "a"), ("above", False, "b"),
                   ("nan", False, "b"), ("empty", True, None),
                   ("zero-d", False, "one"), ("zero-d-clean", True, None),
                   ("no-witness", False, None)]
    assert rep.checks[1].defect == 2e-10
    assert np.isnan(rep.checks[2].defect)
    assert rep.checks[4].defect == 3e-10


@pytest.mark.parametrize("where", [0, 1, 2])
def test_max_defect_is_nan_wherever_the_nan_check_is(where):
    defects = [0.5, 2.0, 1.0]
    defects[where] = float("nan")
    rep = Report()
    for i, d in enumerate(defects):
        rep.add(f"c{i}", False, defect=d)
    assert np.isnan(rep.max_defect())

"""Graded space and module map tests."""

import numpy as np
import pytest

from gcstar.fingroupoid import FIXTURE_NAMES, fixture
from gcstar import hilbmod
from gcstar.hilbmod import (ModuleMap, check_gamma, check_module_map,
                            creation, dump_module_map, gamma_compose,
                            grade_leak, identity_map, induced_unitary,
                            is_intertwiner, is_isometry, is_unitary,
                            module_from_dims, tensor, tensor_map_left)
from gcstar.measures import (GradedSpace, compose_families,
                             groupoid_families, haar_system)
from gcstar.sampling import SplitMix64

from test_measures import positions
from test_modmap_entries import tensor_map


def two_point_space():
    return GradedSpace(("a", "b"), {"a": "x", "b": "x"},
                       {"a": "y", "b": "y"}, {"a": 1.0, "b": 4.0})


def test_weighted_inner_products():
    e = two_point_space()
    v = np.array([1.0, 1.0], dtype=complex)
    w = np.array([0.0, 1.0], dtype=complex)
    assert e.scalar_inner(v, w) == 4.0
    assert e.norm(v) == pytest.approx(np.sqrt(5.0))
    assert e.inner(v, w) == {"y": 4.0 + 0.0j}


def test_module_from_dims_layout():
    m = module_from_dims(("x", "y"), ("w",), {("x", "w"): 2, ("y", "w"): 1})
    assert m.basis == (("x", "w", 0), ("x", "w", 1), ("y", "w", 0))
    assert m.left[("y", "w", 0)] == "y"
    assert m.weight[("x", "w", 1)] == 1.0
    assert m.left_fiber("x") == (("x", "w", 0), ("x", "w", 1))


def test_adjoint_weighted_oracle():
    # single basis vector on each side, weights 2 and 3; the adjoint of
    # [[2+i]] against those inner products is [[(2-i) * 3/2]]
    s = GradedSpace(("s",), {"s": "x"}, {"s": "y"}, {"s": 2.0})
    t = GradedSpace(("t",), {"t": "x"}, {"t": "y"}, {"t": 3.0})
    m = ModuleMap(s, t, [[2.0 + 1.0j]])
    assert m.adjoint().matrix[0, 0] == 3.0 - 1.5j
    # and the defining identity <T v, w>_t == <v, T* w>_s
    lhs = t.scalar_inner(m(np.array([1.0])), np.array([1.0]))
    rhs = s.scalar_inner(np.array([1.0]), m.adjoint()(np.array([1.0])))
    assert lhs == rhs


@pytest.mark.parametrize("rows, cols", [([2 ** 40], [0]), ([0], [2 ** 62]),
                                        ([10 ** 6], [1])])
def test_entry_index_far_outside_the_bases_is_refused(rows, cols):
    # the range check counts indices; a huge one is refused, not counted
    e = two_point_space()
    with pytest.raises(ValueError, match="^entry index outside 2 x 2$"):
        ModuleMap(e, e, entries=(rows, cols, [1.0]))


def test_compose_interface_mismatch():
    e = two_point_space()
    f = module_from_dims(("x",), ("w",), {("x", "w"): 2})
    with pytest.raises(ValueError):
        identity_map(e).compose(identity_map(f))


def test_compose_compares_tensors_by_factor_positions():
    # e and e2 hold the same points with their right grades swapped, so
    # their tensors with f have one dimension and other positions in f
    ones = {"a": 1.0, "b": 1.0}
    e = GradedSpace("ab", {"a": "x", "b": "x"}, {"a": "y", "b": "z"}, ones)
    e2 = GradedSpace("ab", {"a": "x", "b": "x"}, {"a": "z", "b": "y"}, ones)
    f = GradedSpace("pq", {"p": "y", "q": "z"}, {"p": "w", "q": "w"},
                    {"p": 1.0, "q": 1.0})
    t, t2 = tensor(e, f), tensor(e2, f)
    assert t.dim == t2.dim == 2
    assert t.factors[1][1].tolist() != t2.factors[1][1].tolist()
    with pytest.raises(ValueError, match="composition interface mismatch"):
        identity_map(t2).compose(identity_map(t))
    # the same tensor built twice composes, without building its basis
    m = identity_map(tensor(e, f)).compose(identity_map(t))
    assert m.vals.tolist() == [1, 1]
    assert "basis" not in vars(t) and "basis" not in vars(m.target)
    assert t.basis == (("a", "p"), ("b", "q"))
    assert t2.basis == (("a", "q"), ("b", "p"))


def test_tensor_balanced_pairs():
    e = module_from_dims(("x",), ("u", "v"),
                         {("x", "u"): 1, ("x", "v"): 1})
    f = module_from_dims(("u", "v"), ("z",),
                         {("u", "z"): 2, ("v", "z"): 1})
    t = tensor(e, f)
    # only middle grades that agree pair up: 1*2 + 1*1
    assert t.dim == 3
    for (a, b) in t.basis:
        assert e.right[a] == f.left[b]
        assert t.left[(a, b)] == "x"
        assert t.right[(a, b)] == "z"


def test_tensor_map_grade_guard():
    src = module_from_dims(("x",), ("u", "v"),
                           {("x", "u"): 1, ("x", "v"): 1})
    f = module_from_dims(("u", "v"), ("z",),
                         {("u", "z"): 1, ("v", "z"): 1})
    swap = ModuleMap(src, src, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        tensor_map(swap, f)


def test_tensor_map_refuses_nan_map():
    src = module_from_dims(("x",), ("u", "v"),
                           {("x", "u"): 1, ("x", "v"): 1})
    f = module_from_dims(("u", "v"), ("z",),
                         {("u", "z"): 1, ("v", "z"): 1})
    nan_map = ModuleMap(src, src, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="map moves right grade"):
        tensor_map(nan_map, f)
    with pytest.raises(ValueError, match="map moves left grade"):
        tensor_map_left(f, ModuleMap(f, f, np.full((2, 2), np.nan)))


def _leak_by_scan(m, side):
    """Per-entry scan, source-major, that grade_leak must reproduce."""
    grade_s, grade_t = getattr(m.source, side), getattr(m.target, side)
    worst, bad = 0.0, None
    for a in m.source.basis:
        for a2 in m.target.basis:
            if grade_s[a] != grade_t[a2]:
                v = abs(m.matrix[m.target.index[a2], m.source.index[a]])
                if v > worst:
                    worst, bad = v, (a, a2)
    return worst, bad


def _random_graded(rng, tag):
    basis = tuple((tag, i) for i in range(1 + rng.randint(6)))
    grades = ("x", "y", 3)
    return GradedSpace(basis, {b: rng.choice(grades) for b in basis},
                       {b: rng.choice(grades) for b in basis},
                       {b: 1.0 for b in basis})


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind", ["planted", "none", "tie", "dense"])
def test_grade_leak_matches_scan(side, kind):
    rng = SplitMix64(17)
    for _ in range(25):
        src, tgt = _random_graded(rng, "s"), _random_graded(rng, "t")
        gs, gt = getattr(src, side), getattr(tgt, side)
        same = np.array([[gt[b2] == gs[b] for b in src.basis]
                         for b2 in tgt.basis])
        mat = np.array([[rng.cgauss() for _ in src.basis]
                        for _ in tgt.basis])
        leaks = np.argwhere(~same)
        if kind != "dense":
            mat = mat * same
        if kind == "planted" and len(leaks):
            i, j = leaks[rng.randint(len(leaks))]
            mat[i, j] = 3.0 + 4.0j
        if kind == "tie":
            for n, (i, j) in enumerate(leaks):
                mat[i, j] = (2.0, -2.0, 2.0j)[n % 3]
        m = ModuleMap(src, tgt, mat)
        got = grade_leak(m, side)
        assert got == _leak_by_scan(m, side)
        if kind == "none":
            assert got == (0.0, None)
        if kind == "planted" and len(leaks):
            assert got[0] == 5.0


def test_grade_leak_tie_takes_first_source():
    sp = GradedSpace(("a", "b"), {"a": "x", "b": "y"}, {"a": 0, "b": 0},
                     {"a": 1.0, "b": 1.0})
    tp = GradedSpace(("c", "d"), {"c": "x", "d": "y"}, {"c": 0, "d": 0},
                     {"c": 1.0, "d": 1.0})
    m = ModuleMap(sp, tp, [[0.0, 1.0], [1.0, 0.0]])
    assert grade_leak(m, "left") == (1.0, ("a", "d"))
    assert grade_leak(m, "right") == (0.0, None)
    out = is_intertwiner(m, tol=0.5)
    assert not out.ok and out.checks[0].witness == ("a", "d")
    assert check_module_map(m).ok


def test_regroup_unitary():
    gpd, w = fixture("P2")
    alpha, alpha_r = haar_system(gpd, w)
    m = hilbmod.associator(tensor(tensor(alpha, alpha_r), alpha),
                           tensor(alpha, tensor(alpha_r, alpha)))
    out = is_unitary(m, tol=0.0)
    assert out.ok, str(out)


def test_gamma_compose_weight_bitwise():
    gpd, w = fixture("W2")
    fam = groupoid_families(gpd, w)
    m = gamma_compose(fam.lam0, fam.alpha_r)
    for (x, y) in m.source.basis:
        assert m.source.weight[(x, y)] == m.target.weight[x]


def test_check_gamma_all_fixtures_exact():
    for name in FIXTURE_NAMES:
        gpd, w = fixture(name)
        rep = check_gamma(gpd, w)
        assert rep.ok, str(rep)
        assert rep.max_defect() == 0.0


def _mutated_composite(change):
    """compose_families with change applied to a copy of its result."""
    def mutant(lam, mu):
        fam = compose_families(lam, mu)
        basis, right, weight = list(fam.basis), dict(fam.right), \
            dict(fam.weight)
        change(basis, right, weight)
        return GradedSpace(basis, {p: p for p in basis}, right, weight,
                           left_space=basis, right_space=fam.right_space)
    return mutant


def _double_weight(basis, right, weight):
    weight[basis[0]] *= 2.0


def _move_right_grade(basis, right, weight):
    right[basis[0]] = ("moved",)


def _extra_point(basis, right, weight):
    basis.append(("extra",))
    right[("extra",)] = right[basis[0]]
    weight[("extra",)] = 1.0


@pytest.mark.parametrize("change, failing", [
    (_move_right_grade, {"right-grade-preserved"}),
    (_double_weight, {"isometry", "coisometry"}),
    (_extra_point, {"coisometry"}),
])
def test_check_gamma_mutants_fail(monkeypatch, change, failing):
    gpd, w = fixture("W2")
    names = {c.name for c in check_gamma(gpd, w).checks}
    monkeypatch.setattr(hilbmod, "compose_families",
                        _mutated_composite(change))
    out = check_gamma(gpd, w)
    # on every route the named checks fail and the others pass
    assert {c.name for c in out.checks} == names
    checks = [c.name.split("-", 3)[3] for c in out.checks]
    assert set(checks) == {"right-grade-preserved", "isometry",
                           "coisometry"}
    for c, check in zip(out.checks, checks):
        assert c.passed == (check not in failing), c.name


def test_induced_unitary_from_ratio():
    gpd, w = fixture("W2")
    alpha, _ = haar_system(gpd, w)
    c2 = GradedSpace(alpha.basis, alpha.left, alpha.right,
                     {p: 4.0 * alpha.weight[p] for p in alpha.basis},
                     left_space=alpha.left_space,
                     right_space=alpha.right_space)
    phi = {p: p for p in alpha.basis}
    # ratio 1/4 has an exact square root, so the check is exact
    m = induced_unitary(alpha, c2, *positions(
        alpha, c2, phi, {x: 0.25 for x in gpd.objects}))
    out = is_unitary(m, tol=0.0)
    assert out.ok, str(out)


def test_creation_norm_oracle():
    e = module_from_dims(("x",), ("y",), {("x", "y"): 2})
    f = module_from_dims(("y",), ("z",), {("y", "z"): 3})
    xi = np.array([1.0, 2.0j])
    m = creation(tensor(e, f), xi)
    assert check_module_map(m).ok
    # every pair is balanced here, so the column Gram is |xi|^2 I
    gram = m.adjoint().compose(m).matrix
    assert np.array_equal(gram, 5.0 * np.eye(3))


def test_is_unitary_flags_shear():
    f = module_from_dims(("y",), ("z",), {("y", "z"): 2})
    shear = ModuleMap(f, f, [[1.0, 1.0], [0.0, 1.0]])
    out = is_unitary(shear)
    assert not out.ok
    assert out.max_defect() >= 1.0


def test_isometry_non_surjective():
    f = module_from_dims(("y",), ("z",), {("y", "z"): 1})
    g = module_from_dims(("y",), ("z",), {("y", "z"): 2})
    m = ModuleMap(f, g, [[1.0], [0.0]])
    assert is_isometry(m, tol=0.0).ok
    assert not is_unitary(m, tol=0.0).ok


def test_dump_module_map_roundtrip(tmp_path):
    gpd, w = fixture("Z2")
    fam = groupoid_families(gpd, w)
    m = gamma_compose(fam.lam0, fam.alpha_r)
    bin_path, json_path = dump_module_map(m, str(tmp_path / "gamma"))
    raw = np.frombuffer(open(bin_path, "rb").read(), dtype="<c16")
    assert np.array_equal(raw.reshape(m.matrix.shape), m.matrix)
    import json
    side = json.load(open(json_path))
    assert side["shape"] == list(m.matrix.shape)
    assert side["dtype"] == "complex128"
    assert len(side["source_basis"]) == m.source.dim

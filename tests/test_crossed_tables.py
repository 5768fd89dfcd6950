"""Integer tables of the inverse semigroup code against the old loops.

The reference below is the dict-keyed code that the integer tables
replaced, kept verbatim apart from reading its dicts off the tables:
mul and star keyed by element labels, theta as label dicts, the order
re-derived per query, germ classes by union-find.  Parity tests run
both on real semigroups; mutant tests corrupt one table entry so that
a named check fails, and require the new scan to report the same
verdicts and witnesses (the first offender in the old loop order).
"""

import numpy as np
import pytest

from gcstar import crossed
from gcstar.crossed import (InverseSemigroup, bisection_from_arrows,
                            bisection_semigroup, crossed_product,
                            germ_classes, is_wide, semigroup_from_bisections)
from gcstar.fingroupoid import (build_preset, disjoint_union, fixture,
                                space_groupoid, transformation_groupoid)
from gcstar.sampling import SplitMix64, random_groupoid


# ---------------------------------------------------------------------------
# reference: the dict-keyed loops

class Reference:
    """Dict view of an InverseSemigroup's tables with the old scans.

    A table entry naming no element or point becomes ("outside", k),
    which is not a key anywhere, as a missing product was before.
    """

    def __init__(self, sgrp):
        els, pts = sgrp.elements, sgrp.carrier

        def el(k):
            return els[k] if 0 <= k < len(els) else ("outside", int(k))

        def pt(k):
            return pts[k] if 0 <= k < len(pts) else ("outside", int(k))

        self.elements = els
        self.carrier = pts
        self.position = {a: i for i, a in enumerate(els)}
        self.mul = {(a, b): el(sgrp.mul[i, j])
                    for i, a in enumerate(els) for j, b in enumerate(els)}
        self.star = {a: el(sgrp.star[i]) for i, a in enumerate(els)}
        self.theta = {a: {pts[x]: pt(y) for x, y in enumerate(sgrp.act[i])
                          if y != -1}
                      for i, a in enumerate(els)}

    def leq(self, a, b):
        return a == self.mul[(b, self.mul[(self.star[a], a)])]

    def idempotents(self):
        return tuple(e for e in self.elements
                     if self.mul[(e, e)] == e and self.star[e] == e)

    def validate(self):
        out = []
        els = self.elements
        missing = next(((a, b) for a in els for b in els
                        if (a, b) not in self.mul
                        or self.mul[(a, b)] not in self.position), None)
        out.append(("closure", missing))
        if missing is not None:
            return out

        bad = next(((a, b, c) for a in els for b in els for c in els
                    if self.mul[(self.mul[(a, b)], c)]
                    != self.mul[(a, self.mul[(b, c)])]), None)
        out.append(("associativity", bad))

        bad = next((a for a in els if self.star[self.star[a]] != a), None)
        out.append(("involution", bad))

        bad = next(((a, b) for a in els for b in els
                    if self.star[self.mul[(a, b)]]
                    != self.mul[(self.star[b], self.star[a])]), None)
        out.append(("involution-antimultiplicative", bad))

        bad = next((a for a in els
                    if self.mul[(self.mul[(a, self.star[a])], a)] != a),
                   None)
        out.append(("regularity", bad))

        idem = self.idempotents()
        bad = next(((e, f) for e in idem for f in idem
                    if self.mul[(e, f)] != self.mul[(f, e)]), None)
        out.append(("idempotents-commute", bad))

        bad = None
        for a in els:
            th = self.theta[a]
            if len(set(th.values())) != len(th):
                bad = a
                break
            if any(x not in self.carrier or y not in self.carrier
                   for x, y in th.items()):
                bad = a
                break
        out.append(("action-partial-bijections", bad))
        if bad is not None:
            return out

        bad = None
        for a in els:
            want = {y: x for x, y in self.theta[a].items()}
            if self.theta[self.star[a]] != want:
                bad = a
                break
        out.append(("action-involution", bad))

        bad = None
        for a in els:
            for b in els:
                thb = self.theta[b]
                tha = self.theta[a]
                composite = {x: tha[y] for x, y in thb.items() if y in tha}
                if self.theta[self.mul[(a, b)]] != composite:
                    bad = (a, b)
                    break
            if bad:
                break
        out.append(("action-multiplicative", bad))

        bad = None
        for e in self.idempotents():
            if any(x != y for x, y in self.theta[e].items()):
                bad = e
                break
        out.append(("action-idempotent-identity", bad))
        return out


def reference_is_wide(gpd, sgrp):
    out = []
    tags = {a: a.tag for a in sgrp.elements}
    covered = frozenset().union(*tags.values()) if tags else frozenset()
    out.append(("covers-arrows",
                sorted(frozenset(gpd.arrows) - covered, key=str) or None))
    bad, gap = None, None
    for a in sgrp.elements:
        for b in sgrp.elements:
            meet = tags[a] & tags[b]
            union = frozenset().union(
                frozenset(),
                *(tags[v] for v in sgrp.elements
                  if sgrp.leq(v, a) and sgrp.leq(v, b)))
            if union != meet:
                bad, gap = (a, b), sorted(meet - union, key=str)
                break
        if bad:
            break
    out.append(("meets-realized", (bad, gap) if bad else None))
    return out


def _side_set(sgrp, a, side):
    th = sgrp.theta[a]
    return tuple(sorted(th.keys() if side == "dom" else th.values(),
                        key=str))


def reference_germ_classes(sgrp, side="dom"):
    pairs = [(a, x) for a in sgrp.elements for x in _side_set(sgrp, a, side)]
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_point = {}
    for (a, x) in pairs:
        by_point.setdefault(x, []).append(a)
    for x, members in by_point.items():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if find(index[(a, x)]) == find(index[(b, x)]):
                    continue
                joined = any(
                    sgrp.leq(c, a) and sgrp.leq(c, b)
                    and x in set(_side_set(sgrp, c, side))
                    for c in sgrp.elements)
                if joined:
                    parent[find(index[(a, x)])] = find(index[(b, x)])

    groups = {}
    for p in pairs:
        groups.setdefault(find(index[p]), []).append(p)
    classes = []
    for _, members in groups.items():
        members.sort(key=lambda p: sgrp.position[p[0]])
        classes.append(tuple(members))
    classes.sort(key=lambda m: (str(m[0][1]), sgrp.position[m[0][0]]))
    class_of = {}
    for i, members in enumerate(classes):
        for p in members:
            class_of[p] = i
    return tuple(classes), class_of


def reference_algebra_check(table, star_table, unit_indices):
    dim = len(star_table)
    product_table = {(i, j): (None if k < 0 else int(k))
                     for (i, j), k in np.ndenumerate(table)}

    def multiply(vec1, vec2):
        out = {i: 0.0 + 0.0j for i in range(dim)}
        for i, v1 in vec1.items():
            if v1 == 0:
                continue
            for j, v2 in vec2.items():
                k = product_table[(i, j)]
                if k is not None:
                    out[k] += v1 * v2
        return out

    out = []
    bad = None
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                ij = product_table[(i, j)]
                jk = product_table[(j, k)]
                left = None if ij is None else product_table[(ij, k)]
                right = None if jk is None else product_table[(i, jk)]
                if left != right:
                    bad = (i, j, k)
                    break
            if bad:
                break
        if bad:
            break
    out.append(("associativity", bad))

    bad = None
    for i in range(dim):
        for j in range(dim):
            ij = product_table[(i, j)]
            want = product_table[(star_table[j], star_table[i])]
            got = None if ij is None else star_table[ij]
            if got != want:
                bad = (i, j)
                break
        if bad:
            break
    out.append(("star-antimultiplicative", bad))

    ident = {i: 0.0 + 0.0j for i in range(dim)}
    for i in unit_indices:
        ident[i] = 1.0 + 0.0j
    bad = None
    for i in range(dim):
        e = {i: 1.0 + 0.0j}
        left = multiply(ident, e)
        right = multiply(e, ident)
        want = {j: (1.0 if j == i else 0.0) for j in range(dim)}
        if any(abs(left.get(j, 0) - want[j]) > 0 for j in want) \
                or any(abs(right.get(j, 0) - want[j]) > 0 for j in want):
            bad = i
            break
    out.append(("unital", bad))
    return out


def verdicts(report):
    return [(c.name, c.witness) for c in report.checks]


def failing(report):
    return {c.name for c in report.checks if not c.passed}


# ---------------------------------------------------------------------------
# parity on real semigroups

def _shift(n):
    return {x: x % n + 1 for x in range(1, n + 1)}


def parity_cases():
    p2, _ = fixture("P2")
    t3 = transformation_groupoid(3, _shift(3))
    # 3 objects, 8 arrows with isotropy, 40 bisections
    rgpd, _ = random_groupoid(SplitMix64(14), max_objects=3, max_arrows=8)
    return [("P2+P2", disjoint_union(p2, p2)),
            ("transformation:3+space:1",
             disjoint_union(t3, space_groupoid((1,)))),
            ("random seed 14", rgpd),
            # "10" sorts before "2": class order follows the point's str
            ("pair on 2, 10", build_preset("pair", points=(2, 10)))]


@pytest.fixture(scope="module", params=parity_cases(), ids=lambda c: c[0])
def semigroup(request):
    _, gpd = request.param
    sgrp = bisection_semigroup(gpd)
    return gpd, sgrp, Reference(sgrp)


def test_order_matrix_matches_leq(semigroup):
    _, sgrp, ref = semigroup
    els = sgrp.elements
    want = np.array([[ref.leq(a, b) for b in els] for a in els], dtype=bool)
    assert np.array_equal(sgrp.le, want)


@pytest.mark.parametrize("side", ["dom", "img"])
def test_germ_classes_match_union_find(semigroup, side):
    _, sgrp, ref = semigroup
    classes, class_of = reference_germ_classes(ref, side)
    reps, cls = germ_classes(sgrp, side)
    els, pts = sgrp.elements, sgrp.carrier
    got = tuple(tuple((els[a], pts[x]) for a, x in np.argwhere(cls == i))
                for i in range(len(reps)))
    assert got == classes
    assert [(els[a], pts[x]) for a, x in reps] == [m[0] for m in classes]
    assert {(els[a], pts[x]): int(cls[a, x])
            for a, x in np.argwhere(cls >= 0)} == class_of


def test_validate_and_is_wide_match_reference(semigroup):
    gpd, sgrp, ref = semigroup
    assert verdicts(sgrp.validate()) == ref.validate()
    assert verdicts(is_wide(gpd, sgrp)) == reference_is_wide(gpd, ref)
    alg = crossed_product(sgrp)
    assert verdicts(alg.check()) == reference_algebra_check(
        alg.table, alg.star_table, alg.unit_indices)


# ---------------------------------------------------------------------------
# mutants: one corrupted table entry per check

def _p2():
    gpd, _ = fixture("P2")
    return gpd, bisection_semigroup(gpd)


def _find(gpd, sgrp, arrows):
    return sgrp.elements.index(bisection_from_arrows(gpd, arrows))


def _rebuild(sgrp, mul=None, star=None, act=None):
    return InverseSemigroup(
        sgrp.elements, sgrp.mul if mul is None else mul,
        sgrp.star if star is None else star,
        sgrp.act if act is None else act, sgrp.carrier, sgrp.bisections)


def _validate_mutants():
    gpd, sgrp = _p2()
    n = len(sgrp.elements)
    empty = _find(gpd, sgrp, [])
    one = _find(gpd, sgrp, [(1, 1)])
    two = _find(gpd, sgrp, [(2, 2)])
    ident = _find(gpd, sgrp, [(1, 1), (2, 2)])
    up = _find(gpd, sgrp, [(1, 2)])
    swap = _find(gpd, sgrp, [(1, 2), (2, 1)])

    def mul_at(i, j, k):
        mul = sgrp.mul.copy()
        mul[i, j] = k
        return _rebuild(sgrp, mul=mul)

    def star_at(*pairs):
        star = sgrp.star.copy()
        for i, k in pairs:
            star[i] = k
        return _rebuild(sgrp, star=star)

    def act_row(i, row):
        act = sgrp.act.copy()
        act[i] = row
        return _rebuild(sgrp, act=act)

    return [
        ("closure", mul_at(up, swap, n)),
        ("associativity", mul_at(swap, swap, swap)),
        ("involution", star_at((up, up))),
        # still an involution, but not reversing products
        ("involution-antimultiplicative", star_at((one, two), (two, one))),
        ("regularity", mul_at(ident, swap, empty)),
        ("idempotents-commute", mul_at(one, two, one)),
        ("action-partial-bijections", act_row(swap, [0, 0])),
        ("action-partial-bijections", act_row(up, [-2, -1])),
        ("action-involution", act_row(up, [1, 0])),
        ("action-multiplicative", act_row(swap, [0, 1])),
        ("action-idempotent-identity", act_row(ident, [1, 0])),
    ]


@pytest.mark.parametrize("name, mutant", _validate_mutants(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_validate_mutant_matches_reference(name, mutant):
    out = mutant.validate()
    assert name in failing(out)
    assert verdicts(out) == Reference(mutant).validate()


def test_closure_names_a_star_entry_outside():
    gpd, sgrp = _p2()
    star = sgrp.star.copy()
    star[3] = -1
    out = _rebuild(sgrp, star=star).validate()
    assert [(c.name, c.witness) for c in out.checks] == [
        ("closure", sgrp.elements[3])]


def _algebra_mutants():
    gpd, sgrp = _p2()

    def corrupt(table=None, star=None, units=None):
        alg = crossed_product(sgrp)
        if table is not None:
            alg.table = alg.table.copy()
            alg.table[table[:2]] = table[2]
        if star is not None:
            alg.star_table = alg.star_table.copy()
            alg.star_table[star[0]] = star[1]
        if units is not None:
            alg.unit_indices = units
        return alg

    alg = crossed_product(sgrp)
    zero = tuple(int(i) for i in np.argwhere(alg.table < 0)[0])
    return [
        ("associativity", corrupt(table=zero + (0,))),
        ("star-antimultiplicative", corrupt(star=(0, 1))),
        ("unital", corrupt(units=alg.unit_indices[:1])),
        ("unital", corrupt(table=(alg.unit_indices[0], 2, 2))),
    ]


@pytest.mark.parametrize("name, alg", _algebra_mutants(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_algebra_mutant_matches_reference(name, alg):
    out = alg.check()
    assert name in failing(out)
    assert verdicts(out) == reference_algebra_check(
        alg.table, alg.star_table, alg.unit_indices)


def _wide_mutants():
    gpd, sgrp = _p2()
    ident = _find(gpd, sgrp, [(1, 1), (2, 2)])
    one = _find(gpd, sgrp, [(1, 1)])
    mul = sgrp.mul.copy()
    mul[ident, one] = _find(gpd, sgrp, [])
    units = [bisection_from_arrows(gpd, [(1, 1)]),
             bisection_from_arrows(gpd, [(2, 2)])]
    return [
        ("covers-arrows", gpd, semigroup_from_bisections(gpd, units)),
        ("meets-realized", gpd, _rebuild(sgrp, mul=mul)),
    ]


@pytest.mark.parametrize("name, gpd, sgrp", _wide_mutants(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_is_wide_mutant_matches_reference(name, gpd, sgrp):
    out = is_wide(gpd, sgrp)
    assert name in failing(out)
    assert verdicts(out) == reference_is_wide(gpd, Reference(sgrp))



# ---------------------------------------------------------------------------
# certificates: the scans run only where a certificate fails

def _certificate_mutants():
    gpd, sgrp = _p2()
    # the first pair whose products differ in the two orders, swapped
    i, j = map(int, np.argwhere(sgrp.mul != sgrp.mul.T)[0])
    mul = sgrp.mul.copy()
    mul[i, j], mul[j, i] = mul[j, i], mul[i, j]
    swap = _find(gpd, sgrp, [(1, 2), (2, 1)])
    act = sgrp.act.copy()
    act[swap] = [0, 1]
    ident = _find(gpd, sgrp, [(1, 1), (2, 2)])
    order = sgrp.mul.copy()
    order[ident, _find(gpd, sgrp, [(1, 1)])] = _find(gpd, sgrp, [])
    return [("associativity", gpd, _rebuild(sgrp, mul=mul)),
            ("action-multiplicative", gpd, _rebuild(sgrp, act=act)),
            ("meets-realized", gpd, _rebuild(sgrp, mul=order))]


@pytest.mark.parametrize("name, gpd, sgrp", _certificate_mutants(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_a_failing_certificate_hands_the_verdict_to_the_scan(name, gpd,
                                                              sgrp):
    if name == "meets-realized":
        assert not crossed._meets_realized(sgrp.le,
                                           sgrp.tag_matrix(gpd.arrows))
        out = is_wide(gpd, sgrp)
        assert verdicts(out) == reference_is_wide(gpd, Reference(sgrp))
    else:
        assert not crossed._embedded(sgrp)
        out = sgrp.validate()
        assert verdicts(out) == Reference(sgrp).validate()
    assert name in failing(out)


def test_vectors_with_a_misfiled_arrow_fail_the_certificate():
    # {(1, 2)} with its arrow filed under its range object 1: the
    # vectors compose to the empty bisection and act is rng of the
    # vectors, but the action fixes 1 where its square is empty
    gpd, sgrp = _p2()
    els = [sgrp.elements[_find(gpd, sgrp, arrows)]
           for arrows in ([], [(1, 2)])]
    vectors = [[-1, -1], [gpd.arrows.index((1, 2)), -1]]
    mutant = InverseSemigroup(els, np.zeros((2, 2)), [0, 1],
                              [[-1, -1], [0, -1]], sgrp.carrier,
                              (gpd, vectors))
    assert not crossed._embedded(mutant)
    out = mutant.validate()
    assert verdicts(out) == Reference(mutant).validate()
    assert "action-multiplicative" in failing(out)
    # an entry naming no arrow fails the certificate instead of raising
    far = InverseSemigroup(els, mutant.mul, mutant.star, mutant.act,
                           sgrp.carrier, (gpd, [[-1, -1], [4, -1]]))
    assert not crossed._embedded(far)


def _count_scans(monkeypatch):
    calls = []
    real = crossed._scan

    def counted(n, mask_of):
        calls.append(n)
        return real(n, mask_of)

    monkeypatch.setattr(crossed, "_scan", counted)
    return calls


@pytest.mark.parametrize("case", parity_cases()
                         + [("pair:4", build_preset("pair", points=4))],
                         ids=lambda c: c[0])
def test_valid_semigroups_from_bisections_skip_the_scans(monkeypatch, case):
    _, gpd = case
    sgrp = bisection_semigroup(gpd)
    calls = _count_scans(monkeypatch)
    assert sgrp.validate().ok and is_wide(gpd, sgrp).ok
    assert calls == []


def test_semigroups_from_tables_keep_the_scans(monkeypatch):
    # tables that disagree with their bisection vectors fail the
    # certificate, so validate scans for associativity and
    # action-multiplicative; a changed involution is not in its lemma
    gpd, sgrp = _p2()
    calls = _count_scans(monkeypatch)
    for name, mutant in _validate_mutants():
        calls.clear()
        reached = {c.name for c in mutant.validate().checks}
        changed = not (np.array_equal(mutant.mul, sgrp.mul)
                       and np.array_equal(mutant.act, sgrp.act))
        scans = reached & {"associativity", "action-multiplicative"}
        assert len(calls) == (len(scans) if changed else 0), name
    calls.clear()
    is_wide(*_wide_mutants()[1][1:])
    assert len(calls) == 1

"""The bisection battery's table operations against the loops they replaced.

The references below are the per-pair, per-arrow, per-class and
per-element loops of the cocycle check, the germ and crossed product
tables, the covariant checks, the germ reconstruction, the two
translations and the semigroup closure, kept apart from names as they
were.  Each test requires the stacked code to give the same defects, bit
for bit, and the same witnesses, on fixtures, fibres of two sizes,
regular representations, seeded random groupoids, NaN, inf and
empty-block mutants and the empty groupoid.  The certificates of the
germ classes and of partial_isometry_form are held to the routes they
stand in for, which still run where a premise fails.
"""

import numpy as np
import pytest

from gcstar import crossed, reps
from gcstar.crossed import (CovariantRep, CrossedProductAlgebra,
                            InverseSemigroup, bisection_semigroup,
                            check_covariant_rep, germ_classes,
                            germ_reconstruction, groupoid_rep_to_covariant)
from gcstar.fingroupoid import (FiniteGroupoid, build_preset, counting_weights,
                                disjoint_union, fixture)
from gcstar.hilbmod import ModuleMap, _entries, module_from_dims
from gcstar.report import Report, VerificationError, max_abs_each, worst_at
from gcstar.reps import (CocycleFamily, Representation, _fibre_starts,
                         blockwise, check_cocycle, from_cocycle,
                         regular_representation)
from gcstar.sampling import SplitMix64, random_cocycle, random_groupoid

ROT3 = {1: 2, 2: 3, 3: 1}


# ---------------------------------------------------------------------------
# references: the loops

def reference_check_cocycle(fam, tol=1e-10):
    gpd = fam.groupoid
    rep = Report("cocycle family")

    def gap(a, b):
        return worst_at(abs(a - b))[0]

    units = [fam.unitaries[gpd.unit[x]] for x in gpd.objects]
    rep.add_worst_at("unit-blocks", np.fromiter(
        (gap(u, np.eye(len(u))) for u in units), float, len(units)), tol,
        lambda k: gpd.objects[k])

    pairs = gpd.composable_pairs()
    rep.add_worst_at("multiplicative", np.fromiter(
        (gap(fam.unitaries[gpd.comp[(g, h)]],
             fam.unitaries[g] @ fam.unitaries[h]) for g, h in pairs),
        float, len(pairs)), tol, lambda k: pairs[k])

    module = fam.module
    fibre = {x: module.weight_array[module.left_positions(x)]
             for x in gpd.objects}

    def unitarity(g):
        ws, wt, u = fibre[gpd.src[g]], fibre[gpd.rng[g]], fam.unitaries[g]
        gram = u.conj().T @ (wt[:, None] * u)
        d = gap(gram, np.diag(ws)) if u.size else 0.0
        return d if len(ws) == len(wt) else max(d, 1.0)
    rep.add_worst_at("fiber-unitary", np.fromiter(
        map(unitarity, gpd.arrows), float, len(gpd.arrows)), tol,
        lambda k: gpd.arrows[k])
    return rep


def reference_from_cocycle(gpd, weights, module, unitaries):
    fam = CocycleFamily(gpd, weights, module, unitaries)
    rep = Representation(gpd, weights, module, None)
    s0 = _fibre_starts(rep.source).tolist()
    t0 = _fibre_starts(rep.target).tolist()
    rows, cols, vals = [], [], []
    for k, g in enumerate(gpd.arrows):
        trows = np.arange(t0[k], t0[k + 1])
        scols = np.arange(s0[k], s0[k + 1])
        block = fam.raw[g]
        if block.shape != (len(trows), len(scols)) \
                and (block.size or (len(trows) and len(scols))):
            raise ValueError(
                f"block of arrow {g!r} has shape {block.shape}, expected "
                f"{(len(trows), len(scols))} (range fibre, source fibre)")
        if block.size:
            rows.append(np.repeat(trows, len(scols)))
            cols.append(np.tile(scols, len(trows)))
            vals.append(block.ravel())
    if rows:
        rep.umap = ModuleMap(rep.source, rep.target, entries=(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)))
    return rep


def reference_rep_to_covariant_iso(rep, sgrp):
    gpd, module = rep.groupoid, rep.module
    fam = blockwise(rep)
    dim = module.dim
    fibers = {x: module.left_positions(x) for x in gpd.objects}
    iso = np.zeros((len(sgrp.elements), dim, dim), dtype=complex)
    for g in gpd.arrows:
        rows, cols = fibers[gpd.rng[g]], fibers[gpd.src[g]]
        holds = np.array([g in a.tag for a in sgrp.elements], dtype=bool)
        iso[np.ix_(holds, rows, cols)] += fam.unitaries[g]
    projections = {x: np.diag(np.isin(np.arange(dim), fibers[x]))
                   .astype(complex) for x in gpd.objects}
    return iso, projections


def _rows(n, row):
    return np.concatenate([np.empty(0)] + [row(a) for a in range(n)])


def reference_restriction_covariance(cov):
    """(defect, witness) of restriction and covariance, one element at a
    time."""
    sgrp = cov.semigroup
    els, act, le = sgrp.elements, sgrp.act, sgrp.le
    iso, pts = cov.iso, cov.points
    adj, pre = iso.conj().transpose(0, 2, 1), crossed._inverse_action(act)
    dom = np.zeros(iso.shape, dtype=complex)
    for x, p in enumerate(pts):
        dom[act[:, x] >= 0] += p
    pairs = np.argwhere(le)
    d, k = worst_at(_rows(len(els), lambda a: max_abs_each(
        iso[a] - iso[le[a]] @ dom[a])))
    out = {"restriction": (d, None if k is None
                           else sgrp.label(tuple(pairs[k])))}

    def covariance(a):
        on = act[a] >= 0
        return max_abs_each(iso[a] @ pts[on] @ adj[a] - pts[act[a, on]])

    b, x = np.nonzero(act >= 0)
    d, k = worst_at(_rows(len(els), covariance))
    out["covariance"] = (d, None if k is None
                         else (els[b[k]], sgrp.carrier[x[k]]))
    return out


def reference_germ_comp(sgrp):
    """The germ product table of _germ_tables, one class at a time."""
    reps, cls = germ_classes(sgrp, side="dom")
    k = len(reps)
    a, x, bounds = crossed._members(cls, k)
    ends = sgrp.act[a, x]
    src, rng = reps[:, 1], ends[bounds[:-1]]
    bad = crossed._first(ends != rng[cls[a, x]])
    if bad is not None:
        label = crossed._germ_label(sgrp, reps[cls[a[bad], x[bad]]])
        raise VerificationError(f"germ class {label!r} has inconsistent range")
    comp = np.full((k, k), -1)
    for i in range(k):
        first = a[bounds[i]:bounds[i + 1]]
        vals = cls[sgrp.mul[np.ix_(first, a)], x]
        low = crossed._block_range(np.where(vals >= 0, vals, k), bounds)[0]
        composable = rng == src[i]
        j = crossed._first(composable
                           & (low != crossed._block_range(vals, bounds)[1]))
        if j is not None:
            got = sorted(set(vals[:, bounds[j]:bounds[j + 1]].ravel().tolist())
                         - {-1})
            raise VerificationError(
                f"germ composition of "
                f"{crossed._germ_label(sgrp, reps[i])!r} and "
                f"{crossed._germ_label(sgrp, reps[j])!r} is not "
                f"representative independent: {got!r}")
        comp[i, composable] = low[composable]
    return comp


def reference_crossed_table(sgrp):
    """The product table of CrossedProductAlgebra, one class at a time."""
    reps, cls = germ_classes(sgrp, side="img")
    k = len(reps)
    a, x, bounds = crossed._members(cls, k)
    pre = crossed._inverse_action(sgrp.act)[a, x]
    table = np.full((k, k), -1)
    for i in range(k):
        first = slice(bounds[i], bounds[i + 1])
        vals = np.where(pre[first, None] == x,
                        cls[sgrp.mul[np.ix_(a[first], a)], x[first, None]],
                        -1)
        low, high = crossed._block_range(vals, bounds)
        j = crossed._first(low != high)
        if j is not None:
            got = set(vals[:, bounds[j]:bounds[j + 1]].ravel().tolist())
            got = sorted(str(None if v < 0 else v) for v in got)
            raise VerificationError(
                f"crossed product of classes {i} and {j} is not "
                f"representative independent: {got!r}")
        table[i] = low
    return table


def reference_germ_reconstruction(gpd, sgrp):
    """(name, witness) of germ_reconstruction, by walks over the label
    tables."""
    out = []
    reps, cls, src, rng, comp, inv, unit = sgrp.germs
    els, pts, arrows = sgrp.elements, sgrp.carrier, gpd.arrows
    k = len(reps)
    a, x, bounds = crossed._members(cls, k)

    def label(c):
        return crossed._germ_label(sgrp, reps[c])

    number = {g: i for i, g in enumerate(arrows)}
    hit = [[g for g in els[i].tag if gpd.src[g] == pts[p]]
           for i, p in zip(a, x)]
    hit = np.array([number[h[0]] if len(h) == 1 else -1 for h in hit],
                   dtype=np.intp)
    low, high = crossed._block_range(hit, bounds)
    c = crossed._first((low != high) | (low < 0))
    bad = None if c is None else label(c)
    if c is not None and low[c] < 0:
        e = bounds[c] + int(np.argmin(hit[bounds[c]:bounds[c + 1]]))
        bad = (els[a[e]], pts[x[e]])
    out.append(("well-defined", bad))
    if bad is not None:
        return out
    arrow_of = hit[bounds[:-1]]
    onto = np.array_equal(np.sort(arrow_of), np.arange(len(arrows)))
    out.append(("bijective",
                None if onto else f"{k} germs for {len(arrows)} arrows"))
    if not onto:
        return out
    g = [arrows[i] for i in arrow_of]
    out.append(("ends-match", next((label(c) for c in range(k)
                                    if gpd.src[g[c]] != pts[src[c]]
                                    or gpd.rng[g[c]] != pts[rng[c]]), None)))
    out.append(("composition-match",
                next(((label(i), label(j)) for i, j in np.argwhere(comp >= 0)
                      if gpd.comp[(g[i], g[j])] != g[comp[i, j]]), None)))
    out.append(("inverse-match", next((label(c) for c in range(k)
                                       if gpd.inv[g[c]] != g[inv[c]]), None)))
    point = {p: i for i, p in enumerate(pts)}
    out.append(("unit-match", next((y for y in gpd.objects
                                    if g[unit[point[y]]] != gpd.unit[y]),
                                   None)))
    return out


# ---------------------------------------------------------------------------
# inputs

def _groupoids():
    p2 = fixture("P2")[0]
    t3 = build_preset("transformation", order=3, action=ROT3)
    out = [(name, fixture(name)[0]) for name in ("Z2", "P2", "X2")]
    out += [("pair:3", build_preset("pair", points=3)),
            ("transformation:3", t3),
            ("P2+T3", disjoint_union(p2, t3))]
    out += [(f"random-{seed}", random_groupoid(SplitMix64(seed))[0])
            for seed in (3, 4, 5)]
    return out


def _families():
    """(name, CocycleFamily) with fibres up to three wide, fibres of two
    sizes on P2+T3, regular representations and the mutants."""
    rng = SplitMix64(61)
    out = []
    for name, gpd in _groupoids():
        w = counting_weights(gpd)
        rep = from_cocycle(gpd, w, *random_cocycle(rng, gpd, w, coeff_size=2))
        out.append((name, blockwise(rep)))
    for kind, params in (("group", {"order": 8}), ("pair", {"points": 4})):
        gpd = build_preset(kind, **params)
        out.append((f"regular {kind}",
                    blockwise(regular_representation(gpd,
                                                     counting_weights(gpd)))))
    gpd, w = fixture("P2")
    fam = blockwise(from_cocycle(gpd, w, *random_cocycle(rng, gpd, w)))
    for value in (np.nan, np.inf):
        blocks = {g: u.copy() for g, u in fam.unitaries.items()}
        blocks[(1, 2)][0, 0] = value
        out.append((f"{value} block",
                    CocycleFamily(gpd, w, fam.module, blocks)))
    module = module_from_dims(gpd.objects, ("w",), {(1, "w"): 1, (2, "w"): 0})
    blocks = {g: np.zeros((len(module.left_fiber(gpd.rng[g])),
                           len(module.left_fiber(gpd.src[g]))), dtype=complex)
              for g in gpd.arrows}
    blocks[(1, 1)] = np.eye(1, dtype=complex)
    out.append(("empty block", CocycleFamily(gpd, w, module, blocks)))
    empty = FiniteGroupoid((), (), {}, {}, {}, {}, {})
    out.append(("empty groupoid", CocycleFamily(
        empty, {}, module_from_dims((), ("w",), {}), {})))
    return out


with np.errstate(invalid="ignore"):
    FAMILIES = _families()
# the inf and NaN mutants make numpy warn in both routes
tolerant = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _same(got, want):
    """Equal (defect, witness) pairs, NaN equal to NaN."""
    (d1, w1), (d2, w2) = got, want
    return w1 == w2 and (d1 == d2 or (np.isnan(d1) and np.isnan(d2)))


def _checks(report):
    return [(c.name, c.passed, c.defect, c.witness) for c in report.checks]


# ---------------------------------------------------------------------------
# cocycles and the way in

@tolerant
@pytest.mark.parametrize("name, fam", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_check_cocycle_matches_the_pair_loop(name, fam):
    got, want = _checks(check_cocycle(fam)), _checks(
        reference_check_cocycle(fam))
    assert [c[:2] for c in got] == [c[:2] for c in want]
    for g, w in zip(got, want):
        assert _same(g[2:], w[2:]), (g, w)


def _inf_beside_an_empty_fibre():
    """P2 with fibres of sizes 1 and 0 and an infinite unit block at 1:
    the pairs through the empty fibre have empty products, defect 0."""
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",), {(1, "w"): 1, (2, "w"): 0})
    blocks = {g: np.zeros((len(module.left_fiber(gpd.rng[g])),
                           len(module.left_fiber(gpd.src[g]))), dtype=complex)
              for g in gpd.arrows}
    blocks[(1, 1)] = np.full((1, 1), np.inf, dtype=complex)
    with np.errstate(invalid="ignore"):  # the raw blocks: inf * (1 + 0j)
        return CocycleFamily(gpd, w, module, blocks)


def _defect_arrays(run, fam, monkeypatch):
    """The defect array behind each check of run(fam)."""
    seen = []
    real = Report.add_worst_at

    def record(self, name, defects, tol, witness_of=lambda k: None):
        seen.append((name, np.array(defects, dtype=float)))
        return real(self, name, defects, tol, witness_of)
    with monkeypatch.context() as patch:
        patch.setattr(Report, "add_worst_at", record)
        run(fam)
    return seen


@tolerant
@pytest.mark.parametrize("chunk", [reps._CHUNK, 4])
@pytest.mark.parametrize("name, fam", FAMILIES + [
    ("inf beside an empty fibre", _inf_beside_an_empty_fibre())],
    ids=[n for n, _ in FAMILIES] + ["inf beside an empty fibre"])
def test_check_cocycle_defects_are_those_of_each_pair(name, fam, chunk,
                                                      monkeypatch):
    # every defect, not only the worst: a product of padded blocks would
    # round otherwise, and make NaN of the zeros beside an inf; a small
    # chunk splits the pairs of one shape
    monkeypatch.setattr(reps, "_CHUNK", chunk)
    got = _defect_arrays(check_cocycle, fam, monkeypatch)
    want = _defect_arrays(reference_check_cocycle, fam, monkeypatch)
    assert [n for n, _ in got] == [n for n, _ in want]
    for (n, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True), n


def test_check_cocycle_chunks_give_the_same_defects(monkeypatch):
    # the regular representation of pair:4: 16 arrows, 4 x 4 blocks
    fam = dict(FAMILIES)["regular pair"]
    want = _checks(reference_check_cocycle(fam))
    # one block per product, one row of blocks, two rows sharing one
    for size in (1, 16, 130):
        monkeypatch.setattr(reps, "_CHUNK", size)
        assert _checks(check_cocycle(fam)) == want


@tolerant
@pytest.mark.parametrize("name, fam", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_from_cocycle_matches_the_arrow_loop(name, fam):
    gpd = fam.groupoid
    want = _entries(reference_from_cocycle(gpd, fam.weights, fam.module,
                                           fam.unitaries).umap)
    got = _entries(from_cocycle(gpd, fam.weights, fam.module,
                                fam.unitaries).umap)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_from_cocycle_names_the_first_misshapen_block():
    gpd, w = fixture("P2")
    module = module_from_dims(gpd.objects, ("w",),
                              {(x, "w"): 1 for x in gpd.objects})
    blocks = {g: np.eye(1, dtype=complex) for g in gpd.arrows}
    blocks[(2, 1)] = np.zeros((1, 3))
    blocks[(1, 2)] = np.zeros((0,))
    for run in (from_cocycle, reference_from_cocycle):
        with pytest.raises(ValueError) as err:
            run(gpd, w, module, blocks)
        assert str(err.value) == ("block of arrow (1, 2) has shape (0,), "
                                  "expected (1, 1) (range fibre, source "
                                  "fibre)")


# ---------------------------------------------------------------------------
# the bisection battery

def _semigroups():
    out = [(name, gpd, bisection_semigroup(gpd)) for name, gpd in _groupoids()]
    gpd, sgrp = crossed.group_action_semigroup(3, ROT3)
    out.append(("trafo:3", gpd, sgrp))
    empty = FiniteGroupoid((), (), {}, {}, {}, {}, {})
    out.append(("empty groupoid", empty, bisection_semigroup(empty)))
    return out


SEMIGROUPS = _semigroups()
IDS = [name for name, _, _ in SEMIGROUPS]


@pytest.mark.parametrize("name, gpd, sgrp", SEMIGROUPS, ids=IDS)
def test_germ_and_crossed_tables_match_the_class_loops(name, gpd, sgrp):
    assert np.array_equal(sgrp.germs[4], reference_germ_comp(sgrp))
    assert np.array_equal(CrossedProductAlgebra(sgrp).table,
                          reference_crossed_table(sgrp))


def _message(run, *args):
    try:
        run(*args)
    except VerificationError as exc:
        return str(exc)
    return None


def _table_mutants():
    """Semigroups from tables with one product entry changed, where the
    germ or crossed product table is not representative independent."""
    found = {"germ": [], "crossed": []}
    for kind, points in (("pair", 2), ("pair", 3)):
        full = bisection_semigroup(build_preset(kind, points=points))
        n = len(full.elements)
        for (i, j), value in np.ndenumerate(full.mul):
            mul = full.mul.copy()
            mul[i, j] = (value + 1) % n
            sgrp = InverseSemigroup(full.elements, mul, full.star, full.act,
                                    full.bisections)
            for side, run in (("germ", reference_germ_comp),
                              ("crossed", reference_crossed_table)):
                message = _message(run, sgrp)
                if message and "representative" in message \
                        and len(found[side]) < 3:
                    found[side].append(sgrp)
    return found


def test_table_errors_keep_their_text_and_first_pair():
    found = _table_mutants()
    assert len(found["germ"]) == len(found["crossed"]) == 3
    for sgrp in found["germ"]:
        assert _message(crossed._germ_tables, sgrp) == _message(
            reference_germ_comp, sgrp)
    for sgrp in found["crossed"]:
        assert _message(crossed.CrossedProductAlgebra, sgrp) == _message(
            reference_crossed_table, sgrp)


def _reconstruction_cases():
    out = [(name, gpd, sgrp) for name, gpd, sgrp in SEMIGROUPS]
    # the same semigroups against groupoids whose tables were changed
    z2, _ = fixture("Z2")
    sgrp = bisection_semigroup(z2)
    for table, key, value in (("inv", 1, 0), ("comp", (1, 1), 1),
                              ("unit", "x", 1)):
        tables = {t: dict(getattr(z2, t)) for t in ("comp", "inv", "unit")}
        tables[table][key] = value
        mutant = FiniteGroupoid(z2.objects, z2.arrows, z2.src, z2.rng,
                                tables["comp"], tables["inv"], tables["unit"])
        out.append((f"Z2 {table}", mutant, sgrp))
    p2, _ = fixture("P2")
    swapped = FiniteGroupoid(p2.objects, p2.arrows, p2.rng, p2.src, p2.comp,
                             p2.inv, p2.unit)
    out.append(("P2 ends swapped", swapped, bisection_semigroup(p2)))
    return out


@pytest.mark.parametrize("name, gpd, sgrp", _reconstruction_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_germ_reconstruction_matches_the_walks(name, gpd, sgrp):
    got = [(c.name, c.witness) for c in germ_reconstruction(gpd, sgrp).checks]
    assert got == reference_germ_reconstruction(gpd, sgrp)


def _covariant_cases():
    rng = SplitMix64(62)
    out = []
    for name, gpd, sgrp in SEMIGROUPS:
        w = counting_weights(gpd)
        rep = from_cocycle(gpd, w, *random_cocycle(rng, gpd, w, coeff_size=2))
        out.append((name, rep, sgrp))
    for kind, params in (("group", {"order": 8}), ("pair", {"points": 4})):
        gpd = build_preset(kind, **params)
        out.append((f"regular {kind}", regular_representation(
            gpd, counting_weights(gpd)), bisection_semigroup(gpd)))
    return out


COVARIANT = _covariant_cases()
COV_IDS = [name for name, _, _ in COVARIANT]


@pytest.mark.parametrize("name, rep, sgrp", COVARIANT, ids=COV_IDS)
def test_groupoid_rep_to_covariant_matches_the_arrow_loop(name, rep, sgrp):
    cov = groupoid_rep_to_covariant(rep, sgrp)
    iso, projections = reference_rep_to_covariant_iso(rep, sgrp)
    assert np.array_equal(cov.iso, iso)
    assert list(projections) == list(sgrp.carrier)
    assert cov.points.shape == (len(projections), cov.dim, cov.dim)
    for p, want in zip(cov.points, projections.values()):
        assert np.array_equal(p, want)


@tolerant
@pytest.mark.parametrize("name, rep, sgrp", COVARIANT, ids=COV_IDS)
def test_covariant_checks_match_the_element_loops(name, rep, sgrp):
    fine = groupoid_rep_to_covariant(rep, sgrp)
    covs = [fine]
    for value in (np.nan, np.inf, 1 + 1e-6):
        # one isometry made NaN, inf or scaled, the last of a non-idempotent
        iso = fine.iso.copy()
        a = int(np.flatnonzero(~sgrp.idem)[-1]) if (~sgrp.idem).any() \
            else len(iso) - 1
        iso[a] = iso[a] * value if value > 1 else np.full_like(iso[a], value)
        covs.append(CovariantRep(sgrp, fine.dim, fine.points, iso))
    for cov in covs:
        got = {c.name: (c.defect, c.witness)
               for c in check_covariant_rep(cov).checks}
        for name_, want in reference_restriction_covariance(cov).items():
            assert _same(got[name_], want), (name_, got[name_], want)


def test_covariant_chunks_give_the_same_defects(monkeypatch):
    name, rep, sgrp = COVARIANT[-1]
    cov = groupoid_rep_to_covariant(rep, sgrp)
    want = _checks(check_covariant_rep(cov))
    real = crossed._stacked
    monkeypatch.setattr(crossed, "_stacked",
                        lambda count, dim, gaps: real(count, dim, gaps, 1))
    assert _checks(check_covariant_rep(cov)) == want


# ---------------------------------------------------------------------------
# the closure in rounds against the closure one element per round

def reference_closure_by_element(gpd, generators):
    """semigroup_from_bisections as it was before the rounds: each
    element found is composed with itself and every earlier element, in
    both orders, one element per Python step, and its products join in
    the order (i, 0), (0, i), (i, 1), (1, i), ..., (i, i)."""
    codes, objs, arrows = gpd.codes, gpd.objects, gpd.arrows
    m = len(objs)
    rng, inv = np.append(codes.rng, -1), np.append(codes.inv, -1)
    comp = np.pad(codes.comp, (0, 1), constant_values=-1)

    def after(a, b):
        return comp[a[..., rng[b]], b]

    def inverse(vecs):
        return inv[np.take_along_axis(vecs, crossed._inverse_action(
            rng[vecs]), 1)]

    gens = np.full((len(generators), m + 1), -1, dtype=np.intp)
    for k, a in enumerate(generators):
        tag = [arrows.index(g) for g in a.tag]
        gens[k, codes.src[tag]] = tag
    vecs, number = [], {}

    def place(batch):
        got = []
        for v in map(tuple, batch.tolist()):
            if v not in number:
                number[v] = len(vecs)
                vecs.append(v)
            got.append(number[v])
        return np.array(got, dtype=np.intp)

    place(np.stack([gens, inverse(gens)], axis=1).reshape(-1, m + 1))
    rows = []
    while len(rows) < len(vecs):
        i = len(rows)
        known = np.array(vecs[:i + 1], dtype=np.intp)
        batch = np.empty((2 * i + 1, m + 1), dtype=np.intp)
        batch[0::2] = after(known[i], known)
        batch[1::2] = after(known[:i], known[i])
        rows.append(place(batch))
    n = len(rows)
    vecs = np.array(vecs, dtype=np.intp).reshape(n, m + 1)
    prod = np.empty((n, n), dtype=np.intp)
    for i, got in enumerate(rows):
        prod[i, :i + 1], prod[:i, i] = got[0::2], got[1::2]
    labels = [crossed.bisection_from_arrows(
        gpd, [arrows[g] for g in v if g >= 0]) for v in vecs.tolist()]
    order = np.array(sorted(range(n), key=lambda k: crossed._sort_key(
        labels[k])), dtype=np.intp)
    rank = np.argsort(order)
    return InverseSemigroup(
        [labels[k] for k in order], rank[prod[np.ix_(order, order)]],
        rank[place(inverse(vecs))[order]], rng[vecs[order, :m]],
        (gpd, vecs[order, :m]))


SHIFT = {n: {x: x % n + 1 for x in range(1, n + 1)} for n in (2, 3, 4, 6, 8,
                                                             12)}
SIM5 = ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, {1: 2, 2: 3, 3: 4, 4: 5, 5: 1},
        {2: 2, 3: 3, 4: 4, 5: 5})


def _closure_cases():
    """(name, groupoid, generators): the groupoids of the etale ladder
    with all their bisections, the transformation groupoids of the
    ladder with their global bisections, seeded random generator sets,
    and the three generators of the symmetric inverse monoid on 5
    points, which close to 1,546 bisections."""
    p2, p3 = fixture("P2")[0], build_preset("pair", points=3)
    t3 = build_preset("transformation", order=3, action=SHIFT[3])
    out = [(name, gpd, crossed.all_bisections(gpd)) for name, gpd in (
        ("Z2", fixture("Z2")[0]), ("P2", p2), ("pair:3", p3),
        ("transformation:3", t3), ("P2+P2", disjoint_union(p2, p2)),
        ("transformation:3+space:1",
         disjoint_union(t3, build_preset("space", points=1))),
        ("pair:3+group:2",
         disjoint_union(p3, build_preset("group", order=2))))]
    for n, step in SHIFT.items():
        gpd = build_preset("transformation", order=n, action=step)
        out.append((f"trafo:{n}", gpd, [crossed.bisection_from_arrows(
            gpd, [(k, x) for x in gpd.objects]) for k in range(n)]))
    rng = SplitMix64(71)
    for name, gpd in (("pair:4", build_preset("pair", points=4)),
                      ("random-5", random_groupoid(SplitMix64(5))[0]),
                      ("P2+T3", disjoint_union(p2, t3))):
        every = crossed.all_bisections(gpd)
        for trial in range(3):
            picks = {rng.next_u64() % len(every) for _ in range(1 + trial)}
            out.append((f"{name} random {trial}", gpd,
                        [every[k] for k in sorted(picks)]))
    p5 = build_preset("pair", points=5)
    out.append(("pair:5 generators", p5, [crossed.bisection_from_arrows(
        p5, [(y, x) for x, y in step.items()]) for step in SIM5]))
    return out


@pytest.mark.parametrize("name, gpd, generators", _closure_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_closure_in_rounds_matches_the_closure_by_element(name, gpd,
                                                         generators):
    got = crossed.semigroup_from_bisections(gpd, generators)
    want = reference_closure_by_element(gpd, generators)
    assert got.elements == want.elements
    for table in ("mul", "star", "act"):
        assert np.array_equal(getattr(got, table), getattr(want, table))
    assert np.array_equal(got.bisections[1], want.bisections[1])


def test_closure_chunks_give_the_same_semigroup(monkeypatch):
    gpd = disjoint_union(build_preset("pair", points=3),
                         build_preset("group", order=2))
    generators = crossed.all_bisections(gpd)
    want = crossed.semigroup_from_bisections(gpd, generators)
    real = crossed._close
    # one product per chunk, a row of products, rows that share a chunk
    for size in (1, len(want.elements), 3 * len(want.elements) + 1):
        monkeypatch.setattr(crossed, "_close",
                            lambda gpd, gens, size=size: real(gpd, gens,
                                                              size))
        got = crossed.semigroup_from_bisections(gpd, generators)
        assert got.elements == want.elements
        assert np.array_equal(got.mul, want.mul)


# ---------------------------------------------------------------------------
# germ classes on integers against the float closure

def _float_route(sgrp):
    """A copy of the semigroup whose germ_classes takes the float
    closure."""
    copy = InverseSemigroup(sgrp.elements, sgrp.mul, sgrp.star, sgrp.act,
                            sgrp.bisections)
    copy.__dict__["germ_lemma"] = False
    return copy


@pytest.mark.parametrize("side", ["dom", "img"])
@pytest.mark.parametrize("name, gpd, sgrp", SEMIGROUPS, ids=IDS)
def test_germ_classes_on_integers_match_the_float_closure(name, gpd, sgrp,
                                                          side):
    assert sgrp.germ_lemma
    reps, cls = germ_classes(sgrp, side)
    want_reps, want_cls = germ_classes(_float_route(sgrp), side)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(cls, want_cls)


def test_germ_classes_take_the_float_closure_where_a_premise_fails(
        monkeypatch):
    # {id, a} with a fixing 1 and swapping 2 and 3: both carry the arrow
    # (1, 1), and neither lies below the other, so the least element
    # through (1, 1) is not below both and the pairs at 1 stay apart
    gpd = build_preset("pair", points=3)
    a = crossed.bisection_from_arrows(gpd, [(1, 1), (3, 2), (2, 3)])
    sgrp = crossed.semigroup_from_bisections(gpd, [a])
    assert len(sgrp.elements) == 2 and not sgrp.germ_lemma
    calls = []
    real = crossed._joined
    monkeypatch.setattr(crossed, "_joined",
                        lambda sgrp, carries: calls.append(1) or real(
                            sgrp, carries))
    for side in ("dom", "img"):
        reps, cls = germ_classes(sgrp, side)
        assert len(reps) == 6
        assert (cls[:, 0] >= 0).all() and cls[0, 0] != cls[1, 0]
    assert len(calls) == 2
    # no generator, no element and no class
    empty = crossed.semigroup_from_bisections(gpd, [])
    assert not empty.elements and not empty.germ_lemma
    for side in ("dom", "img"):
        reps, cls = germ_classes(empty, side)
        assert reps.shape == (0, 2) and cls.shape == (0, 3)


# ---------------------------------------------------------------------------
# the block-form certificate of partial_isometry_form against its scan

def reference_multiplicative(cov):
    """(defect, witness) of multiplicative, one element pair at a time."""
    sgrp = cov.semigroup
    iso, n = cov.iso, len(sgrp.elements)
    d, k = worst_at(np.array([
        max_abs_each((iso[a] @ iso[b] - iso[sgrp.mul[a, b]])[None])[0]
        for a in range(n) for b in range(n)]))
    return d, None if k is None else sgrp.label(divmod(k, n))


def _multiplicative(cov):
    (check,) = crossed.partial_isometry_form(cov).checks
    return check.passed, check.defect, check.witness


@pytest.mark.parametrize("name, rep, sgrp", COVARIANT, ids=COV_IDS)
def test_block_form_matches_the_scan(name, rep, sgrp):
    cov = groupoid_rep_to_covariant(rep, sgrp)
    form = crossed._block_form(cov, 1e-10)
    # the order-3 group has 27 pairs for 9 element pairs: the scan runs
    assert (form is None) == (name == "trafo:3")
    passed, defect, witness = _multiplicative(cov)
    assert passed and (defect, witness) == reference_multiplicative(cov)


def _block_mutants(rep, sgrp):
    """The covariant representation with one block of one isometry
    scaled, the groupoid representation with one block perturbed, and
    one isometry with mass off its blocks."""
    gpd = rep.groupoid
    a = int(np.flatnonzero(~sgrp.idem)[-1])
    g = gpd.arrows[int(sgrp.bisections[1][a][sgrp.bisections[1][a] >= 0][0])]
    rows = rep.module.left_positions(gpd.rng[g])
    cols = rep.module.left_positions(gpd.src[g])
    scaled = groupoid_rep_to_covariant(rep, sgrp)
    scaled.iso[a][np.ix_(rows, cols)] *= 1 + 1e-6
    fam = blockwise(rep)
    blocks = {h: u.copy() for h, u in fam.unitaries.items()}
    blocks[g] = blocks[g] * (1 + 1e-6)
    perturbed = groupoid_rep_to_covariant(
        from_cocycle(gpd, rep.weights, rep.module, blocks), sgrp)
    off = groupoid_rep_to_covariant(rep, sgrp)
    # a row of the block of g holds nothing outside the columns of src g
    off.iso[a][rows[0], np.setdiff1d(np.arange(off.dim), cols)[0]] = 1e-6
    return {"scaled": scaled, "perturbed": perturbed, "off": off}


MUTATED = [c for c in COVARIANT
           if c[0] in ("P2", "pair:3", "P2+T3", "random-4", "regular pair")]


@pytest.mark.parametrize("mutant", ["scaled", "perturbed", "off"])
@pytest.mark.parametrize("name, rep, sgrp", MUTATED,
                         ids=[c[0] for c in MUTATED])
def test_block_form_mutants_fail_with_the_scans_witness(name, rep, sgrp,
                                                        mutant):
    cov = _block_mutants(rep, sgrp)[mutant]
    assert cov.blocks is not None
    assert crossed._block_form(cov, 1e-10) is None
    passed, defect, witness = _multiplicative(cov)
    assert not passed and defect > 1e-7
    assert (defect, witness) == reference_multiplicative(cov)


def test_the_certificates_decide_the_pair_4_battery(monkeypatch):
    gpd = build_preset("pair", points=4)
    w = counting_weights(gpd)
    sgrp = bisection_semigroup(gpd)
    rep = from_cocycle(gpd, w, *random_cocycle(SplitMix64(72), gpd, w))
    calls = {"scan": [], "joined": 0, "forms": []}
    real_scan, real_joined, real_form = (crossed._scan, crossed._joined,
                                         crossed._block_form)

    def scan(n, mask_of):
        calls["scan"].append(n)
        return real_scan(n, mask_of)

    def joined(sgrp, carries):
        calls["joined"] += 1
        return real_joined(sgrp, carries)

    def form(cov, tol):
        calls["forms"].append(real_form(cov, tol))
        return calls["forms"][-1]

    monkeypatch.setattr(crossed, "_scan", scan)
    monkeypatch.setattr(crossed, "_joined", joined)
    monkeypatch.setattr(crossed, "_block_form", form)
    out = crossed.etale_battery(gpd, w, sgrp=sgrp, rep=rep)
    assert out.ok, str(out)
    assert sgrp.embedded and sgrp.germ_lemma
    # no scan over the elements (the crossed product's associativity
    # scans its 16 basis elements), no float closure of the germ
    # classes, and the multiplicative check read off the block products
    assert calls["scan"] == [len(gpd.arrows)] and calls["joined"] == 0
    assert len(calls["forms"]) == 1 and calls["forms"][0] is not None

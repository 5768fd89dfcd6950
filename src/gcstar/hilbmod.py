"""Module maps between weighted graded spaces.

The spaces are measures.GradedSpace: an orthogonal basis, each vector
carrying a left grade, a right grade and a positive weight, its squared
length, stored as int grade codes and a weight array with the label
dicts as a view.  Balanced tensor products pair a right grade with a
left grade and multiply the weights; the tensor of two correspondences
is their fibre product.  A tensor records its two factors and the factor
positions (ia, ib) of each of its points, and lists its points in
lexicographic order of (ia, ib), so the keys ia |f| + ib increase: the
associator is the identity on positions and lift finds its target
points by one searchsorted.  tensor reads the left-grade runs of its
second factor (GradedSpace.left_runs, derived once per space) instead
of sorting.  The maps built on tensors read positions, not labels; the
label basis is built only when read, and same_space compares tensors by
their factors.  The relabelings between a tensor of function spaces and
the function space of a composite set are scale one on basis vectors,
hence exact in floating point.

Module maps are stored against the bases, as a dense matrix or as
entries (int rows, int cols, complex vals); the structured maps built
here are entry maps, so a map over the composable pairs costs memory in
proportion to its nonzero entries.  Most of them (relabelings, the
associator, lifted relabelings, the regular unitary) use each row and
each column at most once: weighted partial permutations, which compose
by a gather instead of a join.  .matrix is the dense matrix of either
form, read-only for an entry map, and dump_module_map writes it as
dense complex128.
"""

from __future__ import annotations

import json

import numpy as np

from .report import Report, max_abs, worst_at
from .measures import (GradedSpace, _recode, compose_families,
                       groupoid_families)

_GRADE_GUARD = 1e-13


class ModuleMap:
    """Linear map between graded spaces, stored against the bases.

    A map is stored in one of two forms.  A dense map holds a complex
    matrix, rows following the target basis and columns the source
    basis.  An entry map holds int arrays rows and cols and a complex
    array vals, one entry per stored position, no position twice (the
    constructor raises ValueError on unequal lengths, an index outside
    the bases or a repeated position); the structured maps (relabelings,
    tensor maps, representation unitaries) are built this way.  For both
    forms .matrix is the dense matrix; for an entry map it is a
    read-only view, built on first use and cached.

    partial_perm, read-only, tells whether an entry map uses each row
    and each column at most once: a weighted partial permutation, which
    holds no position twice, so only other entry maps sort their keys.
    When either factor is one, each entry of the other meets at most one
    entry of it, and compose gathers through a position -> entry lookup;
    two other entry maps join their entries on the interface index and
    sum the products at each position.  Both routes give the same bits,
    in row-major position order.  A composition with a dense factor
    multiplies the dense matrices.  Adjoints are taken against the
    weighted inner products.
    """

    def __init__(self, source, target, matrix=None, entries=None):
        self.source = source
        self.target = target
        self.rows = self.cols = self.vals = self._matrix = None
        self._perm = False
        if entries is None:
            self._matrix = np.asarray(matrix, dtype=complex)
            if self._matrix.shape != (target.dim, source.dim):
                raise ValueError(
                    f"matrix shape {self._matrix.shape} does not fit "
                    f"{target.dim} x {source.dim}")
        else:
            rows, cols, vals = entries
            self.rows = np.asarray(rows, dtype=np.intp)
            self.cols = np.asarray(cols, dtype=np.intp)
            self.vals = np.asarray(vals, dtype=complex)
            n = len(self.vals)
            if not (self.vals.ndim == 1 and self.rows.shape == (n,)
                    and self.cols.shape == (n,)):
                raise ValueError("entry rows, cols and vals must be "
                                 "flat arrays of one length")
            try:  # bincount refuses a negative index, or a huge one
                used = (np.bincount(self.rows, minlength=target.dim),
                        np.bincount(self.cols, minlength=source.dim))
            except (ValueError, MemoryError):
                used = ()
            # a count array longer than its basis counts an index outside
            if [len(u) for u in used] != [target.dim, source.dim]:
                raise ValueError(
                    f"entry index outside {target.dim} x {source.dim}")
            self._perm = bool(not n or max(used[0].max(), used[1].max()) < 2)
            if not self._perm:
                key = np.sort(_keys(self.rows, self.cols, source.dim))
                if np.any(key[1:] == key[:-1]):
                    raise ValueError("entries hold a position twice")

    @property
    def partial_perm(self):
        return self._perm

    @property
    def matrix(self):
        if self._matrix is None:
            mat = np.zeros((self.target.dim, self.source.dim), dtype=complex)
            mat[self.rows, self.cols] = self.vals
            mat.flags.writeable = False
            self._matrix = mat
        return self._matrix

    def __call__(self, v):
        return self.matrix @ np.asarray(v, dtype=complex)

    def compose(self, other):
        """self after other; the bases must agree on the interface."""
        if not same_space(other.target, self.source):
            raise ValueError("composition interface mismatch")
        if self.vals is None or other.vals is None:
            return ModuleMap(other.source, self.target,
                             self.matrix @ other.matrix)
        if self.partial_perm:
            t, s = _meet(self.cols, self.source.dim, other.rows)
        elif other.partial_perm:
            s, t = _meet(other.rows, self.source.dim, self.cols)
        else:
            # t runs over the entries of other, s over the entries of
            # self in the column that is the row of entry t
            t, s = _join(self.cols, self.source.dim, other.rows)
            return ModuleMap(other.source, self.target, entries=_summed(
                self.rows[s], other.cols[t], self.vals[s] * other.vals[t],
                other.source.dim))
        order = np.argsort(_keys(self.rows[s], other.cols[t],
                                 other.source.dim))
        s, t = s[order], t[order]
        # + 0.0 is the one-term sum of _summed, which turns -0.0 into 0.0
        return ModuleMap(other.source, self.target, entries=(
            self.rows[s], other.cols[t], self.vals[s] * other.vals[t] + 0.0))

    def adjoint(self):
        ws = self.source.gram_diagonal()
        wt = self.target.gram_diagonal()
        if self.vals is None:
            mat = self.matrix.conj().T * (wt[None, :] / ws[:, None])
            return ModuleMap(self.target, self.source, mat)
        vals = self.vals.conj() * (wt[self.rows] / ws[self.cols])
        return ModuleMap(self.target, self.source,
                         entries=(self.cols, self.rows, vals))

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def _join(keys, n, wanted):
    """Index pairs (w, k) with keys[k] == wanted[w], grouped by w.

    keys and wanted are int arrays with values below n.
    """
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n)
    first = np.cumsum(counts) - counts
    reps = counts[wanted]
    w = np.repeat(np.arange(len(wanted)), reps)
    within = np.arange(len(w)) - np.repeat(np.cumsum(reps) - reps, reps)
    return w, order[first[wanted][w] + within]


def _meet(keys, n, wanted):
    """_join for distinct keys, by a lookup array instead of a sort: the
    pairs (w, k) with keys[k] == wanted[w], in the order of w."""
    at = np.full(n, -1, dtype=np.intp)
    at[keys] = np.arange(len(keys))
    k = at[wanted]
    w = np.flatnonzero(k >= 0)
    return w, k[w]


def _keys(rows, cols, ncols):
    """Row-major position keys of entries in a map with ncols columns."""
    return rows.astype(np.int64) * ncols + cols


def _summed(rows, cols, vals, ncols):
    """Entries with the values at one position summed, row-major."""
    uniq, inv = np.unique(_keys(rows, cols, ncols), return_inverse=True)
    out = np.empty(len(uniq), dtype=complex)
    out.real = np.bincount(inv, weights=vals.real, minlength=len(uniq))
    out.imag = np.bincount(inv, weights=vals.imag, minlength=len(uniq))
    rows, cols = np.divmod(uniq, max(ncols, 1))
    return rows, cols, out


def entry_gap(a, b):
    """Largest absolute entry of a - b, two maps on the same bases."""
    if a.vals is None or b.vals is None:
        return max_abs(a.matrix - b.matrix)
    if np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols):
        # the sum below is 0 + a + (-b) == a - b, and warns of no inf - inf
        with np.errstate(invalid="ignore"):
            return max_abs(a.vals - b.vals)
    _, _, diff = _summed(np.concatenate((a.rows, b.rows)),
                         np.concatenate((a.cols, b.cols)),
                         np.concatenate((a.vals, -b.vals)), a.source.dim)
    return max_abs(diff)


def identity_map(space):
    return _relabel(space, space, np.arange(space.dim))


def _relabel(src, tgt, rows, scale=None):
    """Entry map sending source basis vector j to tgt vector rows[j].

    scale[j] multiplies the image, one when scale is None.
    """
    vals = np.ones(src.dim, dtype=complex) if scale is None \
        else np.asarray(scale, dtype=complex)
    return ModuleMap(src, tgt, entries=(rows, np.arange(src.dim), vals))


def module_from_dims(left_space, right_space, dims):
    """Orthonormal basis (x, w, i) with i below dims[(x, w)]."""
    basis = [(x, w, i) for x in left_space for w in right_space
             for i in range(int(dims.get((x, w), 0)))]
    return GradedSpace(basis, {b: b[0] for b in basis},
                       {b: b[1] for b in basis}, dict.fromkeys(basis, 1.0),
                       left_space=left_space, right_space=right_space)


def tensor(e, f):
    """Balanced tensor product: pairs with matching middle grade.

    The points (a, b) run over a in the order of e and, for each a, over
    b in the order of f; the result records ((e, ia), (f, ib)), the
    positions of a and b, as its factors.
    """
    # e's right grades as codes of f's left space, -1 where f has none
    mid = _recode(e.right_codes, e.right_space, f.left_space)
    order, starts, sizes = f.left_runs
    n = sizes[mid]
    ia = np.repeat(np.arange(e.dim), n)
    ib = order[np.arange(len(ia))
               + np.repeat(starts[mid] - (np.cumsum(n) - n), n)]
    return GradedSpace.from_codes(
        None, e.left_space, f.right_space, e.left_codes[ia],
        f.right_codes[ib], e.weight_array[ia] * f.weight_array[ib],
        factors=((e, ia), (f, ib)))


def _entries(m):
    """The nonzero entries (rows, cols, vals) of m, NaN included."""
    if m.vals is None:
        rows, cols = np.nonzero(m.matrix)
        return rows, cols, m.matrix[rows, cols]
    keep = m.vals != 0
    return m.rows[keep], m.cols[keep], m.vals[keep]


def grade_leak(m, side):
    """Largest matrix entry joining basis vectors of different grades.

    side is "left" or "right".  Returns (worst, witness), the witness
    being the (source, target) basis pair of the first largest entry in
    source-major, target-minor order, or None when nothing leaks; the
    entries are sorted only when a stored nonzero joins two grades.
    """
    src, tgt = (getattr(space, side + "_codes")
                for space in (m.source, m.target))
    tgt = _recode(tgt, getattr(m.target, side + "_space"),
                  getattr(m.source, side + "_space"))
    rows, cols, vals = _entries(m)
    cross = src[cols] != tgt[rows]
    if not cross.any():
        return 0.0, None
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    # np.hypot rounds like abs() on one entry, where np.abs may differ
    # by an ulp
    d, k = worst_at(np.where(cross[order], np.hypot(vals.real, vals.imag),
                             0.0))
    return d, None if k is None else (m.source.basis[cols[k]],
                                      m.target.basis[rows[k]])


def _require_graded(m, side):
    leak, bad = grade_leak(m, side)
    if not leak <= _GRADE_GUARD:
        raise ValueError(f"map moves {side} grade {bad[0]!r} -> {bad[1]!r}")


def same_space(x, y):
    """Whether x and y have one basis: x is y, two tensors have the same
    factor spaces at equal positions, or other spaces equal bases."""
    if x is y or x.factors is None or y.factors is None:
        return x is y or x.basis == y.basis
    return all(same_space(a, b) and np.array_equal(ia, ib)
               for (a, ia), (b, ib) in zip(x.factors, y.factors))


def _find_points(space, a, b):
    """Positions in the tensor space of its points at factor positions
    (a, b), -1 for none, by one searchsorted in its increasing keys."""
    (_, ia), (f, ib) = space.factors
    keys = np.append(ia.astype(np.int64) * f.dim + ib, -1)
    want = np.asarray(a, dtype=np.int64) * f.dim + b
    i = np.minimum(np.searchsorted(keys[:-1], want), space.dim)
    return np.where(keys[i] == want, i, -1)


def lift(m, src, tgt, side):
    """m on one factor of two tensors, the identity on the other.

    src and tgt are tensors whose factor number side (0 or 1) has the
    basis of m.source and of m.target, and whose other factors have one
    basis, else ValueError.  m must preserve the grade that factor is
    balanced over: right grades for side 0, left grades for side 1.  Each
    src vector meets the nonzeros of m in its column (by a lookup when m
    is a partial permutation) and lands on the tgt vectors over their
    rows, where there are any (_find_points).
    """
    _require_graded(m, ("right", "left")[side])
    (moved_s, sm), (fixed, sf) = src.factors[side], src.factors[1 - side]
    (moved_t, _), (fixed_t, _) = tgt.factors[side], tgt.factors[1 - side]
    if not (same_space(moved_s, m.source) and same_space(moved_t, m.target)
            and same_space(fixed_t, fixed)):
        raise ValueError("tensor factors do not fit the map")
    rows, cols, vals = _entries(m)
    j, e = (_meet if m.partial_perm else _join)(cols, m.source.dim, sm)
    i = _find_points(tgt, *((rows[e], sf[j]) if side == 0
                           else (sf[j], rows[e])))
    hit = i >= 0
    return ModuleMap(src, tgt, entries=(i[hit], j[hit], vals[e][hit]))


def tensor_map_left(e, m):
    """Identity tensor m; m must preserve left grades."""
    return lift(m, tensor(e, m.source), tensor(e, m.target), 1)


def associator(src, tgt):
    """The map ((a, b), c) -> (a, (b, c)) from src = (e x f) x g onto
    tgt = e x (f x g); an exact permutation.

    Both tensors list the balanced triples in lexicographic order of
    their factor positions, so the map is the identity on positions.
    The leaf factors e, f, g of the two tensors must have the same bases
    and the position triples must agree, else ValueError.
    """
    (ef, ab), (g, c) = src.factors
    (e, a), (fg, bc) = tgt.factors
    leaves = zip((ef.factors[0][0], ef.factors[1][0], g),
                 (e, fg.factors[0][0], fg.factors[1][0]))
    triples = zip((ef.factors[0][1][ab], ef.factors[1][1][ab], c),
                  (a, fg.factors[0][1][bc], fg.factors[1][1][bc]))
    if not all(same_space(x, y) for x, y in leaves) \
            or not all(np.array_equal(x, y) for x, y in triples):
        raise ValueError("the two tensors hold different triples")
    return _relabel(src, tgt, np.arange(src.dim))


def gamma_compose(lam, mu):
    """Tensor of two fibred function spaces onto the composite space.

    lam fibres X over Y and mu fibres Y over Z.  The balanced basis
    pairs are exactly (x, lam.right[x]), sent to x with scale one; weights
    match bit for bit because the composite weight is the same product.
    """
    src = tensor(lam, mu)
    (_, ia), _ = src.factors
    return _relabel(src, compose_families(lam, mu), ia)


def induced_unitary(c1, c2, phi, delta):
    """Point bijection phi with weight ratio delta as a unitary map.

    phi and delta are read as in check_corr_isomorphism: the c2
    position of each c1 point and an array over c2.right_space.  Sends
    the basis vector at x to sqrt(delta at the base of phi(x)) times the
    basis vector at phi(x); unitary exactly when the ratio condition of
    check_corr_isomorphism holds.
    """
    phi = np.asarray(phi, dtype=np.intp)
    return _relabel(c1, c2, phi, np.sqrt(
        np.asarray(delta, dtype=float)[c2.right_codes[phi]]))


def creation(space, xi):
    """Tensoring with a fixed vector xi of e, as an entry map f -> space.

    space is the tensor of e and f, and xi is indexed like e's basis.
    The entries run over the points (a, b) of space with xi(a) nonzero
    (NaN included), in point order: the point's row, the column of b,
    the value xi(a).
    """
    (_, ia), (f, ib) = space.factors
    vals = np.asarray(xi, dtype=complex)[ia]
    rows = np.flatnonzero(vals)
    return ModuleMap(f, space, entries=(rows, ib[rows], vals[rows]))


# ---------------------------------------------------------------------------
# checks

def check_module_map(m, tol=1e-12):
    """Right module structure: no matrix mass across right grades."""
    rep = Report("module map")
    leak, bad = grade_leak(m, "right")
    rep.add_worst_at("right-grade-preserved", leak, tol, lambda k: bad)
    return rep


def is_isometry(m, tol=1e-10):
    rep = check_module_map(m, tol)
    rep.add_worst_at("isometry", entry_gap(m.adjoint().compose(m),
                                           identity_map(m.source)), tol)
    return rep


def is_unitary(m, tol=1e-10):
    rep = is_isometry(m, tol)
    rep.add_worst_at("coisometry", entry_gap(m.compose(m.adjoint()),
                                             identity_map(m.target)), tol)
    return rep


def is_intertwiner(m, tol=1e-10):
    """Left module structure: no matrix mass across left grades."""
    rep = Report("intertwiner")
    leak, bad = grade_leak(m, "left")
    rep.add_worst_at("left-grade-preserved", leak, tol, lambda k: bad)
    return rep


def check_gamma(gpd, weights, tol=1e-12):
    """Unitarity of the relabeling maps on full bases.

    Runs every composition route from a pair family to a vertex family.
    """
    fam = groupoid_families(gpd, weights)
    rep = Report("gamma maps")
    routes = (
        ("compose-lam0-src", fam.lam0, fam.alpha_r),
        ("compose-lam0-rng", fam.lam0, fam.alpha),
        ("compose-lam1-src", fam.lam1, fam.alpha_r),
        ("compose-lam1-rng", fam.lam1, fam.alpha),
        ("compose-lam2-src", fam.lam2, fam.alpha_r),
        ("compose-lam2-rng", fam.lam2, fam.alpha),
    )
    for name, lam, mu in routes:
        rep.extend(is_unitary(gamma_compose(lam, mu), tol),
                   prefix=name + "-")
    return rep


def dump_module_map(m, path_prefix):
    """Write the matrix as raw complex128 plus a JSON sidecar."""
    data = np.ascontiguousarray(m.matrix.astype("<c16"))
    bin_path = f"{path_prefix}.bin"
    with open(bin_path, "wb") as fh:
        fh.write(data.tobytes())
    side = {
        "shape": list(m.matrix.shape),
        "dtype": "complex128",
        "layout": "row-major",
        "encoding": "little-endian float64 pairs, real then imaginary",
        "source_basis": [str(b) for b in m.source.basis],
        "target_basis": [str(b) for b in m.target.basis],
        "source_weight": m.source.weight_array.tolist(),
        "target_weight": m.target.weight_array.tolist(),
    }
    json_path = f"{path_prefix}.json"
    with open(json_path, "w") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)
    return bin_path, json_path

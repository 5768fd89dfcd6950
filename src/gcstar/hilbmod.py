"""Graded inner product spaces over finite sets and maps between them.

Every space here has a distinguished basis whose vectors are mutually
orthogonal, each carrying a left grade, a right grade and a positive
weight; the weight is the squared length of the basis vector.  Balanced
tensor products pair a right grade with a left grade and multiply the
weights.  The relabeling maps between a tensor product of function
spaces and the function space of a composite or fibred set are scale
one on basis vectors, hence exact in floating point.
"""

from __future__ import annotations

import json

import numpy as np

from .report import Report, max_abs
from .measures import (arrow_correspondence, compose_families,
                       family_correspondence, fibre_product,
                       groupoid_families)

_GRADE_GUARD = 1e-13


class GradedSpace:
    """Orthogonal basis with left grades, right grades and weights."""

    def __init__(self, basis, left, right, weight,
                 left_space=None, right_space=None):
        self.basis = tuple(basis)
        self.left = dict(left)
        self.right = dict(right)
        self.weight = {b: float(weight[b]) for b in self.basis}
        for b in self.basis:
            if not (self.weight[b] > 0.0):
                raise ValueError(f"nonpositive weight at {b!r}")
        self.index = {b: i for i, b in enumerate(self.basis)}
        if left_space is None:
            left_space = sorted({self.left[b] for b in self.basis}, key=str)
        if right_space is None:
            right_space = sorted({self.right[b] for b in self.basis}, key=str)
        self.left_space = tuple(left_space)
        self.right_space = tuple(right_space)

    @property
    def dim(self):
        return len(self.basis)

    def gram_diagonal(self):
        return np.array([self.weight[b] for b in self.basis], dtype=float)

    def left_fiber(self, x):
        return tuple(b for b in self.basis if self.left[b] == x)

    def inner(self, v, w):
        """Inner product valued in functions on the right space."""
        out = {y: 0.0 + 0.0j for y in self.right_space}
        for b in self.basis:
            i = self.index[b]
            out[self.right[b]] += np.conj(v[i]) * w[i] * self.weight[b]
        return out

    def scalar_inner(self, v, w):
        return complex(np.vdot(v, w * self.gram_diagonal()))

    def norm(self, v):
        return float(np.sqrt(max(self.scalar_inner(v, v).real, 0.0)))

    def __repr__(self):
        return f"GradedSpace(dim={self.dim})"


class ModuleMap:
    """Linear map between graded spaces, stored against the bases.

    matrix rows follow the target basis, columns the source basis.
    Adjoints are taken against the weighted inner products.
    """

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not fit "
                f"{target.dim} x {source.dim}")

    def __call__(self, v):
        return self.matrix @ np.asarray(v, dtype=complex)

    def compose(self, other):
        """self after other; the bases must agree on the interface."""
        if other.target.basis != self.source.basis:
            raise ValueError("composition interface mismatch")
        return ModuleMap(other.source, self.target,
                         self.matrix @ other.matrix)

    def adjoint(self):
        ws = self.source.gram_diagonal()
        wt = self.target.gram_diagonal()
        mat = self.matrix.conj().T * (wt[None, :] / ws[:, None])
        return ModuleMap(self.target, self.source, mat)

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


def identity_map(space):
    return ModuleMap(space, space, np.eye(space.dim, dtype=complex))


def l2(corr):
    """Function space of a correspondence, graded by its two legs."""
    return GradedSpace(corr.points, corr.bmap, corr.fmap, corr.weight,
                       left_space=corr.left_space,
                       right_space=corr.right_space)


def l2_family(fam):
    return l2(family_correspondence(fam))


def module_from_dims(left_space, right_space, dims):
    """Orthonormal basis (x, w, i) with i below dims[(x, w)]."""
    basis = []
    for x in left_space:
        for w in right_space:
            for i in range(int(dims.get((x, w), 0))):
                basis.append((x, w, i))
    return GradedSpace(basis,
                       {(x, w, i): x for (x, w, i) in basis},
                       {(x, w, i): w for (x, w, i) in basis},
                       {b: 1.0 for b in basis},
                       left_space=left_space, right_space=right_space)


def tensor(e, f):
    """Balanced tensor product: pairs with matching middle grade."""
    basis = tuple((a, b) for a in e.basis for b in f.basis
                  if e.right[a] == f.left[b])
    return GradedSpace(
        basis,
        {(a, b): e.left[a] for (a, b) in basis},
        {(a, b): f.right[b] for (a, b) in basis},
        {(a, b): e.weight[a] * f.weight[b] for (a, b) in basis},
        left_space=e.left_space, right_space=f.right_space)


def grade_leak(m, side):
    """Largest matrix entry joining basis vectors of different grades.

    side is "left" or "right".  Returns (worst, witness), the witness
    being the (source, target) basis pair of the first largest entry in
    source-major, target-minor order, or None when nothing leaks.
    """
    codes = {}
    src = np.array([codes.setdefault(getattr(m.source, side)[b], len(codes))
                    for b in m.source.basis], dtype=int)
    tgt = np.array([codes.setdefault(getattr(m.target, side)[b], len(codes))
                    for b in m.target.basis], dtype=int)
    # transposed so that the flat scan runs source-major; np.hypot
    # rounds like abs() on one entry, where np.abs may differ by an ulp
    leak = np.hypot(m.matrix.real, m.matrix.imag).T
    leak[src[:, None] == tgt[None, :]] = 0.0
    if not leak.size:
        return 0.0, None
    j, i = divmod(int(np.argmax(leak)), leak.shape[1])
    worst = float(leak[j, i])
    if worst == 0.0:
        return 0.0, None
    return worst, (m.source.basis[j], m.target.basis[i])


def _require_graded(m, side):
    worst, bad = grade_leak(m, side)
    if worst > _GRADE_GUARD:
        raise ValueError(f"map moves {side} grade {bad[0]!r} -> {bad[1]!r}")


def tensor_map(m, f):
    """m tensor identity; m must preserve right grades."""
    _require_graded(m, "right")
    src = tensor(m.source, f)
    tgt = tensor(m.target, f)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (a, b) in src.basis:
        j = src.index[(a, b)]
        for a2 in m.target.basis:
            if (a2, b) in tgt.index:
                mat[tgt.index[(a2, b)], j] = \
                    m.matrix[m.target.index[a2], m.source.index[a]]
    return ModuleMap(src, tgt, mat)


def tensor_map_left(e, m):
    """Identity tensor m; m must preserve left grades."""
    _require_graded(m, "left")
    src = tensor(e, m.source)
    tgt = tensor(e, m.target)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (a, b) in src.basis:
        j = src.index[(a, b)]
        for b2 in m.target.basis:
            if (a, b2) in tgt.index:
                mat[tgt.index[(a, b2)], j] = \
                    m.matrix[m.target.index[b2], m.source.index[b]]
    return ModuleMap(src, tgt, mat)


def regroup(e, f, g):
    """Associator ((a, b), c) -> (a, (b, c)); an exact permutation."""
    src = tensor(tensor(e, f), g)
    tgt = tensor(e, tensor(f, g))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for ((a, b), c) in src.basis:
        mat[tgt.index[(a, (b, c))], src.index[((a, b), c)]] = 1.0
    return ModuleMap(src, tgt, mat)


def gamma_compose(lam, mu):
    """Tensor of two fibred function spaces onto the composite space.

    lam fibres X over Y and mu fibres Y over Z.  The balanced basis
    pairs are exactly (x, fmap(x)), sent to x with scale one; weights
    match bit for bit because the composite weight is the same product.
    """
    src = tensor(l2_family(lam), l2_family(mu))
    tgt = l2_family(compose_families(lam, mu))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for (x, y) in src.basis:
        mat[tgt.index[x], src.index[(x, y)]] = 1.0
    return ModuleMap(src, tgt, mat)


def gamma_fibre(c1, c2):
    """Tensor of two correspondence spaces onto the fibre product space.

    The balanced pairs and the fibre product points are the same set,
    so the map is the identity relabeling, scale one.
    """
    src = tensor(l2(c1), l2(c2))
    tgt = l2(fibre_product(c1, c2))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for p in src.basis:
        mat[tgt.index[p], src.index[p]] = 1.0
    return ModuleMap(src, tgt, mat)


def induced_unitary(c1, c2, phi, delta):
    """Point bijection phi with weight ratio delta as a unitary map.

    Sends the basis vector at x to sqrt(delta at the base of phi(x))
    times the basis vector at phi(x); unitary exactly when the ratio
    condition of check_corr_isomorphism holds.
    """
    src = l2(c1)
    tgt = l2(c2)
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for x in c1.points:
        y = phi[x]
        mat[tgt.index[y], src.index[x]] = np.sqrt(delta[c2.fmap[y]])
    return ModuleMap(src, tgt, mat)


def creation(e, xi, f):
    """Tensoring with a fixed vector xi of e, as a map f -> e tensor f."""
    xi = np.asarray(xi, dtype=complex)
    tgt = tensor(e, f)
    mat = np.zeros((tgt.dim, f.dim), dtype=complex)
    for (a, b) in tgt.basis:
        mat[tgt.index[(a, b)], f.index[b]] = xi[e.index[a]]
    return ModuleMap(f, tgt, mat)


# ---------------------------------------------------------------------------
# checks

def check_module_map(m, tol=1e-12):
    """Right module structure: no matrix mass across right grades."""
    rep = Report("module map")
    worst, bad = grade_leak(m, "right")
    rep.add("right-grade-preserved", worst <= tol, defect=worst, witness=bad)
    return rep


def is_isometry(m, tol=1e-10):
    rep = check_module_map(m, tol)
    d = max_abs(m.adjoint().compose(m).matrix - np.eye(m.source.dim))
    rep.add("isometry", d <= tol, defect=d)
    return rep


def is_unitary(m, tol=1e-10):
    rep = is_isometry(m, tol)
    d = max_abs(m.compose(m.adjoint()).matrix - np.eye(m.target.dim))
    rep.add("coisometry", d <= tol, defect=d)
    return rep


def is_intertwiner(m, tol=1e-10):
    """Left module structure: no matrix mass across left grades."""
    rep = Report("intertwiner")
    worst, bad = grade_leak(m, "left")
    rep.add("left-grade-preserved", worst <= tol, defect=worst, witness=bad)
    return rep


def check_gamma(gpd, weights, tol=1e-12):
    """Unitarity of the relabeling maps on full bases.

    Runs every composition route from a pair family to a vertex family
    and the fibre product relabeling of the two arrow correspondences.
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
    cs = arrow_correspondence(gpd, weights, "s")
    cr = arrow_correspondence(gpd, weights, "r")
    for name, c1, c2 in (("fibre-s-s", cs, cs), ("fibre-r-s", cr, cs)):
        rep.extend(is_unitary(gamma_fibre(c1, c2), tol),
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
        "source_weight": [m.source.weight[b] for b in m.source.basis],
        "target_weight": [m.target.weight[b] for b in m.target.basis],
    }
    json_path = f"{path_prefix}.json"
    with open(json_path, "w") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)
    return bin_path, json_path

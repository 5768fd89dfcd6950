"""Unitary representations of a weighted groupoid on graded modules.

A representation is a single unitary between two balanced tensor
products: arrow functions weighted along source tensored against a
coefficient module, mapped to arrow functions weighted along range
tensored against the same module.  Requiring the unitary to commute
with the arrow grading makes it a family of fiber blocks, and the
simplicial transfer built here out of the relabeling maps turns the
multiplicativity of those blocks into one matrix identity on the
composable pairs.
"""

from __future__ import annotations

import numpy as np

from .report import Report, VerificationError, max_abs
from .measures import (arrow_correspondence, check_corr_isomorphism,
                       family_correspondence, fibre_product,
                       groupoid_families)
from .hilbmod import (ModuleMap, check_module_map, gamma_compose,
                      gamma_fibre, grade_leak, induced_unitary,
                      is_intertwiner, is_unitary, l2, regroup, tensor,
                      tensor_map, tensor_map_left)


class Representation:
    """Unitary from the source weighted tensor to the range weighted one.

    module : GradedSpace, left grades objects, right grades coefficient
             labels
    umap   : ModuleMap tensor(source_leg, module) -> tensor(target_leg,
             module), the legs being the arrow spaces weighted along
             source and along range
    frame  : optional ModuleMap of the module into an ambient space,
             recorded by disintegration so raw blocks can be compared
             at the operator level

    umap None starts from the zero map on the expected spaces, for the
    caller to fill in.
    """

    def __init__(self, gpd, weights, module, umap, frame=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.module = module
        self.frame = frame
        fam = groupoid_families(gpd, self.weights)
        self.families = fam
        self.source_leg = l2(family_correspondence(fam.alpha_r))
        self.target_leg = l2(family_correspondence(fam.alpha))
        self.source = tensor(self.source_leg, module)
        self.target = tensor(self.target_leg, module)
        if umap is None:
            umap = ModuleMap(self.source, self.target,
                             np.zeros((self.target.dim, self.source.dim)))
        elif umap.source.basis != self.source.basis \
                or umap.target.basis != self.target.basis:
            raise ValueError("unitary does not live on the expected spaces")
        self.umap = umap

    def __repr__(self):
        return (f"Representation({self.groupoid!r}, "
                f"module dim {self.module.dim})")


class CocycleFamily:
    """Fiber blocks of a representation: raw and normalized forms.

    raw[g] maps the source fiber of the module to the range fiber with
    the scaling a representation block carries; unitaries[g] is the
    rescaled block that composes multiplicatively and is unitary for
    the weighted fiber inner products.
    """

    def __init__(self, gpd, weights, module, unitaries, raw=None):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.module = module
        self.unitaries = {g: np.asarray(unitaries[g], dtype=complex)
                          for g in gpd.arrows}
        if raw is None:
            raw = {}
            for g in gpd.arrows:
                scale = np.sqrt(self.weights[gpd.rng[g]]
                                / self.weights[gpd.src[g]])
                raw[g] = scale * self.unitaries[g]
        self.raw = {g: np.asarray(raw[g], dtype=complex)
                    for g in gpd.arrows}


def blockwise(rep):
    """Extract the fiber blocks of a representation arrow by arrow."""
    gpd = rep.groupoid
    c = rep.weights
    raw, uni = {}, {}
    for g in gpd.arrows:
        scols = [rep.source.index[(g, m)]
                 for m in rep.module.left_fiber(gpd.src[g])]
        trows = [rep.target.index[(g, m)]
                 for m in rep.module.left_fiber(gpd.rng[g])]
        block = rep.umap.matrix[np.ix_(trows, scols)] \
            if trows and scols else np.zeros((len(trows), len(scols)),
                                             dtype=complex)
        raw[g] = block
        uni[g] = np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block
    return CocycleFamily(gpd, c, rep.module, uni, raw)


def from_cocycle(gpd, weights, module, unitaries):
    """Assemble a representation from normalized fiber blocks.

    A block of another shape than (range fiber, source fiber) raises a
    ValueError naming its arrow; any empty array is an empty block.
    """
    fam = CocycleFamily(gpd, weights, module, unitaries)
    rep = Representation(gpd, weights, module, None)
    mat = rep.umap.matrix
    for g in gpd.arrows:
        sfib = module.left_fiber(gpd.src[g])
        tfib = module.left_fiber(gpd.rng[g])
        block = fam.raw[g]
        if block.shape != (len(tfib), len(sfib)) \
                and (block.size or (tfib and sfib)):
            raise ValueError(
                f"block of arrow {g!r} has shape {block.shape}, expected "
                f"{(len(tfib), len(sfib))} (range fibre, source fibre)")
        for j, m in enumerate(sfib):
            col = rep.source.index[(g, m)]
            for i, m2 in enumerate(tfib):
                mat[rep.target.index[(g, m2)], col] = block[i, j]
    return rep


def check_cocycle(fam, tol=1e-10):
    """Units, multiplicativity and weighted unitarity of fiber blocks."""
    gpd = fam.groupoid
    rep = Report("cocycle family")

    defects = []
    for x in gpd.objects:
        u = fam.unitaries[gpd.unit[x]]
        defects.append((max_abs(u - np.eye(u.shape[0])), x))
    rep.add_worst("unit-blocks", defects, tol)

    defects = []
    for (g, h) in gpd.composable_pairs():
        lhs = fam.unitaries[gpd.comp[(g, h)]]
        rhs = fam.unitaries[g] @ fam.unitaries[h]
        defects.append((max_abs(lhs - rhs), (g, h)))
    rep.add_worst("multiplicative", defects, tol)

    defects = []
    for g in gpd.arrows:
        sfib = fam.module.left_fiber(gpd.src[g])
        tfib = fam.module.left_fiber(gpd.rng[g])
        ws = np.array([fam.module.weight[m] for m in sfib])
        wt = np.array([fam.module.weight[m] for m in tfib])
        u = fam.unitaries[g]
        gram = u.conj().T @ (wt[:, None] * u)
        # an empty block between fibres of different sizes is flagged
        # by the size test below, with defect 1
        d = max_abs(gram - np.diag(ws)) if u.size else 0.0
        if len(sfib) != len(tfib):
            d = max(d, 1.0)
        defects.append((d, g))
    rep.add_worst("fiber-unitary", defects, tol)
    return rep


# ---------------------------------------------------------------------------
# simplicial transfer

def face_transfer(rep, index):
    """The unitary a representation induces over the composable pairs.

    Tensors the pair space along face index with the representation
    unitary, conjugated by the exact relabeling maps; the result runs
    between the two composite weighted pair spaces of that face.
    """
    fam = rep.families
    lam = (fam.lam0, fam.lam1, fam.lam2)[index]
    pair_space = l2(family_correspondence(lam))
    module = rep.module

    gam_s = tensor_map(gamma_compose(lam, fam.alpha_r), module)
    gam_t = tensor_map(gamma_compose(lam, fam.alpha), module)
    reg_s = regroup(pair_space, rep.source_leg, module)
    reg_t = regroup(pair_space, rep.target_leg, module)
    mid = tensor_map_left(pair_space, rep.umap)
    return gam_t.compose(reg_t.adjoint()).compose(mid) \
        .compose(reg_s).compose(gam_s.adjoint())


def check_representation(rep, tol=1e-10):
    """Full battery: structure of the unitary and the transfer identity.

    The final check composes the two outer face transfers and compares
    them against the middle one; it passes exactly when the fiber
    blocks are multiplicative.
    """
    out = Report("representation")
    out.extend(check_module_map(rep.umap, tol))
    out.extend(is_unitary(rep.umap, tol))
    out.extend(is_intertwiner(rep.umap, tol), prefix="arrow-")

    fam = blockwise(rep)
    out.extend(check_cocycle(fam, tol), prefix="block-")

    try:
        d0 = face_transfer(rep, 0)
        d1 = face_transfer(rep, 1)
        d2 = face_transfer(rep, 2)
    except ValueError as exc:
        out.add("transfer-cocycle", False, witness=str(exc))
        return out
    composed = d2.compose(d0)
    if d1.source.basis != composed.source.basis \
            or d1.target.basis != composed.target.basis:
        raise VerificationError("face transfers landed on distinct bases")
    d = max_abs(d1.matrix - composed.matrix)
    out.add("transfer-cocycle", d <= tol, defect=d)
    return out


# ---------------------------------------------------------------------------
# the regular representation

def regular_representation(gpd, weights):
    """Translation of arrow functions, built from exact relabelings.

    The fibre products of the two tensor legs with the module are both
    relabelings of pair sets, and composing with the pair bijection
    (g, h) -> (g, gh) with ratio one gives the unitary directly; every
    matrix entry is zero or one.
    """
    fam = groupoid_families(gpd, weights)
    module_corr = arrow_correspondence(gpd, weights, "s")
    src_corr = family_correspondence(fam.alpha_r)
    tgt_corr = family_correspondence(fam.alpha)

    fib_s = fibre_product(src_corr, module_corr)
    fib_t = fibre_product(tgt_corr, module_corr)
    phi = {(g, h): (g, gpd.comp[(g, h)]) for (g, h) in fib_s.points}
    delta = {x: 1.0 for x in gpd.objects}
    check = check_corr_isomorphism(fib_s, fib_t, phi, delta)
    check.require()

    gam_s = gamma_fibre(src_corr, module_corr)
    gam_t = gamma_fibre(tgt_corr, module_corr)
    moved = induced_unitary(fib_s, fib_t, phi, delta)
    umap = gam_t.adjoint().compose(moved).compose(gam_s)
    return Representation(gpd, weights, l2(module_corr), umap)


# ---------------------------------------------------------------------------
# induction and intertwiners

def induce(rep, ebasis):
    """Tensor the coefficient module with a fixed graded space.

    ebasis left grades must live in the coefficient labels of the
    representation; the induced module is the balanced tensor and the
    unitary acts as before on the first two factors.
    """
    gpd, c = rep.groupoid, rep.weights
    module2 = tensor(rep.module, ebasis)
    reg_s = regroup(rep.source_leg, rep.module, ebasis)
    reg_t = regroup(rep.target_leg, rep.module, ebasis)
    big = tensor_map(rep.umap, ebasis)
    umap = reg_t.compose(big).compose(reg_s.adjoint())
    return Representation(gpd, c, module2, umap)


def check_intertwiner(rep1, rep2, vmap, tol=1e-10):
    """vmap commutes with the two unitaries; reports the defect.

    vmap is a module map from the first coefficient module to the
    second; the condition tensors it with each leg and compares the
    two routes around the square.
    """
    out = Report("intertwiner")
    out.extend(check_module_map(vmap, tol))
    leak, bad = grade_leak(vmap, "left")
    out.add("object-grade-preserved", leak <= tol, defect=leak, witness=bad)
    if not leak <= 1e-13:
        out.add("commutes", False, witness="blocked by grade mismatch")
        return out

    lift_s = tensor_map_left(rep1.source_leg, vmap)
    lift_t = tensor_map_left(rep1.target_leg, vmap)
    one = lift_t.compose(rep1.umap)
    two = rep2.umap.compose(lift_s)
    d = max_abs(one.matrix - two.matrix)
    out.add("commutes", d <= tol, defect=d)
    return out


def invariant_support(rep):
    """Objects carrying a nonzero fiber, with the invariance check.

    Unitarity forces fiber dimensions to be constant along orbits, so
    the support is a union of orbits; the report names any arrow whose
    two ends have fibers of different dimension.
    """
    gpd = rep.groupoid
    support = tuple(x for x in gpd.objects
                    if len(rep.module.left_fiber(x)) > 0)
    out = Report("invariant support")
    bad = next((g for g in gpd.arrows
                if len(rep.module.left_fiber(gpd.src[g]))
                != len(rep.module.left_fiber(gpd.rng[g]))), None)
    out.add("orbit-constant-dims", bad is None, witness=bad)
    return support, out

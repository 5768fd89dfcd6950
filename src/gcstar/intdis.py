"""Integration of representations and exact disintegration back.

Integrating a representation against an arrow function factors the
function as a product of two square roots, sends one through a
creation map on each side of the unitary and lands on an operator on
the coefficient module.  Disintegration inverts this: the unit deltas
recover the grading projections, the arrow deltas recover the fiber
blocks after removing the weight scaling, and certificates computed
from the operators alone guard every step.

The naturality battery (check_naturality) checks that the two
directions respect maps: the frame of a disintegration intertwines it
with the representation it came from, on the cocycle level and on the
operator level, and inducing along a fixed graded space commutes with
integration.
"""

from __future__ import annotations

import numpy as np

from .report import Report, VerificationError, max_abs
from .hilbmod import ModuleMap, creation, module_from_dims, tensor_map
from .convalg import (convolve, delta_function, delta_product, fiber_sups,
                      identity_element, operator_norm, star)
from .reps import (CocycleFamily, blockwise, check_cocycle, check_intertwiner,
                   from_cocycle, induce)


def _sqrt_factors(f, order):
    out2 = np.array([np.sqrt(abs(f[g])) for g in order])
    out1 = np.zeros(len(order), dtype=complex)
    for i, g in enumerate(order):
        if out2[i] > 0.0:
            out1[i] = np.conj(f[g]) / out2[i]
    return out1, out2


def integrate_rep(rep, f):
    """Operator of an arrow function on the coefficient module.

    Factors f through two creation maps around the representation
    unitary; the absolute value splits as a product of square roots
    and the phase rides on the range side factor.
    """
    f1, f2 = _sqrt_factors(f, rep.source_leg.basis)
    lift = creation(rep.source, f2)
    drop = creation(rep.target, f1).adjoint()
    return drop.compose(rep.umap).compose(lift)


def oracle_integrate(rep, f):
    """Same operator assembled directly from the fiber blocks.

    The raw block of each arrow enters with coefficient f(g) times the
    source object weight; kept separate from integrate_rep so the two
    routes stay independent checks of each other.
    """
    gpd, c = rep.groupoid, rep.weights
    fam = blockwise(rep)
    module = rep.module
    mat = np.zeros((module.dim, module.dim), dtype=complex)
    for g in gpd.arrows:
        coeff = f[g] * c[gpd.src[g]]
        if coeff == 0:
            continue
        sfib = module.left_fiber(gpd.src[g])
        tfib = module.left_fiber(gpd.rng[g])
        block = fam.raw[g]
        for j, m in enumerate(sfib):
            for i, m2 in enumerate(tfib):
                mat[module.index[m2], module.index[m]] += \
                    coeff * block[i, j]
    return ModuleMap(module, module, mat)


def integration_bound(gpd, weights, f):
    """Geometric mean of the two fiber sups; dominates the norm."""
    sup_r, sup_s = fiber_sups(gpd, weights, f)
    return float(np.sqrt(sup_r * sup_s))


def _check_star_hom(out, gpd, c, op, funcs, tol):
    """Add identity, multiplicative and star for the route f -> op(f),
    op(f) a ModuleMap; products run over consecutive funcs."""
    ident = op(identity_element(gpd, c))
    d = max_abs(ident.matrix - np.eye(ident.target.dim))
    out.add("identity", d <= tol, defect=d)
    out.add_worst("multiplicative", (
        (max_abs(op(convolve(gpd, c, f1, f2)).matrix
                 - op(f1).compose(op(f2)).matrix), None)
        for f1, f2 in zip(funcs, funcs[1:])), tol)
    out.add_worst("star", (
        (max_abs(op(star(gpd, f)).matrix - op(f).adjoint().matrix), None)
        for f in funcs), tol)


def check_integration(rep, funcs, tol=1e-10):
    """Two-route agreement, star algebra laws and norm inequalities."""
    gpd, c = rep.groupoid, rep.weights
    out = Report("integration")
    funcs = list(funcs)

    defects = []
    for f in funcs:
        lit = integrate_rep(rep, f)
        ora = oracle_integrate(rep, f)
        defects.append((max_abs(lit.matrix - ora.matrix), None))
    out.add_worst("oracle-agreement", defects, tol)
    _check_star_hom(out, gpd, c, lambda f: integrate_rep(rep, f), funcs, tol)

    defects = []
    for f in funcs:
        gap = operator_norm(integrate_rep(rep, f)) \
            - integration_bound(gpd, c, f)
        defects.append((gap, None))
    out.add_worst("norm-bound", defects, 1e-9)

    defects = []
    for f in funcs:
        sup_r, sup_s = fiber_sups(gpd, c, f)
        gap = float(np.sqrt(sup_r * sup_s)) - max(sup_r, sup_s)
        defects.append((gap, None))
    out.add_worst("bound-below-inorm", defects, 1e-9)
    return out


# ---------------------------------------------------------------------------
# operator level representations

class ConvRep:
    """A family of operators, one per arrow delta, on a graded space."""

    def __init__(self, gpd, weights, space, delta_ops):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.space = space
        self.delta_ops = {g: np.asarray(delta_ops[g], dtype=complex)
                          for g in gpd.arrows}
        for g in gpd.arrows:
            if self.delta_ops[g].shape != (space.dim, space.dim):
                raise ValueError(f"operator shape mismatch at {g!r}")

    def op(self, f):
        mat = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for g in self.groupoid.arrows:
            if f[g] != 0:
                mat += f[g] * self.delta_ops[g]
        return ModuleMap(self.space, self.space, mat)


def conv_rep_of(rep):
    """Integrate every arrow delta of a representation."""
    gpd = rep.groupoid
    ops = {g: integrate_rep(rep, delta_function(gpd, g)).matrix
           for g in gpd.arrows}
    return ConvRep(gpd, rep.weights, rep.module, ops)


def check_conv_rep(conv, funcs, tol=1e-10):
    """Star representation axioms for the operator family."""
    gpd, c = conv.groupoid, conv.weights
    out = Report("operator representation")
    _check_star_hom(out, gpd, c, conv.op, list(funcs), tol)

    defects = []
    for g in gpd.arrows:
        mat = conv.delta_ops[g]
        for b in conv.space.basis:
            for b2 in conv.space.basis:
                if conv.space.left[b] == gpd.src[g] \
                        and conv.space.left[b2] == gpd.rng[g]:
                    continue
                v = abs(mat[conv.space.index[b2], conv.space.index[b]])
                defects.append((v, (g, b2, b)))
    out.add_worst("support-pattern", defects, tol)
    return out


def check_integrated_intertwiner(conv1, conv2, vmatrix, tol=1e-10):
    """A matrix V from the space of conv1 to that of conv2 commutes with
    every arrow delta: conv2(g) V == V conv1(g); the witness is the
    worst arrow."""
    v = np.asarray(vmatrix, dtype=complex)
    out = Report("integrated intertwiner")
    out.add_worst("integrated-commutes", (
        (max_abs(conv2.delta_ops[g] @ v - v @ conv1.delta_ops[g]), g)
        for g in conv1.groupoid.arrows), tol)
    return out


# ---------------------------------------------------------------------------
# pair function certificates

def pair_inner_s(gpd, weights, big1, big2):
    """Source side inner product of two pair functions, per arrow.

    Both arguments are dicts on composable pairs; the value at an
    arrow k integrates conj(big1(x, h)) big2(x, h k) over h landing at
    rng(k) and x landing at rng(h), weighted by c(rng x) c(rng h).
    """
    c = weights
    out = {k: 0.0 + 0.0j for k in gpd.arrows}
    for k in gpd.arrows:
        for h in gpd.arrows_out_of(gpd.rng[k]):
            hk = gpd.comp[(h, k)]
            for x in gpd.arrows_out_of(gpd.rng[h]):
                out[k] += (np.conj(big1[(x, h)]) * big2[(x, hk)]
                           * c[gpd.rng[x]] * c[gpd.rng[h]])
    return out


def pair_inner_r(gpd, weights, big1, big2):
    """Range side inner product of two range paired functions.

    Arguments are dicts on pairs (x, h) with rng(x) == rng(h); the
    value at k integrates conj(big1(x, h)) big2(x, h k) with weights
    c(src x) c(rng h).
    """
    c = weights
    out = {k: 0.0 + 0.0j for k in gpd.arrows}
    for k in gpd.arrows:
        for h in gpd.arrows_out_of(gpd.rng[k]):
            hk = gpd.comp[(h, k)]
            for x in gpd.arrows_into(gpd.rng[h]):
                out[k] += (np.conj(big1[(x, h)]) * big2[(x, hk)]
                           * c[gpd.src[x]] * c[gpd.rng[h]])
    return out


def upsilon(gpd, big):
    """Substitute (g, h) -> (g, g h): pair functions to range pairs."""
    out = {}
    for g in gpd.arrows:
        for k in gpd.arrows_into(gpd.rng[g]):
            out[(g, k)] = big[(g, gpd.comp[(gpd.inv[g], k)])]
    return out


def check_pair_exchange(gpd, weights, functions):
    """The substitution is isometric between the two pair inner products."""
    out = Report("pair exchange")
    funcs = list(functions)
    for i in range(len(funcs)):
        f1 = funcs[i]
        f2 = funcs[(i + 1) % len(funcs)]
        lhs = pair_inner_s(gpd, weights, f1, f2)
        rhs = pair_inner_r(gpd, weights,
                           upsilon(gpd, f1), upsilon(gpd, f2))
        defects = []
        for k in gpd.arrows:
            scale = max(abs(lhs[k]), abs(rhs[k]), 1.0)
            defects.append((abs(lhs[k] - rhs[k]) / scale, k))
        out.add_worst(f"exchange-{i}", defects, 1e-12)
    return out


# ---------------------------------------------------------------------------
# disintegration

def disintegrate(conv, tol=1e-9):
    """Recover a representation from its integrated operator family.

    Unit deltas give the grading projections after dividing by the
    object weight; their ranges split the space into fibers, further
    refined by the coefficient grading.  Arrow deltas compressed to
    the fibers and rescaled give the normalized blocks.  Raises when
    the fibers fail to span or when a certificate breaks; otherwise
    returns (representation, report), the representation carrying the
    fiber frame for operator level comparisons.
    """
    gpd, c, space = conv.groupoid, conv.weights, conv.space
    out = Report("disintegration")

    ident = conv.op(identity_element(gpd, c))
    d = max_abs(ident.matrix - np.eye(space.dim))
    out.add("nondegenerate", d <= tol, defect=d)

    gram = np.diag(space.gram_diagonal())
    defects = []
    for g in gpd.arrows:
        left = conv.delta_ops[g].conj().T @ gram
        for g2 in gpd.arrows:
            lhs = left @ conv.delta_ops[g2]
            # delta_g* convolved with delta_g2, from the structure constants
            rhs = gram @ conv.op(
                delta_product(gpd, c, gpd.inv[g], g2)).matrix
            defects.append((max_abs(lhs - rhs), None))
    out.add_worst("star-certificate", defects, tol)

    pair_batch = []
    pairs = gpd.composable_pairs()
    for p in pairs[: min(3, len(pairs))]:
        fn = {q: (1.0 if q == p else 0.0) for q in pairs}
        pair_batch.append(fn)
    if pair_batch:
        out.extend(check_pair_exchange(gpd, c, pair_batch),
                   prefix="certificate-")

    dhat = np.sqrt(space.gram_diagonal())
    projections = {}
    idem, adj = [], []
    for x in gpd.objects:
        p = conv.delta_ops[gpd.unit[x]] / c[x]
        projections[x] = p
        idem.append((max_abs(p @ p - p), None))
        pm = ModuleMap(space, space, p)
        adj.append((max_abs(pm.adjoint().matrix - p), None))
    out.add_worst("projections-idempotent", idem, tol)
    out.add_worst("projections-selfadjoint", adj, tol)
    total = sum(projections.values())
    d = max_abs(total - np.eye(space.dim))
    out.add("projections-sum", d <= tol, defect=d)

    if not out.ok:
        raise VerificationError(
            "certificates failed:\n" + "\n".join(
                ch.line() for ch in out.failures()))

    coeffs = space.right_space
    dims = {}
    frame_cols = {}
    spectrum = []
    for x in gpd.objects:
        for w in coeffs:
            idx = [space.index[b] for b in space.basis
                   if space.right[b] == w]
            if not idx:
                dims[(x, w)] = 0
                continue
            sub = projections[x][np.ix_(idx, idx)]
            hat = (dhat[idx][:, None] * sub) / dhat[idx][None, :]
            u, s, _ = np.linalg.svd(hat)
            rank = int(np.sum(s > 0.5))
            spectrum += [(min(abs(val), abs(val - 1.0)), None) for val in s]
            dims[(x, w)] = rank
            cols = u[:, :rank] / dhat[idx][:, None]
            frame_cols[(x, w)] = (idx, cols)
    out.add_worst("projection-spectrum", spectrum, tol)

    total_rank = sum(dims.values())
    if total_rank != space.dim:
        raise VerificationError(
            f"rank gap: fibers span {total_rank} dimensions, "
            f"the space has {space.dim}")

    module = module_from_dims(gpd.objects, coeffs, dims)
    frame_mat = np.zeros((space.dim, module.dim), dtype=complex)
    for (x, w), (idx, cols) in frame_cols.items():
        for i in range(cols.shape[1]):
            frame_mat[idx, module.index[(x, w, i)]] = cols[:, i]
    frame = ModuleMap(module, space, frame_mat)
    d = max_abs(frame.adjoint().compose(frame).matrix - np.eye(module.dim))
    out.add("frame-isometry", d <= tol, defect=d)

    unitaries = {}
    offblock = []
    for g in gpd.arrows:
        lg = ModuleMap(space, space, conv.delta_ops[g] / c[gpd.src[g]])
        small = frame.adjoint().compose(lg).compose(frame).matrix
        srows = [module.index[m] for m in module.left_fiber(gpd.src[g])]
        trows = [module.index[m] for m in module.left_fiber(gpd.rng[g])]
        mask = np.ones_like(small, dtype=bool)
        if trows and srows:
            mask[np.ix_(trows, srows)] = False
        offblock.append((max_abs(small[mask]), None))
        block = small[np.ix_(trows, srows)]
        unitaries[g] = np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]]) * block
    out.add_worst("compression-offblock", offblock, tol)

    fam = CocycleFamily(gpd, c, module, unitaries)
    out.extend(check_cocycle(fam, max(tol, 1e-9)), prefix="block-")
    if not out.ok:
        raise VerificationError(
            "extracted blocks are not a unitary cocycle:\n"
            + "\n".join(ch.line() for ch in out.failures()))

    rep = from_cocycle(gpd, c, module, unitaries)
    rep.frame = frame
    return rep, out


# ---------------------------------------------------------------------------
# round trips

def _operator_roundtrip(conv, rep):
    """(defect, arrow) of each delta operator of conv against rep
    integrated in its frame."""
    gpd, frame = conv.groupoid, rep.frame
    for g in gpd.arrows:
        lg = integrate_rep(rep, delta_function(gpd, g))
        back = frame.compose(lg).compose(frame.adjoint()).matrix
        yield max_abs(back - conv.delta_ops[g]), g


def _grade_dims(objects, module):
    """Module dimension over each (object, coefficient label)."""
    dims = {(x, w): 0 for x in objects for w in module.right_space}
    for b in module.basis:
        dims[(module.left[b], module.right[b])] += 1
    return dims


def roundtrip_rep(rep, tol=1e-9):
    """Integrate, disintegrate, compare dimensions and operators."""
    conv = conv_rep_of(rep)
    rep2, inner = disintegrate(conv, tol)
    out = Report("disintegrate after integrate")
    out.extend(inner)

    dims1 = _grade_dims(rep.groupoid.objects, rep.module)
    dims2 = _grade_dims(rep.groupoid.objects, rep2.module)
    out.add("dims-match", dims1 == dims2,
            witness=None if dims1 == dims2 else (dims1, dims2))

    out.add_worst("operator-roundtrip", _operator_roundtrip(conv, rep2), tol)
    return out


# ---------------------------------------------------------------------------
# naturality

def check_naturality(rep, conv, rep2, tol=1e-10):
    """Integration and disintegration respect maps, checked on one rep.

    conv is conv_rep_of(rep) and rep2 its disintegration.  The frame of
    rep2 must intertwine rep2 with rep on the cocycle level
    (check_intertwiner) and on the operator level
    (check_integrated_intertwiner).  Inducing along the graded space E
    with 1 + k % 2 vectors over the k-th coefficient label must commute
    with integration: the induced representation integrates each arrow
    delta to the integrated operator tensored with the identity of E.
    """
    gpd, frame = rep.groupoid, rep2.frame
    out = Report("naturality")
    out.extend(check_intertwiner(rep2, rep, frame, tol))
    out.extend(check_integrated_intertwiner(conv_rep_of(rep2), conv,
                                            frame.matrix, tol))
    labels = rep.module.right_space
    ebasis = module_from_dims(labels, ("e",), {
        (w, "e"): 1 + k % 2 for k, w in enumerate(labels)})
    big = induce(rep, ebasis)
    defects = []
    for g in gpd.arrows:
        f = delta_function(gpd, g)
        one = integrate_rep(big, f)
        two = tensor_map(integrate_rep(rep, f), ebasis)
        defects.append((max_abs(one.matrix - two.matrix), g))
    out.add_worst("induction", defects, tol)
    return out

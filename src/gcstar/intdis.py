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

conv_rep_of is the one place that integrates the arrow deltas of a
representation; every other route reads the stacked operators it returns.
"""

from __future__ import annotations

import numpy as np

from .report import (Report, VerificationError, max_abs, max_abs_each,
                     relative_defect, relative_defects)
from .measures import fibre_sums, object_weights, pair_values
from .hilbmod import ModuleMap, _join, creation, module_from_dims, tensor_map
from .convalg import (_product, convolve, fiber_sups, identity_element,
                      operator_norm, star)
from .reps import (CocycleFamily, blockwise, check_cocycle, check_intertwiner,
                   from_cocycle, induce)


def integrate_rep(rep, f):
    """Operator of an arrow function on the coefficient module.

    Factors f through two creation maps around the representation
    unitary; the absolute value splits as a product of square roots
    and the phase rides on the range side factor.  np.hypot rounds as
    abs() does.
    """
    f2 = np.sqrt(np.hypot(f.real, f.imag))
    f1 = np.divide(f.conj(), f2, out=np.zeros(len(f), dtype=complex),
                   where=f2 > 0)
    lift = creation(rep.source, f2)
    drop = creation(rep.target, f1).adjoint()
    return drop.compose(rep.umap).compose(lift)


def oracle_integrate(rep, f):
    """Same operator assembled directly from the fiber blocks.

    The raw block of each arrow enters with coefficient f(g) times the
    source object weight; kept separate from integrate_rep so the two
    routes stay independent checks of each other.
    """
    gpd, c, module = rep.groupoid, rep.weights, rep.module
    fam = blockwise(rep)
    mat = np.zeros((module.dim, module.dim), dtype=complex)
    pos = {x: module.left_positions(x) for x in gpd.objects}
    coeffs = f * object_weights(gpd, c)[gpd.codes.src]
    for g, coeff in zip(gpd.arrows, coeffs):
        if coeff != 0:
            rows, cols = pos[gpd.rng[g]], pos[gpd.src[g]]
            mat[np.ix_(rows, cols)] += _product(np.asarray(coeff), fam.raw[g])
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
        (relative_defect(op(convolve(gpd, c, f1, f2)).matrix,
                         op(f1).compose(op(f2)).matrix), None)
        for f1, f2 in zip(funcs, funcs[1:])), tol)
    out.add_worst("star", (
        (relative_defect(op(star(gpd, f)).matrix, op(f).adjoint().matrix),
         None)
        for f in funcs), tol)


def check_integration(rep, funcs, tol=1e-10):
    """Two-route agreement, star algebra laws and norm inequalities."""
    gpd, c = rep.groupoid, rep.weights
    out = Report("integration")
    funcs = list(funcs)

    out.add_worst("oracle-agreement", (
        (relative_defect(integrate_rep(rep, f).matrix,
                         oracle_integrate(rep, f).matrix), None)
        for f in funcs), tol)
    _check_star_hom(out, gpd, c, lambda f: integrate_rep(rep, f), funcs, tol)
    out.add_worst("norm-bound", (
        (operator_norm(integrate_rep(rep, f)) - integration_bound(gpd, c, f),
         None) for f in funcs), 1e-9)
    out.add_worst("bound-below-inorm", (
        (float(np.sqrt(sup_r * sup_s)) - max(sup_r, sup_s), None)
        for sup_r, sup_s in (fiber_sups(gpd, c, f) for f in funcs)), 1e-9)
    return out


# ---------------------------------------------------------------------------
# operator level representations

class ConvRep:
    """A family of operators, one per arrow delta, on a graded space.

    delta_ops maps each arrow to its dim x dim operator; ops stacks them
    read-only, (|A|, dim, dim), in arrow order."""

    def __init__(self, gpd, weights, space, delta_ops):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.space = space
        self.ops = np.empty((len(gpd.arrows), space.dim, space.dim),
                            dtype=complex)
        for i, g in enumerate(gpd.arrows):
            mat = np.asarray(delta_ops[g], dtype=complex)
            if mat.shape != (space.dim, space.dim):
                raise ValueError(f"operator shape mismatch at {g!r}")
            self.ops[i] = mat
        self.ops.flags.writeable = False

    def op(self, f):
        """The operator of f, the sum of f(g) times the delta at g."""
        return ModuleMap(self.space, self.space, np.tensordot(f, self.ops, 1))


def conv_rep_of(rep):
    """Integrate every arrow delta of a representation, once."""
    gpd = rep.groupoid
    ops = {g: integrate_rep(rep, delta).matrix for g, delta in
           zip(gpd.arrows, np.eye(len(gpd.arrows), dtype=complex))}
    return ConvRep(gpd, rep.weights, rep.module, ops)


def check_conv_rep(conv, funcs, tol=1e-10):
    """Star representation axioms for the operator family."""
    gpd, c = conv.groupoid, conv.weights
    out = Report("operator representation")
    _check_star_hom(out, gpd, c, conv.op, list(funcs), tol)

    # entry (b2, b) of the delta at g may be nonzero only from src(g) to
    # rng(g); np.hypot rounds like abs() (see hilbmod.grade_leak), and
    # argmax finds the first largest entry or NaN, arrow-major, then
    # column b, then row b2
    space, arrows = conv.space, gpd.arrows
    code = space.left_lookup
    ends = np.array([[code.get(gpd.src[g], -1), code.get(gpd.rng[g], -1)]
                     for g in arrows], dtype=np.intp).reshape(-1, 2, 1, 1)
    lc, ops = space.left_codes, conv.ops.transpose(0, 2, 1)
    leak = np.where((lc[:, None] == ends[:, 0]) & (lc == ends[:, 1]), 0.0,
                    np.hypot(ops.real, ops.imag)).ravel()
    k = int(np.argmax(leak)) if leak.size else -1
    d, witness = (float(leak[k]) if k >= 0 else 0.0), None
    if d != 0.0:
        g, b, b2 = np.unravel_index(k, ops.shape)
        witness = (arrows[g], space.basis[b2], space.basis[b])
    out.add("support-pattern", d <= tol, defect=d, witness=witness)
    return out


def check_integrated_intertwiner(conv1, conv2, vmatrix, tol=1e-10):
    """A matrix V from the space of conv1 to that of conv2 commutes with
    every arrow delta: conv2(g) V == V conv1(g), compared by
    relative_defect; the witness is the worst arrow.  Both families live
    on one groupoid."""
    v = np.asarray(vmatrix, dtype=complex)
    out = Report("integrated intertwiner")
    out.add_worst_at("integrated-commutes", relative_defects(
        conv2.ops @ v, v @ conv1.ops), tol, lambda k: conv1.groupoid.arrows[k])
    return out


# ---------------------------------------------------------------------------
# pair function certificates

def _pair_inner(gpd, weights, big1, big2, side):
    """pair_inner_s or pair_inner_r: the arrows x meeting rng(h) for each
    pair (h, k), at their source for side "s" and their range for "r",
    summed at k in the order of h, then x."""
    t, c = gpd.codes, object_weights(gpd, weights)
    meet, far = (t.src, t.rng) if side == "s" else (t.rng, t.src)
    h, k = t.pairs
    q, x = _join(meet, len(c), t.rng[h])
    h, k = h[q], k[q]
    terms = _product(pair_values(gpd, big1, x, h).conj(),
                     pair_values(gpd, big2, x, t.comp[h, k]))
    return fibre_sums(k, terms * c[far[x]] * c[t.rng[h]], len(gpd.arrows))


def pair_inner_s(gpd, weights, big1, big2):
    """Source side inner product of two pair functions, per arrow.

    Both arguments are dicts on composable pairs; the result is an
    array in arrow order, whose value at an arrow k integrates
    conj(big1(x, h)) big2(x, h k) over h landing at rng(k) and x
    landing at rng(h), weighted by c(rng x) c(rng h).
    """
    return _pair_inner(gpd, weights, big1, big2, "s")


def pair_inner_r(gpd, weights, big1, big2):
    """Range side inner product of two range paired functions.

    Arguments are dicts on pairs (x, h) with rng(x) == rng(h); the
    result is an array in arrow order, whose value at k integrates
    conj(big1(x, h)) big2(x, h k) with weights c(src x) c(rng h).
    """
    return _pair_inner(gpd, weights, big1, big2, "r")


def upsilon(gpd, big):
    """Substitute (g, h) -> (g, g h): pair functions to range pairs."""
    t, a = gpd.codes, gpd.arrows
    g, k = np.nonzero(t.rng[:, None] == t.rng)
    vals = pair_values(gpd, big, g, t.comp[t.inv[g], k]).tolist()
    return dict(zip(zip([a[i] for i in g], [a[i] for i in k]), vals))


def check_pair_exchange(gpd, weights, functions):
    """The substitution is isometric between the two pair inner products."""
    out = Report("pair exchange")
    funcs = list(functions)
    for i, (f1, f2) in enumerate(zip(funcs, funcs[1:] + funcs[:1])):
        lhs = pair_inner_s(gpd, weights, f1, f2)
        rhs = pair_inner_r(gpd, weights, upsilon(gpd, f1), upsilon(gpd, f2))
        out.add_worst(f"exchange-{i}", (
            (abs(a - b) / max(abs(a), abs(b), 1.0), g)
            for g, a, b in zip(gpd.arrows, lhs.tolist(), rhs.tolist())), 1e-12)
    return out


# ---------------------------------------------------------------------------
# disintegration

def star_pairs(conv):
    """Per arrow g, in arrow order: the stack over the arrows g2 of
    L(g)* G L(g2), G the Gram diagonal; the mask of the g2 with g^-1 g2
    composable, where delta_g* * delta_g2 is c(rng g) times the delta at
    g^-1 g2, read from row g^-1 of the composition table, and zero
    elsewhere; and the stack over the masked g2 of G L(delta_g* *
    delta_g2)."""
    t = conv.groupoid.codes
    c = object_weights(conv.groupoid, conv.weights)
    gram = np.diag(conv.space.gram_diagonal())
    for g, op in enumerate(conv.ops):
        row = t.comp[t.inv[g]]
        yield (op.conj().T @ gram @ conv.ops, row >= 0,
               gram @ (c[t.rng[g]] * conv.ops[row[row >= 0]]))


def _star_defects(conv):
    """relative_defect of the two sides of star_pairs, pair by pair."""
    for lhs, hit, rhs in star_pairs(conv):
        d = relative_defects(lhs, None)
        d[hit] = relative_defects(lhs[hit], rhs)
        yield from d.tolist()


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

    out.add_worst("star-certificate",
                  ((d, None) for d in _star_defects(conv)), tol)

    dhat = np.sqrt(space.gram_diagonal())
    projections = {x: conv.ops[u] / c[x] for x, u in
                   zip(gpd.objects, gpd.codes.unit.tolist())}
    out.add_worst("projections-idempotent", (
        (max_abs(p @ p - p), None) for p in projections.values()), tol)
    out.add_worst("projections-selfadjoint", (
        (max_abs(ModuleMap(space, space, p).adjoint().matrix - p), None)
        for p in projections.values()), tol)
    d = max_abs(sum(projections.values()) - np.eye(space.dim))
    out.add("projections-sum", d <= tol, defect=d)

    if not out.ok:
        raise VerificationError(
            "certificates failed:\n" + "\n".join(
                ch.line() for ch in out.failures()))

    coeffs = space.right_space
    dims, frame_cols, spectrum = {}, {}, []
    for x in gpd.objects:
        for k, w in enumerate(coeffs):
            idx = np.flatnonzero(space.right_codes == k)
            if not idx.size:
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

    # module is graded over gpd.objects, so its left codes are object
    # positions
    t, lc = gpd.codes, module.left_codes
    small = frame.adjoint().matrix @ (
        conv.ops / object_weights(gpd, c)[t.src, None, None]) @ frame_mat
    at_rng, at_src = lc == t.rng[:, None], lc == t.src[:, None]
    off = np.where(at_rng[:, :, None] & at_src[:, None, :], 0.0, small)
    out.add_worst_at("compression-offblock", max_abs_each(off), tol)
    unitaries = {g: np.sqrt(c[gpd.src[g]] / c[gpd.rng[g]])
                 * small[i][np.ix_(at_rng[i], at_src[i])]
                 for i, g in enumerate(gpd.arrows)}
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

def _grade_dims(objects, module):
    """Module dimension over each (object, coefficient label)."""
    return {(x, w): int(np.count_nonzero(
                module.right_codes[module.left_positions(x)] == k))
            for x in objects for k, w in enumerate(module.right_space)}


def _roundtrip(rep, tol):
    """roundtrip_rep's report, with the conv, rep2 and conv2 it built."""
    conv = conv_rep_of(rep)
    rep2, inner = disintegrate(conv, tol)
    conv2 = conv_rep_of(rep2)
    out = Report("disintegrate after integrate")
    out.extend(inner)

    dims1 = _grade_dims(rep.groupoid.objects, rep.module)
    dims2 = _grade_dims(rep.groupoid.objects, rep2.module)
    out.add("dims-match", dims1 == dims2,
            witness=None if dims1 == dims2 else (dims1, dims2))

    frame, space = rep2.frame, conv2.space
    out.add_worst("operator-roundtrip", (
        (relative_defect(frame.compose(ModuleMap(space, space, op2))
                         .compose(frame.adjoint()).matrix, op), g)
        for g, op, op2 in zip(rep.groupoid.arrows, conv.ops, conv2.ops)), tol)
    return out, conv, rep2, conv2


def roundtrip_rep(rep, tol=1e-9):
    """Integrate, disintegrate, compare dimensions and operators."""
    return _roundtrip(rep, tol)[0]


def roundtrip_naturality(rep, tol=1e-9):
    """The roundtrip_rep report and the check_naturality report of one
    disintegration, integrating each representation once."""
    out, conv, rep2, conv2 = _roundtrip(rep, tol)
    return out, _naturality(rep, conv, rep2, conv2, tol)


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
    return _naturality(rep, conv, rep2, conv_rep_of(rep2), tol)


def _naturality(rep, conv, rep2, conv2, tol):
    """check_naturality, given conv2 = conv_rep_of(rep2)."""
    frame, space = rep2.frame, conv.space
    out = Report("naturality")
    out.extend(check_intertwiner(rep2, rep, frame, tol))
    out.extend(check_integrated_intertwiner(conv2, conv, frame.matrix, tol))
    labels = rep.module.right_space
    ebasis = module_from_dims(labels, ("e",), {
        (w, "e"): 1 + k % 2 for k, w in enumerate(labels)})
    big = conv_rep_of(induce(rep, ebasis))
    out.add_worst("induction", (
        (relative_defect(one, tensor_map(ModuleMap(space, space, op),
                                         ebasis).matrix), g)
        for g, one, op in zip(rep.groupoid.arrows, big.ops, conv.ops)), tol)
    return out

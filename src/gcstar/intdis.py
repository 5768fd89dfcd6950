"""Integration of representations and exact disintegration back.

Integrating a representation against an arrow function factors the
function as a product of two square roots, sends one through a
creation map on each side of the unitary and lands on an operator on
the coefficient module.  _integrate does this for a stack of functions
at once: each entry of the unitary meets the creation factors of every
row whose function is nonzero at its arrow, so a delta costs one fibre
block.  Disintegration inverts this: the unit deltas recover the
grading projections, the arrow deltas compressed to the fibres recover
the blocks after removing the weight scaling, and certificates computed
from the operators alone guard every step; the star certificate runs on
the compressed fibre blocks, over the arrow pairs that share a range.

The naturality battery (check_naturality) checks that the two
directions respect maps: the frame of a disintegration intertwines it
with the representation it came from, on the cocycle level and on the
operator level, and inducing along a fixed graded space commutes with
integration.

conv_rep_of is the one place that integrates the arrow deltas of a
representation, as one stack; every other route reads the stacked
operators it returns.
"""

from __future__ import annotations

import numpy as np

from .report import Report, VerificationError, relative_defects
from .measures import _relative_gaps, fibre_sums, object_weights, pair_values
from .hilbmod import (ModuleMap, _entries, _join, creation, lift,
                      module_from_dims, tensor)
from .convalg import (_product, _spectral_norms, convolve, fiber_sups,
                      i_norm, identity_element, star)
from .reps import (CocycleFamily, blockwise, check_cocycle, check_intertwiner,
                   from_cocycle, induce)


def _sqrt_split(funcs):
    """The factors (f1, f2) of f = conj(f1) f2 for a stack of arrow
    functions: f2 = sqrt|f| (np.hypot rounds as abs() does), and
    f1 = conj(f) / f2 where f2 > 0, else 0."""
    f2 = np.sqrt(np.hypot(funcs.real, funcs.imag))
    f1 = np.divide(funcs.conj(), f2, out=np.zeros(funcs.shape, dtype=complex),
                   where=f2 > 0)
    return f1, f2


def _integrate(rep, funcs):
    """The operators of a stack of arrow functions (n, |A|), as an
    (n, d, d) array on the coefficient module.

    Each row f splits as conj(f1) f2 (_sqrt_split); its operator is the
    adjoint creation map of f1 after the unitary after the creation map
    of f2.  The creation maps of the unit function carry the module
    vector of every tensor point and the adjoint weights; a row scales
    them by its factors at the point's arrow.  Each entry of the unitary
    meets the rows whose f2 is nonzero (NaN included) at its source
    arrow, and the terms at one module position are summed in the order
    row, source arrow, entry; so a row integrates to the same bits alone
    or in a stack.
    """
    return _integrator(rep)(funcs)


def _integrator(rep):
    """_integrate for rep as a function of the stack, which reads the
    creation maps and the unitary's entries once for every stack."""
    d, arrows = rep.module.dim, len(rep.groupoid.arrows)
    ones = np.ones(arrows)
    lift = creation(rep.source, ones)
    drop = creation(rep.target, ones).adjoint()
    (_, sa), _ = rep.source.factors
    (_, ta), _ = rep.target.factors
    rows, cols, vals = _entries(rep.umap)
    at = sa[cols]

    def integrate(funcs):
        funcs = np.asarray(funcs, dtype=complex)
        f1, f2 = _sqrt_split(funcs)
        k, g = np.nonzero(f2)
        w, e = _join(at, arrows, g)
        k, q, p = k[w], rows[e], cols[e]
        terms = f1[k, ta[q]].conj() * drop.vals[q] * vals[e] * f2[k, g[w]]
        keys = (k * d + drop.rows[q]) * d + lift.cols[p]
        return fibre_sums(keys, terms, len(funcs) * d * d).reshape(-1, d, d)
    return integrate


def integrate_rep(rep, f):
    """Operator of an arrow function on the coefficient module, as a
    ModuleMap: _integrate on the one row f; for a stack (n, |A|), the
    operators (n, d, d) of _integrate."""
    if np.ndim(f) == 2:
        return _integrate(rep, f)
    return ModuleMap(rep.module, rep.module, _integrate(rep, f[None])[0])


def oracle_integrate(fam, funcs):
    """The operators of a stack of arrow functions (n, |A|), assembled
    directly from the fiber blocks fam = blockwise(rep), as (n, d, d).

    The raw block of each arrow enters each row with coefficient f(g)
    times the source object weight where that is nonzero, and the terms
    at one position are summed in arrow order; kept separate from
    _integrate so the two routes stay independent checks of each other.
    """
    gpd, module, d = fam.groupoid, fam.module, fam.module.dim
    t = gpd.codes
    coeffs = np.asarray(funcs, dtype=complex) \
        * object_weights(gpd, fam.weights)[t.src]
    pos = [module.left_positions(x) for x in gpd.objects]
    blocks = [fam.raw[g] for g in gpd.arrows]
    # every block entry, arrow by arrow, its arrow and its flat place
    vals = np.concatenate([b.ravel() for b in blocks])
    owner = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])
    at = np.concatenate([(pos[r][:, None] * d + pos[s]).ravel() for
                         r, s in zip(t.rng.tolist(), t.src.tolist())])
    k, g = np.nonzero(coeffs)
    w, e = _join(owner, len(blocks), g)
    return fibre_sums(k[w] * d * d + at[e], _product(
        coeffs[k[w], g[w]], vals[e]), len(coeffs) * d * d).reshape(-1, d, d)


def integration_bound(gpd, weights, f):
    """Geometric mean of the two fiber sups of f, or of each row of a
    stack; dominates the norm."""
    sup_r, sup_s = fiber_sups(gpd, weights, f)
    return np.sqrt(sup_r * sup_s)


def _check_star_hom(out, gpd, c, space, integrate, funcs, ops, ident, tol):
    """Add identity, multiplicative and star for a route from arrow
    functions to operators on space: integrate takes a stack (n, |A|) to
    (n, d, d), ops = integrate(funcs) and ident is the operator of the
    identity element; the products of consecutive funcs and the stars
    of funcs are one stack each."""
    out.add_worst_at("identity", abs(ident - np.eye(space.dim)), tol)
    out.add_worst_at("multiplicative", relative_defects(
        integrate(convolve(gpd, c, funcs[:-1], funcs[1:])),
        ops[:-1] @ ops[1:]), tol)
    w = space.gram_diagonal()
    adjoints = ops.conj().transpose(0, 2, 1) * (w[None, :] / w[:, None])
    out.add_worst_at("star", relative_defects(integrate(star(gpd, funcs)),
                                              adjoints), tol)


def _stack(gpd, funcs):
    """A list of arrow functions as one (n, |A|) complex array."""
    return np.reshape(np.asarray(funcs, dtype=complex),
                      (len(funcs), len(gpd.arrows)))


def check_integration(rep, funcs, tol=1e-10):
    """Two-route agreement, star algebra laws and norm inequalities.

    Integrates the batch with the identity, its consecutive products and
    its stars as one stack each, by one integrator, and builds the
    oracle's blocks once."""
    gpd, c, module = rep.groupoid, rep.weights, rep.module
    out = Report("integration")
    funcs = _stack(gpd, list(funcs))
    integrate = _integrator(rep)
    ops = integrate(np.concatenate([funcs, identity_element(gpd, c)[None]]))
    ops, ident = ops[:-1], ops[-1]

    out.add_worst_at("oracle-agreement", relative_defects(
        ops, oracle_integrate(blockwise(rep), funcs)), tol)
    _check_star_hom(out, gpd, c, module, integrate, funcs, ops, ident, tol)
    # operator norm <= integration_bound <= i_norm, each step as a
    # one-sided relative gap: relative_defects(lhs, min(lhs, rhs)) is
    # (lhs - rhs) / max(1, |lhs|, |rhs|) where lhs > rhs, else 0
    norms = _spectral_norms(np.sqrt(module.gram_diagonal()), ops)
    bounds = integration_bound(gpd, c, funcs)
    inorms = i_norm(gpd, c, funcs)
    out.add_worst_at("norm-bound", relative_defects(
        norms, np.minimum(norms, bounds)), 1e-9)
    out.add_worst_at("bound-below-inorm", relative_defects(
        bounds, np.minimum(bounds, inorms)), 1e-9)
    return out


# ---------------------------------------------------------------------------
# operator level representations

class ConvRep:
    """A family of operators, one per arrow delta, on a graded space.

    delta_ops holds one dim x dim operator per arrow, in arrow order;
    ops stacks them read-only, (|A|, dim, dim).  An operator of another
    shape raises ValueError naming its arrow."""

    def __init__(self, gpd, weights, space, delta_ops):
        self.groupoid = gpd
        self.weights = {x: float(weights[x]) for x in gpd.objects}
        self.space = space
        for g, op in zip(gpd.arrows, delta_ops):
            if np.shape(op) != (space.dim, space.dim):
                raise ValueError(f"operator shape mismatch at {g!r}")
        if len(delta_ops) != len(gpd.arrows):
            raise ValueError(f"{len(delta_ops)} operators for "
                             f"{len(gpd.arrows)} arrows")
        self.ops = np.array(delta_ops, dtype=complex)
        self.ops.flags.writeable = False

    def op(self, f):
        """The operator of f, the sum of f(g) times the delta at g."""
        return ModuleMap(self.space, self.space, np.tensordot(f, self.ops, 1))


def conv_rep_of(rep):
    """Integrate every arrow delta of a representation, once, as one
    stack."""
    gpd = rep.groupoid
    return ConvRep(gpd, rep.weights, rep.module, integrate_rep(
        rep, np.eye(len(gpd.arrows), dtype=complex)))


def check_conv_rep(conv, funcs, tol=1e-10):
    """Star representation axioms for the operator family."""
    gpd, c = conv.groupoid, conv.weights
    out = Report("operator representation")
    funcs = _stack(gpd, list(funcs))

    def integrate(fs):
        return np.tensordot(fs, conv.ops, 1)
    _check_star_hom(out, gpd, c, conv.space, integrate, funcs,
                    integrate(funcs), conv.op(identity_element(gpd, c)).matrix,
                    tol)

    # entry (b2, b) of the delta at g may be nonzero only from src(g) to
    # rng(g); np.hypot rounds like abs() (see hilbmod.grade_leak), and
    # the witness is the first largest entry or NaN, arrow-major, then
    # column b, then row b2
    space, arrows = conv.space, gpd.arrows
    code = space.left_lookup
    ends = np.array([[code.get(gpd.src[g], -1), code.get(gpd.rng[g], -1)]
                     for g in arrows], dtype=np.intp).reshape(-1, 2, 1, 1)
    lc, ops = space.left_codes, conv.ops.transpose(0, 2, 1)
    leak = np.where((lc[:, None] == ends[:, 0]) & (lc == ends[:, 1]), 0.0,
                    np.hypot(ops.real, ops.imag))

    def witness_of(k):
        g, b, b2 = np.unravel_index(k, ops.shape)
        return arrows[g], space.basis[b2], space.basis[b]
    out.add_worst_at("support-pattern", leak, tol, witness_of)
    return out


def check_integrated_intertwiner(conv1, conv2, vmatrix, tol=1e-10):
    """A matrix V from the space of conv1 to that of conv2 commutes with
    every arrow delta: conv2(g) V == V conv1(g), compared by
    relative_defects; the witness is the worst arrow.  Both families live
    on one groupoid."""
    v = np.asarray(vmatrix, dtype=complex)
    out = Report("integrated intertwiner")
    out.add_worst_at("integrated-commutes", relative_defects(
        conv2.ops @ v, v @ conv1.ops), tol, lambda k: conv1.groupoid.arrows[k])
    return out


# ---------------------------------------------------------------------------
# pair function certificates

def _domain(gpd, side):
    """The pairs a pair function lives on, composable pairs (g, h) for
    side "s" and pairs (g, k) with rng(g) == rng(k) for side "r", as
    position arrays in row-major order, and the |A| x |A| table of their
    places in that order, -1 off them."""
    t = gpd.codes
    g, h = t.pairs if side == "s" else np.nonzero(t.rng[:, None] == t.rng)
    at = np.full(t.comp.shape, -1, dtype=np.intp)
    at[g, h] = np.arange(len(g))
    return g, h, at


def _pair_inner(gpd, weights, side, at):
    """pair_inner_s or pair_inner_r as a function of the values of two
    pair functions on the domain of side, whose places table is at: the
    arrows x meeting rng(h) for each pair (h, k), at their source for
    side "s" and their range for "r", summed at k in the order of h,
    then x."""
    t, c = gpd.codes, object_weights(gpd, weights)
    meet, far = (t.src, t.rng) if side == "s" else (t.rng, t.src)
    h, k = t.pairs
    q, x = _join(meet, len(c), t.rng[h])
    h, k = h[q], k[q]
    left, right = at[x, h], at[x, t.comp[h, k]]
    cx, ch = c[far[x]], c[t.rng[h]]

    def inner(vals1, vals2):
        terms = _product(vals1[left].conj(), vals2[right])
        return fibre_sums(k, terms * cx * ch, len(gpd.arrows))
    return inner


def _pair_inner_of(gpd, weights, big1, big2, side):
    g, h, at = _domain(gpd, side)
    return _pair_inner(gpd, weights, side, at)(
        pair_values(gpd, big1, g, h), pair_values(gpd, big2, g, h))


def pair_inner_s(gpd, weights, big1, big2):
    """Source side inner product of two pair functions, per arrow.

    Both arguments are dicts on composable pairs; the result is an
    array in arrow order, whose value at an arrow k integrates
    conj(big1(x, h)) big2(x, h k) over h landing at rng(k) and x
    landing at rng(h), weighted by c(rng x) c(rng h).
    """
    return _pair_inner_of(gpd, weights, big1, big2, "s")


def pair_inner_r(gpd, weights, big1, big2):
    """Range side inner product of two range paired functions.

    Arguments are dicts on pairs (x, h) with rng(x) == rng(h); the
    result is an array in arrow order, whose value at k integrates
    conj(big1(x, h)) big2(x, h k) with weights c(src x) c(rng h).
    """
    return _pair_inner_of(gpd, weights, big1, big2, "r")


def upsilon(gpd, big):
    """Substitute (g, h) -> (g, g h): pair functions to range pairs."""
    t, a = gpd.codes, gpd.arrows
    g, h, at = _domain(gpd, "s")
    vals = pair_values(gpd, big, g, h)
    g, k, _ = _domain(gpd, "r")
    vals = vals[at[g, t.comp[t.inv[g], k]]].tolist()
    return dict(zip(zip([a[i] for i in g], [a[i] for i in k]), vals))


def check_pair_exchange(gpd, weights, functions):
    """The substitution is isometric between the two pair inner products.

    Each pair function and its substitute are read once into arrays over
    their pairs, and the inner products gather from those."""
    out = Report("pair exchange")
    funcs = list(functions)
    g, h, at = _domain(gpd, "s")
    rg, rk, at_r = _domain(gpd, "r")
    vals = [pair_values(gpd, f, g, h) for f in funcs]
    ups = [pair_values(gpd, upsilon(gpd, f), rg, rk) for f in funcs]
    inner_s = _pair_inner(gpd, weights, "s", at)
    inner_r = _pair_inner(gpd, weights, "r", at_r)
    for i in range(len(funcs)):
        j = (i + 1) % len(funcs)
        lhs = inner_s(vals[i], vals[j])
        rhs = inner_r(ups[i], ups[j])
        out.add_worst_at(f"exchange-{i}", _relative_gaps(lhs, rhs), 1e-12,
                         lambda k: gpd.arrows[k])
    return out


# ---------------------------------------------------------------------------
# disintegration

def _fibre_blocks(gpd, module, stack):
    """The block of each stack[g] from the src(g) fibre to the rng(g)
    fibre of module, zero-padded to the largest fibre: (|A|, m, m).
    module is graded over gpd.objects, each fibre contiguous."""
    t = gpd.codes
    start = np.searchsorted(module.left_codes,
                            np.arange(len(gpd.objects) + 1))
    size = np.diff(start)
    i = np.arange(size.max(initial=0))
    rok, cok = i < size[t.rng, None], i < size[t.src, None]
    rows = np.where(rok, start[t.rng, None] + i, 0)
    cols = np.where(cok, start[t.src, None] + i, 0)
    got = stack[np.arange(len(stack))[:, None, None], rows[:, :, None],
                cols[:, None, :]]
    return np.where(rok[:, :, None] & cok[:, None, :], got, 0.0)


def _star_certificate(gpd, c, blocks):
    """relative_defects of B(g)* B(g2) against c(rng g) B(g^-1 g2) over
    the pairs with rng g == rng g2, B the fibre blocks, c the object
    weights; one stacked product per range object, in row chunks of
    about a million entries.  Returns the defects and the position pairs
    (g, g2), range object by range object, g-major."""
    t, m = gpd.codes, blocks.shape[-1]
    defects, pairs = [], []
    for x, cx in enumerate(c.tolist()):
        into = np.flatnonzero(t.rng == x)
        step = max(1, 2 ** 20 // max(1, len(into) * m * m))
        for lo in range(0, len(into), step):
            g = into[lo:lo + step, None]
            lhs = blocks[g].conj().transpose(0, 1, 3, 2) @ blocks[into]
            rhs = cx * blocks[t.comp[t.inv[g], into]]
            defects.append(relative_defects(lhs.reshape(-1, m, m),
                                            rhs.reshape(-1, m, m)))
            pairs.append(np.column_stack([np.repeat(g, len(into)),
                                          np.tile(into, len(g))]))
    return np.concatenate(defects), np.concatenate(pairs)


def _require(out, head):
    """Raise VerificationError under head, listing the failed checks."""
    if not out.ok:
        raise VerificationError(head + ":\n" + "\n".join(
            ch.line() for ch in out.failures()))


def disintegrate(conv, tol=1e-9):
    """Recover a representation from its integrated operator family.

    Unit deltas give the grading projections after dividing by the
    object weight; their ranges split the space into fibers, further
    refined by the coefficient grading, and an orthonormal frame F of
    each piece makes up the recovered module.  Each arrow delta L(g) is
    compressed to M(g) = F* G L(g) F (G the Gram diagonal, F* G the
    adjoint of F), and M(g) / c(src g) rescaled on its block from the
    src(g) fibre to the rng(g) fibre gives the normalized block.  Raises
    when the fibers fail to span or when a certificate breaks; otherwise
    returns (representation, report), the representation carrying the
    fiber frame for operator level comparisons.

    The star certificate asks L(g)* G L(g2) = G L(delta_g* delta_g2) for
    the arrow pairs, with delta_g* delta_g2 = c(rng g) delta_{g^-1 g2}
    when rng g == rng g2 and 0 otherwise.  It runs after the frame, on
    the fibre blocks B(g) of M(g), and only over the pairs that share a
    range: B(g)* B(g2) = c(rng g) B(g^-1 g2).  This loses nothing, by
    the following lemma.  Let D be the module dimension, e the
    compression-offblock defect (the largest entry of M(g) / c(src g)
    off its block) and m the largest entry of any M(g) / c(src g).  If
    rng g != rng g2 the blocks of M(g) and M(g2) lie in different rows,
    so every term of M(g)* M(g2) has an off-block factor, and each entry
    is at most D e (2 m + e) c(src g) c(src g2).  Once projections-*,
    projection-spectrum and frame-isometry pass, F is square and
    F* G F = I holds up to tol; where it holds exactly, L(g)* G L(g2) =
    G F M(g)* M(g2) F* G, whose entries are at most D max(G) times the
    largest entry of M(g)* M(g2).  So with compression-offblock passing
    (e <= tol), every off-range product of the dense certificate is at
    most D^2 max(G) (2 m + tol) c(src g) c(src g2) tol.  On the pairs
    that share a range, conjugating by F turns the dense identity into
    M(g)* M(g2) = c(rng g) M(g^-1 g2), whose two sides live on the block
    from the src(g) fibre to the src(g2) fibre.
    """
    gpd, c, space = conv.groupoid, conv.weights, conv.space
    t, cw = gpd.codes, object_weights(gpd, c)
    out = Report("disintegration")

    ident = conv.op(identity_element(gpd, c))
    out.add_worst_at("nondegenerate", abs(ident.matrix - np.eye(space.dim)),
                     tol)

    gram = space.gram_diagonal()
    dhat = np.sqrt(gram)
    projections = {x: conv.ops[u] / c[x] for x, u in
                   zip(gpd.objects, t.unit.tolist())}
    units = np.array(list(projections.values()))
    out.add_worst_at("projections-idempotent", abs(units @ units - units), tol)
    out.add_worst_at("projections-selfadjoint", abs(
        units.conj().transpose(0, 2, 1) * (gram / gram[:, None]) - units),
        tol)
    out.add_worst_at("projections-sum", abs(sum(units) - np.eye(space.dim)),
                     tol)

    _require(out, "certificates failed")

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
            spectrum.append(np.minimum(abs(s), abs(s - 1.0)))
            dims[(x, w)] = rank
            cols = u[:, :rank] / dhat[idx][:, None]
            frame_cols[(x, w)] = (idx, cols)
    out.add_worst_at("projection-spectrum", np.concatenate([[], *spectrum]),
                     tol)

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
    out.add_worst_at("frame-isometry", abs(
        frame.adjoint().compose(frame).matrix - np.eye(module.dim)), tol)

    # module is graded over gpd.objects, so its left codes are object
    # positions
    lc = module.left_codes
    small = frame.adjoint().matrix @ (
        conv.ops / cw[t.src, None, None]) @ frame_mat
    at_rng, at_src = lc == t.rng[:, None], lc == t.src[:, None]
    off = np.where(at_rng[:, :, None] & at_src[:, None, :], 0.0, small)
    out.add_worst_at("compression-offblock", abs(off), tol)
    blocks = _fibre_blocks(gpd, module, small)
    defects, pairs = _star_certificate(
        gpd, cw, cw[t.src, None, None] * blocks)
    out.add_worst_at("star-certificate", defects, tol, lambda k: (
        gpd.arrows[pairs[k, 0]], gpd.arrows[pairs[k, 1]]))
    _require(out, "certificates failed")

    size = np.bincount(lc, minlength=len(gpd.objects))
    unitaries = {g: np.sqrt(cw[s] / cw[r]) * block[:size[r], :size[s]]
                 for g, r, s, block in zip(gpd.arrows, t.rng.tolist(),
                                           t.src.tolist(), blocks)}
    fam = CocycleFamily(gpd, c, module, unitaries)
    out.extend(check_cocycle(fam, max(tol, 1e-9)), prefix="block-")
    _require(out, "extracted blocks are not a unitary cocycle")

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

    frame = rep2.frame
    back = frame.matrix @ conv2.ops @ frame.adjoint().matrix
    out.add_worst_at("operator-roundtrip", relative_defects(back, conv.ops),
                     tol, lambda k: rep.groupoid.arrows[k])
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
    # one arrow at a time, lifted onto one tensor: the largest operators
    lifted = tensor(space, ebasis)
    out.add_worst_at("induction", np.fromiter(
        (relative_defects(one[None], lift(
            ModuleMap(space, space, op), lifted, lifted, 0).matrix[None])[0]
         for one, op in zip(big.ops, conv.ops)), float, len(big.ops)), tol,
        lambda k: rep.groupoid.arrows[k])
    return out

"""Convolution algebra of a weighted groupoid and its operator norm.

A function on the arrows is a complex array of length |A| in
gpd.arrows order.  Convolution integrates over the range fiber with
the invariant weights, the involution composes conjugation with
inversion, and the regular matrix is the action of a function on the
arrow space by left convolution.  The operator norm is the spectral
norm of the similarity transformed matrix, computed with LAPACK
through numpy.linalg.
"""

from __future__ import annotations

import numpy as np

from .report import Report, relative_defects, worst_at
from .measures import arrow_correspondence, fibre_sums, object_weights
from .hilbmod import ModuleMap


def delta_function(gpd, g):
    """The unit vector at the arrow g."""
    f = np.zeros(len(gpd.arrows), dtype=complex)
    f[gpd.arrows.index(g)] = 1.0
    return f


def _product(a, b):
    """Entrywise a * b rounded as Python's complex product rounds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def convolve(gpd, weights, f1, f2):
    """(f1 * f2)(k) sums f1(h) f2(inverse(h) k) c(src(h)) over range fibers,
    gathered over the composable pairs (h, m) and summed at k = hm."""
    t = gpd.codes
    h, m = t.pairs
    terms = _product(f1[h], f2[m]) * object_weights(gpd, weights)[t.src[h]]
    return fibre_sums(t.comp[h, m], terms, len(gpd.arrows))


def star(gpd, f):
    return f[gpd.codes.inv].conj()


def identity_element(gpd, weights):
    """Unit of the algebra: units weighted by the reciprocal object weight."""
    f = np.zeros(len(gpd.arrows), dtype=complex)
    f[gpd.codes.unit] = 1.0 / object_weights(gpd, weights)
    return f


def fiber_sups(gpd, weights, f):
    """Sups of the fibrewise absolute integrals along range and source.

    A NaN value of f makes the sups NaN rather than dropping out.
    """
    t, c, n = gpd.codes, object_weights(gpd, weights), len(gpd.objects)
    size = np.hypot(f.real, f.imag)
    along_r = np.bincount(t.rng, size * c[t.src], n)
    along_s = np.bincount(t.src, size * c[t.rng], n)
    return worst_at(along_r)[0], worst_at(along_s)[0]


def i_norm(gpd, weights, f):
    """Larger of the two fibrewise absolute integrals of f; NaN wins."""
    return worst_at(fiber_sups(gpd, weights, f))[0]


def regular_matrix(gpd, weights, f):
    """Left convolution by f on the arrow space, as a ModuleMap.

    Entry [h, h2] is f(h h2^{-1}) c(rng(h2)) when src(h2) == src(h) and
    the quotient is composable, zero otherwise; source fibers are
    preserved, so this is a module map for the right grading.
    """
    space = arrow_correspondence(gpd, weights, "s")
    t = gpd.codes
    g, h = t.pairs
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[t.comp[g, h], h] += f[g] * object_weights(gpd, weights)[t.src[g]]
    return ModuleMap(space, space, mat)


# ---------------------------------------------------------------------------
# operator norms

def operator_norm(m):
    """Operator norm of a ModuleMap between weighted spaces.

    Conjugates by the square roots of the Gram diagonals so the norm is
    the plain spectral norm of the rescaled matrix.
    """
    if m.source.dim == 0 or m.target.dim == 0:
        return 0.0
    ds = np.sqrt(m.source.gram_diagonal())
    dt = np.sqrt(m.target.gram_diagonal())
    hat = (dt[:, None] * m.matrix) / ds[None, :]
    eigs = np.linalg.eigvalsh(hat.conj().T @ hat)
    return float(np.sqrt(max(float(eigs[-1]), 0.0)))


def cstar_norm(gpd, weights, f):
    """Operator norm of left convolution by f."""
    return operator_norm(regular_matrix(gpd, weights, f))


# ---------------------------------------------------------------------------
# checks

def check_convolution(gpd, weights, funcs, tol=1e-10):
    """Algebra laws and norm inequalities over a batch of functions."""
    rep = Report("convolution algebra")
    funcs = list(funcs)
    pairs = list(zip(funcs, funcs[1:]))

    def mul(f1, f2):
        return convolve(gpd, weights, f1, f2)

    def reg(f):
        return regular_matrix(gpd, weights, f)

    def gap(name, sides):
        """Add the relative defects of the (lhs, rhs) pairs, one pair at
        a time: a regular matrix is |A| x |A|."""
        rep.add_worst_at(name, np.fromiter(
            (relative_defects(a[None], b[None])[0] for a, b in sides),
            float), tol)

    ident = identity_element(gpd, weights)
    gap("identity-neutral", ((prod, f) for f in funcs
                             for prod in (mul(ident, f), mul(f, ident))))
    gap("associativity", (
        (mul(mul(f1, f2), f3), mul(f1, mul(f2, f3)))
        for f1, f2, f3 in zip(funcs, funcs[1:], funcs[2:])))
    gap("star-antimultiplicative", (
        (star(gpd, mul(f1, f2)), mul(star(gpd, f2), star(gpd, f1)))
        for f1, f2 in pairs))

    gap("regular-multiplicative", (
        (reg(mul(f1, f2)).matrix, reg(f1).compose(reg(f2)).matrix)
        for f1, f2 in pairs))
    gap("regular-star", (
        (reg(f).adjoint().matrix, reg(star(gpd, f)).matrix) for f in funcs))

    norms = np.array([cstar_norm(gpd, weights, f) for f in funcs])
    squares = np.array([cstar_norm(gpd, weights, mul(star(gpd, f), f))
                        for f in funcs])
    rep.add_worst_at("cstar-identity", abs(squares - norms * norms)
                     / np.maximum(norms * norms, 1.0), max(tol, 1e-9))
    # the C*-norm below the I-norm as a one-sided relative gap:
    # (norm - bound) / max(1, |norm|, |bound|) where norm > bound, else 0
    bounds = np.array([i_norm(gpd, weights, f) for f in funcs])
    rep.add_worst_at("norm-bound", relative_defects(
        norms, np.minimum(norms, bounds)), 1e-9)
    return rep

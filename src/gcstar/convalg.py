"""Convolution algebra of a weighted groupoid and its operator norm.

Functions on the arrows are dicts arrow -> complex.  Convolution
integrates over the range fiber with the invariant weights, the
involution composes conjugation with inversion, and the regular
matrix is the action of a function on the arrow space by left
convolution.  The operator norm is the spectral norm of the similarity
transformed matrix, computed with LAPACK through numpy.linalg.
"""

from __future__ import annotations

import numpy as np

from .report import Report, relative_defect, worst
from .measures import arrow_correspondence
from .hilbmod import ModuleMap


def zero_function(gpd):
    return {g: 0.0 + 0.0j for g in gpd.arrows}


def delta_function(gpd, g):
    f = zero_function(gpd)
    f[g] = 1.0 + 0.0j
    return f


def convolve(gpd, weights, f1, f2):
    """(f1 * f2)(k) sums f1(h) f2(inverse(h) k) c(src(h)) over range fibers."""
    out = zero_function(gpd)
    for k in gpd.arrows:
        acc = 0.0 + 0.0j
        for h in gpd.arrows_into(gpd.rng[k]):
            acc += f1[h] * f2[gpd.comp[(gpd.inv[h], k)]] * weights[gpd.src[h]]
        out[k] = acc
    return out


def star(gpd, f):
    return {g: np.conj(f[gpd.inv[g]]) for g in gpd.arrows}


def identity_element(gpd, weights):
    """Unit of the algebra: units weighted by the reciprocal object weight."""
    f = zero_function(gpd)
    for x in gpd.objects:
        f[gpd.unit[x]] = 1.0 / weights[x]
    return f


def delta_product(gpd, weights, g, h):
    """Structure constant form of delta_g * delta_h."""
    out = zero_function(gpd)
    if gpd.src[g] == gpd.rng[h]:
        out[gpd.comp[(g, h)]] = weights[gpd.src[g]]
    return out


def fiber_sups(gpd, weights, f):
    """Sups of the fibrewise absolute integrals along range and source.

    A NaN value of f makes the sups NaN rather than dropping out.
    """
    along_r = {x: 0.0 for x in gpd.objects}
    along_s = {x: 0.0 for x in gpd.objects}
    for g in gpd.arrows:
        along_r[gpd.rng[g]] += abs(f[g]) * weights[gpd.src[g]]
        along_s[gpd.src[g]] += abs(f[g]) * weights[gpd.rng[g]]
    sup_r = worst((v, None) for v in along_r.values())[0]
    sup_s = worst((v, None) for v in along_s.values())[0]
    return sup_r, sup_s


def i_norm(gpd, weights, f):
    """Larger of the two fibrewise absolute integrals of f; NaN wins."""
    return worst((v, None) for v in fiber_sups(gpd, weights, f))[0]


def regular_matrix(gpd, weights, f):
    """Left convolution by f on the arrow space, as a ModuleMap.

    Entry [h, h2] is f(h h2^{-1}) c(rng(h2)) when src(h2) == src(h) and
    the quotient is composable, zero otherwise; source fibers are
    preserved, so this is a module map for the right grading.
    """
    space = arrow_correspondence(gpd, weights, "s")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for h in gpd.arrows:
        for g in gpd.arrows_into(gpd.rng[h]):
            h2 = gpd.comp[(gpd.inv[g], h)]
            mat[space.index[h], space.index[h2]] += \
                f[g] * weights[gpd.src[g]]
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

    ident = identity_element(gpd, weights)
    defects = []
    for f in funcs:
        left, right = mul(ident, f), mul(f, ident)
        for g in gpd.arrows:
            defects += [(abs(left[g] - f[g]), None),
                        (abs(right[g] - f[g]), None)]
    rep.add_worst("identity-neutral", defects, tol)

    rep.add_worst("associativity", (
        (relative_defect(list(mul(mul(f1, f2), f3).values()),
                         list(mul(f1, mul(f2, f3)).values())), None)
        for f1, f2, f3 in zip(funcs, funcs[1:], funcs[2:])), tol)

    defects = []
    for f1, f2 in pairs:
        left = star(gpd, mul(f1, f2))
        right = mul(star(gpd, f2), star(gpd, f1))
        defects += [(abs(left[g] - right[g]), None) for g in gpd.arrows]
    rep.add_worst("star-antimultiplicative", defects, tol)

    rep.add_worst("regular-multiplicative", (
        (relative_defect(reg(mul(f1, f2)).matrix,
                         reg(f1).compose(reg(f2)).matrix), None)
        for f1, f2 in pairs), tol)
    rep.add_worst("regular-star", (
        (relative_defect(reg(f).adjoint().matrix, reg(star(gpd, f)).matrix),
         None) for f in funcs), tol)

    defects = []
    for f in funcs:
        n1 = cstar_norm(gpd, weights, mul(star(gpd, f), f))
        n2 = cstar_norm(gpd, weights, f)
        defects.append((abs(n1 - n2 * n2) / max(n2 * n2, 1.0), None))
    rep.add_worst("cstar-identity", defects, max(tol, 1e-9))
    rep.add_worst("norm-bound", (
        (cstar_norm(gpd, weights, f) - i_norm(gpd, weights, f), None)
        for f in funcs), 1e-9)
    return rep

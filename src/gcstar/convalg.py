"""Convolution algebra of a weighted groupoid and its operator norm.

A function on the arrows is a complex array of length |A| in
gpd.arrows order, and a stack of functions an (n, |A|) array, one per
row; convolve, star, fiber_sups, i_norm and cstar_norm take either, and
convolve broadcasts one function against a stack.  A stack gives each
row the bits that row gives alone.  Convolution integrates over the
range fiber with the invariant weights, the involution composes
conjugation with inversion, and the regular matrix is the action of a
function on the arrow space by left convolution.

Block lemma.  Entry [gh, h] of the regular matrix has src(gh) = src(h),
so it maps the span of each source fibre to itself: it is the direct
sum of one block per object.  The arrow space weighs g by c(rng g), and
the operator norm is the spectral norm of the matrix conjugated by the
square roots of those weights, which is the largest spectral norm of
the blocks conjugated the same way.  So the regular matrices are held
as (objects, m, m) blocks, m the largest source fibre, zero-padded with
weight 1 on the padding, placed by gpd.source_layout straight from the
composition table, and the norms come from one batched eigvalsh.
Stacks are built and reduced in chunks of about _CHUNK entries.
"""

from __future__ import annotations

import numpy as np

from .report import Report, _chunked, relative_defects
from .measures import fibre_sums, object_weights

_CHUNK = 2 ** 15


def delta_function(gpd, g):
    """The unit vector at the arrow g."""
    f = np.zeros(len(gpd.arrows), dtype=complex)
    f[gpd.arrows.index(g)] = 1.0
    return f


def delta_norms(gpd, weights):
    """psi(g) = sqrt(c(src g) c(rng g)) per arrow, in arrow order: the
    C*-norm of the delta at g, since delta_g* delta_g is c(rng g) times
    the delta at the unit of src(g); f -> f psi is a *-isomorphism onto
    the algebra of counting weights."""
    t, c = gpd.codes, object_weights(gpd, weights)
    return np.sqrt(c[t.src] * c[t.rng])


def _product(a, b):
    """Entrywise a * b rounded as Python's complex product rounds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def convolve(gpd, weights, f1, f2):
    """(f1 * f2)(k) sums f1(h) f2(inverse(h) k) c(src(h)) over range fibers,
    gathered over the composable pairs (h, m) and summed at k = hm; f1
    and f2 broadcast against each other, and a stack is summed by one
    bincount keyed by row per chunk of rows."""
    t, a = gpd.codes, len(gpd.arrows)
    h, m = t.pairs
    c, k = object_weights(gpd, weights)[t.src[h]], t.comp[h, m]
    shape = np.broadcast_shapes(np.shape(f1), np.shape(f2))
    f1, f2 = (np.reshape(f, (-1, a)) for f in np.broadcast_arrays(f1, f2))

    def rows(sl):
        terms = _product(f1[sl][:, h], f2[sl][:, m]) * c
        keys = np.arange(len(terms))[:, None] * a + k
        return fibre_sums(keys.ravel(), terms.ravel(),
                          len(terms) * a).reshape(-1, a)
    return _chunked(rows, len(f1), len(h), _CHUNK).reshape(shape)


def star(gpd, f):
    return f[..., gpd.codes.inv].conj()


def identity_element(gpd, weights):
    """Unit of the algebra: units weighted by the reciprocal object weight."""
    f = np.zeros(len(gpd.arrows), dtype=complex)
    f[gpd.codes.unit] = 1.0 / object_weights(gpd, weights)
    return f


def fiber_sups(gpd, weights, f):
    """Sups of the fibrewise absolute integrals along range and source.

    A NaN value of f makes the sups NaN rather than dropping out.  Each
    side of a stack is one bincount keyed by row.
    """
    t, c, n = gpd.codes, object_weights(gpd, weights), len(gpd.objects)
    size = np.hypot(f.real, f.imag).reshape(-1, len(t.src))
    rows = np.arange(len(size))[:, None] * n

    def sups(ends, far):
        sums = np.bincount((rows + ends).ravel(), (size * c[far]).ravel(),
                           len(size) * n)
        return sums.reshape(-1, n).max(axis=1, initial=0.0)
    along_r, along_s = sups(t.rng, t.src), sups(t.src, t.rng)
    if np.ndim(f) == 1:
        return float(along_r[0]), float(along_s[0])
    return along_r, along_s


def i_norm(gpd, weights, f):
    """Larger of the two fibrewise absolute integrals of f; NaN wins."""
    norms = np.maximum(*fiber_sups(gpd, weights, f))
    return float(norms) if np.ndim(f) == 1 else norms


# ---------------------------------------------------------------------------
# regular matrices as source-fibre blocks, and operator norms

def _regular_blocks(gpd, c, funcs):
    """The source-fibre blocks of left convolution by each row of a stack
    (n, |A|), as (n, objects, m, m), c the object weights: entry [gh, h]
    is f(g) c(src(g)), gathered through gpd.source_layout, and the
    padding is zero."""
    lay = gpd.source_layout
    scaled = np.zeros((len(funcs), len(gpd.arrows) + 1), dtype=complex)
    scaled[:, :-1] = funcs * c[gpd.codes.src]
    return scaled[:, lay.factor].reshape(len(funcs), len(c), lay.m, lay.m)


def _fibre_weights(gpd, c):
    """The weight c(rng g) of each arrow at its place in the source-fibre
    blocks, 1 on the padding, as (objects, m)."""
    lay = gpd.source_layout
    w = np.ones(len(c) * lay.m)
    w[lay.place] = c[gpd.codes.rng]
    return w.reshape(len(c), lay.m)


def _spectral_norms(scale, mats):
    """Spectral norms of scale_i M_ij / scale_j for a stack of square
    matrices M (n, ..., m, m) and positive scales (..., m): one batched
    eigvalsh per chunk of rows.  A non-finite entry raises LinAlgError."""
    if not mats.size:
        return np.zeros(mats.shape[:-2])
    if not np.isfinite(mats).all():
        raise np.linalg.LinAlgError("non-finite operator entries")

    def top(sl):
        hat = (scale[..., :, None] * mats[sl]) / scale[..., None, :]
        return np.linalg.eigvalsh(hat.conj().swapaxes(-1, -2) @ hat)[..., -1]
    return np.sqrt(np.maximum(_chunked(top, len(mats), mats[0].size,
                                       _CHUNK), 0.0))


def cstar_norm(gpd, weights, f):
    """Operator norm of left convolution by f, or by each row of a stack,
    the largest norm of its source-fibre blocks.  A non-finite value of
    f raises LinAlgError."""
    funcs = np.reshape(f, (-1, len(gpd.arrows)))
    if not np.isfinite(funcs).all():
        raise np.linalg.LinAlgError("non-finite function values")
    c = object_weights(gpd, weights)
    scale = np.sqrt(_fibre_weights(gpd, c))
    norms = _chunked(lambda sl: _spectral_norms(scale, _regular_blocks(
        gpd, c, funcs[sl])).max(axis=-1, initial=0.0), len(funcs),
        gpd.source_layout.factor.size, _CHUNK)
    return float(norms[0]) if np.ndim(f) == 1 else norms


# ---------------------------------------------------------------------------
# checks

def check_convolution(gpd, weights, funcs, tol=1e-10):
    """Algebra laws and norm inequalities over a batch of functions.

    Each law is one stacked operation over the batch; the regular
    matrices are source-fibre blocks, built for chunks of the batch."""
    rep = Report("convolution algebra")
    funcs = np.reshape(np.array(list(funcs), dtype=complex),
                       (-1, len(gpd.arrows)))

    def mul(f1, f2):
        return convolve(gpd, weights, f1, f2)

    ident = identity_element(gpd, weights)
    rep.add_worst_at("identity-neutral", np.column_stack([
        relative_defects(mul(ident, funcs), funcs),
        relative_defects(mul(funcs, ident), funcs)]), tol)
    prods = mul(funcs[:-1], funcs[1:])
    rep.add_worst_at("associativity", relative_defects(
        mul(prods[:-1], funcs[2:]), mul(funcs[:-2], prods[1:])), tol)
    stars = star(gpd, funcs)
    rep.add_worst_at("star-antimultiplicative", relative_defects(
        star(gpd, prods), mul(stars[1:], stars[:-1])), tol)

    c = object_weights(gpd, weights)

    def reg(fs):
        return _regular_blocks(gpd, c, fs)
    w, size = _fibre_weights(gpd, c), gpd.source_layout.factor.size
    rep.add_worst_at("regular-multiplicative", _chunked(
        lambda sl: relative_defects(reg(prods[sl]), reg(funcs[:-1][sl])
                                    @ reg(funcs[1:][sl])), len(prods), size,
        _CHUNK), tol)
    rep.add_worst_at("regular-star", _chunked(lambda sl: relative_defects(
        reg(funcs[sl]).conj().swapaxes(-1, -2) * (w[:, None] / w[..., None]),
        reg(stars[sl])), len(funcs), size, _CHUNK), tol)

    norms = cstar_norm(gpd, weights, funcs)
    squares = cstar_norm(gpd, weights, mul(stars, funcs))
    rep.add_worst_at("cstar-identity", abs(squares - norms * norms)
                     / np.maximum(norms * norms, 1.0), max(tol, 1e-9))
    # the C*-norm below the I-norm as a one-sided relative gap:
    # (norm - bound) / max(1, |norm|, |bound|) where norm > bound, else 0
    bounds = i_norm(gpd, weights, funcs)
    rep.add_worst_at("norm-bound", relative_defects(
        norms, np.minimum(norms, bounds)), 1e-9)
    return rep

"""Deterministic random instances: groupoids, weights, cocycles.

All randomness flows through a splitmix generator seeded explicitly,
so every reported failure is reproducible from its seed.  Random
groupoids are disjoint unions of transitive pieces with cyclic
isotropy; random unitary cocycles are built from Haar distributed
unitaries on a spanning tree plus a diagonalized root of unity
representation of the isotropy, which makes the cocycle identity hold
to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .fingroupoid import (FiniteGroupoid, _from_rule, arrow_weights,
                          validate_groupoid, validate_haar)
from .hilbmod import module_from_dims

_MASK = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG with a 64 bit state."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK
        self._spare = None

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, n):
        """Uniform integer in [0, n)."""
        return self.next_u64() % int(n)

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def gauss(self):
        if self._spare is not None:
            v, self._spare = self._spare, None
            return v
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def cgauss(self):
        return complex(self.gauss(), self.gauss()) / math.sqrt(2.0)


def haar_unitary(rng, n):
    """Haar distributed unitary: QR of a complex Gaussian matrix."""
    z = np.array([[rng.cgauss() for _ in range(n)] for _ in range(n)],
                 dtype=complex)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def random_function(rng, gpd):
    """One complex Gaussian per arrow, drawn in arrow order."""
    return np.array([rng.cgauss() for _ in gpd.arrows], dtype=complex)


# ---------------------------------------------------------------------------
# groupoids

def random_groupoid(rng, max_objects=4, max_arrows=12):
    """Disjoint union of transitive pieces with cyclic isotropy.

    Objects are 1..n; the arrow (i, k, j) runs j -> i inside one piece
    and carries the isotropy exponent k.  Returns (groupoid, object
    weights) with weights drawn from a positive grid.
    """
    n_obj = 1 + rng.randint(max_objects)
    labels = list(range(1, n_obj + 1))
    budget = max_arrows
    pieces = []
    remaining = list(labels)
    while remaining:
        spare = len(remaining)
        top = 1
        while (top + 1) ** 2 + (spare - top - 1) <= budget \
                and top + 1 <= spare:
            top += 1
        size = 1 + rng.randint(top)
        max_iso = max(1, (budget - (spare - size)) // (size * size))
        iso = 1 + rng.randint(min(max_iso, 4))
        pts = tuple(remaining[:size])
        remaining = remaining[size:]
        budget -= size * size * iso
        pieces.append((pts, iso))

    iso_of = {x: iso for pts, iso in pieces for x in pts}
    arrows = tuple((i, k, j) for pts, iso in pieces
                   for i in pts for k in range(iso) for j in pts)
    # the fibre walk pairs arrows of one piece only
    gpd = _from_rule(labels, arrows, lambda g: g[2], lambda g: g[0],
                     lambda g: (g[2], (-g[1]) % iso_of[g[0]], g[0]),
                     lambda x: (x, 0, x),
                     lambda g, h: (g[0], (g[1] + h[1]) % iso_of[g[0]], h[2]))
    weights = {x: 0.25 * (1 + rng.randint(15)) for x in labels}
    return gpd, weights


def _copy_tables(gpd):
    return (list(gpd.objects), list(gpd.arrows), dict(gpd.src),
            dict(gpd.rng), dict(gpd.comp), dict(gpd.inv), dict(gpd.unit))


def mutate_groupoid(rng, gpd, weights, max_tries=200):
    """One guaranteed-broken copy of a valid weighted groupoid.

    Returns (groupoid, arrow weight system, kind); kind starts with
    "groupoid:" when the axioms break and "haar:" when only the weight
    system does.  Candidate mutations that happen to leave everything
    valid are rejected and redrawn.
    """
    kinds = ["src", "comp", "inv", "unit", "haar-sign", "haar-invariance"]
    if len(gpd.objects) < 2:
        kinds.remove("src")
    nonunits = [g for g in gpd.arrows
                if g != gpd.unit[gpd.src[g]] or gpd.src[g] != gpd.rng[g]]
    if not nonunits:
        kinds.remove("haar-invariance")

    for _ in range(max_tries):
        kind = rng.choice(kinds)
        objs, arrs, src, rng_map, comp, inv, unit = _copy_tables(gpd)
        warr = arrow_weights(gpd, weights)
        if kind == "src":
            g = rng.choice(arrs)
            src[g] = rng.choice([x for x in objs if x != src[g]])
        elif kind == "comp":
            key = rng.choice(sorted(comp.keys(), key=str))
            comp[key] = rng.choice([a for a in arrs if a != comp[key]]) \
                if len(arrs) > 1 else key[0]
        elif kind == "inv":
            g = rng.choice(arrs)
            bad = [a for a in arrs if a != inv[g]]
            if not bad:
                continue
            inv[g] = rng.choice(bad)
        elif kind == "unit":
            x = rng.choice(objs)
            bad = [a for a in arrs if a != unit[x]]
            if not bad:
                continue
            unit[x] = rng.choice(bad)
        elif kind == "haar-sign":
            g = rng.choice(arrs)
            warr[g] = -abs(warr[g])
        else:
            g = rng.choice(nonunits)
            warr[g] = warr[g] + 1.0
        cand = FiniteGroupoid(objs, arrs, src, rng_map, comp, inv, unit)
        if kind.startswith("haar"):
            if validate_haar(cand, warr).ok:
                continue
            return cand, warr, "haar:" + kind
        if validate_groupoid(cand).ok:
            continue
        return cand, warr, "groupoid:" + kind
    raise RuntimeError("could not find a breaking mutation")


# ---------------------------------------------------------------------------
# cocycles

def _isotropy_generator(gpd, x):
    iso = gpd.isotropy(x)
    for cand in iso:
        seen = {cand}
        cur = cand
        while True:
            cur = gpd.comp[(cur, cand)]
            if cur in seen:
                break
            seen.add(cur)
        if len(seen) == len(iso):
            return cand, len(iso)
    raise ValueError(f"isotropy at {x!r} is not cyclic")


def random_cocycle(rng, gpd, weights, coeff_size=1, max_dim=3):
    """Random exact unitary cocycle data: (module, blocks).

    The module has orthonormal fibers of dimension at most max_dim,
    constant along each orbit and independent across the coefficient
    labels 0..coeff_size-1; blocks maps each arrow label, in arrow
    order, to its unitary fiber matrix, from the fibre over its source to
    the fibre over its range, block diagonal over the labels.  perfbench
    reads these blocks by arrow label; from_cocycle takes them as they
    are.  Tree transport times a diagonalized cyclic
    isotropy representation makes blocks multiplicative up to rounding.
    """
    coeff = tuple(range(coeff_size))
    orbits = gpd.orbits()
    dims = {}
    # the diagonal blocks of each arrow, one per label in label order
    parts = [[] for _ in gpd.arrows]
    for orbit in orbits:
        root = orbit[0]
        gen, order = _isotropy_generator(gpd, root)
        powers = [gpd.unit[root]]
        for _ in range(order - 1):
            powers.append(gpd.comp[(gen, powers[-1])])
        power_index = {g: k for k, g in enumerate(powers)}
        tree = {root: gpd.unit[root]}
        for x in orbit[1:]:
            tree[x] = next(g for g in gpd.arrows
                           if gpd.src[g] == root and gpd.rng[g] == x)
        for w in coeff:
            d = 1 + rng.randint(max_dim)
            for x in orbit:
                dims[(x, w)] = d
            q = haar_unitary(rng, d)
            roots = np.exp(2j * np.pi
                           * np.array([rng.randint(order)
                                       for _ in range(d)]) / order)
            pi_gen = q @ np.diag(roots) @ q.conj().T
            transport = {x: (np.eye(d, dtype=complex) if x == root
                             else haar_unitary(rng, d)) for x in orbit}
            pi_pow = {0: np.eye(d, dtype=complex)}
            for k in range(1, order):
                pi_pow[k] = pi_pow[k - 1] @ pi_gen
            for g, part in zip(gpd.arrows, parts):
                if gpd.src[g] not in tree:
                    continue
                x, y = gpd.src[g], gpd.rng[g]
                loop = gpd.comp[(gpd.inv[tree[y]],
                                 gpd.comp[(g, tree[x])])]
                k = power_index[loop]
                part.append(transport[y] @ pi_pow[k]
                            @ transport[x].conj().T)
    blocks = []
    for part in parts:
        # one orbit holds both ends, so every diagonal block is square
        mat = np.zeros((sum(map(len, part)),) * 2, dtype=complex)
        at = 0
        for b in part:
            mat[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        blocks.append(mat)
    return (module_from_dims(gpd.objects, coeff, dims),
            dict(zip(gpd.arrows, blocks)))

"""Batch verification front end.

Every subcommand loads or builds a weighted groupoid, runs one slice
of the check library, and emits an aligned text table or a versioned
JSON document.  Exit status 0 means every check passed, 1 means some
check failed, 2 means the input could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .report import Report, VerificationError, relative_defects
from .fingroupoid import (FIXTURE_NAMES, _field, _json, _labels, arrow_weights,
                          build_preset, counting_weights, fixture,
                          groupoid_from_dict, validate_groupoid, validate_haar)
from .measures import check_family_identities, check_iterated_integrals
from .hilbmod import ModuleMap, check_gamma, dump_module_map, module_from_dims
from .convalg import (check_convolution, cstar_norm, delta_function,
                      delta_norms, i_norm)
from .sampling import (SplitMix64, mutate_groupoid, random_cocycle,
                       random_function, random_groupoid)
from .reps import (check_representation, from_cocycle, invariant_support,
                   regular_representation)
from .intdis import (check_conv_rep, check_integration, check_naturality,
                     check_pair_exchange, conv_rep_of, disintegrate,
                     roundtrip_naturality, roundtrip_rep)
from .crossed import (bisection_from_arrows, etale_battery,
                      semigroup_from_bisections, transformation_theorem)

SCHEMA_VERSION = 1

EPILOG = """\
presets: Z2 P2 X2 T2 W2 (built-in fixtures), group:n, pair:n, space:n,
transformation:n (cyclic shift on n points) for a positive n, random
(uses --seed).
Randomness comes from a splitmix-style 64-bit generator seeded by
--seed; Haar random unitaries are QR factors of complex Gaussian
matrices with the R diagonal made positive.
"""


def emit_report(report, fmt="text"):
    """Render one report as bytes; json round-trips, text is aligned."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=1, sort_keys=True)
                + "\n").encode()
    lines = [report.title] if report.title else []
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"  {status}  {c.name.ljust(width)}  defect={c.defect:.3e}"
        if c.witness is not None:
            line += f"  witness={c.witness!r}"
        lines.append(line)
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# input loading

def _shift(n):
    """The cyclic shift x -> x + 1 on the points 1..n."""
    return {x: x % n + 1 for x in range(1, n + 1)}


# the size n of NAME:n as build_preset parameters
_SIZED_PRESETS = {
    "group": lambda n: {"order": n},
    "pair": lambda n: {"points": n},
    "space": lambda n: {"points": n},
    "transformation": lambda n: {"order": n, "action": _shift(n)},
}


def parse_preset(text, seed=0):
    """NAME or NAME:n; returns (groupoid, object weights)."""
    name, colon, size = text.partition(":")
    if name in FIXTURE_NAMES:
        if colon:
            raise ValueError(f"fixture {name} takes no parameters")
        return fixture(name)
    if name == "random":
        if colon:
            raise ValueError(f"preset {text!r}: random takes no parameters; "
                             "it uses --seed")
        return random_groupoid(SplitMix64(seed))
    if name not in _SIZED_PRESETS:
        raise ValueError(f"unknown preset {text!r}")
    try:
        n = int(size)
    except ValueError:
        raise ValueError(f"preset {text!r} needs a positive size, "
                         f"as {name}:n") from None
    try:
        gpd = build_preset(name, **_SIZED_PRESETS[name](n))
    except ValueError as exc:
        raise ValueError(f"preset {text!r}: {exc}") from None
    return gpd, counting_weights(gpd)


def load_groupoid(args):
    """The groupoid named by --groupoid, --preset, or a positional file."""
    path = getattr(args, "file", None) or args.groupoid
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        return groupoid_from_dict(data)
    if args.preset is not None:
        return parse_preset(args.preset, seed=args.seed)
    raise ValueError("no groupoid given; use --groupoid FILE or --preset NAME")


# Every command checks at --tolerance raised to this floor; below it
# floating-point rounding, not the identities, decides the verdicts.
TOLERANCE_FLOOR = 1e-10


def _tol(args):
    return max(args.tolerance, TOLERANCE_FLOOR)


def require_valid(gpd, weights):
    """Structure axioms as a precondition; failures are input errors."""
    rep = validate_groupoid(gpd)
    if rep.ok:
        rep.extend(validate_haar(gpd, arrow_weights(gpd, weights)))
    if not rep.ok:
        raise VerificationError(
            "; ".join(c.line() for c in rep.failures()))


def _checked_input(args):
    """The validated groupoid and weights of args, and the --seed stream."""
    gpd, weights = load_groupoid(args)
    require_valid(gpd, weights)
    return gpd, weights, SplitMix64(args.seed)


def _matrix_from_json(rows, what):
    def num(v):
        parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
        return complex(*(_json(p, (int, float), f"{what} entry")
                         for p in parts))
    rows = [_json(r, list, f"{what} row") for r in _json(rows, list, what)]
    lengths = [len(row) for row in rows]
    if len(set(lengths)) > 1:
        raise ValueError(f"{what} is ragged: row lengths {lengths}")
    return np.array([[num(v) for v in row] for row in rows], dtype=complex)


def load_bundle(path):
    """Representation bundle: groupoid, fiber dims, blockwise unitaries."""
    with open(path) as fh:
        data = json.load(fh)
    gpd, weights = groupoid_from_dict(
        _field(data, "groupoid", dict, "the bundle"))
    require_valid(gpd, weights)

    def entry(table, key, what):
        try:
            return _field(data, table, dict, "the bundle")[str(key)]
        except KeyError:
            raise ValueError(f"bundle {table!r} table misses {what} "
                             f"{key!r}") from None

    dims, unitaries = {}, {}
    for x in gpd.objects:
        n = dims[(x, "w")] = entry("dims", x, "object")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"bundle 'dims' of object {x!r} must be a "
                             f"non-negative integer, got {n!r}")
    for g in gpd.arrows:
        what = f"bundle 'U' block of arrow {g!r}"
        u = unitaries[g] = _matrix_from_json(entry("U", g, "arrow"), what)
        if not np.isfinite(u).all():
            raise ValueError(f"{what} has a non-finite entry")
    module = module_from_dims(gpd.objects, ("w",), dims)
    return from_cocycle(gpd, weights, module, unitaries)


def load_semigroup(path, gpd):
    """Generator file of partial object maps, lifted to bisections.

    Each generator needs exactly one arrow realizing every point of
    its graph, so the lift to arrows is unambiguous.  A "dom" list, if
    given, must name exactly the keys of "map".
    """
    with open(path) as fh:
        data = json.load(fh)
    generators = _field(data, "generators", list, "the semigroup file")
    label = {str(x): x for x in gpd.objects}

    def obj(i, x):
        if str(x) not in label:
            raise ValueError(f"generator {i} names unknown object {str(x)!r}")
        return label[str(x)]

    gens = []
    for i, gen in enumerate(generators):
        what = f"generator {i}"
        mapping = {obj(i, x): obj(i, y)
                   for x, y in _field(gen, "map", dict, what).items()}
        dom = [obj(i, x) for x in _field(gen, "dom", list, what, mapping)]
        if set(dom) != set(mapping.keys()):
            raise ValueError(f"generator {i}: dom and map keys disagree")
        tag = []
        for x, y in mapping.items():
            hits = [g for g in gpd.arrows
                    if gpd.src[g] == x and gpd.rng[g] == y]
            if len(hits) != 1:
                raise ValueError(
                    f"generator {i}: {len(hits)} arrows from {x!r} to "
                    f"{y!r}, need exactly one")
            tag.append(hits[0])
        try:
            gens.append(bisection_from_arrows(gpd, frozenset(tag)))
        except ValueError as exc:
            raise ValueError(f"generator {i}: {exc}") from None
    return semigroup_from_bisections(gpd, gens)


def _random_rep(gpd, weights, rng, coeff_size=1, max_dim=3):
    module, blocks = random_cocycle(rng, gpd, weights,
                                    coeff_size=coeff_size, max_dim=max_dim)
    return from_cocycle(gpd, weights, module, blocks)


def _random_pair_function(rng, gpd):
    return {p: rng.cgauss() for p in gpd.composable_pairs()}


def _delta_batch(gpd):
    return [delta_function(gpd, g) for g in sorted(gpd.arrows, key=str)]


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (reports, payload)

def cmd_validate(args):
    gpd, weights = load_groupoid(args)
    rep = Report("groupoid axioms")
    rep.extend(validate_groupoid(gpd))
    if rep.ok:
        rep.extend(validate_haar(gpd, arrow_weights(gpd, weights)),
                   prefix="haar-")
    return [rep], None


def cmd_families(args):
    gpd, weights, rng = _checked_input(args)
    reports = [check_family_identities(gpd, weights)]
    funcs = [_random_pair_function(rng, gpd) for _ in range(args.trials)]
    reports.append(check_iterated_integrals(gpd, weights, funcs))
    reports.append(check_gamma(gpd, weights, _tol(args)))
    return reports, None


def cmd_algebra(args):
    gpd, weights, rng = _checked_input(args)
    funcs = _delta_batch(gpd)
    funcs += [random_function(rng, gpd) for _ in range(args.trials)]
    algebra = check_convolution(gpd, weights, funcs, _tol(args))

    # the norms of every arrow delta as one stack, in arrow order; the
    # C*-norm of delta_g has the closed form delta_norms
    deltas = np.eye(len(gpd.arrows), dtype=complex)
    inorms = i_norm(gpd, weights, deltas).tolist()
    norms = cstar_norm(gpd, weights, deltas)
    algebra.add_worst_at("delta-norm", relative_defects(
        norms[:, None], delta_norms(gpd, weights)[:, None]), _tol(args),
        lambda k: gpd.arrows[k])

    # delta_g * delta_h is c(src g) delta_gh, and 0 where gh is undefined
    t, names = gpd.codes, [str(g) for g in gpd.arrows]
    order = sorted(range(len(names)), key=names.__getitem__)
    product, inorm, cstarnorm = [], {}, {}
    for i, norm in zip(order, norms[order].tolist()):
        g = gpd.arrows[i]
        inorm[names[i]] = inorms[i]
        cstarnorm[names[i]] = norm
        c = weights[gpd.src[g]]
        product += [[names[i], names[j], {names[k]: c} if k >= 0 else {}]
                    for j, k in zip(order, t.comp[i, order].tolist())]
    payload = {"product": product, "inorm": inorm, "cstarnorm": cstarnorm}
    return [algebra], payload


def cmd_rep(args):
    if args.bundle is not None:
        rep = load_bundle(args.bundle)
    else:
        gpd, weights, rng = _checked_input(args)
        rep = _random_rep(gpd, weights, rng)
    reports = [check_representation(rep, _tol(args))]
    _, support_rep = invariant_support(rep)
    reports.append(support_rep)
    reg = regular_representation(rep.groupoid, rep.weights)
    regular = Report("regular representation")
    regular.extend(check_representation(reg, _tol(args)))
    reports.append(regular)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        dump_module_map(rep.umap, os.path.join(args.dump, "rep-unitary"))
        dump_module_map(reg.umap, os.path.join(args.dump, "regular-unitary"))
    return reports, None


def cmd_integrate(args):
    gpd, weights, rng = _checked_input(args)
    rep = _random_rep(gpd, weights, rng)
    funcs = _delta_batch(gpd)
    funcs += [random_function(rng, gpd) for _ in range(args.trials)]
    reports = [check_integration(rep, funcs, _tol(args))]
    pair_funcs = [_random_pair_function(rng, gpd)
                  for _ in range(max(2, min(args.trials, 8)))]
    reports.append(check_pair_exchange(gpd, weights, pair_funcs))
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        conv = conv_rep_of(rep)
        ops = dict(zip(gpd.arrows, conv.ops))
        for g in sorted(gpd.arrows, key=str):
            dump_module_map(ModuleMap(conv.space, conv.space, ops[g]),
                            os.path.join(args.dump, f"integrated-{g}"))
    return reports, None


def cmd_disintegrate(args):
    gpd, weights, rng = _checked_input(args)
    rep = _random_rep(gpd, weights, rng, coeff_size=2)
    conv = conv_rep_of(rep)
    funcs = _delta_batch(gpd)
    funcs += [random_function(rng, gpd) for _ in range(3)]
    reports = [check_conv_rep(conv, funcs, _tol(args))]
    try:
        rep2, inner = disintegrate(conv, _tol(args))
    except VerificationError as exc:
        failed = Report("disintegration")
        failed.add("disintegrate", False, witness=str(exc))
        reports.append(failed)
        return reports, None
    reports.append(inner)
    reports.append(check_naturality(rep, conv, rep2, _tol(args)))
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        dump_module_map(rep2.frame, os.path.join(args.dump, "frame"))
        dump_module_map(rep2.umap, os.path.join(args.dump, "unitary"))
    return reports, None


def cmd_roundtrip(args):
    gpd, weights, rng = _checked_input(args)
    reports = []
    for t in range(max(args.trials, 1)):
        rep = _random_rep(gpd, weights, rng, coeff_size=1 + t % 2)
        out = Report(f"roundtrip {t}")
        try:
            out.extend(roundtrip_rep(rep, _tol(args)))
        except VerificationError as exc:
            out.add("disintegrate", False, witness=str(exc))
        reports.append(out)
    return reports, None


def cmd_etale(args):
    gpd, weights, rng = _checked_input(args)
    sgrp = None
    if args.semigroup is not None:
        sgrp = load_semigroup(args.semigroup, gpd)
    rep = _random_rep(gpd, weights, rng)
    reports = [etale_battery(gpd, weights, sgrp=sgrp, rep=rep, tol=_tol(args))]
    return reports, None


def cmd_trafo(args):
    if args.group is None or args.action is None:
        raise ValueError("trafo needs --group FILE and --action FILE")
    with open(args.group) as fh:
        order = _field(json.load(fh), "order", int, "the --group file")
    with open(args.action) as fh:
        raw = _labels(_field(json.load(fh), "map", dict, "the --action file"),
                      "the --action map")
    # int points when every label reads as an int, else strings throughout
    try:
        action = {int(x): int(y) for x, y in raw.items()}
    except (ValueError, OverflowError):
        action = {x: str(y) for x, y in raw.items()}
    gpd = build_preset("transformation", order=order, action=action)
    weights = counting_weights(gpd)
    rng = SplitMix64(args.seed)
    rep = _random_rep(gpd, weights, rng)
    reports = [transformation_theorem(order, action, rep=rep,
                                      tol=_tol(args))]
    return reports, None


def cmd_suite(args):
    if args.file or args.groupoid or args.preset:
        raise ValueError("suite runs the built-in fixtures and random "
                         "instances; it takes no groupoid file or preset")
    rng = SplitMix64(args.seed)
    tol = _tol(args)
    reports = []

    for name in FIXTURE_NAMES:
        gpd, weights = fixture(name)
        out = Report(f"fixture {name}")
        out.extend(validate_groupoid(gpd), prefix="axioms-")
        out.extend(validate_haar(gpd, arrow_weights(gpd, weights)),
                   prefix="haar-")
        out.extend(check_family_identities(gpd, weights), prefix="families-")
        pair_funcs = [_random_pair_function(rng, gpd) for _ in range(3)]
        out.extend(check_iterated_integrals(gpd, weights, pair_funcs),
                   prefix="families-")
        out.extend(check_gamma(gpd, weights), prefix="gamma-")
        funcs = _delta_batch(gpd)
        funcs += [random_function(rng, gpd) for _ in range(3)]
        out.extend(check_convolution(gpd, weights, funcs, tol),
                   prefix="algebra-")
        reg = regular_representation(gpd, weights)
        out.extend(check_representation(reg, tol), prefix="regular-")
        rep = _random_rep(gpd, weights, rng)
        out.extend(check_integration(rep, funcs, tol), prefix="integration-")
        out.extend(check_pair_exchange(gpd, weights, pair_funcs),
                   prefix="pairs-")
        try:
            trip, natural = roundtrip_naturality(rep, tol)
        except VerificationError as exc:
            out.add("roundtrip-disintegrate", False, witness=str(exc))
        else:
            out.extend(trip, prefix="roundtrip-")
            out.extend(natural, prefix="naturality-")
        reports.append(out)

    for name in ("Z2", "P2", "X2"):
        gpd, weights = fixture(name)
        out = Report(f"etale {name}")
        rep = _random_rep(gpd, weights, rng)
        out.extend(etale_battery(gpd, weights, rep=rep, tol=tol))
        reports.append(out)

    swap = {1: 2, 2: 1}
    tg = build_preset("transformation", order=2, action=swap)
    trep = _random_rep(tg, counting_weights(tg), rng)
    out = Report("transformation swap")
    out.extend(transformation_theorem(2, swap, rep=trep, tol=tol))
    reports.append(out)

    randoms = Report("random instances")
    for t in range(args.trials):
        gpd, weights = random_groupoid(rng)
        ok = validate_groupoid(gpd).ok \
            and validate_haar(gpd, arrow_weights(gpd, weights)).ok
        randoms.add(f"random-{t}-axioms", ok)
        fam = check_family_identities(gpd, weights)
        randoms.add(f"random-{t}-families", fam.ok,
                    defect=fam.max_defect())
        reg = check_representation(regular_representation(gpd, weights), tol)
        randoms.add(f"random-{t}-regular", reg.ok, defect=reg.max_defect())
        mgpd, mweights, kind = mutate_groupoid(rng, gpd, weights)
        caught = not (validate_groupoid(mgpd).ok
                      and validate_haar(mgpd, mweights).ok)
        randoms.add(f"random-{t}-mutation-detected", caught, witness=kind)
    reports.append(randoms)
    return reports, None


# ---------------------------------------------------------------------------
# driver

HANDLERS = {
    "validate": cmd_validate,
    "families": cmd_families,
    "algebra": cmd_algebra,
    "rep": cmd_rep,
    "integrate": cmd_integrate,
    "disintegrate": cmd_disintegrate,
    "roundtrip": cmd_roundtrip,
    "etale": cmd_etale,
    "trafo": cmd_trafo,
    "suite": cmd_suite,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcstar",
        description="verification battery for finite groupoid "
                    "convolution algebras",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("file", nargs="?", default=None,
                       help="groupoid JSON file (same as --groupoid)")
        p.add_argument("--groupoid", default=None, metavar="FILE")
        p.add_argument("--preset", default=None, metavar="NAME[:params]")
        p.add_argument("--tolerance", type=float, default=1e-9, metavar="X")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--trials", type=int, default=20, metavar="K")
        p.add_argument("--json", action="store_true")
        p.add_argument("--dump", default=None, metavar="DIR")
        if name == "rep":
            p.add_argument("--bundle", default=None, metavar="FILE")
        if name == "etale":
            p.add_argument("--semigroup", default=None, metavar="FILE")
        if name == "trafo":
            p.add_argument("--group", default=None, metavar="FILE")
            p.add_argument("--action", default=None, metavar="FILE")
    return parser


@functools.cache
def _parser():
    """The parser of main, built on first use and kept for the process:
    parse_args reads it without changing it."""
    return build_parser()


def _params_dict(args):
    keys = ("file", "groupoid", "preset", "tolerance", "seed", "trials",
            "dump", "bundle", "semigroup", "group", "action")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if not np.isfinite(args.tolerance):
        parser.error("tolerance must be finite")
    if args.tolerance <= 0:
        parser.error("tolerance must be positive")
    if args.trials < 1:
        parser.error("trials must be at least 1")

    started = time.perf_counter()
    try:
        reports, payload = HANDLERS[args.command](args)
    except (VerificationError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = all(r.ok for r in reports)

    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "params": _params_dict(args),
            "reports": [r.to_dict() for r in reports],
            "ok": ok,
        }
        if payload:
            doc.update(payload)
        doc["timings"] = {"total": time.perf_counter() - started}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for r in reports:
            sys.stdout.write(emit_report(r, "text").decode())
        if args.command == "algebra" and payload:
            sys.stdout.write(_algebra_tables(payload))
        print("OK" if ok else "FAILED")

    if args.command == "validate" and not ok:
        return 2
    return 0 if ok else 1


def _algebra_tables(payload):
    lines = ["structure constants"]
    width = max((len(g) for g, _, _ in payload["product"]), default=1)
    for g, h, entries in payload["product"]:
        if not entries:
            continue
        terms = " + ".join(f"{v:g}*d[{k}]" for k, v in entries.items())
        lines.append(f"  d[{g.ljust(width)}] * d[{h.ljust(width)}] = {terms}")
    lines.append("norms")
    for g in payload["inorm"]:
        lines.append(f"  d[{g.ljust(width)}]  inorm={payload['inorm'][g]:g}"
                     f"  cstar={payload['cstarnorm'][g]:g}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())

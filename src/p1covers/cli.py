"""Command-line entry point.

One executable with subcommands disc | lengths | equiv | normalize |
cartier | tangent | family | census. The field is always given by flags
(--p, --ext), never inferred from literals: "2" parses in every prime
field, and silent guessing has no place in exact arithmetic. Exit codes:
0 success, 2 invalid input, 1 computational failure (splitting bound or
enumeration budget).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cartier import image_T, kernel_T, operator_matrix
from .census import DEFAULT_BUDGET, census_by_disc, tame_violations
from .cover import Cover
from .deform import brute_force_tangent, check_lift_order, lift_deformation, tangent_dim
from .errors import BudgetExceeded, InputError, SplitBoundExceeded
from .family import osserman_family, power_family, verify_family, wild_family
from .field import MAX_EXT_DEGREE, FieldElement, make_field
from .poly import Poly

# the most samples `family --verify` takes: 500 Osserman fibers at p = 13,
# in the untabled F_2197, take 4-6 s on a 2-core box
MAX_VERIFY = 500


def _add_common(sp):
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--ext", type=int, default=1, help="extension degree m (field F_{p^m})")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--out", default=None, help="write output to a file")


def _add_max_ext(sp):
    sp.add_argument("--max-ext", type=int, default=4, dest="max_ext",
                    help="largest extension degree for splitting/normalizing "
                         "(in a census: divisor points only)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="p1covers",
        description="Exact computations for degree-d covers P^1 -> P^1 over F_q")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("disc", help="discriminant and differential lengths of a cover")
    sp.add_argument("cover", help='cover as "g / h" (denominator 1 may be omitted)')
    _add_common(sp)
    _add_max_ext(sp)

    sp = sub.add_parser("lengths", help="differential-length divisor of a cover")
    sp.add_argument("cover")
    _add_common(sp)
    _add_max_ext(sp)

    sp = sub.add_parser("equiv", help="test two covers for equivalence")
    sp.add_argument("cover1")
    sp.add_argument("cover2")
    _add_common(sp)

    sp = sub.add_parser("normalize", help="chart normalization of a cover")
    sp.add_argument("cover")
    _add_common(sp)
    _add_max_ext(sp)

    sp = sub.add_parser("cartier", help="matrix, kernel and image of T_f")
    sp.add_argument("f", help="non-zero polynomial f")
    _add_common(sp)

    sp = sub.add_parser("tangent", help="first-order deformation space of a cover")
    sp.add_argument("cover")
    sp.add_argument("--variant", choices=["xd", "xli"], default="xd")
    sp.add_argument("--order", type=int, default=None,
                    help="lift each basis vector to k[t]/(t^N)")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check the dimension by exhaustive enumeration")
    _add_common(sp)
    _add_max_ext(sp)

    sp = sub.add_parser("family", help="families with constant discriminant")
    sp.add_argument("kind", choices=["wild", "power", "osserman"])
    sp.add_argument("cover", nargs="?", default=None,
                    help='base cover (required for kind "wild")')
    sp.add_argument("--verify", type=int, default=0, metavar="N",
                    help=f"verify on N sampled parameter values (at most {MAX_VERIFY})")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled verification")
    _add_common(sp)
    _add_max_ext(sp)

    sp = sub.add_parser("census", help="census of all classes over F_q by discriminant")
    sp.add_argument("--d", type=int, required=True, help="cover degree")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--no-tangent", action="store_true", dest="no_tangent",
                    help="skip tangent dimensions")
    points = sp.add_mutually_exclusive_group()
    points.add_argument("--points", dest="points", action="store_true", default=None,
                        help="force divisor point materialization")
    points.add_argument("--no-points", dest="points", action="store_false")
    sp.add_argument("--orbits", action="store_true",
                    help="also count Frobenius orbits of classes (closed form)")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes for census enumeration, at most the "
                         "CPU count; the output is the same for every count")
    _add_common(sp)
    _add_max_ext(sp)
    return ap


def _write(args, pieces):
    """Write the text pieces to --out, or else to stdout."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(pieces)


def _emit(args, payload, human_lines):
    text = json.dumps(payload, indent=2, sort_keys=True) if args.json \
        else "\n".join(human_lines)
    _write(args, [text + "\n"])


def _census_json(summary, records):
    """json.dumps({"records": [r.to_json() for r in records], "summary":
    summary}, indent=2, sort_keys=True) + "\n" in pieces, one record at a
    time: the whole document can be many times the size of the census."""
    yield '{\n  "records": ['
    sep = "\n    "
    for r in records:
        yield sep + json.dumps(r.to_json(), indent=2, sort_keys=True).replace("\n", "\n    ")
        sep = ",\n    "
    yield ("\n  ]" if records else "]") + ',\n  "summary": '
    yield json.dumps(summary, indent=2, sort_keys=True).replace("\n", "\n  ") + "\n}\n"


def _field(args):
    return make_field(args.p, args.ext)


def _cmd_disc(args):
    spec = _field(args)
    cov = Cover.parse(args.cover, spec)
    disc = cov.discriminant()
    divisor = cov.differential_lengths(args.max_ext)
    payload = {
        "cover": str(cov), "degree": cov.d, "disc": str(disc),
        "lengths": divisor.to_json(), "mass": divisor.mass(),
    }
    lines = [f"cover: {cov}", f"degree: {cov.d}", f"disc: {disc}", "lengths:"]
    lines += [f"  {item['point']}: {item['mult']}" for item in payload["lengths"]]
    lines.append(f"total mass: {divisor.mass()} (= 2d-2 = {2 * cov.d - 2})")
    _emit(args, payload, lines)


def _cmd_lengths(args):
    spec = _field(args)
    cov = Cover.parse(args.cover, spec)
    divisor = cov.differential_lengths(args.max_ext)
    payload = {"cover": str(cov), "lengths": divisor.to_json(), "mass": divisor.mass()}
    lines = [f"{item['point']}: {item['mult']}" for item in payload["lengths"]]
    _emit(args, payload, lines)


def _cmd_equiv(args):
    spec = _field(args)
    c1 = Cover.parse(args.cover1, spec)
    c2 = Cover.parse(args.cover2, spec)
    witness = c1.equivalent(c2)
    payload = {"equivalent": witness is not None,
               "witness": witness.to_json() if witness else None}
    lines = ["equivalent" if witness else "not equivalent"]
    if witness:
        lines.append(f"witness: {witness}")
    _emit(args, payload, lines)


def _cmd_normalize(args):
    spec = _field(args)
    nc = Cover.parse(args.cover, spec).normalize(args.max_ext)
    payload = nc.to_json()
    lines = [f"normalized: {nc.cover}",
             f"source change: {nc.source_change.to_str('x')}",
             f"target change: {nc.target_change}"]
    _emit(args, payload, lines)


def _cmd_cartier(args):
    spec = _field(args)
    f = Poly.parse(args.f, spec)
    om = operator_matrix(f)
    kdim, kbasis = kernel_T(f)
    idim, ibasis = image_T(f)
    matrix = [[om.matrix.entry(i, j).to_str("X") for j in range(spec.p)]
              for i in range(spec.p)]
    payload = {
        "p": spec.p, "f": str(f), "matrix": matrix,
        "kernel_dim": kdim,
        "kernel_basis": [[e.to_str("X") for e in v] for v in kbasis],
        "image_dim": idim,
        "image_basis": [[e.to_str("X") for e in v] for v in ibasis],
    }
    lines = [f"f = {f} over GF({spec.order})",
             "matrix of T_f on basis {1, x, ..., x^(p-1)} over k[X], X = x^p:"]
    lines += ["  [" + ", ".join(row) + "]" for row in matrix]
    lines.append(f"kernel dimension: {kdim}")
    lines += [f"  kernel vector: ({', '.join(e.to_str('X') for e in v)})" for v in kbasis]
    lines.append(f"image dimension: {idim}")
    lines += [f"  image generator: ({', '.join(e.to_str('X') for e in v)})" for v in ibasis]
    _emit(args, payload, lines)


def _cmd_tangent(args):
    if args.order is not None:
        if args.variant != "xd":
            raise InputError("lifting is defined for the fixed-discriminant variant only")
        check_lift_order(args.order)
    spec = _field(args)
    cov = Cover.parse(args.cover, spec)
    nc = cov.normalize(args.max_ext)
    dim, basis = tangent_dim(nc, args.variant, args.max_ext)
    payload = {
        "variant": args.variant, "dim": dim,
        "basis": [v.to_json() for v in basis],
        "normalization": nc.to_json(),
        "oracle": None, "oracle_agrees": None, "obstructed_at": None, "lifts": None,
    }
    if args.oracle:
        oracle = brute_force_tangent(nc, args.variant, args.max_ext)
        payload["oracle"] = oracle
        payload["oracle_agrees"] = oracle == dim
    if args.order is not None:
        lifts = [lift_deformation(nc, v, args.order) for v in basis]
        payload["lifts"] = [lr.to_json() for lr in lifts]
        obstructions = [lr.obstructed_at for lr in lifts if lr.obstructed_at is not None]
        payload["obstructed_at"] = min(obstructions) if obstructions else None
    lines = [f"normalized cover: {nc.cover}", f"variant: {args.variant}", f"dim: {dim}"]
    for v in basis:
        desc = f"  g1 = {v.g1}, h1 = {v.h1}"
        if v.eps is not None:
            desc += ", eps = (" + ", ".join(str(e) for e in v.eps) + ")"
        lines.append(desc)
    if payload["oracle"] is not None:
        lines.append(f"oracle: {payload['oracle']} "
                     f"({'agrees' if payload['oracle_agrees'] else 'DISAGREES'})")
    if payload["lifts"] is not None:
        for v, lr in zip(basis, payload["lifts"]):
            status = "lifted" if lr["success"] else f"obstructed at order {lr['obstructed_at']}"
            lines.append(f"  lift of (g1={v.g1}, h1={v.h1}) to t^{args.order}: {status}")
    _emit(args, payload, lines)


def _cmd_family(args):
    if args.verify < 0:
        raise InputError("--verify needs a non-negative number of samples")
    spec = _field(args)
    if args.kind == "wild":
        if args.cover is None:
            raise InputError('kind "wild" needs a base cover argument')
        fam = wild_family(Cover.parse(args.cover, spec), args.max_ext)
    elif args.kind == "power":
        fam = power_family(args.p)
    else:
        fam = osserman_family(args.p)
    payload = {"family": fam.to_json(), "verify": None}
    lines = [f"family: {fam.description} over GF({fam.spec.order})"]
    if args.verify > 0:
        n = args.verify
        bad = fam.degenerate_parameter()
        p, m = fam.spec.p, fam.spec.m
        top = MAX_EXT_DEGREE - MAX_EXT_DEGREE % m   # the largest degree containing F_q
        k = next((k for k in range(m, top + 1, m) if p ** k - (bad is not None) >= n), None)
        if k is None:
            raise InputError(f"--verify count {n} exceeds the parameters of GF({p}^{top})")
        if n > MAX_VERIFY:
            raise InputError(f"--verify count {n} exceeds the limit of {MAX_VERIFY} samples")
        K = make_field(p, k)
        params = range(K.order)
        if bad is not None:
            bad_code = K.embed_code(bad.code, fam.spec)
            params = [c for c in params if c != bad_code]
        rng = random.Random(args.seed)
        codes = rng.sample(params, n) if n < len(params) else list(params)
        ts = [FieldElement(K, c) for c in sorted(codes)]
        report = verify_family(fam, ts, args.max_ext)
        payload["verify"] = report
        lines.append(f"verified on {len(ts)} parameters over GF({K.order}):")
        lines.append(f"  disc constant: {report['disc_constant']}")
        lines.append(f"  length divisor constant: {report['length_divisor_constant']}")
        lines.append(f"  pairwise inequivalent: {report['pairwise_inequivalent']}")
    _emit(args, payload, lines)


def _cmd_census(args):
    spec = _field(args)
    result = census_by_disc(spec, args.d, max_ext=args.max_ext, budget=args.budget,
                            processes=args.threads, with_tangent=not args.no_tangent,
                            points=args.points, orbit_count=args.orbits)
    summary = result.summary()
    violations = None
    if not args.no_tangent and spec.p in (2, 3):
        # string keys, so that --json sorts dimensions as text
        violations = tame_violations(result.records, dim_key=str)
    summary["violations"] = violations
    if args.json:
        _write(args, _census_json(summary, result.records))
        return
    lines = [f"census over GF({spec.order}), degree {args.d}:",
             f"  raw planes (Gaussian binomial): {result.raw_planes}",
             f"  separable base-point-free classes: {result.total_classes}",
             f"  records (distinct discriminants): {len(result.records)}",
             f"  wild classes: {summary['wild_classes']}"]
    if violations is not None:
        lines.append(f"  tangent-dimension violations: {len(violations)}")
    if result.galois_orbits is not None:
        lines.append(f"  Frobenius orbits: {result.galois_orbits}")
    _write(args, ["\n".join(lines) + "\n"])


_COMMANDS = {
    "disc": _cmd_disc,
    "lengths": _cmd_lengths,
    "equiv": _cmd_equiv,
    "normalize": _cmd_normalize,
    "cartier": _cmd_cartier,
    "tangent": _cmd_tangent,
    "family": _cmd_family,
    "census": _cmd_census,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SplitBoundExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

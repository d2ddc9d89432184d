"""Command-line front end: form classification, lemma-suite verification
with seeds, decomposition and lift inspection, and the small-field census.

Identical configurations produce byte-identical JSON reports; suite
randomness derives from the seed and the suite name only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .algebras import BiquatAlg, QuatAlg
from .errors import (BadParameters, IsogenyKitError, InvariantViolated, ParseError,
                     UnknownSuite, UnreadableInput)
from .exactfield import parse_field
from .linalg import Mat
from .quadforms import (
    QuadSpace,
    Isometry,
    determinant_class,
    discriminant,
    witt_decompose,
)
from .suites import SUITES, RunConfig, run_all


def _load_json(path):
    """The JSON document in the file at `path`: UnreadableInput when the
    file cannot be opened or read, ParseError when it is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise UnreadableInput("cannot read %s: %s" % (path, ex.strerror or ex)) from None
    except ValueError as ex:
        raise ParseError("%s is not JSON: %s" % (path, ex)) from None


def _reads_json(what):
    """A reader of `what` from parsed JSON: the library's own errors pass
    through, and any other (a missing key, a bad value) is a ParseError."""
    def wrap(read):
        @functools.wraps(read)
        def reader(obj):
            try:
                return read(obj)
            except IsogenyKitError:
                raise
            except Exception as ex:
                raise ParseError("bad %s JSON: %s" % (what, ex))
        return reader
    return wrap


@_reads_json("quadratic-space")
def space_from_json(obj) -> QuadSpace:
    field = parse_field(obj["field"])
    gram = [[field(v) for v in row] for row in obj["gram"]]
    if not gram:
        raise ParseError("bad quadratic-space JSON: empty Gram matrix")
    return QuadSpace(field, Mat(field, gram))


@_reads_json("isometry")
def isometry_from_json(obj) -> Isometry:
    space = space_from_json(obj)
    field = space.field
    return Isometry(space, Mat(field, [[field(v) for v in row] for row in obj["matrix"]]))


@_reads_json("GSp")
def gsp_from_json(obj):
    """The 2 x 2 matrix over B (x) C of a decompose input: field, the
    symbols B and C, and four blocks of 16 coefficients."""
    from .spin_eight import M2A
    field = parse_field(obj["field"])
    b = QuatAlg(field, field(obj["B"][0]), field(obj["B"][1]))
    c = QuatAlg(field, field(obj["C"][0]), field(obj["C"][1]))
    algebra = BiquatAlg(b, c)
    return M2A(algebra, *[algebra.elem([field(v) for v in blk]) for blk in obj["blocks"]])


def _dump(obj, out: Optional[str]):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    space = space_from_json(_load_json(args.space))
    r, kernel, _ = witt_decompose(space, budget=args.budget)
    report = {
        "dim": space.dim,
        "determinant": repr(determinant_class(space).rep),
        "discriminant": repr(discriminant(space).rep),
        "witt_index": r,
        "anisotropic_kernel_dim": kernel.dim if kernel else 0,
    }
    print("dim %d, det %s, disc %s, witt %d, kernel dim %d"
          % (space.dim, report["determinant"], report["discriminant"],
             r, report["anisotropic_kernel_dim"]))
    if args.out:
        _dump(report, args.out)
    return 0


def cmd_verify(args) -> int:
    config = RunConfig.from_args(args.field, args.seed, args.trials)
    if args.suite == "all":
        results = run_all(config)
    else:
        names = [s.strip() for s in args.suite.split(",")]
        for n in names:
            if n not in SUITES:
                raise UnknownSuite("unknown suite %r (known: %s)"
                                   % (n, ", ".join(sorted(SUITES))))
        results = run_all(config, names=names)
    lines = []
    all_pass = True
    for res in results:
        for failure in res.failures:
            lines.append(json.dumps({"suite": res.name, **failure},
                                    sort_keys=True, separators=(",", ":")))
        all_pass = all_pass and res.passed
        print("%-12s %s  cases=%d failures=%d"
              % (res.name, "pass" if res.passed else "FAIL",
                 res.cases, len(res.failures)))
    summary = {
        "config": {"field": args.field, "seed": args.seed,
                   "trials": args.trials, "budget": args.budget},
        "suites": [{"suite": r.name, "cases": r.cases,
                    "failures": len(r.failures), "passed": r.passed}
                   for r in results],
        "passed": all_pass,
    }
    if args.out:
        with open(args.out, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.write(json.dumps(summary, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return 0 if all_pass else 1


def cmd_decompose(args) -> int:
    from . import spin_eight
    member = spin_eight.gsp_membership(gsp_from_json(_load_json(args.gsp)))
    if member is None:
        print("not a GSp member")
        return 1
    gf = spin_eight.gsp_decompose(member)
    report = {
        "multiplier": repr(member.m),
        "v": [repr(c) for c in gf.v.coords()],
        "a": [repr(c) for c in gf.a.c],
        "alpha": [repr(c) for c in gf.alpha.coords()],
        "beta": [repr(c) for c in gf.beta.coords()],
        "phi": repr(spin_eight.phi(member).rep),
    }
    _dump(report, args.out)
    return 0


def _check_model_space(iso, space):
    if iso.space.gram != space.gram:
        raise BadParameters("the isometry's Gram matrix is not the model's "
                            "space %r" % (space.gram.rows,))


def _check_lift(image, iso):
    if image.matrix != iso.matrix:
        raise InvariantViolated("the lift does not act as the given isometry")


def cmd_lift(args) -> int:
    iso = isometry_from_json(_load_json(args.isometry))
    field = iso.space.field
    if args.model == "dim3":
        from .spin_low import Dim3Model
        b = QuatAlg(field, field(args.B[0]), field(args.B[1]))
        model = Dim3Model(b)
        _check_model_space(iso, model.space)
        g = model.lift(iso)
        _check_lift(model.act(g), iso)
        report = {"model": "dim3", "lift": [repr(c) for c in g.c]}
    elif args.model == "dim6d1":
        from . import spin_six
        b = QuatAlg(field, field(args.B[0]), field(args.B[1]))
        c = QuatAlg(field, field(args.C[0]), field(args.C[1]))
        algebra = BiquatAlg(b, c)
        space = algebra.albert_space()
        _check_model_space(iso, space)
        x = spin_six.dim6d1_lift(iso, algebra)
        _check_lift(spin_six.cover_act_isometry(x, space), iso)
        report = {"model": "dim6d1", "g": [repr(v) for v in x.g.c],
                  "t": repr(x.t)}
    elif args.model == "dim8id1":
        from . import spin_eight
        b = QuatAlg(field, field(args.B[0]), field(args.B[1]))
        c = QuatAlg(field, field(args.C[0]), field(args.C[1]))
        algebra = BiquatAlg(b, c)
        space = spin_eight.vec8_space(algebra)
        _check_model_space(iso, space)
        x = spin_eight.dim8_lift(iso, algebra)
        _check_lift(spin_eight.act8_isometry(x, space), iso)
        report = {"model": "dim8id1",
                  "blocks": [[repr(v) for v in e.c]
                             for e in x.matrix().entries()],
                  "multiplier": repr(x.gf.m), "t": repr(x.t)}
    else:
        raise ParseError("unknown model %r" % args.model)
    _dump(report, args.out)
    return 0


def cmd_census(args) -> int:
    from .smallfields import census
    rep = census(args.p, args.maxdim)
    print(rep.table())
    if args.out:
        _dump(rep.to_json(), args.out)
    return 0


def _symbol(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'a,b'")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogeny-kit",
        description="exact spin/Gspin constructions and their verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a quadratic space")
    p_classify.add_argument("space", help="JSON file with field and gram")
    p_classify.add_argument("--budget", type=int, default=10)
    p_classify.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run named verification suites")
    p_verify.add_argument("suite", help="suite name, comma list, or 'all'")
    p_verify.add_argument("--field", default="p=5")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    # no suite reads it; kept because its value is echoed into the --out report
    p_verify.add_argument("--budget", type=int, default=10)
    p_verify.add_argument("--out")

    p_dec = sub.add_parser("decompose", help="generic form of a GSp element")
    p_dec.add_argument("gsp", help="JSON file with field, B, C, blocks")
    p_dec.add_argument("--out")

    p_lift = sub.add_parser("lift", help="lift an isometry to the covering group")
    p_lift.add_argument("isometry", help="JSON file with field, gram, matrix")
    p_lift.add_argument("--model", required=True,
                        choices=["dim3", "dim6d1", "dim8id1"])
    p_lift.add_argument("--B", type=_symbol, default=["-1", "-1"])
    p_lift.add_argument("--C", type=_symbol, default=["1", "1"])
    p_lift.add_argument("--out")

    p_census = sub.add_parser("census", help="small-field group census")
    p_census.add_argument("p", type=int)
    p_census.add_argument("maxdim", type=int, nargs="?", default=6)
    p_census.add_argument("--out")

    return parser


_parser = None     # built on the first call to main


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up per call: a handler patched after the build still runs
        return globals()["cmd_" + args.command](args)
    except UnknownSuite as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except IsogenyKitError as ex:
        print("error: %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

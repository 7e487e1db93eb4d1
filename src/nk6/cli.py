"""Command line front door.

Subcommands:
    verify {s3xs3,flag,cp3,s6}   run a model-space verification end to end
    solve-s3xs3                  the diagonal-family classification run
    check FILE                   build + first-order system on user data
    table                        the isotropy/dimension table

Exit codes: 0 all verdicts pass, 1 a mathematical check failed, 2 usage or
parse error.  ``--json`` switches the report to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

# modules, not names: a lazily registered module runs on its first use
from . import (
    cone, hitchin, lie, octonion, s3xs3, smallmat, spacefile, spaces, table)
from .report import Report
from .scalars import (
    EPS, exact_div, is_positive, lattice_max_abs, lattice_sum, lattice_zero,
    lower, times)


def _inert(parser, *flags):
    """Options that change nothing, kept so that older command lines run."""
    for flag in flags:
        parser.add_argument(flag, type=int,
                            help="has no effect; accepted for compatibility")


@functools.cache
def _parser():
    """The argument parser, built on first use; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="nk6",
        description="Invariant nearly Kahler verification on 6-dimensional "
                    "homogeneous spaces")
    p.add_argument("--tolerance", type=float, default=EPS,
                   help="zero test for float data, scaled by their magnitude "
                        "where an identity scales; exact data are decided "
                        "exactly, whatever this is (default %(default)g)")
    p.add_argument("--scalar", choices=["exact", "float"], default="exact",
                   help="decide exact data exactly, or force floats "
                        "(check only)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    _inert(p, "--seed", "--threads")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="verify a model space")
    v.add_argument("space", choices=["s3xs3", "flag", "cp3", "s6"])
    _inert(v, "--grid", "--samples")

    sub.add_parser("solve-s3xs3", help="classify the diagonal family")

    c = sub.add_parser("check", help="check user-supplied space data")
    c.add_argument("file")
    c.add_argument("--omega", default="omega", help="name of the 2-form")
    c.add_argument("--psi", default=None,
                   help="name of the 3-form (default: d omega / 3)")
    c.add_argument("--cone", action="store_true",
                   help="also run the cone closed/coclosed check")

    sub.add_parser("table", help="isotropy/dimension table")
    return p


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        print("error: --tolerance must be finite and >= 0", file=sys.stderr)
        return 2
    if args.scalar == "float" and args.command != "check":
        print("error: --scalar float applies only to check", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        if args.command == "verify":
            # looked up per call, so that a wrapped function is the one run
            module, name = {"s3xs3": (s3xs3, "verify"),
                            "flag": (spaces, "flag_verify"),
                            "cp3": (spaces, "cp3_verify"),
                            "s6": (octonion, "s6_verify")}[args.space]
            rep = getattr(module, name)()
        elif args.command == "solve-s3xs3":
            rep = s3xs3.solve_nk()
        elif args.command == "check":
            rep = _cmd_check(args)
        else:
            rep = table.table_check()
    except (spacefile.SpaceFormatError, hitchin.FloatRangeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    # "verify s6", "solve-s3xs3", "check FILE" or "table"
    rep.command = " ".join([args.command, *(
        getattr(args, k) for k in ("space", "file") if hasattr(args, k))])
    rep.tolerance = args.tolerance
    rep.timing_s = time.perf_counter() - started
    print(rep.to_json() if args.json else rep.render())
    return 0 if rep.all_pass else 1


# ---------------------------------------------------------------------------
def _named_form(doc, name, degree, scalar):
    """The document's form ``name``, of the given degree, in --scalar arithmetic."""
    if name not in doc.forms:
        raise spacefile.SpaceFormatError(f"$.forms: no {degree}-form named {name!r}")
    form = doc.forms[name]
    if form.k != degree:
        raise spacefile.SpaceFormatError(f"$.forms.{name}: degree must be {degree}")
    return form.to_float() if scalar == "float" else form


def _cmd_check(args):
    rep = Report(inputs={"file": args.file, "omega": args.omega,
                         "psi": args.psi or "(d omega)/3"})
    tol = args.tolerance
    doc = spacefile.load_space(args.file, floats=args.scalar == "float")
    space = doc.reductive_space()
    omega = _named_form(doc, args.omega, 2, args.scalar)
    if space.dim_m != 6:
        raise spacefile.SpaceFormatError("$: m must be 6-dimensional for this check")
    psi = (None if args.psi is None
           else _named_form(doc, args.psi, 3, args.scalar))

    # invariance is decided once, on the inputs: phi, omega^2 and the cone
    # forms are built from omega and psi by equivariant operations
    for name, form in ((args.omega, omega), (args.psi, psi)):
        if form is not None and not lie.is_invariant(space, form, tol=tol):
            rep.check("forms are h-invariant", False, label="NotInvariant",
                      detail=f"{name} is not h-invariant")
            return rep
    d = lambda a: lie.ce_differential(space, a, check_invariance=False)
    if psi is None:
        psi = d(omega) / 3

    # the report holds no verdict or scalar yet: these are its first
    rep.verdicts, rep.scalars, built = hitchin.structure_verdicts(omega, psi, d, tol)
    if built is None:
        return rep
    structure, nk, rep.inputs["orientation"] = built

    if doc.metric is not None:
        # the supplied Gram should be the induced metric up to homothety, a
        # positive scale (not -1 for -g), compared with G = kappa g, and the
        # connection-level defect, decided on K, must agree with the form verdict
        a, b = smallmat.mat_lattice(doc.metric), structure.G
        dot = lambda x, y: lower(smallmat.lattice_mul(x, y, 1, len(x[0]), 1))[0]
        scale = exact_div(dot(a, b), dot(b, b))   # of G: kappa times less than of g
        dev, size = lattice_sum(a, times(scale, b), -1), lattice_max_abs(a)
        # the relative deviation is a ratio of the exact largest entries
        top = lambda x: max(map(abs, lower(x)))
        rep.check("supplied metric is the induced one up to homothety",
                  lattice_zero(dev, tol * size)
                  and is_positive(scale, tol * size / lattice_max_abs(b)),
                  label="metric", residual=exact_div(top(dev), top(a) or 1))
        rep.scalars["metric_scale"] = structure.per_kappa(-structure.tau0 * scale)
        try:
            ok, res = lie.nearly_kahler_residual(space, doc.metric, structure.K,
                                             tol=tol)
            detail = "" if ok == nk.verdict else ", ".join(
                f"{level} level: {'' if v else 'not '}nearly Kahler"
                for level, v in (("connection", ok), ("form", nk.verdict)))
            rep.check("connection-level and form-level verdicts agree",
                      ok == nk.verdict, label="nabla-J", residual=res,
                      detail=detail)
        except ValueError as ex:
            rep.check("connection-level and form-level verdicts agree", False,
                      label="nabla-J", detail=str(ex))

    if args.cone:
        verdicts, crep = cone.cone_verdicts(structure, d, tol, nk.fit)
        rep.verdicts += verdicts
        if crep is not None:
            rep.scalars["cone_omega2_coefficient"] = crep.omega2_coefficient
    return rep


if __name__ == "__main__":
    sys.exit(main())

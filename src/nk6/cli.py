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
import math
import random
import sys
import time
from fractions import Fraction

from . import cone as cone_mod
from . import octonion, s3xs3, spaces
from .hitchin import StructureError, build_su3, nk_check
from .lie import ce_differential, nearly_kahler_residual, ricci
from . import smallmat
from .report import Report
from .scalars import is_exact
from .spacefile import SpaceFormatError, load_space


def _parser():
    p = argparse.ArgumentParser(
        prog="nk6",
        description="Invariant nearly Kahler verification on 6-dimensional "
                    "homogeneous spaces")
    p.add_argument("--tolerance", type=float, default=1e-10,
                   help="float comparison tolerance (default 1e-10)")
    p.add_argument("--scalar", choices=["exact", "float"], default="exact",
                   help="keep exact scalars where possible, or force floats "
                        "(check only)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for sweeps/scans")
    p.add_argument("--threads", type=int, default=1,
                   help="worker pool size for sweeps")
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="verify a model space")
    v.add_argument("space", choices=["s3xs3", "flag", "cp3", "s6"])
    v.add_argument("--grid", type=int, default=3,
                   help="metric grid bound for the flag manifold")
    v.add_argument("--samples", type=int, default=100,
                   help="random sample count (s6 points; verify s3xs3 "
                        "sweeps at least 1000 triples)")

    s = sub.add_parser("solve-s3xs3", help="classify the diagonal family")
    s.add_argument("--samples", type=int, default=10000)

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
    if args.scalar == "float" and args.command != "check":
        print("error: --scalar float applies only to check", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        if args.command == "verify":
            rep = _cmd_verify(args)
        elif args.command == "solve-s3xs3":
            rep = _cmd_solve(args)
        elif args.command == "check":
            rep = _cmd_check(args)
        else:
            rep = _cmd_table(args)
    except SpaceFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    rep.timing_s = time.perf_counter() - started
    print(rep.to_json() if args.json else rep.render())
    return 0 if rep.all_pass else 1


def _base_report(args, command, **inputs):
    return Report(command=command, inputs=inputs,
                  tolerance=args.tolerance, seed=args.seed)


# ---------------------------------------------------------------------------
def _cmd_verify(args):
    if args.space == "s3xs3":
        return _verify_s3xs3(args)
    if args.space == "flag":
        return _verify_flag(args)
    if args.space == "cp3":
        return _verify_cp3(args)
    return _verify_s6(args)


def _verify_s3xs3(args):
    samples = max(args.samples, 1000)
    rep = _base_report(args, "verify s3xs3", samples=samples)
    tol = args.tolerance
    solved = s3xs3.solve_nk(samples=samples, seed=args.seed, tol=tol,
                            threads=args.threads)
    rep.check("uniqueness sweep (no admissible non-equal solution)",
              solved.sweep.counterexamples == 0,
              label="diff-system",
              detail=f"{solved.sweep.accepted} triples")
    rep.check("quadratic-root argument", not solved.trace.failures,
              label="diff-system")
    rep.check("sign patterns are all-positive or one-positive",
              set(solved.survivors)
              == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)},
              label="g-positivity")
    rep.check("one-positive patterns have co-frame certificates",
              len(solved.certificates) == 3, label="co-frame")
    s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm(
        (Fraction(1),) * 3)), tol=tol)
    nk = nk_check(s, s3xs3.differential, tol=tol)
    rep.check("nearly Kahler system at lambda = 1", nk.verdict,
              label="diff-system",
              residual=max(nk.residual_r1, nk.residual_r2))
    mu_err = abs(float(nk.mu) - float(s3xs3.mu_of(1)))
    rep.check("mu matches 1/(2 sqrt 3)", mu_err <= tol, label="diff-system",
              residual=mu_err)
    rep.scalar("mu", float(nk.mu))
    rep.scalar("min_sweep_residual", solved.sweep.min_residual_float)

    space = s3xs3.cyclic_space()
    _, scal, einstein_ok, rel = ricci(space, s.g)
    rep.check("Einstein with positive scalar curvature",
              einstein_ok and float(scal) > 0, label="einstein", residual=rel)
    rep.scalar("scal", float(scal))
    _cone_verdicts(rep, s, s3xs3.differential, tol)
    rep.scalar("kappa", float(s.kappa))
    rep.scalar("tau0", float(s.tau0))
    return rep


def _cone_verdicts(rep, structure, link_d, tol):
    """Run the cone check on a built structure and report its two verdicts."""
    crep = cone_mod.cone_check(structure, link_d, tol=tol)
    rep.check("cone form closed", crep.d_rho_residual <= tol,
              label="cone-closed", residual=crep.d_rho_residual)
    rep.check("cone form coclosed", crep.d_star_rho_residual <= tol,
              label="cone-coclosed", residual=crep.d_star_rho_residual)
    return crep


def _verify_flag(args):
    rep = _base_report(args, "verify flag", grid=args.grid)
    fl = spaces.flag_verify(grid=args.grid, tol=args.tolerance)
    rep.check("bracket families match matrix commutators",
              fl.bracket_families_exact, label="brackets")
    rep.check("torus weights as computed characters", fl.weights_exact,
              label="weights")
    rep.check("canonical structure satisfies order-3 conditions",
              fl.canonical_3symmetric, label="3symmetric")
    mixed = {k: v for k, v in fl.flipped_integrable.items()
             if k not in ((1, 1, 1), (-1, -1, -1))}
    rep.check("one-summand flips are integrable", all(mixed.values()),
              label="integrable")
    rep.check("canonical structure is not integrable",
              not fl.flipped_integrable[(1, 1, 1)], label="integrable")
    rep.check("naturally reductive iff r = s = t",
              all(((r == s == t) == v) for (r, s, t), v in fl.natred_grid.items()),
              label="naturally-reductive")
    rep.check("nearly Kahler verdict iff r = s = t",
              all(((r == s == t) == v) for (r, s, t), v in fl.nk_grid.items()),
              label="diff-system")
    if fl.display_discrepancies or not fl.weights_match_display:
        rep.skip("classical display deviations recorded",
                 detail=f"{len(fl.display_discrepancies)} bracket display(s), "
                        f"weights display match = {fl.weights_match_display}")
    return rep


def _verify_cp3(args):
    rep = _base_report(args, "verify cp3")
    cp = spaces.cp3_verify(tol=args.tolerance)
    rep.check("isotropy commutant has dimension 4",
              cp.commutant_dimension == 4, label="isotropy")
    rep.check("two irreducible summands of dims (4, 2)",
              cp.summands_irreducible and cp.summand_dims == (4, 2),
              label="isotropy")
    rep.check("four invariant almost complex structures",
              cp.acs_candidates == 4, label="isotropy")
    rep.check("unique nearly Kahler fiber scaling", cp.nk_unique,
              label="diff-system")
    rep.check("unique Kahler fiber scaling, opposite sign",
              cp.kahler_unique and cp.kahler_fiber_sign == -cp.nk_fiber_sign,
              label="kahler")
    rep.scalar("t_nk", cp.t_nk)
    rep.scalar("t_kahler", cp.t_kahler)
    rep.scalar("ratio", cp.ratio)
    return rep


def _verify_s6(args):
    rep = _base_report(args, "verify s6", samples=args.samples)
    tol = args.tolerance
    rng = random.Random(args.seed)
    worst = 0.0
    failures = 0
    for _ in range(args.samples):
        v = [rng.gauss(0.0, 1.0) for _ in range(7)]
        norm = math.hypot(*v)
        try:
            _, _, dev = octonion.s6_structure_at([t / norm for t in v], tol=tol)
            worst = max(worst, dev)
        except StructureError:
            failures += 1
    rep.check("structure builds at random points", failures == 0,
              label="stability")
    rep.check("stable-form J equals octonion J (up to global sign)",
              worst <= max(tol, 1e-9), label="octonion-J", residual=worst)

    s6, _, dev0 = octonion.s6_structure_at([Fraction(1)] + [Fraction(0)] * 6)
    rep.check("exact agreement at a basis point", dev0 == 0,
              label="octonion-J", residual=float(dev0))
    _cone_verdicts(rep, s6, cone_mod.s6_link_differential(s6), tol)
    rho7 = cone_mod.u_basis_expansion(cone_mod.cone_rho(s6.omega, s6.psi))
    c, devg2 = cone_mod.g2_metric_identity(rho7)
    rep.check("constant metric identity of the cone 3-form", devg2 <= 1e-9,
              label="g2-identity", residual=devg2)
    rep.scalar("g2_identity_constant", float(c))
    return rep


def _cmd_solve(args):
    rep = _base_report(args, "solve-s3xs3", samples=args.samples)
    solved = s3xs3.solve_nk(samples=args.samples, seed=args.seed,
                            tol=args.tolerance, threads=args.threads)
    rep.check("solution family is (lambda, lambda, lambda), lambda > 0",
              solved.ok, label="diff-system",
              detail=solved.family)
    rep.check("sweep found no admissible non-equal solution",
              solved.sweep.counterexamples == 0, label="diff-system",
              detail=f"accepted {solved.sweep.accepted} of "
                     f"{solved.sweep.tried} tried")
    rep.check("quadratic-root trace has no failures",
              not solved.trace.failures, label="diff-system")
    rep.check("family points verify end to end",
              all(solved.verified_examples), label="diff-system")
    rep.scalar("mu_at_lambda_1", float(solved.mu_at_one))
    rep.scalar("min_sweep_residual", solved.sweep.min_residual_float)
    return rep


def _named_form(doc, name, degree, scalar):
    """The document's form ``name``, of the given degree, in --scalar arithmetic."""
    if name not in doc.forms:
        raise SpaceFormatError(f"$.forms: no {degree}-form named {name!r}")
    form = doc.forms[name]
    if form.k != degree:
        raise SpaceFormatError(f"$.forms.{name}: degree must be {degree}")
    return form.to_float() if scalar == "float" else form


def _cmd_check(args):
    rep = _base_report(args, f"check {args.file}", file=args.file,
                       omega=args.omega, psi=args.psi or "(d omega)/3")
    tol = args.tolerance
    doc = load_space(args.file)
    space = doc.reductive_space()
    omega = _named_form(doc, args.omega, 2, args.scalar)
    if space.dim_m != 6:
        raise SpaceFormatError("$: m must be 6-dimensional for this check")

    d = lambda a: ce_differential(space, a)
    psi = (d(omega) / 3 if args.psi is None
           else _named_form(doc, args.psi, 3, args.scalar))

    try:
        structure, orient = spaces.build_either_orientation(omega, psi, tol=tol)
    except StructureError as ex:
        rep.check("stable pair builds an SU(3)-structure", False,
                  label=ex.label, detail=str(ex))
        return rep
    detail = ""
    if is_exact(structure.tau0) and isinstance(structure.kappa, float):
        # exact inputs, but kappa left Q(sqrt 3): the residuals below are
        # tolerance comparisons, not exact zeros
        detail = "float arithmetic: kappa not in Q(sqrt 3)"
    rep.check("stable pair builds an SU(3)-structure", True, detail=detail)

    nk = nk_check(structure, d, tol=tol)
    rep.check("first structure equation (d omega = 3 psi)",
              nk.residual_r1 <= tol, label="diff-system",
              residual=nk.residual_r1)
    rep.check("second structure equation (d phi = -2 mu omega^2)",
              nk.residual_r2 <= tol, label="diff-system",
              residual=nk.residual_r2)
    rep.scalar("mu", float(nk.mu))
    rep.scalar("tau0", float(structure.tau0))
    rep.scalar("kappa", float(structure.kappa))
    rep.inputs["orientation"] = orient

    if doc.metric is not None:
        # the supplied Gram should be the induced metric up to homothety,
        # and the connection-level defect must agree with the form verdict
        num = sum(float(a) * float(b) for ra, rb in zip(doc.metric, structure.g)
                  for a, b in zip(ra, rb))
        den = sum(float(b) ** 2 for rb in structure.g for b in rb)
        scale = num / den
        dev = smallmat.mat_max_abs(smallmat.mat_sub(
            [[float(x) for x in row] for row in doc.metric],
            smallmat.mat_scale(scale, [[float(x) for x in row]
                                       for row in structure.g])))
        rel = dev / max(smallmat.mat_max_abs(doc.metric), 1e-30)
        rep.check("supplied metric is the induced one up to homothety",
                  rel <= max(tol, 1e-9), label="metric", residual=rel)
        rep.scalar("metric_scale", scale)
        try:
            ok, res = nearly_kahler_residual(space, doc.metric, structure.J,
                                             tol=tol)
            rep.check("connection-level and form-level verdicts agree",
                      ok == nk.verdict, label="nabla-J", residual=res)
        except ValueError as ex:
            rep.check("connection-level and form-level verdicts agree", False,
                      label="nabla-J", detail=str(ex))

    if args.cone:
        crep = _cone_verdicts(rep, structure, d, tol)
        rep.scalar("cone_omega2_coefficient", float(crep.omega2_coefficient))
    return rep


def _cmd_table(args):
    rep = _base_report(args, "table")
    tb = spaces.table_check()
    for row in tb.rows:
        rep.check(f"{row['h']} in {row['g']} -> {row['target']}",
                  row["codimension"] == 6 and row["isotropy_allowed"],
                  label="table",
                  detail=f"{row['dim_g']} - {row['dim_h']} = {row['codimension']}")
    return rep


if __name__ == "__main__":
    sys.exit(main())

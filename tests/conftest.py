import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nk6.hitchin import StructureError, build_either_orientation, nk_check  # noqa: E402


def pipeline_nk_verdict(omega, differential):
    """The sampled oracle behind the certificates: build at one point, then
    decide the first-order system there."""
    try:
        s, _ = build_either_orientation(omega, differential(omega) / 3)
    except StructureError:
        return False
    return nk_check(s, differential).verdict


def tampered_su2_space():
    """[X1,X2] = X3, [X2,X3] = 2 X1, [X3,X1] = X2 on the first factor of
    su(2) (+) su(2): a Lie algebra (Jacobi holds) whose co-frame rotations
    are not automorphisms, so the S^3 x S^3 reduction and certificate fail."""
    from fractions import Fraction
    from nk6.lie import LieAlgebraData, ReductiveSpace

    c = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for base in (0, 3):
        for (i, j, k), a in (((0, 1, 2), 1), ((1, 2, 0), 2 if base == 0 else 1),
                             ((2, 0, 1), 1)):
            c[base + i][base + j][base + k] = Fraction(a)
            c[base + j][base + i][base + k] = Fraction(-a)
    return ReductiveSpace(LieAlgebraData(c), [], list(range(6)))


def lambda5_to_vector(sigma, vol):
    """The vector v with  interior(v, vol) = sigma,  for a 5-form in dim 6:
    the isomorphism of 5-forms with vectors tensored by top forms, by which
    Hitchin's K(X) is the vector of interior(X, psi) ^ psi (the K oracle)."""
    from nk6.exterior import index_tuples
    from nk6.scalars import exact_div

    if sigma.n != 6 or sigma.k != 5:
        raise ValueError("expected a 5-form in dimension 6")
    if vol.n != 6 or vol.k != 6 or vol.c[0] == 0:
        raise ValueError("expected a nonzero top form in dimension 6")
    pos5 = index_tuples(6, 5)[1]
    return [(-1 if i % 2 else 1)
            * exact_div(sigma.c[pos5[tuple(j for j in range(6) if j != i)]], vol.c[0])
            for i in range(6)]


def form_inner(a, b, gram_inv):
    """The inner product of two k-forms from the inverse Gram matrix, minor
    by minor: <e_I, e_J> = det gram_inv[I][J], the Hodge star's oracle."""
    from nk6 import smallmat

    total = 0
    for ia, va in a.terms():
        for ib, vb in b.terms():
            sub = [[gram_inv[i][j] for j in ib] for i in ia]
            total = total + va * vb * smallmat.det(sub)
    return total


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid or rep.when != "call":
                continue
            name = nodeid.split("::")[-1]
            lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status in sorted(lines):
        terminalreporter.write_line(f"[{status}] {name}")

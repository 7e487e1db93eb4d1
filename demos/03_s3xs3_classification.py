"""The classification of invariant nearly Kahler structures on S^3 x S^3.

Everything happens on su(2) (+) su(2) in a cyclic co-frame.  The
type-(1,1) reduction leaves a diagonal triple (l1, l2, l3); the first
order system becomes a few polynomials in the l_i, and a certificate --
their claimed factorisations, checked by expansion -- leaves only the
equal triples.
"""

from fractions import Fraction

from nk6 import s3xs3
from nk6.certificate import pair_polynomials
from nk6.hitchin import build_su3, nk_check
from nk6.poly import Poly

# the co-frame axiom d e_i = e_{i+1} ^ e_{i+2}, asserted on construction
space = s3xs3.cyclic_space()
from nk6.exterior import KForm
from nk6.lie import ce_differential
print("d e1 =", ce_differential(space, KForm.basis(6, (0,))))

# the polynomials of the family omega = diag(l1, l2, l3)
names = ("l1", "l2", "l3")
tau0, minors = pair_polynomials(s3xs3.omega_diagonal(*Poly.variables(3)),
                                s3xs3.differential)
print("81 tau0      =", (81 * tau0).format(names))
for claim in s3xs3.uniqueness_certificate().claims:
    print("minor        =", claim.format(names))

# the certificate, the solution family and its constants
rep = s3xs3.solve_nk()
print("certificate  :", rep.certificate.detail)
print("family       :", rep.family)
print("mu(lambda=1) =", rep.mu_at_one, "=", float(rep.mu_at_one))
print("sign patterns:", rep.survivors)
print("co-frames    :", {k: "diag rotations" for k in rep.certificates})

# the residual of the quadratic system for a few triples
for lams in [(1, 1, 1), (1, 1, 2), (2, 3, 4)]:
    print("residual", lams, "=", s3xs3.nk_residual(lams))

# full verification at lambda = 2: exact zero residuals in Q(sqrt 3)
s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(2),) * 3)))
nk = nk_check(s, s3xs3.differential)
print("lambda = 2: verdict", nk.verdict, " mu =", nk.mu)

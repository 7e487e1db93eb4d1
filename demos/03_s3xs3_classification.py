"""The classification of invariant nearly Kahler structures on S^3 x S^3.

Everything happens on su(2) (+) su(2) in a cyclic co-frame.  The
type-(1,1) reduction leaves a diagonal triple (l1, l2, l3); the first
order system collapses to one quadratic equation on the l_i^2, and the
only solutions are the equal triples.  The sweep below hammers the
complement of the solution family with exact rational triples.
"""

from fractions import Fraction

from nk6 import s3xs3
from nk6.hitchin import build_su3, nk_check

# the co-frame axiom d e_i = e_{i+1} ^ e_{i+2}, asserted on construction
space = s3xs3.cyclic_space()
from nk6.exterior import KForm
from nk6.lie import ce_differential
print("d e1 =", ce_differential(space, KForm.basis(6, (0,))))

# the solution family and its constants
rep = s3xs3.solve_nk(samples=5000, seed=1)
print("family       :", rep.family)
print("mu(lambda=1) =", rep.mu_at_one, "=", float(rep.mu_at_one))
print("sweep        :", rep.sweep.accepted, "admissible non-equal triples,",
      rep.sweep.counterexamples, "counterexamples")
print("sign patterns:", rep.survivors)
print("certificates :", {k: "diag rotations" for k in rep.certificates})

# the residual of the quadratic system for a few triples
for lams in [(1, 1, 1), (1, 1, 2), (2, 3, 4)]:
    print("residual", lams, "=", s3xs3.nk_residual(lams))

# full verification at lambda = 2: exact zero residuals in Q(sqrt 3)
s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(2),) * 3)))
nk = nk_check(s, s3xs3.differential)
print("lambda = 2: verdict", nk.verdict, " mu =", nk.mu)

"""The 6-sphere by octonions, and the 7-dimensional cone.

The cross product of imaginary octonions defines both the almost complex
structure of S^6 (J_x y = x . y) and the constant 3-form of R^7.  The
cone over a nearly Kahler structure carries rho = r^2 dr ^ omega + r^3 psi;
rho is closed and coclosed exactly when the structure solves the first
order system, which is how the sphere and the diagonal S^3 x S^3 solution
are tested below -- with exact zeros, no floating point involved.
"""

from fractions import Fraction

from nk6 import cone, octonion, s3xs3
from nk6.hitchin import build_su3

# octonion basics
e1 = [0] * 7
e1[0] = 1
e2 = [0] * 7
e2[1] = 1
print("P(i1, i2)      =", octonion.cross(e1, e2))
print("phi0           =", octonion.g2_three_form())

# S^6 = G2/SU(3): g2 is the stabiliser of phi0, and it moves e1 in 6
# independent directions, so G2 is transitive on the sphere
s6rep = octonion.s6_verify()
print("dim g2         =", s6rep.scalars["g2_dimension"])
print("orbit rank     =", s6rep.scalars["orbit_rank"],
      ", isotropy dim", s6rep.scalars["isotropy_dimension"])

# the sphere structure at a point, exactly; by G2-equivariance the
# agreement at e1 holds at every point
x = [Fraction(0)] * 7
x[0] = Fraction(1)
s6, basis, dev = octonion.s6_structure_at(x)
print("J vs octonion J at i1: deviation", dev)
print("omega_x        =", s6.omega)
print("psi_x          =", s6.psi)

rep = cone.cone_check(s6, cone.s6_link_differential(s6))
print("sphere cone    : d rho residual", rep.d_rho_residual,
      ", d *rho residual", rep.d_star_rho_residual)
print("  *rho quartic coefficient:", rep.omega2_coefficient)

# the diagonal solution on S^3 x S^3 has a parallel cone form too
s = build_su3(s3xs3.candidate(s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
rep2 = cone.cone_check(s, s3xs3.differential)
print("s3xs3 cone     : closed", rep2.d_rho_residual == 0,
      ", coclosed", rep2.d_star_rho_residual == 0,
      ", normalization", rep2.normalization)

# the unit-radius expansion and its metric identity
rho7 = cone.u_basis_expansion(cone.cone_rho(s6.omega, s6.psi))
c, devg2 = cone.g2_metric_identity(rho7)
print("u-basis rho    =", rho7)
print("metric identity: constant", c, ", deviation", devg2)

"""The flag manifold of C^3 and CP^3: twistor geometry by brackets.

Both spaces carry finitely many invariant almost complex structures.  On
the flag manifold the three one-summand flips are integrable while the
canonical structure satisfies the order-3 eigenspace conditions; natural
reductivity and the nearly Kahler property single out r = s = t.  On CP^3
one fiber scaling is nearly Kahler for one fiber sign, and the Kahler
scaling sits at exactly twice it for the opposite sign.  Each nearly
Kahler claim is a polynomial certificate, printed below.
"""

from nk6 import spaces


def show(cert):
    for claim in cert.claims:
        print("    minor =", claim.format(cert.variables))

flag = spaces.flag_verify(grid=3)
print("flag manifold:")
print("  brackets exact          :", flag.bracket_families_exact)
print("  canonical order-3       :", flag.canonical_3symmetric)
print("  integrable flips        :",
      sorted(k for k, v in flag.flipped_integrable.items() if v))
print("  naturally reductive hits:",
      [k for k, v in flag.natred_grid.items() if v])
print("  nearly Kahler           :", flag.certificate.detail)
show(spaces.flag_certificate(spaces.flag_model()))

cp3 = spaces.cp3_verify()
print("CP^3:")
print("  commutant dimension :", cp3.commutant_dimension)
print("  summand dims        :", cp3.summand_dims)
print("  invariant ACS count :", cp3.acs_candidates)
print("  t_nearly_kahler     :", cp3.t_nk, " (fiber sign", cp3.nk_fiber_sign, ")")
print("  t_kahler            :", cp3.t_kahler, " (fiber sign",
      cp3.kahler_fiber_sign, ")")
print("  ratio               :", cp3.ratio)
model = spaces.cp3_model()
for fiber in (-1, 1):
    print("  fiber", fiber, "certificate:")
    show(spaces.cp3_certificate(model, fiber))

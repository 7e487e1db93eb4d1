"""The flag manifold of C^3 and CP^3: twistor geometry by brackets.

Both spaces carry finitely many invariant almost complex structures.  On
the flag manifold the three one-summand flips are integrable while the
canonical structure satisfies the order-3 eigenspace conditions; natural
reductivity (a linear condition on the metric, so one nullspace) and the
nearly Kahler property single out r = s = t.  On CP^3
one fiber scaling is nearly Kahler for one fiber sign, and the Kahler
scaling sits at exactly twice it for the opposite sign.  Each nearly
Kahler claim is one polynomial certificate over every invariant 2-form,
printed below with its claimed tau0 and omega^3.
"""

from nk6 import spaces


def show(cert):
    for claim in cert.claims:
        print("    minor   =", claim.format(cert.variables))
    print("    tau0    =", cert.tau0.format(cert.variables))
    print("    omega^3 =", cert.omega3.format(cert.variables))

flag = spaces.flag_verify()
print("flag manifold:")
print("  brackets exact          :", flag.bracket_families_exact)
print("  canonical order-3       :", flag.canonical_3symmetric)
print("  integrable flips        :",
      sorted(k for k, v in flag.flipped_integrable.items() if v))
print("  naturally reductive on  :",
      ", ".join("(" + ", ".join(map(str, ray)) + ")" for ray in flag.natred_rays))
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
print("  nearly Kahler       :", cp3.certificate.detail)
show(spaces.cp3_certificate(spaces.cp3_model()))

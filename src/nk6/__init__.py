"""Invariant nearly Kahler geometry on six-dimensional homogeneous spaces.

The package provides exterior calculus over a fixed basis (exact rational,
Q(sqrt 3) or float coefficients), Lie algebras by structure constants with
reductive splittings and their invariant-form differential, the stable-form
construction of SU(3)-structures from a 2-form and a 3-form, the complete
solve of the invariant nearly Kahler system on S^3 x S^3, and model spaces
(Ledger-Obata, the flag manifold of C^3, CP^3, the octonionic 6-sphere with
its 7-dimensional cone) together with machine-checkable verification
reports and a command line front end (``nk6``).
"""

from . import cone, octonion, report, s3xs3, spacefile, spaces
from .scalars import EPS, QSqrt3, SQRT3
from .exterior import HodgeStar, KForm, wedge, interior, hodge_star
from .lie import (
    LieAlgebraData,
    ReductiveSpace,
    check_jacobi,
    ce_differential,
    is_invariant,
    nomizu_levi_civita,
    nearly_kahler_residual,
    intrinsic_eta,
    normal_torsion_curvature,
    is_naturally_reductive,
    check_3symmetric,
    acs_from_automorphism,
    ricci,
)
from .hitchin import (
    SU3Candidate,
    SU3Structure,
    NKReport,
    hitchin_K,
    tau,
    build_su3,
    phi_from,
    nk_check,
)

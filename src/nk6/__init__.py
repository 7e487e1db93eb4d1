"""Invariant nearly Kahler geometry on six-dimensional homogeneous spaces.

The package provides exterior calculus over a fixed basis (exact rational
or Q(sqrt 3) coefficients; a float enters as its binary value), Lie
algebras by structure constants with reductive splittings and their
invariant-form differential, the stable-form
construction of SU(3)-structures from a 2-form and a 3-form, the complete
solve of the invariant nearly Kahler system on S^3 x S^3, and model spaces
(Ledger-Obata, the flag manifold of C^3, CP^3, the octonionic 6-sphere with
its 7-dimensional cone) together with machine-checkable verification
reports and a command line front end (``nk6``).

Importing the package registers every submodule lazily: ``nk6.<name>`` is
in ``sys.modules`` at once, but its code is compiled and run on the first
read of one of its attributes, so a command runs only the modules it uses.
``nk6.cli`` is left out, so that ``python -m nk6.cli`` warns of nothing.
"""

import importlib.util
import sys

for _name in ("certificate cone exterior hitchin lie octonion poly report "
              "s3xs3 scalars smallmat spacefile spaces table").split():
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])

# the package-level names, each read from its module on every access
_ORIGIN = {name: module for module, names in (
    ("scalars", "EPS QSqrt3 SQRT3"),
    ("exterior", "HodgeStar KForm wedge interior hodge_star"),
    ("lie", "LieAlgebraData ReductiveSpace check_jacobi ce_differential is_invariant "
            "nomizu_levi_civita nearly_kahler_residual intrinsic_eta "
            "normal_torsion_curvature is_naturally_reductive check_3symmetric "
            "acs_from_automorphism ricci"),
    ("hitchin", "SU3Candidate SU3Structure NKReport hitchin_K tau build_su3 phi_from "
                "nk_check")) for name in names.split()}


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)

"""The compiled products and closed forms of the candidate check.

- Hitchin's K as one lattice product of psi with itself, against the
  per-term ``interior`` / ``wedge`` / ``lambda5_to_vector`` K;
- the contraction identity interior(e_j, psi) = interior(J e_j, phi) as one
  product of J with phi, against the twelve ``interior`` calls;
- the compiled invariance of a metric and an endomorphism, against the
  ``commutator`` loops, on the model spaces and on perturbed data;
- G^-1 = -K W^-1 / (-tau0) and vol_g = omega^3 / 6 of ``SU3Structure``,
  against ``smallmat.inv`` of G = W K and ``metric_volume`` of g, and the
  scaling law of the cone star that ``cone_check`` uses: the star from
  that lattice of G^-1 on (c^2 kappa^2 omega, c kappa^3 psi) against the
  star of c g on (c omega, c psi);
- a float document whose volume form fails the unit-norm test at tolerance
  0 gets failing cone verdicts, not a traceback.

Exact data must agree by ``==``; floats bit for bit on nonzero entries
where the summation order is kept, within a bound where it is not.
"""

import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from nk6 import octonion, s3xs3, smallmat, spaces
from nk6.certificate import check_certificate
from nk6.cone import cone_hodge, cone_rho
from conftest import lambda5_to_vector
from nk6.exterior import (
    HodgeStar, KForm, index_tuples, interior, metric_volume, wedge)
from nk6.hitchin import (
    StructureError, build_either_orientation, contraction_defect, kappa_phi,
    omega3_sign)
from nk6.lie import (
    _tensor_invariance_table, ce_differential, is_invariant_endo,
    is_invariant_metric)
from nk6.report import Report
from nk6.scalars import QSqrt3, bilinear, lift, lower
from nk6.spacefile import load_space

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIX = os.path.join(ROOT, "fixtures")

SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=True)

rationals = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.fractions(min_value=-7, max_value=7, max_denominator=30))
SCALARS = {
    "rational": rationals,
    "surd": st.builds(QSqrt3, rationals, st.one_of(st.just(0), rationals)),
    "float": st.floats(min_value=-4, max_value=4, allow_nan=False,
                       allow_infinity=False),
}
kinds = st.sampled_from(sorted(SCALARS))


@st.composite
def vectors(draw, kind, size):
    """``size`` entries of one kind, zero often; all zero now and then."""
    if draw(st.integers(0, 7)) == 0:
        return [0] * size
    entry = st.one_of(st.just(0), st.just(0), SCALARS[kind])
    return [draw(entry) for _ in range(size)]


def assert_same(got, want, kind):
    """``==`` on exact data; on floats, equal bits on nonzero entries."""
    assert len(got) == len(want)
    if kind != "float":
        assert got == want
        return
    for x, y in zip(got, want):
        assert x == y
        if y != 0:
            assert isinstance(x, float) and repr(x) == repr(y)


def flat(m):
    return [x for row in m for x in row]


# -- K ----------------------------------------------------------------------
def oracle_k(psi, vol):
    """K column by column: the vector of interior(e_j, psi) ^ psi."""
    return smallmat.transpose([lambda5_to_vector(wedge(interior(e, psi), psi), vol)
                               for e in smallmat.identity(6)])


def k_matrix(psi, vol):
    return smallmat.unflatten(lower(kappa_phi(psi, vol)[0]), 6, 6)


@SETTINGS
@given(st.data(), kinds, st.sampled_from([1, -1]))
def test_compiled_k_matches_the_per_term_k(data, kind, sign):
    psi = KForm(6, 3, data.draw(vectors(kind, 20)))
    vol = KForm.basis(6, (0, 1, 2, 3, 4, 5), Fraction(sign))
    assert_same(flat(k_matrix(psi, vol)), flat(oracle_k(psi, vol)), kind)


def test_compiled_k_on_the_model_structures():
    # dense psi with sqrt 3 parts (S^3 x S^3) and the S^6 psi
    for s in verify_structures():
        assert k_matrix(s.psi, s.vol) == oracle_k(s.psi, s.vol)
        assert kappa_phi(s.psi, s.vol)[1] == s.Phi


# -- the contraction identity -----------------------------------------------
def oracle_contraction(psi, phi, J):
    return [x for e, je in zip(smallmat.identity(6), smallmat.transpose(J))
            for x in (interior(e, psi) - interior(je, phi)).c]


@SETTINGS
@given(st.data(), kinds)
def test_compiled_contraction_matches_the_interior_loop(data, kind):
    psi, phi = (KForm(6, 3, data.draw(vectors(kind, 20))) for _ in range(2))
    J = [data.draw(vectors(kind, 6)) for _ in range(6)]
    assert_same(lower(contraction_defect(psi, phi, J)),
                oracle_contraction(psi, phi, J), kind)


def test_compiled_contraction_vanishes_on_built_structures():
    for s in verify_structures():
        assert lower(contraction_defect(s.psi, s.phi, s.J)) == [0] * 90


# -- invariance of g and J --------------------------------------------------
def oracle_invariance(space, kind, t):
    out = []
    for ad in space.ad_h:
        if kind == "metric":
            m = smallmat.mat_add(smallmat.mat_mul(smallmat.transpose(ad), t),
                                 smallmat.mat_mul(t, ad))
        else:
            m = smallmat.commutator(ad, t)
        out += flat(m)
    return out


def compiled_invariance(space, kind, t):
    table = space.compiled(_tensor_invariance_table, kind)
    return lower(bilinear(*table, lift(flat(t)), space.dim_h * space.dim_m ** 2))


def model_data():
    """(space, invariant metric, invariant J) of the four model spaces."""
    lo = spaces.ledger_obata_su2()
    fm, cp = spaces.flag_model(), spaces.cp3_model()
    s3 = s3xs3.solve_nk().structure
    return [(s3xs3.cyclic_space(), s3.g, s3.J),
            (lo.space, lo.metric, None),
            (fm.space, fm.metric(1, 2, 3), fm.acs((1, -1, 1))),
            (cp.space, cp.metric(Fraction(1, 2)), cp.acs(-1))]


MODELS = model_data()


@SETTINGS
@given(st.data(), st.sampled_from(range(len(MODELS))),
       st.sampled_from(["metric", "endo"]), st.booleans())
def test_compiled_invariance_matches_the_commutator_loops(data, which, kind,
                                                          floats):
    space, g, J = MODELS[which]
    t = [list(row) for row in (g if kind == "metric" or J is None else J)]
    i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    t[i][j] = t[i][j] + data.draw(rationals)   # 0 keeps it invariant
    if floats:
        t = [[float(x) for x in row] for row in t]
    got, want = compiled_invariance(space, kind, t), oracle_invariance(space, kind, t)
    test = is_invariant_metric if kind == "metric" else is_invariant_endo
    if floats:
        # the compiled map merges coefficients, so the sums may round apart
        assert max(map(abs, (x - y for x, y in zip(got, want))), default=0) <= 1e-12
        assert test(space, t) == all(abs(y) <= 1e-10 for y in want)
    else:
        assert got == want
        assert test(space, t) == all(y == 0 for y in want)


def test_model_metrics_and_structures_are_invariant():
    for space, g, J in MODELS:
        assert is_invariant_metric(space, g)
        assert J is None or is_invariant_endo(space, J)


# -- closed-form g^-1 and volume form ---------------------------------------
def fixture_structures():
    out = []
    for name in ("s3xs3", "flag", "cp3"):
        doc = load_space(os.path.join(FIX, f"{name}.json"))
        omega = doc.forms["omega"]
        psi = ce_differential(doc.reductive_space(), omega) / 3
        out.append(build_either_orientation(omega, psi)[0])
    return out


def verify_structures():
    """The structures that ``verify s3xs3/flag/cp3/s6`` build."""
    fm, cp = spaces.flag_model(), spaces.cp3_model()
    flag = check_certificate(spaces.flag_certificate(fm))
    cp3 = check_certificate(spaces.cp3_certificate(cp))
    e1 = [Fraction(1)] + [Fraction(0)] * 6
    return [s3xs3.solve_nk().structure, flag.builds[0][0], cp3.builds[0][0],
            octonion.s6_structure_at(e1)[0]]


def matrix(lattice):
    return smallmat.unflatten(lower(lattice), 6, 6)


def k_star(s):
    """The cone check's star: the build's G^-1 with omega^3 / 6, whose
    squared norm is -1 / tau0^3."""
    return HodgeStar.of_inverse(s.Ginv, s.omega3 / 6, -s.tau0 ** 3, 0.0)


def assert_closed_forms(s):
    assert matrix(s.Ginv) == smallmat.inv(matrix(s.G))
    k_star(s)   # the exact norm test
    if s.kappa is not None:
        assert s.omega3 / 6 == metric_volume(s.g, omega3_sign(s.omega, s.omega3))


def assert_cone_star_scales(s, c):
    # *_{c g} = c^(3 - p) *_g and the build's star is kappa^(-p) *_g on
    # p-forms: that star on rho(c^2 kappa^2 omega, c kappa^3 psi) against the
    # star of c g, inverted afresh, with volume form c^3 omega^3 / 6 on
    # rho(c omega, c psi)
    kappa = s.kappa
    lattice = cone_hodge(cone_rho(s.omega.scale(c * c * kappa * kappa),
                                  s.psi.scale(c * kappa ** 3)), k_star(s))
    fresh = cone_hodge(cone_rho(s.omega.scale(c), s.psi.scale(c)),
                       HodgeStar(smallmat.mat_scale(c, s.g), s.omega3.scale(c ** 3) / 6))
    assert lattice.terms == fresh.terms


def test_closed_forms_with_kappa_outside_q_sqrt3():
    # candidate-06: kappa = sqrt(-tau0) is not in Q(sqrt 3), G and G^-1 are
    # rational, and the cone star's norm test is exact
    doc = load_space(os.path.join(ROOT, "tests", "golden", "candidates",
                                  "candidate-06.json"))
    omega = doc.forms["omega"]
    s, _ = build_either_orientation(
        omega, ce_differential(doc.reductive_space(), omega) / 3)
    assert s.kappa is None and s.Ginv[1] is not None
    assert_closed_forms(s)


def test_closed_forms_on_fixtures_and_verify_structures():
    for s in fixture_structures() + verify_structures():
        assert_closed_forms(s)
        for c in (Fraction(2), Fraction(1, 3), QSqrt3(1, 1)):
            assert_cone_star_scales(s, c)


scales = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
signs = st.sampled_from([1, -1])
# the integer (l1, l2, l3) up to order and scale, entries at most 7, whose
# S^3 x S^3 structure is stable with kappa in Q(sqrt 3): independent scales
# almost never are, and every such draw was filtered out
S3_EXACT = [(1, 1, 1), (2, 7, 7), (3, 4, 5), (3, 5, 7), (5, 5, 6)]


@st.composite
def built_structures(draw):
    family = draw(st.sampled_from(["s3xs3", "flag", "cp3"]))
    if family == "s3xs3":
        lam, base = draw(scales), draw(st.permutations(draw(st.sampled_from(S3_EXACT))))
        omega = s3xs3.omega_diagonal(*(draw(signs) * lam * x for x in base))
        d = s3xs3.differential
    elif family == "flag":
        model = spaces.flag_model()
        omega = model.omega(draw(scales), draw(scales), draw(scales),
                            (draw(signs), draw(signs), draw(signs)))
        d = lambda a: ce_differential(model.space, a)
    else:
        model = spaces.cp3_model()
        omega = model.omega(draw(scales), draw(signs), draw(scales))
        d = lambda a: ce_differential(model.space, a)
    try:
        s, _ = build_either_orientation(omega, d(omega) / 3)
    except StructureError:
        s = None
    assume(s is not None and s.kappa is not None)
    return s


@settings(SETTINGS, max_examples=30)
@given(built_structures(), scales)
def test_closed_forms_on_built_structures(s, c):
    assert_closed_forms(s)
    assert_cone_star_scales(s, c)


# -- a float volume form that fails the unit-norm test ----------------------
def test_unit_norm_failure_is_a_failing_cone_verdict():
    # fixtures/s3xs3.json in floats at tolerance 0 builds (every identity
    # of the build holds to the bit), but v^2 det G^-1 (-tau0)^3 rounds off 1
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")))
    done = subprocess.run(
        [sys.executable, "-m", "nk6.cli", "--json", "--tolerance", "0",
         "--scalar", "float", "check", os.path.join(FIX, "s3xs3.json"), "--cone"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == ""
    cone = {v.name: v for v in Report.from_json(done.stdout).verdicts
            if v.name.startswith("cone form")}
    assert [(v.status, v.label) for v in cone.values()] == [
        ("fail", "cone-closed"), ("fail", "cone-coclosed")]
    assert all("unit-norm" in v.detail for v in cone.values())

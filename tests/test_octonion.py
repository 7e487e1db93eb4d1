import random
from fractions import Fraction

import numpy as np
import pytest

from nk6 import octonion as oc
from nk6 import smallmat
from nk6.exterior import KForm, interior, wedge


def basis8(i):
    e = [0] * 8
    e[i] = 1
    return e


def test_multiplication_rules():
    one = basis8(0)
    assert oc.oct_mul(one, one) == one
    for i in range(1, 8):
        x = basis8(i)
        assert oc.oct_mul(one, x) == x
        assert oc.oct_mul(x, x) == [-1] + [0] * 7


def test_alternativity_exact_on_basis():
    for i in range(8):
        for j in range(8):
            x, y = basis8(i), basis8(j)
            xx = oc.oct_mul(x, x)
            assert all(c == 0 for c in xx[1:])  # x*x is real on basis elements
            lhs = oc.oct_mul(x, oc.oct_mul(x, y))
            rhs = [xx[0] * v for v in y]
            assert lhs == rhs


def test_norm_multiplicative_exact_on_basis():
    for i in range(8):
        for j in range(8):
            z = oc.oct_mul(basis8(i), basis8(j))
            assert sum(c * c for c in z) == 1


def test_norm_multiplicative_random_float():
    rng = random.Random(6)
    worst = 0.0
    for _ in range(1000):
        x = [rng.uniform(-1, 1) for _ in range(8)]
        y = [rng.uniform(-1, 1) for _ in range(8)]
        z = oc.oct_mul(x, y)
        nx = sum(v * v for v in x)
        ny = sum(v * v for v in y)
        nz = sum(v * v for v in z)
        worst = max(worst, abs(nz - nx * ny))
    assert worst <= 1e-12


def test_alternativity_random_float():
    rng = random.Random(14)
    worst = 0.0
    for _ in range(1000):
        x = [rng.uniform(-1, 1) for _ in range(8)]
        y = [rng.uniform(-1, 1) for _ in range(8)]
        lhs = oc.oct_mul(x, oc.oct_mul(x, y))
        rhs = oc.oct_mul(oc.oct_mul(x, x), y)
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
        lhs2 = oc.oct_mul(oc.oct_mul(x, y), y)
        rhs2 = oc.oct_mul(x, oc.oct_mul(y, y))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs2, rhs2)))
    assert worst <= 1e-12


def test_cross_product_properties():
    rng = random.Random(8)
    e1, e2 = [0] * 7, [0] * 7
    e1[0] = 1
    e2[1] = 1
    p12 = oc.cross(e1, e2)
    assert sorted(abs(v) for v in p12) == [0, 0, 0, 0, 0, 0, 1]
    for _ in range(200):
        x = [rng.uniform(-1, 1) for _ in range(7)]
        y = [rng.uniform(-1, 1) for _ in range(7)]
        p = oc.cross(x, y)
        assert abs(sum(a * b for a, b in zip(p, x))) <= 1e-12
        assert abs(sum(a * b for a, b in zip(p, y))) <= 1e-12
        assert max(abs(v) for v in oc.cross(x, x)) <= 1e-12
        norm2 = sum(v * v for v in p)
        nx = sum(v * v for v in x)
        ny = sum(v * v for v in y)
        xy = sum(a * b for a, b in zip(x, y))
        assert norm2 == pytest.approx(nx * ny - xy * xy, abs=1e-10)


def test_cross_is_octonion_product_on_orthogonal_imaginaries():
    rng = random.Random(10)
    for _ in range(50):
        x = [rng.uniform(-1, 1) for _ in range(7)]
        y = [rng.uniform(-1, 1) for _ in range(7)]
        xy = sum(a * b for a, b in zip(x, y))
        nx = sum(a * a for a in x)
        y_perp = [b - xy / nx * a for a, b in zip(x, y)]
        prod = oc.oct_mul([0] + x, [0] + y_perp)
        p = oc.cross(x, y_perp)
        assert abs(prod[0]) <= 1e-10
        assert max(abs(a - b) for a, b in zip(prod[1:], p)) <= 1e-12


def test_g2_three_form_shape():
    phi0 = oc.g2_three_form()
    terms = dict(phi0.terms())
    assert len(terms) == 7
    assert all(abs(v) == 1 for v in terms.values())


def test_trilinear_alternating():
    phi0 = oc.g2_three_form()
    rng = random.Random(12)
    for _ in range(50):
        x, y, z = ([Fraction(rng.randint(-3, 3)) for _ in range(7)]
                   for _ in range(3))
        val = phi0(x, y, z)
        assert phi0(y, x, z) == -val
        assert phi0(x, z, y) == -val
        # matches <P(x,y), z> exactly
        p = oc.cross(x, y)
        assert sum(a * b for a, b in zip(p, z)) == val


def euler_radial_derivative(alpha):
    """d of the radial contraction of a constant form:  sum_i e_i ^ i_{e_i} alpha.

    For a constant k-form this equals k * alpha (the degree identity); it is
    the exterior derivative of the contraction of alpha with the position
    field, and pins the sphere differential of ``cone.s6_link_differential``.
    """
    n = alpha.n
    out = KForm.zero(n, alpha.k)
    for i, e in enumerate(smallmat.identity(n)):
        out = out + wedge(KForm.basis(n, (i,)), interior(e, alpha))
    return out


def test_euler_degree_identity():
    phi0 = oc.g2_three_form()
    assert euler_radial_derivative(phi0) == phi0.scale(3)
    from nk6.exterior import hodge_star
    star = hodge_star(phi0, smallmat.identity(7, Fraction(1)),
                      KForm.basis(7, tuple(range(7))))
    assert euler_radial_derivative(star) == star.scale(4)


def test_s6_structure_exact_at_basis_point():
    x = [Fraction(0)] * 7
    x[0] = Fraction(1)
    s, basis, dev = oc.s6_structure_at(x)
    assert dev == 0
    assert s.g == smallmat.identity(6, Fraction(1))
    assert s.kappa == 2


@pytest.mark.parametrize("head", [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
])
def test_s6_structure_exact_at_rational_points(head):
    x = list(head) + [Fraction(0)] * (7 - len(head))
    s, basis, dev = oc.s6_structure_at(x)
    assert isinstance(s.kappa, Fraction)
    assert dev == 0
    frame = smallmat.transpose([x] + smallmat.transpose(basis))
    assert smallmat.mat_mul(smallmat.transpose(frame), frame) == \
        smallmat.identity(7, Fraction(1))
    assert smallmat.det(frame) == 1


def test_s6_structure_random_points():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=7)
        v /= np.linalg.norm(v)
        s, basis, dev = oc.s6_structure_at([float(t) for t in v])
        worst = max(worst, dev)
        j2 = smallmat.mat_add(smallmat.mat_mul(s.J, s.J),
                              smallmat.identity(6, 1.0))
        assert smallmat.mat_max_abs(j2) <= 1e-9
    assert worst <= 1e-10


def test_s6_rejects_non_unit_point():
    with pytest.raises(ValueError):
        oc.s6_structure_at([Fraction(2)] + [Fraction(0)] * 6)
    # off the sphere by about 10^-12: an exact point is decided exactly
    with pytest.raises(ValueError):
        oc.s6_structure_at([1 + Fraction(1, 10 ** 12)] + [Fraction(0)] * 6)


def test_s6_agreement_at_the_basis_point_is_decided_exactly(monkeypatch):
    # one cross-product entry off by 10^-400, whose float is 0.0: an exact
    # deviation that is not zero fails, whatever its float size
    cross_matrix = oc.cross_matrix

    def tampered(x):
        m = cross_matrix(x)
        m[1][2] += Fraction(1, 10 ** 400)
        return m

    monkeypatch.setattr(oc, "cross_matrix", tampered)
    rep = oc.s6_verify()
    assert [(v.name, v.label) for v in rep.verdicts if v.label] == [
        ("exact agreement at a basis point", "octonion-J")]
    assert not rep.ok


def test_g2_is_the_stabiliser_of_phi0():
    g2 = oc.stabiliser(oc.g2_three_form())
    assert len(g2) == 14
    # numpy oracle: every D is skew and annihilates phi0 as a tensor
    phi = np.zeros((7, 7, 7))
    for (i, j, k), v in oc.g2_three_form().terms():
        for a, b, c, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1),
                              (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
            phi[a, b, c] = sign * float(v)
    for d in g2:
        dm = np.array(d, dtype=float)
        assert np.abs(dm + dm.T).max() == 0
        act = (np.einsum("la,lbc->abc", dm, phi)
               + np.einsum("lb,alc->abc", dm, phi)
               + np.einsum("lc,abl->abc", dm, phi))
        assert np.abs(act).max() == 0
    assert np.linalg.matrix_rank(np.array([np.ravel(d) for d in g2],
                                          dtype=float)) == 14


def _tampered_phi0(terms):
    return lambda: KForm.from_terms(7, 3, terms)


@pytest.mark.parametrize("edit,failing", [
    # one sign flipped: the split form, whose 14-dimensional stabiliser
    # is not compact
    (lambda terms: [(terms[0][0], -terms[0][1])] + terms[1:],
     {"g2 lies in so(7)", "structure builds at e1"}),
    # one term dropped: the stabiliser grows to dimension 15
    (lambda terms: terms[1:],
     {"stabiliser g2 of phi0 has dimension 14",
      "G2 acts transitively on S^6 (orbit map at e1 has rank 6)",
      "isotropy at e1 has dimension 8 = dim su(3)", "g2 lies in so(7)",
      "structure builds at e1"}),
], ids=["sign-flipped", "term-dropped"])
def test_s6_verify_on_a_tampered_phi0(monkeypatch, capsys, edit, failing):
    from nk6.cli import main
    from nk6.report import Report

    terms = list(oc.g2_three_form().terms())
    monkeypatch.setattr(oc, "g2_three_form", _tampered_phi0(edit(terms)))
    rep = oc.s6_verify()
    assert {v.name for v in rep.verdicts if v.status == "fail"} == failing
    assert all(v.label for v in rep.verdicts if v.status == "fail")
    assert main(["--json", "verify", "s6"]) == 1
    cli = Report.from_json(capsys.readouterr().out)
    assert [v.as_dict() for v in cli.verdicts] == \
        [v.as_dict() for v in rep.verdicts]


def test_tangent_basis_is_oriented_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=7)
        v /= np.linalg.norm(v)
        b = oc.tangent_basis([float(t) for t in v])
        bm = np.array(b)
        assert np.abs(bm.T @ bm - np.eye(6)).max() <= 1e-12
        assert np.abs(bm.T @ v).max() <= 1e-12
        assert np.linalg.det(np.column_stack([v, bm])) == pytest.approx(1.0)

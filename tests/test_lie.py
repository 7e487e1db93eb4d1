import itertools
import random
from fractions import Fraction

import pytest

from nk6.exterior import KForm, index_tuples
from nk6.lie import (
    HasFixedVector,
    LieAlgebraData,
    NotInvariant,
    ReductiveSpace,
    acs_from_automorphism,
    ce_differential,
    check_3symmetric,
    check_jacobi,
    eta_parallel_residual,
    eta_total_skew_residual,
    intrinsic_eta,
    is_complex_subalgebra,
    is_invariant,
    is_invariant_endo,
    is_naturally_reductive,
    nearly_kahler_residual,
    nomizu_levi_civita,
    normal_torsion_curvature,
    ricci,
    su2_sum,
    _koszul,
    _pair_brackets,
)
from nk6 import smallmat, s3xs3, spaces
from nk6.hitchin import build_su3
from nk6.scalars import QSqrt3, exact_div, is_exact, lower


def su2():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c[i][j][k] = Fraction(-1)
        c[j][i][k] = Fraction(1)
    return LieAlgebraData(c)


def abelian(n):
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return LieAlgebraData(c)


def test_jacobi_examples():
    assert check_jacobi(su2())
    assert check_jacobi(abelian(6))
    # antisymmetric but not a Lie bracket:
    # [X1,X2] = X1, [X2,X3] = X2, [X3,X1] = X3
    bad = LieAlgebraData.from_sparse(
        3, [(0, 1, 0, Fraction(1)), (1, 2, 1, Fraction(1)),
            (0, 2, 2, Fraction(-1))], check=False)
    assert not check_jacobi(bad)
    with pytest.raises(ValueError):
        LieAlgebraData.from_sparse(
            3, [(0, 1, 0, Fraction(1)), (1, 2, 1, Fraction(1)),
                (0, 2, 2, Fraction(-1))])


def test_from_matrices_rejects_a_basis_that_does_not_close():
    basis = [su2_sum(i, (1,)) for i in range(3)]
    assert LieAlgebraData.from_matrices(basis).c == su2().c
    # [X1, X2] = -X3 leaves the span of X1, X2
    with pytest.raises(ValueError, match="outside the span"):
        LieAlgebraData.from_matrices(basis[:2])


def test_reductive_split_validation():
    fm = spaces.flag_model()
    alg = fm.space.algebra
    with pytest.raises(ValueError):
        ReductiveSpace(alg, [0, 7], [1, 2, 3, 4, 5, 6])  # p1 in "h"


def test_ce_differential_cyclic_coframe():
    space = s3xs3.cyclic_space()
    for base in (0, 3):
        for i in range(3):
            want = KForm.basis(6, (base + (i + 1) % 3, base + (i + 2) % 3))
            assert ce_differential(space, KForm.basis(6, (base + i,))) == want


def test_ce_differential_of_constant_is_zero():
    space = s3xs3.cyclic_space()
    assert ce_differential(space, KForm.constant(6, Fraction(7))).is_zero()


def test_ce_differential_matches_displayed_three_psi():
    space = s3xs3.cyclic_space()
    l1, l2, l3 = Fraction(2), Fraction(-3), Fraction(5)
    om = s3xs3.omega_diagonal(l1, l2, l3)
    # 3 psi = l1 (e23^f1 - e1^f23) + l2 (e31^f2 - e2^f31) + l3 (e12^f3 - e3^f12)
    want = KForm.from_terms(6, 3, [
        ((1, 2, 3), l1), ((0, 4, 5), -l1),
        ((2, 0, 4), l2), ((1, 5, 3), -l2),
        ((0, 1, 5), l3), ((2, 3, 4), -l3),
    ])
    assert ce_differential(space, om) == want


def test_ce_differential_squares_to_zero():
    rng = random.Random(4)
    for space in (s3xs3.cyclic_space(), spaces.flag_model().space):
        n = space.dim_m
        for k in (1, 2, 3):
            tuples, _ = index_tuples(n, k)
            form = KForm(n, k, [Fraction(rng.randint(-3, 3)) for _ in tuples])
            if not is_invariant(space, form):
                continue
            dd = ce_differential(space, ce_differential(space, form))
            assert dd.is_zero()
    # invariant forms of the flag: powers of the area forms
    fl = spaces.flag_model()
    om = fl.omega(1, 2, 3)
    dd = ce_differential(fl.space, ce_differential(fl.space, om))
    assert dd.is_zero()


def test_ce_differential_rejects_non_invariant():
    fl = spaces.flag_model()
    with pytest.raises(NotInvariant):
        ce_differential(fl.space, KForm.basis(6, (0,)))


def test_invariance_examples():
    space = s3xs3.cyclic_space()  # trivial isotropy: everything invariant
    assert is_invariant(space, KForm.basis(6, (0,)))
    fl = spaces.flag_model()
    assert is_invariant(fl.space, KForm.basis(6, (0, 1)))      # area form of p
    assert not is_invariant(fl.space, KForm.basis(6, (0,)))    # single covector


def test_nomizu_naturally_reductive_halves_bracket():
    lo = spaces.ledger_obata_su2()
    gamma = nomizu_levi_civita(lo.space, lo.metric)
    n = lo.space.dim_m
    for i in range(n):
        for j in range(n):
            want = [Fraction(1, 2) * x for x in lo.space.bm[i][j]]
            assert gamma[i][j] == want


def test_nomizu_symmetric_space_is_flat_operator():
    # su(2) as the isotropy of a rank-one symmetric presentation:
    # g = su(2) + su(2) with h the diagonal and m the antidiagonal.
    basis = ([su2_sum(i, (1, 1)) for i in range(3)]
             + [su2_sum(i, (1, -1)) for i in range(3)])
    alg = LieAlgebraData.from_matrices(basis)
    space = ReductiveSpace(alg, [0, 1, 2], [3, 4, 5])
    g = smallmat.identity(3, Fraction(1))
    gamma = nomizu_levi_civita(space, g)
    assert all(all(x == 0 for x in gamma[i][j])
               for i in range(3) for j in range(3))


def test_nomizu_metric_and_torsion_identities():
    fm = spaces.flag_model()
    space = fm.space
    for rst in [(1, 1, 1), (1, 1, 2), (2, 3, 1)]:
        g = fm.metric(*rst)
        gamma = nomizu_levi_civita(space, g)
        n = 6
        for i in range(n):
            for j in range(n):
                # torsion-free: Gamma(i,j) - Gamma(j,i) = [X_i, X_j]_m
                diff = smallmat.vec_sub(gamma[i][j], gamma[j][i])
                assert diff == space.bm[i][j]
                for k in range(n):
                    # metric: g(Gamma(i,j), k) + g(j, Gamma(i,k)) = 0
                    t1 = smallmat.vec_dot(smallmat.mat_vec(g, gamma[i][j]),
                                          [1 if r == k else 0 for r in range(n)])
                    t2 = smallmat.vec_dot(smallmat.mat_vec(g, gamma[i][k]),
                                          [1 if r == j else 0 for r in range(n)])
                    assert t1 + t2 == 0


def _nomizu_by_solves(space, g):
    """The Nomizu operator by one solve of g u = rhs per basis pair."""
    n = space.dim_m
    bm = space.bm
    half = Fraction(1, 2) if all(map(is_exact, (x for r in g for x in r))) else 0.5
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [half * (sum(g[j][l] * bm[z][i][l] for l in range(n))
                           + sum(g[i][l] * bm[z][j][l] for l in range(n)))
                   for z in range(n)]
            u = smallmat.solve(g, rhs)
            gamma[i][j] = [half * bm[i][j][r] + u[r] for r in range(n)]
    return gamma


def test_nomizu_matches_the_per_pair_solve():
    fm, cp3 = spaces.flag_model(), spaces.cp3_model()
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    exact_cases = [
        (fm.space, fm.metric(1, 1, 2)),
        (fm.space, fm.metric(2, 3, 1)),
        (cp3.space, cp3.metric(Fraction(1, 2))),
        (s3xs3.cyclic_space(), s.g),
    ]
    for space, g in exact_cases:
        gamma = nomizu_levi_civita(space, g)
        assert gamma == _nomizu_by_solves(space, g)
        assert all(is_exact(x) for row in gamma for v in row for x in v)
    g = [[0.7 * float(x) for x in row] for row in fm.metric(3, 1, 2)]
    gamma, ref = nomizu_levi_civita(fm.space, g), _nomizu_by_solves(fm.space, g)
    assert max(abs(a - b) for r1, r2 in zip(gamma, ref)
               for v1, v2 in zip(r1, r2) for a, b in zip(v1, v2)) < 1e-12


def test_nomizu_inverts_the_metric_once(monkeypatch):
    fm = spaces.flag_model()
    calls = []
    original = smallmat.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(smallmat, "solve", counting)
    nomizu_levi_civita(fm.space, fm.metric(1, 1, 2))
    assert len(calls) == 1   # the one inside smallmat.inv


def test_nomizu_u_term_localization():
    fm = spaces.flag_model()
    space = fm.space

    def u_term(g, i, j):
        gamma = nomizu_levi_civita(space, g)
        return [a - Fraction(1, 2) * b
                for a, b in zip(gamma[i][j], space.bm[i][j])]

    # deviant summand r: U couples p x r, not p x q
    assert any(x != 0 for x in u_term(fm.metric(1, 1, 2), 0, 4))
    assert all(x == 0 for x in u_term(fm.metric(1, 1, 2), 0, 2))
    # deviant summand p: U couples p x q
    assert any(x != 0 for x in u_term(fm.metric(2, 1, 1), 0, 2))


def test_nearly_kahler_residual_kahler_case():
    # flat torus: abelian algebra, Euclidean metric, constant J
    alg = abelian(6)
    space = ReductiveSpace(alg, [], list(range(6)))
    g = smallmat.identity(6, Fraction(1))
    j = [[Fraction(0)] * 6 for _ in range(6)]
    for a, b in ((0, 1), (2, 3), (4, 5)):
        j[a][b] = Fraction(-1)
        j[b][a] = Fraction(1)
    ok, res = nearly_kahler_residual(space, g, j)
    assert ok and res == 0


@pytest.mark.parametrize("arithmetic", ["exact", "surd", "float"])
def test_nearly_kahler_residual_of_a_singular_metric(arithmetic):
    # g = diag(1, 1, 0, 0, 0, 0) passes every precondition on the flat torus
    # (J-orthogonal, invariant) and its lowered vectors are zero; it still
    # fails as singular, on exact data with no inverse formed
    one = {"exact": Fraction(1), "surd": QSqrt3(0, 1), "float": 1.0}[arithmetic]
    space = ReductiveSpace(abelian(6), [], list(range(6)))
    g = [[one if i == j < 2 else 0 * one for j in range(6)] for i in range(6)]
    j = [[0] * 6 for _ in range(6)]
    for a, b in ((0, 1), (2, 3), (4, 5)):
        j[a][b], j[b][a] = -1, 1
    with pytest.raises(smallmat.SingularMatrix, match="^matrix is singular$"):
        nearly_kahler_residual(space, g, j)
    g[2][2] = g[3][3] = g[4][4] = g[5][5] = one
    assert nearly_kahler_residual(space, g, j) == (True, 0.0)


def test_nearly_kahler_residual_catalog_cases():
    # the diagonal solution is nearly Kahler; exact zero residual
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    ok, res = nearly_kahler_residual(s3xs3.cyclic_space(), s.g, s.J)
    assert ok and res == 0
    # off the naturally reductive locus the residual is positive
    fm = spaces.flag_model()
    ok2, res2 = nearly_kahler_residual(
        fm.space, fm.metric(1, 1, 2), fm.acs((1, 1, 1)))
    assert not ok2 and res2 > 0


def _double_sum(table, x, y):
    """sum_ij x_i y_j table[i][j] over the pairs of nonzero coefficients."""
    terms = [(xi * yj, table[i][j]) for i, xi in enumerate(x) if xi != 0
             for j, yj in enumerate(y) if yj != 0]
    return [sum((c * w[k] for c, w in terms), 0) for k in range(len(table[0][0]))]


def _sampled_nk_verdict(space, g, J, tol=1e-10):
    """(nabla_X J) X at the basis and 25 seeded random X, max coefficient."""
    n = space.dim_m
    exact = all(is_exact(x) for m in (g, J) for r in m for x in r)
    rng = random.Random(7)
    vectors = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    for _ in range(25):
        vectors.append([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if exact
                        else rng.uniform(-1, 1) for _ in range(n)])
    gamma = nomizu_levi_civita(space, g)
    worst = 0.0
    for x in vectors:
        jx = smallmat.mat_vec(J, x)
        resid = smallmat.vec_sub(
            _double_sum(gamma, x, jx),
            smallmat.mat_vec(J, _double_sum(gamma, x, x)))
        worst = max(worst, max(abs(float(r)) for r in resid))
    return worst <= tol


def test_polarised_nk_verdict_matches_sampling():
    fm, cp3 = spaces.flag_model(), spaces.cp3_model()
    cases = [(fm.space, fm.metric(r, s, t), fm.acs((1, 1, 1)))
             for r in (1, 2, 3) for s in (1, 2, 3) for t in (1, 2, 3)]
    cases += [(cp3.space, cp3.metric(t), cp3.acs(fiber))
              for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
              for fiber in (1, -1)]
    verdicts = []
    for space, g, j in cases:
        ok, res = nearly_kahler_residual(space, g, j)
        assert ok == _sampled_nk_verdict(space, g, j)
        assert ok == (res == 0)
        verdicts.append(ok)
    # r = s = t on the flag; on CP^3 the nearly Kahler t = 1/2 with fiber
    # sign -1 and the Kahler t = 1 with fiber sign +1 (nabla J = 0)
    assert [i for i, ok in enumerate(verdicts) if ok] == [0, 13, 26, 30, 31]


def _commutator_polar(space, g, J):
    """The polarised nabla-J test as it was computed before the lowered
    Koszul table: the Nomizu operator per basis pair, nabla_i J = [L_i, J]
    as six dense commutators, then (nabla_i J) X_j + (nabla_j J) X_i for
    each pair i <= j, keyed by the pair."""
    n = space.dim_m
    half = Fraction(1, 2) if all(is_exact(x) for r in g for x in r) else 0.5
    ginv = smallmat.inv(g)
    gb = [[smallmat.mat_vec(g, space.bm[i][j]) for j in range(n)]
          for i in range(n)]
    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [half * (gb[z][i][j] + gb[z][j][i]) for z in range(n)]
            u = smallmat.mat_vec(ginv, rhs)
            gamma[i][j] = [half * space.bm[i][j][r] + u[r] for r in range(n)]
    nj = [smallmat.commutator(smallmat.transpose(gi), J) for gi in gamma]
    return {(i, j): [nj[i][r][j] + nj[j][r][i] for r in range(n)]
            for i in range(n) for j in range(i, n)}


def _commutator_nk_residual(space, g, J, tol=1e-10):
    polar = list(_commutator_polar(space, g, J).values())
    exact = all(is_exact(x) for v in polar for x in v)
    ok = (all(x == 0 for v in polar for x in v) if exact
          else all(abs(float(x)) <= tol for v in polar for x in v))
    return ok, max(abs(float(x)) for v in polar for x in v)


def _nk_family_cases():
    """Flag diag(r, r, s, s, t, t), CP^3 at t with both fiber signs and the
    S^3 x S^3 solution, whose metric is not diagonal and lives in Q(sqrt 3)."""
    fm, cp3 = spaces.flag_model(), spaces.cp3_model()
    cases = [(fm.space, fm.metric(r, s, t), fm.acs(signs))
             for r in (1, 2, 3) for s in (1, 2) for t in (1, 3)
             for signs in ((1, 1, 1), (1, -1, 1))]
    cases += [(cp3.space, cp3.metric(t), cp3.acs(fiber))
              for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
              for fiber in (1, -1)]
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    cases.append((s3xs3.cyclic_space(), s.g, s.J))
    return cases


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_lowered_nk_residual_matches_the_commutator_formula(arithmetic):
    verdicts = []
    for space, g, j in _nk_family_cases():
        if arithmetic == "float":
            g, j = ([[float(x) for x in row] for row in m] for m in (g, j))
        got, want = nearly_kahler_residual(space, g, j), \
            _commutator_nk_residual(space, g, j)
        assert got[0] == want[0]
        if arithmetic == "exact":
            assert got == want
        else:
            assert abs(got[1] - want[1]) <= 1e-12 * max(1.0, want[1])
        verdicts.append(got[0])
    # flag: r = s = t with signs (1, 1, 1), and the Kahler (1, 2, 1) of the
    # integrable signs (1, -1, 1); CP^3: t = 1/2 with fiber -1 and the
    # Kahler t = 1 with fiber +1; and the S^3 x S^3 solution
    assert [i for i, ok in enumerate(verdicts) if ok] == [0, 5, 27, 28, 32]


def _rotated_flag_cases():
    """Flag metrics and structures in the basis with X_p1 + X_q1 in place
    of X_p1: g and J are not block diagonal there, and the largest
    polarised coefficient can lie on a diagonal pair (i, i)."""
    fm, one, eye, zero = spaces.flag_model(), (1, 0), (0, 1), (0, 0)
    basis = [spaces.flag_matrix(*slots) for slots in (
        (one, one, zero), (eye, zero, zero), (zero, one, zero),
        (zero, eye, zero), (zero, zero, one), (zero, zero, eye))]
    basis += [spaces._flag_torus(1, -1, 0), spaces._flag_torus(0, 1, -1)]
    space = ReductiveSpace(LieAlgebraData.from_matrices(basis), [6, 7], range(6))
    P = [[Fraction(int(i == j or (i, j) == (2, 0))) for j in range(6)]
         for i in range(6)]
    P_inv, P_t = smallmat.inv(P), smallmat.transpose(P)
    return [(space, smallmat.mat_mul(P_t, smallmat.mat_mul(fm.metric(*rst), P)),
             smallmat.mat_mul(P_inv, smallmat.mat_mul(fm.acs(signs), P)))
            for rst in ((1, 2, 3), (2, 1, 1), (1, 2, 1))
            for signs in ((1, 1, 1), (1, -1, 1))]


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_nk_residual_counts_a_diagonal_pair_twice(arithmetic):
    # the polarisation of the pair (i, i) is 2 (nabla_i J) X_i
    on_diagonal = 0
    for space, g, j in _rotated_flag_cases():
        polar = _commutator_polar(space, g, j)
        want = _commutator_nk_residual(space, g, j)
        diagonal = max(abs(float(x)) for (a, b), v in polar.items() if a == b
                       for x in v)
        on_diagonal += want[1] > 0 and diagonal == want[1]
        if arithmetic == "float":
            g, j = _floats(g), _floats(j)
        got = nearly_kahler_residual(space, g, j)
        if arithmetic == "exact":
            assert got == want
        else:
            assert got[0] == want[0] and _close(got[1], want[1])
    assert on_diagonal >= 3


def _reference_koszul(space, g):
    """The lowered Levi-Civita table G[i][j][z] = g(nabla_i X_j, X_z) as it
    was computed before the compiled Koszul map: Nomizu's formula
    G[i][j][z] = (gb[i][j][z] + gb[z][i][j] + gb[z][j][i]) / 2 with gb the
    lowered brackets, evaluated per index of its support only."""
    n = space.dim_m
    half = Fraction(1, 2) if all(is_exact(x) for r in g for x in r) else 0.5
    gb = [[smallmat.mat_vec(g, space.bm[a][b]) for b in range(n)]
          for a in range(n)]
    support = {t for a, row in enumerate(gb) for b, vec in enumerate(row)
               for c, v in enumerate(vec) if v != 0
               for t in ((a, b, c), (b, c, a), (c, b, a))}
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, z in support:
        table[i][j][z] = half * (gb[i][j][z] + gb[z][i][j] + gb[z][j][i])
    return table


def _koszul_cases():
    """The nabla-J family cases and the Ledger-Obata space (h != 0)."""
    lo = spaces.ledger_obata_su2()
    return [(space, g) for space, g, _ in _nk_family_cases()] + [
        (lo.space, lo.metric)]


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_compiled_koszul_map_matches_the_per_support_loop(arithmetic):
    for space, g in _koszul_cases():
        n = space.dim_m
        g = _floats(g) if arithmetic == "float" else g
        want = _reference_koszul(space, g)
        got = lower(_koszul(space, smallmat.mat_lattice(g), 1e-10))
        ref_gamma = [[smallmat.mat_vec(smallmat.inv(g), v) for v in row]
                     for row in want]
        want = [x for row in want for v in row for x in v]
        gamma = nomizu_levi_civita(space, g)
        if arithmetic == "exact":
            assert got == want
            assert gamma == ref_gamma
        else:
            assert all(_close(a, b) for a, b in zip(got, want))
            assert all(_close(a, b) for r1, r2 in zip(gamma, ref_gamma)
                       for v1, v2 in zip(r1, r2) for a, b in zip(v1, v2))
        assert len(got) == n ** 3 and len(gamma) == n


# -- reference oracles: the per-pair formulas of the connection layer as
# they were computed before its matrix form, applying each table to basis
# vectors through _double_sum
def _unit(n, i):
    return [1 if r == i else 0 for r in range(n)]


def _oracle_nomizu_matrix(gamma, x):
    """Matrix of Y -> Gamma(x, Y)."""
    n = len(gamma)
    return smallmat.transpose([_double_sum(gamma, x, _unit(n, j)) for j in range(n)])


def _oracle_ricci(space, g, tol=1e-10):
    """ricci from R(X_i, X_j) per pair i < j, R(X, Y) = [Lambda(X), Lambda(Y)]
    - Lambda([X, Y]_m) - ad([X, Y]_h) with Lambda the Nomizu operator."""
    gamma = nomizu_levi_civita(space, g)
    n = space.dim_m

    def curvature(i, j):
        li = _oracle_nomizu_matrix(gamma, _unit(n, i))
        lj = _oracle_nomizu_matrix(gamma, _unit(n, j))
        out = smallmat.mat_sub(smallmat.commutator(li, lj),
                               _oracle_nomizu_matrix(gamma, space.bm[i][j]))
        ad = [[sum((c * m[a][b] for c, m in zip(space.bh[i][j], space.ad_h)), 0)
               for b in range(n)] for a in range(n)]
        return smallmat.mat_sub(out, ad)

    ops = {(i, j): curvature(i, j) for i in range(n) for j in range(i + 1, n)}
    ric = [[sum(ops[i, j][i][k] if i < j else -ops[j, i][i][k]
                for i in range(n) if i != j) for k in range(n)] for j in range(n)]
    scal = smallmat.trace(smallmat.mat_mul(smallmat.inv(g), ric))
    diff = smallmat.mat_sub(ric, smallmat.mat_scale(exact_div(scal, n), g))
    scale = smallmat.mat_max_abs(ric)
    rel = smallmat.mat_max_abs(diff) / max(scale, 1e-30)
    exact = all(is_exact(x) for r in diff for x in r)
    ok = (all(x == 0 for r in diff for x in r) if exact
          else smallmat.mat_max_abs(diff) <= tol * scale)
    return ric, scal, ok, rel


def _oracle_eta(gamma, J):
    """eta[i][j] = J (nabla_i J) X_j / 2, nabla_i J = [L_i, J] per i."""
    n = len(gamma)
    half = Fraction(1, 2) if all(is_exact(x) for r in J for x in r) else 0.5
    eta = [[None] * n for _ in range(n)]
    for i, gi in enumerate(gamma):
        jd = smallmat.mat_mul(J, smallmat.commutator(smallmat.transpose(gi), J))
        for j in range(n):
            eta[i][j] = [half * jd[r][j] for r in range(n)]
    return eta


def _oracle_eta_parallel_residual(space, g, J):
    """The derivative of eta along the canonical connection, per unit vector:
    Lambda eta(X_i, X_j) - eta(Lambda X_i, X_j) - eta(X_i, Lambda X_j)."""
    gamma = nomizu_levi_civita(space, g)
    eta = _oracle_eta(gamma, J)
    n = space.dim_m
    gbar = [[smallmat.vec_sub(gamma[i][j], eta[i][j]) for j in range(n)]
            for i in range(n)]
    worst = 0.0
    for w in range(n):
        lam = _oracle_nomizu_matrix(gbar, _unit(n, w))
        for i in range(n):
            for j in range(n):
                term = smallmat.mat_vec(lam, eta[i][j])
                lx = smallmat.mat_vec(lam, _unit(n, i))
                ly = smallmat.mat_vec(lam, _unit(n, j))
                e_lx = _double_sum(eta, lx, _unit(n, j))
                e_ly = _double_sum(eta, _unit(n, i), ly)
                resid = smallmat.vec_sub(smallmat.vec_sub(term, e_lx), e_ly)
                worst = max(worst, max(abs(float(r)) for r in resid))
    return worst


def _oracle_pair_bracket(space, u, v, s, t):
    """[u + i v, s + i t] as ((re_m, im_m), (re_h, im_h))."""
    bm, bh = space.bm, space.bh
    re_m = smallmat.vec_sub(_double_sum(bm, u, s), _double_sum(bm, v, t))
    im_m = smallmat.vec_add(_double_sum(bm, u, t), _double_sum(bm, v, s))
    re_h = smallmat.vec_sub(_double_sum(bh, u, s), _double_sum(bh, v, t))
    im_h = smallmat.vec_add(_double_sum(bh, u, t), _double_sum(bh, v, s))
    return (re_m, im_m), (re_h, im_h)


def _oracle_eigen_parts(J, a, b):
    """The m+ and m- parts of a + i b, each as (re, im), times 2."""
    ja, jb = smallmat.mat_vec(J, a), smallmat.mat_vec(J, b)
    return ((smallmat.vec_sub(a, jb), smallmat.vec_add(b, ja)),
            (smallmat.vec_add(a, jb), smallmat.vec_sub(b, ja)))


def _oracle_3symmetric(space, J, tol=1e-10):
    """(check_3symmetric, is_complex_subalgebra) per basis pair (i, j), from
    the brackets of X_i + i J X_i with X_j +- i J X_j."""
    n = space.dim_m
    cols = smallmat.transpose(J)
    three, closed = [], []
    for i in range(n):
        for j in range(n):
            x, y = _unit(n, i), _unit(n, j)
            (am, bm), h_part = _oracle_pair_bracket(space, x, cols[i], y, cols[j])
            plus, minus = _oracle_eigen_parts(J, am, bm)
            mixed, _ = _oracle_pair_bracket(space, x, cols[i], y,
                                            [-c for c in cols[j]])
            three += [*h_part, *plus, *mixed]
            closed += minus
    zero = lambda vs: all(abs(float(x)) <= tol for v in vs for x in v)
    return zero(three), zero(closed)


def _floats(m):
    return [[float(x) for x in row] for row in m]


def _connection_cases():
    """(space, g, J): the flag metrics (r, s, t) in {1, 2}^3 with the
    canonical J, CP^3 at t in {1/4, 1/2, 1, 2} with both fiber signs, the
    Ledger-Obata canonical complement and the S^3 x S^3 solution (h = 0)."""
    fm, cp3 = spaces.flag_model(), spaces.cp3_model()
    lo = spaces.ledger_obata_su2()
    cases = [(fm.space, fm.metric(r, s, t), fm.acs((1, 1, 1)))
             for r, s, t in itertools.product((1, 2), repeat=3)]
    cases += [(cp3.space, cp3.metric(t), cp3.acs(fiber))
              for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
              for fiber in (1, -1)]
    cases.append((lo.space, lo.metric, acs_from_automorphism(lo.s_matrix)))
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    cases.append((s3xs3.cyclic_space(), s.g, s.J))
    return cases


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_ricci_matches_the_per_pair_curvature(arithmetic):
    einstein = []
    for space, g, _ in _connection_cases():
        g = _floats(g) if arithmetic == "float" else g
        got, want = ricci(space, g), _oracle_ricci(space, g)
        assert got[2] == want[2]
        if arithmetic == "exact":
            assert got == want
        else:
            scale = smallmat.mat_max_abs(want[0])
            assert all(abs(a - b) <= 1e-12 * scale
                       for r, s in zip(got[0], want[0]) for a, b in zip(r, s))
            assert _close(got[1], want[1]) and _close(got[3], want[3])
        einstein.append(got[2])
    # flag: r = s = t and the Kahler-Einstein (1, 1, 2) up to order; CP^3 at
    # t = 1/2 and 1 (the metric does not see the fiber sign); Ledger-Obata
    # and the S^3 x S^3 solution
    assert [i for i, ok in enumerate(einstein) if ok] == [
        0, 1, 2, 4, 7, 10, 11, 12, 13, 16, 17]


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_eta_matches_the_unit_vector_loop(arithmetic):
    parallel = []
    for space, g, j in _connection_cases():
        if arithmetic == "float":
            g, j = _floats(g), _floats(j)
        got, want = (eta_parallel_residual(space, g, j),
                     _oracle_eta_parallel_residual(space, g, j))
        assert got == want if arithmetic == "exact" else _close(got, want)
        eta = intrinsic_eta(space, g, j)
        oracle = _oracle_eta(nomizu_levi_civita(space, g), j)
        if arithmetic == "exact":
            assert eta == oracle
        else:
            assert all(_close(a, b) for r, s in zip(eta, oracle)
                       for u, v in zip(r, s) for a, b in zip(u, v))
        parallel.append(want <= 1e-10)
    # every flag metric; CP^3 with fiber sign -1 and the Kahler t = 1;
    # Ledger-Obata and the S^3 x S^3 solution
    assert [i for i, ok in enumerate(parallel) if ok] == [
        0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 15, 16, 17]


def _acs_cases():
    """(space, J): the 8 sign patterns on the flag, CP^3 with both fiber and
    both global signs, the Ledger-Obata J and the S^3 x S^3 solution's J."""
    fm, cp3 = spaces.flag_model(), spaces.cp3_model()
    lo = spaces.ledger_obata_su2()
    cases = [(fm.space, fm.acs(signs))
             for signs in itertools.product((1, -1), repeat=3)]
    cases += [(cp3.space, cp3.acs(fiber, glob))
              for fiber in (1, -1) for glob in (1, -1)]
    cases.append((lo.space, acs_from_automorphism(lo.s_matrix)))
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    cases.append((s3xs3.cyclic_space(), s.J))
    return cases


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_3symmetric_matches_the_complex_pair_brackets(arithmetic):
    verdicts = []
    for space, j in _acs_cases():
        j = _floats(j) if arithmetic == "float" else j
        got = check_3symmetric(space, j), is_complex_subalgebra(space, j)
        assert got == _oracle_3symmetric(space, j)
        verdicts.append(got)
    # the flag's canonical signs and every CP^3 structure of fiber sign -1
    # and Ledger-Obata's J are 3-symmetric, the flag's flips and CP^3's fiber
    # sign +1 integrable; the S^3 x S^3 solution's J is neither on the
    # presentation with h = 0
    canonical, integrable = (True, False), (False, True)
    assert verdicts == ([canonical] + [integrable] * 6 + [canonical]
                        + [integrable] * 2 + [canonical] * 3 + [(False, False)])


def test_nearly_kahler_residual_precondition_reporting():
    fm = spaces.flag_model()
    g = fm.metric(1, 1, 1)
    not_acs = smallmat.identity(6, Fraction(1))
    with pytest.raises(ValueError, match="J\\^2"):
        nearly_kahler_residual(fm.space, g, not_acs)
    j = fm.acs((1, 1, 1))
    bad_g = fm.metric(1, 1, 1)
    bad_g[0][2] = bad_g[2][0] = Fraction(1, 2)  # not J-orthogonal, not invariant
    with pytest.raises(ValueError):
        nearly_kahler_residual(fm.space, bad_g, j)


def test_eta_kahler_is_zero():
    alg = abelian(6)
    space = ReductiveSpace(alg, [], list(range(6)))
    g = smallmat.identity(6, Fraction(1))
    j = [[Fraction(0)] * 6 for _ in range(6)]
    for a, b in ((0, 1), (2, 3), (4, 5)):
        j[a][b] = Fraction(-1)
        j[b][a] = Fraction(1)
    eta = intrinsic_eta(space, g, j)
    assert all(all(x == 0 for x in eta[i][j_]) for i in range(6) for j_ in range(6))


def test_eta_skew_and_parallel_on_solution():
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    space = s3xs3.cyclic_space()
    eta = intrinsic_eta(space, s.g, s.J)
    assert eta_total_skew_residual(s.g, eta) == 0
    assert eta_parallel_residual(space, s.g, s.J) == 0
    assert any(any(float(x) != 0 for x in eta[i][j]) for i in range(6)
               for j in range(6))


def test_eta_not_skew_off_locus():
    fm = spaces.flag_model()
    g = fm.metric(2, 1, 1)
    eta = intrinsic_eta(fm.space, g, fm.acs((1, 1, 1)))
    assert eta_total_skew_residual(g, eta) > 0


def test_canonical_connection_torsion_equals_normal_torsion():
    # on a naturally reductive 3-symmetric presentation, nabla - eta has the
    # torsion of the normal connection: eta_X Y - eta_Y X = [X, Y]_m
    # (the left-translation presentation of S^3 x S^3 is not naturally
    # reductive, so the identity lives on the flag and the Ledger-Obata
    # canonical complement)
    fm = spaces.flag_model()
    lo = spaces.ledger_obata_su2()
    j_lo = acs_from_automorphism(lo.s_matrix)
    assert is_naturally_reductive(lo.space, lo.metric)
    cases = [
        (fm.space, fm.metric(1, 1, 1), fm.acs((1, 1, 1))),
        (lo.space, lo.metric, j_lo),
    ]
    for space, g, j in cases:
        eta = intrinsic_eta(space, g, j)
        n = space.dim_m
        for i in range(n):
            for k in range(n):
                diff = smallmat.vec_sub(eta[i][k], eta[k][i])
                assert all(float(a - b) == 0
                           for a, b in zip(diff, space.bm[i][k]))


def test_normal_torsion_curvature():
    lo = spaces.ledger_obata_su2()
    t, r = normal_torsion_curvature(lo.space)
    for i in range(6):
        for j in range(6):
            assert t[i][j] == [-x for x in lo.space.bm[i][j]]
            assert r[i][j] == lo.space.bh[i][j]
    # h = 0: curvature of the normal connection vanishes
    space = s3xs3.cyclic_space()
    _, rhat = normal_torsion_curvature(space)
    assert all(rhat[i][j] == [] for i in range(6) for j in range(6))
    # symmetric-space data: torsion vanishes
    basis = ([su2_sum(i, (1, 1)) for i in range(3)]
             + [su2_sum(i, (1, -1)) for i in range(3)])
    alg = LieAlgebraData.from_matrices(basis)
    sym = ReductiveSpace(alg, [0, 1, 2], [3, 4, 5])
    that, _ = normal_torsion_curvature(sym)
    assert all(all(x == 0 for x in that[i][j]) for i in range(3) for j in range(3))


def test_naturally_reductive_examples():
    # bi-invariant metric on a compact group (h = 0)
    space = s3xs3.cyclic_space()
    assert is_naturally_reductive(space, smallmat.identity(6, Fraction(1)))
    fm = spaces.flag_model()
    assert is_naturally_reductive(fm.space, fm.metric(1, 1, 1))
    assert not is_naturally_reductive(fm.space, fm.metric(1, 1, 2))


def test_3symmetric_examples():
    fm = spaces.flag_model()
    assert check_3symmetric(fm.space, fm.acs((1, 1, 1)))
    assert not check_3symmetric(fm.space, fm.acs((1, 1, -1)))
    assert is_complex_subalgebra(fm.space, fm.acs((1, 1, -1)))
    lo = spaces.ledger_obata_su2()
    j = acs_from_automorphism(lo.s_matrix)
    assert check_3symmetric(lo.space, j)


def test_3symmetric_h_part_decides_alone():
    # S^2 x S^2 = su(2) + su(2) / <X3, Y3>: [m, m] lies in h, so every m part
    # of check_3symmetric vanishes; J: X1 -> Y1, X2 -> Y2 is not invariant,
    # and [X1 + i Y1, X2 + i Y2] = [X1, X2] - [Y1, Y2] is a nonzero element of
    # h, so only the h part of [m+, m+] fails
    basis = [su2_sum(i, c) for c in ((1, 0), (0, 1)) for i in range(3)]
    space = ReductiveSpace(LieAlgebraData.from_matrices(basis), [2, 5],
                           [0, 1, 3, 4])
    J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert smallmat.is_scalar_matrix(smallmat.mat_mul(J, J), -1)
    assert not is_invariant_endo(space, J)
    assert all(x == 0 for a in space.bm for b in a for x in b)
    m_parts = [z for (re, im), mixed in _pair_brackets(space.bm, J)
               for z in (re, im, *mixed)]
    assert all(x == 0 for z in m_parts for row in z for x in row)
    assert not check_3symmetric(space, J)
    assert is_complex_subalgebra(space, J)


def test_3symmetric_rejects_non_acs():
    fm = spaces.flag_model()
    with pytest.raises(ValueError):
        check_3symmetric(fm.space, smallmat.identity(6, Fraction(1)))


def test_acs_from_rotation_blocks():
    # rotation by 2 pi / 3 in Q(sqrt 3) entries
    half = Fraction(1, 2)
    s = [[QSqrt3(-half), QSqrt3(0, -half)], [QSqrt3(0, half), QSqrt3(-half)]]
    j = acs_from_automorphism(s)
    assert j[0][0] == 0 and j[1][1] == 0
    assert j[0][1] == -1 and j[1][0] == 1


def test_acs_ledger_obata_formula():
    lo = spaces.ledger_obata_su2()
    j = acs_from_automorphism(lo.s_matrix_last_two)
    # J(X, Y) = (2Y - X, -2X + Y)/sqrt(3) through the (X, Y)-identification
    iota = lo.identification()
    lhs = smallmat.mat_mul(j, iota)
    jxy = [[Fraction(0)] * 6 for _ in range(6)]
    s3inv = QSqrt3(0, Fraction(1, 3))  # 1/sqrt(3)
    for i in range(3):
        jxy[i][i] = -1 * s3inv          # X-part of J(X_i)
        jxy[3 + i][i] = -2 * s3inv      # Y-part of J(X_i)
        jxy[i][3 + i] = 2 * s3inv       # X-part of J(Y_i)
        jxy[3 + i][3 + i] = 1 * s3inv
    rhs = smallmat.mat_mul(iota, jxy)
    assert all(lhs[i][j_] == rhs[i][j_] for i in range(6) for j_ in range(6))


def test_acs_rejects_non_order_three():
    with pytest.raises(ValueError):
        acs_from_automorphism(smallmat.mat_scale(
            Fraction(2), smallmat.identity(4, Fraction(1))))
    with pytest.raises(HasFixedVector):
        acs_from_automorphism(smallmat.identity(4, Fraction(1)))


def test_ricci_round_sphere():
    alg = su2()
    space = ReductiveSpace(alg, [], [0, 1, 2])
    g = smallmat.identity(3, Fraction(1))
    ric, scal, einstein, rel = ricci(space, g)
    assert einstein and rel == 0
    assert scal == Fraction(3, 2) and scal > 0
    lam = scal / 3
    assert ric == smallmat.mat_scale(lam, g)


def test_ricci_flat_abelian():
    space = ReductiveSpace(abelian(6), [], list(range(6)))
    ric, scal, einstein, rel = ricci(space, smallmat.identity(6, Fraction(1)))
    assert scal == 0 and einstein and rel == 0.0
    assert all(all(x == 0 for x in row) for row in ric)


def test_ricci_einstein_on_solution_exact():
    s = build_su3(s3xs3.candidate(
        s3xs3.DiagonalInvariantForm((Fraction(1),) * 3)))
    ric, scal, einstein, rel = ricci(s3xs3.cyclic_space(), s.g)
    assert einstein and rel == 0
    assert float(scal) > 0
    assert scal == QSqrt3(0, Fraction(5, 3))  # 5/sqrt(3), exactly


def test_ricci_einstein_verdict_is_exact_on_exact_data():
    # a relative defect of 1e-12 passes a float test at 1e-8, not an exact one
    fm = spaces.flag_model()
    g = fm.metric(1, 1, 1 + Fraction(1, 10 ** 12))
    _, _, einstein, rel = ricci(fm.space, g)
    assert not einstein and 0 < rel < 1e-8
    _, _, einstein, _ = ricci(fm.space, [[float(x) for x in r] for r in g])
    assert einstein
    _, _, einstein, rel = ricci(fm.space, fm.metric(1, 1, 1))
    assert einstein and rel == 0


def test_natural_reductivity_lowers_each_bracket_once(monkeypatch):
    fm = spaces.flag_model()
    calls = []
    original = smallmat.mat_vec

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(smallmat, "mat_vec", counting)
    assert is_naturally_reductive(fm.space, fm.metric(1, 1, 1))
    assert not is_naturally_reductive(fm.space, fm.metric(1, 1, 2))
    assert len(calls) <= 2 * 36

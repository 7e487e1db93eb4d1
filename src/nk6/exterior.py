"""Dense exterior algebra over a fixed basis of R^n, n <= 8.

A k-form stores one coefficient per strictly increasing multi-index, in
lexicographic order; antisymmetry lives in a single sign routine
(:func:`sort_index`) shared by wedge, interior product and Hodge star so
that sign conventions cannot drift apart.  Coefficients are exact
(int/Fraction/QSqrt3); a form given float coefficients keeps them, and
every operation reads their exact binary values (:func:`scalars.lift`).

Wedge, interior product and Hodge star are lattice products
(:func:`scalars.bilinear`); a form keeps its lattice and lowers it on
first use, so a chain of rational products stays in integers; sums,
scaling, zero tests and ``max_abs`` read the lattice too.  Every operation
returns a fresh form and nothing mutates a form after construction, so
values can be shared freely across threads.
"""

from __future__ import annotations

import itertools

from . import smallmat
from .scalars import (
    EPS, bilinear, exact, exact_div, is_positive, is_zero, kernel_rows,
    lattice_max_abs, lattice_size, lattice_sum, lattice_zero, lift, lower,
    sqrt_scalar, times, tolerance)


class NotPositiveDefinite(ValueError):
    pass


class NotUnitNorm(ValueError):
    pass


_INDEX_CACHE: dict = {}


def index_tuples(n, k):
    """Strictly increasing k-tuples in {0..n-1}, lexicographically ordered."""
    key = (n, k)
    if key not in _INDEX_CACHE:
        if k < 0 or k > n:
            tuples, pos = [], {}
        else:
            tuples = list(itertools.combinations(range(n), k))
            pos = {t: i for i, t in enumerate(tuples)}
        _INDEX_CACHE[key] = (tuples, pos)
    return _INDEX_CACHE[key]


def sort_index(idx):
    """Canonicalize a multi-index: (sign, sorted tuple), sign 0 on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return 0, ()
    return sign, tuple(idx)


def complement(n, idx):
    """Complementary tuple and the sign of the permutation (idx, comp)."""
    comp = tuple(i for i in range(n) if i not in idx)
    sign, _ = sort_index(idx + comp)
    return comp, sign


class KForm:
    """Alternating k-form on an n-dimensional space."""

    __slots__ = ("n", "k", "_c", "_lattice")

    def __init__(self, n, k, coeffs=None, lattice=None):
        if not 1 <= n <= 8:
            raise ValueError("supported dimensions are 1 through 8")
        tuples, _ = index_tuples(n, k)
        if coeffs is None and lattice is None:
            coeffs = [0] * len(tuples)
        if len(lattice[0] if coeffs is None else coeffs) != len(tuples):
            raise ValueError("coefficient list has wrong length")
        self.n, self.k = n, k
        self._c = None if coeffs is None else list(coeffs)
        self._lattice = lattice

    @property
    def c(self):
        """The coefficients, lowered from the lattice on first use."""
        if self._c is None:
            self._c = lower(self._lattice)
        return self._c

    def lattice(self):
        """The coefficients lifted (:func:`scalars.lift`) on first use."""
        if self._lattice is None:
            self._lattice = lift(self._c)
        return self._lattice

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, n, k):
        return cls(n, k)

    @classmethod
    def basis(cls, n, idx, coeff=1):
        sign, t = sort_index(idx)
        if sign == 0:
            raise ValueError(f"repeated index in {idx}")
        out = cls(n, len(t))
        _, pos = index_tuples(n, len(t))
        out.c[pos[t]] = sign * coeff
        return out

    @classmethod
    def from_terms(cls, n, k, terms):
        """Build from (multi-index, coefficient) pairs, canonicalizing."""
        out = cls(n, k)
        _, pos = index_tuples(n, k)
        for idx, val in terms:
            sign, t = sort_index(tuple(idx))
            if sign == 0:
                continue
            out.c[pos[t]] = out.c[pos[t]] + sign * val
        return out

    @classmethod
    def constant(cls, n, value):
        out = cls(n, 0)
        out.c[0] = value
        return out

    # -- access ----------------------------------------------------------
    def coeff(self, idx):
        """Signed coefficient at an arbitrary (possibly unsorted) index."""
        sign, t = sort_index(tuple(idx))
        if sign == 0:
            return 0
        _, pos = index_tuples(self.n, self.k)
        return sign * self.c[pos[t]]

    def terms(self):
        tuples, _ = index_tuples(self.n, self.k)
        for t, v in zip(tuples, self.c):
            if v != 0:
                yield t, v

    # -- linear structure --------------------------------------------------
    def _like(self, coeffs):
        return KForm(self.n, self.k, coeffs)

    def __add__(self, other, s=1):
        self._check_compatible(other)
        total = lattice_sum(self.lattice(), other.lattice(), s)
        return KForm(self.n, self.k, lattice=total)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._like([-a for a in self.c])

    def scale(self, s):
        return KForm(self.n, self.k, lattice=times(s, self.lattice()))

    __rmul__ = scale

    def __mul__(self, s):
        return self.scale(s)

    def __truediv__(self, s):
        return self.scale(exact_div(1, s))

    def _check_compatible(self, other):
        if not isinstance(other, KForm):
            raise TypeError("expected a KForm")
        if other.n != self.n or other.k != self.k:
            raise ValueError(
                f"form mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})")

    # -- predicates --------------------------------------------------------
    def is_zero(self, tol=0):
        return lattice_zero(self._lattice or (exact(self._c), None), tol)

    def max_abs(self):
        return lattice_max_abs(self._lattice or (exact(self._c), None))

    def __eq__(self, other):
        if not isinstance(other, KForm) or other.n != self.n or other.k != self.k:
            return NotImplemented
        return all(a == b for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash((self.n, self.k, tuple(self.c)))

    def to_float(self):
        return self._like([float(v) for v in self.c])

    # -- evaluation ---------------------------------------------------------
    def __call__(self, *vectors):
        """Evaluate on k vectors (component lists)."""
        if len(vectors) != self.k:
            raise ValueError(f"need {self.k} vectors")
        if self.k == 0:
            return self.c[0]
        total = 0
        for idx, v in self.terms():
            sub = [[vec[i] for i in idx] for vec in vectors]
            total = total + v * smallmat.det(sub)
        return total

    def __repr__(self):
        parts = [f"{v}*e{''.join(str(i + 1) for i in t)}" for t, v in self.terms()]
        body = " + ".join(parts) if parts else "0"
        return f"<{self.k}-form {body}>"


# ---------------------------------------------------------------------------
def wedge(a, b):
    """Exterior product; graded-commutative, associative."""
    if a.n != b.n:
        raise ValueError("wedge of forms on different spaces")
    n, k = a.n, a.k + b.k
    return KForm(n, k, lattice=bilinear(wedge_rows(n, a.k, b.k), a.lattice(),
                                        b.lattice(), len(index_tuples(n, k)[0])))


def wedge_rows(n, ka, kb):
    """The :func:`scalars.bilinear` table of the wedge of a ka- and a kb-form."""
    pos = index_tuples(n, ka + kb)[1]
    return kernel_rows(("wedge", n, ka, kb), lambda: [
        [(j, pos[t], s) for j, ib in enumerate(index_tuples(n, kb)[0])
         for s, t in [sort_index(ia + ib)] if s] for ia in index_tuples(n, ka)[0]])


def interior(v, a):
    """Contraction of a k-form with a vector; an antiderivation."""
    if len(v) != a.n:
        raise ValueError("vector dimension mismatch")
    if a.k == 0:
        return KForm.zero(a.n, 0)
    tuples, (out, pos) = index_tuples(a.n, a.k)[0], index_tuples(a.n, a.k - 1)
    rows = kernel_rows(("interior", a.n, a.k), lambda: [
        [(i, pos[t[:slot] + t[slot + 1:]], -1 if slot % 2 else 1)
         for slot, i in enumerate(t)] for t in tuples])
    return KForm(a.n, a.k - 1, lattice=bilinear(rows, a.lattice(), lift(v), len(out)))


def metric_volume(gram, orientation=1):
    """Unit-norm top form of a positive Gram matrix, fixing orientation.

    Exact when sqrt(det g) lies in the scalar field, float otherwise.
    """
    n = len(gram)
    d = smallmat.det(gram)
    if not is_positive(d):
        raise NotPositiveDefinite("Gram determinant not positive")
    s = sqrt_scalar(d)
    return KForm.basis(n, tuple(range(n)), orientation * s)


class HodgeStar:
    """The Hodge star of one metric and unit-norm volume form.

    Defined by  alpha ^ star(beta) = <alpha, beta> vol  on each degree.
    The star of a basis k-form e_J is

        star(e_J) = sum_I <e_I, e_J> sign(I, I^c) v e_{I^c},

    with <e_I, e_J> the I x J minor of g^-1: the J-th coefficient of the
    wedge of the rows I of g^-1, a Laplace expansion along the first row,
    kept per I.  Rational g^-1 is symmetric, so there it is the I-th
    coefficient of the wedge of the rows J, formed only for the J where the
    form has a coefficient.  On the lattice of g^-1, over d, the k-minors
    are integers over d^k.  The metric is checked and inverted once (or g^-1
    given, :meth:`of_inverse`).  The unit-norm check reads rational det g^-1
    off the n-minor, at the tolerance of the data times the largest entry of
    g and g^-1.  ``vol`` defaults to :func:`metric_volume` (a float, measured
    data, when sqrt(det g) is irrational).
    """

    def __init__(self, gram, vol=None, tol=EPS):
        if not smallmat.is_positive_definite(gram):
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        vol = vol or metric_volume(gram)
        self._setup(smallmat.inv(gram), vol, 1, tolerance(tol, gram, vol.c),
                    lattice_size(smallmat.mat_lattice(gram)))

    @classmethod
    def of_inverse(cls, inverse, vol, scale, tol):
        """The star of g^-1 = ``inverse`` with a volume form of squared norm
        v^2 det g^-1 = 1 / ``scale``: scale^(-1/2) times the star of g, at
        the resolved tolerance ``tol``."""
        star = cls.__new__(cls)
        star._setup(inverse, vol, scale, tol, 0)
        return star

    def _setup(self, inverse, vol, scale, tol, size):
        self.gram_inv = inverse
        P, d = lattice = smallmat.mat_lattice(inverse)
        self.n, self.v = n, v = vol.n, exact(vol.c)[0]
        if vol.k != n or len(P) != n * n:
            raise ValueError("volume form has wrong degree")
        if v == 0:
            raise ValueError("volume form vanishes")
        self._rows = [(P[i:i + n], d) for i in range(0, n * n, n)]
        self._minors = {(): lift([1])}
        full = tuple(range(n))
        det_inv = (self.minor(full, full) if d
                   else smallmat.det(smallmat.unflatten(P, n, n)))
        bound = tol and tol * max(1, size, lattice_size(lattice))
        if not is_zero(v * v * det_inv * scale - 1, bound):
            raise NotUnitNorm("volume form is not unit-norm for this metric")

    def _minors_of(self, rows):
        """The lattice of the minors of the rows ``rows`` of g^-1, by column."""
        lattice = self._minors.get(rows)
        if lattice is None:
            n, k = self.n, len(rows)
            lattice = self._minors[rows] = bilinear(
                wedge_rows(n, 1, k - 1), self._rows[rows[0]],
                self._minors_of(rows[1:]), len(index_tuples(n, k)[0]))
        return lattice

    def minor(self, rows, cols):
        """det of g^-1 restricted to the index tuples ``rows`` x ``cols``."""
        return lower(self._minors_of(rows))[index_tuples(self.n, len(cols))[1][cols]]

    def __call__(self, a):
        n, k = self.n, a.k
        if a.n != n:
            raise ValueError("form dimension does not match the metric")
        tuples, _ = index_tuples(n, k)
        size, x, v = len(tuples), a.lattice(), self.v
        d = self._rows[0][1]
        if d is None:   # g^-1 off Q: the minors of each row set, read by column
            by_rows = [self._minors_of(t)[0] for t in tuples]
            minors = [m[j] for j in range(size) for m in by_rows], None
        else:   # the minors of the rows J for the J where a has a coefficient
            minors = [p for j, t in enumerate(tuples) for p in (
                self._minors_of(t)[0] if x[0][j] != 0 else [0] * size)], d ** k
        _, pos = index_tuples(n, n - k)
        rows = kernel_rows(("star", n, k), lambda: [
            [(j * size + i, pos[c], s) for i, (c, s) in enumerate(comps)]
            for comps in [[complement(n, t) for t in tuples]] for j in range(size)])
        star = bilinear(rows, x, minors, size)
        return KForm(n, n - k, lattice=times(v, star))


def hodge_star(a, gram, vol=None):
    """The star of one form: ``HodgeStar(gram, vol)(a)``."""
    return HodgeStar(gram, vol)(a)


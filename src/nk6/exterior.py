"""Dense exterior algebra over a fixed basis of R^n, n <= 8.

A k-form stores one coefficient per strictly increasing multi-index, in
lexicographic order; antisymmetry lives in a single sign routine
(:func:`sort_index`) shared by wedge, interior product and Hodge star so
that sign conventions cannot drift apart.  Coefficients may be exact
(int/Fraction/QSqrt3) or float; operations never mix the two on their own.

Every operation returns a fresh form and nothing mutates its inputs, so
values can be shared freely across threads.
"""

from __future__ import annotations

import itertools

from . import smallmat
from .scalars import (
    EPS, all_zero, exact_div, is_exact, is_positive, is_zero, sqrt_scalar)


class NotPositiveDefinite(ValueError):
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

    __slots__ = ("n", "k", "c")

    def __init__(self, n, k, coeffs=None):
        if not 1 <= n <= 8:
            raise ValueError("supported dimensions are 1 through 8")
        tuples, _ = index_tuples(n, k)
        if coeffs is None:
            coeffs = [0] * len(tuples)
        if len(coeffs) != len(tuples):
            raise ValueError("coefficient list has wrong length")
        self.n = n
        self.k = k
        self.c = list(coeffs)

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

    def __add__(self, other):
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return self._like([-a for a in self.c])

    def scale(self, s):
        return self._like([s * a for a in self.c])

    __rmul__ = scale

    def __mul__(self, s):
        return self.scale(s)

    def __truediv__(self, s):
        return self._like([exact_div(a, s) for a in self.c])

    def _check_compatible(self, other):
        if not isinstance(other, KForm):
            raise TypeError("expected a KForm")
        if other.n != self.n or other.k != self.k:
            raise ValueError(
                f"form mismatch: ({self.n},{self.k}) vs ({other.n},{other.k})")

    # -- predicates --------------------------------------------------------
    def is_zero(self, tol=0.0):
        return all_zero(self.c, tol)

    def max_abs(self):
        return max((abs(float(v)) for v in self.c), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, KForm) or other.n != self.n or other.k != self.k:
            return NotImplemented
        return all(a == b for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash((self.n, self.k, tuple(self.c)))

    def isclose(self, other, tol=EPS):
        return (self - other).is_zero(tol)

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
    n = a.n
    k = a.k + b.k
    out = KForm.zero(n, k)
    if k > n:
        return out
    _, pos = index_tuples(n, k)
    for ia, va in a.terms():
        for ib, vb in b.terms():
            sign, t = sort_index(ia + ib)
            if sign == 0:
                continue
            p = pos[t]
            out.c[p] = out.c[p] + sign * (va * vb)
    return out


def interior(v, a):
    """Contraction of a k-form with a vector; an antiderivation."""
    if len(v) != a.n:
        raise ValueError("vector dimension mismatch")
    if a.k == 0:
        return KForm.zero(a.n, 0)
    out = KForm.zero(a.n, a.k - 1)
    _, pos = index_tuples(a.n, a.k - 1)
    for idx, val in a.terms():
        for slot, i in enumerate(idx):
            vi = v[i]
            if vi == 0:
                continue
            rest = idx[:slot] + idx[slot + 1:]
            sgn = -1 if slot % 2 else 1
            p = pos[rest]
            out.c[p] = out.c[p] + sgn * (vi * val)
    return out


def form_inner(a, b, gram_inv):
    """Inner product on k-forms induced by the inverse Gram matrix."""
    a._check_compatible(b)
    total = 0
    for ia, va in a.terms():
        for ib, vb in b.terms():
            sub = [[gram_inv[i][j] for j in ib] for i in ia]
            total = total + va * vb * smallmat.det(sub)
    return total


def metric_volume(gram, orientation=1, n=None):
    """Unit-norm top form of a positive Gram matrix, fixing orientation.

    Exact when sqrt(det g) lies in the scalar field, float otherwise.
    """
    n = len(gram) if n is None else n
    d = smallmat.det(gram)
    if not is_positive(d):
        raise NotPositiveDefinite("Gram determinant not positive")
    s = sqrt_scalar(d)
    return KForm.basis(n, tuple(range(n)), orientation * s)


class HodgeStar:
    """The Hodge star of one metric and unit-norm volume form.

    Defined by  alpha ^ star(beta) = <alpha, beta> vol  on each degree.
    The metric and the volume form are checked, and g^-1 computed, once.
    The star of a basis k-form e_J is

        star(e_J) = sum_I <e_I, e_J> sign(I, I^c) v e_{I^c},

    with <e_I, e_J> the I x J minor of g^-1.  Minors come from Laplace
    expansion along their first row and are kept, so a k-minor costs at
    most k products of (k-1)-minors already computed; a zero entry of g^-1
    is skipped, and the empty minor (degree 0) is 1.  The n-minor is
    det g^-1, which the unit-norm check reads.  ``vol`` defaults to
    :func:`metric_volume`.  The minors stay in the arithmetic of g; a float
    volume (sqrt det g outside Q(sqrt 3)) or a float form makes the star
    of that form run in floats, the minors converted as they are used.
    """

    def __init__(self, gram, vol=None):
        n = len(gram)
        if not smallmat.is_positive_definite(gram):
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        self.gram_inv = smallmat.inv(gram)
        if vol is None:
            vol = metric_volume(gram)
        if vol.n != n or vol.k != n:
            raise ValueError("volume form has wrong degree")
        v = vol.c[0]
        if v == 0:
            raise ValueError("volume form vanishes")
        self.n, self.v = n, v
        self.floats = isinstance(v, float)
        self._minors = {((), ()): 1}
        self._columns = {}
        full = tuple(range(n))
        det_inv = self.minor(full, full)
        if self.floats:
            det_inv = float(det_inv)
        if not is_zero(v * v * det_inv - 1, EPS):
            raise ValueError("volume form is not unit-norm for this metric")

    def minor(self, rows, cols):
        """det of g^-1 restricted to the index tuples ``rows`` x ``cols``."""
        key = (rows, cols)
        out = self._minors.get(key)
        if out is None:
            first, rest = self.gram_inv[rows[0]], rows[1:]
            out = 0
            for p, c in enumerate(cols):
                x = first[c]
                if x == 0:
                    continue
                sub = self.minor(rest, cols[:p] + cols[p + 1:])
                if sub != 0:
                    out = out - x * sub if p % 2 else out + x * sub
            self._minors[key] = out
        return out

    def _column(self, k, j):
        """The nonzero minors <e_I, e_J> as (position of I, minor), J at j."""
        col = self._columns.get((k, j))
        if col is None:
            tuples, _ = index_tuples(self.n, k)
            jb = tuples[j]
            col = []
            for i, ia in enumerate(tuples):
                minor = self.minor(ia, jb)
                if minor != 0:
                    col.append((i, minor))
            self._columns[k, j] = col
        return col

    def __call__(self, a):
        n, k = self.n, a.k
        if a.n != n:
            raise ValueError("form dimension does not match the metric")
        floats = self.floats or not all(map(is_exact, a.c))
        if floats:
            a = a.to_float()
        v = float(self.v) if floats else self.v
        inner = {}
        for j, x in enumerate(a.c):
            if x == 0:
                continue
            for i, minor in self._column(k, j):
                inner[i] = inner.get(i, 0) + x * (float(minor) if floats else minor)
        tuples, _ = index_tuples(n, k)
        _, pos_out = index_tuples(n, n - k)
        out = KForm.zero(n, n - k)
        for i, value in inner.items():
            if value == 0:
                continue
            comp, sign = complement(n, tuples[i])
            out.c[pos_out[comp]] = sign * (v * value)
        return out


def hodge_star(a, gram, vol=None):
    """The star of one form: ``HodgeStar(gram, vol)(a)``."""
    return HodgeStar(gram, vol)(a)


def lambda5_to_vector(sigma, vol):
    """The vector v with  interior(v, vol) = sigma,  for a 5-form in dim 6.

    Realizes the isomorphism of 5-forms with vectors tensored by top forms
    that the stable-form construction needs.
    """
    if sigma.n != 6 or sigma.k != 5:
        raise ValueError("expected a 5-form in dimension 6")
    if vol.n != 6 or vol.k != 6 or vol.c[0] == 0:
        raise ValueError("expected a nonzero top form in dimension 6")
    v = vol.c[0]
    tuples5, pos5 = index_tuples(6, 5)
    out = []
    for i in range(6):
        comp = tuple(j for j in range(6) if j != i)
        sgn = -1 if i % 2 else 1
        out.append(sgn * exact_div(sigma.c[pos5[comp]], v))
    return out

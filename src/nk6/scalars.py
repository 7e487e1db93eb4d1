"""Coefficient scalars.

All algebra in this package is generic over its scalars by duck typing.
Computations are exact: ``int``/``Fraction``, and Q(sqrt 3)
(:class:`QSqrt3`) for the cube roots of unity of 3-symmetric spaces; a
verdict that would need a square root is decided on data homogeneous in
it (K = kappa J, :mod:`nk6.hitchin`).  A float is a dyadic rational: it
enters as its binary value (:func:`lift`), and floats remain only in
reports and as square roots outside Q(sqrt 3) (:func:`sqrt_scalar`).

The tolerance is a rational bound resolved where data enter
(:func:`tolerance`): 0, a proof, for exact data, ``Fraction(tol)`` for
measured data.  The zero policy lives here, in one test
(:func:`lattice_zero`, with :func:`is_zero` its one-scalar case): a
lattice (P, d) is zero at a bound t when max |P| <= t d, in integers; an
identity is bounded at t times the sizes of its data (:func:`scaled_tol`).

So does the integer lattice of the exact kernels: :func:`lift` writes a
rational list as integers over one denominator, :func:`bilinear` applies a
compiled table to two lifted lists in one pass in Python integers, and
:func:`lower` converts back, to an ``int`` wherever a value is whole; it
builds a ``Fraction`` only for a denominator other than 1, and so does
:func:`exact_div` on rationals.  Other lists (``Poly``, ``QSqrt3``) run
the same loop on their values.  Sums, zero tests and sizes read a lattice
too, and :func:`times` scales one by a rational in plain lattice
arithmetic, so a value stays in integers from one product to the next.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
from fractions import Fraction

EPS = 1e-10

_EXACT = (int, Fraction)


class QSqrt3:
    """Element a + b*sqrt(3) of the field Q(sqrt 3), with a, b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        # parts that are already Fractions are kept, not re-wrapped
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    # ------------------------------------------------------------------
    def __repr__(self):
        if self.b == 0:
            return f"QSqrt3({self.a})"
        return f"QSqrt3({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt3"
        return f"({self.a} + {self.b}*sqrt3)"

    # ------------------------------------------------------------------
    # A rational operand (int, Fraction, or a QSqrt3 with b = 0) works on
    # the two parts directly, with no coercion and no cross products.
    def __add__(self, other):
        if isinstance(other, QSqrt3):
            return QSqrt3(self.a + other.a, self.b + other.b)
        if isinstance(other, _EXACT):
            return QSqrt3(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QSqrt3):
            return QSqrt3(self.a - other.a, self.b - other.b)
        if isinstance(other, _EXACT):
            return QSqrt3(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT):
            return QSqrt3(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QSqrt3):
            a, b, c, d = self.a, self.b, other.a, other.b
            if not d:
                return QSqrt3(a * c, b * c)
            if not b:
                return QSqrt3(a * c, a * d)
            return QSqrt3(a * c + 3 * (b * d), a * d + b * c)
        if isinstance(other, _EXACT):
            return QSqrt3(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        a, b = self.a, self.b
        n = a * a - 3 * (b * b) if b else a * a
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        return QSqrt3(a / n, -b / n)

    def __truediv__(self, other):
        if isinstance(other, QSqrt3):
            return self * other.inverse()
        if isinstance(other, _EXACT):
            if other == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt 3)")
            return QSqrt3(self.a / other, self.b / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT):
            return self.inverse() * other
        return NotImplemented

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if self >= 0 else -self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QSqrt3(1)
        for _ in range(n):
            out = out * self
        return out

    # ------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, QSqrt3):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _EXACT):
            if not other:  # the zero test of every sparsity skip
                return not (self.a or self.b)
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self):
        """Exact sign of a + b*sqrt(3): -1, 0 or +1."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the part of the larger square wins (a^2 != 3 b^2)
        return (1 if a > 0 else -1) if a * a > 3 * b * b else (1 if b > 0 else -1)

    def _order(op):
        """A comparison, by the exact sign of the difference."""
        def compare(self, other):
            if isinstance(other, (QSqrt3, *_EXACT)):
                return op((self - other).sign(), 0)
            return NotImplemented
        return compare

    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)
    del _order

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(3.0)


SQRT3 = QSqrt3(0, 1)


# ----------------------------------------------------------------------
def is_exact(x):
    """True for scalars whose arithmetic and equality are exact."""
    return isinstance(x, _EXACT) or isinstance(x, QSqrt3)


def tolerance(tol, *collections):
    """The tolerance of data where they enter: ``Fraction(tol)`` if a scalar
    of the collections (lists of scalars or of rows, or lattices) is a float
    (measured data), else 0; an exact tol as is."""
    if is_exact(tol):
        return tol
    values = (y for c in collections for x in c
              for y in (x if isinstance(x, list) else (x,)))
    if any(isinstance(y, numbers.Real) and not isinstance(y, numbers.Rational)
           for y in values):
        return Fraction(tol)
    return 0


def lattice_zero(lattice, tol=0):
    """The zero policy at the rational bound ``tol``: a rational lattice (P, d)
    is zero when max |P| <= tol d, in integers; other values exactly."""
    P, d = lattice
    if not tol:
        return not any(P) if d is not None else all(x == 0 for x in P)
    tol = Fraction(tol)
    if d is None:
        return all(abs(x) <= tol for x in P)
    return max(map(abs, P), default=0) * tol.denominator <= tol.numerator * d


def is_zero(x, tol=0):
    """The zero policy for one scalar: the one-entry case of :func:`lattice_zero`."""
    if not tol and is_exact(x):
        return x == 0
    return lattice_zero(lift([x]), tol)


def is_positive(x, tol=0):
    """x > 0 and not zero under the zero policy."""
    return x > 0 and not is_zero(x, tol)


def simplify(x):
    """Collapse a QSqrt3 with zero irrational part back to Fraction."""
    if isinstance(x, QSqrt3) and x.b == 0:
        return x.a
    return x


def _frac_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def exact_sqrt(x):
    """Square root inside Q(sqrt 3) when one exists, else None.

    Handles rational inputs (root rational or rational*sqrt3) and the
    general a + b*sqrt3 case by solving (c + d*sqrt3)^2 = x.
    """
    if isinstance(x, QSqrt3):
        a, b = x.a, x.b
    else:
        a, b = Fraction(x), Fraction(0)
    if b == 0:
        r = _frac_sqrt(a)
        if r is not None:
            return r
        r = _frac_sqrt(a / 3)
        if r is not None:
            return QSqrt3(0, r)
        return None
    # c^2 + 3 d^2 = a and 2 c d = b, so c^2 solves 4 t^2 - 4 a t + 3 b^2 = 0.
    disc = _frac_sqrt(a * a - 3 * b * b)
    if disc is None:
        return None
    for root in ((a + disc) / 2, (a - disc) / 2):
        c = _frac_sqrt(root)
        if c is None or c == 0:
            continue
        d = b / (2 * c)
        cand = QSqrt3(c, d)
        if cand * cand == QSqrt3(a, b):
            return cand if cand.sign() > 0 else -cand
    return None


def sqrt_scalar(x):
    """Square root, exact when representable, float otherwise (of a
    rational x, 2^e sqrt(x / 4^e) with x / 4^e near 1: in any range)."""
    if is_exact(x):
        r = exact_sqrt(x)
        if r is not None:
            return r
        if not isinstance(x, QSqrt3) and x > 0:
            e = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
            try:
                return math.sqrt(x * Fraction(4) ** -e) * 2.0 ** e
            except OverflowError:
                return math.inf
    v = float(x)
    if v < 0:
        raise ValueError("square root of a negative scalar")
    return math.sqrt(v)


def exact_div(x, y):
    """x / y, kept exact on exact operands instead of decaying to float: a
    whole rational quotient is an ``int``, any other one a ``Fraction``."""
    if isinstance(x, int) and isinstance(y, int):
        return x // y if x % y == 0 else Fraction(x, y)
    q = x / y
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


@functools.lru_cache(maxsize=1024)
def parse_rational(text):
    """'p/q' or 'p' as a Fraction (the JSON space format), the last 1024
    texts kept: ASCII -?digits(/digits)? by ``int``, other text by
    ``Fraction(text)``, which takes the same values and raises the same
    errors, only slower."""
    m = _RATIONAL.fullmatch(text)
    return Fraction(int(m[1]), int(m[2] or 1)) if m else Fraction(text)


def lift(values):
    """The lattice (P, d) of a list of rationals: x[i] = P[i] / d in integers,
    d > 0; a list of ints is its own numerators, over d = 1; a float is its
    binary value (a non-finite one raises ValueError).  A list with any
    other scalar (``Poly``, ``QSqrt3``) passes through as (values, None) and
    runs the same loops on its values.
    """
    d, whole = 1, True
    for x in values:
        t = type(x)
        if t is Fraction:
            d, whole = math.lcm(d, x.denominator), False
        elif t is not int:
            if isinstance(x, float):
                return lift([_binary(v) if isinstance(v, float) else v
                             for v in values])
            return values, None
    if whole:
        return list(values), 1
    return [x.numerator * (d // x.denominator) for x in values], d


def _binary(x):
    """The binary value of a finite float, a dyadic ``Fraction``."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite scalar {x!r}")
    return Fraction(x)


def exact(values):
    """A new list of the values, a float as its binary value (:func:`lift`)."""
    if all(map(is_exact, values)):
        return list(values)
    P, d = lattice = lift(values)
    return list(P) if d is None else lower(lattice)


def lower(lattice):
    """The scalars of a lattice, or the values that passed through
    :func:`lift`: an ``int`` where P[i] / d is whole, else a ``Fraction``, so
    only a nonzero non-integer output builds one."""
    P, d = lattice
    if d is None:
        return P
    if d == 1:
        return list(P)
    return [p // d if p % d == 0 else Fraction(p, d) for p in P]


_ROWS: dict = {}


def kernel_rows(key, build):
    """The table ``key`` of :func:`bilinear`: ``build()`` on first use, then kept."""
    rows = _ROWS.get(key)
    if rows is None:
        rows = _ROWS[key] = build()
    return rows


def lattice_sum(x, y, s=1):
    """The lattice of x + s y entry by entry, s = +-1: rational lattices over
    their least common denominator, in integers; others on their values."""
    if x[1] is None or y[1] is None:
        return list(map(operator.add if s > 0 else operator.sub,
                        lower(x), lower(y))), None
    (P1, d1), (P2, d2) = x, y
    d = math.lcm(d1, d2)
    a, b = d // d1, s * (d // d2)
    return [a * p + b * q for p, q in zip(P1, P2)], d


def lattice_max_abs(lattice):
    """max abs(float(x)) over a lattice (0.0 if none), for a report: of a
    rational one max |P| / d correctly rounded, inf beyond the float range."""
    P, d = lattice
    try:
        if d is None:
            return max((abs(float(x)) for x in P), default=0.0)
        return max(map(abs, P), default=0) / d
    except OverflowError:
        return math.inf


def lattice_size(lattice):
    """A rational bound on |x| over a lattice: max |P| / d of a rational one,
    |a| + 2 |b| >= |a + b sqrt 3| for a ``QSqrt3``."""
    P, d = lattice
    if d is None:
        P, d = [abs(x.a) + 2 * abs(x.b) if isinstance(x, QSqrt3) else x for x in P], 1
    return Fraction(max(map(abs, P), default=0), d)


def scaled_tol(tol, *lattices):
    """tol times the sizes of the lattices an identity is formed from, a
    verdict at every scale of the data; 0 at tol 0 (exact data)."""
    if not tol:
        return 0
    return Fraction(tol) * math.prod(map(lattice_size, lattices))


def times(s, lattice):
    """The lattice of the scalar s times each entry of ``lattice``.

    On a rational lattice (P, d) a rational s is lattice arithmetic, as in
    :func:`lattice_sum`: an ``int`` s gives (s P, d) and a ``Fraction`` a/b
    gives (a P, b d), the lattice the diagonal :func:`bilinear` pass builds
    (a zero product is the integer 0 either way).  Other scalars and
    lattices run that pass.
    """
    P, d = lattice
    if d is not None:
        t = type(s)
        if t is int:
            return [s * p for p in P], d
        if t is Fraction:
            a = s.numerator
            return [a * p for p in P], d * s.denominator
    size = len(P)
    rows = kernel_rows(("times", size), lambda: [[(j, j, 1) for j in range(size)]])
    return bilinear(rows, lift([s]), lattice, size)


def _accumulate(rows, x, y, out):
    for i, xi in enumerate(x):
        if xi != 0:
            for j, o, s in rows[i]:
                yj = y[j]
                if yj != 0:
                    t = xi * yj
                    out[o] = out[o] + t if s > 0 else out[o] - t
    return out


def bilinear(rows, x, y, size):
    """The lattice of  out[o] = sum s x[i] y[j]  over the entries (j, o, s)
    of ``rows[i]``, s = +-1, for lattices x and y of :func:`lift`.

    Each output sums its terms in increasing (i, j), skipping zero factors
    (no term: the integer 0).  Rational operands run in one integer pass;
    others (``Poly``, ``QSqrt3``) run the same loop on their values.
    """
    if x[1] is None or y[1] is None:
        return _accumulate(rows, lower(x), lower(y), [0] * size), None
    return _accumulate(rows, x[0], y[0], [0] * size), x[1] * y[1]

"""Sparse polynomials over Q.

A :class:`Poly` in ``n`` variables maps exponent tuples to nonzero
rational coefficients: an ``int`` where the coefficient is whole, else a
``Fraction``, so products of integral polynomials stay in Python
integers.  It has ``+``, ``-``, ``*``, division by a rational and exact
``==`` (also against ``int`` and ``Fraction``): all that the exact
kernels of :mod:`nk6.exterior`, :mod:`nk6.lie` and :mod:`nk6.smallmat`
ask of a scalar, so a family's parameters run through them as variables
(see :mod:`nk6.certificate`).
"""

from __future__ import annotations

import operator
from fractions import Fraction

_RATIONAL = (int, Fraction)


def _rational(c):
    """c as an ``int`` when it is whole, else as a ``Fraction``."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {e: c if type(c) is int else _rational(c)
                      for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def variables(cls, n):
        return tuple(cls(n, {tuple(int(i == j) for j in range(n)): 1})
                     for i in range(n))

    def _lift(self, other):
        if isinstance(other, _RATIONAL):
            return Poly(self.n, {(0,) * self.n: other})
        if isinstance(other, Poly) and other.n != self.n:
            raise ValueError("polynomials in different variables")
        return other if isinstance(other, Poly) else None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o + -self

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return Poly(self.n, {e: c * other for e, c in self.terms.items()})
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __truediv__(self, q):
        if not isinstance(q, _RATIONAL):
            return NotImplemented
        return self * _rational(1 / Fraction(q))

    def __eq__(self, other):
        if isinstance(other, _RATIONAL) and other == 0:
            return not self.terms
        o = self._lift(other)
        return NotImplemented if o is None else self.terms == o.terms

    __hash__ = None

    def __call__(self, *values):
        """The value at a point, in the arithmetic of ``values``."""
        total = 0
        for e, c in self.terms.items():
            for v, k in zip(values, e):
                c = c * v ** k
            total = total + c
        return total

    def format(self, names):
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(n if k == 1 else f"{n}^{k}"
                            for n, k in zip(names, e) if k)
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"

"""A fixed reference program that measures how fast the host runs right now.

Usage: python bench/reference.py      (exits 0 when its result is right)

The benchmark's host is a few cores of a shared machine.  Its speed drifts by
20-40% over minutes as other tenants load it, and process CPU time drifts
with wall time, so the slowdown is in the instructions themselves, not in
waiting for a core.  A 35-second run cannot average over a drift that lasts
minutes.  So the benchmark starts this program in fresh interpreters at
evenly spaced moments of every run, and reports each time metric scaled to
the host speed at which this program takes ``REFERENCE_SECONDS``:

    scaled = measured * REFERENCE_SECONDS / mean wall time of this program

It does the kind of work nk6 does: a fresh interpreter imports numpy, then
computes exact ``Fraction`` products of forms indexed by sorted tuples, with
the sign of a permutation.  It is independent of nk6, so a change to nk6
moves only the measured time, and its inputs are fixed, so every start does
the same work.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

# the program's median wall time, interpreter start included, on the 2-core
# VM the bounds were measured on, at a quiet time
REFERENCE_SECONDS = 0.25
REPEATS = 8

_N = 6
_PAIRS = list(itertools.combinations(range(_N), 2))
_FORMS = [{p: Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 5 + 1) for j, p in enumerate(_PAIRS)}
          for i in range(3)]
EXPECTED = Fraction(21113, 2160)


def _sign_sorted(idx):
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


def _wedge(a, b):
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            sign, key = _sign_sorted(p + q)
            if sign:
                out[key] = out.get(key, 0) + sign * x * y
    return out


def kernel():
    """Triple wedge products of fixed rational 2-forms on R^6."""
    total = Fraction(0)
    for a, b in itertools.product(_FORMS[:2], repeat=2):
        ab = _wedge(a, b)
        for c in _FORMS:
            total += sum(_wedge(ab, c).values())
    return total


def main():
    import numpy

    values = {kernel() for _ in range(REPEATS)}
    total = numpy.array([float(v) for v in values]).sum()
    return 0 if values == {EXPECTED} and total == float(EXPECTED) else 1


if __name__ == "__main__":
    sys.exit(main())

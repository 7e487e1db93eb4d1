"""Seeded candidate documents with answers known from the mathematics.

Every candidate is a space document for ``nk6 check``: the Lie algebra and
the h/m split of one of the repository's fixtures, with a generated 2-form
and, where noted, a metric.  The expected verdict is decided here, from
facts about the three families, without calling nk6:

- S^3 x S^3, omega = l1 e1^f1 + l2 e2^f2 + l3 e3^f3: nearly Kahler iff
  |l1| = |l2| = |l3|, and then mu = 1/(2 |l| sqrt 3).  psi = d omega / 3 is
  stable iff the quartic  sum l_i^4 - 2 sum_{i<j} l_i^2 l_j^2  is negative;
  the structure is exact iff minus that quartic is a rational square or
  three times one (kappa lies in Q(sqrt 3)), else nk6 falls back to floats.
- Flag manifold, omega(r, s, t) = g(J., .) with g = diag(r, r, s, s, t, t)
  and J = s_p J_p + s_q J_q + s_r J_r: nearly Kahler iff r = s = t and the
  three summand signs are equal.
- CP^3, omega = c (e01 + e23 + f t e45), i.e. g_t = diag(1, 1, 1, 1, t, t)
  scaled by c with fiber sign f: nearly Kahler only at t = 1/2, and there on
  exactly one of the two fiber signs.

A round is a fixed list of candidate kinds (``ROUND``); the seed only picks
the numbers inside each kind, so every round costs about the same and the
share of each kind is the same in every run.  The CP^3 candidates come in
pairs, the two fiber signs at the same t.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from pathlib import Path

SCALES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
          Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)]
CP3_OFF_T = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(1),
             Fraction(3, 2), Fraction(2), Fraction(3)]

# (kind, count, float re-check of each?) in the order a round runs them.
# A round is 20 documents and 2 float re-checks.  14 of the 22 operations
# build and solve a structure, about 100-200 ms (the passing candidates, the
# failing flag builds, the failing CP^3 fiber); the other 8 stop early or run
# in floats, about 10-50 ms, or 50-130 ms for s3-exact-fail.  The median then lies a fifth
# of the way into the slow group and p95 inside its two CP^3 operations,
# never in the gap between groups, where it would jump from run to run.
ROUND = (
    ("s3-nk", 1, True),
    ("s3-nk", 4, False),
    ("s3-exact-fail", 1, True),
    ("s3-float-fallback", 1, False),
    ("s3-unstable", 1, False),
    ("flag-nk", 4, False),
    ("flag-unequal", 3, False),
    ("flag-mixed-signs", 1, False),
    ("cp3-half-pair", 1, False),
    ("cp3-off-half-pair", 1, False),
)


def is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return n * n == q.numerator and d * d == q.denominator


def s3_quartic(lams):
    s = [Fraction(x) ** 2 for x in lams]
    return (s[0] ** 2 + s[1] ** 2 + s[2] ** 2
            - 2 * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2]))


def s3_exact(lams):
    """True when sqrt(-quartic) lies in Q(sqrt 3)."""
    q = -s3_quartic(lams)
    return is_rational_square(q) or is_rational_square(3 * q)


def s3_mu(lam):
    return 1 / (2 * abs(float(lam)) * math.sqrt(3))


def _exact_nonequal_triples(limit=7):
    """(a, a, c), c != a, with c^2 (4 a^2 - c^2) a square or 3 x a square."""
    out = []
    for a in range(1, limit + 1):
        for c in range(1, 2 * a):
            if c != a and s3_exact((a, a, c)):
                out.append((a, a, c))
    return out


EXACT_NONEQUAL = _exact_nonequal_triples()


def load_fixtures(root):
    return {name: json.loads((Path(root) / "fixtures" / f"{name}.json").read_text())
            for name in ("s3xs3", "flag", "cp3")}


def _q(x):
    return str(Fraction(x))


def _sign(x):
    return 1 if x > 0 else -1


def fixture_expectation(name, doc):
    """The facts above applied to a fixture's own exact 2-form.

    The fixtures hold the package's documented nearly Kahler examples, so
    each one satisfies its family's condition and should pass.
    """
    omega = doc["forms"]["omega"]
    if not all(isinstance(v, str) for _, v in omega):
        raise ValueError(f"fixture {name}: expected exact 'p/q' coefficients")
    terms = {tuple(idx): Fraction(v) for idx, v in omega}
    stream = CandidateStream({name: doc}, None)
    if name == "s3xs3":
        lams = [terms.pop((i, 3 + i)) for i in range(3)]
        if terms:
            raise ValueError("fixture s3xs3: omega is not diagonal")
        return stream.s3("fixture", lams)[1]
    m = doc["m_indices"]
    blocks = [terms.pop((m[2 * b], m[2 * b + 1])) for b in range(3)]
    if terms:
        raise ValueError(f"fixture {name}: omega is not block diagonal")
    if name == "flag":
        return stream.flag("fixture", [abs(x) for x in blocks],
                           [_sign(x) for x in blocks])[1]
    base, fiber = blocks[0], blocks[2] / blocks[0]
    if blocks[1] != base:
        raise ValueError("fixture cp3: the two base blocks differ")
    expect = stream.cp3("fixture", abs(fiber), _sign(fiber), abs(base), _sign(base))[1]
    expect.setdefault("pass", True)
    return expect


class CandidateStream:
    """Yields rounds of candidates; round k depends only on (seed, k)."""

    def __init__(self, fixtures, rng):
        self.fixtures = fixtures
        self.rng = rng
        self._off_half = []

    # -- documents ------------------------------------------------------
    def _doc(self, family, omega_terms, metric_diag=None):
        doc = copy.deepcopy(self.fixtures[family])
        doc["forms"] = {"omega": [[list(idx), _q(v)] for idx, v in omega_terms]}
        doc.pop("metric", None)
        if metric_diag is not None:
            doc["metric"] = [[_q(metric_diag[i]) if i == j else "0"
                              for j in range(6)] for i in range(6)]
        return doc

    def s3(self, kind, lams):
        doc = self._doc("s3xs3", [((i, 3 + i), lams[i]) for i in range(3)])
        expect = {"family": "s3xs3", "kind": kind, "lams": [_q(x) for x in lams],
                  "pass": len({abs(Fraction(x)) for x in lams}) == 1}
        if expect["pass"]:
            expect["mu"] = s3_mu(lams[0])
            expect["exact"] = True
        if s3_quartic(lams) >= 0:
            expect["label"] = "NotStable"
        return doc, expect

    def flag(self, kind, rst, signs, metric=True):
        m = self.fixtures["flag"]["m_indices"]
        terms = [((m[2 * b], m[2 * b + 1]), signs[b] * rst[b]) for b in range(3)]
        diag = [rst[0], rst[0], rst[1], rst[1], rst[2], rst[2]]
        doc = self._doc("flag", terms, diag if metric else None)
        ok = len(set(rst)) == 1 and len(set(signs)) == 1
        expect = {"family": "flag", "kind": kind, "rst": [_q(x) for x in rst],
                  "signs": list(signs), "pass": ok}
        if ok:
            expect["exact"] = True
        return doc, expect

    def cp3(self, kind, t, fiber, scale, sign, metric=True):
        m = self.fixtures["cp3"]["m_indices"]
        c = sign * scale
        terms = [((m[0], m[1]), c), ((m[2], m[3]), c), ((m[4], m[5]), c * fiber * t)]
        diag = [scale * x for x in (1, 1, 1, 1, t, t)]
        doc = self._doc("cp3", terms, diag if metric else None)
        expect = {"family": "cp3", "kind": kind, "t": _q(t), "fiber": fiber}
        if t != Fraction(1, 2):
            expect["pass"] = False
        return doc, expect

    # -- kinds ----------------------------------------------------------
    def _signs(self):
        return [self.rng.choice((1, -1)) for _ in range(3)]

    def make(self, kind):
        """Return a list of (doc, expect) for one kind (two for the CP^3 pair)."""
        rng = self.rng
        if kind == "s3-nk":
            lam = rng.choice(SCALES)
            return [self.s3(kind, [s * lam for s in self._signs()])]
        if kind == "s3-exact-fail":
            base = list(rng.choice(EXACT_NONEQUAL))
            rng.shuffle(base)
            lam = rng.choice(SCALES)
            return [self.s3(kind, [s * lam * x for s, x in zip(self._signs(), base)])]
        if kind in ("s3-float-fallback", "s3-unstable"):
            while True:
                base = [rng.randint(1, 9) for _ in range(3)]
                q = s3_quartic(base)
                if kind == "s3-unstable" and q >= 0:
                    break
                if kind == "s3-float-fallback" and q < 0 and not s3_exact(base):
                    break
            lam = rng.choice(SCALES)
            return [self.s3(kind, [s * lam * x for s, x in zip(self._signs(), base)])]
        if kind == "flag-nk":
            lam = rng.choice(SCALES)
            sign = rng.choice((1, -1))
            return [self.flag(kind, [lam] * 3, [sign] * 3)]
        if kind == "flag-unequal":
            while True:
                rst = [rng.choice(SCALES) for _ in range(3)]
                if len(set(rst)) > 1:
                    break
            sign = rng.choice((1, -1))
            return [self.flag(kind, rst, [sign] * 3)]
        if kind == "flag-mixed-signs":
            lam = rng.choice(SCALES)
            signs = [1, 1, -1]
            rng.shuffle(signs)
            if rng.random() < 0.5:
                signs = [-s for s in signs]
            return [self.flag(kind, [lam] * 3, signs, metric=False)]
        if kind == "cp3-half-pair":
            scale, sign = rng.choice(SCALES), rng.choice((1, -1))
            return [self.cp3(kind, Fraction(1, 2), f, scale, sign) for f in (1, -1)]
        if kind == "cp3-off-half-pair":
            # every t in turn, so each run holds the same mix of t values
            if not self._off_half:
                self._off_half = rng.sample(CP3_OFF_T, len(CP3_OFF_T))
            t = self._off_half.pop()
            scale, sign = rng.choice(SCALES), rng.choice((1, -1))
            return [self.cp3(kind, t, f, scale, sign) for f in (1, -1)]
        raise ValueError(kind)

    def next_round(self):
        """One round: a list of (doc, expect, float_recheck)."""
        out = []
        for kind, count, recheck in ROUND:
            for _ in range(count):
                out += [(doc, expect, recheck) for doc, expect in self.make(kind)]
        return out

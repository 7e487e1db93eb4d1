"""JSON interchange format for homogeneous-space data.

A space document carries a Lie algebra by sparse structure constants, the
h/m index split, optional named invariant forms on m and an optional
metric Gram matrix.  Scalars are "p/q" strings or JSON numbers, all exact:
a JSON float is its binary value, and a document holding one is measured
data (``SpaceDocument.tol``).  A whole number is an ``int``, as in the
kernels (:mod:`nk6.scalars`), and any other one a ``Fraction``.  The
schema ships in ``schemas/space.schema.json``; antisymmetry is completed
from the i < j entries and the Jacobi identity is validated on load.
Documents of one algebra share its validated space (:func:`parse_space`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .exterior import KForm
from .lie import LieAlgebraData, ReductiveSpace
from .scalars import parse_rational, tolerance


# g2, the largest algebra of the isotropy table, has dimension 14; the
# dense structure-constant table and the Jacobi check grow as dim^3 and
# faster, so a larger document would stall the load
MAX_DIMENSION = 14


class SpaceFormatError(ValueError):
    """Invalid space document; message carries a JSON-path-style location."""


def _value(v, where):
    """The exact number of a "p/q" string or a JSON number, a JSON float's
    binary value: an ``int`` when whole, else a ``Fraction``."""
    if isinstance(v, str):
        try:
            q = parse_rational(v)
        except (ValueError, ZeroDivisionError) as ex:
            raise SpaceFormatError(f"{where}: bad rational {v!r} ({ex})")
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpaceFormatError(f"{where}: expected number or 'p/q' string")
    elif isinstance(v, int):
        return v
    elif not math.isfinite(v):
        raise SpaceFormatError(f"{where}: non-finite number {v!r}")
    else:
        q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def _is_index(i, dim):
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim


def _index_list(v, dim, where):
    if not isinstance(v, list) or not all(_is_index(i, dim) for i in v):
        raise SpaceFormatError(f"{where}: expected a list of indices in [0, {dim})")
    if len(set(v)) != len(v):
        raise SpaceFormatError(f"{where}: repeated index")
    return list(v)


class SpaceDocument:
    """A validated document, decided at ``tol`` (:func:`scalars.tolerance`)."""

    def __init__(self, dimension, labels, h_indices, m_indices, space,
                 forms, metric, tol):
        self.dimension = dimension
        self.tol = tol
        self.labels = labels
        self.h_indices = h_indices
        self.m_indices = m_indices
        self.space = space                            # the ReductiveSpace
        self.forms = {} if forms is None else forms   # name -> KForm on m
        self.metric = metric                          # Gram on m, or None

    @property
    def constants(self):
        """The dense c[i][j][k] of the validated algebra."""
        return self.space.algebra.c

    def reductive_space(self):
        """The validated ReductiveSpace, shared by the documents of one
        algebra (:func:`parse_space`): read it, never mutate it."""
        return self.space


# the model algebras a long-lived caller checks are few (su(2)+su(2), su(3),
# sp(2)), so a few recently used ones cover it; the capacity is fixed
SPACE_CACHE_SIZE = 8
_SPACES = {}   # validated ReductiveSpaces, the most recently used last


def parse_space(data, tol):
    """Validate a parsed JSON object into a SpaceDocument.

    Documents of one algebra share its validated space, keyed by the JSON
    text of the raw [dimension, basis, structure constants, h, m] and the
    tolerance ``tol`` float constants are validated at, which tells 1, 1.0
    and "1" apart.  Only algebras that pass validation are stored, and raw
    data that did can only pass again: they are not read.
    """
    if not isinstance(data, dict):
        raise SpaceFormatError("$: top level must be an object")
    dim = data.get("dimension")
    if (not isinstance(dim, int) or isinstance(dim, bool)
            or not 1 <= dim <= MAX_DIMENSION):
        raise SpaceFormatError(
            f"$.dimension: expected an integer in [1, {MAX_DIMENSION}]")
    labels = data.get("basis", [f"X{i+1}" for i in range(dim)])
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise SpaceFormatError(f"$.basis: expected a list of {dim} labels")

    triples = data.get("structure_constants", [])
    h_idx, m_idx = data.get("h_indices", []), data.get("m_indices")
    try:
        key = json.dumps([dim, labels, triples, h_idx, m_idx, tol])
    except (TypeError, ValueError):   # not JSON data: rejected below
        key = None
    space = _SPACES.get(key)
    if space is None:
        c, h_idx, m_idx = _algebra(dim, triples, h_idx, m_idx)
    else:
        h_idx, m_idx = list(space.h_idx), list(space.m_idx)
    numbers = [entry[3] for entry in triples]
    m_pos = {g: p for p, g in enumerate(m_idx)}
    nm = len(m_idx)

    raw_forms = data.get("forms") or {}
    if not isinstance(raw_forms, dict):
        raise SpaceFormatError("$.forms: expected an object of named forms")
    forms = {}
    for name, entries in raw_forms.items():
        where = f"$.forms.{name}"
        if not isinstance(entries, list):
            raise SpaceFormatError(f"{where}: expected a list of [indices, value]")
        degree = None
        terms = []
        for pos, entry in enumerate(entries):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], list)):
                raise SpaceFormatError(
                    f"{where}[{pos}]: expected [[i1..ik], value]")
            idx, v = entry
            if degree is None:
                degree = len(idx)
            if len(idx) != degree:
                raise SpaceFormatError(f"{where}[{pos}]: mixed degrees")
            mapped = []
            for g in idx:
                if not _is_index(g, dim) or g not in m_pos:
                    raise SpaceFormatError(
                        f"{where}[{pos}]: index {g!r} is not an m-index")
                mapped.append(m_pos[g])
            if len(set(mapped)) != len(mapped):
                raise SpaceFormatError(f"{where}[{pos}]: repeated index")
            terms.append((tuple(mapped), _value(v, f"{where}[{pos}]")))
            numbers.append(v)
        try:
            forms[name] = KForm.from_terms(nm, degree or 0, terms)
        except ValueError as ex:
            raise SpaceFormatError(f"{where}: {ex}")

    metric = None
    rows = data.get("metric")
    if rows is not None:
        if (not isinstance(rows, list) or len(rows) != nm
                or any(not isinstance(r, list) or len(r) != nm for r in rows)):
            raise SpaceFormatError("$.metric: expected a square m x m matrix")
        metric = [[_value(v, f"$.metric[{i}][{j}]") for j, v in enumerate(row)]
                  for i, row in enumerate(rows)]
        numbers += [v for row in rows for v in row]
        if metric != [list(col) for col in zip(*metric)]:
            raise SpaceFormatError("$.metric: not symmetric")

    if space is None:
        try:
            space = ReductiveSpace(LieAlgebraData(
                c, labels=labels, tol=tolerance(tol, [e[3] for e in triples])),
                h_idx, m_idx)
        except ValueError as ex:
            raise SpaceFormatError(f"$: {ex}")
    _SPACES[key] = _SPACES.pop(key, space)
    if len(_SPACES) > SPACE_CACHE_SIZE:
        del _SPACES[next(iter(_SPACES))]
    return SpaceDocument(dimension=dim, labels=list(labels), h_indices=h_idx,
                         m_indices=m_idx, space=space, forms=forms,
                         metric=metric, tol=tolerance(tol, numbers))


def _algebra(dim, triples, h_idx, m_idx):
    """The structure constants c[i][j][k] and the h/m split, validated."""
    if not isinstance(triples, list):
        raise SpaceFormatError("$.structure_constants: expected a list")
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for pos, entry in enumerate(triples):
        where = f"$.structure_constants[{pos}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise SpaceFormatError(f"{where}: expected [i, j, k, value]")
        i, j, k, v = entry
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_index(idx, dim):
                raise SpaceFormatError(f"{where}.{name}: index out of range")
        if i >= j:
            raise SpaceFormatError(f"{where}: give entries for i < j only")
        if (i, j, k) in seen:
            raise SpaceFormatError(f"{where}: duplicate entry for [{i},{j},{k}]")
        seen.add((i, j, k))
        c[i][j][k] = _value(v, where)
        c[j][i][k] = -c[i][j][k]

    h_idx = _index_list(h_idx, dim, "$.h_indices")
    if m_idx is None:
        m_idx = [i for i in range(dim) if i not in h_idx]
    m_idx = _index_list(m_idx, dim, "$.m_indices")
    if sorted(h_idx + m_idx) != list(range(dim)):
        raise SpaceFormatError("$.h_indices/m_indices: must partition the basis")
    return c, h_idx, m_idx


def load_space(path, tol):
    """Parse and validate a space document from a file path (:func:`parse_space`)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise SpaceFormatError(f"{path}: cannot read ({ex})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as ex:
        raise SpaceFormatError(f"{path}:{ex.lineno}:{ex.colno}: {ex.msg}")
    except (ValueError, RecursionError) as ex:   # an int of too many digits, nesting
        raise SpaceFormatError(f"{path}: {str(ex).split(';')[0]}")
    return parse_space(data, tol)


def _scalar_out(v):
    return str(Fraction(v)) if isinstance(v, (int, Fraction)) else float(v)


def dump_space(space, forms=None, metric=None):
    """Serialize a ReductiveSpace (plus optional forms/metric) to JSON text."""
    algebra = space.algebra
    out = {
        "dimension": algebra.dim,
        "basis": algebra.labels,
        "structure_constants": [[i, j, k, _scalar_out(v)]
                                for i, j, k, v in algebra.nonzero() if i < j],
        "h_indices": list(space.h_idx),
        "m_indices": list(space.m_idx),
    }
    if forms:
        out["forms"] = {name: [[[space.m_idx[i] for i in idx], _scalar_out(v)]
                               for idx, v in form.terms()]
                        for name, form in forms.items()}
    if metric is not None:
        out["metric"] = [[_scalar_out(v) for v in row] for row in metric]
    return json.dumps(out, indent=2)

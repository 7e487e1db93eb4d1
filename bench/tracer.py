"""Span tracing of nk6 layers, installed from outside the package.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` by a
wrapper in every loaded ``nk6`` module namespace that holds it (the module
that defines it and every module that imported it by name), so calls made
inside the package are seen too.  Each call records a span
``(name, start, end, parent)`` in memory; ``dump`` writes them out once,
when the traced process ends.  ``aggregate`` turns spans into call counts
and self time (span time minus the time its child spans cover).

Three counters are kept next to the spans:

- ``hitchin.build_su3.errors``: StructureErrors raised, i.e. wasted builds;
- ``hitchin.build_su3.float_fallbacks``: builds whose inputs were exact
  but whose structure came back in floats;
- ``scalars.QSqrt3.new``: constructions of Q(sqrt 3) scalars.
"""

from __future__ import annotations

import json
import sys
import time

FUNCTIONS = (
    "hitchin.build_su3",
    "hitchin.hitchin_K",
    "hitchin.phi_from",
    "hitchin.nk_check",
    "spaces.build_either_orientation",
    "lie.nomizu_levi_civita",
    "lie.ricci",
    "smallmat.solve",
    "lie.nearly_kahler_residual",
    "lie.is_naturally_reductive",
    "lie.ce_differential",
    "lie.is_invariant",
    "exterior.wedge",
    "exterior.interior",
    "exterior.hodge_star",
    "cone.cone_check",
    "spaces.cp3_verify",
    "spaces.flag_verify",
    "spaces.flag_model",
    "spaces.cp3_model",
    "octonion.s6_structure_at",
    "s3xs3.sweep_nonequal",
    "s3xs3.nk_residual",
    "spacefile.load_space",
)

COUNTERS = (
    "hitchin.build_su3.errors",
    "hitchin.build_su3.float_fallbacks",
    "scalars.QSqrt3.new",
)


def _has_float(form):
    return any(isinstance(c, float) for c in form.c)


class Tracer:
    """Records spans of the nk6 functions in ``FUNCTIONS`` while installed."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------------
    def install(self):
        import nk6.cli  # noqa: F401  -- loads every nk6 module

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nk6" or name.startswith("nk6."))]
        for ident, qualname in enumerate(self.names):
            modname, fname = qualname.split(".")
            original = getattr(sys.modules[f"nk6.{modname}"], fname)
            wrapper = self._span_wrapper(ident, original)
            if qualname == "hitchin.build_su3":
                wrapper = self._build_wrapper(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

        qsqrt3 = sys.modules["nk6.scalars"].QSqrt3
        init = qsqrt3.__init__
        counters = self.counters

        def counting_init(obj, *args, **kwargs):
            counters["scalars.QSqrt3.new"] += 1
            init(obj, *args, **kwargs)

        qsqrt3.__init__ = counting_init
        self._undo.append((qsqrt3, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _span_wrapper(self, ident, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (ident, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build_wrapper(self, spanned):
        structure_error = sys.modules["nk6.hitchin"].StructureError
        counters = self.counters

        def build_su3(cand, *args, **kwargs):
            exact_in = not (_has_float(cand.omega) or _has_float(cand.psi)
                            or _has_float(cand.vol))
            try:
                out = spanned(cand, *args, **kwargs)
            except structure_error:
                counters["hitchin.build_su3.errors"] += 1
                raise
            if exact_in and (isinstance(out.kappa, float) or _has_float(out.omega)):
                counters["hitchin.build_su3.float_fallbacks"] += 1
            return out

        build_su3.__wrapped__ = spanned
        return build_su3

    # ------------------------------------------------------------------
    def dump(self, path):
        """Write the recorded spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh, separators=(",", ":"))


def aggregate(trace, into):
    """Add calls, self time and counters of one dumped trace to ``into``.

    ``into`` is a ``defaultdict(float)`` mapping ``<module>.<function>.calls``,
    ``<module>.<function>.self_ms`` and each counter name to a running total.
    """
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for ident, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for index, (ident, start, end, _) in enumerate(spans):
        into[f"{names[ident]}.calls"] += 1
        into[f"{names[ident]}.self_ms"] += 1000 * ((end - start) - child[index])
    for name, count in trace["counters"].items():
        into[name] += count
    return into

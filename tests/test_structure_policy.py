"""Lint-style guards for the one SU(3) build and its arithmetic.

Every ``SU3Structure`` in ``src/nk6`` comes out of ``hitchin.build_su3``,
which proves each identity the structure carries.  A check at another
scale reads the build and the scaling laws (``cone.cone_check``); it never
assembles a second structure.  So ``SU3Structure(...)`` is called once, in
``build_su3``, and ``build_su3`` once, in ``build_either_orientation``: every
build takes the one orientation rule, -sign(omega^3).  A pair on a Lie
algebra is built and judged by ``hitchin.structure_verdicts`` alone, the one
caller of ``nk_check``; the only other build is a point of S^6
(``octonion.s6_structure_at``), whose link differential is set by hand.

Exact data are decided exactly: the build decides on K = kappa J whatever
kappa is, so no exact form is turned into floats on the way.  Floats enter
only by ``--scalar float``, so ``KForm.to_float()`` is called once, in
``cli._named_form``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nk6"


def calls(source, name):
    """(line, enclosing function) of each call of ``name``, by itself or as
    an attribute (``x.name(...)``)."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == name
                or isinstance(node.func, ast.Attribute) and node.func.attr == name):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def constructions(source):
    """(line, enclosing function) of each call of SU3Structure(...) itself."""
    return calls(source, "SU3Structure")


def _callers(name):
    return [(path.name, function) for path in sorted(SRC.glob("*.py"))
            for _, function in calls(path.read_text(), name)]


def test_su3_structures_are_constructed_only_in_build_su3():
    assert _callers("SU3Structure") == [("hitchin.py", "build_su3")]


def test_build_su3_is_called_only_by_build_either_orientation():
    assert _callers("build_su3") == [("hitchin.py", "build_either_orientation")]


def test_nk_check_is_called_only_by_structure_verdicts():
    assert _callers("nk_check") == [("hitchin.py", "structure_verdicts")]


def test_build_either_orientation_is_called_by_structure_verdicts_and_s6():
    assert _callers("build_either_orientation") == [
        ("hitchin.py", "structure_verdicts"), ("octonion.py", "s6_structure_at")]


def test_floats_enter_only_by_the_scalar_option():
    assert _callers("to_float") == [("cli.py", "_named_form")]


def test_guard_sees_the_forms_it_forbids():
    assert constructions(
        "a = SU3Structure(omega=w)\n"
        "class S:\n"
        "    def scaled(self, c):\n"
        "        return hitchin.SU3Structure(omega=c)\n"
        "b = SU3Structure.__init__\n"
        "def build_su3():\n"
        "    return SU3Structure()\n") == [
            (1, None), (4, "scaled"), (7, "build_su3")]


def test_guard_sees_to_float_calls():
    assert calls(
        "def to_float(self):\n"
        "    return self\n"
        "def build_su3(omega):\n"
        "    o3 = omega.to_float()\n"
        "    return KForm.to_float(o3), to_float\n", "to_float") == [
            (4, "build_su3"), (5, "build_su3")]


def test_guard_sees_build_su3_calls():
    assert calls(
        "s = build_su3(cand)\n"
        "def s6_structure_at(x):\n"
        "    return hitchin.build_su3(SU3Candidate(x, vol))\n"
        "def build_either_orientation(omega, psi):\n"
        "    return build_su3(SU3Candidate(omega, psi, vol))\n", "build_su3") == [
            (1, None), (3, "s6_structure_at"), (5, "build_either_orientation")]


def test_guard_sees_a_second_build_and_judgement():
    source = (
        "def _passes(cert, point):\n"
        "    s, _ = build_either_orientation(om, cert.differential(om) / 3)\n"
        "    return nk_check(s, cert.differential)\n"
        "def _cmd_check(args):\n"
        "    structure, orient = hitchin.build_either_orientation(omega, psi)\n"
        "    nk = hitchin.nk_check(structure, d, tol=tol)\n")
    assert calls(source, "nk_check") == [(3, "_passes"), (6, "_cmd_check")]
    assert calls(source, "build_either_orientation") == [
        (2, "_passes"), (5, "_cmd_check")]

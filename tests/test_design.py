"""Design rules of the package source, read off its syntax tree.

Every attribute of an object is fixed when the object is built: no
module stores an attribute on anything but self or cls, and no module
probes for attributes with hasattr/getattr/setattr/delattr.  Every
named definition is used by the program: its name appears in the
package sources or the benchmark scripts more often than it is
defined, so code that only tests reach does not count as used.  Every
name a module imports is read in that module.  No module imports or
reads another module's underscore name.  Every true division has a
Fraction(...) call as an operand, since coefficients are stored as ints
while they are integral and int / int is a float.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from linfkit.gradedlin import GradedSpace
from linfkit.linfty import LInftyAlgebra

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "linfkit").glob("*.py"))
PROBES = {"hasattr", "getattr", "setattr", "delattr"}


def _nodes():
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_attribute_stored_from_outside():
    sites = [
        "%s:%d" % (name, node.lineno) for name, node in _nodes()
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls"))]
    assert sites == []


def test_no_attribute_probing():
    sites = ["%s:%d" % (name, node.lineno) for name, node in _nodes()
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in PROBES]
    assert sites == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_name_crosses_modules():
    sites = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        # names bound to modules: import m, import m as x, from . import m
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and not node.module):
                modules |= {a.asname or a.name for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                names = [node.attr]
            else:
                continue
            sites += ["%s:%d %s" % (path.name, node.lineno, n)
                      for n in names if _private(n)]
    assert sites == []


def test_every_definition_is_referenced():
    corpus = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")]
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text()
                                                 for p in corpus)))
    defs = [(name, node) for name, node in _nodes()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]
    # a name defined N times must occur more than N times, so that two
    # unused definitions of one name do not count as each other's use
    times = Counter(node.name for _, node in defs)
    dead = ["%s:%d %s" % (name, node.lineno, node.name)
            for name, node in defs if words[node.name] <= times[node.name]]
    assert dead == []


def test_every_import_is_read():
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unread += ["%s:%d %s" % (path.name, node.lineno, name)
                           for name in (a.asname or a.name.split(".")[0]
                                        for a in node.names)
                           if name not in read]
    assert unread == []


def _fraction_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "Fraction"


def test_every_division_is_exact():
    sites = []
    for name, node in _nodes():
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.value,)
        else:
            continue
        if not any(_fraction_call(x) for x in operands):
            sites.append("%s:%d %s" % (name, node.lineno, ast.unparse(node)))
    assert sites == []


def test_algebra_takes_no_undeclared_attribute():
    A = LInftyAlgebra(GradedSpace([("x", 0)]), {})
    with pytest.raises(AttributeError):
        A.check_cap = 0

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
while they are integral and int / int is a float.  Every option, a
parameter with a default, is set by some call in the package sources
or the benchmark scripts.  Every linear system is written by
linfty.solve_map_stage: no other code calls .equation(.
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


# An option (a parameter with a default) that no call in the program sets
# is a constant in disguise.  The README documents handing an interval
# model to whitehead_inverse, so that option stays for library users.
DOCUMENTED_OPTIONS = {("whitehead_inverse", "model")}


def _program_trees():
    for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]:
        yield ast.parse(path.read_text())


def _callable_defs(tree):
    """(name a call uses, definition, leading parameters a call does not
    pass) for every function in the tree: a method skips self or cls, and
    a class name stands for its __init__."""
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in fn.decorator_list)
                name = cls.name if fn.name == "__init__" else fn.name
                yield name, fn, 0 if static else 1
    methods = {id(fn) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and id(fn) not in methods:
            yield fn.name, fn, 0


def _callee(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _call_sites(tree):
    """(callee name, number of positional arguments before any starred
    one, keyword names, whether a starred argument passes the remaining
    positions, whether **kwargs passes any keyword) for every call;
    attempt(name, fn, ...) is a call of fn, and cls(...) inside a class
    is a call of that class."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, ast.ClassDef)
                  else cls)
        if not isinstance(node, ast.Call):
            return
        name, args = _callee(node.func), node.args
        if name == "attempt" and len(args) >= 2:
            name, args = _callee(args[1]), args[2:]
        if name == "cls" and cls:
            name = cls
        starred = [i for i, a in enumerate(args)
                   if isinstance(a, ast.Starred)]
        sites.append((name, starred[0] if starred else len(args),
                      {k.arg for k in node.keywords if k.arg},
                      bool(starred),
                      any(k.arg is None for k in node.keywords)))
    sites = []
    visit(tree, None)
    return sites


def test_every_option_is_set_by_the_program():
    trees = list(_program_trees())
    sites = [s for t in trees for s in _call_sites(t)]
    unset = []
    for tree in trees[:len(MODULES)]:
        for name, fn, skip in _callable_defs(tree):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            options = params[len(params) - len(fn.args.defaults):] \
                if fn.args.defaults else []
            options += [a.arg for a, d in zip(fn.args.kwonlyargs,
                                              fn.args.kw_defaults)
                        if d is not None]
            for opt in options:
                pos = params.index(opt) - skip if opt in params else None
                if (name, opt) in DOCUMENTED_OPTIONS or any(
                        callee == name and (
                            opt in kws or rest_kw
                            or (pos is not None and 0 <= pos
                                and (pos < npos or rest_pos)))
                        for callee, npos, kws, rest_pos, rest_kw in sites):
                    continue
                unset.append("%s(%s)" % (name, opt))
    assert unset == []


# the calls that write a linear system, and the one function that may
# make them
WRITERS = {"equation"}
WRITER = ("linfty.py", "solve_map_stage")


def test_only_the_stage_solver_writes_systems():
    sites = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) \
                    and (path.name, top.name) == WRITER:
                continue
            sites += ["%s:%d %s" % (path.name, node.lineno,
                                    _callee(node.func))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and _callee(node.func) in WRITERS]
    assert sites == []

"""The runtime package imports nothing outside the standard library (and
not dataclasses), one module of it writes JSON, one class writes each of
immutability, equality and field-element coercion, only the fields module
builds field elements past their classes' constructors, every public
function and class has a caller in the package, and every parameter of
every function is read."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import torsion13
from torsion13 import fields

SOURCES = sorted(pathlib.Path(torsion13.__file__).parent.glob("*.py"))

ELEMENT_CLASSES = {name for name, obj in vars(fields).items()
                   if isinstance(obj, type) and issubclass(obj, fields.FieldElement)}


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside


def test_only_reports_imports_json():
    """One module writes the wire format."""
    importers = {path.name for path in SOURCES for name in absolute_imports(path)
                 if name.partition(".")[0] == "json"}
    assert importers == {"reports.py"}


def test_no_class_writes_its_own_json():
    own = [(path.name, node.name) for path in SOURCES
           for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
           if isinstance(node, ast.ClassDef)
           and any(isinstance(item, ast.FunctionDef) and item.name == "to_json"
                   for item in node.body)]
    assert not own


def classes_defining(name):
    """Names of the classes whose body defines name, as a method or an assignment."""
    return {node.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == name
                    or isinstance(item, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == name for t in item.targets)
                    for item in node.body)}


def test_value_semantics_are_written_once():
    """Value writes immutability, == and hash; FieldElement alone redefines ==
    (and so restores hash), and alone coerces operands."""
    assert classes_defining("__setattr__") == {"Value"}
    assert classes_defining("__eq__") == {"Value", "FieldElement"}
    assert classes_defining("__hash__") == {"Value", "FieldElement"}
    assert classes_defining("_coerce") == {"FieldElement"}


def test_only_field_element_derives_subtraction_division_and_powers():
    """An element kind defines +, *, unary - and inverse(); FieldElement alone
    derives -, / (with an operand on either side) and ** from them."""
    for name in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__pow__"):
        assert classes_defining(name) & ELEMENT_CLASSES == {"FieldElement"}


def test_no_module_imports_dataclasses():
    """Record writes the plain records; dataclasses would bring inspect and ast to start-up."""
    importers = {path.name for path in SOURCES for name in absolute_imports(path)
                 if name.partition(".")[0] == "dataclasses"}
    assert not importers


def test_importing_the_cli_loads_no_introspection_modules():
    """A fresh interpreter that imports torsion13.cli adds none of the heavy
    introspection modules that dataclasses pulls in."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys; before = set(sys.modules); import torsion13.cli; "
            f"print(sorted(set(sys.modules) - before & set({heavy!r})))")
    src = str(pathlib.Path(torsion13.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def identifier(node):
    """What a Name, an Attribute or an imported alias names; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_only_fields_builds_elements_past_their_constructors():
    """No module but fields names _element or calls __new__ on an element
    class, so counting calls of fields._element counts every Q(theta) element."""
    assert "NumberFieldElement" in ELEMENT_CLASSES
    found = [(path.name, node.lineno) for path in SOURCES if path.name != "fields.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if identifier(node) == "_element"
             or isinstance(node, ast.Call) and identifier(node.func) == "__new__"
             and identifier(node.args[0] if node.args else None) in ELEMENT_CLASSES]
    assert not found


# a target of bench/tracing.py, which ROADMAP item 1 must retire before it can go
UNCALLED_PUBLIC_NAMES = {"poly_ext_gcd"}


def test_every_public_function_and_class_is_used_in_the_package():
    """Each public module-level function and class is named by some module
    outside its own definition; __init__'s re-exports do not count."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES if path.name != "__init__.py"]

    def names(node):
        return Counter(identifier(n) for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))
    everywhere = sum(map(names, trees), Counter())
    unused = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and everywhere[node.name] == names(node)[node.name]}
    assert unused == UNCALLED_PUBLIC_NAMES


def test_every_parameter_is_read():
    """Each parameter of each function and lambda is read in its body.
    Dunder protocol methods, whose signatures the protocol fixes, and
    parameters named with a leading _ are exempt."""
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                name, body = node.name, node.body
            elif isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            else:
                continue
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if arg is not None]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.name, name, param) for param in params
                       if not param.startswith("_") and param not in read]
    assert not unread

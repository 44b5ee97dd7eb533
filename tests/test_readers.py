"""Every function and class of the package has a reader in the package,
and every name a package module imports is read in that module.

A definition counts as read when its name appears as a name or an
attribute anywhere in src/crystalfold outside its own definition, so a
helper that only the tests call fails here and belongs in the tests.
Dunder methods are read by the language, not by name.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "crystalfold")

EXEMPT = {
    # click commands, read through the group's decorator
    "build", "verify", "branch", "rmatrix", "energy",
    # library entry points that the benchmark calls
    "verify_tensor_compatibility", "verify_yang_baxter",
}


def _definitions_and_readers():
    defined, read = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(PACKAGE, name)).read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name, set(ast.walk(node))))
            elif isinstance(node, ast.Name):
                read.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                read.append((node.attr, node))
    return defined, read


def test_every_definition_has_a_reader_in_the_package():
    defined, read = _definitions_and_readers()
    unread = []
    for module, name, inside in defined:
        if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
            continue
        if not any(word == name and node not in inside for word, node in read):
            unread.append("%s:%s" % (module, name))
    assert unread == []


def test_every_import_is_read_in_its_module():
    unread = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(PACKAGE, name)).read())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread.extend("%s:%s" % (name, word) for word in imported if word not in read)
    assert unread == []

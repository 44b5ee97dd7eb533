"""Every function and class of the package has a reader in the package,
every name a package module imports is read in that module, and no
package code changes a crystal's map lists in place.

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


MUTATORS = {"append", "extend", "insert", "pop", "remove", "reverse", "sort", "clear",
            "__setitem__", "__delitem__"}


def _is_maps(node):
    """node reads a crystal's lowering or raising maps: x.f or x.e."""
    return isinstance(node, ast.Attribute) and node.attr in ("f", "e")


def _is_row(node, aliases):
    """node reads one color's map: x.f[j], x.e[j], or a name bound to one."""
    return ((isinstance(node, ast.Subscript) and _is_maps(node.value))
            or (isinstance(node, ast.Name) and node.id in aliases))


def _map_stores(func):
    """Every store into a map list inside func, as (line, kind).

    A store into an element of one color's map (x.f[j][k] = ..., also
    through a name bound to x.f[j], and del, augmented assignment or a
    mutating method call) is a change in place. Replacing a whole color
    slot (x.f[j] = row, on the fresh list of a twin) is counted apart, and
    only with_color may do it.
    """
    aliases = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                aliases.update(t.id for t, v in pairs
                               if isinstance(t, ast.Name) and _is_row(v, ()))
    out = []
    for node in ast.walk(func):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS
              and (_is_row(node.func.value, aliases) or _is_maps(node.func.value))):
            out.append((node.lineno, "element"))
        for target in targets:
            for leaf in (target.elts if isinstance(target, ast.Tuple) else [target]):
                if isinstance(node, ast.AugAssign) and _is_row(leaf, aliases):
                    out.append((leaf.lineno, "element"))  # row += ... extends the row
                elif isinstance(leaf, ast.Subscript) and _is_row(leaf.value, aliases):
                    out.append((leaf.lineno, "element"))
                elif isinstance(leaf, ast.Subscript) and _is_maps(leaf.value):
                    out.append((leaf.lineno, "slot"))
    return out


def test_no_map_list_is_changed_in_place():
    # a crystal's per-color records (walked strings, axiom passes, Weyl
    # rows) and kept component labellings hold only while its map lists
    # stay as they are; with_color gives a twin a fresh list of rows and
    # replaces one whole row there
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(PACKAGE, name)).read())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found.extend("%s:%d %s" % (name, line, kind)
                             for line, kind in _map_stores(func)
                             if not (kind == "slot" and func.name == "with_color"))
    assert found == []


def test_the_map_store_check_sees_each_kind_of_store():
    source = """
def with_color(self, j, row):
    twin.f[j] = row
def other(crys, j, k):
    crys.f[j][k] = -1
    crys.e[j][k] += 1
    del crys.f[j][k]
    crys.e[j].append(-1)
    crys.f[j] = []
    crys.f.append([])
    f, e = crys.f[j], crys.e[j]
    f[k] = e[k] = -1
    row = crys.f[j]
    row.sort()
    row += [-1]
    crys.f[j] += [-1]
def fine(crys, j):
    f = []
    f.append(list(crys.f[j]))
    f[0] = -1
    crys.f = [list(row) for row in crys.f]
"""
    tree = ast.parse(source)
    funcs = {func.name: func for func in tree.body}
    assert _map_stores(funcs["with_color"]) == [(3, "slot")]
    assert sorted(_map_stores(funcs["other"])) == [
        (5, "element"), (6, "element"), (7, "element"), (8, "element"), (9, "slot"),
        (10, "element"), (12, "element"), (12, "element"), (14, "element"), (15, "element"),
        (16, "element")]
    assert _map_stores(funcs["fine"]) == []

"""Every lru_cache in the package is one the benchmark clears.

perfbench/run.py clears, before each request, every cache that its
Bench._discover_caches finds, so that each request pays its own cache
fills as a CLI invocation does. A cache it missed would carry results from
one request to the next and flatter the timings. The caches are listed
here from the source, independently of the runner's discovery.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "crystalfold")
CACHE_DECORATORS = {"lru_cache", "cache"}


def _is_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in CACHE_DECORATORS
    return isinstance(decorator, ast.Name) and decorator.id in CACHE_DECORATORS


def _cached_functions(tree, module):
    """module.qualname of every function under a cache decorator."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(map(_is_cache, child.decorator_list)):
                    found.append("%s.%s" % (module, name))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _source_caches():
    found = []
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            found += _cached_functions(tree, fname[:-3])
    return found


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_source_scan_sees_decorated_functions():
    tree = ast.parse(
        "from functools import lru_cache\n"
        "import functools\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@functools.cache\ndef b(x): pass\n"
        "class C:\n    @staticmethod\n    @lru_cache\n    def c(x): pass\n"
        "def d():\n    @lru_cache\n    def e(x): pass\n"
        "def plain(x): pass\n")
    assert _cached_functions(tree, "m") == ["m.a", "m.b", "m.C.c", "m.d.<locals>.e"]


def test_benchmark_clears_every_package_cache():
    source = _source_caches()
    assert "monomial.weight_multiset" in source
    discovered = _load_runner().Bench({}).caches
    assert sorted(set(source) - set(discovered)) == []

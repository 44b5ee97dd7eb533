"""Importing the CLI loads the standard library and the package only, and
no module that its arithmetic does not need.

The command line is built on argparse, so the package has no runtime
dependency. The package computes in plain ints: fractions, and decimal,
which fractions imports, would add about 4 ms to the start of every fresh
interpreter that serves one CLI call.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the modules loaded after the import, and those the import added: site
# may load third-party modules before it
PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import crystalfold.cli
print(json.dumps([sorted(sys.modules), sorted(set(sys.modules) - before)]))
"""


def _cli_import():
    done = subprocess.run([sys.executable, "-c", PROBE, SRC],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_neither_fractions_nor_decimal():
    loaded, _ = _cli_import()
    assert {"fractions", "decimal"} & set(loaded) == set()


def test_cli_import_adds_only_the_standard_library_and_the_package():
    _, added = _cli_import()
    assert "crystalfold.cli" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in sys.stdlib_module_names | {"crystalfold"}]
    assert foreign == []

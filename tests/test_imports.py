"""Importing the CLI loads no module that its arithmetic does not need.

The package computes in plain ints. fractions, and decimal, which fractions
imports, would add about 4 ms to the start of every fresh interpreter that
serves one CLI call.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import crystalfold.cli
print(" ".join(sorted({"fractions", "decimal"} & set(sys.modules))))
"""


def test_cli_import_loads_neither_fractions_nor_decimal():
    done = subprocess.run([sys.executable, "-c", PROBE, SRC],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""

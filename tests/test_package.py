"""The package surface: every public name resolves from a star import, and
the runtime imports nothing outside the standard library."""
import os
import subprocess
import sys

import thetadissect

# imports the package and the CLI, runs one catalog entry in JSON with stdout
# captured, then prints every top-level module name outside the standard
# library
_STDLIB_ONLY_SCRIPT = """
import contextlib, io, sys
import thetadissect
from thetadissect.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["catalog", "entry9b", "--degree", "8", "--format", "json"])
names = {name.partition(".")[0] for name in sys.modules}
print(code, " ".join(sorted(names - set(sys.stdlib_module_names))))
"""


def test_star_import_resolves_every_name_in_all():
    namespace = {}
    exec("from thetadissect import *", namespace)  # AttributeError on a stale name
    assert set(thetadissect.__all__) <= namespace.keys()
    assert len(set(thetadissect.__all__)) == len(thetadissect.__all__)


def test_runtime_imports_only_the_standard_library():
    # -S leaves out site, so no site-packages path and nothing it imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetadissect.__file__)))
    result = subprocess.run([sys.executable, "-S", "-c", _STDLIB_ONLY_SCRIPT],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "__main__", "thetadissect"]

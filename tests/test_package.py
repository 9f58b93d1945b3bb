"""The package surface: every public name resolves from a star import, every
name the benchmark's spans wrap resolves, and the runtime imports nothing
outside the standard library. The benchmark's oracles, the tests'
references, import nothing from the package."""
import os
import subprocess
import sys

import spans
import thetadissect
from conftest import ORACLES_DIR

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


# imports the CLI and prints the loaded modules among those that dataclasses
# and json brought in
_IMPORT_SCRIPT = """
import sys
import thetadissect.cli
print(" ".join(name for name in ("dataclasses", "inspect", "ast", "dis", "json", "typing")
               if name in sys.modules))
"""


# imports the oracles and prints every loaded module of the package
_ORACLES_ALONE_SCRIPT = """
import sys
import oracles
print(" ".join(name for name in sys.modules if name.partition(".")[0] == "thetadissect"))
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


def test_the_cli_loads_no_dataclasses_json_or_typing():
    # each is a module (dataclasses brings inspect, ast and dis) that every
    # CLI call would pay to import; -S leaves out site, which may import them itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetadissect.__file__)))
    result = subprocess.run([sys.executable, "-S", "-c", _IMPORT_SCRIPT],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


def test_oracles_import_nothing_from_the_engine():
    # the references stay independent of the engine only while the oracles
    # load none of it, though the package is on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetadissect.__file__)))
    result = subprocess.run([sys.executable, "-S", "-c", _ORACLES_ALONE_SCRIPT],
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join((ORACLES_DIR, src))),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


def test_every_name_the_benchmark_wraps_is_callable():
    # perfbench/spans.py wraps these in the traced run, so deleting or
    # renaming one fails here and not only in the benchmark's smoke run
    names = [pair for _, pairs, _ in spans.TARGETS for pair in pairs]
    assert names
    for owner, attribute in names:
        assert callable(getattr(owner, attribute, None)), (owner.__name__, attribute)

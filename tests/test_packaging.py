import os
import subprocess
import sys
from pathlib import Path

import fbsdefilter

IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fbsdefilter
for info in pkgutil.iter_modules(fbsdefilter.__path__):
    importlib.import_module("fbsdefilter." + info.name)
"""


def test_every_module_imports_without_scipy():
    # scipy is a test-only dependency; the package itself needs numpy alone
    src = str(Path(fbsdefilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

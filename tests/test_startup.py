"""Cold start: scipy is imported only by the commands that factor a matrix.

Each case runs in a fresh interpreter, because the test process itself
has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magnitude

SRC = str(Path(magnitude.__file__).resolve().parent.parent)

PROBE = r"""
import contextlib, io, json, sys
argv = sys.argv[1:]
code = None
if argv:
    from magnitude import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
else:
    import magnitude
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules,
                  "linalg": "scipy.linalg" in sys.modules}))
"""


def probe(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("argv", [
    (),
    ("pixel", "--ascii", r"##\n#."),
    ("diversity", "--points-1d", "0,1,3"),
    ("dim", "--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    ("oracle", "--ball", "3,1"),
], ids=["import", "pixel", "diversity", "dim", "oracle"])
def test_command_without_a_solve_does_not_import_scipy(argv):
    rep = probe(*argv)
    assert rep["code"] in (None, 0)
    assert rep["scipy"] is False


def test_dense_solve_imports_scipy_linalg():
    # the probe can see the import, so the cases above are not vacuous
    rep = probe("mag", "--points-1d", "0,1")
    assert rep["code"] == 0
    assert rep["linalg"] is True

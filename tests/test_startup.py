"""Cold start: each command imports only the modules it computes with.

The package import and the exact commands (pixel, the Euclidean oracles)
load no numpy, and no command loads scipy: the dense solves run on numpy
alone. Each case runs in a fresh interpreter, because the test process
itself has long since imported numpy and scipy.
"""

import importlib
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
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "scipy": "scipy" in sys.modules}))
"""


def probe(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def box_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pixels") / "box.txt"
    path.write_text("dim 3 scale 1/1\n0 0 0\n0 0 1\n0 1 0\n1 0 0\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    (),
    ("pixel", "--ascii", r"##\n#.", "--intrinsic"),
    ("pixel", "--ascii", r"##\n#.", "--weights"),
    ("pixel", "--ascii", r"##\n#.", "--convexity"),
    ("pixel", "--bounds", "--body-simplex", "0,0;1,0;0,1", "--scale", "1/4"),
    ("pixel", "--pixel-file", None),
    ("oracle", "--ball", "5,1"),
    ("oracle", "--sphere", "2,1"),
    ("oracle", "--leading", "3,1"),
], ids=["import", "intrinsic", "weights", "convexity", "bounds", "pixel-file",
        "ball", "sphere", "leading"])
def test_exact_command_does_not_import_numpy(argv, box_file):
    rep = probe(*(box_file if a is None else a for a in argv))
    assert rep["code"] in (None, 0)
    assert rep["numpy"] is False


@pytest.mark.parametrize("argv", [
    (),
    ("pixel", "--ascii", r"##\n#."),
    ("diversity", "--points-1d", "0,1,3"),
    ("diversity", "--graph", "k32"),
    ("dim", "--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    ("oracle", "--ball", "3,1"),
], ids=["import", "pixel", "diversity", "graph", "dim", "oracle"])
def test_command_without_a_solve_does_not_import_scipy(argv):
    rep = probe(*argv)
    assert rep["code"] in (None, 0)
    assert rep["scipy"] is False


@pytest.mark.parametrize("argv", [
    ("mag", "--points-1d", "0,1"),
    ("magfn", "--graph", "k32", "--tmin", "0.3", "--tmax", "0.4",
     "--steps", "3"),
    ("weights", "--ball", "3,1,20", "--seed", "1"),
    ("check", "--graph", "k32", "--t", "0.1"),
    ("approx", "--ball", "3,1", "--ball-counts", "5,10", "--seed", "2"),
], ids=["mag", "magfn", "weights", "check", "approx"])
def test_solving_command_loads_numpy_not_scipy(argv):
    # numpy shows up, so the probe sees imports and the check is not vacuous
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["numpy"] is True
    assert rep["scipy"] is False


@pytest.mark.parametrize("name", magnitude.__all__)
def test_every_export_is_its_home_modules_object(name):
    value = getattr(magnitude, name)
    if name == "__version__":
        return
    home = importlib.import_module(
        f"magnitude.{magnitude._EXPORTS[name]}")
    assert value is getattr(home, name)

"""Cold start: each command imports only the modules it computes with.

The package import, the exact commands (pixel, the Euclidean oracles),
the commands that the line rung solves (mag, weights, magfn, diversity,
dim and approx on a space of a line kind), check on such a space, which
the theorem answers, and diversity and dim --method diversity_growth
on a graph that the support search takes load no numpy, and
no command loads scipy or numpy.ma: the dense solves run on numpy alone.
No command loads numpy.random or OpenSSL (hashlib's _hashlib) either:
ball samples draw from the standard library's random.Random, and digests
use CPython's builtin SHA-256. No command loads dataclasses, and the exact
commands not inspect. Each case runs in a fresh interpreter, because the
test process itself has long since imported numpy and scipy.

The package holds only code something runs: every module-level function
and class is reached from the command line or is a named library entry
point. The references the tests check against live in tests/oracles.py.
"""

import ast
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
                  "scipy": "scipy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "numpy.random": "numpy.random" in sys.modules,
                  "_hashlib": "_hashlib" in sys.modules,
                  "fractions": "fractions" in sys.modules,
                  "decimal": "decimal" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules,
                  "pixels": "magnitude.pixels" in sys.modules,
                  "euclid": "magnitude.euclid" in sys.modules}))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe(*argv, stdin=""):
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=_env(),
                         input=stdin, capture_output=True, text=True,
                         timeout=120, check=True).stdout
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
    # the residual where e^(-pi R) underflows, formed in logs
    ("oracle", "--sphere", "4,1e50"),
    ("oracle", "--conjecture", "3,1"),
    ("oracle", "--leading", "3,1"),
    ("oracle", "--points", "0,1,3"),
    ("oracle", "--interval", "0,2"),
    ("oracle", "--compact", "0,1;2,3"),
    ("oracle", "--cantor"),
], ids=["import", "intrinsic", "weights", "convexity", "bounds", "pixel-file",
        "ball", "sphere", "residual", "conjecture", "leading", "points",
        "interval", "compact", "cantor"])
def test_exact_command_does_not_import_numpy(argv, box_file):
    rep = probe(*(box_file if a is None else a for a in argv))
    assert rep["code"] in (None, 0)
    assert rep["numpy"] is False
    # its records are NamedTuples, so nothing loads inspect (numpy would)
    assert rep["inspect"] is False


@pytest.mark.parametrize("argv, other", [
    (("oracle", "--ball", "15,1e-300"), "pixels"),
    (("oracle", "--ball", "5,1"), "pixels"),
    (("pixel", "--body-box", "1,2,3", "--scale", "1/2"), "euclid"),
    (("pixel", "--body-simplex", "0,0;1,0;0,1", "--bounds"), "euclid"),
    (("pixel", "--body-vertices", "0,0;2,0;2,1;0,1", "--bounds"), "euclid"),
], ids=["ball-15", "ball-5", "body-box", "body-simplex", "body-vertices"])
def test_exact_modules_share_only_the_elimination(argv, other):
    # the ball forms and the facet normals both run on bareiss, and
    # neither module loads the other (nor numpy)
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["numpy"] is False
    assert rep[other] is False


LINE_SOURCES = {
    "points": ("--points-1d", "0,1,3"),
    "grid": ("--grid", "11"),
    "cantor": ("--cantor-depth", "3"),
    "spec": ("--spec", '{"kind": "lp_grid", "params": {"shape": [4], "p": 1}}'),
}
LINE_COMMANDS = {
    "mag": ("mag",),
    "weights": ("weights",),
    "magfn": ("magfn", "--tmin", "1", "--tmax", "5", "--steps", "3", "--log"),
    "diversity": ("diversity",),
    "exact": ("diversity", "--exact"),
    "dim": ("dim", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    "check": ("check",),
}


@pytest.mark.parametrize("argv", [
    *((*cmd, *src) for cmd in LINE_COMMANDS.values()
      for src in LINE_SOURCES.values()),
    ("approx", "--grid-sizes", "11,21"),
    ("approx", "--cantor-depths", "1,3"),
    # a grid with one entry above 1 is a line too
    ("mag", "--grid", "3x1", "--spacing", "1e-300", "--p", "1", "--t", "1"),
    ("mag", "--grid", "1x3", "--spacing", "1e-300", "--p", "2", "--t", "1"),
], ids=[*(f"{c}-{s}" for c in LINE_COMMANDS for s in LINE_SOURCES),
        "approx-grid", "approx-cantor", "mag-grid-3x1", "mag-grid-1x3"])
def test_line_command_does_not_import_numpy(argv):
    # a space of a line kind, from a flag or a --spec, is solved by the
    # line rung, and check answers it from the theorem, both pure Python
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["numpy"] is False


@pytest.mark.parametrize("argv", [
    ("diversity", "--graph", "k32"),
    ("diversity", "--graph", "k3,3", "--exact"),
    ("diversity", "--graph", "k7,8", "--exact", "--t", "0.3"),
    ("diversity", "--spec", '{"kind": "graph_shortest_path", "params": '
                            '{"edges": [[0, 1], [1, 2], [2, 0], [2, 3]]}}'),
    ("dim", "--graph", "c6", "--tmin", "1", "--tmax", "100", "--samples", "6"),
], ids=["graph", "exact", "exact-15", "spec", "dim"])
def test_small_graph_diversity_does_not_import_numpy(argv):
    # a graph within supports.SEARCH_LIMIT, or EXACT_LIMIT with --exact,
    # is searched from specs.graph_rows, in pure Python, at each scale of
    # a growth fit too
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["numpy"] is False


@pytest.mark.parametrize("argv", [
    ("mag", "--points-1d", "0,1"),
    ("magfn", "--graph", "k32", "--tmin", "0.3", "--tmax", "0.4",
     "--steps", "3"),
    ("weights", "--points-1d", "0,1"),
    ("check", "--graph", "k32", "--t", "0.1"),
    ("diversity", "--points-1d", "0,1,3", "--exact"),
    ("dim", "--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    ("pixel", "--body-box", "1,2"),
    ("oracle", "--points", "0,1"),
    ("approx", "--cantor-depths", "1,2"),
], ids=["mag", "magfn", "weights", "check", "diversity", "dim", "pixel",
        "oracle", "approx"])
def test_no_command_loads_dataclasses(argv):
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["dataclasses"] is False


@pytest.mark.parametrize("argv", [
    (),
    ("pixel", "--ascii", r"##\n#."),
    ("diversity", "--grid", "3x3"),
    # a graph above supports.SEARCH_LIMIT, whose solve loads numpy
    ("diversity", "--graph", "c24"),
    ("dim", "--grid", "4x4", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    ("oracle", "--ball", "3,1"),
], ids=["import", "pixel", "diversity", "graph", "dim", "oracle"])
def test_command_without_a_solve_does_not_import_scipy(argv):
    rep = probe(*argv)
    assert rep["code"] in (None, 0)
    assert rep["scipy"] is False
    assert rep["numpy.ma"] is False


@pytest.mark.parametrize("argv", [
    ("mag", "--ball", "3,1,20", "--seed", "1"),
    ("magfn", "--graph", "k32", "--tmin", "0.3", "--tmax", "0.4",
     "--steps", "3"),
    ("weights", "--ball", "3,1,20", "--seed", "1"),
    ("check", "--graph", "k32", "--t", "0.1"),
    ("approx", "--ball", "3,1", "--ball-counts", "5,10", "--seed", "2"),
    ("mag", "--graph", "c6"),
    # covering numbers are counted with numpy, on any space
    ("dim", "--graph", "c6", "--tmin", "1", "--tmax", "100",
     "--samples", "6", "--method", "covering_growth"),
], ids=["mag", "magfn", "weights", "check", "approx", "cantor", "dim-cantor"])
def test_solving_command_loads_numpy_not_scipy(argv):
    # numpy shows up, so the probe sees imports and the check is not vacuous;
    # numpy.ma stays out too (np.unique would load it)
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["numpy"] is True
    assert rep["scipy"] is False
    assert rep["numpy.ma"] is False


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "k2.csv"
    path.write_text("0,1\n1,0\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ("mag", "--graph", "c5"),
    ("mag", "--matrix", None),
    ("magfn", "--ball", "3,1,20", "--seed", "1", "--tmin", "1", "--tmax",
     "2", "--steps", "3"),
    ("weights", "--ball", "3,1,20", "--seed", "1"),
    ("check", "--ball", "3,1,30", "--seed", "1"),
    ("check", "--stdin-matrix"),
    ("diversity", "--ball", "3,1,10", "--seed", "1"),
    ("dim", "--grid", "4x4", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
    ("pixel", "--ascii", r"##\n#."),
    ("oracle", "--points", "0,1"),
    ("approx", "--ball", "3,1", "--ball-counts", "5,10", "--seed", "2"),
], ids=["mag", "mag-matrix", "magfn-ball", "weights-ball", "check-ball",
        "check-stdin", "diversity-ball", "dim", "pixel", "oracle",
        "approx-ball"])
def test_no_command_loads_numpy_random_or_openssl(argv, matrix_file):
    rep = probe(*(matrix_file if a is None else a for a in argv),
                stdin="0,2\n2,0\n")
    assert rep["code"] == 0
    assert rep["numpy.random"] is False
    assert rep["_hashlib"] is False


def test_cli_import_loads_no_fractions():
    # import magnitude.cli is what the benchmark's set-up times: only the
    # exact commands pay for fractions (and the decimal module it loads)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, magnitude.cli; "
         "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        env=_env(), capture_output=True, text=True, timeout=120,
        check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("mag", "--graph", "c5"),
    ("diversity", "--graph", "k32"),
], ids=["mag", "diversity"])
def test_float_command_loads_no_fractions(argv):
    rep = probe(*argv)
    assert rep["code"] == 0
    assert rep["fractions"] is False
    assert rep["decimal"] is False


@pytest.mark.parametrize("argv, key, want", [
    (("pixel", "--ascii", r"#.\n##"), "magnitude", "15/4"),
    (("oracle", "--ball", "3,1"), "magnitude_exact", "25/6"),
])
def test_exact_command_still_prints_rationals(argv, key, want):
    proc = subprocess.run([sys.executable, "-m", "magnitude", *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"][key] == want


@pytest.mark.parametrize("name", magnitude.__all__)
def test_every_export_is_its_home_modules_object(name):
    value = getattr(magnitude, name)
    if name == "__version__":
        return
    home = importlib.import_module(
        f"magnitude.{magnitude._EXPORTS[name]}")
    assert value is getattr(home, name)


# ---------------------------------------------------------------------------
# the package holds what a command runs

PACKAGE = Path(magnitude.__file__).resolve().parent

# (module, name) roots besides the CLI and the __init__ re-exports: the
# README Quick start calls these through their modules (the names it
# imports from magnitude are re-exports)
README_QUICK_START = (
    ("lines", "line_magnitude"),
    ("pixels", "parse_ascii"), ("pixels", "weight_measure"),
    ("pixels", "steiner_polynomial"), ("pixels", "is_l1_convex"),
    ("pixels", "build_body"), ("pixels", "ConvexBodySpec"),
    ("pixels", "body_magnitude_bounds"),
)
# perfbench/run.py records magnitude.backend_name() with every run,
# perfbench/checks.py checks the line rung's weights against
# lines.line_weighting, and perfbench/layers.py's hook on max_diversity
# tests for diversity.NonConvergence, which no rung raises, so all three
# stay until the benchmark stops using them
BENCHMARK_RECORDS = (("diversity", "backend_name"), ("lines", "line_weighting"),
                     ("diversity", "NonConvergence"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _package_names(package):
    """(tops, resolve, node) for the package's modules.

    tops maps each module to its top-level functions, classes and
    assignments. resolve takes (module, name) to the (module, name) of
    the top-level def or assignment it denotes, following imports from
    within the package (at any depth of the module) through re-exports;
    to (module, None) for an imported module; to None for a name from
    outside the package. node gives the syntax tree of a resolved
    (module, name)."""
    tops, imports = {}, {}
    for path in sorted(package.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        tops[mod] = {
            t.id: n for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Name)}
        tops[mod].update({n.name: n for n in tree.body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))})
        imports[mod] = {
            a.asname or a.name: (a.name, None) if n.module is None else (n.module, a.name)
            for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
            for a in n.names}

    def resolve(mod, name):
        if name in tops.get(mod, {}):
            return mod, name
        target = imports.get(mod, {}).get(name)
        if target is None or target[1] is None:
            return target
        return resolve(*target)

    def node(key):
        mod, name = key
        return tops[mod][name]

    return tops, resolve, node


def unreached_defs(package, roots):
    """Module-level functions, classes and assignments that no root
    reaches by name.

    Every name a reached def or assignment uses is resolved in its module;
    `module.attr` resolves attr in the imported module. Dunder hooks
    (__getattr__, __dir__) are the interpreter's: they are roots, and
    every dunder name counts as reached."""
    tops, resolve, node = _package_names(package)
    hooks = [(mod, name) for mod, names in tops.items() for name in names
             if _dunder(name)]
    seen, work = set(), [resolve(*root) for root in (*roots, *hooks)]
    while work:
        key = work.pop()
        if key is None or key[1] is None or key in seen:
            continue
        seen.add(key)
        mod = key[0]
        for sub in ast.walk(node(key)):
            if isinstance(sub, ast.Name):
                work.append(resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = resolve(mod, sub.value.id)
                if target is not None and target[1] is None:
                    work.append(resolve(target[0], sub.attr))
    return sorted((mod, name) for mod, names in tops.items() for name in names
                  if (mod, name) not in seen and not _dunder(name))


def rung_choosers(module: Path) -> list[str]:
    """The functions of module that choose a rung themselves: those that
    read .on_line or .holds_points, or call isinstance on a space."""
    def chooses(node):
        if isinstance(node, ast.Attribute):
            return node.attr in ("on_line", "holds_points")
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and bool(node.args)
                and isinstance(node.args[0], ast.Name)
                and "space" in node.args[0].id)

    return sorted({fn.name for fn in ast.walk(ast.parse(module.read_text()))
                   if isinstance(fn, ast.FunctionDef)
                   and any(map(chooses, ast.walk(fn)))})


def _roots():
    # run, the process entry, calls main, which dispatches every command
    # through _HANDLERS
    exports = tuple((home, name) for name, home in magnitude._EXPORTS.items())
    return (("cli", "run"), *exports, *README_QUICK_START, *BENCHMARK_RECORDS)


def test_every_root_names_a_def():
    _, resolve, node = _package_names(PACKAGE)
    for root in _roots():
        key = resolve(*root)
        assert key is not None and key[1] is not None, root
        assert isinstance(node(key), (ast.FunctionDef, ast.ClassDef)), root


def test_every_def_in_the_package_is_reached():
    # a def or constant nothing reaches belongs in tests/oracles.py or nowhere
    assert unreached_defs(PACKAGE, _roots()) == []


def test_the_cli_leaves_the_rung_to_the_dispatch():
    # what a space is picks its rung in specs.weighting, maximum_diversity
    # and definiteness alone; _emit_csv's checks on result types stay
    assert rung_choosers(PACKAGE / "cli.py") == []

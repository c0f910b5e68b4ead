"""Checks on the qlevy package itself: its source, read with the stdlib ast,
and the modules a fresh interpreter loads to run it."""

import ast
import functools
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qlevy"


def unused_imports(source):
    """(line, name) of each name a module imports and never reads.

    A name counts as read if it appears as an identifier anywhere in the
    module; `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int = os.path.sep\n")
    assert unused_imports(source) == [(3, "regex"), (4, "field")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def id_calls(source):
    """Lines of the calls to the builtin id() in a module's source."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"]


def test_id_calls_are_found():
    assert id_calls("key = id(B)\nx = f(id)\ncache[id(psi), 2] = 1\n") == [1, 3]


# an id() outlives its object, so a cache keyed by it can serve a new object
# the stale entry of a freed one; caches belong to the objects they describe
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_id_calls(path):
    assert id_calls(path.read_text(encoding="utf-8")) == []


def names_read(sources):
    """(identifiers, attribute names) that the sources read."""
    names, attrs = set(), set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def unread_definitions(source, read):
    """(line, name) of each function, class and method that a module
    defines, dunders excepted, that read (names_read) does not name.  A
    definition directly in a class body is read only as an attribute, so a
    local variable of the same name elsewhere does not hide it; any other
    is read by name or as an attribute."""
    names, attrs = read
    unread = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (child.name.startswith("__") and child.name.endswith("__"))
                    and child.name not in attrs
                    and (isinstance(node, ast.ClassDef) or child.name not in names)):
                unread.append((child.lineno, child.name))
            visit(child)

    visit(ast.parse(source))
    return sorted(unread)


def test_unread_definitions_are_found():
    # n_terms the method is not read by n_terms the parameter of sized
    source = ("class A:\n    def __init__(self):\n        self.x = helper()\n"
              "    def method(self):\n        pass\n    def spare(self):\n        pass\n"
              "    def n_terms(self):\n        return 0\n"
              "def helper():\n    return 1\ndef unused():\n    pass\n"
              "def sized(n_terms):\n    return n_terms\n")
    reader = "import m\nfrom m import A\nA().method()\nm.sized(2)\n"
    assert unread_definitions(source, names_read([source, reader])) == [
        (6, "spare"), (8, "n_terms"), (12, "unused")]


@functools.cache
def _names_read_in_the_repo():
    root = SRC.parents[1]
    return names_read(p.read_text(encoding="utf-8")
                      for d in ("src", "tests", "bench") for p in sorted((root / d).rglob("*.py")))


# a definition that nothing reads by name is code that nothing needs
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read(path):
    assert unread_definitions(path.read_text(encoding="utf-8"), _names_read_in_the_repo()) == []


# What runs reach: a definition that only tests read is not needed by qlevy.
# Each one kept anyway is named here with its reason.
KEPT_UNREACHED = {
    "check_conditional_positivity": "the certificate that a generator is conditionally "
                                    "positive, to be wired into check and run",
    "product_vacuum_gram": "the one-call public form of a vacuum product on its own mesh, "
                           "which the fock tests check against the term-pair oracle",
}


@functools.cache
def _names_read_by_runs():
    root = SRC.parents[1]
    paths = [p for d in ("src", "bench") for p in sorted((root / d).rglob("*.py"))]
    return names_read(p.read_text(encoding="utf-8")
                      for p in [*paths, root / "tests" / "test_acceptance.py"])


# every definition is read by src/, bench/ or the acceptance suite, or kept
# above; an entry whose definition is reached or gone leaves the list
def test_every_definition_is_reached_or_kept():
    unread = {name for path in sorted(SRC.glob("*.py"))
              for _, name in unread_definitions(path.read_text(encoding="utf-8"),
                                                _names_read_by_runs())}
    assert unread == set(KEPT_UNREACHED)


# Every qlevy module is imported, then a group-like sweep (diagonal T(psi)),
# an Azema conv_exp (nilpotent T(psi)) and the trotter_nilpotent run (G^2 = 0)
# run without loading scipy; a U<2> conv_exp, whose T(psi) is neither, then
# takes dense expm and loads it.
_COLD_RUN = """
import importlib, pathlib, sys, tempfile
import numpy as np
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
    importlib.import_module("qlevy" if path.stem == "__init__" else "qlevy." + path.stem)
from qlevy.constructions import make_azema, make_grouplike
from qlevy.gns import UnitaryTripleParams, unitary_triple
from qlevy.gram import convergence_sweep
from qlevy.ncpoly import parse_poly
from qlevy.subcoalg import conv_exp

B, _, psi = make_azema(2.0)
_G, kappa, kappa_tilde = make_grouplike(B, 6)
c = kappa_tilde.apply(parse_poly("x^*", B.algebra))
convergence_sweep(c, c, kappa, psi, 0.0, 1.0, [2, 4])
conv_exp(psi, 1.0, parse_poly("(0.7-0.4i) x x^* x x^* + 1", B.algebra), B)
from qlevy.cli import builtin_config_path, run_experiment
with tempfile.TemporaryDirectory() as out:
    run_experiment(builtin_config_path("trotter_nilpotent.json"), out)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
t = unitary_triple(UnitaryTripleParams(
    2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]])))
conv_exp(t.psi, 1.0, parse_poly("x11 x21^*", t.B.algebra), t.B)
print("scipy" in sys.modules)
"""


def _cold(script, *args):
    """The lines script prints in a fresh interpreter, with args as sys.argv[1:]
    and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout.splitlines()


def test_scipy_loads_only_on_the_routes_that_call_it():
    assert _cold(_COLD_RUN, SRC) == ["[]", "True"]


# qlevy check and run of every shipped config, written to out, then of a U<2>
# fock-unitary config whose iH - LL*/2 is not diagonal, written to extra_out,
# in one fresh interpreter
_COLD_CLI = """
import sys
from qlevy.cli import builtin_config_path, builtin_configs, check_defs, run_experiment
out, extra, extra_out = sys.argv[1:]
for name in builtin_configs():
    check_defs(builtin_config_path(name))
    run_experiment(builtin_config_path(name), out)
print(len(builtin_configs()))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
check_defs(extra)
run_experiment(extra, extra_out)
print("scipy.linalg" in sys.modules)
print("jsonschema" in sys.modules)
"""

_FOCK_UNITARY_D2 = {
    "name": "fock_unitary_d2",
    "experiment": "fock-unitary",
    "bialgebra": {"builder": "unitary", "d": 2},
    "unitary": {
        "W": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "L": [[[[0.3, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.2, 0.0]]]],
        "H": [[[0.2, 0.0], [0.0, 0.1]], [[0.0, -0.1], [-0.3, 0.0]]],
    },
    "interval": [0.0, 0.4],
    "partition": {"ns": [2, 4]},
    "caps": {"particle_cap": 2},
}


@pytest.fixture(scope="module")
def cold_cli(tmp_path_factory):
    """(the lines _COLD_CLI prints, the directory of the shipped outputs)."""
    out = tmp_path_factory.mktemp("cold_cli")
    extra_out = tmp_path_factory.mktemp("cold_cli_extra")
    extra = extra_out / "fock_unitary_d2.config.json"
    extra.write_text(json.dumps(_FOCK_UNITARY_D2), encoding="utf-8")
    return _cold(_COLD_CLI, out, extra, extra_out), out


# jsonschema reads config_schema.json in the tests only
def test_check_and_run_leave_jsonschema_unloaded(cold_cli):
    assert cold_cli[0][3] == "False"


# every shipped exponential takes the Taylor or the diagonal route; only a
# dense one, here U<2>'s Fock unitary target, loads scipy.linalg
def test_shipped_checks_and_runs_load_no_scipy(cold_cli):
    assert cold_cli[0][:3] == ["9", "[]", "True"]


# qlevy check of each named shipped config in turn, in one fresh interpreter,
# each followed by whether numpy is loaded
_COLD_CHECK = """
import sys
from qlevy.cli import builtin_config_path, check_defs
for name in sys.argv[1:]:
    check_defs(builtin_config_path(name + ".json"))
    print(name, "numpy" in sys.modules)
"""


# certification is exact dict arithmetic, so a check loads numpy only where
# it reads arrays, as fock_unitary_d1's W, L and H; the identity chain of
# sweep_azema_x takes its morphism from constructions, beside Morphism
def test_pure_python_checks_leave_numpy_unloaded():
    names = ["azema_q2", "azema_wiener_q2", "convexp_azema_q2", "gns_azema_q2",
             "reverse_azema_x", "sweep_azema_x", "sweep_grouplike_xstar", "trotter_nilpotent",
             "fock_unitary_d1"]
    assert _cold(_COLD_CHECK, *names) == [f"{n} {n == 'fock_unitary_d1'}" for n in names]


SNAPSHOT = pathlib.Path(__file__).with_name("shipped_outputs.sha256.json")


def snapshot_environment():
    """The numpy version and the machine: its architecture and the SIMD
    targets numpy dispatches to, which choose the code of its ufuncs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        simd = ["unknown"]
    import numpy
    return {"numpy": numpy.__version__, "machine": " ".join([platform.machine(), *simd])}


def output_digests(out):
    """sha256 of each file in out, a JSON summary's wall_time_s line left out."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = re.sub(rb'(?m)^  "wall_time_s": .*\n', b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_output_digests_leave_out_the_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, wall in ((a, "0.25"), (b, "1e-05")):
        d.mkdir()
        (d / "r.json").write_text(f'{{\n  "rng_seed": 7,\n  "wall_time_s": {wall}\n}}\n')
        (d / "r.csv").write_text("n,v\n1,0.5\n")
    assert output_digests(a) == output_digests(b)
    (b / "r.csv").write_text("n,v\n1,0.5000000000000001\n")
    assert output_digests(a)["r.csv"] != output_digests(b)["r.csv"]


# The nine shipped CSVs and their JSON summaries are pinned byte for byte, as
# one interpreter with one BLAS thread writes them; tests/golden/ stays the
# independent oracle to 1e-12.  A change that moves a bit names each moved
# cell and writes the new digests here.  Another numpy or machine may round
# otherwise, so there the test skips.
def test_shipped_outputs_match_their_snapshot(cold_cli):
    want = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    here = snapshot_environment()
    if here != want["environment"]:
        pytest.skip(f"snapshot taken with numpy {want['environment']['numpy']} on "
                    f"{want['environment']['machine']}; this is numpy {here['numpy']} "
                    f"on {here['machine']}")
    assert output_digests(cold_cli[1]) == want["sha256"]


def scipy_imports(source):
    """(scope, branch, module) of each import of a scipy module in a module's
    source: scope is the dotted name of the enclosing classes and functions
    ("" at module level), branch the guard of the nearest enclosing if
    branch, "not (test)" in its else ("" outside any if)."""
    found = []

    def visit(node, scope, branch):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), "")
            elif isinstance(child, ast.If):
                test = ast.unparse(child.test)
                for stmt in child.body:
                    visit(ast.Module([stmt], []), scope, test)
                for stmt in child.orelse:
                    visit(ast.Module([stmt], []), scope, f"not ({test})")
            else:
                if isinstance(child, ast.Import):
                    mods = [a.name for a in child.names]
                elif isinstance(child, ast.ImportFrom) and not child.level:
                    mods = [child.module]
                else:
                    mods = []
                found.extend((".".join(scope), branch, m)
                             for m in mods if m.split(".")[0] == "scipy")
                visit(child, scope, branch)

    visit(ast.parse(source), (), "")
    return found


def test_scipy_imports_are_found():
    source = ("import scipy\nimport numpy, scipy.sparse as sp\n"
              "class A:\n    def f(self, x):\n        if x:\n            pass\n"
              "        elif x > 1:\n            from scipy.linalg import expm\n"
              "        else:\n            import scipy.linalg\n"
              "def g():\n    import os\n    with open('f'):\n        import scipy.special\n")
    assert scipy_imports(source) == [("", "", "scipy"), ("", "", "scipy.sparse"),
                                     ("A.f", "x > 1", "scipy.linalg"),
                                     ("A.f", "not (x > 1)", "scipy.linalg"),
                                     ("g", "", "scipy.special")]


# scipy is imported in two branches only: the dense one of the routed
# exponential and the sparse one of the doubled convolution power; a new
# import on a shipped route fails here, not in a memory benchmark
def test_scipy_is_imported_at_two_sites():
    sites = {(path.name, *site) for path in sorted(SRC.glob("*.py"))
             for site in scipy_imports(path.read_text(encoding="utf-8"))}
    assert sites == {
        ("subcoalg.py", "_routed_exp", "not (route == 'diagonal')", "scipy.linalg"),
        ("subcoalg.py", "_DoubledLayout.__call__", "not (self.size <= DENSE_POWER_DIM)",
         "scipy.sparse"),
    }

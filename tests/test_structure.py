"""Module boundaries of the package.

A name with a leading underscore (dunders such as ``__version__``
aside) is private to the module that defines it; helpers shared across modules get a public name in the module that
owns them (linear algebra and random draws live in ``rng``).

Fits solve with Cholesky factors rather than forming a matrix inverse:
``np.linalg.inv`` appears only in ``rng.chol_inverse``, the inverse of a
triangular factor. Regression designs are rank-checked by
``rng.gram_chol`` from the Cholesky factor of X'X and triangular systems
are solved through ``rng.chol_inverse``, so nothing calls
``np.linalg.qr`` or scipy's ``cho_factor``, ``cho_solve`` or
``solve_triangular``. The samplers draw in precision form:
``jm`` and ``fcs`` import none of the covariance-form samplers, which
stay in ``rng`` as the oracles the law tests check against.

No module of the package imports scipy: the runtime needs only numpy,
and scipy serves the tests as an oracle. ``hashlib``, which keys the
binary copy of a CSV, is imported only when a copy is written or read.
Each process loads only the modules its subcommand runs: ``import
longmi.cli`` loads ``longmi``, ``longmi.cli`` and ``longmi.errors`` and
no numpy, the package resolves its public names on first access,
``sim`` and ``pool`` load no imputation engine, LMM or formula code, a
JM impute loads no FCS code, and a rejected flag loads nothing new.

Group sums use ``np.bincount`` (one call per column) rather than the
unbuffered ``np.add.at``, and groupings over several columns are
factorized one column at a time rather than by ``np.unique(...,
axis=0)`` on stacked float rows.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import longmi

PKG = pathlib.Path(longmi.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "longmi"
        if not internal:
            continue
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source}")
    return found


def test_no_private_names_imported_across_modules():
    offenders = [hit for path in sorted(PKG.glob("*.py")) for hit in _private_imports(path)]
    assert offenders == []


def test_checker_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .jm import _chol, run_jm\nfrom longmi.rng import _sym\n"
        "from numpy import _private\nfrom . import __version__\n"
    )
    assert _private_imports(probe) == [
        "probe.py:1 imports _chol from .jm",
        "probe.py:2 imports _sym from longmi.rng",
    ]


def _scipy_imports(path: pathlib.Path) -> list[str]:
    """Every import of scipy in ``path``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        if any(n.split(".")[0] == "scipy" for n in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_scipy():
    hits = [hit for path in sorted(PKG.glob("*.py")) for hit in _scipy_imports(path)]
    assert hits == []


def test_scipy_checker_sees_module_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy.linalg\nfrom scipy import special\n"
        "class A:\n    from scipy.special import ndtr\n"
        "def f():\n    from scipy.linalg import cho_solve\n"
        "from .scipy import x\nimport numpy\n"
    )
    assert _scipy_imports(probe) == [
        "probe.py:1", "probe.py:2", "probe.py:4", "probe.py:6",
    ]


def _linalg_calls(path: pathlib.Path, names: set[str]) -> list[str]:
    """Calls of ``*.linalg.<name>`` or of a bare ``<name>``, and imports
    of ``<name>`` from any module, for the given names, each with the
    function it sits in."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            what = None
            if isinstance(child, ast.Call):
                parts = ast.unparse(child.func).split(".")
                if parts[-1] in names and (len(parts) == 1 or parts[-2] == "linalg"):
                    what = ".".join(parts)
            elif isinstance(child, ast.ImportFrom):
                hits = [a.name for a in child.names if a.name in names]
                what = f"import {', '.join(hits)}" if hits else None
            if what:
                found.append((child.lineno, f"{scope} {what}"))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


def test_matrix_inverse_only_in_rng():
    hits = [hit for path in sorted(PKG.glob("*.py")) for hit in _linalg_calls(path, {"inv"})]
    assert len(hits) == 1 and hits[0].startswith("rng.py:"), hits
    assert hits[0].endswith(" chol_inverse np.linalg.inv"), hits


def test_samplers_solve_no_linear_system():
    # triangular factors are inverted by rng.chol_inverse, never solved by LU
    hits = [hit for name in ("jm.py", "fcs.py") for hit in _linalg_calls(PKG / name, {"solve"})]
    assert hits == []


def test_no_qr_or_cho_factor():
    hits = [
        hit for path in sorted(PKG.glob("*.py"))
        for hit in _linalg_calls(
            path, {"qr", "cho_factor", "cho_solve", "solve_triangular"}
        )
    ]
    assert hits == []


COVARIANCE_SAMPLERS = {"MvnParams", "mvn_draw", "conditional_mvn", "inv_wishart_draw"}


def test_samplers_import_no_covariance_form_draw():
    imported = {
        f"{name}: {alias.name}"
        for name in ("jm.py", "fcs.py")
        for node in ast.walk(ast.parse((PKG / name).read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in COVARIANCE_SAMPLERS
    }
    assert imported == set()


def test_inverse_checker_sees_calls_and_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nnp.linalg.inv(a)\nnumpy.linalg.inv(b)\n"
        "np.linalg.pinv(c)\nfrom numpy.linalg import inv\n"
        "from scipy.linalg import cho_solve\nnp.linalg.solve(a, b)\n"
        "def f(a):\n    return inv(a) + np.linalg.qr(a)[0]\n"
    )
    assert _linalg_calls(probe, {"inv"}) == [
        "probe.py:2 <module> np.linalg.inv", "probe.py:3 <module> numpy.linalg.inv",
        "probe.py:5 <module> import inv", "probe.py:9 f inv",
    ]


def test_qr_checker_sees_calls_and_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nfrom .rng import cho_factor, cho_solve\n"
        "def f(a):\n    q, r = np.linalg.qr(a)\n    return cho_factor(a), a.qr()\n"
        "scipy.linalg.cho_factor(a)\nnp.linalg.cholesky(a)\n"
    )
    assert _linalg_calls(probe, {"qr", "cho_factor"}) == [
        "probe.py:2 <module> import cho_factor", "probe.py:4 f np.linalg.qr",
        "probe.py:5 f cho_factor", "probe.py:6 <module> scipy.linalg.cho_factor",
    ]


_STARTUP_PROBE = """
import json, os, sys

work = sys.argv[1]
seen = set(sys.modules)
loaded = {}


def record(name):
    # what this step loads for the first time: longmi's modules and the
    # heavy imports kept off the start-up path
    new = set(sys.modules) - seen
    seen.update(new)
    loaded[name] = sorted(m for m in new if m.split(".")[0] == "longmi"
                          or m in ("numpy", "scipy", "hashlib"))


from longmi.cli import main

record("import")


def step(name, *argv):
    try:
        main(list(argv))
    except SystemExit:
        pass
    record(name)


fits = os.path.join(work, "fits")
os.makedirs(fits)
for i, q in enumerate((1.0, 2.0, 3.0), start=1):
    with open(os.path.join(fits, f"fit_{i:04d}.json"), "w") as fh:
        json.dump({"params": [{"name": "b", "estimate": q, "se": 1.0}],
                   "var_components": {"residual": 1.0}, "converged": True}, fh)
step("pool", "pool", "--fits", fits, "--out-dir", os.path.join(work, "pooled"))
cfg = os.path.join(work, "cfg.json")
with open(cfg, "w") as fh:
    json.dump({"n_schools": 4, "n_students": 20}, fh)
sim = os.path.join(work, "sim")
step("sim", "sim", "--seed", "5", "--config", cfg, "--out-dir", sim)
step("help", "--help")
observed = os.path.join(sim, "observed.csv")
step("bad_config", "impute", "--input", observed, "--method", "fcs-3l",
     "--m", "0", "--out-dir", os.path.join(work, "imp"))
step("jm_impute", "impute", "--input", observed, "--method", "jm-1l-wide",
     "--m", "1", "--nburn", "5", "--nbetween", "100",
     "--out-dir", os.path.join(work, "jm"))
import longmi.rng

trunc_std, trunc_calls = longmi.rng._trunc_std, []
longmi.rng._trunc_std = lambda *a: trunc_calls.append(1) or trunc_std(*a)
step("fcs_2l_impute", "impute", "--input", observed, "--method", "fcs-2l",
     "--m", "1", "--maxit", "1", "--out-dir", os.path.join(work, "fcs2l"))
print(json.dumps({"trunc_calls": len(trunc_calls), **loaded}))
"""

ENGINES = {"longmi.fcs", "longmi.jm", "longmi.fitters", "longmi.lmm", "longmi.formula"}


def test_startup_leaves_scipy_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    res = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(res.stdout.strip().splitlines()[-1])
    trunc_calls = out.pop("trunc_calls")
    loaded = {k: set(v) for k, v in out.items()}
    assert (tmp_path / "pooled" / "pooled.csv").exists()
    assert (tmp_path / "sim" / "observed.csv").exists()
    assert "must be at least 1" in res.stderr
    assert not (tmp_path / "imp").exists()
    assert (tmp_path / "jm" / "imputations.csv").exists()
    assert loaded["import"] == {"longmi", "longmi.cli", "longmi.errors"}
    assert "numpy" in loaded["pool"]
    assert not loaded["pool"] & (ENGINES | {"longmi.simulate", "hashlib"})
    # sim writes keyed copies of its CSVs: hashlib
    assert "hashlib" in loaded["sim"]
    assert not loaded["sim"] & (ENGINES | {"longmi.pooling"})
    # the flags are checked before the input is read or an engine loads
    assert loaded["help"] == loaded["bad_config"] == set()
    assert "longmi.jm" in loaded["jm_impute"]
    assert not loaded["jm_impute"] & {"longmi.fcs", "longmi.fitters"}
    # the probit latent of fcs-2l draws its truncated normals with numpy
    assert (tmp_path / "fcs2l" / "imputations.csv").exists()
    assert "longmi.fcs" in loaded["fcs_2l_impute"] and trunc_calls > 0
    assert all("scipy" not in names for names in loaded.values())


def test_public_names_resolve_on_first_access():
    for name in longmi.__all__:
        module = importlib.import_module(f"longmi.{longmi._MODULE_OF[name]}")
        assert getattr(longmi, name) is getattr(module, name), name
    assert set(longmi.__all__) <= set(dir(longmi))
    # importing the submodule of the same name keeps the function exported
    assert longmi.simulate is importlib.import_module("longmi.simulate").simulate
    with pytest.raises(AttributeError, match="no_such_name"):
        longmi.no_such_name  # noqa: B018


def _slow_calls(path: pathlib.Path) -> list[str]:
    """Calls of ``*.add.at`` and of ``*unique`` with an ``axis`` keyword."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name.endswith("add.at") or (
            name.split(".")[-1] == "unique" and any(k.arg == "axis" for k in node.keywords)
        ):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_add_at_or_row_unique():
    hits = [hit for path in sorted(PKG.glob("*.py")) for hit in _slow_calls(path)]
    assert hits == []


def test_slow_call_checker_sees_both(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nnp.add.at(a, i, b)\nnp.unique(k, axis=0)\n"
        "np.unique(k, return_inverse=True)\nnp.add.reduceat(a, s)\n"
        "numpy.add.at(a, i, 1.0)\n"
    )
    assert _slow_calls(probe) == [
        "probe.py:2 np.add.at", "probe.py:3 np.unique", "probe.py:6 numpy.add.at",
    ]

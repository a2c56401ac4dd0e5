"""Module boundaries of the package.

A name with a leading underscore (dunders such as ``__version__``
aside) is private to the module that defines it; helpers shared across modules get a public name in the module that
owns them (linear algebra and random draws live in ``rng``).
"""

import ast
import pathlib

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

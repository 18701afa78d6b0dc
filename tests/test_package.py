"""The package's public surface: every exported name exists, so
``from hrt import *`` cannot raise; and the package imports nothing but
numpy and the standard library."""

import ast
import sys
from pathlib import Path

import hrt

SRC = Path(hrt.__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in hrt.__all__ if not hasattr(hrt, name)]
    assert not missing, f"hrt.__all__ names missing attributes: {missing}"


def test_package_is_numpy_only():
    # every absolute import of src/hrt, at any depth (a guarded or
    # function-level import counts too); relative imports stay inside hrt
    allowed = sys.stdlib_module_names | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    foreign = []
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(), str(file))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{file.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside numpy and the stdlib: {foreign}"

"""The reference implementations stay out of the production package.

:mod:`repro.oracle` exists for the differential suites and the
benchmarks; a production module importing it would put a second path
back into a layer.  This walks every module under ``src/repro`` and
fails on any import of the oracle outside ``oracle.py`` itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _oracle_imports(source: str, package: str) -> list[int]:
    """Line numbers of the statements in *source* that import the oracle.

    *package* is the dotted package the module sits in, against which
    relative imports resolve.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = parts[: len(parts) - node.level + 1]
                base = ".".join([*parent, base] if base else parent)
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "repro.oracle" or name.startswith("repro.oracle.") for name in names):
            lines.append(node.lineno)
    return lines


def _package_of(path: Path) -> str:
    return ".".join(path.parent.relative_to(PACKAGE.parent).parts)


def test_no_production_module_imports_the_oracle():
    oracle = PACKAGE / "oracle.py"
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != oracle
        for line in _oracle_imports(path.read_text(), _package_of(path))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "text",
    [
        "import repro.oracle",
        "from repro.oracle import rescan_c_chase",
        "from repro import oracle",
        "from .. import oracle",
        "from ..oracle import join_mode",
    ],
)
def test_every_import_form_is_caught(text):
    # A clean walk only proves something if each spelling would be seen.
    assert _oracle_imports(text + "\n", "repro.query") == [1]

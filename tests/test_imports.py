"""No file under src/, scripts/ or tests/ imports a name it never reads.

The unused-import check of a linter (pyflakes' F401), on the standard
library's ``ast``: a name counts as read when the file loads it anywhere or
lists it in a module-level ``__all__``; an import line marked
``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    files = sorted(p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}" for path in files for line, name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import numpy.fft\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        "    e as euler,\n"
        ")\n"
        "\n"
        "__all__ = ['tau']\n"
        "print(numpy.fft.rfft, euler)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (6, "pi")]

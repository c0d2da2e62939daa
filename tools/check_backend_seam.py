"""Static gate: no direct numpy imports behind the array-backend seam.

Every array operation inside ``repro.nn`` and ``repro.gnn`` must route
through ``repro.nn.backend.xp`` so that switching the active backend
(numpy / checked, or an adapter registered out of tree) actually switches
*all* the math.  A stray ``import numpy`` in one of those modules silently
pins that code to numpy and breaks the checked backend's accounting, so CI
fails on it here.

The check is AST-based (not grep): it flags ``import numpy`` /
``import numpy as anything`` / ``from numpy import ...`` /
``from numpy.random import ...`` wherever they appear in a module,
including inside functions.  Mentions of numpy in strings, comments or
docstrings are fine.

Allowlisted:

* ``repro/nn/backend.py`` — the one module whose job is to bind numpy.

Run from the repository root (CI does)::

    python tools/check_backend_seam.py

Exit status 0 when clean, 1 with a per-violation listing otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: directories whose modules must not import numpy directly
SEALED_DIRS = ("src/repro/nn", "src/repro/gnn")

#: modules allowed to import numpy, relative to the repository root.
#: Keep this list short and deliberate: every entry is a hole in the seam.
ALLOWLIST = frozenset({
    "src/repro/nn/backend.py",
})


def find_numpy_imports(path: Path) -> list:
    """``(line, text)`` for every direct numpy import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "numpy":
                    violations.append(
                        (node.lineno, f"import {alias.name}"
                         + (f" as {alias.asname}" if alias.asname else "")))
        elif isinstance(node, ast.ImportFrom):
            # level > 0 is a relative import and can never reach numpy
            if node.level == 0 and node.module \
                    and node.module.split(".")[0] == "numpy":
                names = ", ".join(a.name for a in node.names)
                violations.append(
                    (node.lineno, f"from {node.module} import {names}"))
    return violations


def main(root: Path) -> int:
    failures = []
    checked = 0
    for sealed in SEALED_DIRS:
        base = root / sealed
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in ALLOWLIST:
                continue
            checked += 1
            for lineno, text in find_numpy_imports(path):
                failures.append(f"{rel}:{lineno}: {text}")
    if failures:
        print("direct numpy imports behind the backend seam "
              f"({len(failures)}):")
        for line in failures:
            print(f"  {line}")
        print("route array ops through repro.nn.backend.xp instead, or "
              "(deliberately) extend ALLOWLIST in tools/check_backend_seam.py")
        return 1
    print(f"backend seam clean: {checked} modules checked, "
          f"{len(ALLOWLIST)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parent.parent))

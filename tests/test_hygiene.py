import ast
from pathlib import Path

import localsgd_lab

SOURCES = sorted(Path(localsgd_lab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; `import a.b` binds a."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_src_imports_are_used():
    # the check itself: an unread import is found, and `import d.e` binds d
    assert unused_imports("from __future__ import annotations\nimport os\nimport a.b as c\n"
                          "import d.e\nfrom x import y, z\nprint(y, d)\n") == ["os", "c", "z"]
    assert SOURCES
    assert {path.name: unused for path in SOURCES
            if (unused := unused_imports(path.read_text()))} == {}

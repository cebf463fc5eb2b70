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


def unread_self_attributes(sources: list[str]) -> list[str]:
    """The attributes the sources assign on self and read nowhere: a read is an
    attribute load in any of them, or a string constant (getattr(self, "x"),
    object.__setattr__(self, "x", v))."""
    stored, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        stored.add(node.attr)
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(stored - read)


def test_src_self_attributes_are_read():
    # the check itself: a load in another module or a string reads an attribute;
    # a store, an augmented one included, or a load of the same name as a
    # local does not
    assert unread_self_attributes([
        "class A:\n    def __init__(self, other):\n"
        "        self.a = self.b = self.c = other.z = 0\n        self.d += 1\n"
        "        self.e, self.f = 1, 2\n        c = 3\n        print(getattr(self, 'f'), c)\n",
        "def g(x):\n    return x.a, object.__setattr__(x, 'b', 1)\n"]) == ["c", "d", "e"]
    assert SOURCES
    assert unread_self_attributes([path.read_text() for path in SOURCES]) == []

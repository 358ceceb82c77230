"""Source hygiene of the package, read with the stdlib `ast` module alone."""
import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "arborsign")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports, anywhere in it, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom .arboreal import Inseparable, disc_class\n"
                          "disc_class(os)\n") == ["Inseparable"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []

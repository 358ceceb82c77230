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


def dead_private_definitions(sources: list[str]) -> list[str]:
    """The private functions, methods and classes defined in `sources`, taken
    as one package, that no source reads as a name, an attribute or an
    import alias.  Dunder names are skipped."""
    trees = [ast.parse(source) for source in sources]
    defined, read = [], set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [name for name in defined if name not in read]


def test_the_check_finds_a_dead_private_helper():
    sources = ["def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
               "class _Box:\n    def _peek(self):\n        pass\n    def __len__(self):\n"
               "        return 0\n",
               "from .a import _used\n_used(_Box()._peek)\n"]
    assert dead_private_definitions(sources) == ["_dead"]


def test_every_private_definition_is_read():
    sources = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources.append(fh.read())
    assert dead_private_definitions(sources) == []

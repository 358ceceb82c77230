"""Source hygiene of the package, read with the stdlib `ast` module alone."""
import ast
import builtins
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "arborsign")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def sources(directory: str) -> list[str]:
    """The text of every .py file in `directory`, by file name."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                out.append(fh.read())
    return out


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(sources: list[str]) -> set[str]:
    """Every name that `sources` read as a name, an attribute or an import
    alias."""
    read = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def dead_private_definitions(sources: list[str]) -> list[str]:
    """The private functions, methods and classes defined in `sources`, taken
    as one package, that no source reads as a name, an attribute or an
    import alias.  Dunder names are skipped."""
    defined = [node.name for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, DEFINITIONS)
               and node.name.startswith("_") and not node.name.endswith("__")]
    read = names_read(sources)
    return [name for name in defined if name not in read]


def test_the_check_finds_a_dead_private_helper():
    sources = ["def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
               "class _Box:\n    def _peek(self):\n        pass\n    def __len__(self):\n"
               "        return 0\n",
               "from .a import _used\n_used(_Box()._peek)\n"]
    assert dead_private_definitions(sources) == ["_dead"]


def test_every_private_definition_is_read():
    assert dead_private_definitions(sources(PACKAGE)) == []


def unread_public_definitions(package: list[str], readers: list[str],
                              namers: list[str]) -> list[str]:
    """The public functions and classes at module level in the `package`
    sources, and the public methods of those classes, that no source of
    `package` or `readers` reads as a name, an attribute or an import alias,
    and that no string constant of `namers` names as a dotted part, as the
    benchmark's tracer names what it wraps ("ClassSubspace.extend")."""
    defined = []
    for node in (node for source in package for node in ast.parse(source).body):
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [m.name for m in node.body
                            if isinstance(m, DEFINITIONS) and not m.name.startswith("_")]
    read = names_read(package + readers)
    for node in (node for source in namers for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return [name for name in defined if name not in read]


def test_the_check_finds_an_unread_public_helper():
    package = ["def used():\n    pass\n\ndef unread():\n    pass\n\n"
               "def traced():\n    pass\n\n"
               "class Box:\n    def peek(self):\n        pass\n    def shut(self):\n"
               "        def inner():\n            pass\n        return inner\n"
               "    def __len__(self):\n        return 0\n"]
    readers = ["from arborsign.a import used\nused(Box().peek)\n"]
    namers = ["WRAPPED = {'arborsign.a': ['traced', 'Box.shut']}  # not unread\n"]
    assert unread_public_definitions(package, readers, namers) == ["unread"]
    assert unread_public_definitions(package, readers, []) == ["unread", "traced", "shut"]


def test_every_public_definition_is_read():
    """Each public definition of the package is read by the package, its
    tests or the benchmark scripts of bench/, or named by the tracer."""
    readers = sources(os.path.join(ROOT, "tests")) + sources(os.path.join(ROOT, "bench"))
    namers = sources(os.path.join(ROOT, "perfbench"))
    assert unread_public_definitions(sources(PACKAGE), readers, namers) == []


# The str predicates that would each define a digit or whitespace class of
# their own, beside exactpoly.parse_integer and the polynomial tokenizer's
# ASCII classes.
CHARACTER_CLASSES = {"isdecimal", "isdigit", "isnumeric", "isspace"}


def outermost_functions(tree: ast.AST) -> dict[ast.AST, str]:
    """The name of the outermost function around each node of `tree` that
    lies in a function."""
    owner = {}
    for node in ast.walk(tree):  # outer functions first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner.setdefault(inner, node.name)
    return owner


def character_class_uses(source: str) -> list[tuple[str | None, str]]:
    """(function, predicate) for each use of a CHARACTER_CLASSES predicate
    in `source`, called or not; function is the name of the outermost
    function around it, or None at module level."""
    tree = ast.parse(source)
    owner = outermost_functions(tree)
    return [(owner.get(node), node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in CHARACTER_CLASSES]


def test_the_check_finds_a_character_class():
    source = ("def read(t):\n    def inner():\n        return t.isspace()\n"
              "    return map(str.isdecimal, t)\n\nOK = '1'.isdigit()\n")
    assert sorted(character_class_uses(source), key=str) == [
        ("read", "isdecimal"), ("read", "isspace"), (None, "isdigit")]


@pytest.mark.parametrize("module", MODULES)
def test_integers_have_one_reader(module):
    """Only exactpoly.parse_integer tells digits from other text: no module
    uses isdecimal, isnumeric or isspace, and isdigit appears only there."""
    with open(os.path.join(PACKAGE, module)) as fh:
        uses = character_class_uses(fh.read())
    assert uses == ([("parse_integer", "isdigit")] if module == "exactpoly.py" else [])


def trailing_zero_trims(source: str) -> list[str | None]:
    """The outermost function around each `while a and a[-1] == 0` loop in
    `source`, whatever the list's name; None at module level."""
    tree = ast.parse(source)
    owner = outermost_functions(tree)
    return [owner.get(node) for node in ast.walk(tree) if isinstance(node, ast.While)
            and re.fullmatch(r"(\w+) and \1\[-1\] == 0", ast.unparse(node.test))]


def test_the_check_finds_a_trim():
    source = ("def strip(cs):\n    while cs and cs[-1] == 0:\n        cs.pop()\n\n"
              "while xs and xs[-1] == 0:\n    xs.pop()\n"
              "while xs and ys[-1] == 0:\n    xs.pop()\n")
    assert trailing_zero_trims(source) == [None, "strip"]
    with open(os.path.join(PACKAGE, "arboreal.py")) as fh:
        planted = fh.read() + ("\n\ndef _lead(A):\n    while A and A[-1] == 0:\n"
                               "        A.pop()\n    return A[-1]\n")
    assert trailing_zero_trims(planted) == ["_lead"]


@pytest.mark.parametrize("module", MODULES)
def test_trailing_zeros_have_one_trim(module):
    """Only exactpoly._trim pops the trailing zeros off a coefficient list;
    every other trim calls it."""
    with open(os.path.join(PACKAGE, module)) as fh:
        assert trailing_zero_trims(fh.read()) == (["_trim"] if module == "exactpoly.py" else [])


# The types of the values that `json` reads: a type test that names one
# reads a JSON value, which only construct._json does, or writes one, which
# only cli._dumps does.
JSON_TYPES = {"str", "int", "float", "bool", "list", "dict"}
TYPE_READERS = {"construct.py": {"_json"}, "cli.py": {"_dumps"}}


def json_type_tests(source: str) -> list[str | None]:
    """The outermost function around each `isinstance(...)` call, and each
    comparison with a `type(...)` call, in `source` that names a JSON_TYPES
    type; None at module level."""
    tree = ast.parse(source)
    owner = outermost_functions(tree)

    def called(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    found = []
    for node in ast.walk(tree):
        if called(node, "isinstance"):
            named = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                called(side, "type") for side in (node.left, *node.comparators)):
            named = node.comparators
        else:
            continue
        if any(isinstance(name, ast.Name) and name.id in JSON_TYPES
               for side in named for name in ast.walk(side)):
            found.append(owner.get(node))
    return found


def stray_json_type_tests(module: str, source: str) -> list[str | None]:
    """The json_type_tests of `module`'s `source` outside its TYPE_READERS."""
    return [f for f in json_type_tests(source) if f not in TYPE_READERS.get(module, set())]


def test_the_check_finds_a_json_type_test():
    source = ("def read(v, kind):\n    def inner():\n        return type(v) is not int\n"
              "    if isinstance(v, (str, bytes)) or type(v) is kind:\n        return v\n"
              "    return isinstance(v, RatPoly) or type(v).__name__\n\n"
              "OK = type(1) == float\n")
    assert sorted(json_type_tests(source), key=str) == [None, "read", "read"]
    with open(os.path.join(PACKAGE, "construct.py")) as fh:
        planted = fh.read() + "\n\ndef _steps(data):\n    return isinstance(data, list)\n"
    assert stray_json_type_tests("construct.py", planted) == ["_steps"]


@pytest.mark.parametrize("module", MODULES)
def test_trace_values_have_one_reader(module):
    """Only construct._json tests the JSON type of a value it reads, and
    only cli._dumps that of a value it writes: no other isinstance(...) or
    type(...) test in the package names str, int, float, bool, list or
    dict."""
    with open(os.path.join(PACKAGE, module)) as fh:
        assert stray_json_type_tests(module, fh.read()) == []


def uncaught_exception_classes(sources: list[str]) -> list[str]:
    """The classes defined in `sources`, taken as one package, that derive
    from a builtin exception type, directly or through classes of `sources`,
    and that no `except` clause of `sources` names: as a name or an
    attribute (`construct.ConstructionAborted`), alone or in a tuple.  A
    base is known by its last dotted part."""
    trees = [ast.parse(source) for source in sources]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    grew = True
    while grew:  # close under subclassing, whatever order the classes come in
        new = {c.name for c in classes if c.name not in exceptions
               and any(ast.unparse(base).rpartition(".")[2] in exceptions for base in c.bases)}
        exceptions |= new
        grew = bool(new)
    caught = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(ast.unparse(n).rpartition(".")[2] for n in named)
    return [c.name for c in classes if c.name in exceptions and c.name not in caught]


def test_the_check_finds_an_uncaught_exception():
    source = ("class Bad(ValueError):\n    pass\n\nclass Worse(Bad):\n    pass\n\n"
              "class Worst(m.Worse):\n    pass\n\nclass Plain:\n    pass\n\n"
              "class Loose(Exception):\n    pass\n\n"
              "try:\n    pass\nexcept (OSError, m.Worst):\n    pass\nexcept Bad:\n    pass\n")
    assert uncaught_exception_classes([source]) == ["Worse", "Loose"]
    planted = ("from .primes import ResourceBound\n\n\nclass Stray(ResourceBound):\n"
               "    pass\n\n\ndef scan():\n    raise Stray('nothing found')\n")
    assert uncaught_exception_classes(sources(PACKAGE) + [planted]) == ["Stray"]


def test_every_exception_is_caught_by_name():
    """Each exception class of the package is named by some `except` of the
    package: the CLI tells failures apart by InputError, ResourceBound and
    Inseparable alone, so a subclass no handler names is a second name for
    its base."""
    assert uncaught_exception_classes(sources(PACKAGE)) == []

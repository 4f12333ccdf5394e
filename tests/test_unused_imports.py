"""Every import in the ekinv sources, in their tests and in the benchmark
(``ekibench``, scanned read-only) is used, and so is every module-level
function, class and constant of the sources; and no source module is
longer than :data:`MAX_MODULE_LINES`.

A stdlib ``ast`` scan in place of a linter: an imported name counts as used
when the module reads it (or lists it in ``__all__``); ``import a.b`` counts
when the module reads ``a.b`` or an attribute below it.  A name a source
module defines counts as used when any scanned module reads a name or an
attribute of that spelling.
"""

import ast
from pathlib import Path

import ekinv

SOURCES = Path(ekinv.__file__).parent
TESTS = Path(__file__).parent
BENCHMARK = TESTS.parent / "ekibench"

# (module, name) pairs imported only so that other code can import them from
# that module: the benchmark loads its configurations through harness.
RE_EXPORTS = {("harness", "load_config")}

# a module past this length is split or cut down, not grown further
MAX_MODULE_LINES = 600


def dotted(node) -> str | None:
    """``a.b.c`` of an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            chain = dotted(node)
            if chain:
                parts = chain.split(".")
                read.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{path.stem}.py line {node.lineno}: {name}" for name in names
                   if name not in read and (path.stem, name) not in RE_EXPORTS]
    return unused


def test_sources_import_nothing_they_do_not_use():
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in unused_imports(path)] == []


def test_tests_import_nothing_they_do_not_use():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in unused_imports(path)] == []


def test_the_benchmark_imports_nothing_it_does_not_use():
    modules = sorted(BENCHMARK.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in unused_imports(path)] == []


def defined_names(path: Path) -> list[str]:
    """The functions, classes and assigned names at the top level of a
    module, but no dunder name such as ``__all__``, which Python reads."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def names_read(paths) -> set[str]:
    """Every name and attribute that the modules at ``paths`` read."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_sources_define_nothing_that_nothing_reads():
    modules = sorted(SOURCES.glob("*.py"))
    read = names_read(modules + sorted(TESTS.glob("*.py")) + sorted(BENCHMARK.glob("*.py")))
    defined = [(path.stem, name) for path in modules for name in defined_names(path)]
    assert len(defined) > 100
    assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []


def test_no_source_module_exceeds_the_line_limit():
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 5
    lengths = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in modules}
    assert {name: n for name, n in lengths.items() if n > MAX_MODULE_LINES} == {}


def test_the_scan_finds_a_name_that_nothing_reads(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("LIMIT, SCALE = 1, 2\nTABLE: dict = {}\n"
                    "def used():\n    return SCALE\n"
                    "def unused():\n    return used()\n"
                    "class Unused:\n    pass\n", encoding="utf-8")
    assert [name for name in defined_names(path) if name not in names_read([path])] == \
        ["LIMIT", "TABLE", "unused", "Unused"]


def test_the_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport scipy.sparse\nimport scipy.linalg\n"
                    "from pathlib import Path, PurePath\n"
                    "scipy.linalg.solve(Path('.'))\n", encoding="utf-8")
    assert unused_imports(path) == ["sample.py line 1: os", "sample.py line 2: scipy.sparse",
                                    "sample.py line 4: PurePath"]

"""Every import in the ekinv sources, in their tests and in the benchmark
(``ekibench``, scanned read-only) is used.

A stdlib ``ast`` scan in place of a linter: an imported name counts as used
when the module reads it (or lists it in ``__all__``); ``import a.b`` counts
when the module reads ``a.b`` or an attribute below it.
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


def test_the_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport scipy.sparse\nimport scipy.linalg\n"
                    "from pathlib import Path, PurePath\n"
                    "scipy.linalg.solve(Path('.'))\n", encoding="utf-8")
    assert unused_imports(path) == ["sample.py line 1: os", "sample.py line 2: scipy.sparse",
                                    "sample.py line 4: PurePath"]

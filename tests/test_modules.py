"""Library source: every module uses each name it imports, every private
helper has a caller, and the library loads no third-party package but
numpy.  The test modules use each name they import, too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ldl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # No linter runs on the library or the tests, so an import that a
    # deletion or a move leaves behind would otherwise stay.  ``__init__``
    # imports to re-export.
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} never uses {unused}"


# Top-level packages a fresh interpreter loads for ``import ldl, ldl.cli``,
# beyond those loaded before it (site hooks), printed one a line.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import ldl, ldl.cli
for name in sorted({m.split(".")[0] for m in set(sys.modules) - before}):
    print(name)
"""


def test_library_imports_no_third_party_package_but_numpy():
    # scipy, networkx and hypothesis are installed for the tests but not
    # declared in pyproject.toml, so a runtime import of one breaks installs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert {"ldl", "numpy"} <= loaded
    third_party = loaded - sys.stdlib_module_names - {"ldl", "numpy"}
    assert not third_party, f"import ldl loads {sorted(third_party)}"


def private_definitions(tree):
    """Each module-level ``_name`` of a module with the node defining it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def referenced_names(tree, skip=None):
    """The names a tree reads, as a bare name, an attribute or an import,
    outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_helper_has_a_caller():
    # A helper that a deletion leaves without a caller would otherwise
    # stay; a use inside its own definition (recursion) does not count.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            if not any(name in referenced_names(other, skip=node)
                       for other in trees.values()):
                dead.append(f"{module}:{name}")
    assert not dead, f"no library code uses {dead}"

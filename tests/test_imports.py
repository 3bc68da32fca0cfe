"""Every imported name is used by the module that imports it.

Scans the package sources, the ``perfbench`` scripts (read only) and the
test modules with ``ast``. A name counts as used when the module reads it
anywhere, in a string annotation, or lists it in ``__all__``; ``from
__future__`` imports are skipped.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SOURCES = (sorted((ROOT / "src" / "cmrr").rglob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + sorted(TESTS.glob("*.py")))


def _imported_names(tree):
    """(line, bound name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
        annotation = (node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else getattr(node, "annotation", None))
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in used]
    assert unused == []

"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import gbcsp

# Imported for outside readers and not used in the module: perfbench wraps
# harness.sample_instance and reaches uc.is_consistent by name.
RE_EXPORTS = {("harness", "sample_instance"), ("uc", "is_consistent")}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(gbcsp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the package's re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in names
                       if name not in used and (path.stem, name) not in RE_EXPORTS]
    assert unused == []

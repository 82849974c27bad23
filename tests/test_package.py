"""The package's names: its public exports and its private helpers."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import glottisim

SRC = Path(glottisim.__file__).parent


def test_every_export_resolves_once():
    names = glottisim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(glottisim, name)]
    assert missing == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt):
    """The names a module-level statement binds by def, class or =."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for t in targets for node in ast.walk(t)
                if isinstance(node, ast.Name)]
    return []


def _used(stmt):
    """The names a statement reads, as a name, an attribute or an import."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_module_name_is_used():
    # a helper left behind by a deletion is referenced by no statement of
    # the package other than its own definition
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    orphans = []
    for module, stmt in statements:
        for name in filter(_is_private, _defined(stmt)):
            if not any(name in _used(other)
                       for _, other in statements if other is not stmt):
                orphans.append(f"{module}: {name}")
    assert orphans == []


# What `import glottisim` may load beyond numpy and its own modules.  A fresh
# import is the set-up of every CLI call, so a module added here is paid by
# each of them.
_IMPORTED_WITH_THE_PACKAGE = {"__future__", "copy", "dataclasses"}


def test_import_loads_only_the_package_after_numpy():
    code = ("import sys, numpy; before = set(sys.modules); import glottisim; "
            "print(sorted(set(sys.modules) - before))")
    child = subprocess.run([sys.executable, "-c", code],
                           env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    loaded = ast.literal_eval(child.stdout)
    assert "glottisim.network" in loaded
    assert [m for m in loaded if m.split(".")[0] != "glottisim"
            and m not in _IMPORTED_WITH_THE_PACKAGE] == []

"""The package namespace: __all__ and the public names __init__ imports agree,
importing the package pulls in no SciPy, and no private module-level name is
left unused."""

import ast
import collections
import inspect
import os
import pathlib
import subprocess
import sys

import bridgelab


def test_all_resolves_and_lists_every_public_import():
    assert [name for name in bridgelab.__all__ if not hasattr(bridgelab, name)] == []
    assert len(set(bridgelab.__all__)) == len(bridgelab.__all__)
    public = {
        name for name, obj in vars(bridgelab).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert sorted(public - set(bridgelab.__all__)) == []


def test_import_loads_no_scipy():
    """The package and its CLI run on NumPy alone; SciPy is a test-only oracle."""
    probe = (
        "import sys, bridgelab, bridgelab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bridgelab.__file__))},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def _references(node):
    """Every name read under node: loaded identifiers and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_module_name_is_used():
    """A module-level function, class or assignment named _x is read somewhere
    in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(bridgelab.__file__).parent.glob("*.py"))}
    uses = collections.Counter(name for tree in trees.values() for name in _references(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = collections.Counter(_references(node))
            unused += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and uses[name] == own[name]]
    assert unused == []

"""The package namespace: __all__ and the public names __init__ imports agree,
and importing the package pulls in no SciPy."""

import inspect
import os
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

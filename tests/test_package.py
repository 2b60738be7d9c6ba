"""The package namespace: __all__ and the public names __init__ imports agree."""

import inspect

import bridgelab


def test_all_resolves_and_lists_every_public_import():
    assert [name for name in bridgelab.__all__ if not hasattr(bridgelab, name)] == []
    assert len(set(bridgelab.__all__)) == len(bridgelab.__all__)
    public = {
        name for name, obj in vars(bridgelab).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    }
    assert sorted(public - set(bridgelab.__all__)) == []

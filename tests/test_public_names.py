"""Every name a momentforge module exports in ``__all__`` exists."""

import importlib
import pkgutil

import momentforge


def test_every_exported_name_resolves():
    modules = [momentforge] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(momentforge.__path__, "momentforge.")
        if info.name != "momentforge.__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10
    assert not missing, missing

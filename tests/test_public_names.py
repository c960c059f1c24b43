"""The names momentforge exports: each exists, each is used outside its module, each traced layer resolves."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import momentforge

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    return [momentforge] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(momentforge.__path__, "momentforge.")
        if info.name != "momentforge.__main__"
    ]


def _layers():
    """``benchmarks/tracing.py``'s LAYERS as (module, attribute) pairs."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for _, module, attribute, *_ in tracing.LAYERS]


def _used_names(module) -> set[tuple[str, str]]:
    """(module, name) pairs that ``module``'s source takes from other momentforge modules.

    A name counts when it is imported from its module, or read as an
    attribute of a name bound to that module by an import.
    """
    tree = ast.parse(Path(module.__file__).read_text())
    bound = {}  # local name -> dotted path it was imported as
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                used.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            used.add((bound[node.value.id], node.attr))
    return used


def test_every_exported_name_resolves():
    modules = _modules()
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10
    assert not missing, missing


def test_every_traced_layer_resolves():
    # the tracer replaces each (module, attribute) by getattr; a missing name fails only a traced run
    layers = _layers()
    missing = []
    for module_name, attribute in layers:
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attribute}")
    assert len(layers) > 20
    assert not missing, missing


def test_every_exported_name_is_used_outside_its_module():
    # a submodule exports what another momentforge module (the CLI included) or the tracer reaches
    modules = _modules()
    used = {(module_name, attribute.split(".")[0]) for module_name, attribute in _layers()}
    for module in modules:
        used |= {(owner, name) for owner, name in _used_names(module) if owner != module.__name__}
    unused = [
        f"{module.__name__}.{name}"
        for module in modules[1:]
        for name in getattr(module, "__all__", ())
        if (module.__name__, name) not in used
    ]
    assert not unused, unused

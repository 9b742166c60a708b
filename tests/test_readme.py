"""Every `Class.attr` and `module.func` the top-level README names exists.

A rename in catgraph that the README does not follow fails here instead of
leaving the README describing code that is gone.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import catgraph

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_SUFFIXES = {"py", "md", "json", "toml", "txt"}


def _modules():
    """The package and each of its public modules (not `__main__`)."""
    return [catgraph] + [importlib.import_module(f"catgraph.{info.name}")
                         for info in pkgutil.iter_modules(catgraph.__path__)
                         if not info.name.startswith("_")]


def _resolves(name: str, modules) -> bool:
    """Whether `name`, less a leading `catgraph.`, is an attribute path
    from the package or from one of its modules."""
    parts = name.split(".")
    if parts[0] == "catgraph":
        parts = parts[1:]
    missing = object()
    for obj in modules:
        for part in parts:
            obj = getattr(obj, part, missing)
            if obj is missing:
                break
        else:
            return True
    return False


def test_readme_names_resolve_on_the_package():
    names = [name for name in DOTTED.findall(README.read_text())
             if name.rsplit(".", 1)[1] not in FILE_SUFFIXES]
    assert "RegisterFile.span_values" in names
    modules = _modules()
    stale = [name for name in names if not _resolves(name, modules)]
    assert not stale, f"README names what catgraph lacks: {stale}"

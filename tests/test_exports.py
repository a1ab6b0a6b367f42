"""The package top level binds exactly the names that are read through it:
the README's library example and ``perfbench``.  Every other name is
imported from its module."""

import ast
import re
from pathlib import Path

import waverep

ROOT = Path(__file__).resolve().parents[1]


def _readme_imports() -> set[str]:
    """The names of the README's ``from waverep import (...)`` snippet."""
    snippet = re.search(r"^from waverep import \(([^)]*)\)", (ROOT / "README.md").read_text(), re.M)
    return set(re.findall(r"\w+", snippet.group(1)))


def _perfbench_reads() -> set[str]:
    """Every ``waverep.<name>`` that ``perfbench``'s code reads (docstrings that
    name a module are not reads)."""
    return {node.attr for path in (ROOT / "perfbench").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "waverep"}


def _bound_names() -> set[str]:
    """The names that ``waverep/__init__.py`` binds, other than dunders."""
    tree = ast.parse(Path(waverep.__file__).read_text())
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    return {name for name in names if not name.startswith("__")}


def test_package_binds_exactly_what_is_read_through_it():
    read = _readme_imports() | _perfbench_reads()
    assert _bound_names() == read
    assert all(hasattr(waverep, name) for name in read)

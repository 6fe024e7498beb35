"""No module of the package reads a private name of a sibling module."""

import ast
from pathlib import Path

import vvcodec

PACKAGE_DIR = Path(vvcodec.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list[str]:
    """`from .x import _y` and `x._y` reads of sibling modules, in order."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        own = node.level > 0 or (node.module or "").split(".")[0] == "vvcodec"
        if not own:
            continue
        module = (node.module or "").rpartition(".")[2]
        for alias in node.names:
            if module in SIBLINGS:
                if _is_private(alias.name):
                    found.append(f"from {module} import {alias.name}")
            elif alias.name in SIBLINGS:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_guard_catches_both_forms():
    source = (
        "from . import vvar\n"
        "from .imaging import _DIGIT_ROW, PixelImage\n"
        "grid = vvar._expand_types(grid, table)\n"
        "ok = vvar.decode, vvar.__name__\n"
    )
    assert private_reads(source) == [
        "from imaging import _DIGIT_ROW", "vvar._expand_types"
    ]


def test_no_private_cross_module_reads():
    offenders = {
        path.name: reads
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (reads := private_reads(path.read_text()))
    }
    assert offenders == {}

"""No function or class defined in ``src/`` goes unreferenced.

Parses every Python file of the repository's code directories and
collects each name a function or class definition in ``src/`` binds.  A
name is referenced when it occurs anywhere in those directories other
than as a definition: as a name or attribute in code, in an import, or
as a word of a string that is not a docstring (``__all__``,
``getattr``, the ledger's layer table).  Dunders, and the pickler hooks
that :mod:`pickle` calls by name, are exempt.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "benchmarks", "perfbench", "tools", "examples")
EXEMPT = {"persistent_id", "persistent_load"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    """The constant nodes that are module, class or function docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _scan():
    """``(defined, referenced)``: src definition sites by name, and every
    name referenced anywhere."""
    defined = defaultdict(list)
    referenced = set()
    for top in DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, DEFS) and top == "src":
                    defined[node.name].append(f"{path.relative_to(ROOT)}:{node.lineno}")
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.rpartition(".")[2])
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docs
                ):
                    referenced.update(WORD.findall(node.value))
    return defined, referenced


def test_every_src_definition_is_referenced():
    defined, referenced = _scan()
    dead = sorted(
        f"{site} {name}"
        for name, sites in defined.items()
        if name not in referenced
        and name not in EXEMPT
        and not (name.startswith("__") and name.endswith("__"))
        for site in sites
    )
    assert not dead, "defined in src/ and referenced nowhere: " + ", ".join(dead)

"""The library holds only what a command or the acceptance suite uses.

A public function, class or method of src/thinprimes that no other code of
the package names, and that tests/test_acceptance.py does not name either,
is test-only surface: its reference role belongs in tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

import thinprimes

PACKAGE = Path(thinprimes.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# kept without a consumer in the package, each for the reason given
ALLOWED = {
    "kernel_gap_norm": "ROADMAP item 7 gives it a command consumer",
    "floor_h": "perfbench/tracing.py counts its calls by name",
}


def _names(tree) -> Counter:
    """How often each identifier is read: bare names and attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(tree):
    """Public module-level functions and classes, and public methods of the
    public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def test_no_test_only_surface_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = sum((_names(t) for t in trees), Counter())
    named_by_acceptance = _names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unused = [d.name for t in trees for d in _public_defs(t)
              if used[d.name] - _names(d)[d.name] <= 0
              and d.name not in named_by_acceptance and d.name not in ALLOWED]
    assert unused == [], "named only by tests; move to tests/oracles.py or delete"

"""The library holds only what a command or the acceptance suite uses.

A public function, class or method of src/thinprimes that no other code of
the package reads, and that tests/test_acceptance.py does not read either,
is test-only surface: its reference role belongs in tests/oracles.py.

Reads are told apart by how they are written.  A method counts as read
only where other package code takes it as an attribute (``x.name``); a
bare name of the same spelling, such as a local variable or a builtin,
does not count.  A function or class counts as read by its bare name, or
as an attribute of anything but ``np`` or ``math``, so ``np.convolve``
does not read a function named ``convolve``.  The owner of an attribute
is not resolved: a method that shares its name with another class's
method that is read (``csv_rows``, say) still passes.
"""

import ast
from collections import Counter
from pathlib import Path

import thinprimes

PACKAGE = Path(thinprimes.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
NUMERIC_MODULES = {"np", "math"}

# kept without a consumer in the package, each for the reason given
ALLOWED = {
    "floor_h": "perfbench/tracing.py counts its calls by name",
}


def _reads(tree) -> tuple[Counter, Counter]:
    """(bare-name reads, attribute reads off anything but np and math)."""
    bare, attrs = Counter(), Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            bare[n.id] += 1
        elif isinstance(n, ast.Attribute) and not (
                isinstance(n.value, ast.Name) and n.value.id in NUMERIC_MODULES):
            attrs[n.attr] += 1
    return bare, attrs


def _public_defs(tree):
    """(node, is_method): public module-level functions and classes, and
    public methods of the public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((m, True) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def _unused(trees, readers=(), allowed=()) -> list[str]:
    """Public defs of trees that nothing outside their own body reads, in
    trees or in readers."""
    reads = [_reads(t) for t in [*trees, *readers]]
    bare = sum((b for b, _ in reads), Counter())
    attrs = sum((a for _, a in reads), Counter())
    out = []
    for tree in trees:
        for d, is_method in _public_defs(tree):
            own_bare, own_attrs = _reads(d)
            uses = attrs[d.name] - own_attrs[d.name]
            if not is_method:
                uses += bare[d.name] - own_bare[d.name]
            if uses <= 0 and d.name not in allowed:
                out.append(d.name)
    return out


def test_no_test_only_surface_in_src():
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    unused = _unused(trees, [acceptance], ALLOWED)
    assert unused == [], "named only by tests; move to tests/oracles.py or delete"


def test_reads_are_told_apart_by_kind():
    tree = ast.parse(
        "import numpy as np\n"
        "def convolve(a): return np.convolve(a, a)\n"
        "def used(): return 1\n"
        "class Signal:\n"
        "    def abs(self): return self\n"
        "    def delta(self): return self.abs()\n"
        "def run(delta):\n"
        "    return abs(delta), used()\n")
    # delta is read only as run's bare parameter, convolve as np.convolve
    assert _unused([tree]) == ["convolve", "Signal", "delta", "run"]

"""Only the engine's run loop moves the virtual clock.

``Simulator.now`` is a plain attribute (reading it is on every hot
path), so nothing stops other code from assigning it — except this
test: no module outside ``simulation/engine.py`` may assign to an
attribute named ``now``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
ENGINE = ROOT / "src" / "repro" / "simulation" / "engine.py"
TREES = ("src", "tests", "benchmarks", "examples")


def _targets(node):
    if isinstance(node, (ast.Assign,)):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        yield node.target
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        yield node.optional_vars
    elif isinstance(node, ast.NamedExpr):
        yield node.target


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def now_assignments(source: str, name: str):
    """``name:line`` of every assignment to ``<anything>.now``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        for target in _targets(node):
            for leaf in _flatten(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                    found.append("%s:%d" % (name, leaf.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "now"
        ):
            found.append("%s:%d" % (name, node.lineno))
    return found


def test_detector_finds_assignments():
    source = (
        "sim.now = 1\n"
        "a.now += 2\n"
        "x, (y, b.now) = 1, (2, 3)\n"
        "setattr(sim, 'now', 4)\n"
        "for c.now in []: pass\n"
        "t = sim.now\n"
    )
    assert sorted(now_assignments(source, "m")) == ["m:1", "m:2", "m:3", "m:4", "m:5"]


def test_only_the_engine_assigns_now():
    offenders = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path == ENGINE:
                continue
            offenders += now_assignments(
                path.read_text(), str(path.relative_to(ROOT))
            )
    assert offenders == []

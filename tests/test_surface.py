"""The library holds only what it runs: every module-level public function,
class and constant of ``src/twodirac`` is read somewhere in ``src/`` besides
its own definition, or is exported through ``twodirac.__all__``.  A helper
that only tests call belongs under ``tests/``.  And importing the CLI loads
only what a cold start needs: neither ``dataclasses`` nor ``inspect``."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import twodirac

SRC = Path(twodirac.__file__).parent


def _definitions(tree: ast.Module):
    """The public names bound at module level, with the nodes binding them."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(node: ast.AST) -> Counter:
    """The names read under node, as variables or as attributes; an import
    is not a read."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)))


def test_every_public_name_is_used_in_src_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    # a definition's own body (a recursive call, a class's methods) is no use
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name, node in _definitions(tree)
              if not name.startswith("_") and name not in twodirac.__all__
              and reads[name] == _reads(node)[name]]
    assert unused == []


def _modules_after(imports: str) -> set:
    """The module names a fresh interpreter holds after running imports."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{imports}\nprint(*sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every run starts cold, and ``dataclasses`` with the ``inspect`` it
    pulls in was most of the package's import time: records are
    ``typing.NamedTuple``s and values ``__slots__`` classes instead."""
    added = _modules_after("import twodirac.cli, twodirac.report") - _modules_after("")
    assert {"twodirac.cli", "twodirac.report"} <= added
    assert not added & {"dataclasses", "inspect"}
    assert [p.name for p in sorted(SRC.glob("*.py")) if "dataclass" in p.read_text()] == []

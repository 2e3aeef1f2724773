"""Source hygiene: no module in src/ or tests/ imports a name it never uses,
and no module-level function or class in src/ goes unreferenced.

An import left behind when the code that used it is deleted is read as a
dependency that is not there.  The scan is a stdlib `ast` pass: a name bound by
an import must appear somewhere else in the module, as a name, as the root of
an attribute, in a string annotation, or in `__all__`.  Package `__init__.py`
files are skipped, because their imports are the package's exports.

A definition nothing names is a copy left behind, or dead code.  The second
scan looks for the name of each module-level function and class of src/, as
a whole word, in every Python file of src/, tests/ and perfbench/: it must
appear somewhere besides its own definition.
"""

import ast
import collections
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations and `__all__` included."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                        if isinstance(m, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            out |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.relative_to(ROOT)}: unused imports {unused}"


SOURCES = sorted((ROOT / "src").rglob("*.py"))


@functools.lru_cache(maxsize=None)
def _word_counts() -> collections.Counter:
    """How often each whole word appears in the Python files of src, tests and perfbench."""
    return collections.Counter(w for d in ("src", "tests", "perfbench")
                               for p in (ROOT / d).rglob("*.py")
                               for w in re.findall(r"\w+", p.read_text()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_definitions(path):
    defined = [(node.lineno, node.name) for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    lone = [(line, name) for line, name in defined if _word_counts()[name] < 2]
    assert not lone, f"{path.relative_to(ROOT)}: names used nowhere else {lone}"

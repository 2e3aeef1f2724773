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

A memo table over a module-level function of src/ lives as long as the
process, so the third scan requires a finite maxsize of each one whose
function takes parameters.

python -O drops assert statements, so a check stated as one passes there
whatever it finds; the fourth scan refuses any assert statement in src/.
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


def _unbounded_memo(dec: ast.expr) -> bool:
    """Whether a decorator is functools.cache or an lru_cache with maxsize None."""
    name = ast.unparse(dec.func if isinstance(dec, ast.Call) else dec).rsplit(".", 1)[-1]
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(dec, ast.Call):
        return False  # a bare lru_cache keeps 128 entries
    size = dec.args[0] if dec.args else next(
        (k.value for k in dec.keywords if k.arg == "maxsize"), ast.Constant(128))
    return isinstance(size, ast.Constant) and size.value is None


def _has_parameters(node: ast.FunctionDef) -> bool:
    args = node.args
    return bool(args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_level_memo_tables_are_bounded(path):
    # a process-wide table over a function's arguments grows with every new
    # argument a long-lived process passes, unless it has a finite maxsize
    unbounded = [(node.lineno, node.name) for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef) and _has_parameters(node)
                 and any(map(_unbounded_memo, node.decorator_list))]
    assert not unbounded, f"{path.relative_to(ROOT)}: unbounded memo tables {unbounded}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statements(path):
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"{path.relative_to(ROOT)}: assert statements at lines {found}"

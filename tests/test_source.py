"""Checks on the shape of the package's source, read with ``ast``."""

import ast
import builtins
from pathlib import Path

import pytest

from midnightq import SolverError

SOURCES = sorted((Path(__file__).parents[1] / "src" / "midnightq").glob("*.py"))
# ROADMAP item 9: every addition to src/ is paid for by a deletion.
SRC_LINE_CEILING = 2140


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter, bar ``self`` and ``cls``,
    that is not a name anywhere in its function's body."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        names = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        unread += [f"{name}({p.arg})" for p in params
                   if p is not None and p.arg not in ("self", "cls") and p.arg not in names]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    """No function takes an argument that it ignores.

    A parameter read only by a check in the body counts as read, as
    ``proxy_density``'s ``mu`` is: this test cannot see that the result
    does not depend on it.
    """
    assert unread_parameters(path.read_text()) == []


def test_an_ignored_parameter_is_found():
    source = "def f(a, b, *, c=1):\n    return a + (lambda d: c)(b)\n"
    assert unread_parameters(source) == ["lambda(d)"]


def exception_classes(sources: dict[str, str]) -> list[str]:
    """``file:Class`` for each class that derives, through classes of
    ``sources`` or directly, from a builtin exception."""
    classes = [(name, node) for name, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    known = {name for name, kind in vars(builtins).items()
             if isinstance(kind, type) and issubclass(kind, BaseException)}
    found: list[str] = []
    while True:
        new = [(name, node) for name, node in classes if node.name not in known
               and any(ast.unparse(base).rsplit(".", 1)[-1] in known for base in node.bases)]
        if not new:
            return sorted(found)
        known |= {node.name for _, node in new}
        found += [f"{name}:{node.name}" for name, node in new]


def foreign_raises(source: str) -> list[str]:
    """Each ``raise`` that raises neither ValueError nor SolverError and
    is not a bare re-raise."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(raised).rsplit(".", 1)[-1] not in ("ValueError", "SolverError"):
                found.append(ast.unparse(node))
    return found


def solver_error_handlers(sources: dict[str, str]) -> list[str]:
    """``file:function`` around each ``except`` that catches SolverError:
    by name, by one of its bases, or bare."""
    catching = {kind.__name__ for kind in SolverError.__mro__}
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                kinds = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = {ast.unparse(kind).rsplit(".", 1)[-1] for kind in kinds if kind}
                if child.type is None or names & catching:
                    found.append(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split(':')[0]}:{child.name}")
            else:
                visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), f"{name}:<module>")
    return found


PACKAGE = {path.name: path.read_text() for path in SOURCES}


def test_one_exception_class():
    """A route that gives no answer raises model.SolverError; the package
    defines no other exception."""
    assert exception_classes(PACKAGE) == ["model.py:SolverError"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_is_a_refusal_or_a_solver_failure(path):
    """cli.main maps ValueError to exit 2 and SolverError to exit 3; any
    other exception would end in a traceback."""
    assert foreign_raises(path.read_text()) == []


def test_only_cli_main_catches_solver_errors():
    assert solver_error_handlers(PACKAGE) == ["cli.py:main"]


def test_contract_breaks_are_found():
    sources = {
        "model.py": "class SolverError(RuntimeError):\n    pass\n",
        "chain.py": "class Stalled(SolverError):\n    pass\n"
                    "def solve():\n    try:\n        raise RuntimeError('x')\n"
                    "    except (KeyError, Exception):\n        raise\n"
                    "try:\n    solve()\nexcept:\n    pass\n",
    }
    assert exception_classes(sources) == ["chain.py:Stalled", "model.py:SolverError"]
    assert foreign_raises(sources["chain.py"]) == ["raise RuntimeError('x')"]
    assert solver_error_handlers(sources) == ["chain.py:solve", "chain.py:<module>"]


# The compiled kernels src/ calls, the ones ROADMAP item 22's loader is to load.
SCIPY_MODULES = {"scipy.linalg.blas", "scipy.linalg.lapack", "scipy.special"}
SCIPY_KERNELS = {"dgbmv", "dgemv", "dsymv", "dsyrk", "dgbsv", "dpocon", "dpotrs", "dpstrf",
                 "gammaln", "ndtr"}


def scipy_imports(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each name ``sources`` import from scipy, and
    (module, "") of each plain ``import scipy...``."""
    found = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found += [(alias.name, "") for alias in node.names
                          if alias.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_scipy_is_imported_for_its_compiled_kernels_alone():
    found = scipy_imports(PACKAGE)
    assert {module for module, _ in found} <= SCIPY_MODULES
    assert {name for _, name in found} == SCIPY_KERNELS


def test_other_scipy_imports_are_found():
    source = "import numpy, scipy.linalg\nfrom scipy.linalg import eigh\nfrom . import model\n"
    assert scipy_imports({"x.py": source}) == [("scipy.linalg", ""), ("scipy.linalg", "eigh")]


def private_reads(sources: dict[str, str]) -> list[str]:
    """``file:line:module._name`` for each underscore name a file takes from
    another module of the package: by ``from .module import _name``, or as
    ``alias._name`` where ``from . import module as alias`` bound ``alias``."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.append(f"{name}:{node.lineno}:{node.module}.{alias.name}")
        found += [f"{name}:{node.lineno}:{modules[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    """The policies every route shares live under public names in model.py."""
    assert private_reads(PACKAGE) == []


def test_private_reads_are_found():
    source = ("import os\nfrom .chain import _tails, build_kernel\n"
              "from . import chain as chain_mod, model\n"
              "x = chain_mod._TAIL, chain_mod.build_kernel, model._budget(), os._exit\n")
    assert private_reads({"x.py": source}) == [
        "x.py:2:chain._tails", "x.py:4:chain._TAIL", "x.py:4:model._budget"]


def test_src_stays_within_its_line_ceiling():
    """Counted as perfbench/worker.py counts ``src_lines``: every line of
    every ``*.py`` file under src/."""
    src = Path(__file__).parents[1] / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    assert lines <= SRC_LINE_CEILING

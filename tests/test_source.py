"""Checks on the shape of the package's source, read with ``ast``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "midnightq").glob("*.py"))


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

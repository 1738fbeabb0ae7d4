"""Small arithmetic expression grammar for scenario files.

Load and initial-data fields accept strings over the variables ``x``, ``y``,
``t`` with ``+ - * / **``, parentheses, the constant ``pi`` and the functions
``sin``, ``cos``, ``exp``, ``min``, ``max``, ``abs``.  Expressions are parsed
into the Python AST and compiled against a whitelist; nothing outside the
grammar can execute.

A compiled expression in ``t`` that is a sum of products
``g_i(t) * F_i(x, y)`` also carries these terms, so a load can assemble each
``F_i`` once per run.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


class ExpressionError(ValueError):
    """Expression outside the supported grammar."""


def _names(node, variables) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & variables


def _join(a, op, b):
    """``a op b`` of two factors, where None stands for the factor 1."""
    if b is None:
        return a
    if a is None and isinstance(op, ast.Mult):
        return b
    return ast.BinOp(left=ast.Constant(1.0) if a is None else a, op=op, right=b)


def _terms(node, variables):
    """``node`` as a list of terms ``(g, F)`` whose sum it is, ``g`` a factor
    in ``t`` alone (or constant) and ``F`` one free of ``t``, each an AST node
    or None for 1; None when sums, differences, products and quotients do not
    split it so (``sin(x * t)``, ``(x + t) ** 2``, ``x / (2 + x + t)``)."""
    names = _names(node, variables)
    if "t" not in names:
        return [(None, node)] if names else [(node, None)]
    if names == {"t"}:
        return [(node, None)]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        terms = _terms(node.operand, variables)
        if terms is None or isinstance(node.op, ast.UAdd):
            return terms
        return [(_join(ast.Constant(-1.0), ast.Mult(), g), F) for g, F in terms]
    if not (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))):
        return None
    left, right = _terms(node.left, variables), _terms(node.right, variables)
    if left is None or right is None:
        return None
    if isinstance(node.op, ast.Add):
        return left + right
    if isinstance(node.op, ast.Sub):
        return left + [(_join(ast.Constant(-1.0), ast.Mult(), g), F) for g, F in right]
    if isinstance(node.op, ast.Div) and len(right) > 1:
        return None
    return [(_join(ga, node.op, gb), _join(Fa, node.op, Fb))
            for ga, Fa in left for gb, Fb in right]


def _compile_node(node, variables):
    if isinstance(node, ast.Constant):
        # True and False are ints to Python, but no numbers here
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            val = float(node.value)
            return lambda env: val
        raise ExpressionError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return lambda env: np.pi
        if node.id in variables:
            name = node.id
            return lambda env: env[name]
        raise ExpressionError(f"unknown name '{node.id}' (variables: {sorted(variables)})")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _compile_node(node.operand, variables)
        if isinstance(node.op, ast.USub):
            return lambda env: -inner(env)
        return inner
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile_node(node.left, variables)
        right = _compile_node(node.right, variables)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sin, cos, exp, min, max, abs may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not supported")
        fn = _FUNCTIONS[node.func.id]
        args = [_compile_node(a, variables) for a in node.args]
        if node.func.id in ("min", "max"):
            if len(args) < 2:
                raise ExpressionError(f"{node.func.id} needs at least two arguments")

            def call(env, fn=fn, args=args):
                out = fn(args[0](env), args[1](env))
                for a in args[2:]:
                    out = fn(out, a(env))
                return out

            return call
        if len(args) != 1:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        return lambda env: fn(args[0](env))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node, annotate_fields=False)}")


def compile_expression(source, variables=("x", "y", "t")):
    """Compile ``source``, a string or a number (the constant expression),
    into ``f(*vars) -> array``.

    The returned callable broadcasts over array-valued variables and accepts
    them positionally, in the order of ``variables``, or by name.  Each call
    evaluates the whole expression on the values it is given, so it sees any
    change made to an array in place since the last call.

    When ``t`` is a variable and the expression is a sum of products
    ``g_i(t) * F_i`` of a factor in ``t`` alone and one free of ``t``, the
    callable's ``terms`` attribute holds the pairs ``(g_i, F_i)``, each
    called with its variables by name; otherwise ``terms`` is None.  Their
    sum equals the expression up to rounding, as it reorders products.
    """
    variables = tuple(variables)
    if isinstance(source, (int, float)) and not isinstance(source, bool):
        body = ast.Constant(source)
    elif isinstance(source, str):
        try:
            body = ast.parse(source, mode="eval").body
        except SyntaxError as exc:
            raise ExpressionError(f"invalid expression {source!r}: {exc.msg}") from exc
    else:
        raise ExpressionError("expected a number or expression string, got "
                              f"{type(source).__name__}")
    fn = _compile_node(body, frozenset(variables))

    def evaluate(*args, **env):
        env.update(zip(variables, args))
        unknown = set(env) - set(variables)
        if unknown:
            raise ExpressionError(f"unexpected variables {sorted(unknown)}")
        out = fn(env)
        if env:
            out = np.broadcast_arrays(*(list(env.values()) + [np.asarray(out, float)]))[-1]
        return out

    terms = _terms(body, frozenset(variables)) if "t" in variables else None
    space = tuple(v for v in variables if v != "t")
    evaluate.terms = None if terms is None else tuple(
        (_factor(g, ("t",)), _factor(F, space)) for g, F in terms)
    return evaluate


def _factor(node, variables):
    """``node`` compiled to ``f(**vars)``; None compiles to the constant 1."""
    if node is None:
        return lambda **env: 1.0
    fn = _compile_node(node, frozenset(variables))
    return lambda **env: fn(env)

"""A small closed-form expression language for potentials and initial data.

Grammar (standard precedence, unary minus binds tighter than ``*``/``/``,
binary operators associate left):

    expr   := term  (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | NAME '(' expr (',' expr)* ')' | VAR | '(' expr ')'

Variables are ``x1``..``x3``; functions are ``sin cos exp sqrt abs`` (one
argument) and ``min max`` (two).  Parse errors carry the byte offset.  An
expression nested more than ``_MAX_DEPTH`` levels deep (every operator,
call and pair of parentheses is a level) is a parse error, so parsing,
evaluation and printing never recurse deeper than that.
"""

from __future__ import annotations

import operator
import re

import numpy as np

__all__ = ["ParseError", "parse_expr", "eval_expr", "expr_to_text"]


class ParseError(ValueError):
    """Syntax or arity error, with the byte offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}
_VARIABLES = ("x1", "x2", "x3")
_BINARY = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})   # by rising precedence
_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv}
_MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        lexeme = m.group(kind)
        tokens.append((kind, float(lexeme) if kind == "num" else lexeme, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0   # levels the parser is inside of, counted on the way down

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def nested(self, depth: int, pos: int) -> int:
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", pos)
        return depth

    def inner(self, parse, pos: int):
        """``parse()`` one level further in, as ``(node, tree height)``."""
        self.depth = self.nested(self.depth + 1, pos)
        node, height = parse()
        self.depth -= 1
        return node, self.nested(height + 1, pos)

    def parse(self):
        node, _ = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    # each rule returns its syntax tree and the tree's height

    def expr(self, level: int = 0):
        """A left-associative chain of the operators of ``_BINARY[level]``."""
        operand = self.factor if level + 1 == len(_BINARY) else lambda: self.expr(level + 1)
        node, height = operand()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in _BINARY[level]:
                return node, height
            self.advance()
            rhs, h = operand()
            node, height = (_BINARY[level][val], node, rhs), self.nested(max(height, h) + 1, pos)

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node, height = self.inner(self.factor, pos)
            return ("neg", node), height
        return self.atom()

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return ("num", val), 1
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                args, height = self.inner(self.arguments, pos)
                arity = _FUNCTIONS[val][0]
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument(s), got {len(args)}", pos)
                return ("call", val, args), height
            if val in _VARIABLES:
                return ("var", val), 1
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node, height = self.inner(self.expr, pos)
            self.expect_op(")")
            return node, height
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)

    def arguments(self):
        """A call's arguments through its closing ``)``, and their greatest height."""
        args = [self.expr()]
        while True:
            kind, val, pos = self.advance()
            if (kind, val) == ("op", ")"):
                return [node for node, _ in args], max(h for _, h in args)
            if (kind, val) != ("op", ","):
                raise ParseError("expected ',' or ')' in argument list", pos)
            args.append(self.expr())


def parse_expr(text: str):
    """Parse an expression into its syntax tree."""
    return _Parser(text).parse()


def eval_expr(node, env: dict):
    """Evaluate on numpy arrays/scalars bound to ``x1``..``x3`` in ``env``.

    Raises on unbound variables; non-finite results (division by zero,
    sqrt of negatives) surface as a ValueError after evaluation.
    """
    try:
        with np.errstate(all="ignore"):
            out = _eval(node, env)
    except ZeroDivisionError:
        raise ValueError("expression divides by zero") from None
    if not np.all(np.isfinite(out)):
        raise ValueError("expression produced non-finite values on the sample points")
    return out


def _eval(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        if node[1] not in env:
            raise ValueError(f"variable {node[1]} is not available on this domain")
        return env[node[1]]
    if kind == "neg":
        return -_eval(node[1], env)
    if kind in _ARITHMETIC:
        return _ARITHMETIC[kind](_eval(node[1], env), _eval(node[2], env))
    fn = _FUNCTIONS[node[1]][1]
    return fn(*[_eval(a, env) for a in node[2]])


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3}


def expr_to_text(node) -> str:
    """Canonical text form; reparses to the same tree."""
    return _to_text(node, 0)


def _to_text(node, parent_prec: int) -> str:
    kind = node[0]
    if kind == "num":
        return repr(node[1])   # shortest exact round-trip
    if kind == "var":
        return node[1]
    if kind == "call":
        return node[1] + "(" + ", ".join(_to_text(a, 0) for a in node[2]) + ")"
    if kind == "neg":
        body = "-" + _to_text(node[1], _PRECEDENCE["neg"])
        return f"({body})" if parent_prec > _PRECEDENCE["neg"] else body
    prec = _PRECEDENCE[kind]
    op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
    left = _to_text(node[1], prec)
    # right operand needs parens at equal precedence (left associativity)
    right = _to_text(node[2], prec + 1)
    body = left + op + right
    return f"({body})" if parent_prec > prec else body

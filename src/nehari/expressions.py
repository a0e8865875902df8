"""A small closed-form expression language for potentials and initial data.

Grammar (standard precedence, unary minus binds tighter than ``*``/``/``,
binary operators associate left):

    expr   := term  (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | NAME '(' expr (',' expr)* ')' | VAR | '(' expr ')'

Variables are ``x1``..``x3``; functions are ``sin cos exp sqrt abs`` (one
argument) and ``min max`` (two).  Parse errors carry the byte offset.
"""

from __future__ import annotations

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
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    elif k2 == "op" and v2 == ")":
                        self.advance()
                        break
                    else:
                        raise ParseError("expected ',' or ')' in argument list", p2)
                arity = _FUNCTIONS[val][0]
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument(s), got {len(args)}", pos)
                return ("call", val, args)
            if val in _VARIABLES:
                return ("var", val)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


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
    if kind == "add":
        return _eval(node[1], env) + _eval(node[2], env)
    if kind == "sub":
        return _eval(node[1], env) - _eval(node[2], env)
    if kind == "mul":
        return _eval(node[1], env) * _eval(node[2], env)
    if kind == "div":
        return _eval(node[1], env) / _eval(node[2], env)
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

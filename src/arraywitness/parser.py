"""Recursive-descent parser for the analyzed C subset.

Concrete syntax: global ``int`` declarations (scalars and 1-D arrays) followed
by a single ``main() { ... }``. A loop or conditional body is one statement,
braced or not; a dangling ``else`` binds to the nearest ``if``, as in C, and
print/parse round trips both forms. The target-form constructs (``nd()``,
``nd(l,u)``, ternaries, guarded ternary assignments, chained assignments)
parse as well so that printed programs round-trip. Every identifier is resolved against the declarations where it is
read, so a name error carries the position of its token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .astnodes import (
    ARRAY_INT,
    PRECEDENCE,
    SCALAR_INT,
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    ChainAssign,
    Const,
    Continue,
    Decl,
    For,
    If,
    Input,
    Nd,
    NdRange,
    Program,
    Read,
    Ternary,
    TernaryAssign,
    Var,
    assign_locs,
    children,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # 'num', 'ident', 'punct', 'eof'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>\+\+|\+=|==|!=|<=|>=|&&|\|\||[-+*/%<>=?:;,(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)

# Every stage after the parser recurses on the syntax tree, and Python's stack
# holds a few hundred levels of it.
MAX_DEPTH = 100

# Literals and array sizes must fit the emitted C's 32-bit ``int``.
INT_MAX = 2**31 - 1

# No identifier may be a C11 keyword (C11 6.4.1) or gcc's GNU ``asm`` and
# ``typeof``, which the emitted C could not declare, nor ``main`` or ``assert``.
KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern float
    for goto if inline int long register restrict return short signed sizeof static
    struct switch typedef union unsigned void volatile while _Alignas _Alignof
    _Atomic _Bool _Complex _Generic _Imaginary _Noreturn _Static_assert
    _Thread_local asm typeof main assert
""".split())


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.kinds: dict[str, str] = {}  # declared name -> SCALAR_INT or ARRAY_INT
        self.loops = 0  # the for statements open around the next token

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("punct", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.error(f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof"
                       else f"expected {text!r}, found end of input")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            self.error(f"expected identifier, found {tok.text!r}")
        return self.next()

    def number(self) -> int:
        """Consume a numeric literal. Its range is checked on the digits, so
        a literal too long for ``int()`` is a parse error as well."""
        tok = self.next()
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > len(str(INT_MAX)) or int(digits) > INT_MAX:
            self.error(f"integer literal exceeds {INT_MAX}", tok)
        return int(digits)

    def error(self, message: str, tok: Token | None = None):
        """Raise at ``tok``, or at the next token when none is given."""
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def resolve(self, tok: Token, kind: str, what: str = "variable") -> str:
        """The identifier at ``tok``, which must name a declared ``kind``;
        ``what`` names the use of a scalar in the error."""
        name, declared = tok.text, self.kinds.get(tok.text)
        if declared is None:
            noun = "array" if kind == ARRAY_INT else "identifier"
            self.error(f"use of undeclared {noun} {name!r}", tok)
        if declared != kind:
            self.error(f"scalar {name!r} cannot be indexed" if kind == ARRAY_INT
                       else f"{what} {name!r} must be a scalar, not an array", tok)
        return name

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        decls: list[Decl] = []
        while self.at("int") or self.at("unsigned"):
            decls.extend(self.declaration())
        self.expect("main")
        self.expect("(")
        self.expect(")")
        body = self.block()
        if self.peek().kind != "eof":
            self.error(f"trailing input after main: {self.peek().text!r}")
        return Program(decls, body)

    def declaration(self) -> list[Decl]:
        self.accept("unsigned")
        self.expect("int")
        decls = []
        while True:
            tok = self.expect_ident()
            name = tok.text
            if name.startswith("__"):  # C11 7.1.3; the emitter's names live there
                self.error(f"identifier {name!r} is reserved", tok)
            if name in self.kinds:
                self.error(f"identifier {name!r} declared more than once", tok)
            if self.accept("["):
                size_tok = self.peek()
                if size_tok.kind != "num":
                    self.error("array size must be a positive integer literal")
                size = self.number()
                self.expect("]")
                if size < 1:
                    self.error("array size must be >= 1", size_tok)
                decls.append(Decl(name, ARRAY_INT, size))
            else:
                decls.append(Decl(name, SCALAR_INT))
            self.kinds[name] = decls[-1].kind
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def block(self) -> Block:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return Block(stmts)

    def statement(self):
        tok = self.peek()
        if self.at("{"):
            return self.block()
        if self.accept("if"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.statement()
            return If(cond, then, self.statement() if self.accept("else") else None)
        if self.accept("for"):
            return self.for_statement()
        if self.accept("assert"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect(";")
            return Assert(cond)
        if self.at("break") or self.at("continue"):
            if not self.loops:
                self.error(f"{tok.text!r} outside a loop")
            self.next()
            self.expect(";")
            return Break() if tok.text == "break" else Continue()
        if self.accept("("):
            # (cond) ? target = value : discard;
            cond = self.expression()
            self.expect(")")
            self.expect("?")
            target = Var(self.resolve(self.expect_ident(), SCALAR_INT))
            self.expect("=")
            value = self.expression()
            self.expect(":")
            discard = self.expression()
            self.expect(";")
            return TernaryAssign(cond, target, value, discard)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return self.assignment()
        self.error(f"unexpected token {tok.text!r}")

    def assignment(self):
        first = self.expect_ident()
        if self.accept("["):
            name = self.resolve(first, ARRAY_INT)
            index = self.expression()
            self.expect("]")
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return Assign(ArrayAccess(name, index), value)
        self.expect("=")
        tokens = [first]
        while (
            self.peek().kind == "ident"
            and self.peek().text not in KEYWORDS
            and self.peek(1).text == "="
            and self.peek(1).kind == "punct"
        ):
            tokens.append(self.expect_ident())
            self.expect("=")
        what = "variable" if len(tokens) == 1 else "assignment target"
        targets = [self.resolve(tok, SCALAR_INT, what) for tok in tokens]
        value = self.expression()
        self.expect(";")
        if len(targets) == 1:
            return Assign(Var(targets[0]), value)
        return ChainAssign(targets, value)

    def for_statement(self) -> For:
        self.expect("(")
        iterator = self.resolve(self.expect_ident(), SCALAR_INT, "loop iterator")
        self.expect("=")
        init = self.expression()
        self.expect(";")
        test = self.expression()
        self.expect(";")
        step_var = self.expect_ident()
        if step_var.text != iterator:
            self.error(f"loop step must update the iterator {iterator!r}", step_var)
        if self.accept("++"):
            step = BinOp("+", Read(Var(iterator)), Const(1))
        elif self.accept("+="):
            amount = self.peek()
            if amount.kind != "num":
                self.error("expected integer literal after '+='")
            step = BinOp("+", Read(Var(iterator)), Const(self.number()))
        else:
            self.expect("=")
            step = self.expression()
        self.expect(")")
        self.loops += 1
        body = self.statement()
        self.loops -= 1
        return For(iterator, init, test, step, body)

    # -- expressions -------------------------------------------------------

    def expression(self):
        return self.ternary()

    def ternary(self):
        cond = self.binary()
        if self.accept("?"):
            then = self.expression()
            self.expect(":")
            orelse = self.ternary()
            return Ternary(cond, then, orelse)
        return cond

    def binary(self, min_prec: int = 1):
        """Precedence climbing over ``PRECEDENCE``: a chain of operators that
        bind at least as tightly as ``min_prec``, grouped to the left."""
        expr = self.primary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.text, 0) if tok.kind == "punct" else 0
            if prec < min_prec:
                return expr
            self.next()
            expr = BinOp(tok.text, expr, self.binary(prec + 1))

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            return Const(self.number())
        if self.accept("("):
            expr = self.expression()
            self.expect(")")
            return expr
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.next().text
            if name == "nd" and self.at("("):
                self.expect("(")
                if self.accept(")"):
                    return Nd()
                lo = self.expression()
                self.expect(",")
                hi = self.expression()
                self.expect(")")
                return NdRange(lo, hi)
            if name in ("input", "user_input") and self.at("("):
                self.expect("(")
                self.expect(")")
                return Input()
            if self.accept("["):
                name = self.resolve(tok, ARRAY_INT)
                index = self.expression()
                self.expect("]")
                return Read(ArrayAccess(name, index))
            return Read(Var(self.resolve(tok, SCALAR_INT)))
        self.error(f"expected expression, found {tok.text!r}")


def _check_depth(p: Program) -> None:
    """Bound the tree's depth. Operator chains are built in a loop, so the
    parser's own recursion does not bound it."""
    stack = [(p.body, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"program nested more than {MAX_DEPTH} levels deep", 0, 0)
        stack += [(c, depth + 1) for c in children(node)]


def parse(source: str) -> Program:
    """Parse source text into a located, name-resolved :class:`Program`."""
    parser = _Parser(tokenize(source))
    try:
        p = parser.program()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("program nested too deeply to parse", tok.line, tok.col) from None
    _check_depth(p)
    return assign_locs(p)

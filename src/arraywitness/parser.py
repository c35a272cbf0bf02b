"""Recursive-descent parser for the analyzed C subset.

Concrete syntax: global ``int`` declarations (scalars and 1-D arrays) followed
by a single ``main() { ... }``. A loop or conditional body is one statement,
braced or not; a dangling ``else`` binds to the nearest ``if``, as in C, and
print/parse round trips both forms. The target-form constructs (``nd()``,
``nd(l,u)``, ternaries, guarded ternary assignments, chained assignments)
parse as well so that printed programs round-trip. Every identifier is
resolved against the declarations where it is read, so a name error carries
the position of its token, and a tree deeper than ``MAX_DEPTH`` is refused at
the first token of its first node past the limit.
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
    walk,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @classmethod
    def at(cls, message: str, source: str, pos: int) -> "ParseError":
        """The error at offset ``pos`` of ``source``."""
        return cls(message, source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos))


@dataclass(slots=True)
class Token:
    kind: str  # 'num', 'ident', 'punct', 'eof'
    text: str
    pos: int  # offset in the source; an error there finds its line and column

    def __str__(self) -> str:  # how an error names the token
        return "end of input" if self.kind == "eof" else repr(self.text)


# Whitespace and comments match no named group, and any character that starts
# no token matches ``bad``. ASCII only, as in C: a Unicode digit, space or
# letter is an unexpected character.
_TOKEN_RE = re.compile(
    r"""
    \s+ | //[^\n]* | /\*.*?\*/
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>\+\+|\+=|==|!=|<=|>=|&&|\|\||[-+*/%<>=?:;,(){}\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,
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
    """The tokens of ``source``, ending in one ``eof`` token, from one pass
    that skips whitespace and comments."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is not None:
            if kind == "bad":
                raise ParseError.at(f"unexpected character {m.group()!r}", source, m.start())
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0
        self.kinds: dict[str, str] = {}  # declared name -> SCALAR_INT or ARRAY_INT
        self.loops = 0  # the for statements open around the next token

    # -- token plumbing ----------------------------------------------------

    # The trailing eof token keeps ``self.i`` on a token: no caller consumes
    # it, and ``peek(1)`` is only asked for after an identifier.
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def at(self, text: str) -> bool:
        return self.tokens[self.i].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.i].text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.i]
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok}")
        self.i += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            self.error(f"expected identifier, found {tok}")
        return self.next()

    def number(self) -> int:
        """Consume a decimal literal. Its range is checked on the digits, so
        a literal too long for ``int()`` is a parse error as well. A leading
        zero would make it octal in C, which is refused."""
        tok = self.next()
        text = tok.text
        if text[0] == "0" and len(text) > 1:
            self.error("octal literals are not supported", tok)
        if len(text) > len(str(INT_MAX)) or int(text) > INT_MAX:
            self.error(f"integer literal exceeds {INT_MAX}", tok)
        return int(text)

    def error(self, message: str, tok: Token | None = None):
        """Raise at ``tok``, or at the next token when none is given."""
        raise ParseError.at(message, self.source, (tok or self.peek()).pos)

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
        if self.at("unsigned"):  # the oracle and the emitted C model only signed int
            self.error("unsigned types are not supported")
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
        pos = self.expect("{").pos
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return Block(stmts, pos)

    def statement(self):
        tok = self.peek()
        if self.at("{"):
            return self.block()
        if self.accept("if"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.statement()
            return If(cond, then, self.statement() if self.accept("else") else None, tok.pos)
        if self.at("for"):
            return self.for_statement()
        if self.accept("assert"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect(";")
            return Assert(cond, tok.pos)
        if self.at("break") or self.at("continue"):
            if not self.loops:
                self.error(f"{tok.text!r} outside a loop")
            self.next()
            self.expect(";")
            return Break(tok.pos) if tok.text == "break" else Continue(tok.pos)
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
            return TernaryAssign(cond, target, value, discard, tok.pos)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return self.assignment()
        self.error(f"expected statement, found {tok}")

    def assignment(self):
        first = self.expect_ident()
        if self.accept("["):
            name = self.resolve(first, ARRAY_INT)
            index = self.expression()
            self.expect("]")
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return Assign(ArrayAccess(name, index, first.pos), value, first.pos)
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
            return Assign(Var(targets[0], first.pos), value, first.pos)
        return ChainAssign(targets, value, first.pos)

    def for_statement(self) -> For:
        pos = self.next().pos
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
        if self.accept("++"):  # i + 1 and i + c, which begin where the loop does
            step = BinOp("+", Read(Var(iterator, pos), pos), Const(1, pos), pos)
        elif self.accept("+="):
            if self.peek().kind != "num":
                self.error("expected integer literal after '+='")
            step = BinOp("+", Read(Var(iterator, pos), pos), Const(self.number(), pos), pos)
        else:
            self.expect("=")
            step = self.expression()
        self.expect(")")
        self.loops += 1
        body = self.statement()
        self.loops -= 1
        return For(iterator, init, test, step, body, pos)

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
            prec = PRECEDENCE.get(tok.text, 0)
            if prec < min_prec:
                return expr
            self.next()
            expr = BinOp(tok.text, expr, self.binary(prec + 1))

    def primary(self):
        tok = self.peek()
        if tok.kind == "num":
            return Const(self.number(), tok.pos)
        if self.accept("("):
            expr = self.expression()
            self.expect(")")
            return expr
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.next().text
            if name == "nd" and self.at("("):
                self.expect("(")
                if self.accept(")"):
                    return Nd(tok.pos)
                lo = self.expression()
                self.expect(",")
                hi = self.expression()
                self.expect(")")
                return NdRange(lo, hi, tok.pos)
            if name in ("input", "user_input") and self.at("("):
                self.expect("(")
                self.expect(")")
                return Input(tok.pos)
            if self.accept("["):
                name = self.resolve(tok, ARRAY_INT)
                index = self.expression()
                self.expect("]")
                return Read(ArrayAccess(name, index, tok.pos), tok.pos)
            return Read(Var(self.resolve(tok, SCALAR_INT), tok.pos), tok.pos)
        self.error(f"expected expression, found {tok}")


def parse(source: str) -> Program:
    """Parse source text into a located, name-resolved :class:`Program`."""
    parser = _Parser(source)
    try:
        p = parser.program()
    except RecursionError:
        raise ParseError.at("program nested too deeply to parse", source, parser.peek().pos) from None
    # Operator chains are built in a loop, so the parser's own recursion does
    # not bound the tree's depth; the numbering walk does. The parser leaves in
    # ``loc`` the offset where a node begins (-1 where its first child does), so
    # the node past the limit, which the walk leaves unnumbered, finds its token.
    try:
        return assign_locs(p, MAX_DEPTH)
    except ValueError as e:
        message, node = e.args
        raise ParseError.at(message, source, next(n.loc for n in walk(node) if n.loc >= 0)) from None

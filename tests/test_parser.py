import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraywitness import ParseError, parse, print_program
from arraywitness.astnodes import (
    PRECEDENCE,
    SCALAR_INT,
    Assert,
    Assign,
    BinOp,
    Block,
    ChainAssign,
    Decl,
    For,
    If,
    Input,
    Nd,
    NdRange,
    Program,
    Read,
    TernaryAssign,
    Var,
    assign_locs,
    clone,
    loops_of,
    walk,
)

from conftest import FIXTURES


@pytest.mark.parametrize(
    "name",
    ["fig1.c", "fig1_small.c", "fig5.c", "fig5_small.c", "fig7.c", "fig7_small.c",
     "fig1_golden.c"],
)
def test_print_parse_round_trip(name):
    p = parse((FIXTURES / name).read_text())
    assert parse(print_program(p)) == p


def test_declarations_and_sizes(fig1):
    decls = {d.name: d for d in fig1.decls}
    assert decls["a_p"].size == 100000
    assert decls["a_q"].size == 100000
    assert decls["i"].size is None
    assert isinstance(decls["k"], Decl)


def test_for_loop_shape(fig1):
    loops = loops_of(fig1)
    assert [l.iterator for l in loops] == ["i", "i"]
    assert all(not l.single_trip for l in loops)


def test_nd_forms_parse():
    p = parse(
        "int x;\nmain() { x = nd(); x = nd(0, 3); }"
    )
    kinds = [type(s.value) for s in p.body.stmts]
    assert kinds == [Nd, NdRange]


def test_input_aliases():
    p = parse("int x;\nmain() { x = input(); x = user_input(); }")
    assert all(isinstance(s.value, Input) for s in p.body.stmts)


def test_chain_assign():
    p = parse("int a, b;\nmain() { a = b = nd(0, 3); }")
    s = p.body.stmts[0]
    assert isinstance(s, ChainAssign)
    assert s.targets == ["a", "b"]


def test_ternary_assign():
    p = parse("int i, j, x;\nmain() { (i == j) ? x = 1 : 0; }")
    s = p.body.stmts[0]
    assert isinstance(s, TernaryAssign)
    assert isinstance(s.target, Var) and s.target.name == "x"


@pytest.mark.parametrize("text", [
    "`unsigned int i;\nmain() { i = 0; }",
    "int x;\n`unsigned int i, a[4];\nmain() { i = 0; }",
], ids=["first", "second"])
def test_unsigned_rejected_at_its_token(text):
    # The oracle and the emitted C would model an unsigned variable as a
    # signed int, and so disagree with a C compiler on its wrap-around.
    _assert_error_at_backquote(text, "unsigned types are not supported")


def test_unknown_name_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse("int i;\nmain() { j = 0; }")


# A backquote marks the offending token; it is not part of the program.
@pytest.mark.parametrize("text, message", [
    ("int i;\nmain() { i = 1 + `k; }", "use of undeclared identifier 'k'"),
    ("int i;\nmain() { i = 0;\n  `b[i] = 1; }", "use of undeclared array 'b'"),
    ("int i, k;\nmain() { i = `k[0]; }", "scalar 'k' cannot be indexed"),
    ("int i;\nint a[4];\nmain() { i = 1 + `a; }",
     "variable 'a' must be a scalar, not an array"),
    ("int i;\nint a[4];\nmain() {\n  for (`a = 0; i < 4; a++) { i = 0; } }",
     "loop iterator 'a' must be a scalar, not an array"),
    ("int i;\nint a[4];\nmain() { i = `a = 0; }",
     "assignment target 'a' must be a scalar, not an array"),
    ("int i;\nint `i[4];\nmain() { i = 0; }", "identifier 'i' declared more than once"),
    # C reads 010 as 8 (C11 6.4.4.1), so a leading zero is refused, not dropped.
    ("int x;\nmain() { x = `010; }", "octal literals are not supported"),
    ("int a[`08];\nmain() { }", "octal literals are not supported"),
    ("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i += `02) { a[i] = 0; } }",
     "octal literals are not supported"),
    # Digits, spaces and letters are ASCII, as gcc reads them.
    ("int x;\nmain() { x = `\u0663; }", "unexpected character '\u0663'"),
    ("int x;\nmain() {`\u00a0x = 0; }", "unexpected character '\\xa0'"),
    ("int x`\u00e9;\nmain() { }", "unexpected character '\u00e9'"),
], ids=["undeclared-scalar", "undeclared-array", "indexed-scalar", "array-read",
        "array-iterator", "array-chain-target", "duplicate", "octal-literal", "octal-size",
        "octal-step", "arabic-indic-digit", "no-break-space", "non-ascii-letter"])
def test_name_error_points_at_its_identifier(text, message):
    _assert_error_at_backquote(text, message)


def _assert_error_at_backquote(text, message):
    before, after = text.split("`")
    with pytest.raises(ParseError) as info:
        parse(before + after)
    e = info.value
    line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
    assert (e.message, e.line, e.col) == (message, line, col)


@pytest.mark.parametrize("decls", ["int i, __nd_0;", "int __stub_cursor[4];",
                                   "int __CPROVER_x;"])
def test_reserved_identifier_rejected(decls):
    # Names beginning with "__" belong to the implementation (C11 7.1.3); the
    # emitted harness declares its temporaries and helpers there.
    with pytest.raises(ParseError, match=r"^2:\d+: identifier '__\w+' is reserved$"):
        parse(f"int x;\n{decls}\nmain() {{ x = 0; }}")


@pytest.mark.parametrize("name", [
    "while", "return", "static", "char", "sizeof", "do", "auto", "signed", "inline",
    "restrict", "_Bool", "_Static_assert", "asm", "typeof",
])
def test_c_keyword_is_not_an_identifier(name):
    # gcc rejects a declaration of any of these names in the emitted C.
    with pytest.raises(ParseError, match=rf"^1:5: expected identifier, found '{name}'$"):
        parse(f"int {name}, i;\nmain() {{ i = 0; }}")


def test_names_outside_the_c_keywords_stay_free():
    # bool and true are keywords only from C23 on, and NULL is a macro that
    # the emitted C's one header, <assert.h>, does not define.
    p = parse("int bool, true, NULL;\nmain() { bool = true; NULL = bool; }")
    assert [d.name for d in p.decls] == ["bool", "true", "NULL"]


@pytest.mark.parametrize("text, message", [
    ("int x;\nmain() { `break; }", "'break' outside a loop"),
    ("int x;\nmain() { x = 0; if (x == 0) { `continue; } }", "'continue' outside a loop"),
    ("int i;\nmain() { for (i = 0; i < 2; i++) { break; } `continue; }",
     "'continue' outside a loop"),
], ids=["break-in-main", "continue-under-if", "continue-after-loop"])
def test_break_or_continue_outside_a_loop_is_an_error(text, message):
    # C rejects it: "break statement not within loop or switch".
    _assert_error_at_backquote(text, message)


def test_syntax_error_has_position():
    with pytest.raises(ParseError, match=r"\d+:\d+"):
        parse("int i;\nmain() { i = ; }")


def test_for_step_must_use_iterator():
    with pytest.raises(ParseError):
        parse("int i, j;\nmain() { for (i = 0; i < 3; j++) { i = 1; } }")


def test_bodies_without_braces_round_trip():
    # The else binds to the nearest if, as in C.
    p = parse(
        "int i, k;\nmain() { for (i = 0; i < 3; i++) k = k + i;"
        " if (k == 1) if (i == 2) k = 1; else k = 2; }"
    )
    loop, outer = p.body.stmts
    assert isinstance(loop, For) and isinstance(loop.body, Assign)
    inner = outer.then
    assert outer.orelse is None and isinstance(inner, If)
    assert isinstance(inner.then, Assign) and isinstance(inner.orelse, Assign)
    assert parse(print_program(p)) == p


def test_locations_are_assigned_preorder():
    p = parse("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i++) { a[i] = i; } }")
    locs = [n.loc for n in walk(p.body)]
    assert all(isinstance(loc, int) for loc in locs)
    assert len(set(locs)) == len(locs)


def test_asserts_parse(fig7):
    asserts = [n for n in walk(fig7) if isinstance(n, Assert)]
    assert len(asserts) == 1


def test_nested_assignment_value(fig5):
    first = fig5.body.stmts[0]
    assert isinstance(first, (Assign, For))


def _v(name: str) -> Read:
    return Read(Var(name))


def _assigning(e) -> Program:
    """``x = e;`` over scalars a..h and x, located as the parser locates it."""
    decls = [Decl(name, SCALAR_INT) for name in "abcdefghx"]
    return assign_locs(clone(Program(decls, Block([Assign(Var("x"), e)]))))


# Generated programs use no && or ||, so these pairs are covered only here.
@pytest.mark.parametrize("shape", ["left", "right"])
@pytest.mark.parametrize("op1,op2", list(itertools.product(PRECEDENCE, repeat=2)))
def test_operator_pair_round_trip(op1, op2, shape):
    """``(a op1 b) op2 c`` and ``a op1 (b op2 c)`` survive printing and
    parsing for every ordered pair of operators."""
    if shape == "left":
        e = BinOp(op2, BinOp(op1, _v("a"), _v("b")), _v("c"))
    else:
        e = BinOp(op1, _v("a"), BinOp(op2, _v("b"), _v("c")))
    p = _assigning(e)
    assert parse(print_program(p)) == p


def test_binary_operators_nest_as_in_c():
    def text(e: str) -> str:
        return f"int a, b, c, d, e, f, g, h, x;\nmain() {{ x = {e}; }}\n"

    a, b, c, d, e, f, g, h = map(_v, "abcdefgh")
    mixed = BinOp("||", a, BinOp("&&", b, BinOp("==", c, BinOp(
        "<", d, BinOp("+", e, BinOp("%", BinOp("*", f, g), h))))))
    assert parse(text("a || b && c == d < e + f * g % h")) == _assigning(mixed)
    left = BinOp("-", BinOp("-", _v("a"), _v("b")), _v("c"))
    assert parse(text("a - b - c")) == _assigning(left)


# Raw text for the parser: arbitrary strings, soups of the language's own
# tokens, a small program with soup in its holes, and fixtures with a slice
# replaced by soup or arbitrary text.
_WORDS = (
    "int unsigned main for if else assert break continue nd input x a i "
    "( ) { } [ ] ; , = += ++ ? : + - * / % < <= > >= == != && || "
    "0 1 7 2147483647 2147483648"
).split() + ["9" * 5000]
_SOUP = st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join)
_FIXTURE_TEXTS = sorted(path.read_text() for path in FIXTURES.glob("*.c"))
_TEMPLATE = (
    "int x, i;\nint a[{}];\nmain() {{ x = {}; "
    "for (i = 0; i < {}; i += {}) {{ a[i] = {}; }} assert({}); }}"
)
_HOLES = st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=6, max_size=6,
).map(lambda holes: _TEMPLATE.format(*holes))


@st.composite
def _spliced_fixture(draw):
    text = draw(st.sampled_from(_FIXTURE_TEXTS))
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, min(len(text), lo + 40)))
    return text[:lo] + draw(_SOUP | st.text(max_size=10)) + text[hi:]


@given(st.text(max_size=200) | _SOUP | _HOLES | _spliced_fixture())
@settings(max_examples=400, deadline=None)
def test_parse_returns_or_raises_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass

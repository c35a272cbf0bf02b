from dataclasses import fields, is_dataclass

import pytest

from arraywitness import generate_program, parse, transform_with_info
from arraywitness.astnodes import For, Var, clone, mentions, walk
from arraywitness.oracle import OracleError, scale_arrays

from conftest import FIXTURES, load_fixture


def _reference_children(node):
    # Independent of the child table: every dataclass-valued field, and every
    # dataclass in a list-valued field, in declaration order.
    for f in fields(node):
        value = getattr(node, f.name)
        for v in value if isinstance(value, list) else [value]:
            if is_dataclass(v):
                yield v


def _reference_walk(node):
    yield node
    for child in _reference_children(node):
        yield from _reference_walk(child)


def _programs():
    for path in sorted(FIXTURES.glob("*.c")):
        yield path.name, load_fixture(path.name)
    for seed in range(200):
        yield f"seed {seed}", generate_program(seed)


def _with_transforms():
    for label, p in _programs():
        yield label, p
        if not label.startswith("fig1_golden"):  # already in output form
            yield f"{label} transformed", transform_with_info(p).program


def _ids_of_nodes_and_lists(p) -> set[int]:
    ids = set()
    for node in _reference_walk(p):
        ids.add(id(node))
        ids.update(id(getattr(node, f.name)) for f in fields(node)
                   if isinstance(getattr(node, f.name), list))
    return ids


def test_walk_order_matches_a_recursive_reference():
    for label, p in _with_transforms():
        assert [id(n) for n in walk(p)] == [id(n) for n in _reference_walk(p)], label
        assert [id(n) for n in walk(p.body)] == [id(n) for n in _reference_walk(p.body)]


def test_clone_is_equal_and_shares_no_node_or_list():
    for label, p in _with_transforms():
        q = clone(p)
        assert q == p, label
        assert not _ids_of_nodes_and_lists(p) & _ids_of_nodes_and_lists(q), label
        # single_trip is read from the tree, so the copy must agree on it.
        trips = [n.single_trip for n in walk(p) if isinstance(n, For)]
        assert [n.single_trip for n in walk(q) if isinstance(n, For)] == trips, label


def test_transform_and_scale_leave_their_input_unchanged():
    for label, p in _programs():  # fresh trees, untouched by other tests
        before = clone(p)
        if not label.startswith("fig1_golden"):
            transform_with_info(p)
            assert p == before, label
        try:
            scale_arrays(p, 2)
        except OracleError:  # ambiguous size mapping: rejected, not applied
            pass
        assert p == before, label


def test_nodes_reject_undeclared_attributes():
    v = Var("x")
    with pytest.raises(AttributeError):
        v.nmae = "y"
    assert not hasattr(v, "__dict__")


def test_mentions_counts_a_loop_iterator():
    # The header assigns i but holds no Var i.
    p = parse("int i, k;\nmain() { for (i = 0; k < 3; i = 5) { } }")
    (loop,) = p.body.stmts
    assert not any(isinstance(n, Var) and n.name == "i" for n in walk(loop))
    assert mentions(loop, "i") and mentions(p.body, "i")
    assert mentions(loop, "k") and not mentions(loop, "x")

"""Errors of the clique-width expression reader and walkers: the integers
from_sexpr reads, the order of two errors in one expression, a union whose
sides share a vertex id and a node that breaks the node rule, and the same
errors from walkers handed the expression's walk."""

import re

import numpy as np
import pytest

from pentaseven.expr import (
    Create,
    ExprError,
    Join,
    Rename,
    Union,
    eval_expr,
    from_sexpr,
    iter_nodes,
    to_sexpr,
    walk,
    width,
)

from test_cwd import eval_by_lists, random_expr, spoiled

NON_EVALUATING = [width, to_sexpr, lambda e: list(iter_nodes(e))]


# int() takes each of these spellings; the grammar's numbers are ASCII
# digits with an optional minus sign
@pytest.mark.parametrize("number", ["1_0", "+1", "٢", "１"])
@pytest.mark.parametrize("template", ["(create 1 {})", "(join {} 2 (create 1 0))"])
def test_from_sexpr_reads_only_ascii_decimal_numbers(template, number):
    with pytest.raises(ExprError, match=re.escape(f"expected integer, got {number!r}")):
        from_sexpr(template.format(number))


def test_from_sexpr_negative_numbers_reach_the_node_rule():
    assert from_sexpr("(create 1 -10)") == Create(1, -10)
    with pytest.raises(ExprError, match="vertex id must be an int >= 0, got -10"):
        eval_expr(from_sexpr("(create 1 -10)"))


def error_of(walk, expr):
    """(path, message) of the ExprError walk raises on expr, or None."""
    try:
        walk(expr)
    except ExprError as err:
        return err.path, str(err)
    return None


DUP = Union(Create(1, 9), Create(2, 9))
BREAK = Join(2, 2, Create(2, 8))


@pytest.mark.parametrize("expr, evaluated, ruled", [
    (Union(DUP, BREAK), ("left", "at left: duplicate vertex ids across union: [9]"),
     ("right", "at right: join needs two distinct labels, got 2")),
    (Union(BREAK, DUP), ("left", "at left: join needs two distinct labels, got 2"),
     ("left", "at left: join needs two distinct labels, got 2")),
    (Join(1, 1, DUP), ("child", "at child: duplicate vertex ids across union: [9]"),
     ("", "at root: join needs two distinct labels, got 1")),
])
def test_a_duplicate_union_and_a_rule_break(expr, evaluated, ruled):
    # eval_expr stops at whichever error a recursive evaluation meets first;
    # the walkers that do not evaluate raise the rule break
    assert error_of(eval_by_lists, expr) == error_of(eval_expr, expr) == evaluated
    for walk in NON_EVALUATING:
        assert error_of(walk, expr) == ruled


def spoiled_twice(seed):
    """One spoiled random expression built twice from the same seed, over
    vertex ids with repeats and over distinct ids: the two differ only in
    the ids of their valid create leaves, so the second breaks the node rule
    where the first does and no union of it meets a duplicate."""
    exprs = []
    for distinct in (False, True):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 30))
        ids = rng.integers(0, 12, size=size).tolist()
        exprs.append(spoiled(rng, random_expr(rng, list(range(size)) if distinct else ids,
                                              labels=6)))
    return exprs


def valid_ids(expr):
    """The valid vertex ids of the create leaves of expr, or None when a
    part of expr is not a node, which the list evaluator does not take."""
    ids, work = [], [expr]
    while work:
        node = work.pop()
        if isinstance(node, Create):
            if type(node.vertex) is int and node.vertex >= 0:
                ids.append(node.vertex)
        elif isinstance(node, Union):
            work += [node.left, node.right]
        elif isinstance(node, (Join, Rename)):
            work.append(node.child)
        else:
            return None
    return ids


def test_random_duplicates_and_rule_breaks_in_either_order():
    dup_first = break_first = 0
    for seed in range(400):
        expr, apart = spoiled_twice(seed)
        ids = valid_ids(expr)
        if ids is None:
            continue
        ruled = error_of(eval_by_lists, apart)
        evaluated = error_of(eval_by_lists, expr)
        assert error_of(eval_expr, expr) == evaluated
        for walk in NON_EVALUATING:
            assert error_of(walk, expr) == ruled
        if ruled and evaluated != ruled:
            dup_first += 1
        elif ruled and len(set(ids)) < len(ids):
            # two leaves share an id, and their union comes after the break
            break_first += 1
    assert dup_first >= 10 and break_first >= 10, (dup_first, break_first)


def outcome(read, expr):
    """What read returns on expr, or the (path, message) it raises."""
    try:
        return read(expr)
    except ExprError as err:
        return err.path, str(err)


def test_walkers_handed_the_walk_answer_as_handed_the_expression():
    # a Walk stands in for its expression: each walker returns the same
    # value or raises the same error, the evaluator's duplicate ids included
    answers = {True: 0, False: 0}  # raised -> count
    for seed in range(300):
        for expr in spoiled_twice(seed):
            w = walk(expr)
            assert walk(w) is w
            for read in (*NON_EVALUATING, eval_expr):
                want = outcome(read, expr)
                assert outcome(read, w) == want
                answers[type(want) is tuple] += 1
    assert min(answers.values()) >= 100, answers

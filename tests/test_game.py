"""Game arena, payoff evaluation, communication graph, history projection."""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from equisynth.errors import InvalidInput
from equisynth.game import (
    And, CommGraph, FullHistory, InfAtom, Not, Or, PayoffRule, PayoffSpec)
from equisynth.parsing import parse_condition

from conftest import random_comm
from oracles import payoff_of_lasso, project_history, validate_history


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_moves_and_successors(game5):
    moves = list(game5.moves("v0"))
    assert len(moves) == 32
    assert game5.successor("v0", ("a", "b", "a", "a", "a")) == "v2"
    assert game5.successor("v0", ("b", "a", "b", "b", "b")) == "v4"
    assert game5.successor("v0p", ("a", "a", "a", "a", "a")) == "v0p"


def test_payoff_first_match_order(game5):
    # v1 and v1p both recur: the earlier rule decides.
    assert game5.payoff.value({"v0", "v1", "v1p"}) == F(0, 0, 1, 1, 1)
    flipped = PayoffSpec(
        (game5.payoff.rules[1], game5.payoff.rules[0]) + game5.payoff.rules[2:],
        game5.payoff.default,
    )
    assert flipped.value({"v0", "v1", "v1p"}) == F(0, 0, 2, 2, 2)


def test_payoff_default_applies(game5):
    assert game5.payoff.value({"v0"}) == F(0, 0, 0, 0, 0)


def test_payoff_vectors_order(game5):
    vecs = game5.payoff.vectors()
    assert vecs[0] == F(0, 0, 1, 1, 1)
    assert vecs[-1] == F(0, 0, 0, 0, 0)
    assert len(vecs) == len(set(vecs))


def test_payoff_of_lasso(game5):
    assert payoff_of_lasso(game5.payoff, ("v0",), ("v0", "v1")) == F(0, 0, 1, 1, 1)
    assert payoff_of_lasso(game5.payoff, (), ("v3",)) == F(0, 0, 2, 0, 2)
    with pytest.raises(InvalidInput):
        payoff_of_lasso(game5.payoff, ("v0",), ())


def _with_v0(game, allow=(), tab=None):
    """`game` with v0's allow row updated by `allow` and, if given, its
    transition table replaced by `tab`."""
    return dataclasses.replace(
        game, allow={**game.allow, "v0": {**game.allow["v0"], **dict(allow)}},
        tab={**game.tab, "v0": game.tab["v0"] if tab is None else tab})


A5 = ("a",) * 5

# The tables of a game built in code, each broken once, and the message of
# `ConcurrentGame.validate`.  A game file never reaches these: its tables
# are checked as they are built.
TABLE_ERRORS = [
    (lambda g: dataclasses.replace(g, allow={v: r for v, r in g.allow.items() if v != "v0"}),
     "vertex 'v0' lacks allow/tab entries"),
    (lambda g: _with_v0(g, allow={"0": ()}), "allow('v0', '0') is empty"),
    (lambda g: _with_v0(g, allow={"0": ("a", "z")}),
     "allow('v0', '0') uses unknown action 'z'"),
    (lambda g: _with_v0(g, tab={m: v for m, v in g.tab["v0"].items() if m != A5}),
     "tab at 'v0' does not match allowed moves (missing [('a', 'a', 'a', 'a', 'a')], extra [])"),
    (lambda g: _with_v0(g, tab={**g.tab["v0"], A5: "zz"}),
     "tab('v0', ('a', 'a', 'a', 'a', 'a')) -> unknown vertex 'zz'"),
]


@pytest.mark.parametrize("change, message", TABLE_ERRORS,
                         ids=[message for _change, message in TABLE_ERRORS])
def test_table_errors_keep_their_messages(game5, change, message):
    game5.validate()
    with pytest.raises(InvalidInput) as exc:
        change(game5).validate()
    assert str(exc.value) == message


def test_condition_connectives():
    spec = PayoffSpec(
        (PayoffRule(parse_condition("inf(x) & !inf(y)"), F(1)),),
        F(0),
    )
    assert spec.value({"x"}) == F(1)
    assert spec.value({"x", "y"}) == F(0)


def test_chains_absorb_a_first_operand_of_their_connective():
    # `(a & b) & c` is the chain a, b, c, as the parser reads `a & b & c`;
    # `a & (b & c)` keeps its right operand whole.
    a, b, c = InfAtom("a"), InfAtom("b"), InfAtom("c")
    for chain, op in ((And, "&"), (Or, "|")):
        left = chain(chain(a, b), c)
        assert left.operands == (a, b, c)
        assert left == chain(a, b, c) == parse_condition(
            f"inf(a) {op} inf(b) {op} inf(c)")
        assert left == parse_condition(f"(inf(a) {op} inf(b)) {op} inf(c)")
        right = chain(a, chain(b, c))
        assert right.operands == (a, chain(b, c))
        assert right != left
        assert right == parse_condition(f"inf(a) {op} (inf(b) {op} inf(c))")
        assert left.text() == f"((inf(a) {op} inf(b)) {op} inf(c))"
        assert right.text() == f"(inf(a) {op} (inf(b) {op} inf(c)))"
        # Only the first operand, and only of the same connective.
        assert chain(Not(chain(a, b)), c).operands == (Not(chain(a, b)), c)
    assert Or(And(a, b), c).operands == (And(a, b), c)
    assert And(a, b) != Or(a, b)


def test_long_chains_are_read_without_recursion():
    # The parser builds a chain of 1,500 operands as one node that holds
    # them flat, so comparing, hashing and printing it with the dataclass
    # methods never recurses once per operand.
    for op in ("&", "|"):
        text = f" {op} ".join(f"inf(v{i % 3})" for i in range(1500))
        chain = parse_condition(text)
        assert chain == parse_condition(text)
        assert hash(chain) == hash(parse_condition(text))
        assert chain != parse_condition(f"{text} {op} inf(v0)")
        assert chain.atoms() == {"v0", "v1", "v2"}
        assert chain.holds(frozenset({"v0", "v1", "v2"}))
        assert chain.holds(frozenset({"v1"})) == (op == "|")
        assert repr(chain).startswith(
            f"{type(chain).__name__}(operands=(InfAtom(vertex='v0'), "
            "InfAtom(vertex='v1'), InfAtom(vertex='v2'), InfAtom(vertex='v0'), ")
    assert repr(parse_condition("(inf(a) & inf(b)) | !inf(c)")) == (
        "Or(operands=(And(operands=(InfAtom(vertex='a'), InfAtom(vertex='b'))), "
        "Not(operand=InfAtom(vertex='c'))))")
    assert parse_condition("inf(a) & inf(b)") != parse_condition("inf(a) | inf(b)")


def test_comm_graph_neighbourhoods(g1):
    assert g1.vois["0"] == ("0", "1", "4")
    assert g1.vois["4"] == ("3", "4")
    assert g1.vois["2"] == ("2",)
    assert g1.informed_by["3"] == ("3", "4")
    assert g1.informed_by["2"] == ("2",)


def test_comm_graph_distances_against_floyd_warshall():
    rng = random.Random(7)
    for _ in range(50):
        players = tuple(str(i) for i in range(rng.randint(1, 6)))
        graph = random_comm(rng, players)
        n = len(players)
        dist = [[math.inf] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
        for a, b in graph.edges:
            dist[players.index(a)][players.index(b)] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        for i, a in enumerate(players):
            for j, b in enumerate(players):
                assert graph.dist[(a, b)] == dist[i][j]
        finite = [d for row in dist for d in row if d != math.inf]
        assert graph.diameter == (max(finite) if finite else 0)


def test_edgeless_graph_diameter_zero():
    graph = CommGraph(("0", "1", "2"), frozenset())
    assert graph.diameter == 0
    assert graph.dist[("0", "1")] == math.inf
    assert graph.vois["1"] == ("1",)


def test_history_shape_and_validation(game5):
    h = FullHistory(
        ("v0", "v1", "v0"),
        ((("a",) * 5), (("a",) * 5)),
        ((None,) * 5, (None,) * 5),
    )
    validate_history(h, game5)
    with pytest.raises(InvalidInput):
        FullHistory(("v0",), ((("a",) * 5),), ())
    with pytest.raises(InvalidInput, match="^one message vector per move required$"):
        FullHistory(("v0", "v1"), ((("a",) * 5),), ())
    bad = FullHistory(
        ("v0", "v3"),
        ((("a",) * 5),),
        ((None,) * 5,),
    )
    with pytest.raises(InvalidInput):
        validate_history(bad, game5)


def test_projection_hides_invisible_deviations(game5, g3):
    # Deviations by players 2 and 3 from the same suggestion reach the same
    # vertex; player 1 only sees players 0 and 1 under the third graph, so
    # both histories project identically for it.
    by2 = FullHistory(
        ("v0", "v1p"),
        (("a", "a", "b", "a", "a"),),
        ((None, None, "2", None, None),),
    )
    by3 = FullHistory(
        ("v0", "v1p"),
        (("a", "a", "a", "b", "a"),),
        ((None, None, None, "3", None),),
    )
    validate_history(by2, game5)
    validate_history(by3, game5)
    assert g3.vois["1"] == ("0", "1")
    p2 = project_history(by2, "1", game5, g3)
    p3 = project_history(by3, "1", game5, g3)
    assert p2 == p3
    # Player 3 sees its own step differ and tells the two apart.
    assert project_history(by2, "3", game5, g3) != project_history(by3, "3", game5, g3)


def test_projection_of_length_zero_history(game5, g1):
    h = FullHistory(("v0",), (), ())
    local = project_history(h, "1", game5, g1)
    assert local.vertices == ("v0",)
    assert local.observations == ()

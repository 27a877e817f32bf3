"""Game arena, payoff evaluation, communication graph, history projection."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from equisynth.errors import InvalidInput
from equisynth.game import CommGraph, FullHistory, PayoffRule, PayoffSpec
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


def test_condition_connectives():
    spec = PayoffSpec(
        (PayoffRule(parse_condition("inf(x) & !inf(y)"), F(1)),),
        F(0),
    )
    assert spec.value({"x"}) == F(1)
    assert spec.value({"x", "y"}) == F(0)


def test_long_chains_are_read_without_recursion():
    # The parser folds a chain of 1,500 operands into a tree as deep as the
    # chain is long.  It compares, hashes and prints as the dataclass
    # methods would, without recursing once per operand.
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
            f"{type(chain).__name__}(left=" * 1499
            + "InfAtom(vertex='v0'), right=InfAtom(vertex='v1'))")
    assert repr(parse_condition("(inf(a) & inf(b)) | !inf(c)")) == (
        "Or(left=And(left=InfAtom(vertex='a'), right=InfAtom(vertex='b')), "
        "right=Not(operand=InfAtom(vertex='c')))")
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

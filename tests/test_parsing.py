"""Input formats: game files, comm graphs, payoff predicates."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from equisynth import asset_path
from equisynth.cli import main
from equisynth.errors import InvalidInput
from equisynth.parsing import (
    comm_graph_from_dict,
    game_from_dict,
    game_to_dict,
    parse_comm_graph,
    parse_condition,
    parse_game,
    parse_query,
    parse_rational,
)

from oracles import first_match_tab


def small_game_dict():
    return {
        "players": ["0", "1"],
        "actions": ["a", "b"],
        "vertices": ["s", "t"],
        "init": "s",
        "transitions": {
            "s": [
                {"pattern": {"0": "a", "1": "a"}, "to": "t"},
                {"pattern": "*", "to": "s"},
            ],
            "t": [{"pattern": "*", "to": "t"}],
        },
        "payoff": {
            "rules": [{"if": "inf(t)", "then": [1, 0]}],
            "default": [0, 1],
        },
    }


def test_parse_asset_game():
    game = parse_game(asset_path("five_player_game.json"))
    assert game.players == ("0", "1", "2", "3", "4")
    assert game.init_vertex == "v0"
    assert game.successor("v0", ("a",) * 5) == "v1"
    assert game.successor("v0", ("a", "a", "b", "a", "a")) == "v1p"
    assert game.successor("v0", ("b", "b", "a", "a", "a")) == "v3"
    assert game.successor("v1p", ("b", "b", "b", "b", "b")) == "v0"


def test_first_match_pattern_order():
    game = game_from_dict(small_game_dict())
    assert game.successor("s", ("a", "a")) == "t"
    assert game.successor("s", ("a", "b")) == "s"
    assert game.successor("s", ("b", "a")) == "s"


def _assert_first_match(data):
    game = game_from_dict(data)
    want = first_match_tab(game, data["transitions"])
    for v in game.vertices:
        assert list(game.tab[v].items()) == list(want[v].items())
    return game


def test_transition_table_matches_first_match_reference():
    # Overlapping patterns: a wildcard over players 1 and 2 before
    # single-move patterns it covers, list-valued actions, omitted players,
    # a spelled-out catch-all and a vertex with only a catch-all.
    data = {
        "players": ["0", "1", "2"],
        "actions": ["a", "b", "c"],
        "vertices": ["s", "t", "u"],
        "init": "s",
        "allow": {"t": {"1": ["a", "c"]}},
        "transitions": {
            "s": [{"pattern": {"0": "b"}, "to": "u"},
                  {"pattern": {"0": "b", "1": "a", "2": "a"}, "to": "t"},
                  {"pattern": {"0": "a", "1": "a", "2": "a"}, "to": "t"},
                  {"pattern": {"1": ["c", "a"], "2": ["b", "c"]}, "to": "u"},
                  {"pattern": {"0": ["a", "c"], "1": "*", "2": "c"}, "to": "s"},
                  {"pattern": "*", "to": "t"}],
            "t": [{"pattern": {"1": ["c"], "2": ["a", "b"]}, "to": "s"},
                  {"pattern": {"0": "c"}, "to": "u"},
                  {"pattern": {"0": "*", "1": "*", "2": "*"}, "to": "t"}],
            "u": [{"pattern": "*", "to": "s"}],
        },
        "payoff": {"rules": [], "default": [0, 0, 0]},
    }
    game = _assert_first_match(data)
    assert game.successor("s", ("b", "a", "a")) == "u"
    assert game.successor("s", ("a", "a", "a")) == "t"
    assert game.successor("s", ("c", "c", "b")) == "u"
    assert game.successor("s", ("c", "b", "c")) == "s"
    assert game.successor("s", ("c", "b", "a")) == "t"
    assert set(game.tab["u"].values()) == {"s"}


def test_random_transition_tables_match_first_match_reference():
    rng = random.Random(7)
    for _ in range(200):
        players = [str(i) for i in range(rng.randint(1, 3))]
        actions = ["a", "b", "c"][:rng.randint(1, 3)]
        allow = {a: sorted(rng.sample(actions, rng.randint(1, len(actions))))
                 for a in players}

        def spec(a):
            pick = rng.random()
            if pick < 0.3:
                return "*"
            if pick < 0.6:
                return rng.choice(allow[a])
            return rng.sample(allow[a], rng.randint(1, len(allow[a])))

        entries = [{"pattern": {a: spec(a) for a in players if rng.random() < 0.7},
                    "to": rng.choice(["s", "t"])}
                   for _ in range(rng.randint(0, 5))]
        closing = rng.choice(["*", {}, {a: "*" for a in players}])
        _assert_first_match({
            "players": players,
            "actions": actions,
            "vertices": ["s", "t"],
            "init": "s",
            "allow": {"s": allow},
            "transitions": {"s": entries + [{"pattern": closing, "to": "t"}],
                            "t": [{"pattern": "*", "to": "s"}]},
            "payoff": {"rules": [], "default": [0] * len(players)},
        })


def test_missing_catch_all_rejected():
    data = small_game_dict()
    data["transitions"]["t"] = [{"pattern": {"0": "a", "1": "a"}, "to": "t"}]
    with pytest.raises(InvalidInput):
        game_from_dict(data)


def test_unknown_vertex_target_rejected():
    data = small_game_dict()
    data["transitions"]["t"] = [{"pattern": "*", "to": "nowhere"}]
    with pytest.raises(InvalidInput):
        game_from_dict(data)


def test_payoff_arity_rejected():
    data = small_game_dict()
    data["payoff"]["default"] = [0, 1, 2]
    with pytest.raises(InvalidInput):
        game_from_dict(data)


def _broken(**changes):
    data = small_game_dict()
    data.update(changes)
    return data


# The declarations `game_from_dict` leaves to
# `ConcurrentGame.validate_declarations`, each broken once, and the message
# a game file breaking it gets.
DECLARATION_ERRORS = [
    (_broken(vertices=["s", "t", "s"]), "duplicate vertex ids"),
    (_broken(players=["0", "1", "0"],
             payoff={"rules": [{"if": "inf(t)", "then": [1, 0, 0]}], "default": [0, 1, 0]}),
     "duplicate player ids"),
    (_broken(actions=["a", "b", "a"]), "duplicate action ids"),
    (_broken(init="u"), "init vertex 'u' unknown"),
    (_broken(players=[], payoff={"rules": [], "default": []},
             transitions={v: [{"pattern": "*", "to": v}] for v in "st"}),
     "players, actions and vertices must be nonempty"),
    (_broken(payoff={"rules": [{"if": "inf(t)", "then": [1, 0, 0]}], "default": [0, 1]}),
     "payoff rule vector arity mismatch"),
    (_broken(payoff={"rules": [{"if": "inf(u)", "then": [1, 0]}], "default": [0, 1]}),
     "payoff condition uses unknown vertex 'u'"),
]


@pytest.mark.parametrize("data, message", DECLARATION_ERRORS,
                         ids=[message for _data, message in DECLARATION_ERRORS])
def test_declaration_errors_keep_their_messages(data, message):
    with pytest.raises(InvalidInput) as exc:
        game_from_dict(data)
    assert str(exc.value) == message


def _game(change):
    data = small_game_dict()
    change(data)
    return data


def _transitions_at_s(*entries):
    """The small game with `entries` and then a catch-all at vertex s."""
    return _game(lambda d: d["transitions"].update(s=[*entries, {"pattern": "*", "to": "s"}]))


# Input errors: (kind, input, message).  The input of a "condition" or a
# "query" row is the text of the small game's first payoff condition or of
# the predicate, a "game" row's is its game file's JSON and a "comm" row's
# its comm graph file's JSON (None: no such file).  `{game}` and `{comm}`
# in a message stand for the files' paths.
INPUT_ERRORS = [
    ("condition", "inf(a) $ inf(b)", "unexpected character '$' in expression 'inf(a) $ inf(b)'"),
    ("condition", "inf(a]", "expected ')' but found ']' in 'inf(a]'"),
    ("condition", "inf(a) inf(b)", "trailing tokens ['inf', '(', 'b', ')'] in 'inf(a) inf(b)'"),
    ("condition", "sup(a)", "expected inf(...) atom, found 'sup' in 'sup(a)'"),
    ("query", "p[0] & 1", "bad comparison operator '&'"),
    ("query", "p(0)", "expected '[' or '=' after p, found '('"),
    ("game", _transitions_at_s({"pattern": ["0"], "to": "t"}), "bad pattern ['0'] at vertex 's'"),
    ("game", _transitions_at_s({"pattern": {"9": "a"}, "to": "t"}),
     "pattern at 's' names unknown player '9'"),
    ("game", _transitions_at_s({"pattern": {"0": "z"}, "to": "t"}),
     "pattern at 's' uses unknown action 'z'"),
    ("game", _game(lambda d: d.update(allow={"s": {"0": ["a"]}}, transitions={
        **d["transitions"], "s": [{"pattern": {"0": "b"}, "to": "t"}, {"pattern": "*", "to": "s"}]})),
     "pattern at 's' uses action 'b' not allowed for '0'"),
    ("game", _transitions_at_s({"to": "t"}), "transition entry at 's' needs pattern and to"),
    ("game", _game(lambda d: d.pop("init")), "game file missing 'init'"),
    ("game", _game(lambda d: d.update(allow={"s": {"0": ["a", "a"]}})),
     "allow('s', '0') mentions unknown or duplicate actions"),
    ("game", _game(lambda d: d.update(allow={"s": {"0": ["z"]}})),
     "allow('s', '0') mentions unknown or duplicate actions"),
    ("game", _game(lambda d: d["transitions"].update(t=[])), "vertex 't' has no transition entries"),
    ("game", _game(lambda d: d["payoff"].pop("default")), "payoff block missing default vector"),
    ("game", _game(lambda d: d["payoff"]["rules"][0].pop("then")),
     "payoff rule needs 'if' and 'then'"),
    ("game", _game(lambda d: d["payoff"].update(default=[True, 0])), "bad rational True"),
    ("game", _game(lambda d: d["payoff"].update(default=[None, 0])), "bad rational None"),
    ("game", [], "game file {game} must hold a JSON object"),
    ("comm", None,
     "cannot read comm graph file {comm}: [Errno 2] No such file or directory: '{comm}'"),
    ("comm", [], "comm graph file {comm} must hold a JSON object"),
]


@pytest.mark.parametrize("kind, data, message", INPUT_ERRORS,
                         ids=[message for _kind, _data, message in INPUT_ERRORS])
def test_input_errors_keep_their_messages(capsys, tmp_path, kind, data, message):
    # The reader raises the message, and the command line that reads the
    # input prints it and exits 2.
    game, comm = tmp_path / "game.json", tmp_path / "comm.json"
    game_data = data if kind == "game" else small_game_dict()
    if kind == "condition":
        game_data["payoff"]["rules"][0]["if"] = data
    game.write_text(json.dumps(game_data))
    comm.write_text(json.dumps({"edges": []}))
    if kind == "comm" and data is None:
        comm = tmp_path / "missing.json"
    elif kind == "comm":
        comm.write_text(json.dumps(data))
    message = message.format(game=game, comm=comm)
    read = {
        "condition": lambda: parse_condition(data),
        "query": lambda: parse_query(data),
        "game": lambda: parse_game(game),
        "comm": lambda: parse_comm_graph(comm, ("0", "1")),
    }[kind]
    with pytest.raises(InvalidInput) as exc:
        read()
    assert str(exc.value) == message
    command = ["solve", "--predicate", data] if kind == "query" else ["build"]
    code = main([*command, "--game", str(game), "--comm", str(comm)])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_float_payoffs_rejected():
    data = small_game_dict()
    data["payoff"]["rules"][0]["then"] = [0.25, 1]
    with pytest.raises(InvalidInput):
        game_from_dict(data)


def test_rational_payoffs_as_strings():
    data = small_game_dict()
    data["payoff"]["rules"][0]["then"] = ["1/3", 1]
    game = game_from_dict(data)
    assert game.payoff.rules[0].vector == (Fraction(1, 3), Fraction(1))


def test_game_round_trip():
    data = json.loads(asset_path("five_player_game.json").read_text())
    # A rule with every connective, so that each one's text is read back.
    rule = "inf(v2) & !inf(v3) | inf(v4) & (inf(v2) | !inf(v1))"
    data["payoff"]["rules"].insert(0, {"if": rule, "then": [1, 0, 0, 0, 1]})
    game = game_from_dict(data)
    again = game_from_dict(game_to_dict(game))
    assert again.vertices == game.vertices
    assert again.players == game.players
    for v in game.vertices:
        for m in game.moves(v):
            assert again.successor(v, m) == game.successor(v, m)
    assert again.payoff == game.payoff
    inf = frozenset(("v1", "v1p"))
    assert again.payoff.value(inf) == game.payoff.value(inf)


def test_comm_graph_parsing():
    game = parse_game(asset_path("five_player_game.json"))
    graph = parse_comm_graph(asset_path("comm_g1.json"), game.players)
    assert ("3", "4") in graph.edges
    assert graph.vois["0"] == ("0", "1", "4")
    assert graph.informed_by["3"] == ("3", "4")


def test_comm_graph_rejects_self_loop_and_unknown():
    with pytest.raises(InvalidInput):
        comm_graph_from_dict({"edges": [["0", "0"]]}, ("0", "1"))
    with pytest.raises(InvalidInput):
        comm_graph_from_dict({"edges": [["0", "9"]]}, ("0", "1"))


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("4") == Fraction(4)
    for token in ("0.5x", "\u0663", "1/\u0662", "\uff14"):
        with pytest.raises(InvalidInput):
            parse_rational(token)


def test_game_file_rationals_take_no_underscores():
    # Fraction("1_0") is 10 from Python 3.11 on and an error before it.
    data = small_game_dict()
    data["payoff"]["rules"][0]["then"] = ["1_0", 1]
    with pytest.raises(InvalidInput, match="bad rational '1_0'"):
        game_from_dict(data)


def test_predicate_rationals_take_no_underscores():
    for text in ("p[0]<=1_0", "p=(1_0,0)", "p[1]=1/2_0"):
        with pytest.raises(InvalidInput, match="bad rational"):
            parse_query(text)


def test_query_matching():
    q = parse_query("p[2]=1 & p[3]>=1 & p[4]=1")
    assert q.matches(tuple(Fraction(x) for x in (0, 0, 1, 1, 1)))
    assert q.matches(tuple(Fraction(x) for x in (5, 5, 1, 2, 1)))
    assert not q.matches(tuple(Fraction(x) for x in (0, 0, 2, 1, 1)))


def test_query_disjunction_and_vector():
    q = parse_query("p=(0,0,1,1,1) | p[0]>2")
    assert q.matches(tuple(Fraction(x) for x in (0, 0, 1, 1, 1)))
    assert q.matches(tuple(Fraction(x) for x in (3, 0, 0, 0, 0)))
    assert not q.matches(tuple(Fraction(x) for x in (1, 0, 1, 1, 1)))


def test_query_rationals():
    q = parse_query("p[1]=1/2")
    assert q.matches((Fraction(0), Fraction(1, 2)))
    assert not q.matches((Fraction(0), Fraction(1, 3)))


def test_query_inequality_and_negation():
    q = parse_query("p[0]!=0 & !(p[1]<=1)")
    assert q.matches((Fraction(1), Fraction(2)))
    assert not q.matches((Fraction(0), Fraction(2)))
    assert not q.matches((Fraction(1), Fraction(1)))


def test_query_syntax_errors():
    for text in ("p[0]", "p[x]=1", "p[0]=1 &", "q[0]=1", "p=(1,"):
        with pytest.raises(InvalidInput):
            parse_query(text)
